import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from discop.errors import ParamError
from discop.series import TruncatedPowerSeries
from discop.symbols import Polynomial

coeff_strategy = st.lists(
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


def test_eval_identity_coefficients():
    s = TruncatedPowerSeries([0, 1])
    assert s.value(0.3 + 0.4j) == pytest.approx(0.3 + 0.4j)


def test_eval_constant():
    s = TruncatedPowerSeries([1])
    assert s.value(0.9j) == 1.0
    assert s.value(-0.2) == 1.0


def test_eval_square_at_i():
    s = TruncatedPowerSeries([0, 0, 1])
    assert s.value(1j) == pytest.approx(-1.0)


def test_eval_at_zero_returns_a0_exactly():
    s = TruncatedPowerSeries([0.25 + 0.5j, 3.0, -2.0])
    assert s.value(0.0) == 0.25 + 0.5j


def test_eval_vectorized_matches_scalar():
    s = TruncatedPowerSeries([1, -2, 0.5j, 0.25])
    zs = np.array([0.1, 0.2 + 0.3j, -0.9j])
    batch = s.value(zs)
    for z, v in zip(zs, batch):
        assert s.value(z) == pytest.approx(v)


@given(coeffs=coeff_strategy)
def test_value_and_deriv_are_horner_of_series_and_derivative(coeffs):
    s = TruncatedPowerSeries(coeffs)
    poly = Polynomial(coeffs, verified=True)
    z = np.array([0.0, 0.3 + 0.4j, -0.9j, np.exp(0.7j)])
    # the termwise derivative, written out here
    derivative = TruncatedPowerSeries([n * c for n, c in enumerate(s.coeffs)][1:] or [0.0])
    want = derivative.value(z)
    assert s.deriv(z).tobytes() == want.tobytes()
    assert poly.deriv(z).tobytes() == want.tobytes()
    assert poly.value(z).tobytes() == s.value(z).tobytes()
    assert poly.deriv(0.5j) == derivative.value(0.5j)


def test_differentiate_linear():
    assert TruncatedPowerSeries([0, 1])._derivative.coeffs == (1.0,)


def test_differentiate_constant_is_zero_series():
    assert TruncatedPowerSeries([5.0])._derivative.coeffs == (0.0,)


def test_differentiate_square():
    assert TruncatedPowerSeries([0, 0, 1])._derivative.coeffs == (0.0, 2.0)


def test_differentiate_drops_order_by_one():
    s = TruncatedPowerSeries([1, 2, 3, 4])
    assert len(s._derivative.coeffs) == len(s.coeffs) - 1


def test_empty_series_rejected():
    with pytest.raises(ParamError):
        TruncatedPowerSeries(())
