import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from discop.config import symbol_from_spec
from discop.errors import ConfigError, ParamError, SymbolError
from discop.kernels import SupSearchSettings
from discop.symbols import (
    BoundaryPoint,
    FiniteBlaschke,
    Identity,
    MobiusAuto,
    Monomial,
    Polynomial,
    Rotation,
    contact_indicator,
    verify_self_map,
)
from oracles import symbol_to_spec

CATALOG = [
    Identity(),
    Rotation(0.7),
    MobiusAuto(0.5),
    MobiusAuto(0.3 - 0.4j, post_rotation=1.1),
    Monomial(2),
    Monomial(5),
    FiniteBlaschke((0.5, -0.5)),
    FiniteBlaschke((0.3j, -0.2, 0.1 + 0.1j), post_rotation=0.4),
]


def test_mobius_at_zero():
    assert MobiusAuto(0.5).value(0.0) == pytest.approx(0.5)


def test_monomial_at_i():
    assert Monomial(2).value(1j) == pytest.approx(-1.0)


def test_blaschke_product_at_zero():
    assert FiniteBlaschke((0.5, -0.5)).value(0.0) == pytest.approx(-0.25)


def test_monomial_deriv_at_one():
    assert Monomial(2).deriv(1.0) == pytest.approx(2.0)


def test_mobius_deriv_at_zero():
    assert MobiusAuto(0.5).deriv(0.0) == pytest.approx(-0.75)


def test_rotation_deriv_is_constant_phase():
    theta = 1.3
    for z in [0.0, 0.5j, -0.7]:
        assert Rotation(theta).deriv(z) == pytest.approx(np.exp(1j * theta))


@pytest.mark.parametrize("symbol", CATALOG, ids=lambda s: s.describe())
def test_catalog_self_map_bulk(symbol):
    rng = np.random.default_rng(42)
    z = 0.999 * np.sqrt(rng.uniform(0, 1, 10000)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, 10000)
    )
    assert np.max(np.abs(symbol.value(z))) < 1.0 + 1e-12


@pytest.mark.parametrize("symbol", CATALOG, ids=lambda s: s.describe())
@pytest.mark.parametrize("h", [1e-4, 1e-5])
def test_finite_difference_derivative(symbol, h):
    for z in [0.3 + 0.1j, -0.5j, 0.2]:
        fd = (symbol.value(z + h) - symbol.value(z - h)) / (2 * h)
        exact = symbol.deriv(z)
        assert abs(fd - exact) <= 50.0 * h**2


def test_mobius_parameter_must_be_interior():
    with pytest.raises(ParamError):
        MobiusAuto(1.0)
    with pytest.raises(ParamError):
        FiniteBlaschke((0.5, 1.2j))


def test_guards_refuse_nan():
    # a NaN compares False with every bound, so each guard must be written to fail on it
    with pytest.raises(SymbolError):
        verify_self_map(Polynomial([np.nan, 0.5]))
    with pytest.raises(ParamError):
        MobiusAuto(np.nan)
    with pytest.raises(ParamError):
        FiniteBlaschke((0.5, np.nan))


@pytest.mark.parametrize("field, value", [
    ("max_refinements", 0),
    ("interior_rel_margin", -1.0),
    ("interior_rel_margin", np.nan),
    ("stabilization_rel_tol", -1.0),
    ("stabilization_rel_tol", 0.0),
    ("stabilization_rel_tol", np.nan),
    ("contact_tol", -1.0),
    ("contact_tol", np.nan),
    ("divergence_threshold", -5.0),
    ("divergence_threshold", np.nan),
    ("growth_factor", np.nan),
])
def test_sup_search_settings_guards_name_their_field(field, value):
    with pytest.raises(ParamError, match=field):
        SupSearchSettings(**{field: value})


def test_monomial_degree_positive():
    with pytest.raises(ParamError):
        Monomial(0)


def test_verify_polynomial_half_plus_half():
    check = verify_self_map(Polynomial([0.5, 0.5]))
    assert check.symbol.verified
    assert check.boundary_contact
    assert check.max_modulus == pytest.approx(1.0, abs=1e-9)


def test_verify_polynomial_rejects_double():
    with pytest.raises(SymbolError) as exc_info:
        verify_self_map(Polynomial([0, 2]))
    assert exc_info.value.angle is not None
    assert exc_info.value.code == "E_SYMBOL"


def test_verify_polynomial_constant():
    check = verify_self_map(Polynomial([0.2]))
    assert check.symbol.verified
    assert not check.boundary_contact
    assert check.max_modulus == pytest.approx(0.2)


def test_verify_needs_reasonable_grid():
    with pytest.raises(ParamError):
        verify_self_map(Polynomial([0.5]), grid_size=64)


def test_unverified_polynomial_cannot_evaluate():
    poly = Polynomial([0.5, 0.25])
    with pytest.raises(SymbolError):
        poly.value(0.3)
    with pytest.raises(SymbolError):
        poly.deriv(0.3)
    verified = verify_self_map(poly).symbol
    assert verified.value(0.0) == pytest.approx(0.5)
    assert verified.deriv(0.0) == pytest.approx(0.25)


def test_contact_indicator_inner_vs_polynomial():
    angles = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    assert contact_indicator(Monomial(3), angles).all()
    poly = verify_self_map(Polynomial([0.5, 0.5])).symbol
    mask = contact_indicator(poly, angles)
    assert mask[0]  # angle 0 touches the circle
    assert not mask[len(angles) // 2]  # angle pi is well inside


def test_boundary_point_normalizes_angle():
    p = BoundaryPoint(2 * np.pi + 0.25)
    assert p.angle == pytest.approx(0.25)
    assert abs(p.to_complex()) == pytest.approx(1.0)


@pytest.mark.parametrize("symbol", CATALOG + [Polynomial([0.1, 0.2, 0.3])],
                         ids=lambda s: s.describe())
def test_spec_round_trip(symbol):
    spec = symbol_to_spec(symbol)
    rebuilt = symbol_from_spec(spec)
    z = np.array([0.3 + 0.2j, -0.5, 0.1j])
    if isinstance(symbol, Polynomial):
        assert rebuilt.coeffs == symbol.coeffs
    else:
        assert np.allclose(rebuilt.value(z), symbol.value(z), atol=1e-15)


def test_spec_rejects_unknown_type():
    with pytest.raises(ConfigError):
        symbol_from_spec({"type": "exp"})
    with pytest.raises(ConfigError):
        symbol_from_spec({"angle": 1.0})


@given(st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
       st.floats(min_value=0, max_value=0.999))
def test_mobius_maps_disc_to_disc(a, r):
    sym = MobiusAuto(a)
    z = r * np.exp(0.73j)
    assert abs(sym.value(z)) <= 1.0 + 1e-12
