from functools import partial

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
    TWO_PI,
    boundary_grid,
    contact_indicator,
    verify_self_map,
)
from oracles import (
    blaschke_reference,
    identity_reference,
    mobius_reference,
    monomial_reference,
    rotation_reference,
    symbol_to_spec,
)

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


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_boundary_grid_is_shared_read_only_and_exact(n):
    theta, zeta = boundary_grid(n)
    again = boundary_grid(n)
    assert again[0] is theta and again[1] is zeta
    assert not theta.flags.writeable and not zeta.flags.writeable
    want = TWO_PI * np.arange(n) / n
    assert theta.tobytes() == want.tobytes()
    assert zeta.tobytes() == np.exp(1j * want).tobytes()


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


# --- the inner type against its references --------------------------------------
# Sizes stay at 4,096 points or fewer: at 25,000 points numpy's vectorised
# complex products already round the automorphism and a one-zero product
# differently in the last bit, so a reference written either way can miss by one.
REFERENCE_SIZES = (33, 256, 1024, 4096)


def _points(n):
    """n points of the unit circle and n of the open disc."""
    rng = np.random.default_rng(n)
    disc = np.sqrt(rng.uniform(0.0, 0.999, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    return np.concatenate([np.exp(2j * np.pi * np.arange(n) / n), disc])


def _same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.uint64), np.asarray(y).view(np.uint64))


def _rel_err(x, y, scale=None):
    return float(np.max(np.abs(x - y) / (np.abs(y) if scale is None else scale)))


def _product_rule_scale(zeros, z):
    """sum_j |f_j'| prod_{i != j} |f_i|: |B'| on the circle, where the terms align.

    Inside the disc the terms can cancel (B' has zeros there), so both
    derivatives carry round-off relative to this sum, not to |B'|.
    """
    moduli = [np.abs((a - z) / (1.0 - np.conj(a) * z)) for a in zeros]
    slopes = [(1.0 - abs(a) ** 2) / np.abs(1.0 - np.conj(a) * z) ** 2 for a in zeros]
    return sum(slopes[j] * np.prod([m for i, m in enumerate(moduli) if i != j], axis=0)
               for j in range(len(zeros)))


def _zeros(count, origin):
    """``count`` seeded zeros with |a| < 0.95, ``origin`` of them (from the first) at 0."""
    rng = np.random.default_rng(count)
    radii = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, count))
    zeros = [complex(a) for a in radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))]
    step = max(1, count // max(origin, 1))
    for i in range(origin):
        zeros[i * step] = 0j
    return tuple(zeros)


CLOSED_FORMS = [
    (Identity(), identity_reference),
    (Rotation(0.7), partial(rotation_reference, 0.7)),
    (MobiusAuto(0.3 - 0.4j, post_rotation=1.1), partial(mobius_reference, 0.3 - 0.4j, 1.1)),
    (MobiusAuto((1 - 1e-7) * np.exp(0.7j), post_rotation=1.3),
     partial(mobius_reference, (1 - 1e-7) * np.exp(0.7j), 1.3)),
    *[(Monomial(k), partial(monomial_reference, k)) for k in range(1, 13)],
]


@pytest.mark.parametrize("n", REFERENCE_SIZES)
@pytest.mark.parametrize("symbol, reference", CLOSED_FORMS, ids=lambda s: getattr(s, "label", ""))
def test_inner_type_matches_closed_forms(symbol, reference, n):
    z = _points(n)
    value, deriv = reference(z)
    assert _same_bits(symbol.value(z), value)
    assert _rel_err(symbol.deriv(z), deriv) <= 1e-14


@pytest.mark.parametrize("n", REFERENCE_SIZES)
@pytest.mark.parametrize("count", range(1, 13))
def test_inner_type_matches_factor_by_factor_blaschke_product(count, n):
    z = _points(n)
    # no zero at the origin, or one leading the list: the factors are multiplied
    # in the reference's order, so the values keep its bits
    for origin in (0, 1):
        zeros = _zeros(count, origin)
        value, deriv = blaschke_reference(zeros, 0.4, z)
        symbol = FiniteBlaschke(zeros, post_rotation=0.4)
        assert _same_bits(symbol.value(z), value)
        assert _rel_err(symbol.deriv(z), deriv, _product_rule_scale(zeros, z)) <= 1e-14
    # several zeros at the origin enter as one power z^m, not as m factors -z
    zeros = _zeros(count, (count + 1) // 2)
    value, deriv = blaschke_reference(zeros, 0.4, z)
    symbol = FiniteBlaschke(zeros, post_rotation=0.4)
    assert _rel_err(symbol.value(z), value) <= 1e-14
    assert _rel_err(symbol.deriv(z), deriv, _product_rule_scale(zeros, z)) <= 1e-14


def test_describe_keeps_each_spelling():
    built = [Identity(), Rotation(0.7), MobiusAuto(0.3 - 0.4j, post_rotation=1.1), Monomial(5),
             FiniteBlaschke((0.3j, -0.2, 0.1 + 0.1j), post_rotation=0.4),
             Polynomial([0.1, 0.2j, -0.3])]
    assert [s.describe() for s in built] == [
        "identity", "rotation(0.7)", "mobius(a=0.3-0.4j, rot=1.1)", "z^5",
        "blaschke([0+0.3j,-0.2+0j,0.1+0.1j], rot=0.4)", "poly([0.1+0j,0+0.2j,-0.3+0j])",
    ]
    specs = [
        {"type": "identity"},
        {"type": "rotation", "angle": 1},
        {"type": "mobius", "a": {"re": 0.5}},
        {"type": "monomial", "k": 2.0},
        {"type": "blaschke", "zeros": [0, {"re": -0.25, "im": 1e-3}], "post_rotation": 2.5},
        {"type": "poly", "coeffs": [0.5, {"im": 0.5}]},
    ]
    assert [symbol_from_spec(spec).describe() for spec in specs] == [
        "identity", "rotation(1)", "mobius(a=0.5+0j, rot=0)", "z^2",
        "blaschke([0+0j,-0.25+0.001j], rot=2.5)", "poly([0.5+0j,0+0.5j])",
    ]
