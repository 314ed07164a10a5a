import numpy as np
import pytest

from discop.errors import ParamError, SymbolError
from discop.kernels import (
    SupSearchSettings,
    Verdict,
    _diag_values_batch,
    _grid_geometry,
    _interior_points,
    _kernel_grid,
    _neville_to_zero,
    _start_geometry,
    estimate_sup,
)
from discop.symbols import (
    FiniteBlaschke,
    Identity,
    MobiusAuto,
    Monomial,
    Polynomial,
    Rotation,
    verify_self_map,
)
from oracles import (
    SingularKernelError,
    closed_form_sup,
    eval_kernel,
    neville_to_zero_scalar,
    pointwise_kernel_identity_check,
)


def _random_pairs(count=200, seed=3):
    rng = np.random.default_rng(seed)
    z = 0.95 * np.sqrt(rng.uniform(0, 1, count)) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    w = 0.95 * np.sqrt(rng.uniform(0, 1, count)) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    return z, w


def test_identity_kernel_is_one():
    z, w = _random_pairs()
    vals = eval_kernel(Identity(), z, w)
    assert np.allclose(vals, 1.0, atol=1e-14)


def test_monomial_two_kernel_geometric_factor():
    z, w = _random_pairs()
    vals = eval_kernel(Monomial(2), z, w)
    assert np.allclose(vals, 1.0 + z * np.conj(w), atol=1e-13)


def test_monomial_two_kernel_near_diagonal_corner():
    # at angles (0, 0) the limit along the diagonal is 1 + 1 = 2
    val = eval_kernel(Monomial(2), 0.999, 0.999)
    assert val == pytest.approx(1.0 + 0.999**2, rel=1e-12)


@pytest.mark.parametrize("a", [0.5, 0.3 - 0.4j])
def test_mobius_kernel_closed_form(a):
    sym = MobiusAuto(a)
    z, w = _random_pairs()
    expected = (1 - abs(a) ** 2) / ((1 - np.conj(a) * z) * (1 - a * np.conj(w)))
    assert np.allclose(eval_kernel(sym, z, w), expected, atol=1e-13)


def test_kernel_singular_guard():
    with pytest.raises(SingularKernelError):
        eval_kernel(Identity(), 1.0, 1.0)


def test_eval_kernel_value_and_unverified_polynomial():
    assert eval_kernel(Monomial(2), 0.2, 0.1j) == pytest.approx(1.0 + 0.2 * np.conj(0.1j))
    with pytest.raises(SymbolError):
        eval_kernel(Polynomial([0.5, 0.25]), 0.2, 0.1j)


# --- diagonal boundary values -------------------------------------------------


@pytest.mark.parametrize(
    "symbol, angle, expected",
    [
        (Identity(), 0.7, 1.0),
        (Monomial(2), 0.0, 2.0),
        (verify_self_map(Polynomial([0.5, 0.5])).symbol, 0.0, 0.5),
        # the radial limit at a contact point is the angular derivative |phi'|
        (MobiusAuto(0.5), 0.0, None),
        (MobiusAuto(0.3j), 1.2, None),
        (Monomial(3), 2.0, None),
    ],
    ids=["identity", "z^2", "contact-poly", "mobius-0.5", "mobius-0.3i", "z^3"],
)
def test_diagonal_radial_limit(symbol, angle, expected):
    zeta = np.exp(1j * np.array([angle]))
    (value,), (ok,) = _diag_values_batch(symbol, zeta, np.abs(symbol.value(zeta)))
    if expected is None:
        expected = float(abs(symbol.deriv(np.exp(1j * angle))))
    assert ok
    assert value == pytest.approx(expected, abs=1e-9)


def test_kernel_grid_diagonal_contact_inner_vs_polynomial():
    # a Blaschke product touches the circle at every angle, a polynomial only
    # where 1 - |phi| <= contact_tol; other diagonal cells are skipped
    angles = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    geometry = _grid_geometry(angles, angles)
    assert np.diag(_kernel_grid(Monomial(3), geometry, 1e-6)) == pytest.approx(3.0)
    poly = verify_self_map(Polynomial([0.5, 0.5])).symbol
    diag = np.diag(_kernel_grid(poly, geometry, 1e-6))
    assert diag[0] == pytest.approx(0.5)  # angle 0 touches the circle: |phi'| there
    assert not diag[1:].any()


@pytest.mark.parametrize("n", [1, 7, 64])
def test_neville_vectorised_matches_scalar_loop_bitwise(n):
    rng = np.random.default_rng(n)
    hs = 0.2 * 0.5 ** np.arange(9)
    table = rng.normal(size=(9, n)) * rng.uniform(0.5, 2.0, size=(9, 1))
    limit, corr = _neville_to_zero(hs, table)
    ref_limit, ref_corr = neville_to_zero_scalar(hs, table)
    assert limit.tobytes() == ref_limit.tobytes()
    assert corr.tobytes() == ref_corr.tobytes()


# --- start-grid geometry cache -------------------------------------------------


@pytest.mark.parametrize(
    "symbol",
    [
        Monomial(2),
        MobiusAuto(0.9),
        FiniteBlaschke((0.5, -0.3j)),
        verify_self_map(Polynomial([0.1, 0.3, 0.2])).symbol,
    ],
    ids=["z^2", "mobius-0.9", "blaschke", "interior-poly"],
)
def test_cached_start_grid_matches_uncached_bitwise(symbol):
    cached = _start_geometry(256)
    alphas = cached[0]
    fresh = _grid_geometry(alphas.copy(), alphas.copy())
    assert fresh[2] is not fresh[1]  # the uncached call evaluates phi twice
    got = _kernel_grid(symbol, cached, 1e-6)
    want = _kernel_grid(symbol, fresh, 1e-6)
    assert got.tobytes() == want.tobytes()


def test_cached_arrays_are_read_only():
    estimate_sup(MobiusAuto(0.5))
    for arr in _start_geometry(256) + _interior_points(0, 1000):
        with pytest.raises(ValueError):
            arr[0] = 0
    first = estimate_sup(MobiusAuto(0.5))
    assert estimate_sup(MobiusAuto(0.5)) == first


# --- closed-form suprema ------------------------------------------------------


def test_closed_form_sup_values():
    assert closed_form_sup(Identity()) == 1.0
    assert closed_form_sup(Rotation(1.1)) == 1.0
    assert closed_form_sup(MobiusAuto(0.5)) == pytest.approx(3.0)
    assert closed_form_sup(Monomial(3)) == 3.0
    with pytest.raises(ParamError):
        closed_form_sup(FiniteBlaschke((0.5, -0.3j)))


# --- supremum search ----------------------------------------------------------


def test_estimate_sup_identity():
    est = estimate_sup(Identity())
    assert est.verdict is Verdict.BOUNDED
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_estimate_sup_rotation():
    est = estimate_sup(Rotation(1.3))
    assert est.verdict is Verdict.BOUNDED
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_estimate_sup_mobius():
    est = estimate_sup(MobiusAuto(0.5))
    assert est.verdict is Verdict.BOUNDED
    assert est.value == pytest.approx(3.0, rel=1e-3)


def test_estimate_sup_monomial():
    est = estimate_sup(Monomial(2))
    assert est.verdict is Verdict.BOUNDED
    assert est.value == pytest.approx(2.0, rel=1e-3)


def test_estimate_sup_mobius_off_grid_peak():
    # the argmax direction 0.3 is not a grid angle; local zoom must find it
    est = estimate_sup(MobiusAuto(0.5 * np.exp(0.3j)))
    assert est.verdict is Verdict.BOUNDED
    assert est.value == pytest.approx(3.0, rel=1e-3)
    assert est.argmax[0].angle == pytest.approx(0.3, abs=1e-3)


def test_estimate_sup_constant_divergence():
    poly = verify_self_map(Polynomial([0.3])).symbol
    est = estimate_sup(poly)
    assert est.verdict is Verdict.UNBOUNDED
    assert est.value == np.inf
    maxima = [m for _, m in est.trace]
    assert maxima[-1] > 1e6
    assert maxima[-1] / maxima[-2] >= 2.0
    assert len(est.trace) <= 5  # global pass + at most 4 refinements


def test_estimate_sup_noncontact_polynomial_divergence():
    # (1+z)/2 touches the circle only at angle 0; elsewhere the diagonal
    # limit is infinite, so the kernel is unbounded
    poly = verify_self_map(Polynomial([0.5, 0.5])).symbol
    est = estimate_sup(poly)
    assert est.verdict is Verdict.UNBOUNDED


def test_estimate_sup_near_boundary_mobius_ladder_bounded_verdicts_are_right():
    # the 64 Mobius maps of the benchmark's symbol scan: |a| = 1 - 10^-d with d
    # from 0.3 to 7, golden-angle arguments and post-rotations.  Some verdicts
    # are Unbounded or Inconclusive (ROADMAP item 2), but a Bounded one must
    # carry the closed form (1 + |a|)/(1 - |a|); 39 of them do, within 5.3e-4
    golden = np.pi * (3.0 - np.sqrt(5.0))
    errors = []
    for k in range(64):
        a = (1.0 - 10.0 ** -(0.3 + k * (7.0 - 0.3) / 63)) * np.exp(1j * golden * k)
        est = estimate_sup(MobiusAuto(a, post_rotation=golden * (64 - k)))
        if est.verdict is Verdict.BOUNDED:
            exact = (1.0 + abs(a)) / (1.0 - abs(a))
            errors.append(abs(est.value - exact) / exact)
    assert len(errors) >= 39
    assert max(errors) <= 1e-3


def test_estimate_sup_trace_monotone():
    for sym in [Identity(), MobiusAuto(0.5), Monomial(2)]:
        est = estimate_sup(sym)
        maxima = [m for _, m in est.trace]
        assert all(b >= a for a, b in zip(maxima, maxima[1:]))


def test_estimate_sup_interior_sanity():
    est = estimate_sup(MobiusAuto(0.5))
    assert est.interior_max is not None
    assert est.interior_max <= est.value * (1 + 1e-6)


def test_estimate_sup_rotation_equivariance():
    base = estimate_sup(MobiusAuto(0.5))
    for theta in (0.9, 2.0):
        rotated = estimate_sup(MobiusAuto(0.5, post_rotation=theta))
        assert rotated.value == pytest.approx(base.value, rel=1e-10)


def test_estimate_sup_blaschke_matches_monomial():
    # z^2 written as a Blaschke product with both zeros at the origin
    as_blaschke = FiniteBlaschke((0.0, 0.0))
    est_b = estimate_sup(as_blaschke)
    est_m = estimate_sup(Monomial(2))
    assert est_b.value == pytest.approx(est_m.value, rel=1e-10)


def test_estimate_sup_seed_changes_only_interior_sampling():
    a = estimate_sup(MobiusAuto(0.5), SupSearchSettings(seed=0))
    b = estimate_sup(MobiusAuto(0.5), SupSearchSettings(seed=99))
    assert a.value == b.value
    assert a.trace == b.trace


def test_estimate_sup_inconclusive_when_budget_too_small():
    # the constant symbol needs ~4 zooms to cross the divergence threshold;
    # with only 2 allowed, neither stopping rule can fire
    poly = verify_self_map(Polynomial([0.3])).symbol
    est = estimate_sup(poly, SupSearchSettings(max_refinements=2))
    assert est.verdict is Verdict.INCONCLUSIVE
    assert np.isfinite(est.value)


def test_sup_settings_validation():
    with pytest.raises(ParamError):
        SupSearchSettings(local_grid=10)
    with pytest.raises(ParamError):
        SupSearchSettings(growth_factor=0.5)


# --- algebraic identity -------------------------------------------------------


@pytest.mark.parametrize(
    "symbol,bound",
    [(Identity(), 1e-14), (Monomial(2), 1e-13), (MobiusAuto(0.7j), 1e-13)],
    ids=["Identity()-1e-14", "Monomial(k=2)-1e-13", "MobiusAuto(a=0.7j, post_rotation=0.0)-1e-13"],
)
def test_pointwise_identity(symbol, bound):
    if isinstance(symbol, float):
        pytest.skip("bound parameter")
    dev = pointwise_kernel_identity_check(symbol, sample_count=10000)
    assert dev <= bound
