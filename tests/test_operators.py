import decimal
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import discop
from discop._numutil import powq
from discop.errors import ConvergenceError, ParamError
from discop.norms import WeightParams, _kernel_spectrum, double_integral_functional
from discop.operators import (
    VIOLATION_REL_TOL,
    _composed_pair_sums,
    ComposedFunction,
    RankVerdict,
    bound_check,
    lift_norm_check,
    rank_sufficiency_check,
)
from discop.quadrature import QuadratureSettings, build_disc_rule
from discop.series import TruncatedPowerSeries
from discop.symbols import (
    Blaschke,
    FiniteBlaschke,
    Identity,
    MobiusAuto,
    Monomial,
    Polynomial,
    Rotation,
    verify_self_map,
)
from oracles import (
    V1_SERIES,
    dirichlet_monomial_sq,
    mobius_power_coeffs,
    polynomial_contacts_scalar,
)

SMALL = QuadratureSettings(radial_count=16, angular_count=64, max_refinements=2)


# --- composition --------------------------------------------------------------


def test_composition_with_identity_series():
    comp = ComposedFunction(TruncatedPowerSeries.monomial(1), MobiusAuto(0.5))
    z = np.array([0.1, 0.3 - 0.2j, -0.5j])
    assert np.allclose(comp.value(z), MobiusAuto(0.5).value(z), atol=1e-15)


def test_composition_of_square_with_cube():
    comp = ComposedFunction(TruncatedPowerSeries.monomial(2), Monomial(3))
    z = np.array([0.5, 0.2 + 0.1j])
    assert np.allclose(comp.value(z), z**6, atol=1e-14)
    assert np.allclose(comp.deriv(z), 6 * z**5, atol=1e-13)


def test_composition_coefficients_match_geometric_expansion():
    # f = z composed with the automorphism is the automorphism itself, whose
    # series is 0.5 - 0.75 z - 0.375 z^2 - ... (geometric with ratio 0.5)
    comp = ComposedFunction(TruncatedPowerSeries.monomial(1), MobiusAuto(0.5))
    series = TruncatedPowerSeries(mobius_power_coeffs(0.5, 1, 64))
    z = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.allclose(comp.value(z), series.value(z), atol=1e-14)  # the tail is below 1e-20
    expected = [0.5] + [-0.75 * 0.5 ** (n - 1) for n in range(1, 9)]
    assert np.allclose(series.coeffs[:9], expected, atol=1e-10)


@given(
    scale=st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    coeffs_f=st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=6,
    ),
    coeffs_g=st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=6,
    ),
)
def test_composition_linearity(scale, coeffs_f, coeffs_g):
    f = TruncatedPowerSeries(coeffs_f)
    g = TruncatedPowerSeries(coeffs_g)
    phi = MobiusAuto(0.4j)
    n = max(len(coeffs_f), len(coeffs_g))
    padded_f, padded_g = (list(c.coeffs) + [0.0] * (n - len(c.coeffs)) for c in (f, g))
    combined = ComposedFunction(
        TruncatedPowerSeries([scale * a + b for a, b in zip(padded_f, padded_g)]), phi
    )
    left = ComposedFunction(f, phi)
    right = ComposedFunction(g, phi)
    z = np.array([0.2, -0.3 + 0.4j, 0.6j])
    expected = scale * left.value(z) + right.value(z)
    got = combined.value(z)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
    assert np.allclose(got, expected, atol=tol)


# --- lift-norm route identity ---------------------------------------------------


def test_lift_norm_check_constant():
    res = lift_norm_check(TruncatedPowerSeries([1.5]), 1.0, 0.5, settings=SMALL)
    assert (res.bergman_sq.value_sq, res.dirichlet_sq.value_sq) == (0.0, 0.0)


def test_lift_norm_check_linear():
    res = lift_norm_check(TruncatedPowerSeries.monomial(1), 1.0, 0.5, settings=SMALL)
    bergman, dirichlet = res.bergman_sq.value_sq, res.dirichlet_sq.value_sq
    assert dirichlet == pytest.approx(0.5)
    assert bergman == pytest.approx(V1_SERIES, rel=2e-3)
    assert res.route_gap <= 1e-8


def test_lift_norm_check_cubic_route_identity():
    res = lift_norm_check(TruncatedPowerSeries.monomial(3), 1.0, 0.5, settings=SMALL)
    assert res.route_gap <= 1e-8
    assert res.bergman_sq.value_sq == pytest.approx(
        res.double_integral_sq.value_sq, rel=1e-8
    )


def test_lift_norm_check_same_rule_as_functional():
    settings = SMALL
    res = lift_norm_check(TruncatedPowerSeries.monomial(3), 1.0, 0.5, settings=settings)
    params = WeightParams(1.0, 1.0, 0.5)
    func = double_integral_functional(TruncatedPowerSeries.monomial(3), params, settings)
    assert res.double_integral_sq.value_sq == pytest.approx(func.value_sq, rel=1e-12)


def test_lift_norm_check_validates_window():
    with pytest.raises(ParamError):
        lift_norm_check(TruncatedPowerSeries.monomial(1), 1.0, 1.0, settings=SMALL)


# --- rank sufficiency ------------------------------------------------------------


def test_rank_monomial_full_circle():
    report = rank_sufficiency_check(Monomial(2))
    assert report.full_circle
    assert report.exhaustive
    assert report.min_deriv_modulus == pytest.approx(2.0, rel=1e-10)
    assert report.verdict is RankVerdict.PASS


def test_rank_mobius_closed_form_minimum():
    a = 0.5
    report = rank_sufficiency_check(MobiusAuto(a))
    assert report.full_circle
    expected = (1 - a) / (1 + a)
    assert report.min_deriv_modulus == pytest.approx(expected, rel=1e-8)
    assert report.verdict is RankVerdict.PASS


@pytest.mark.parametrize("modulus", [0.5, 0.9, 1 - 1e-5, 1 - 1e-7])
@pytest.mark.parametrize("arg, rotation", [(0.7, 0.3), (2.0001, -1.1), (-1.234567, 2.5)])
def test_rank_mobius_polished_minimum_off_the_scan_grid(modulus, arg, rotation):
    # min |phi'| = (1-|a|)/(1+|a|) at -a/|a|, exact to rounding up to |a| = 1 - 1e-7
    a = modulus * np.exp(1j * arg)
    expected = (1.0 - abs(a)) / (1.0 + abs(a))
    report = rank_sufficiency_check(MobiusAuto(a, rotation))
    assert report.min_deriv_modulus == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "zeros",
    [(0.5, -0.3 + 0.2j, 0.7j),
     (0.8 * np.exp(0.3j), 0.6 * np.exp(2.1j), 0.9 * np.exp(4.0j), -0.2 + 0.1j)],
)
def test_rank_blaschke_polished_minimum_matches_dense_grid(zeros):
    def dmod(t):
        z = np.exp(1j * t)
        return sum((1.0 - abs(a) ** 2) / np.abs(z - a) ** 2 for a in zeros)

    # a 2^16-angle grid, then 2^14 + 1 angles across its best point's neighbours
    step = 2 * np.pi / 2**16
    coarse = step * np.arange(2**16)
    best = coarse[np.argmin(dmod(coarse))]
    expected = float(np.min(dmod(best + step * np.linspace(-1.0, 1.0, 2**14 + 1))))
    report = rank_sufficiency_check(FiniteBlaschke(zeros, 0.4))
    assert report.min_deriv_modulus == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_rank_contact_polynomial():
    poly = verify_self_map(Polynomial([0.5, 0.5])).symbol
    report = rank_sufficiency_check(poly)
    assert not report.full_circle
    assert len(report.points) == 1
    angle = report.points[0].angle
    assert min(angle, 2 * np.pi - angle) == pytest.approx(0.0, abs=1e-9)
    assert report.min_deriv_modulus == pytest.approx(0.5, rel=1e-9)
    assert report.verdict is RankVerdict.PASS


def _circle_gap(a, b):
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


def _assert_contact_angles(report, expected):
    got = [p.angle for p in report.points]
    assert len(got) == len(expected)
    for angle in expected:
        assert min(_circle_gap(angle, g) for g in got) <= 1e-9


def test_rank_seed7_poly_contact_symbol():
    # c0 + c4 z^4 with |c0| + |c4| = 1 (perfbench symbol-scan seed 7,
    # poly-contact[1]): contact where c4 z^4 points along c0, one of them on a
    # scan angle; it was reported Inconclusive when the bisection's scalar
    # slope there came out 0.0 and the bracket walked off the contact point
    c0 = -0.16240146179852258 + 0.04340449156972897j
    c4 = 0.3251186484119622 - 0.765736658688432j
    poly = verify_self_map(Polynomial([c0, 0, 0, 0, c4])).symbol
    report = rank_sufficiency_check(poly)
    assert report.verdict is RankVerdict.PASS
    base = (np.angle(c0) - np.angle(c4)) / 4
    _assert_contact_angles(report, [base + l * np.pi / 2 for l in range(4)])
    assert report.min_deriv_modulus == pytest.approx(4 * abs(c4), abs=1e-12)
    assert report.min_deriv_modulus == pytest.approx(3.3275931626436432, abs=1e-12)


@pytest.mark.parametrize("m, t, psi, index", [
    (1, 0.622, -1.593, 4092),
    (2, 0.263, -1.05, 1788),
    (4, 0.414, -0.042, 3457),
])
def test_rank_contact_on_scan_grid_found_at_every_point(m, t, psi, index):
    # e^{i psi} (t + (1-t) (z/zeta0)^m) touches the circle where (z/zeta0)^m = 1,
    # at m angles of the 4,096-point scan grid; each case lost or shifted a
    # point when the bisection re-evaluated the bracket's left slope
    zeta0 = np.exp(2j * np.pi * index / 4096)
    coeffs = [0j] * (m + 1)
    coeffs[0] = np.exp(1j * psi) * t
    coeffs[m] = np.exp(1j * psi) * (1 - t) * zeta0**-m
    report = rank_sufficiency_check(verify_self_map(Polynomial(coeffs)).symbol)
    assert report.verdict is RankVerdict.PASS
    _assert_contact_angles(report, [2 * np.pi * (index / 4096 + l / m) for l in range(m)])
    assert report.min_deriv_modulus == pytest.approx(m * (1 - t), rel=1e-9)


def test_rank_constant_vacuous():
    poly = verify_self_map(Polynomial([0.3])).symbol
    report = rank_sufficiency_check(poly)
    assert report.verdict is RankVerdict.VACUOUS
    assert report.min_deriv_modulus is None
    assert report.points == ()


def test_rank_polynomial_rotation_detected_as_full_circle():
    poly = verify_self_map(Polynomial([0.0, 1.0])).symbol  # identity written as poly
    report = rank_sufficiency_check(poly)
    assert report.full_circle
    assert report.min_deriv_modulus == pytest.approx(1.0)
    assert report.verdict is RankVerdict.PASS


def _contact_poly(m, t, psi, zeta0):
    """e^{i psi} (t + (1-t) (z/zeta0)^m), verified: |p| = 1 exactly where (z/zeta0)^m = 1."""
    coeffs = [0j] * (m + 1)
    coeffs[0] = np.exp(1j * psi) * t
    coeffs[m] = np.exp(1j * psi) * (1 - t) * zeta0**-m
    return verify_self_map(Polynomial(coeffs)).symbol


#: the first midpoint of the rank scan's bracket [0, 2 pi / 4096]
_FIRST_MID = 0.5 * (0.0 + 2 * np.pi / 4096)


@pytest.mark.parametrize("symbol, mixed_steps", [
    (Polynomial([-0.16240146179852258 + 0.04340449156972897j, 0, 0, 0,
                 0.3251186484119622 - 0.765736658688432j]), False),
    (_contact_poly(1, 0.622, -1.593, np.exp(2j * np.pi * 4092 / 4096)), False),
    (_contact_poly(2, 0.263, -1.05, np.exp(2j * np.pi * 1788 / 4096)), False),
    (_contact_poly(4, 0.414, -0.042, np.exp(2j * np.pi * 3457 / 4096)), False),
    # contacts on two brackets' first midpoints, where the slope is exactly
    # 0.0: those brackets stop at the first step, the other two at the 35th
    (_contact_poly(4, 0.05, 1.3, np.exp(1j * _FIRST_MID)), True),
], ids=["seed7-poly-contact", "m1", "m2", "m4", "m4-mixed-steps"])
def test_batched_bisection_matches_scalar_bisection_bitwise(symbol, mixed_steps):
    symbol = verify_self_map(symbol).symbol
    angles, min_deriv, steps = polynomial_contacts_scalar(symbol)
    assert (len(set(steps)) > 1) is mixed_steps
    report = rank_sufficiency_check(symbol)
    assert report.verdict is RankVerdict.PASS and not report.full_circle
    assert [p.angle for p in report.points] == angles
    assert report.min_deriv_modulus == min_deriv


@pytest.mark.parametrize(
    "symbol",
    [
        Monomial(2),
        MobiusAuto(0.5),
        FiniteBlaschke((0.3, -0.5j)),
        verify_self_map(Polynomial([0.5, 0.5])).symbol,
        verify_self_map(Polynomial([0.3])).symbol,
        verify_self_map(Polynomial([0.0, 1.0])).symbol,
    ],
)
def test_rank_scan_evaluates_symbol_and_derivative_once(monkeypatch, symbol):
    calls = []
    for name in ("value", "deriv"):
        method = getattr(type(symbol), name)

        def counted(self, z, method=method, name=name):
            if np.size(z) == 4096:  # the scan grid
                calls.append(name)
            return method(self, z)

        monkeypatch.setattr(type(symbol), name, counted)
    rank_sufficiency_check(symbol)
    # an inner symbol's contact set is the whole circle: its moduli are not scanned
    assert sorted(calls) == (["deriv"] if isinstance(symbol, Blaschke) else ["deriv", "value"])


# --- bound pipeline ---------------------------------------------------------------


def test_bound_check_identity_ratios_are_one():
    fam = [TruncatedPowerSeries.monomial(n) for n in (1, 2, 3)]
    report = bound_check(fam, Identity(), 1.0, 0.5, settings=SMALL)
    assert report.sup_power_q == pytest.approx(1.0, rel=1e-10)
    for row in report.rows:
        assert row.ratio == pytest.approx(1.0, rel=1e-10)
        assert row.violations == 0


def test_bound_check_monomial_two_closed_form():
    fam = [TruncatedPowerSeries.monomial(n) for n in range(1, 5)]
    report = bound_check(
        fam, Monomial(2), 1.0, 0.5, settings=SMALL, labels=[f"z^{n}" for n in range(1, 5)]
    )
    assert report.sup.value == pytest.approx(2.0, rel=1e-3)
    for n, row in zip(range(1, 5), report.rows):
        comp_expected = dirichlet_monomial_sq(2 * n, 1.0)  # C(z^n) = z^{2n}
        assert row.comp_norm_sq.value_sq == pytest.approx(comp_expected, rel=1e-10)
        expected_ratio = comp_expected / (
            report.sup_power_q * dirichlet_monomial_sq(n, 1.0)
        )
        assert row.ratio == pytest.approx(expected_ratio, rel=1e-9)
        assert row.violations == 0
        assert row.comp_norm_sq.rel_error_estimate <= 0.02


def test_bound_check_requires_bounded_kernel():
    poly = verify_self_map(Polynomial([0.3])).symbol
    fam = [TruncatedPowerSeries.monomial(1)]
    with pytest.raises(ParamError, match="Bounded"):
        bound_check(fam, poly, 1.0, 0.5, settings=SMALL)


def test_bound_check_rejects_constant_member():
    fam = [TruncatedPowerSeries([1.0])]
    with pytest.raises(ParamError, match="constant"):
        bound_check(fam, Identity(), 1.0, 0.5, settings=SMALL)


def test_bound_check_rejects_constant_member_in_last_place():
    fam = [TruncatedPowerSeries.monomial(1), TruncatedPowerSeries.monomial(2),
           TruncatedPowerSeries([0.7])]
    with pytest.raises(ParamError, match="family member flat is constant"):
        bound_check(fam, Identity(), 1.0, 0.5, settings=SMALL, labels=["z", "z^2", "flat"])


# --- batched composed pair engine ---------------------------------------------------


ENGINE_SYMBOL = FiniteBlaschke(zeros=(0.4 + 0.2j, -0.3j), post_rotation=0.7)
ENGINE_FAMILY = [TruncatedPowerSeries.monomial(1), TruncatedPowerSeries([0.0, 0.5, -1.0j]),
                 TruncatedPowerSeries([1.0, 0.0, 0.0, 0.3 + 0.4j])]
# 10 x 64 = 640 nodes: 40 whole row tiles of the engine (SEAM_RULE ends on a partial one)
WHOLE_TILES_RULE = (1.0, 5.0, 10, 64)


def _dense_kernels(symbol, sigma, q, n_rad, n_ang):
    """Weights, phi at the nodes, and the full composed and plain kernel powers."""
    rule = build_disc_rule(sigma, n_rad, n_ang)
    z, u = rule.nodes, symbol.value(rule.nodes)
    den_comp = np.abs(1.0 - u[:, None] * np.conj(u[None, :])) ** q
    den_plain = np.abs(1.0 - z[:, None] * np.conj(z[None, :])) ** q
    return rule.weights, u, den_comp, den_plain


def _pivot_sup_q(symbol, sigma, q, n_rad, n_ang, quantile=0.5):
    """Below the true sup^q, and 1e-13 below the kernel ratio of the node pair
    at ``quantile`` of all: the majorization fails there (inside the engine's
    round-off slack) and at every pair with a larger ratio."""
    _, u, den_comp, den_plain = _dense_kernels(symbol, sigma, q, n_rad, n_ang)
    off_diagonal = ~np.eye(len(u), dtype=bool)
    ratios = np.sort((den_comp / den_plain)[off_diagonal])
    pivot = ratios[min(int(quantile * len(ratios)), len(ratios) - 1)]
    return pivot / ((1.0 + VIOLATION_REL_TOL) * (1.0 + 1e-13))


def _assert_matches_dense(symbol, sigma, q, n_rad, n_ang, sup_q):
    """The engine against the plain full-matrix sums, member by member."""
    w, u, den_comp, den_plain = _dense_kernels(symbol, sigma, q, n_rad, n_ang)
    off_diagonal = ~np.eye(len(u), dtype=bool)
    want_values, want_violations = [], []
    for f in ENGINE_FAMILY:
        fv = f.value(u)
        num = np.abs(fv[:, None] - fv[None, :]) ** 2
        want_values.append(float(np.sum(w[:, None] * w[None, :] * num / den_comp)))
        if sup_q is not None:
            bad = num / den_plain > sup_q * (num / den_comp) * (1.0 + VIOLATION_REL_TOL)
            want_violations.append(int(np.count_nonzero(bad & off_diagonal)))

    values, violations, pairs = _composed_pair_sums(
        [f.value for f in ENGINE_FAMILY], symbol, sigma, q, n_rad, n_ang, sup_q=sup_q
    )
    assert pairs == len(u) ** 2
    for got, want in zip(values, want_values):
        assert got == pytest.approx(want, rel=1e-12)
    assert violations == (None if sup_q is None else want_violations)
    return values, violations


def _split_violations(symbol, sigma, q, n_rad, n_ang, sup_q):
    """Violating ordered pairs (of kernel ratios) with one node's diagonal
    k_ii^q above the bound and the other's not."""
    _, _, den_comp, den_plain = _dense_kernels(symbol, sigma, q, n_rad, n_ang)
    ratio = den_comp / den_plain
    above = np.diag(ratio) > sup_q * (1.0 + VIOLATION_REL_TOL)
    bad = ratio > sup_q * (1.0 + VIOLATION_REL_TOL)
    np.fill_diagonal(bad, False)
    return int(np.count_nonzero(bad & (above[:, None] != above[None, :])))


def _assert_full_matrix_reference(sigma, q, n_rad, n_ang):
    """At the median pivot most rows are tested; at the 0.999 quantile only a
    few, and some violating pairs join a tested row to an untested one."""
    for quantile in (0.5, 0.999):
        sup_q = _pivot_sup_q(ENGINE_SYMBOL, sigma, q, n_rad, n_ang, quantile)
        values, violations = _assert_matches_dense(ENGINE_SYMBOL, sigma, q, n_rad, n_ang, sup_q)
        assert min(violations) > 0
    assert _split_violations(ENGINE_SYMBOL, sigma, q, n_rad, n_ang, sup_q) > 0
    return values


def test_composed_pair_sums_match_full_matrix_reference():
    sigma, q, n_rad, n_ang = 1.0, 5.0, 6, 16
    values = _assert_full_matrix_reference(sigma, q, n_rad, n_ang)
    value_fns = [f.value for f in ENGINE_FAMILY]
    plain, none_violations, _ = _composed_pair_sums(
        value_fns, ENGINE_SYMBOL, sigma, q, n_rad, n_ang
    )
    assert plain == values
    assert none_violations is None

    def blows_up(u):
        return np.where(np.abs(u) < 0.5, np.inf, u)

    with pytest.raises(ConvergenceError, match="non-finite"):
        _composed_pair_sums([value_fns[0], blows_up], ENGINE_SYMBOL, sigma, q, n_rad, n_ang)


def test_composed_pair_sums_match_full_matrix_reference_across_blocks():
    """Every tile's corner mask and products, over 40 tiles."""
    assert WHOLE_TILES_RULE[2] * WHOLE_TILES_RULE[3] % 16 == 0
    _assert_full_matrix_reference(*WHOLE_TILES_RULE)


def test_composed_pair_sums_blind_to_constants():
    """f and f + 1000 give the same sums; a constant gives exactly 0."""
    sigma, q, n_rad, n_ang = 1.0, 5.0, 8, 32
    symbol = FiniteBlaschke(zeros=(0.5j, -0.2 + 0.1j), post_rotation=1.3)
    family = [TruncatedPowerSeries([0.0, 1.0, 0.5]), TruncatedPowerSeries([0.0, 0.2j, 0.0, -0.7])]
    shifted = [TruncatedPowerSeries([1000.0] + list(f.coeffs[1:])) for f in family]
    base, _, _ = _composed_pair_sums(
        [f.value for f in family], symbol, sigma, q, n_rad, n_ang
    )
    moved, _, _ = _composed_pair_sums(
        [f.value for f in shifted], symbol, sigma, q, n_rad, n_ang
    )
    assert min(base) > 0.0
    for got, want in zip(moved, base):
        assert got == pytest.approx(want, rel=1e-12)
    flat, _, _ = _composed_pair_sums(
        [TruncatedPowerSeries([1000.0]).value], symbol, sigma, q, n_rad, n_ang
    )
    assert flat == [0.0]


def _engine_bits():
    values, _, _ = _composed_pair_sums(
        [TruncatedPowerSeries.monomial(n).value for n in (1, 2, 3)],
        ENGINE_SYMBOL, *WHOLE_TILES_RULE, sup_q=1.0,
    )
    return " ".join(float(x).hex() for x in values)


def _single_threaded(bits_fn):
    """``test_operators.<bits_fn>()`` run in a fresh process with one BLAS thread."""
    paths = [os.path.dirname(os.path.dirname(discop.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", f"import test_operators; print(test_operators.{bits_fn}())"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout.strip()


def test_composed_pair_sums_independent_of_blas_threads():
    """Single-threaded BLAS in a fresh process gives the same bits."""
    assert _single_threaded("_engine_bits") == _engine_bits()


@pytest.mark.parametrize("q", [1.0, 2.0, 5.0, 6.0, 7.0, 14.0, 15.0, 63.0, 5.8])
def test_powq_matches_np_power_in_place(q):
    """Odd and even exponents with one or several set bits, and np.power."""
    base = np.random.default_rng(3).uniform(1e-3, 4.0, (5, 37))
    want = np.power(base, 0.5 * q)
    work = np.empty((2,) + base.shape)
    got = powq(base, q, work)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.shares_memory(got, base) or np.shares_memory(got, work)


# 7 x 97 = 679 nodes: the last tile has 7 rows, not a whole tile
SEAM_RULE = (1.0, 7, 97)


@pytest.mark.parametrize("q", [5.0, 6.0, 7.0, 5.8])
def test_composed_pair_sums_match_full_matrix_reference_at_tile_seam(q):
    """Odd and even binary powers, several set bits, and the np.power path."""
    sigma, n_rad, n_ang = SEAM_RULE
    assert (n_rad * n_ang) % 16
    _assert_full_matrix_reference(sigma, q, n_rad, n_ang)


def _seam_bits():
    fns = [TruncatedPowerSeries.monomial(n).value for n in (1, 2, 3)]
    out = []
    for rule in ((10, 64), (8, 81), (8, 83), (7, 97), (9, 80), (48, 192)):
        for sup_q in (None, 1.0):
            values, violations, _ = _composed_pair_sums(
                fns, ENGINE_SYMBOL, SEAM_RULE[0], 5.0, *rule, sup_q=sup_q)
            out += [float(x).hex() for x in values] + [str(violations)]
    return " ".join(out)


def test_composed_pair_sums_at_tile_seam_independent_of_blas_threads():
    """640, 648, 664, 679, 720 and 9,216 nodes on the general route, with and
    without the majorization count: the same bits at 1 and 2 BLAS threads."""
    assert _single_threaded("_seam_bits") == _seam_bits()


# Mobius maps toward the circle, a two- and a three-zero product, and z^3
DIAGONAL_BOUND_SYMBOLS = [MobiusAuto(0.5), MobiusAuto(0.9), MobiusAuto(0.99), MobiusAuto(0.999),
                          ENGINE_SYMBOL, FiniteBlaschke(zeros=(0.9, -0.95j, 0.5 + 0.5j)),
                          Monomial(3)]


@pytest.mark.parametrize("n_rad, n_ang", [(32, 128), (48, 192), SEAM_RULE[1:]])
@pytest.mark.parametrize("symbol", DIAGONAL_BOUND_SYMBOLS, ids=lambda s: s.label)
def test_largest_kernel_diagonal_bounds_every_pair(symbol, n_rad, n_ang):
    """The premise of the row-limited count: with sup_q the largest diagonal
    k_ii^q of the rule, every off-diagonal |k_ij|^q stays below it (so the
    dense count is 0 for any family; checked over the upper triangle, row
    block by row block), and the engine counts 0."""
    sigma, q = 1.0, 5.0
    z = build_disc_rule(sigma, n_rad, n_ang).nodes
    u = symbol.value(z)
    sup_sq = float(np.max(((1.0 - np.abs(u) ** 2) / (1.0 - np.abs(z) ** 2)) ** 2))
    for lo in range(0, len(z), 64):
        comp_sq = np.abs(1.0 - u[lo : lo + 64, None] * np.conj(u[lo + 1 :])) ** 2
        plain_sq = np.abs(1.0 - z[lo : lo + 64, None] * np.conj(z[lo + 1 :])) ** 2
        assert np.max(np.triu(comp_sq / plain_sq)) < sup_sq
    _, violations, _ = _composed_pair_sums(
        [f.value for f in ENGINE_FAMILY], symbol, sigma, q, n_rad, n_ang, sup_q=sup_sq ** (q / 2))
    assert violations == [0, 0, 0]


def _traced_peak(symbol, n_rad, n_ang, sup_q):
    value_fns = [TruncatedPowerSeries([0.0, 1.0, 0.3, -0.2j]).value]
    tracemalloc.start()
    try:
        _composed_pair_sums(value_fns, symbol, 1.0, 5.0, n_rad, n_ang, sup_q=sup_q)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("symbol, sup_q, blocks", [
    pytest.param(symbol, sup_q, blocks, id=f"{prefix}{sup_q}-{blocks}")
    for prefix, symbol, blocks in (("", Identity(), 1.5), ("general-", ENGINE_SYMBOL, 0.5))
    for sup_q in (None, 2.0)
])
def test_composed_pair_sums_memory_is_one_block_per_kernel(symbol, sup_q, blocks):
    """The traced peak of a pass, in units of 512 x N floats: the general
    route's tile workspace and products stay under half of one, with the
    majorization check too."""
    n_rad, n_ang = 24, 96
    assert _traced_peak(symbol, n_rad, n_ang, sup_q) <= blocks * 512 * n_rad * n_ang * 8


@pytest.mark.parametrize("n_rad, n_ang", [(640, 8), (1280, 4)])
def test_monomial_route_memory_with_many_radii(n_rad, n_ang):
    """Many radii and few angles: a cold pass holds the cached ring-kernel
    spectrum, (m//2 + 1) n_rad^2 floats, and little besides it."""
    _kernel_spectrum.cache_clear()
    try:
        spectrum = 8 * (n_ang // 2 + 1) * n_rad**2
        assert _traced_peak(Monomial(2), n_rad, n_ang, 2.0) <= 1.5 * spectrum
    finally:
        _kernel_spectrum.cache_clear()


# phi = c z^m: identity, a rotation, a monomial, and a unit != 1 on z^2
MONOMIAL_ROUTE = [Identity(), Rotation(0.7), Monomial(3),
                  Blaschke((0j, 0j), complex(np.exp(0.3j)), "unit z^2")]


@pytest.mark.parametrize("n_rad, n_ang", [(6, 16), (10, 64), SEAM_RULE[1:]])
@pytest.mark.parametrize("symbol", MONOMIAL_ROUTE, ids=lambda s: s.label)
def test_monomial_route_matches_full_matrix_reference(symbol, n_rad, n_ang):
    """The ring-kernel spectrum gives the dense values and violation counts,
    without and with a sup_q that some z^3 pairs violate; 97 angles are odd,
    so the real FFT has no Nyquist frequency."""
    sigma, q = 1.0, 5.0
    plain, _ = _assert_matches_dense(symbol, sigma, q, n_rad, n_ang, None)
    for quantile in (0.5, 0.999):
        sup_q = _pivot_sup_q(Monomial(3), sigma, q, n_rad, n_ang, quantile)
        values, violations = _assert_matches_dense(symbol, sigma, q, n_rad, n_ang, sup_q)
        assert values == plain
        if symbol == Monomial(3):
            assert min(violations) > 0


def test_monomial_route_matches_general_route():
    """z^2 as a Blaschke product and as a polynomial take the two routes."""
    fns = [f.value for f in ENGINE_FAMILY]
    fast, fast_bad, _ = _composed_pair_sums(fns, Monomial(2), 1.0, 5.0, 10, 64, sup_q=2.0)
    slow, slow_bad, _ = _composed_pair_sums(
        fns, verify_self_map(Polynomial([0.0, 0.0, 1.0])).symbol, 1.0, 5.0, 10, 64, sup_q=2.0)
    assert fast == pytest.approx(slow, rel=1e-12)
    assert fast_bad == slow_bad and min(fast_bad) > 0


MOBIUS_ROUTE = [MobiusAuto(0.5, 1.3), MobiusAuto(0.9j)]


@pytest.mark.parametrize("n_rad, n_ang", [(6, 16), (10, 64), SEAM_RULE[1:]])
@pytest.mark.parametrize("symbol", MOBIUS_ROUTE, ids=lambda s: s.label)
def test_mobius_route_matches_full_matrix_reference(symbol, n_rad, n_ang):
    """The node weights g on the plain kernel's route give the dense values,
    and the count on phi the dense violation counts, with and without a
    pivot sup_q that some pairs violate."""
    sigma, q = 1.0, 5.0
    plain, _ = _assert_matches_dense(symbol, sigma, q, n_rad, n_ang, None)
    for quantile in (0.5, 0.999):
        sup_q = _pivot_sup_q(symbol, sigma, q, n_rad, n_ang, quantile)
        values, violations = _assert_matches_dense(symbol, sigma, q, n_rad, n_ang, sup_q)
        assert values == plain
        assert min(violations) > 0


def test_mobius_route_matches_extended_precision_near_the_circle():
    """At |a| = 0.999 the composed kernel 1 - phi(z) conj(phi(w)) cancels;
    the factored route meets a 40-digit node-pair sum (q = 6, so integer
    powers) to 1e-12, where the general route is off by about 3e-10."""
    sigma, q, n_rad, n_ang, a = 1.0, 6.0, 4, 16, 0.999
    rule = build_disc_rule(sigma, n_rad, n_ang)
    with decimal.localcontext(prec=40):
        def mul(x, y):
            return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        phis = []
        for z in rule.nodes:
            x, y, d = decimal.Decimal(z.real), decimal.Decimal(z.imag), decimal.Decimal(a)
            num = mul((d - x, -y), (1 - d * x, d * y))  # (a - z) conj(1 - a z), a real
            den = (1 - d * x) ** 2 + (d * y) ** 2
            phis.append((num[0] / den, num[1] / den))
        fams = [phis, [mul(p, p) for p in phis]]  # f = z and z^2 at phi
        want = [decimal.Decimal(0)] * 2
        for i, j in itertools.combinations(range(len(phis)), 2):
            k = mul(phis[i], (phis[j][0], -phis[j][1]))
            den = ((1 - k[0]) ** 2 + k[1] ** 2) ** 3
            w = decimal.Decimal(rule.weights[i]) * decimal.Decimal(rule.weights[j]) / den
            for m, fv in enumerate(fams):
                want[m] += 2 * w * ((fv[i][0] - fv[j][0]) ** 2 + (fv[i][1] - fv[j][1]) ** 2)
    fns = [TruncatedPowerSeries.monomial(n).value for n in (1, 2)]
    got, _, _ = _composed_pair_sums(fns, MobiusAuto(a), sigma, q, n_rad, n_ang)
    for value, exact in zip(got, want):
        assert value == pytest.approx(float(exact), rel=1e-12)


def test_mobius_route_memory_is_below_half_a_block():
    """The ring-kernel spectrum and the spectra of rhs: under half of 512 x N floats."""
    n_rad, n_ang = 32, 128
    assert _traced_peak(MobiusAuto(0.5), n_rad, n_ang, 2.0) <= 0.5 * 512 * n_rad * n_ang * 8


def _monomial_route_bits():
    fns = [TruncatedPowerSeries.monomial(n).value for n in (1, 2, 3)]
    out = []
    for symbol, rule, sup_q in ((Identity(), (7, 97), None), (Monomial(2), (8, 81), 2.0),
                                (Rotation(0.7), (9, 80), 1.0), (Monomial(2), (32, 128), 2.0),
                                (MobiusAuto(0.5, 1.3), (7, 97), 2.0), (Identity(), (48, 192), None)):
        values, violations, _ = _composed_pair_sums(fns, symbol, 1.0, 5.0, *rule, sup_q=sup_q)
        out += [float(x).hex() for x in values] + [str(violations)]
    return " ".join(out)


def test_monomial_route_independent_of_blas_threads():
    """679, 648, 720, 4,096 and 9,216 nodes, and a Mobius map at 679: the
    route's products round alike at 1 and 2 BLAS threads."""
    assert _single_threaded("_monomial_route_bits") == _monomial_route_bits()


def test_engine_and_pairwise_integral_share_the_kernel_spectrum_cache():
    """z^2 and a Mobius map at 16x64 and 32x128, and the lift's two routes at
    24x96 and 48x192: six spectra, built once each, the lift's shared by the
    pairwise integral and the engine, none evicted by a second round."""
    family = [TruncatedPowerSeries.monomial(1), TruncatedPowerSeries([0.0, 0.5, -1.0j])]
    ladder = QuadratureSettings(radial_count=24, angular_count=96, max_refinements=1,
                                target_rel_tol=0.1)
    _kernel_spectrum.cache_clear()
    try:
        for _ in range(2):
            for symbol in (Monomial(2), MobiusAuto(0.5, 1.3)):
                bound_check(family, symbol, 1.0, 0.5)
            res = lift_norm_check(TruncatedPowerSeries.monomial(3), 1.0, 0.5, settings=ladder)
            assert [r[:2] for r in res.bergman_sq.trace] == [(24, 96), (48, 192)]
        stats = _kernel_spectrum.cache_info()
        assert (stats.misses, stats.currsize) == (6, 6)
    finally:
        _kernel_spectrum.cache_clear()
