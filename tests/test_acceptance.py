"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from discop.errors import ParamError
from discop.kernels import Verdict, estimate_sup
from discop.norms import (
    dirichlet_norm_sq_coeff,
    dirichlet_norm_sq_quad,
    double_integral_functional,
    validate_main_theorem_params,
    WeightParams,
)
from discop.operators import RankVerdict, bound_check, lift_norm_check, rank_sufficiency_check
from discop.series import TruncatedPowerSeries
from discop.symbols import Identity, MobiusAuto, Monomial, Polynomial, verify_self_map
from oracles import dirichlet_monomial_sq, equivalence_ratio, pointwise_kernel_identity_check


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} :: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_dirichlet_norm_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (0.5, 1.0, 2.0):
        for n in range(1, 17):
            got = dirichlet_norm_sq_quad(TruncatedPowerSeries.monomial(n), p).value_sq
            want = dirichlet_monomial_sq(n, p)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-8 and elapsed < 5.0,
        f"monomial Dirichlet norms, worst rel err {worst:.2e} (tol 1e-8), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_kernel_sup_closed_forms():
    results = []
    for symbol, expected, tol in (
        (Identity(), 1.0, 1e-12),
        (MobiusAuto(0.5), 3.0, 1e-3),
        (Monomial(2), 2.0, 1e-3),
    ):
        t0 = time.perf_counter()
        est = estimate_sup(symbol)
        elapsed = time.perf_counter() - t0
        err = abs(est.value - expected) / expected
        results.append(
            (est.verdict is Verdict.BOUNDED and err <= tol and elapsed < 10.0,
             f"{symbol.describe()}: {est.value:.6f} (err {err:.1e}, {elapsed:.2f}s)")
        )
    _report(2, all(ok for ok, _ in results), "; ".join(msg for _, msg in results))


def test_criterion_3_divergence_detection():
    symbol = verify_self_map(Polynomial([0.3])).symbol
    t0 = time.perf_counter()
    est = estimate_sup(symbol)
    elapsed = time.perf_counter() - t0
    maxima = [m for _, m in est.trace]
    refinements_used = len(est.trace) - 1
    growth = maxima[-1] / maxima[-2]
    _report(
        3,
        est.verdict is Verdict.UNBOUNDED
        and maxima[-1] > 1e6
        and growth >= 2.0
        and refinements_used <= 4,
        f"constant symbol: Unbounded after {refinements_used} refinements, "
        f"running max {maxima[-1]:.3e}, last growth x{growth:.1f}, {elapsed:.2f}s",
    )


def test_criterion_4_equivalence_band():
    params = WeightParams(1.0, 1.0, 0.5)
    t0 = time.perf_counter()
    ratios = []
    moves = []
    for n in range(1, 9):
        series = TruncatedPowerSeries.monomial(n)
        functional = double_integral_functional(series, params)
        denom = dirichlet_norm_sq_coeff(series, params.p_dirichlet).value_sq
        ratio = functional.value_sq / denom
        prev = float(np.real(functional.trace[-2][2])) / denom
        ratios.append(ratio)
        moves.append(abs(ratio - prev) / max(ratio, prev))
    elapsed = time.perf_counter() - t0
    band = max(ratios) / min(ratios)
    _report(
        4,
        all(np.isfinite(r) and r > 0 for r in ratios)
        and band <= 10.0
        and max(moves) < 0.02
        and elapsed < 60.0,
        f"ratios in [{min(ratios):.4f}, {max(ratios):.4f}], band {band:.4f} (<= 10), "
        f"max refinement move {max(moves):.2%} (< 2%), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_bound_pipeline():
    t0 = time.perf_counter()
    symbol = Monomial(2)
    params = validate_main_theorem_params(1.0, 0.5)
    assert params.p_dirichlet == pytest.approx(1.0)
    assert params.q_exponent == pytest.approx(5.0)

    rank = rank_sufficiency_check(symbol)
    ok_a = rank.verdict is RankVerdict.PASS and rank.min_deriv_modulus == pytest.approx(
        2.0, rel=1e-9
    )

    sup = estimate_sup(symbol)
    ok_b = sup.verdict is Verdict.BOUNDED and abs(sup.value - 2.0) / 2.0 <= 1e-3

    family = [TruncatedPowerSeries.monomial(n) for n in range(1, 9)]
    report = bound_check(
        family, symbol, 1.0, 0.5, sup=sup, labels=[f"z^{n}" for n in range(1, 9)]
    )
    ok_c = all(row.violations == 0 for row in report.rows)

    ratios = [row.ratio for row in report.rows]
    prev_ratios = []
    for f, row in zip(family, report.rows):
        prev_val = float(np.real(row.comp_norm_sq.trace[-2][2]))
        f_norm_sq = dirichlet_norm_sq_coeff(f, params.p_dirichlet).value_sq
        prev_ratios.append(prev_val / (report.sup_power_q * f_norm_sq))
    max_move = abs(max(ratios) - max(prev_ratios)) / max(max(ratios), max(prev_ratios))
    ok_d = all(np.isfinite(r) and r > 0 for r in ratios) and max_move < 0.02

    elapsed = time.perf_counter() - t0
    _report(
        5,
        ok_a and ok_b and ok_c and ok_d and elapsed < 120.0,
        f"rank min|phi'|={rank.min_deriv_modulus:.1f} ({rank.verdict.value}); "
        f"sup={sup.value:.6f}; violations={sum(r.violations for r in report.rows)} "
        f"over {report.rows[0].nodes_checked} node pairs each; "
        f"max-ratio move {max_move:.2%}; {elapsed:.1f}s (< 120s)",
    )


def test_criterion_6_lift_route_identity():
    t0 = time.perf_counter()
    gaps = []
    for n in (1, 3):
        res = lift_norm_check(TruncatedPowerSeries.monomial(n), 1.0, 0.5)
        gaps.append(res.route_gap)
    elapsed = time.perf_counter() - t0
    _report(
        6,
        max(gaps) <= 1e-8,
        f"lift Bergman norm vs pairwise functional, route gaps {gaps[0]:.2e}, {gaps[1]:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_7_pointwise_kernel_identity():
    deviations = {}
    for symbol in (Identity(), Monomial(2), MobiusAuto(0.7j)):
        deviations[symbol.describe()] = pointwise_kernel_identity_check(
            symbol, sample_count=10000
        )
    worst = max(deviations.values())
    _report(
        7,
        worst <= 1e-12,
        f"max |num| - |k||den| deviation over 1e4 pairs x 3 symbols: {worst:.2e} (tol 1e-12)",
    )


def test_criterion_8_parameter_gate():
    outcomes = []

    p = WeightParams(1.0, 1.0, 0.5)
    outcomes.append(p.p_dirichlet == pytest.approx(1.0) and p.q_exponent == pytest.approx(5.0))

    try:
        WeightParams(1.0, 1.0, 2.0)
        outcomes.append(False)
    except ParamError as exc:
        outcomes.append(exc.code == "E_PARAM" and "beta" in str(exc))

    p = WeightParams(0.0, 0.0, -0.9)
    outcomes.append(p.p_dirichlet == pytest.approx(1.8))

    p = validate_main_theorem_params(1.0, 0.5)
    outcomes.append(p.p_dirichlet == pytest.approx(1.0))

    try:
        validate_main_theorem_params(1.0, 1.0)
        outcomes.append(False)
    except ParamError as exc:
        outcomes.append(exc.code == "E_PARAM")

    p = validate_main_theorem_params(0.5, -0.5)
    outcomes.append(p.p_dirichlet == pytest.approx(2.0))

    _report(
        8,
        all(outcomes),
        f"validator examples accept/reject as documented ({sum(outcomes)}/6, error name E_PARAM)",
    )
