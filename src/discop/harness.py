"""Experiment orchestration and report emission.

Experiments are pure functions of their configuration: no state is kept
between runs, so emitted reports are reproducible evidence (byte-identical
CSV up to the wall_ms column).  Exit codes:

* 0: all verdicts positive / within tolerance,
* 2: a mathematical verdict is negative (kernel unbounded, rank check
  failed, symbol not a self-map),
* 3: a numerical failure (refinement/extrapolation did not converge,
  inconclusive search, stability tolerance missed),
* 4: configuration or parameter error (set by the CLI wrapper).

When both negative verdicts and numerical failures occur, the numerical
code 3 wins: a verdict computed amid numerical trouble is not evidence.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ConvergenceError, ParamError, SymbolError
from .kernels import Verdict, estimate_sup
from .norms import (
    dirichlet_norm_sq_coeff,
    dirichlet_norm_sq_quad,
    double_integral_functional,
)
from .operators import RankVerdict, bound_check, rank_sufficiency_check
from .symbols import Polynomial, Symbol, verify_self_map

CSV_COLUMNS = ("experiment", "input", "quantity", "value", "method", "tolerance", "verdict", "wall_ms")

#: route-agreement tolerance for the norm experiment's coefficient/quadrature pair
NORM_AGREEMENT_RTOL = 1e-8


@dataclass
class ReportRow:
    experiment: str
    input: str
    quantity: str
    value: object
    method: str
    tolerance: object
    verdict: str
    wall_ms: float


@dataclass
class RunOutcome:
    rows: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)
    plots: dict = field(default_factory=dict)
    exit_code: int = 0


def _worst(code_a: int, code_b: int) -> int:
    order = {0: 0, 2: 1, 3: 2, 4: 3}
    return code_a if order[code_a] >= order[code_b] else code_b


def _verified(symbol: Symbol) -> Symbol:
    if isinstance(symbol, Polynomial) and not symbol.verified:
        return verify_self_map(symbol).symbol
    return symbol


def _plain(value):
    """``value`` as JSON data: dataclasses as objects, tuples as lists."""
    if is_dataclass(value):
        return {f: _plain(getattr(value, f)) for f in value.__dataclass_fields__}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def run(config: RunConfig) -> RunOutcome:
    """Execute the configured experiment; errors become rows + exit codes."""
    outcome = RunOutcome()
    dispatch = {
        "norm": _run_norm,
        "kernel-sup": _run_kernel_sup,
        "rank-check": _run_rank_check,
        "equivalence": _run_equivalence,
        "bound-check": _run_bound_check,
        "selfmap-check": _run_selfmap_check,
    }
    try:
        dispatch[config.command](config, outcome)
    except ConvergenceError as exc:
        outcome.rows.append(
            ReportRow(
                experiment=config.command, input="", quantity="error",
                value=str(exc), method="", tolerance="", verdict=exc.code, wall_ms=0.0,
            )
        )
        # the report keeps the failure's evidence; the CSV row stays as it was
        outcome.traces["error"] = {"partial": _plain(exc.partial), "trace": _plain(exc.trace)}
        outcome.exit_code = _worst(outcome.exit_code, 3)
    except SymbolError as exc:
        outcome.rows.append(
            ReportRow(
                experiment=config.command, input="", quantity="error",
                value=str(exc), method="", tolerance="", verdict=exc.code, wall_ms=0.0,
            )
        )
        outcome.exit_code = _worst(outcome.exit_code, 2)
    return outcome


def _run_norm(config: RunConfig, outcome: RunOutcome):
    p = config.params.p_dirichlet
    plot = []
    for idx, (label, series) in enumerate(config.family):
        t0 = time.perf_counter()
        coeff = dirichlet_norm_sq_coeff(series, p)
        quad = dirichlet_norm_sq_quad(series, p, config.quadrature)
        wall = (time.perf_counter() - t0) * 1e3
        scale = max(coeff.value_sq, quad.value_sq, 1e-300)
        agree = abs(coeff.value_sq - quad.value_sq) / scale <= NORM_AGREEMENT_RTOL
        outcome.rows.append(
            ReportRow(
                experiment="norm", input=label, quantity="dirichlet_norm_sq",
                value=coeff.value_sq, method="coefficient", tolerance=0.0,
                verdict="Pass", wall_ms=wall,
            )
        )
        outcome.rows.append(
            ReportRow(
                experiment="norm", input=label, quantity="dirichlet_norm_sq",
                value=quad.value_sq, method="quadrature", tolerance=NORM_AGREEMENT_RTOL,
                verdict="Pass" if agree else "Fail", wall_ms=wall,
            )
        )
        outcome.traces[label] = [list(t) for t in (quad.trace or ())]
        plot.append((float(idx + 1), quad.value_sq))
        if not agree:
            outcome.exit_code = _worst(outcome.exit_code, 3)
    outcome.plots["norms"] = plot


def _run_kernel_sup(config: RunConfig, outcome: RunOutcome):
    symbol = _verified(config.symbol)
    t0 = time.perf_counter()
    est = estimate_sup(symbol, config.sup_search)
    wall = (time.perf_counter() - t0) * 1e3
    label = symbol.describe()
    outcome.rows.append(
        ReportRow(
            experiment="kernel-sup", input=label, quantity="kernel_sup",
            value=est.value, method="grid", tolerance=config.sup_search.stabilization_rel_tol,
            verdict=est.verdict.value, wall_ms=wall,
        )
    )
    outcome.rows.append(
        ReportRow(
            experiment="kernel-sup", input=label, quantity="argmax_angles",
            value=f"{est.argmax[0].angle:.12g};{est.argmax[1].angle:.12g}",
            method="grid", tolerance="", verdict=est.verdict.value, wall_ms=wall,
        )
    )
    if est.interior_max is not None:
        outcome.rows.append(
            ReportRow(
                experiment="kernel-sup", input=label, quantity="interior_max",
                value=est.interior_max, method="sample",
                tolerance=config.sup_search.interior_rel_margin,
                verdict=est.verdict.value, wall_ms=wall,
            )
        )
    outcome.traces["sup"] = [list(t) for t in est.trace]
    outcome.plots["sup_trace"] = [(float(g), float(v)) for g, v in est.trace]
    if est.verdict is Verdict.UNBOUNDED:
        outcome.exit_code = _worst(outcome.exit_code, 2)
    elif est.verdict is Verdict.INCONCLUSIVE:
        outcome.exit_code = _worst(outcome.exit_code, 3)


def _run_rank_check(config: RunConfig, outcome: RunOutcome):
    symbol = _verified(config.symbol)
    t0 = time.perf_counter()
    report = rank_sufficiency_check(symbol)
    wall = (time.perf_counter() - t0) * 1e3
    label = symbol.describe()
    contact_desc = (
        "full-circle"
        if report.contact.full_circle
        else ";".join(f"{p.angle:.12g}" for p in report.contact.points) or "empty"
    )
    outcome.rows.append(
        ReportRow(
            experiment="rank-check", input=label, quantity="contact_set",
            value=contact_desc, method="scan",
            tolerance="exhaustive" if report.contact.exhaustive else "heuristic",
            verdict=report.verdict.value, wall_ms=wall,
        )
    )
    outcome.rows.append(
        ReportRow(
            experiment="rank-check", input=label, quantity="min_deriv_modulus",
            value="" if report.min_deriv_modulus is None else report.min_deriv_modulus,
            method="scan", tolerance=report.deriv_tol,
            verdict=report.verdict.value, wall_ms=wall,
        )
    )
    angles = 2.0 * np.pi * np.arange(256) / 256
    dmod = np.abs(symbol.deriv(np.exp(1j * angles)))
    outcome.plots["deriv_modulus"] = [(float(a), float(d)) for a, d in zip(angles, dmod)]
    if report.verdict is RankVerdict.FAIL:
        outcome.exit_code = _worst(outcome.exit_code, 2)
    elif report.verdict is RankVerdict.INCONCLUSIVE:
        outcome.exit_code = _worst(outcome.exit_code, 3)


def _run_equivalence(config: RunConfig, outcome: RunOutcome):
    ratios = []
    plot = []
    for idx, (label, series) in enumerate(config.family):
        t0 = time.perf_counter()
        denominator = dirichlet_norm_sq_coeff(series, config.params.p_dirichlet)
        if denominator.value_sq <= 0.0:
            raise ParamError(f"family member {label} is constant; ratio undefined")
        functional = double_integral_functional(series, config.params, config.quadrature)
        wall = (time.perf_counter() - t0) * 1e3
        ratio = functional.value_sq / denominator.value_sq
        prev = float(np.real(functional.trace[-2][2])) / denominator.value_sq
        change = abs(ratio - prev) / max(abs(ratio), abs(prev))
        stable = change <= config.stability_rel_tol
        ratios.append(ratio)
        outcome.rows.append(
            ReportRow(
                experiment="equivalence", input=label, quantity="equivalence_ratio",
                value=ratio, method="quadrature/coefficient",
                tolerance=config.stability_rel_tol,
                verdict="Pass" if stable else "Fail", wall_ms=wall,
            )
        )
        outcome.traces[label] = [list(t) for t in functional.trace]
        plot.append((float(idx + 1), ratio))
        if not stable:
            outcome.exit_code = _worst(outcome.exit_code, 3)
    band = max(ratios) / min(ratios)
    outcome.rows.append(
        ReportRow(
            experiment="equivalence", input="family", quantity="ratio_band",
            value=band, method="quadrature/coefficient", tolerance="",
            verdict="Pass" if np.isfinite(band) and band > 0 else "Fail", wall_ms=0.0,
        )
    )
    outcome.plots["ratios"] = plot


def _run_bound_check(config: RunConfig, outcome: RunOutcome):
    symbol = _verified(config.symbol)
    label = symbol.describe()
    t0 = time.perf_counter()
    sup = estimate_sup(symbol, config.sup_search)
    wall = (time.perf_counter() - t0) * 1e3
    outcome.rows.append(
        ReportRow(
            experiment="bound-check", input=label, quantity="kernel_sup",
            value=sup.value, method="grid",
            tolerance=config.sup_search.stabilization_rel_tol,
            verdict=sup.verdict.value, wall_ms=wall,
        )
    )
    outcome.traces["sup"] = [list(t) for t in sup.trace]
    if sup.verdict is not Verdict.BOUNDED:
        outcome.exit_code = _worst(
            outcome.exit_code, 2 if sup.verdict is Verdict.UNBOUNDED else 3
        )
        return

    t0 = time.perf_counter()
    rank = rank_sufficiency_check(symbol)
    wall = (time.perf_counter() - t0) * 1e3
    outcome.rows.append(
        ReportRow(
            experiment="bound-check", input=label, quantity="min_deriv_modulus",
            value="" if rank.min_deriv_modulus is None else rank.min_deriv_modulus,
            method="scan", tolerance=rank.deriv_tol,
            verdict=rank.verdict.value, wall_ms=wall,
        )
    )
    if rank.verdict is RankVerdict.FAIL:
        outcome.exit_code = _worst(outcome.exit_code, 2)
        return
    if rank.verdict is RankVerdict.INCONCLUSIVE:
        outcome.exit_code = _worst(outcome.exit_code, 3)
        return

    t0 = time.perf_counter()
    report = bound_check(
        [series for _, series in config.family],
        symbol,
        config.params.sigma,
        config.params.beta,
        settings=config.quadrature,
        sup=sup,
        labels=[lbl for lbl, _ in config.family],
    )
    wall = (time.perf_counter() - t0) * 1e3
    per_row_wall = wall / max(len(report.rows), 1)
    plot = []
    for idx, row in enumerate(report.rows):
        stable = row.ratio_rel_change <= config.stability_rel_tol
        clean = row.violations == 0
        outcome.rows.append(
            ReportRow(
                experiment="bound-check", input=row.label, quantity="bound_ratio",
                value=row.ratio, method="quadrature/coefficient",
                tolerance=config.stability_rel_tol,
                verdict="Pass" if (stable and clean) else "Fail",
                wall_ms=per_row_wall,
            )
        )
        outcome.rows.append(
            ReportRow(
                experiment="bound-check", input=row.label, quantity="pointwise_violations",
                value=row.violations, method="quadrature", tolerance=1e-12,
                verdict="Pass" if clean else "Fail", wall_ms=per_row_wall,
            )
        )
        outcome.rows.append(
            ReportRow(
                experiment="bound-check", input=row.label, quantity="composed_pair_integral",
                value=row.eq_intermediate_sq.value_sq, method="quadrature",
                tolerance=row.eq_intermediate_sq.rel_error_estimate,
                verdict="Pass", wall_ms=per_row_wall,
            )
        )
        outcome.traces[row.label] = [list(t) for t in (row.comp_norm_sq.trace or ())]
        plot.append((float(idx + 1), row.ratio))
        if not (stable and clean):
            outcome.exit_code = _worst(outcome.exit_code, 3)
    outcome.plots["bound_ratios"] = plot


def _run_selfmap_check(config: RunConfig, outcome: RunOutcome):
    symbol = config.symbol
    label = symbol.describe()
    angles = 2.0 * np.pi * np.arange(256) / 256
    t0 = time.perf_counter()
    try:
        check = verify_self_map(symbol, config.selfmap_grid, config.selfmap_tol)
    except SymbolError as exc:
        wall = (time.perf_counter() - t0) * 1e3
        outcome.rows.append(
            ReportRow(
                experiment="selfmap-check", input=label, quantity="max_modulus",
                value=str(exc), method="scan", tolerance=config.selfmap_tol,
                verdict="Fail", wall_ms=wall,
            )
        )
        outcome.exit_code = _worst(outcome.exit_code, 2)
        return
    wall = (time.perf_counter() - t0) * 1e3
    outcome.rows.append(
        ReportRow(
            experiment="selfmap-check", input=label, quantity="max_modulus",
            value=check.max_modulus, method="scan", tolerance=config.selfmap_tol,
            verdict="Pass", wall_ms=wall,
        )
    )
    outcome.rows.append(
        ReportRow(
            experiment="selfmap-check", input=label, quantity="boundary_contact",
            value=int(check.boundary_contact), method="scan",
            tolerance=config.selfmap_tol, verdict="Pass", wall_ms=wall,
        )
    )
    if isinstance(check.symbol, Polynomial):
        from .symbols import _horner

        mods = np.abs(_horner(check.symbol.coeffs, np.exp(1j * angles)))
    else:
        mods = np.abs(check.symbol.value(np.exp(1j * angles)))
    outcome.plots["boundary_modulus"] = [
        (float(a), float(m)) for a, m in zip(angles, mods)
    ]


# --- emission ----------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_reports(outcome: RunOutcome, out_dir) -> dict:
    """Write report.csv, a JSON mirror with traces, and plot data files.

    Returns the paths written.  The CSV is deterministic for a fixed config
    except for the wall_ms column.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    csv_path = out / "report.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in outcome.rows:
            writer.writerow(
                [
                    row.experiment, row.input, row.quantity, _cell(row.value),
                    row.method, _cell(row.tolerance), row.verdict, _cell(row.wall_ms),
                ]
            )
    paths["csv"] = csv_path

    json_path = out / "report.json"
    payload = {
        "rows": [asdict(r) for r in outcome.rows],
        "traces": outcome.traces,
        "exit_code": outcome.exit_code,
    }
    with json_path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["json"] = json_path

    for name, points in outcome.plots.items():
        plot_path = out / f"plot_{name}.dat"
        with plot_path.open("w", encoding="utf-8") as fh:
            for x, y in points:
                fh.write(f"{x!r} {y!r}\n")
        paths[f"plot_{name}"] = plot_path
    return paths
