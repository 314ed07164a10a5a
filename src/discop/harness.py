"""Experiment orchestration and report emission.

Experiments are pure functions of their configuration: no state is kept
between runs, so emitted reports are reproducible evidence (byte-identical
CSV up to the wall_ms column).  An outcome keeps each plot as a pair
``(x, y)`` of float64 arrays, formatted only on emission.  Each report file is
formatted in memory (the boundary plots' angles from one table of their text,
built on first use) and written with one unbuffered write.  Exit codes:

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
import io
import json
import time
from dataclasses import dataclass, field, is_dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ConvergenceError, ParamError, SymbolError
from .kernels import estimate_sup
from .norms import (
    dirichlet_norm_sq_coeff,
    dirichlet_norm_sq_quad,
    double_integral_functional,
)
from .operators import DERIV_TOL, VIOLATION_REL_TOL, bound_check, rank_sufficiency_check
from .quadrature import _rel_change
from .symbols import Blaschke, Polynomial, boundary_grid, verify_self_map

CSV_COLUMNS = ("experiment", "input", "quantity", "value", "method", "tolerance", "verdict", "wall_ms")

#: route-agreement tolerance for the norm experiment's coefficient/quadrature pair
NORM_AGREEMENT_RTOL = 1e-8
#: points of the boundary plots (|phi'| of rank-check, |phi| of selfmap-check)
PLOT_POINTS = 256


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
    """Rows, traces and plots of one run; ``plots`` maps a name to ``(x, y)``
    float64 arrays of equal length (the boundary plots' x is the shared,
    read-only ``boundary_grid(PLOT_POINTS)[0]``)."""

    rows: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)
    plots: dict = field(default_factory=dict)
    exit_code: int = 0


#: exit code of each sup-search and rank verdict (the others give 0)
VERDICT_CODES = {"Unbounded": 2, "Fail": 2, "Inconclusive": 3}


def _verified(symbol: Blaschke | Polynomial) -> Blaschke | Polynomial:
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


def _indexed(values: list) -> tuple:
    """A family plot: x = 1, 2, ... against ``values``, as float64 arrays."""
    return np.arange(1.0, len(values) + 1.0), np.array(values, dtype=float)


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _rows(outcome: RunOutcome, experiment: str, label: str, wall_ms: float):
    """Row appender for one measured step: experiment, input and wall_ms bound."""

    def add(quantity, value, method, tolerance, verdict):
        outcome.rows.append(
            ReportRow(experiment, label, quantity, value, method, tolerance, verdict, wall_ms)
        )

    return add


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
    except (ConvergenceError, SymbolError) as exc:
        _rows(outcome, config.command, "", 0.0)("error", str(exc), "", "", exc.code)
        if isinstance(exc, ConvergenceError):
            # the report keeps the failure's evidence; the CSV row stays as it was
            outcome.traces["error"] = {"partial": _plain(exc.partial), "trace": _plain(exc.trace)}
            outcome.exit_code = max(outcome.exit_code, 3)
        else:
            outcome.exit_code = max(outcome.exit_code, 2)
    return outcome


def _run_norm(config: RunConfig, outcome: RunOutcome):
    p = config.params.p_dirichlet
    values = []
    for label, series in config.family:
        t0 = time.perf_counter()
        coeff = dirichlet_norm_sq_coeff(series, p)
        quad = dirichlet_norm_sq_quad(series, p, config.quadrature)
        row = _rows(outcome, "norm", label, _ms_since(t0))
        agree = _rel_change(quad.value_sq, coeff.value_sq) <= NORM_AGREEMENT_RTOL
        row("dirichlet_norm_sq", coeff.value_sq, "coefficient", 0.0, "Pass")
        row("dirichlet_norm_sq", quad.value_sq, "quadrature", NORM_AGREEMENT_RTOL,
            "Pass" if agree else "Fail")
        outcome.traces[label] = [list(t) for t in (quad.trace or ())]
        values.append(quad.value_sq)
        if not agree:
            outcome.exit_code = max(outcome.exit_code, 3)
    outcome.plots["norms"] = _indexed(values)


def _run_kernel_sup(config: RunConfig, outcome: RunOutcome):
    symbol = _verified(config.symbol)
    t0 = time.perf_counter()
    est = estimate_sup(symbol, config.sup_search)
    row = _rows(outcome, "kernel-sup", symbol.describe(), _ms_since(t0))
    verdict = est.verdict.value
    row("kernel_sup", est.value, "grid", config.sup_search.stabilization_rel_tol, verdict)
    row("argmax_angles", f"{est.argmax[0].angle:.12g};{est.argmax[1].angle:.12g}",
        "grid", "", verdict)
    if est.interior_max is not None:
        row("interior_max", est.interior_max, "sample",
            config.sup_search.interior_rel_margin, verdict)
    outcome.traces["sup"] = [list(t) for t in est.trace]
    outcome.plots["sup_trace"] = tuple(np.array(est.trace, dtype=float).T)
    outcome.exit_code = max(outcome.exit_code, VERDICT_CODES.get(verdict, 0))


def _min_deriv_row(row, report):
    row("min_deriv_modulus", "" if report.min_deriv_modulus is None else report.min_deriv_modulus,
        "scan", DERIV_TOL, report.verdict.value)


def _run_rank_check(config: RunConfig, outcome: RunOutcome):
    symbol = _verified(config.symbol)
    t0 = time.perf_counter()
    report = rank_sufficiency_check(symbol)
    row = _rows(outcome, "rank-check", symbol.describe(), _ms_since(t0))
    contact_desc = (
        "full-circle"
        if report.full_circle
        else ";".join(f"{p.angle:.12g}" for p in report.points) or "empty"
    )
    row("contact_set", contact_desc, "scan",
        "exhaustive" if report.exhaustive else "heuristic", report.verdict.value)
    _min_deriv_row(row, report)
    # every (scan size / PLOT_POINTS)-th scan angle is a plot angle, bit for bit
    dmod = report.deriv_modulus
    outcome.plots["deriv_modulus"] = (boundary_grid(PLOT_POINTS)[0],
                                      dmod[:: dmod.size // PLOT_POINTS].copy())
    outcome.exit_code = max(outcome.exit_code, VERDICT_CODES.get(report.verdict.value, 0))


def _run_equivalence(config: RunConfig, outcome: RunOutcome):
    ratios = []
    for label, series in config.family:
        t0 = time.perf_counter()
        denominator = dirichlet_norm_sq_coeff(series, config.params.p_dirichlet)
        if denominator.value_sq <= 0.0:
            raise ParamError(f"family member {label} is constant; ratio undefined")
        functional = double_integral_functional(series, config.params, config.quadrature)
        row = _rows(outcome, "equivalence", label, _ms_since(t0))
        ratio = functional.value_sq / denominator.value_sq
        # the denominator is exact, so the ratio moves as the functional does
        stable = functional.rel_error_estimate <= config.stability_rel_tol
        ratios.append(ratio)
        row("equivalence_ratio", ratio, "quadrature/coefficient", config.stability_rel_tol,
            "Pass" if stable else "Fail")
        outcome.traces[label] = [list(t) for t in functional.trace]
        if not stable:
            outcome.exit_code = max(outcome.exit_code, 3)
    band = max(ratios) / min(ratios)
    _rows(outcome, "equivalence", "family", 0.0)(
        "ratio_band", band, "quadrature/coefficient", "",
        "Pass" if np.isfinite(band) and band > 0 else "Fail",
    )
    outcome.plots["ratios"] = _indexed(ratios)


def _run_bound_check(config: RunConfig, outcome: RunOutcome):
    symbol = _verified(config.symbol)
    label = symbol.describe()
    t0 = time.perf_counter()
    sup = estimate_sup(symbol, config.sup_search)
    _rows(outcome, "bound-check", label, _ms_since(t0))(
        "kernel_sup", sup.value, "grid", config.sup_search.stabilization_rel_tol,
        sup.verdict.value,
    )
    outcome.traces["sup"] = [list(t) for t in sup.trace]
    outcome.exit_code = max(outcome.exit_code, VERDICT_CODES.get(sup.verdict.value, 0))
    if outcome.exit_code:
        return

    t0 = time.perf_counter()
    rank = rank_sufficiency_check(symbol)
    _min_deriv_row(_rows(outcome, "bound-check", label, _ms_since(t0)), rank)
    outcome.exit_code = max(outcome.exit_code, VERDICT_CODES.get(rank.verdict.value, 0))
    if outcome.exit_code:
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
    per_row_wall = _ms_since(t0) / max(len(report.rows), 1)
    for result in report.rows:
        row = _rows(outcome, "bound-check", result.label, per_row_wall)
        stable = result.comp_norm_sq.rel_error_estimate <= config.stability_rel_tol
        clean = result.violations == 0
        row("bound_ratio", result.ratio, "quadrature/coefficient", config.stability_rel_tol,
            "Pass" if (stable and clean) else "Fail")
        row("pointwise_violations", result.violations, "quadrature", VIOLATION_REL_TOL,
            "Pass" if clean else "Fail")
        row("composed_pair_integral", result.eq_intermediate_sq.value_sq, "quadrature",
            result.eq_intermediate_sq.rel_error_estimate, "Pass")
        outcome.traces[result.label] = [list(t) for t in (result.comp_norm_sq.trace or ())]
        if not (stable and clean):
            outcome.exit_code = max(outcome.exit_code, 3)
    outcome.plots["bound_ratios"] = _indexed([result.ratio for result in report.rows])


def _run_selfmap_check(config: RunConfig, outcome: RunOutcome):
    label = config.symbol.describe()
    t0 = time.perf_counter()
    try:
        check = verify_self_map(config.symbol, config.selfmap_grid, config.selfmap_tol)
    except SymbolError as exc:
        _rows(outcome, "selfmap-check", label, _ms_since(t0))(
            "max_modulus", str(exc), "scan", config.selfmap_tol, "Fail"
        )
        outcome.exit_code = max(outcome.exit_code, 2)
        return
    row = _rows(outcome, "selfmap-check", label, _ms_since(t0))
    row("max_modulus", check.max_modulus, "scan", config.selfmap_tol, "Pass")
    row("boundary_contact", int(check.boundary_contact), "scan", config.selfmap_tol, "Pass")
    angles, zeta = boundary_grid(PLOT_POINTS)
    outcome.plots["boundary_modulus"] = (angles, np.abs(check.symbol.value(zeta)))


# --- emission ----------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


@lru_cache(maxsize=1)
def _angle_text() -> dict:
    """repr of each boundary plot angle but 0.0, by value (a -0.0 would match 0.0)."""
    return {x: repr(x) for x in boundary_grid(PLOT_POINTS)[0].tolist()[1:]}


def _write(path: Path, text: str) -> Path:
    """Write ``text`` as UTF-8 in one unbuffered write (repeated only after a short one)."""
    with path.open("wb", buffering=0) as fh:
        data = memoryview(text.encode("utf-8"))
        while data:
            data = data[fh.write(data):]
    return path


def emit_reports(outcome: RunOutcome, out_dir) -> dict:
    """Write report.csv, a JSON mirror with traces, and plot data files.

    Returns the paths written.  The CSV is deterministic for a fixed config
    except for the wall_ms column.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        [row.experiment, row.input, row.quantity, _cell(row.value),
         row.method, _cell(row.tolerance), row.verdict, _cell(row.wall_ms)]
        for row in outcome.rows
    )
    payload = {
        "rows": [vars(r) for r in outcome.rows],
        "traces": outcome.traces,
        "exit_code": outcome.exit_code,
    }
    paths = {
        "csv": _write(out / "report.csv", table.getvalue()),
        "json": _write(out / "report.json", json.dumps(payload, indent=2, sort_keys=True) + "\n"),
    }
    text = _angle_text()
    for name, (xs, ys) in outcome.plots.items():
        lines = [f"{text.get(x) or repr(x)} {y!r}\n" for x, y in zip(xs.tolist(), ys.tolist())]
        paths[f"plot_{name}"] = _write(out / f"plot_{name}.dat", "".join(lines))
    return paths
