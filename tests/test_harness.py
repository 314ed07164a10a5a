import cmath
import copy
import csv
import functools
import json
import math
import operator
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from discop.cli import main as cli_main
from discop.config import apply_overrides, parse_config
from discop.errors import ConfigError, ParamError
from discop.harness import CSV_COLUMNS, _cell, emit_reports, run, RunOutcome
from discop.kernels import SupSearchSettings
from discop.quadrature import QuadratureSettings
from discop.symbols import boundary_grid, verify_self_map
from oracles import mobius_power_coeffs

FAST_QUAD = {"radial": 8, "angular": 32}
BUNDLED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def _fast_quad():
    return {"radial_count": 16, "angular_count": 64, "max_refinements": 2}


def _fast_sup():
    return {"initial_grid": 64, "local_grid": 17, "max_refinements": 10}


#: the optional top-level fields, each with a small value
OPTIONAL = {
    "quadrature": asdict(QuadratureSettings(radial_count=8, angular_count=16, max_refinements=1)),
    "sup_search": asdict(SupSearchSettings(initial_grid=64, local_grid=17)),
    "selfmap_grid": 256,
    "selfmap_tol": 1e-6,
    "stability_rel_tol": 0.02,
}
#: the optional fields each command reads
READS = {
    "norm": ("quadrature",),
    "kernel-sup": ("sup_search",),
    "rank-check": (),
    "equivalence": ("quadrature", "stability_rel_tol"),
    "bound-check": ("quadrature", "sup_search", "stability_rel_tol"),
    "selfmap-check": ("selfmap_grid", "selfmap_tol"),
}


def _sweep_configs():
    """Every bundled config on a small rule, with every optional field its command reads."""
    for path in BUNDLED:
        config = {k: v for k, v in json.loads(path.read_text()).items() if k != "out_dir"}
        config.update({key: copy.deepcopy(OPTIONAL[key]) for key in READS[config["command"]]})
        yield config


# --- parsing -----------------------------------------------------------------


def test_parse_minimal_kernel_sup():
    cfg = parse_config({"command": "kernel-sup", "symbol": {"type": "mobius", "a": {"re": 0.5, "im": 0.0}}})
    assert cfg.command == "kernel-sup"
    assert cfg.symbol.zeros == (0.5,)
    # integer fields read integral floats as ints
    cfg = parse_config(
        {
            "command": "kernel-sup",
            "symbol": {"type": "monomial", "k": 2.0},
            "sup_search": {"initial_grid": 64.0},
        }
    )
    assert cfg.symbol.zeros == (0j, 0j) and cfg.symbol.describe() == "z^2"
    assert cfg.sup_search.initial_grid == 64
    cfg = parse_config(
        {
            "command": "norm",
            "family": "monomials:1..2",
            "params": {"sigma": 1.0, "beta": 0.5},
            "quadrature": {"radial_count": 16.0},
        }
    )
    assert cfg.quadrature.radial_count == 16


def test_parse_rejects_beta_above_window():
    with pytest.raises(ParamError, match="beta"):
        parse_config(
            {
                "command": "equivalence",
                "family": "monomials:1..2",
                "params": {"sigma": 1.0, "tau": 1.0, "beta": 2.0},
            }
        )


def test_parse_expands_monomial_family():
    cfg = parse_config(
        {
            "command": "norm",
            "family": "monomials:1..8",
            "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
        }
    )
    assert len(cfg.family) == 8
    assert cfg.family[0][0] == "z^1"
    assert len(cfg.family[-1][1].coeffs) - 1 == 8


def test_parse_geometric_and_explicit_families():
    cfg = parse_config(
        {
            "command": "norm",
            "family": "geometric:1..3",
            "params": {"sigma": 1.0, "beta": 0.5},
        }
    )
    assert [label for label, _ in cfg.family] == ["geom:1", "geom:2", "geom:3"]
    cfg = parse_config(
        {
            "command": "norm",
            "family": [{"label": "probe", "coeffs": [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.5}]}],
            "params": {"sigma": 1.0, "beta": 0.5},
        }
    )
    assert cfg.family[0][0] == "probe"
    assert cfg.family[0][1].coeffs == (0.0, 1.0 + 0.5j)


def test_parse_mobius_monomial_family():
    cfg = parse_config(
        {
            "command": "norm",
            "family": {"name": "mobius-monomials", "start": 1, "stop": 2, "order": 24},
            "params": {"sigma": 1.0, "beta": 0.5},
        }
    )
    assert len(cfg.family) == 2
    # first member is the automorphism itself: a_0 = 0.5
    assert cfg.family[0][1].coeffs[0] == pytest.approx(0.5)


def test_parse_rejects_unknown_fields_and_commands():
    with pytest.raises(ConfigError):
        parse_config({"command": "kernel-sup", "symbol": {"type": "identity"}, "bogus": 1})
    with pytest.raises(ConfigError):
        parse_config({"command": "explode"})
    with pytest.raises(ConfigError):
        parse_config({"command": "kernel-sup"})  # missing symbol
    with pytest.raises(ConfigError):
        parse_config("not json {")


def test_parse_command_mismatch():
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config({"command": "norm"}, command="kernel-sup")


def test_parse_bound_check_insists_on_equal_weights():
    with pytest.raises(ConfigError, match="equal-weight"):
        parse_config(
            {
                "command": "bound-check",
                "symbol": {"type": "identity"},
                "family": "monomials:1..2",
                "params": {"sigma": 1.0, "tau": 0.5, "beta": 0.25},
            }
        )


def test_overrides_scale_quadrature():
    cfg = parse_config(
        {
            "command": "norm",
            "family": "monomials:1..2",
            "params": {"sigma": 1.0, "beta": 0.5},
            "quadrature": {"radial_count": 8, "angular_count": 16},
        }
    )
    bumped = apply_overrides(cfg, refine=2)
    assert bumped.quadrature.radial_count == 32
    assert bumped.quadrature.angular_count == 64


def test_overrides_reseed_sup_search():
    cfg = parse_config({"command": "kernel-sup", "symbol": {"type": "identity"}})
    assert apply_overrides(cfg, seed=7).sup_search.seed == 7


# --- running -----------------------------------------------------------------


def test_run_kernel_sup_identity_exit_zero():
    cfg = parse_config(
        {"command": "kernel-sup", "symbol": {"type": "identity"}, "sup_search": _fast_sup()}
    )
    outcome = run(cfg)
    assert outcome.exit_code == 0
    row = outcome.rows[0]
    assert row.quantity == "kernel_sup"
    assert row.value == pytest.approx(1.0, abs=1e-12)
    assert row.verdict == "Bounded"


def test_run_kernel_sup_constant_exit_two():
    cfg = parse_config(
        {
            "command": "kernel-sup",
            "symbol": {"type": "poly", "coeffs": [{"re": 0.3, "im": 0.0}]},
            "sup_search": _fast_sup(),
        }
    )
    outcome = run(cfg)
    assert outcome.exit_code == 2
    assert outcome.rows[0].verdict == "Unbounded"


def test_run_kernel_sup_inconclusive_exit_three():
    cfg = parse_config(
        {
            "command": "kernel-sup",
            "symbol": {"type": "poly", "coeffs": [{"re": 0.3, "im": 0.0}]},
            "sup_search": {"initial_grid": 64, "local_grid": 17, "max_refinements": 2},
        }
    )
    outcome = run(cfg)
    assert outcome.exit_code == 3
    assert outcome.rows[0].verdict == "Inconclusive"


def test_run_equivalence_small_family():
    cfg = parse_config(
        {
            "command": "equivalence",
            "family": "monomials:1..2",
            "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
            "quadrature": _fast_quad(),
        }
    )
    outcome = run(cfg)
    assert outcome.exit_code == 0
    ratios = [r for r in outcome.rows if r.quantity == "equivalence_ratio"]
    assert len(ratios) == 2
    assert all(r.verdict == "Pass" for r in ratios)
    band = [r for r in outcome.rows if r.quantity == "ratio_band"][0]
    assert band.value < 10


def test_run_equivalence_unreachable_tolerance_exit_three():
    cfg = parse_config(
        {
            "command": "equivalence",
            "family": "monomials:1..1",
            "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
            "quadrature": {
                "radial_count": 8,
                "angular_count": 32,
                "target_rel_tol": 1e-9,
                "max_refinements": 1,
            },
        }
    )
    outcome = run(cfg)
    assert outcome.exit_code == 3
    assert any(r.verdict == "E_CONVERGENCE" for r in outcome.rows)


def test_run_rank_check_monomial():
    cfg = parse_config({"command": "rank-check", "symbol": {"type": "monomial", "k": 2}})
    outcome = run(cfg)
    assert outcome.exit_code == 0
    contact = [r for r in outcome.rows if r.quantity == "contact_set"][0]
    assert contact.value == "full-circle"
    min_deriv = [r for r in outcome.rows if r.quantity == "min_deriv_modulus"][0]
    assert min_deriv.value == pytest.approx(2.0, rel=1e-9)


def test_run_selfmap_check_pass_and_fail():
    good = parse_config(
        {
            "command": "selfmap-check",
            "symbol": {"type": "poly", "coeffs": [{"re": 0.5, "im": 0.0}, {"re": 0.5, "im": 0.0}]},
        }
    )
    outcome = run(good)
    assert outcome.exit_code == 0
    contact = [r for r in outcome.rows if r.quantity == "boundary_contact"][0]
    assert contact.value == 1

    bad = parse_config(
        {
            "command": "selfmap-check",
            "symbol": {"type": "poly", "coeffs": [{"re": 0.0, "im": 0.0}, {"re": 2.0, "im": 0.0}]},
        }
    )
    outcome = run(bad)
    assert outcome.exit_code == 2
    assert outcome.rows[0].verdict == "Fail"


def test_run_norm_command():
    cfg = parse_config(
        {
            "command": "norm",
            "family": "monomials:1..3",
            "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
            "quadrature": _fast_quad(),
        }
    )
    outcome = run(cfg)
    assert outcome.exit_code == 0
    coeff_rows = [r for r in outcome.rows if r.method == "coefficient"]
    quad_rows = [r for r in outcome.rows if r.method == "quadrature"]
    assert len(coeff_rows) == len(quad_rows) == 3
    for c, q in zip(coeff_rows, quad_rows):
        assert q.value == pytest.approx(c.value, rel=1e-8)


def test_run_bound_check_small():
    cfg = parse_config(
        {
            "command": "bound-check",
            "symbol": {"type": "monomial", "k": 2},
            "family": "monomials:1..2",
            "params": {"sigma": 1.0, "beta": 0.5},
            "quadrature": _fast_quad(),
            "sup_search": _fast_sup(),
        }
    )
    outcome = run(cfg)
    assert outcome.exit_code == 0
    ratios = [r for r in outcome.rows if r.quantity == "bound_ratio"]
    assert len(ratios) == 2
    assert all(r.verdict == "Pass" for r in ratios)
    violations = [r for r in outcome.rows if r.quantity == "pointwise_violations"]
    assert all(v.value == 0 for v in violations)


def test_run_bound_check_unbounded_symbol_short_circuits():
    cfg = parse_config(
        {
            "command": "bound-check",
            "symbol": {"type": "poly", "coeffs": [{"re": 0.3, "im": 0.0}]},
            "family": "monomials:1..2",
            "params": {"sigma": 1.0, "beta": 0.5},
            "quadrature": _fast_quad(),
            "sup_search": _fast_sup(),
        }
    )
    outcome = run(cfg)
    assert outcome.exit_code == 2
    assert outcome.rows[0].verdict == "Unbounded"
    assert not any(r.quantity == "bound_ratio" for r in outcome.rows)


# --- emission ----------------------------------------------------------------


def _strip_wall(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [row[:-1] for row in rows]


#: one config per command; each writes a plot
DETERMINISM_CONFIGS = {
    "norm": {
        "command": "norm",
        "family": "geometric:1..3",
        "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
        "quadrature": _fast_quad(),
    },
    "kernel-sup": {
        "command": "kernel-sup",
        "symbol": {"type": "mobius", "a": {"re": 0.3, "im": 0.4}},
        "sup_search": _fast_sup(),
    },
    "rank-check": {
        "command": "rank-check",
        "symbol": {"type": "poly", "coeffs": [0.5, 0.0, 0.5]},
    },
    "selfmap-check": {
        "command": "selfmap-check",
        "symbol": {"type": "blaschke", "zeros": [0.5, {"re": -0.3, "im": 0.2}]},
    },
    "equivalence": {
        "command": "equivalence",
        "family": "monomials:1..2",
        "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
        "quadrature": _fast_quad(),
    },
    # the composed pair engine, its majorization check and the bound rows
    "bound-check": {
        "command": "bound-check",
        "symbol": {"type": "blaschke", "zeros": [{"re": 0.4, "im": 0.2}], "post_rotation": 0.7},
        "family": "monomials:1..3",
        "params": {"sigma": 1.0, "beta": 0.5},
        "quadrature": {"radial_count": 8, "angular_count": 32, "max_refinements": 2},
        "sup_search": _fast_sup(),
    },
}


def _json_without_wall(path):
    return b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                    if b'"wall_ms":' not in line)


@pytest.mark.parametrize("name", DETERMINISM_CONFIGS)
def test_csv_deterministic_up_to_wall_ms(tmp_path, name):
    # and the JSON mirror without wall_ms, and every plot file, byte for byte
    cfg = parse_config(DETERMINISM_CONFIGS[name])
    a = emit_reports(run(cfg), tmp_path / "a")
    b = emit_reports(run(cfg), tmp_path / "b")
    assert _strip_wall(a["csv"]) == _strip_wall(b["csv"])
    assert _json_without_wall(a["json"]) == _json_without_wall(b["json"])
    plots = sorted(key for key in a if key.startswith("plot_"))
    assert plots and plots == sorted(key for key in b if key.startswith("plot_"))
    for key in plots:
        assert a[key].read_bytes() == b[key].read_bytes()


@pytest.mark.parametrize("name", DETERMINISM_CONFIGS)
def test_outcome_plots_are_pairs_of_float_arrays(name):
    outcome = run(parse_config(DETERMINISM_CONFIGS[name]))
    assert outcome.plots
    for plot, (x, y) in outcome.plots.items():
        assert isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
        assert x.dtype == y.dtype == np.float64 and x.ndim == y.ndim == 1
        assert x.size == y.size > 0
        if plot in ("deriv_modulus", "boundary_modulus"):
            # the boundary plots share the cached angles; only y is their own
            assert x is boundary_grid(256)[0] and not x.flags.writeable
            assert y.size == 256


#: a poly-contact symbol e^{i psi} (t + (1 - t) (z / zeta0)^2), |phi| = 1 at z = +-zeta0:
#: e^{i psi} = 0.6 + 0.8i, t = 0.5 and zeta0 = e^{2 pi i 37 / 1024}, on the scan grid
_C2 = (0.3 + 0.4j) * cmath.exp(-4j * math.pi * 37 / 1024)


@pytest.mark.parametrize("symbol", [
    {"type": "blaschke", "zeros": [0.5, {"re": -0.3, "im": 0.2}, {"re": 0.1, "im": -0.8}],
     "post_rotation": 1.1},
    {"type": "poly", "coeffs": [{"re": 0.3, "im": 0.4}, 0.0, {"re": _C2.real, "im": _C2.imag}]},
])
def test_rank_plot_is_read_off_the_scan_bit_for_bit(symbol):
    cfg = parse_config({"command": "rank-check", "symbol": symbol})
    x, y = run(cfg).plots["deriv_modulus"]
    want = np.abs(verify_self_map(cfg.symbol).symbol.deriv(boundary_grid(256)[1]))
    assert x is boundary_grid(256)[0]
    assert y.tobytes() == want.tobytes()


def test_rank_check_outcome_retains_under_8_kib():
    cfg = parse_config({"command": "rank-check", "symbol": {
        "type": "blaschke", "zeros": [0.5, {"re": -0.3, "im": 0.2}, {"re": 0.1, "im": -0.8}]}})
    run(cfg)  # fills the boundary grids' cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcome = run(cfg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert outcome.plots["deriv_modulus"][1].size == 256
    assert retained < 8 * 1024


def test_json_mirror_round_trip(tmp_path):
    cfg = parse_config(
        {
            "command": "equivalence",
            "family": "monomials:1..2",
            "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
            "quadrature": _fast_quad(),
        }
    )
    outcome = run(cfg)
    paths = emit_reports(outcome, tmp_path)
    with open(paths["json"]) as fh:
        mirror = json.load(fh)
    assert mirror["exit_code"] == outcome.exit_code
    for original, parsed in zip(outcome.rows, mirror["rows"]):
        assert parsed["value"] == original.value
        assert parsed["quantity"] == original.quantity
    assert mirror["traces"] == outcome.traces


def test_empty_outcome_yields_header_only_csv(tmp_path):
    paths = emit_reports(RunOutcome(), tmp_path)
    with open(paths["csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(("experiment", "input", "quantity", "value", "method", "tolerance", "verdict", "wall_ms"))]


def test_plot_files_two_numeric_columns(tmp_path):
    cfg = parse_config(
        {
            "command": "kernel-sup",
            "symbol": {"type": "identity"},
            "sup_search": _fast_sup(),
        }
    )
    paths = emit_reports(run(cfg), tmp_path)
    with open(paths["plot_sup_trace"]) as fh:
        for line in fh:
            x, y = line.split()
            float(x), float(y)


def _emit_row_by_row(outcome, out):
    """The reference emission route: a csv.writer on the open file, json.dump of
    asdict rows, one write per plot line, each array element in repr form."""
    out.mkdir(parents=True)
    with (out / "report.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in outcome.rows:
            writer.writerow([row.experiment, row.input, row.quantity, _cell(row.value),
                             row.method, _cell(row.tolerance), row.verdict, _cell(row.wall_ms)])
    payload = {
        "rows": [asdict(r) for r in outcome.rows],
        "traces": outcome.traces,
        "exit_code": outcome.exit_code,
    }
    with (out / "report.json").open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, (xs, ys) in outcome.plots.items():
        with (out / f"plot_{name}.dat").open("w", encoding="utf-8") as fh:
            for x, y in zip(xs, ys):
                fh.write(f"{float(x)!r} {float(y)!r}\n")


def test_emit_reports_bytes_match_row_by_row_route(tmp_path):
    # the boundary plots' angles take their text from the shared table, the
    # sup trace's grid sizes (and the angle 0.0) fall back to repr
    outcome = run(parse_config({"command": "rank-check", "symbol": {"type": "mobius", "a": 0.5}}))
    for spec in (
        {"command": "kernel-sup", "symbol": {"type": "monomial", "k": 2}, "sup_search": _fast_sup()},
        {"command": "selfmap-check", "symbol": {"type": "poly", "coeffs": [0.5, 0.5]}},
    ):
        more = run(parse_config(spec))
        outcome.rows += more.rows
        outcome.traces.update(more.traces)
        outcome.plots.update(more.plots)
    assert len(outcome.rows) >= 6 and outcome.traces and len(outcome.plots) == 3
    paths = emit_reports(outcome, tmp_path / "new")
    _emit_row_by_row(outcome, tmp_path / "old")
    names = ["report.csv", "report.json"] + [f"plot_{n}.dat" for n in outcome.plots]
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
    assert sorted(paths) == ["csv", "json", "plot_boundary_modulus", "plot_deriv_modulus",
                             "plot_sup_trace"]


# --- CLI ---------------------------------------------------------------------


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_exit_codes(tmp_path, capsys):
    ok = _write_config(
        tmp_path, "ok.json",
        {"command": "kernel-sup", "symbol": {"type": "identity"}, "sup_search": _fast_sup()},
    )
    assert cli_main(["kernel-sup", "--config", ok, "--out", str(tmp_path / "out0")]) == 0

    negative = _write_config(
        tmp_path, "neg.json",
        {
            "command": "kernel-sup",
            "symbol": {"type": "poly", "coeffs": [{"re": 0.3, "im": 0.0}]},
            "sup_search": _fast_sup(),
        },
    )
    assert cli_main(["kernel-sup", "--config", negative, "--out", str(tmp_path / "out2")]) == 2

    numerical = _write_config(
        tmp_path, "num.json",
        {
            "command": "equivalence",
            "family": "monomials:1..1",
            "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
            "quadrature": {
                "radial_count": 8,
                "angular_count": 32,
                "target_rel_tol": 1e-9,
                "max_refinements": 1,
            },
        },
    )
    assert cli_main(["equivalence", "--config", numerical, "--out", str(tmp_path / "out3")]) == 3

    bad = _write_config(
        tmp_path, "bad.json",
        {
            "command": "equivalence",
            "family": "monomials:1..2",
            "params": {"sigma": 1.0, "tau": 1.0, "beta": 2.0},
        },
    )
    assert cli_main(["equivalence", "--config", bad, "--out", str(tmp_path / "out4")]) == 4

    assert cli_main(["kernel-sup", "--config", str(tmp_path / "missing.json")]) == 4
    capsys.readouterr()


def test_cli_command_must_match_config(tmp_path, capsys):
    path = _write_config(
        tmp_path, "mismatch.json",
        {"command": "norm", "family": "monomials:1..1", "params": {"sigma": 1.0, "beta": 0.5}},
    )
    assert cli_main(["kernel-sup", "--config", path]) == 4
    capsys.readouterr()


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"command": "kernel-sup", "symbol": {"type": "rotation"}}, "symbol.angle"),
        ({"command": "kernel-sup", "symbol": {"type": "monomial", "k": "two"}}, "symbol.k"),
        ({"command": "kernel-sup", "symbol": {"type": "blaschke", "zeros": 0.5}}, "symbol.zeros"),
        (
            {
                "command": "norm",
                "family": {"name": "monomials", "start": "x"},
                "params": {"sigma": 1.0, "beta": 0.5},
            },
            "family.start",
        ),
        (
            {
                "command": "norm",
                "family": "monomials:1..2",
                "params": {"sigma": "one", "beta": 0.5},
            },
            "params.sigma",
        ),
        ({"command": "kernel-sup", "symbol": {"type": "identity"}, "seed": "x"}, "seed"),
        (
            {
                "command": "equivalence",
                "family": [{"coeffs": [0.0, 1.0], "label": "lin"}, {"coeffs": [2.0], "label": "flat"}],
                "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
                "quadrature": _fast_quad(),
            },
            "family member flat is constant",
        ),
        ({"command": "kernel-sup", "symbol": {"type": "monomial", "k": 2.5}}, "symbol.k"),
        (
            {
                "command": "norm",
                "family": {"name": "monomials", "start": 1.7},
                "params": {"sigma": 1.0, "beta": 0.5},
            },
            "family.start",
        ),
        (
            {"command": "kernel-sup", "symbol": {"type": "identity"},
             "sup_search": {"local_grid": 33.5}},
            "sup_search.local_grid",
        ),
        (
            {"command": "kernel-sup", "symbol": {"type": "identity"},
             "sup_search": {"initial_grid": 256.5}},
            "sup_search.initial_grid",
        ),
        (
            {
                "command": "norm",
                "family": "monomials:1..2",
                "params": {"sigma": 1.0, "beta": 0.5},
                "quadrature": {"radial_count": 8.5},
            },
            "quadrature.radial_count",
        ),
        (
            {"command": "kernel-sup", "symbol": {"type": "identity"},
             "sup_search": {"stabilization_rel_tol": "x"}},
            "sup_search.stabilization_rel_tol",
        ),
        ({"command": "kernel-sup", "symbol": {"type": "identity"}, "seed": -1}, "seed"),
        (
            {"command": "kernel-sup", "symbol": {"type": "identity"}, "sup_search": {"seed": -1}},
            "sup_search.seed",
        ),
        (
            {"command": "kernel-sup", "symbol": {"type": "identity"},
             "sup_search": {"interior_samples": 0}},
            "sup_search.interior_samples",
        ),
        (
            {"command": "kernel-sup", "symbol": {"type": "identity"},
             "sup_search": {"interior_samples": -1}},
            "sup_search.interior_samples",
        ),
        ({"command": "kernel-sup", "symbol": {"type": "mobius", "a": 2}}, "symbol.a"),
        ({"command": "kernel-sup", "symbol": {"type": "monomial", "k": 0}}, "symbol.k"),
        ({"command": "kernel-sup", "symbol": {"type": "blaschke", "zeros": []}}, "symbol.zeros"),
        ({"command": "kernel-sup", "symbol": {"type": "blaschke", "zeros": [1.5]}}, "symbol.zeros"),
        ({"command": "kernel-sup", "symbol": {"type": "poly", "coeffs": []}}, "symbol.coeffs"),
        (
            {"command": "norm", "family": "monomials:1..2", "params": {"sigma": 1.0, "beta": 0.5},
             "symbol": {"type": "mobius", "a": 2}},
            "[E_CONFIG]: symbol: not read by norm",
        ),
        (
            {"command": "equivalence", "family": "monomials:1..2",
             "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5}, "symbol": {"type": "rotation"}},
            "[E_CONFIG]: symbol: not read by equivalence",
        ),
        ({"command": "selfmap-check", "symbol": {"type": "identity"}, "selfmap_tol": 0}, "selfmap_tol"),
        (
            {"command": "selfmap-check", "symbol": {"type": "identity"}, "selfmap_tol": -0.5},
            "selfmap_tol",
        ),
        ({"command": "selfmap-check", "symbol": {"type": "identity"}, "selfmap_grid": 10}, "selfmap_grid"),
        (
            {"command": "equivalence", "family": "monomials:1..2",
             "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5}, "stability_rel_tol": -1},
            "stability_rel_tol",
        ),
        (
            {"command": "equivalence", "family": "monomials:1..2",
             "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5}, "stability_rel_tol": float("nan")},
            "stability_rel_tol",
        ),
        *[
            (
                {"command": "kernel-sup", "symbol": {"type": "mobius", "a": 0.5},
                 "sup_search": {key: value}},
                f"sup_search.{key}",
            )
            for key, value in (
                ("stabilization_rel_tol", -1), ("interior_rel_margin", -1),
                ("max_refinements", 0), ("contact_tol", -1), ("divergence_threshold", -5),
            )
        ],
        (
            {"command": "norm", "family": [{"coeffs": 5}], "params": {"sigma": 1.0, "beta": 0.5}},
            "family[0].coeffs",
        ),
        (
            {"command": "norm", "family": [{"coeffs": []}], "params": {"sigma": 1.0, "beta": 0.5}},
            "[E_CONFIG]: family",
        ),
        (
            {"command": "equivalence", "family": {"name": "mobius-monomials", "a": 1.5},
             "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5}},
            "[E_CONFIG]: family",
        ),
        (
            {"command": "kernel-sup", "symbol": {"type": "identity"}, "family": "monomials:1..2"},
            "family: not read by kernel-sup",
        ),
        (
            {"command": "rank-check", "symbol": {"type": "identity"},
             "params": {"sigma": 1.0, "beta": 0.5}},
            "params: not read by rank-check",
        ),
        (
            {"command": "kernel-sup", "symbol": {"type": "mobius", "a": 0.5, "post_rotaton": 1.0}},
            "unknown symbol fields: ['post_rotaton']",
        ),
        (
            {"command": "kernel-sup", "symbol": {"type": "mobius", "a": {"re": 0.5, "i": 0.1}}},
            "unknown symbol.a fields: ['i']",
        ),
        (
            {"command": "norm", "family": {"name": "monomials", "a": 0.5},
             "params": {"sigma": 1.0, "beta": 0.5}},
            "unknown family fields: ['a']",
        ),
        (
            {"command": "norm", "family": "monomials:1..2",
             "params": {"sigma": 1.0, "beta": 0.5, "gamma": 1.0}},
            "unknown params fields: ['gamma']",
        ),
        ({"command": "kernel-sup", "symbol": {"type": "rotation", "angle": 10**400}}, "symbol.angle"),
        ({"command": "kernel-sup", "symbol": {"type": "identity"}, "out_dir": 5}, "out_dir"),
        *[
            ({**config, key: OPTIONAL[key]}, f"[E_CONFIG]: {key}: not read by {config['command']}")
            for config in {c["command"]: c for c in _sweep_configs()}.values()
            for key in OPTIONAL
            if key not in READS[config["command"]]
        ],
    ],
)
def test_cli_malformed_config_exits_four_and_names_field(tmp_path, capsys, payload, field):
    path = _write_config(tmp_path, "bad.json", payload)
    assert cli_main([payload["command"], "--config", path, "--out", str(tmp_path / "out")]) == 4
    assert field in capsys.readouterr().err


def test_cli_refuses_negative_seed_and_refine(tmp_path, capsys):
    path = _write_config(
        tmp_path, "ok.json", {"command": "kernel-sup", "symbol": {"type": "identity"}}
    )
    for flag in ("--seed", "--refine"):
        argv = ["kernel-sup", "--config", path, "--out", str(tmp_path / "out"), flag, "-1"]
        assert cli_main(argv) == 4
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("kernel-sup", "--refine", "1"),
    ("kernel-sup", "--refine", "3"),  # refused for what it sets, not for a spectrum never built
    ("norm", "--seed", "5"),
])
def test_cli_refuses_flags_the_command_does_not_read(tmp_path, capsys, command, flag, value):
    payload = {
        "kernel-sup": {"command": "kernel-sup", "symbol": {"type": "identity"}},
        "norm": {"command": "norm", "family": "monomials:1..2",
                 "params": {"sigma": 1.0, "beta": 0.5}},
    }[command]
    path = _write_config(tmp_path, "ok.json", payload)
    argv = [command, "--config", path, "--out", str(tmp_path / "out"), flag, value]
    assert cli_main(argv) == 4
    err = capsys.readouterr().err
    assert f"{flag}: {command} reads no" in err and "sizes at least" not in err
    # a zero --refine asks for nothing, so it is accepted
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "out"), "--refine", "0"]) == 0


def test_cli_refuses_refine_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    # the refusal comes before any rule is built
    monkeypatch.setattr("discop.cli.run", lambda config: pytest.fail("run() was reached"))
    path = Path(__file__).resolve().parents[1] / "configs" / "equivalence_monomials.json"
    argv = ["equivalence", "--config", str(path), "--out", str(tmp_path), "--refine", "12"]
    assert cli_main(argv) == 4
    assert "--refine" in capsys.readouterr().err


def test_refine_bound_is_the_last_level_kernel_spectrum(monkeypatch):
    cfg = parse_config(
        {
            "command": "equivalence",
            "family": "monomials:1..2",
            "params": {"sigma": 1.0, "beta": 0.5},
            "quadrature": {"radial_count": 8, "angular_count": 16, "max_refinements": 1},
        }
    )
    # refine 1 and one ladder step: the last level is 32 x 64; its spectrum and, for a
    # dense series, the slabs gathered from it
    need = 2 * 8 * (64 // 2 + 1) * 32**2
    for memory, refused in ((need, False), (need - 1, True)):
        monkeypatch.setattr("os.sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}.get)
        if refused:
            with pytest.raises(ConfigError) as info:
                apply_overrides(cfg, refine=1)
            assert info.value.field == "--refine"
        else:
            assert apply_overrides(cfg, refine=1).quadrature.radial_count == 16


@pytest.mark.parametrize(
    "payload, field",
    [
        (
            {"command": "equivalence", "family": "monomials:1..2",
             "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
             "quadrature": {"radial_count": 10**6, "angular_count": 10**6, "max_refinements": 1}},
            "quadrature",
        ),
        (
            {"command": "norm", "family": "monomials:1..2", "params": {"sigma": 1.0, "beta": 0.5},
             "quadrature": {"max_refinements": 10**12}},
            "quadrature",
        ),
        ({"command": "selfmap-check", "symbol": {"type": "identity"}, "selfmap_grid": 10**18},
         "selfmap_grid"),
        ({"command": "kernel-sup", "symbol": {"type": "identity"},
          "sup_search": {"initial_grid": 10**9}}, "sup_search.initial_grid"),
        ({"command": "norm", "family": "monomials:1..1000000000",
          "params": {"sigma": 1.0, "beta": 0.5}}, "family"),
        ({"command": "equivalence", "family": {"name": "mobius-monomials", "order": 10**17},
          "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5}}, "family.order"),
        ({"command": "equivalence", "family": {"name": "mobius-monomials", "stop": 10**17},
          "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5}}, "family"),
        ({"command": "kernel-sup", "symbol": {"type": "monomial", "k": 10**12}}, "symbol.k"),
    ],
)
def test_cli_refuses_sizes_beyond_physical_memory_before_allocating(
    tmp_path, capsys, payload, field
):
    path = _write_config(tmp_path, "huge.json", payload)
    tracemalloc.start()
    try:
        code = cli_main([payload["command"], "--config", path, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert f"{field} sizes at least" in capsys.readouterr().err
    assert peak < 2**20


@pytest.mark.parametrize("family, field", [
    ({"name": "mobius-monomials", "order": -1}, "family.order"),
    ({"name": "mobius-monomials", "start": -1, "stop": 2}, "family.start"),
])
def test_family_refuses_negative_order_and_start_naming_the_field(tmp_path, capsys, family, field):
    payload = {"command": "equivalence", "family": family,
               "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5}}
    with pytest.raises(ConfigError) as info:
        parse_config(payload)
    assert info.value.field == field
    path = _write_config(tmp_path, "negative.json", payload)
    assert cli_main(["equivalence", "--config", path, "--out", str(tmp_path / "out")]) == 4
    assert f"{field} must be >= 0" in capsys.readouterr().err


def test_mobius_family_beyond_order_100_is_its_exact_series(tmp_path, capsys):
    family = {"name": "mobius-monomials", "start": 1, "stop": 4, "a": {"re": 0.5, "im": 0.0}}
    params = {"sigma": 1.0, "tau": 1.0, "beta": 0.5}
    cfg = parse_config({"command": "equivalence", "family": {**family, "order": 100},
                        "params": params})
    for n, (label, series) in enumerate(cfg.family, start=1):
        assert label == f"mobius(0.5+0j)^{n}"
        assert np.max(np.abs(np.array(series.coeffs) - mobius_power_coeffs(0.5, n, 100))) <= 1e-14
    path = _write_config(tmp_path, "order200.json", {"command": "equivalence",
                                                     "family": {**family, "order": 200},
                                                     "params": params})
    assert cli_main(["equivalence", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_mobius_family_reaches_a_far_start_by_squaring():
    def members(start, stop):
        family = {"name": "mobius-monomials", "start": start, "stop": stop, "order": 100}
        params = {"sigma": 1.0, "tau": 1.0, "beta": 0.5}
        return parse_config({"command": "equivalence", "family": family, "params": params}).family

    label, series = members(1, 37)[-1]
    (far_label, far), = members(37, 37)
    assert far_label == label
    assert np.max(np.abs(np.array(far.coeffs) - series.coeffs)) <= 1e-14
    # a start of 2^60 costs 60 squarings, not 2^60 products; |phi^n| <= 1 bounds every coefficient
    (_, huge), = members(2**60, 2**60)
    assert np.all(np.abs(huge.coeffs) <= 1.0)


def test_config_quadrature_bound_is_the_last_level_kernel_spectrum(monkeypatch):
    config = {
        "command": "equivalence",
        "family": "monomials:1..2",
        "params": {"sigma": 1.0, "beta": 0.5},
        "quadrature": {"radial_count": 64, "angular_count": 256, "max_refinements": 2},
    }
    # two ladder steps: the last level is 256 x 1024, far above the other sizes; its
    # spectrum and the slabs a dense series gathers from it
    need = 2 * 8 * (1024 // 2 + 1) * 256**2
    monkeypatch.setattr("os.sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}.get)
    assert parse_config(config).quadrature.radial_count == 64
    monkeypatch.setattr("os.sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}.get)
    with pytest.raises(ConfigError) as info:
        parse_config(config)
    assert info.value.field == "quadrature"


def _memory(monkeypatch, size):
    monkeypatch.setattr("os.sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": size}.get)


@pytest.mark.parametrize("radial_count, angular_count, max_refinements, need", [
    # the pair engine's tile workspace, 3 x 16 floats per node of the 2^20-node base rule
    (8, 2**17, 1, 8 * 3 * 16 * 2**20),
    # the base rule's kernel spectrum, (m//2 + 1) n_rad^2 floats
    (1024, 64, 1, 8 * 33 * 1024**2),
    # nodes and weights of the last rule, 128 x 2048
    (16, 256, 3, 24 * 128 * 2048),
], ids=["tile", "spectrum", "last-rule"])
def test_bound_check_quadrature_bound_is_its_largest_array(
    monkeypatch, radial_count, angular_count, max_refinements, need
):
    config = {
        "command": "bound-check",
        "symbol": {"type": "monomial", "k": 2},
        "family": "monomials:1..2",
        "params": {"sigma": 1.0, "beta": 0.5},
        "quadrature": {"radial_count": radial_count, "angular_count": angular_count,
                       "max_refinements": max_refinements},
    }
    _memory(monkeypatch, need)
    assert parse_config(config).quadrature.angular_count == angular_count
    _memory(monkeypatch, need - 1)
    with pytest.raises(ConfigError) as info:
        parse_config(config)
    assert info.value.field == "quadrature"
    # --refine sizes the arrays on the refined ladder
    small = dict(config, quadrature={"radial_count": radial_count // 2,
                                     "angular_count": angular_count // 2,
                                     "max_refinements": max_refinements})
    _memory(monkeypatch, need)
    assert apply_overrides(parse_config(small), refine=1).quadrature.angular_count == angular_count
    _memory(monkeypatch, need - 1)
    with pytest.raises(ConfigError) as info:
        apply_overrides(parse_config(small), refine=1)
    assert info.value.field == "--refine"


def test_norm_quadrature_bound_is_its_rule_arrays(monkeypatch):
    config = {
        "command": "norm",
        "family": "monomials:1..2",
        "params": {"sigma": 1.0, "beta": 0.5},
        "quadrature": {"radial_count": 512, "angular_count": 2048},
    }
    # nodes and weights of the last rule, 2048 x 8192; the kernel spectrum of
    # that rule (2^37 bytes) is never built by norm
    need = 24 * 2048 * 8192
    _memory(monkeypatch, need)
    assert parse_config(config).quadrature.radial_count == 512
    _memory(monkeypatch, need - 1)
    with pytest.raises(ConfigError) as info:
        parse_config(config)
    assert info.value.field == "quadrature"


@pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.stem)
def test_bundled_config_runs_through_cli(tmp_path, capsys, path):
    command = json.loads(path.read_text())["command"]
    expected = 2 if path.stem == "kernel_sup_constant" else 0
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path)]) == expected
    with open(tmp_path / "report.csv", newline="") as fh:
        assert next(csv.reader(fh)) == [
            "experiment", "input", "quantity", "value", "method", "tolerance", "verdict", "wall_ms",
        ]
    capsys.readouterr()


def test_cli_bound_check_rotation_has_no_pointwise_violations(tmp_path, capsys):
    """A rotation's plain and composed kernels are one table, so the round-off
    near the diagonal cannot read as a failed majorization (sup = 1)."""
    path = _write_config(tmp_path, "rotation.json", {
        "command": "bound-check",
        "symbol": {"type": "rotation", "angle": 0.7},
        "family": "monomials:1..4",
        "params": {"sigma": 1.0, "beta": 0.5},
    })
    assert cli_main(["bound-check", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["quantity"] == "pointwise_violations"]
    assert [(r["value"], r["verdict"]) for r in rows] == [("0", "Pass")] * 4


def _key_paths(obj, prefix=()):
    """Every key path into nested objects and lists, parents first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


_DROP = object()


def _mutated(config, path, value):
    """A deep copy of config with the entry at path set to value, or dropped."""
    out = copy.deepcopy(config)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def test_config_sweep_never_escapes(tmp_path, capsys):
    # each key path of each sweep config is dropped or set to a value of the
    # wrong type, sign or size, and the run must end in an exit code, never in
    # an exception
    variants = {}
    for config in _sweep_configs():
        for key_path in _key_paths(config):
            for value in (None, "x", True, [], {}, -1, 0, 2.5, _DROP):
                variant = _mutated(config, key_path, value)
                variants[json.dumps(variant, sort_keys=True)] = (config["command"], variant)
    assert len(variants) > 500
    escaped = []
    for text, (command, variant) in variants.items():
        path = _write_config(tmp_path, "fuzz.json", variant)
        try:
            code = cli_main([command, "--config", path, "--out", str(tmp_path / "out")])
        except Exception as exc:  # the sweep reports every escape, not only the first
            escaped.append(f"{text}: {exc!r}")
            continue
        if code not in (0, 2, 3, 4):
            escaped.append(f"{text}: exit {code}")
    capsys.readouterr()
    assert not escaped, "\n".join(escaped[:10])


def test_non_finite_numbers_are_refused_naming_their_field(tmp_path, capsys):
    # every numeric entry of every sweep config set to NaN or an infinity
    cases = [
        (config, key_path, value)
        for config in _sweep_configs()
        for key_path in _key_paths(config)
        if type(functools.reduce(operator.getitem, key_path, config)) in (int, float)
        for value in (math.nan, math.inf, -math.inf)
    ]
    assert len(cases) == 255
    wrong = []
    for config, key_path, value in cases:
        path = _write_config(tmp_path, "nonfinite.json", _mutated(config, key_path, value))
        code = cli_main([config["command"], "--config", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if code != 4 or key_path[0] not in err:
            wrong.append(f"{key_path} = {value}: exit {code}, {err.strip()!r}")
    assert not wrong, "\n".join(wrong[:10])


def test_run_keeps_convergence_evidence_in_json(tmp_path):
    cfg = parse_config(
        {
            "command": "equivalence",
            "family": {"name": "mobius-monomials", "start": 3, "stop": 3,
                       "a": {"re": 0.9, "im": 0.0}},
            "params": {"sigma": 1.0, "tau": 1.0, "beta": 0.5},
            "quadrature": {"radial_count": 8, "angular_count": 32,
                           "target_rel_tol": 1e-12, "max_refinements": 1},
        }
    )
    outcome = run(cfg)
    assert outcome.exit_code == 3
    assert [r.quantity for r in outcome.rows] == ["error"]
    evidence = outcome.traces["error"]
    assert [level[:2] for level in evidence["trace"]] == [[8, 32], [16, 64]]
    assert evidence["partial"]["value"] == evidence["trace"][-1][2]
    assert evidence["partial"]["achieved_rel_change"] > 1e-12
    paths = emit_reports(outcome, tmp_path)
    with open(paths["json"]) as fh:
        assert json.load(fh)["traces"]["error"] == evidence
    with open(paths["csv"], newline="") as fh:
        assert len(list(csv.reader(fh))) == 2
