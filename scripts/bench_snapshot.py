#!/usr/bin/env python3
"""Write a benchmark snapshot, BENCH_<n>.json, for this checkout.

Usage (from anywhere; n numbers the snapshot):

    python3 scripts/bench_snapshot.py <n> [--seeds 1,2,...,10] [--seconds 30]

Runs ``perfbench/run.py`` on every workload: once per seed with
``--trace 0`` (end-to-end metrics) and once, on the first seed, with
``--trace 1`` (per-layer metrics).  The snapshot holds the median of each
end-to-end metric over the seeds with the per-seed values, the per-layer
metrics, the pass/fail counts and the machine and library stamp from
perfbench's ``env`` line.

The comparison is measured, not looked up: ``HEAD`` is extracted with
``git archive`` into a temporary directory, and for every seed the parent
and the working tree run back to back on this host, alternating which goes
first; the default is ten seeds, so ten pairs, the fewest that can support a
claimed gain.  Each end-to-end metric gets its per-pair relative change
(working tree against parent) and the median of those changes, so a drift of
the host's speed between snapshots does not read as a code change; the
number of pairs the working tree wins (better in the direction
``BENCHMARK.json`` gives the metric, ties counting for neither side); and
the interquartile spread of the parent's runs, which a median difference
must exceed to count.  Run it
before committing, so that ``HEAD`` is the parent of the change.

Each bundled config of ``configs/`` is also measured end to end: once per
seed, ``HEAD`` and the working tree each run it through
``python -m discop <command> --config`` (alternating which goes first, as
above), and the snapshot records per config the median wall time of the
process, the exit codes, the per-pair changes and the pairs won.  The
snapshot also records the line total of ``src/discop/*.py`` (as
``wc -l`` counts it) for ``HEAD`` and for the working tree.

After the last timed run, each tree runs every experiment of every workload
for seeds 1 and 2 once, in a fresh process, and hashes its outputs: the report
rows without ``wall_ms``, the traces, the plot files' numbers and the exit
code, or for a lift its values and traces.  The snapshot records the number
of experiments, whether every hash is the parent's (``outputs_equal``) and
the experiments whose hashes differ.  Beside the hashes it records how far
the outputs moved: per quantity (a report row's ``quantity``, or
``traces.<name>``, ``plots.<name>`` and a lift's value names) the largest
relative difference of a number between the parent and the working tree,
and every other output cell that differs (a string, a verdict, an exit code,
or a list whose length changed).  The comparison comes last because it holds
both trees' outputs in this process, and a child started after that would
report this process's high-water mark as its own ``peak_rss_mb``
(``ru_maxrss`` survives fork and exec); every timed run is started from this
process before it has loaded them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENV_KEYS = ("nproc", "affinity_cpus", "cpu_model", "python", "numpy", "scipy", "blas")
#: the workload seeds whose every experiment's outputs are compared
OUTPUT_SEEDS = (1, 2)


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int):
    """One perfbench run of the checkout at ``tree``: its env stamp and its result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def _run_config(tree: Path, config: Path, out: Path):
    """One CLI run of ``config`` on the sources of ``tree``: (wall seconds, exit code)."""
    command = json.loads(config.read_text())["command"]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "discop", command, "--config", str(config), "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return time.perf_counter() - t0, done.returncode


def _outputs(exp, out: Path):
    """The outputs of one experiment of the discop on ``sys.path``, as JSON data."""
    from discop import config, harness, operators, quadrature, series

    try:
        if exp.lift is not None:
            degree, coeff, sigma, beta, settings = exp.lift
            result = operators.lift_norm_check(
                series.TruncatedPowerSeries((0.0,) * degree + (coeff,)), sigma, beta,
                settings=quadrature.QuadratureSettings(**settings))
            keys = ("value_sq", "rel_error_estimate", "trace")
            norms = {name: {key: getattr(norm, key) for key in keys}
                     for name, norm in (("bergman", result.bergman_sq),
                                        ("dirichlet", result.dirichlet_sq),
                                        ("double_integral", result.double_integral_sq))}
            return {"route_gap": result.route_gap, **norms}
        paths = harness.emit_reports(harness.run(config.parse_config(exp.config)), out)
    except Exception as exc:  # a failure is an output too
        return {"raised": f"{type(exc).__name__}: {exc}"}
    report = json.loads(paths.pop("json").read_text())
    for row in report["rows"]:
        del row["wall_ms"]
    with paths.pop("csv").open(newline="") as fh:
        report["csv"] = [row[:-1] for row in csv.reader(fh)]  # wall_ms is the last column
    # each plot line is "x y" in repr form, so the numbers keep every bit
    report["plots"] = {name: [[float(x) for x in line.split()]
                              for line in path.read_text().splitlines()]
                       for name, path in paths.items()}
    return report


def _experiment_outputs(seeds) -> dict:
    """Per experiment of every workload for ``seeds``: its outputs."""
    outputs = {}
    with tempfile.TemporaryDirectory(prefix="bench-outputs-") as tmp:
        for name in WORKLOADS:
            for seed in seeds:
                for exp in workloads.build(name, seed):
                    out = Path(tmp) / str(len(outputs))
                    outputs[f"{name}:{seed}:{exp.name}"] = _outputs(exp, out)
    return outputs


def _tree_outputs(tree: Path) -> dict:
    """_experiment_outputs in a fresh process that imports discop from ``tree``."""
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); "
            f"import bench_snapshot; "
            f"print(json.dumps(bench_snapshot._experiment_outputs({list(OUTPUT_SEEDS)!r})))")
    done = subprocess.run([sys.executable, "-c", code], cwd=tree, capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return json.loads(done.stdout)


def _digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def _leaves(a, b, path=()):
    """(path, a, b) per position of two JSON values; a subtree whose shape
    differs between them (other keys, another length) is one pair."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from _leaves(a[key], b[key], path + (key,))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaves(x, y, path + (i,))
    else:
        yield path, a, b


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _rel_diff(a, b) -> float:
    if a == b or a != a and b != b:  # equal, or both NaN
        return 0.0
    diff = abs(a - b) / max(abs(a), abs(b))
    return diff if diff == diff else math.inf  # one side NaN or infinite


def _value_differences(parent: dict, current: dict):
    """Per quantity the largest relative difference of a number between the
    trees, and the other cells that differ.

    A report row's numeric ``value`` counts under the row's quantity; the
    numbers of traces and plots under ``traces.<name>`` and ``plots.<name>``,
    a lift's under its value name.  The CSV, which repeats the rows as text,
    is covered by the hash only.
    """
    largest, cells = {}, []
    for key in sorted(parent.keys() & current.keys()):
        p, c = parent[key], current[key]
        for path, a, b in _leaves(p, c):
            if path[:1] == ("csv",):
                continue
            rows = path[:1] == ("rows",) and len(path) == 3
            quantity = p["rows"][path[1]]["quantity"] if rows else ".".join(map(str, path[:2]))
            measured = path[2:] == ("value",) if rows else path != ("exit_code",)
            if measured and _number(a) and _number(b):
                entry = largest.setdefault(quantity, {"max_rel_diff": 0.0, "at": None})
                diff = _rel_diff(a, b)
                if diff > entry["max_rel_diff"]:
                    entry.update(max_rel_diff=diff, at=key)
            elif a != b:
                cells.append({"experiment": key, "quantity": quantity,
                              "path": list(path), "parent": a, "current": b})
    return dict(sorted(largest.items())), cells


def _compare_outputs(parent_tree: Path) -> dict:
    """Whether every experiment of both trees has the same outputs, and how far they moved."""
    parent, current = _tree_outputs(parent_tree), _tree_outputs(ROOT)
    differing = sorted(k for k in parent.keys() | current.keys()
                       if k not in parent or k not in current
                       or _digest(parent[k]) != _digest(current[k]))
    largest, cells = _value_differences(parent, current)
    print(f"outputs: {len(current)} experiments, {len(differing)} differ, "
          f"{len(cells)} non-numeric cells differ", file=sys.stderr)
    return {"seeds": list(OUTPUT_SEEDS), "experiments": len(current),
            "outputs_equal": not differing, "differing": differing,
            "max_rel_diff": largest, "non_numeric_differences": cells}


def _extract_head(into: Path) -> str:
    """Unpack the committed tree of HEAD into ``into``; returns its commit hash."""
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _src_lines(tree: Path) -> int:
    """Newline count of the library modules under ``tree``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "discop").glob("*.py"))


def _compare(before: list, after: list, better: str) -> dict:
    """Parent and working-tree values per seed, their changes, the pairs the
    working tree wins and the parent's interquartile spread."""
    changes = [(a - b) / abs(b) if b else None for a, b in zip(after, before)]
    known = [c for c in changes if c is not None]
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(before, n=4)
    return {"parent": before, "current": after, "rel_change": changes,
            "median_rel_change": statistics.median(known) if known else None,
            "better": better, "pairs": len(before),
            "wins": sum(sign * (a - b) > 0 for a, b in zip(after, before)),
            "parent_iqr": q3 - q1}


def _pair_changes(parent_runs: list, runs: list) -> dict:
    """_compare for each end-to-end metric, in the direction BENCHMARK.json gives it."""
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    return {metric: _compare([r["metrics"][metric]["value"] for r in parent_runs],
                             [r["metrics"][metric]["value"] for r in runs], better[metric])
            for metric in runs[0]["metrics"]}


def _measure_configs(parent_tree: Path, seeds: list, scratch: Path):
    """Per bundled config: its end-to-end entry and its parent comparison."""
    configs, comparison = {}, {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        walls, codes = {ROOT: [], parent_tree: []}, {}
        for i in range(len(seeds)):
            order = [ROOT, parent_tree]
            for tree in order[::-1] if i % 2 else order:
                wall, codes[tree] = _run_config(tree, path, scratch / "out")
                walls[tree].append(wall)
        print(f"{path.stem}: median wall_s parent {statistics.median(walls[parent_tree]):.3f}, "
              f"working tree {statistics.median(walls[ROOT]):.3f}", file=sys.stderr)
        configs[path.stem] = {"exit_code": codes[ROOT], "wall_s": {
            "value": statistics.median(walls[ROOT]), "unit": "s", "per_seed": walls[ROOT]}}
        comparison[path.stem] = {"parent_exit_code": codes[parent_tree],
                                 "wall_s": _compare(walls[parent_tree], walls[ROOT], "lower")}
    return configs, comparison


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="snapshot number n of BENCH_<n>.json")
    parser.add_argument("--seeds", default=",".join(map(str, range(1, 11))),
                        help="comma-separated, at least three; one pair per seed")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 3:
        parser.error("--seeds needs at least three seeds for a median")

    env, workloads, comparison = None, {}, {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp, \
            tempfile.TemporaryDirectory(prefix="bench-reports-") as reports:
        parent_tree = Path(tmp)
        parent_commit = _extract_head(parent_tree)
        src_lines = {"head": _src_lines(parent_tree), "working_tree": _src_lines(ROOT)}
        for name in WORKLOADS:
            runs, parent_runs = [], []
            for i, seed in enumerate(seeds):
                order = [(ROOT, runs), (parent_tree, parent_runs)]
                for tree, into in order[::-1] if i % 2 else order:
                    env, result = _run(tree, name, seed, args.seconds, 0)
                    into.append(result)
                print(f"{name} seed {seed}: wall_s parent "
                      f"{parent_runs[-1]['metrics']['wall_s']['value']:.3f}, working tree "
                      f"{runs[-1]['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
            _, traced = _run(ROOT, name, seeds[0], args.seconds, 1)
            end_to_end = {}
            for metric, entry in runs[0]["metrics"].items():
                values = [r["metrics"][metric]["value"] for r in runs]
                end_to_end[metric] = {"value": statistics.median(values), "unit": entry["unit"],
                                      "per_seed": values}
            workloads[name] = {
                "correct": all(r["correct"] for r in runs) and traced["correct"],
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "end_to_end": end_to_end,
                "per_layer": traced["metrics"],
            }
            comparison[name] = {
                "parent_correct": all(r["correct"] for r in parent_runs),
                "parent_failed": [r["failed"] for r in parent_runs],
                "metrics": _pair_changes(parent_runs, runs),
            }
        configs, config_comparison = _measure_configs(parent_tree, seeds, Path(reports))
        outputs = _compare_outputs(parent_tree)

    snapshot = {
        "seeds": seeds,
        "seconds": args.seconds,
        "env": {key: env.get(key) for key in ENV_KEYS},
        "src_lines": src_lines,
        "outputs": outputs,
        "workloads": workloads,
        "configs": configs,
        "comparison": {"against": parent_commit, "order": "alternating per seed",
                       "workloads": comparison, "configs": config_comparison},
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
