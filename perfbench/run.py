"""discop benchmark: one workload, one seed, one closed-loop run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: bound-chain, equivalence-fft, symbol-scan (see
README.md in this directory).  The run imports discop from ``src/``, times
its set-up, then repeats whole passes over the workload's experiments, one at
a time; the number of passes is sized so that the run lasts about
``--seconds`` on a 2-core x86-64 machine.  Every output is checked against a
reference.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Reports, the result and the trace spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"
#: fresh interpreters timed for set-up, besides this one; they run between
#: the passes, so that their median spans the run's changes of machine speed
SETUP_PROBES = 5
#: seconds one pass of each workload takes on a 2-core x86-64 machine (Xeon
#: at 2.1 GHz, Python 3.11, numpy 2.4, OpenBLAS), where it varies by about
#: +-25 % from minute to minute.  A run makes round(--seconds / PASS_SECONDS)
#: passes, so it lasts about --seconds there.  The count is fixed, not timed,
#: so that a run does the same work, and counts the same failures, however
#: fast the machine is at the moment.
PASS_SECONDS = {"bound-chain": 10.5, "equivalence-fft": 2.8, "symbol-scan": 2.2}
#: fewest measured passes of a run, so that the latency percentiles always
#: see the whole mix of a workload's experiments several times
MIN_PASSES = 3


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _probe_setup(workload, seed) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    """Hardware and software stamp, read-only from /proc, /sys and numpy."""
    import numpy
    import scipy

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type")
        caches[f"L{_read(index / 'level')}{kind[0].lower() if kind in ('Data', 'Instruction') else ''}"] = (
            _read(index / "size"))
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if any(t in k for t in ("THREAD", "OMP_", "BLAS", "MKL_"))
        },
    }


def _execute(exp, out_dir):
    # module attribute lookups, so that a traced pass goes through the wrappers
    from discop import config, harness, operators, quadrature, series

    if exp.lift is not None:
        degree, coeff, sigma, beta, settings = exp.lift
        f = series.TruncatedPowerSeries((0.0,) * degree + (coeff,))
        return operators.lift_norm_check(
            f, sigma, beta, settings=quadrature.QuadratureSettings(**settings))
    outcome = harness.run(config.parse_config(exp.config))
    harness.emit_reports(outcome, out_dir)
    return outcome


def _run_pass(experiments, out_dir):
    """Run every experiment once; returns (pass seconds, records).

    Each experiment writes its reports into an emptied directory, as a run
    of the CLI into a fresh ``out_dir`` does.  Rewriting the last
    experiment's files in place would make ext4 flush them to disk on every
    close, and the disk's latency would then swamp the timings.  The
    emptying is not timed; the pass time is the sum of the experiments'.
    """
    records = []
    for exp in experiments:
        for path in out_dir.iterdir():
            path.unlink()
        t0 = time.perf_counter()
        try:
            result, error = _execute(exp, out_dir), None
        except Exception as exc:  # a failed operation is counted; the loop goes on
            result, error = None, exc
        records.append((exp, time.perf_counter() - t0, result, error))
    return sum(latency for _, latency, _, _ in records), records


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Tally:
    """Latencies, failures and computed work of checked experiments."""

    def __init__(self, work):
        self.latencies = []
        self.attempted = self.failed = 0
        self.failures = {}
        self.work = work

    def add(self, checked):
        for latency, messages, work in checked:
            self.latencies.append(latency)
            self.attempted += 1
            self.failed += bool(messages)
            self.failures.update(dict.fromkeys(messages))
            self.work.add(work)


def _end_to_end(tally, walls, setup_samples):
    # rates are per median pass, so that one slow pass moves them no more
    # than it moves wall_s
    wall = statistics.median(walls)
    per_pass = len(tally.latencies) / len(walls)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "experiment_ms_p50": (_quantile(tally.latencies, 0.5) * 1e3, "ms"),
        "experiment_ms_p90": (_quantile(tally.latencies, 0.9) * 1e3, "ms"),
        "experiments_per_s": (per_pass / wall, "1/s"),
        "node_pairs_per_s": (tally.work.pairs / len(walls) / wall, "pairs/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }


#: per-layer metrics read from the traced spans: (function, summary key, unit);
#: the metric is named "<function>.<key>"
SPAN_METRICS = (
    ("operators.bound_check", "self_s", "s"),
    ("operators.lift_norm_check", "self_s", "s"),
    ("operators.rank_sufficiency_check", "s", "s"),
    ("numutil.powq", "calls", "count"),
    ("numutil.powq", "elements", "count"),
    ("norms.pairwise_difference_integral", "calls", "count"),
    ("norms.pairwise_difference_integral", "s", "s"),
    ("norms.pairwise_difference_integral", "node_pairs", "pairs"),
    ("norms.pairwise_difference_integral", "fft_size", "points"),
    ("quadrature.refine_until", "calls", "count"),
    ("quadrature.refine_until", "levels", "count"),
    ("quadrature.build_disc_rule", "calls", "count"),
    ("quadrature.build_disc_rule", "s", "s"),
    ("kernels.estimate_sup", "calls", "count"),
    ("kernels.estimate_sup", "s", "s"),
    ("kernels.estimate_sup", "zoom_steps", "count"),
    ("symbols.verify_self_map", "s", "s"),
    ("config.parse_config", "s", "s"),
    ("series.coefficients_of", "s", "s"),
    ("harness.run", "self_s", "s"),
    ("harness.emit_reports", "s", "s"),
    ("harness.emit_reports", "bytes", "bytes"),
)


def _per_layer(tr, traced_tally, traced, plain):
    n = len(traced)
    summary = tr.summary()

    def per_pass(name, key):
        return summary[name][key] / n if name in summary else 0.0

    op_pairs = per_pass("operators.bound_check", "node_pairs") + per_pass(
        "operators.lift_norm_check", "node_pairs")
    powq_ops = tr.powq_elements_under("operators") / n
    metrics = {f"{name}.{key}": (per_pass(name, key), unit) for name, key, unit in SPAN_METRICS}
    metrics.update({
        "operators.node_pairs": (op_pairs, "pairs"),
        "operators.powq_elements_per_node_pair": (powq_ops / op_pairs if op_pairs else 0.0, "elements/pair"),
        "kernels.estimate_sup.verdict_mismatches": (traced_tally.work.sup_mismatch / n, "count"),
        "trace.wall_s": (statistics.median(traced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
    })
    # self-check: the spans nest, and the traced counts agree with the work
    # computed from rule sizes and from the traces the program returned
    work = traced_tally.work
    expected = {
        "kernels.estimate_sup.calls": work.sup_calls,
        "kernels.estimate_sup.zoom_steps": work.zoom_steps,
        "quadrature.refine_until.levels": work.refine_levels,
        "norms.pairwise_difference_integral.calls": work.fft_calls,
        "norms.pairwise_difference_integral.node_pairs": work.fft_pairs,
        "operators.node_pairs": work.composed_pairs,
    }
    expected = {k: (metrics[k][0], total / n) for k, total in expected.items()}
    expected["operators.bound_check.nodes_checked_mismatches"] = (
        per_pass("operators.bound_check", "nodes_checked_mismatches"), 0)
    expected["trace.nesting_errors"] = (tr.nesting_errors(), 0)
    problems = [f"trace self-check: {k} traced {a!r} != computed {b!r}"
                for k, (a, b) in expected.items() if a != b]
    return metrics, problems


def main(argv=None) -> int:
    args = _args(argv)
    if not (workloads.SRC / "discop" / "__init__.py").is_file():
        print(f"error: no discop sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    experiments = workloads.build(args.workload, args.seed)
    start = time.perf_counter()
    run_configs = workloads.setup(experiments)
    setup_samples = [time.perf_counter() - start]

    import checks
    import tracer

    out_dir = OUT / args.workload
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    checker = checks.Checker(experiments, run_configs)
    tally = Tally(checks.Work())
    traced_tally = Tally(checks.Work())
    tr = tracer.Tracer()
    walls = {"warm-up": [], "plain": [], "traced": []}
    latencies = []
    passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    # --trace 1 starts with a warm-up pass that no metric uses, then
    # alternates traced and plain passes; the difference of their medians
    # is the tracing overhead
    kinds = ["plain"] * passes if not args.trace else ["warm-up"] + [
        ("traced", "plain")[i % 2] for i in range(max(2, passes))]
    # pass k is preceded by the probes i with i * passes // SETUP_PROBES == k
    probe_at = [] if args.trace else [i * passes // SETUP_PROBES for i in range(SETUP_PROBES)]
    for k, kind in enumerate(kinds):
        setup_samples += [_probe_setup(args.workload, args.seed) for _ in range(probe_at.count(k))]
        if kind == "traced":
            tr.install()
        try:
            wall, records = _run_pass(experiments, reports_dir)
        finally:
            tr.uninstall()
        walls[kind].append(wall)
        latencies.append((kind, [latency for _, latency, _, _ in records]))
        checked = [(latency, *checker.check(exp, result, error))
                   for exp, latency, result, error in records]
        tally.add(checked)
        if kind == "traced":
            traced_tally.add(checked)
    plain, traced = walls["plain"], walls["traced"]

    unchecked = checker.unchecked
    problems = [f"{unchecked} outputs could not be checked"] if unchecked else []
    if args.trace:
        metrics, trace_problems = _per_layer(tr, traced_tally, traced, plain)
        problems += trace_problems
        with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": tr.spans}, fh)
    else:
        metrics = _end_to_end(tally, plain, setup_samples)

    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: passes of {len(experiments)} experiments "
          f"{ {k: len(v) for k, v in walls.items()} }; {len(tally.latencies)} latency samples")
    for message in list(tally.failures)[:40]:
        print(f"FAIL {message}")
    if len(tally.failures) > 40:
        print(f"... {len(tally.failures) - 40} more distinct failures")
    for message in problems:
        print(message)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(out_dir / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "seed": args.seed, "failures": list(tally.failures),
                   "setup_samples_s": setup_samples,
                   "experiments": [e.name for e in experiments], "latencies_s": latencies,
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
