#!/usr/bin/env python3
"""Write a benchmark snapshot, BENCH_<n>.json, for this checkout.

Usage (from anywhere; n numbers the snapshot):

    python3 scripts/bench_snapshot.py <n> [--seeds 1,2,3] [--seconds 30]

Runs ``perfbench/run.py`` on every workload: once per seed with
``--trace 0`` (end-to-end metrics) and once, on the first seed, with
``--trace 1`` (per-layer metrics).  The snapshot holds the median of each
end-to-end metric over the seeds with the per-seed values, the per-layer
metrics, the pass/fail counts, the machine and library stamp from
perfbench's ``env`` line, and the relative change of every median against
the newest earlier ``BENCH_<m>.json`` (m < n), or null when there is none.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

ENV_KEYS = ("nproc", "affinity_cpus", "cpu_model", "python", "numpy", "scipy", "blas")


def _run(workload: str, seed: int, seconds: int, trace: int):
    """One perfbench run: its env stamp and its result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def _previous(number: int):
    """The newest earlier snapshot as (path, data), or None."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) < number:
            found.append((int(match.group(1)), path))
    if not found:
        return None
    path = max(found)[1]
    return path, json.loads(path.read_text())


def _compare(workloads: dict, previous):
    if previous is None:
        return None
    path, old = previous
    changes = {}
    for name, now in workloads.items():
        before = old["workloads"].get(name, {})
        for section in ("end_to_end", "per_layer"):
            for metric, entry in now[section].items():
                was = before.get(section, {}).get(metric)
                if was is None:
                    continue
                value, old_value = entry["value"], was["value"]
                change = (value - old_value) / abs(old_value) if old_value else None
                changes.setdefault(name, {})[metric] = {
                    "previous": old_value, "current": value, "rel_change": change}
    return {"against": path.name, "metrics": changes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="snapshot number n of BENCH_<n>.json")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated, at least three")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 3:
        parser.error("--seeds needs at least three seeds for a median")

    env, workloads = None, {}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            env, result = _run(name, seed, args.seconds, 0)
            runs.append(result)
            print(f"{name} seed {seed}: wall_s {result['metrics']['wall_s']['value']:.3f}",
                  file=sys.stderr)
        _, traced = _run(name, seeds[0], args.seconds, 1)
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

    snapshot = {
        "seeds": seeds,
        "seconds": args.seconds,
        "env": {key: env.get(key) for key in ENV_KEYS},
        "workloads": workloads,
        "comparison": _compare(workloads, _previous(args.number)),
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
