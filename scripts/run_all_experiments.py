#!/usr/bin/env python3
"""Run every bundled experiment config through the discop CLI and check the exit codes.

Each config runs as ``discop <command> --config <path> --out <dir>``, with
<dir> the config's out_dir (reports/<config-name>/ when it has none) under the
repository root.  The constant-symbol kernel run is expected to exit 2
(Unbounded verdict); everything else should exit 0.
"""

import json
import sys
from pathlib import Path

from discop.cli import main as discop

EXPECTED_EXIT = {"kernel_sup_constant": 2}


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    failures = []
    for path in sorted((root / "configs").glob("*.json")):
        spec = json.loads(path.read_text())
        out_dir = root / (spec.get("out_dir") or f"reports/{path.stem}")
        code = discop([spec["command"], "--config", str(path), "--out", str(out_dir)])
        expected = EXPECTED_EXIT.get(path.stem, 0)
        status = "ok" if code == expected else "UNEXPECTED"
        if status != "ok":
            failures.append(path.stem)
        print(f"{path.stem}: exit {code} (expected {expected}) -> {out_dir} [{status}]")
    if failures:
        print(f"unexpected exits: {failures}", file=sys.stderr)
        return 1
    print("all experiments completed with expected exit codes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
