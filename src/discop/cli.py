"""Command-line entry point.

Usage:  discop <command> --config <path> [--out <dir>] [--refine <k>] [--seed <n>]

Commands: norm, kernel-sup, rank-check, equivalence, bound-check,
selfmap-check.  The config file is a single JSON object (see config module);
--refine pre-refines the quadrature resolution by k factor steps and --seed
reseeds the random interior sampling only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import COMMANDS, apply_overrides, parse_config
from .errors import ConfigError, ParamError
from .harness import emit_reports, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discop",
        description="Disc/bidisc norm computations and composition-operator checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output directory for reports")
        cmd.add_argument(
            "--refine", type=int, default=0,
            help="pre-refine quadrature resolution by this many factor steps",
        )
        cmd.add_argument(
            "--seed", type=int, default=None,
            help="seed for the random interior sampling",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error [E_CONFIG]: cannot read config: {exc}", file=sys.stderr)
        return 4
    # run() turns numerical and symbol failures into report rows and exit
    # codes; configuration and parameter errors end the run here
    try:
        config = parse_config(text, command=args.command)
        config = apply_overrides(config, out_dir=args.out, refine=args.refine, seed=args.seed)
        outcome = run(config)
    except (ConfigError, ParamError) as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 4

    out_dir = config.out_dir or "reports"
    try:
        paths = emit_reports(outcome, out_dir)
    except OSError as exc:
        print(f"error [E_IO]: cannot write reports to {out_dir}: {exc}", file=sys.stderr)
        return 4
    for row in outcome.rows:
        print(
            f"{row.experiment} | {row.input} | {row.quantity} = {row.value} "
            f"[{row.method}] -> {row.verdict}"
        )
    print(f"reports written to {paths['csv'].parent}")
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
