"""Command-line entry point.

Usage:  discop <command> --config <path> [--out <dir>]

Commands: norm, kernel-sup, rank-check, equivalence, bound-check,
selfmap-check.  The config file is a single JSON object (see config module)
and sets every input of the run; --out overrides its out_dir.  A malformed
command line exits 4 with an E_CONFIG error naming the argument, as a
malformed config does (argparse's own exit code 2 would read as a negative
verdict).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import COMMANDS, parse_config
from .errors import ConfigError, ParamError
from .harness import emit_reports, run


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors raised as ConfigError instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="discop",
        description="Disc/bidisc norm computations and composition-operator checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output directory for reports")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 4
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error [E_CONFIG]: cannot read config: {exc}", file=sys.stderr)
        return 4
    # run() turns numerical and symbol failures into report rows and exit
    # codes; configuration and parameter errors end the run here
    try:
        config = parse_config(text, command=args.command)
        if args.out is not None:
            config = replace(config, out_dir=args.out)
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
