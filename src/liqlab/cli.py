"""Command-line front end.

Usage::

    liqlab <experiment> [--config FILE] [--set key=value ...] [--seed N] [--out DIR]

``--seed`` is the base seed of ``fbm-gen``'s paths; the other experiments
draw no random numbers and take no seed.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(no bracket, a solver that stops before it converges, overflow, division
by zero), 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .errors import BracketError, ConfigError, DomainError, RatioMismatchError
from .experiments import EXPERIMENT_NAMES, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liqlab",
        description="Run a liqlab experiment and write CSV artifacts plus a manifest.")
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES,
                        help="experiment to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="one config-file line; overrides --config")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed of fbm-gen's paths (overrides the config file)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    config = {}
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8 text: {exc}") from None
        config = parse_config(text)
    config.update(parse_config("\n".join(args.overrides)))
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        outputs = run_experiment(args.experiment, config, out_dir=args.out)
    except ConfigError as exc:
        print(f"liqlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BracketError, DomainError, RatioMismatchError, ArithmeticError) as exc:
        print(f"liqlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"liqlab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    names = ", ".join(name for name, _, _ in outputs)
    print(f"{args.experiment}: wrote {names}, manifest.txt and run.json to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
