"""Command-line front end.

Usage::

    liqlab <experiment> [--config FILE] [--set key=value ...] [--seed N] [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(bracketing/optimizer), 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import infer_literal, parse_config
from .errors import (BracketError, ConfigError, DomainError,
                     RatioMismatchError, StageOrderError)
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
                        metavar="KEY=VALUE", help="override one config value")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (overrides the config file)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    config = {}
    if args.config is not None:
        config = parse_config(args.config.read_text())
    seen = set()
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        if key in seen:
            raise ConfigError(f"duplicate --set key {key!r}")
        seen.add(key)
        config[key] = infer_literal(raw)
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        manifest = run_experiment(args.experiment, config, out_dir=args.out)
    except ConfigError as exc:
        print(f"liqlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BracketError, DomainError, RatioMismatchError, StageOrderError,
            FloatingPointError) as exc:
        print(f"liqlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"liqlab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    names = ", ".join(name for name, _, _ in manifest.outputs)
    print(f"{args.experiment}: wrote {names}, manifest.txt and run.json to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
