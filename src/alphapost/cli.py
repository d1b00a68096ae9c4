"""Command line entry point: ``alphapost <experiment> --config <path> [options]``.

Exit status: 0 on success, 2 on configuration errors (the message names the
offending field), 3 on numerical failure, running out of memory included.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, run_and_write

EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphapost",
        description="Run a named, seeded experiment and write CSV + JSON outputs.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, help="path to a flat key = value config file")
        sp.add_argument("--seed", type=int, default=None, help="override the master seed")
        sp.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        csv_path, json_path = run_and_write(cfg, args.experiment)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError, ValueError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
