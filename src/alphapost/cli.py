"""Command line entry point: ``alphapost <experiment> --config <path> [options]``.

One parser reads the command line: its first positional argument names the
experiment, one of :data:`~alphapost.experiments.EXPERIMENTS`, and
``--config`` (required), ``--seed`` and ``--out`` may come before or after
it.  ``alphapost --help`` lists the experiments; an unknown one is an
``invalid choice`` and, like any other usage error, exits with status 2.

Exit status: 0 on success, 2 on configuration errors (the message names the
offending field), 3 on numerical failure, running out of memory included.

:func:`main` returns the exit status, for callers in the same process.
:func:`run` is the entry point of ``python -m alphapost`` and the
``alphapost`` script: it calls :func:`main`, flushes stdout and stderr and
ends the process with ``os._exit``, skipping the interpreter's teardown,
which does no work the run needs once ``main`` has closed and renamed its
outputs into place.  It exits through ``sys.exit`` instead where something
reports at exit (a tracer, a profiler or, on Python 3.12+, a
``sys.monitoring`` tool) or where the flush fails.  The ``wrote`` line on
stdout is best effort: a reader that has gone away does not change the exit
status.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

import numpy as np

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, run_and_write

EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphapost",
        description="Run a named, seeded experiment and write CSV + JSON outputs.",
        epilog="experiments:\n  " + "\n  ".join(EXPERIMENTS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, metavar="experiment", help="the experiment to run")
    parser.add_argument("--config", required=True, help="path to a flat key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def _report(line: str) -> None:
    # Print to stdout, best effort.  Where the reader has gone (a closed
    # pipe), point stdout's descriptor at the null device, so that what the
    # stream still holds is dropped by its next flush, the one at exit
    # included, instead of failing again: the recipe of the signal module's
    # notes on SIGPIPE.
    try:
        print(line, flush=True)
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
    _report(f"wrote {csv_path} and {json_path}")
    return 0


def _observed() -> bool:
    # Whether something installed in this process reports at exit: a tracer
    # (coverage, a debugger), a profiler (cProfile prints its table once the
    # program's SystemExit reaches it) or a sys.monitoring tool (3.12+).
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))


def run() -> NoReturn:
    """Run :func:`main` on the command line's arguments and end the process with its status.

    Once ``main`` returns, every output is closed and renamed into place and
    every draw thread has joined, so the process ends by ``os._exit`` after
    flushing stdout and stderr, as the standard library's fork children do.
    It ends by ``sys.exit`` instead where something reports at exit
    (:func:`_observed`) or where the flush raises ``OSError``.  An exception that escapes ``main`` ends the process
    the usual way, with a traceback and status 1.
    """
    code = main()
    if _observed():
        sys.exit(code)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
