#!/usr/bin/env python3
"""The alphapost benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It writes the workload's configs (made
from ``--seed``, see ``workloads.py``) and its outputs under
``.perfbench-work/<workload>/``, checks every output (``checks.py``), prints
its metrics one per line with their units, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  It exits 2
without a result when the program's sources are missing, 1 when an output is
wrong and 0 otherwise.

``--trace 0`` gives the end-to-end metrics.  The workload's invocations run
as sequential ``python -m alphapost`` subprocesses, round robin: one full
round, then more launches while the next one would end within ``--seconds``.
Each invocation's figures are the smallest over its launches, and a metric
sums them over the invocations, so it describes one pass of the workload.
The smallest, not the median: on a shared machine other work only ever adds
time, and it comes and goes within seconds, so that one launch can take half
as long again as the next; the fastest of several launches is the figure
that repeats from run to run.


* ``wall_s`` -- wall time of the invocations' child processes;
* ``rows_per_s`` -- CSV data rows written per wall second;
* ``compute_s`` -- the sum of the sidecars' ``elapsed_seconds``;
* ``cpu_s`` -- user plus system CPU time of the children;
* ``peak_rss_mb`` -- the largest peak RSS of any one invocation.

Wall, CPU and RSS come from ``os.wait4`` on each child, never from
``RUSAGE_CHILDREN``, whose ``ru_maxrss`` is a maximum over every child so
far.  Every launch's figures are written to ``launches.csv``.
``setup_s`` is the median wall time of ``SETUP_LAUNCHES`` launches of
``python -c "import alphapost.cli"``, spread evenly over the run so that
they meet the same machine as the invocations do.
``error_rate`` (failed over attempted launches) is printed too; the result
line carries it as ``failed`` and ``attempted``.

The benchmark and its children run with one BLAS thread
(``BLAS_THREAD_VARIABLES``): on a two-core machine OpenBLAS's second thread
spins on the core the benchmark shares with everything else, which made
``cpu_s`` exceed ``wall_s`` and both of them unsteady.

``--trace 1`` gives the per-layer metrics of ``tracing.py`` from an in-process
run: after one untraced warm-up pass, each pass runs the workload untraced
and then traced, and
``trace.overhead_ratio`` is traced over untraced ``compute_s``.  The spans of
the last traced pass are written to ``spans.csv``.  The ``cli.import*``
metrics come from ``python -X importtime``.

At ``--seed 0`` the outputs must also match ``reference/<workload>/``;
``--update-reference`` rewrites those files from one pass at seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = Path(__file__).resolve().parent / "reference"
if not __package__:
    sys.path.insert(0, str(ROOT))

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy is first imported, here or in a child.
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"

from perfbench.checks import check_output, write_reference  # noqa: E402
from perfbench.tracing import Tracer, parse_importtime, per_layer_metric_names  # noqa: E402
from perfbench.workloads import WORKLOADS, config_text  # noqa: E402

DEFAULT_SEED = 0
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "compute_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
IMPORT_CLI = [sys.executable, "-c", "import alphapost.cli"]


class Child(NamedTuple):
    """A finished child process, measured by ``os.wait4``."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str

    def problems(self) -> list[str]:
        return [f"exit code {self.code}: {self.stderr.strip()[-500:]}"] if self.code else []


class Run:
    """The workload's invocations, where their files go, and the tally of launches."""

    def __init__(self, workload: str, seed: int, reference: bool):
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.out = self.work / "out"
        self.out.mkdir(parents=True)
        self.invocations = []
        for inv in WORKLOADS[workload](seed):
            path = self.work / f"{inv.name}.cfg"
            path.write_text(config_text(inv.config))
            (self.out / inv.name).mkdir()
            ref = REFERENCE / workload / f"{inv.name}.csv.gz" if reference else None
            self.invocations.append((inv, path, ref))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0

    def output(self, inv, suffix: str) -> Path:
        return self.out / inv.name / f"{inv.experiment}{suffix}"

    def argv(self, inv, config: Path) -> list[str]:
        return ["-m", "alphapost", inv.experiment, "--config", str(config), "--out", str(self.out / inv.name)]

    def launch(self, argv: list[str]) -> Child:
        """Run one child to its end."""
        log = self.work / "stderr.log"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, log.read_text())

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {label}: {problem}", file=sys.stderr)

    def check(self, inv, ref) -> tuple[int, float, list[str]]:
        """Rows, sidecar ``elapsed_seconds`` and problems of one finished invocation."""
        rows, problems = check_output(inv.experiment, inv.config, self.output(inv, ".csv"), ref)
        try:
            elapsed = float(json.loads(self.output(inv, ".json").read_text())["elapsed_seconds"])
        except (OSError, ValueError, KeyError) as err:
            return rows, 0.0, problems + [f"sidecar: {err}"]
        return rows, elapsed, problems

    def clear(self, inv) -> None:
        for suffix in (".csv", ".json"):
            self.output(inv, suffix).unlink(missing_ok=True)


class Sample(NamedTuple):
    """One timed launch of one invocation."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    compute_s: float
    rows: int


def timed_launch(run: Run, index: int) -> Sample:
    inv, config, ref = run.invocations[index]
    run.clear(inv)
    child = run.launch([sys.executable, *run.argv(inv, config)])
    rows, elapsed, problems = run.check(inv, ref) if child.code == 0 else (0, 0.0, child.problems())
    run.record(inv.name, problems)
    return Sample(child.wall_s, child.cpu_s, child.peak_rss_mb, elapsed, rows)


def setup_launch(run: Run) -> float:
    """Wall time of one ``IMPORT_CLI`` launch."""
    child = run.launch(IMPORT_CLI)
    run.record("import alphapost.cli", child.problems())
    return child.wall_s


def timed_samples(run: Run, seconds: float) -> tuple[list[list[Sample]], list[float]]:
    """Launch the invocations round robin: one full round, then more while the next would end within ``seconds``.

    ``SETUP_LAUNCHES`` set-up launches go in between, one every
    ``seconds / SETUP_LAUNCHES`` of invocation time, and the rest at the end;
    their own time is not counted against ``seconds``.  Returns each
    invocation's samples and the set-up launches' wall times.
    """
    samples: list[list[Sample]] = [[] for _ in run.invocations]
    setup: list[float] = []
    start = time.perf_counter()
    for i in itertools.count():
        k = i % len(samples)
        elapsed = time.perf_counter() - start - sum(setup)
        if samples[k] and elapsed + samples[k][-1].wall_s > seconds:
            break
        if len(setup) < SETUP_LAUNCHES and elapsed >= len(setup) * seconds / SETUP_LAUNCHES:
            setup.append(setup_launch(run))
        samples[k].append(timed_launch(run, k))
    setup += [setup_launch(run) for _ in range(SETUP_LAUNCHES - len(setup))]
    return samples, setup


def repeat(seconds: float, one_pass) -> list:
    """Run ``one_pass`` once, then again while one more would end within ``seconds``."""
    results = []
    start = last = time.perf_counter()
    while True:
        results.append(one_pass())
        now = time.perf_counter()
        if now - start + (now - last) > seconds:
            return results
        last = now


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    samples, setup = timed_samples(run, seconds)
    with open(run.work / "launches.csv", "w") as fh:
        fh.write("invocation,launch," + ",".join(Sample._fields) + "\n")
        for (inv, _, _), launches in zip(run.invocations, samples):
            for i, launch in enumerate(launches):
                fh.write(f"{inv.name},{i}," + ",".join(map(repr, launch)) + "\n")
    bests = []
    for (inv, _, _), launches in zip(run.invocations, samples):
        best = Sample(*(min(column) for column in zip(*launches)))
        figures = ", ".join(f"{k} {v:.6g}" for k, v in best._asdict().items())
        print(f"{inv.name}: {len(launches)} launch(es), smallest {figures}")
        bests.append(best)
    print("set-up launches: " + ", ".join(f"{wall:.4g}" for wall in setup))
    metrics = {name: sum(getattr(b, name) for b in bests) for name in ("wall_s", "compute_s", "cpu_s")}
    metrics["rows_per_s"] = sum(b.rows for b in bests) / metrics["wall_s"]
    metrics["peak_rss_mb"] = max(b.peak_rss_mb for b in bests)
    metrics["setup_s"] = statistics.median(setup)
    return metrics


def in_process_pass(run: Run, cli, tracer: Tracer | None) -> float:
    """Run the workload inside this process; returns the summed ``elapsed_seconds``."""
    compute_s = 0.0
    for i, (inv, config, ref) in enumerate(run.invocations):
        run.clear(inv)
        if tracer is not None:
            tracer.invocation = i
        code = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(run.argv(inv, config)[2:])
        except Exception:  # one failed invocation; the run goes on
            traceback.print_exc()
        if code == 0:
            _, elapsed, problems = run.check(inv, ref)
        else:
            elapsed, problems = 0.0, [f"in-process exit code {code}" if code is not None else "in-process run raised"]
        run.record(f"{inv.name} (in process)", problems)
        compute_s += elapsed
    return compute_s


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    imports = []
    for _ in range(IMPORTTIME_LAUNCHES):
        child = run.launch([sys.executable, "-X", "importtime", *IMPORT_CLI[1:]])
        run.record("import alphapost.cli -X importtime", [f"exit code {child.code}"] if child.code else [])
        imports.append(parse_importtime(child.stderr))
    sys.path.insert(0, str(SRC))
    import alphapost.cli as cli

    def pair() -> tuple[Tracer, dict[str, float]]:
        untraced = in_process_pass(run, cli, None)
        with Tracer() as tracer:
            traced = in_process_pass(run, cli, tracer)
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = traced / untraced if untraced > 0 else 0.0
        return tracer, metrics

    in_process_pass(run, cli, None)  # warm-up: first calls into scipy and numpy set up lazily
    pairs = repeat(seconds, pair)
    pairs[-1][0].write(run.work / "spans.csv")
    passes = [metrics for _, metrics in pairs]
    print(f"{len(passes)} untraced + traced pass pair(s); spans in {run.work / 'spans.csv'}")
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    for name in imports[0]:
        metrics[name] = statistics.median(i[name] for i in imports)
    return metrics


def _openblas() -> tuple[str | None, int | None]:
    """OpenBLAS build string and thread count, asked of the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_config().decode().strip(), get_threads()
    return None, None


def environment() -> dict:
    import numpy
    import scipy

    revision = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        revision = git.stdout.strip() or None
    openblas, threads = _openblas()
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "openblas": openblas,
        "openblas_threads": threads,
        "loadavg": list(os.getloadavg()),
    }


def update_reference(workload: str) -> int:
    run = Run(workload, DEFAULT_SEED, reference=False)
    for index in range(len(run.invocations)):
        timed_launch(run, index)
    if run.failed:
        return 1
    for inv, _, _ in run.invocations:
        target = REFERENCE / workload / f"{inv.name}.csv.gz"
        write_reference(run.output(inv, ".csv"), target)
        print(f"wrote {target}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true", help=f"rewrite the reference CSVs at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps the child it is waiting for (``Run.launch``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "alphapost" / "__init__.py").is_file():
        print(f"alphapost sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.update_reference:
        return update_reference(args.workload)

    run = Run(args.workload, args.seed, reference=args.seed == DEFAULT_SEED)
    env = environment()
    (run.work / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(env))
    if args.trace:
        values = per_layer(run, args.seconds)
        units = dict(per_layer_metric_names())
    else:
        values = end_to_end(run, args.seconds)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_rate':<48} {run.failed / run.attempted:>16.6g} ratio")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
