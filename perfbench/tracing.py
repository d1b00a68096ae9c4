"""In-process tracing of alphapost's layers, and the ``-X importtime`` parser.

:class:`Tracer` replaces each public function in :data:`TARGETS` by a wrapper
that records a span, and rebinds that name in every ``alphapost`` module that
imported it (``robustness`` and ``experiments`` both bind ``kl_gaussian``,
the package re-exports nearly everything).  Leaving the ``with`` block puts
every original back.  Spans stay in memory as
``[name, start, end, parent, invocation, ok, counts]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``invocation`` the experiment
run the span belongs to, and ``counts`` the work the call did, where a
counter is defined for it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

# (layer, metric name, attribute path inside ``alphapost.<layer>``)
TARGETS = (
    ("gaussians", "GaussianDist", "GaussianDist.__post_init__"),
    ("gaussians", "kl_gaussian", "kl_gaussian"),
    ("gaussians", "hellinger_sq_gaussian", "hellinger_sq_gaussian"),
    ("gaussians", "log_density", "log_density"),
    ("gaussians", "kl_grid", "kl_grid"),
    ("gaussians", "tv_grid", "tv_grid"),
    ("gaussians", "GridDensity.log_pdf_and_grad_at", "GridDensity.log_pdf_and_grad_at"),
    ("gaussians", "GridDensity.from_log_unnormalized", "GridDensity.from_log_unnormalized"),
    ("gaussians", "tv_gaussian", "tv_gaussian"),
    ("posteriors", "conjugate_alpha_posterior", "conjugate_alpha_posterior"),
    ("posteriors", "gaussian_bvm_limit", "gaussian_bvm_limit"),
    ("posteriors", "grid_alpha_posterior", "grid_alpha_posterior"),
    ("meanfield", "gmf_project_numeric", "gmf_project_numeric"),
    ("robustness", "r_star", "r_star"),
    ("robustness", "exact_expected_kl", "exact_expected_kl"),
    ("robustness", "optimal_alpha", "optimal_alpha"),
    ("regression", "simulate", "simulate"),
    ("regression", "ols", "ols"),
    ("regression", "true_posterior_theta", "true_posterior_theta"),
    ("regression", "variational_conjugate_cov", "variational_conjugate_cov"),
    ("regression", "assumption2_terms", "assumption2_terms"),
    ("regression", "lan_residual_sup", "lan_residual_sup"),
    ("experiments", "run_experiment", "run_experiment"),
    ("experiments", "write_outputs", "write_outputs"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

# Modules timed from one ``python -X importtime -c "import alphapost.cli"``.
IMPORT_METRICS = {
    "cli.import_s": "alphapost.cli",
    "cli.import.scipy_stats_s": "scipy.stats",
    "cli.import.scipy_interpolate_s": "scipy.interpolate",
    "cli.import.scipy_optimize_s": "scipy.optimize",
}

NAME, START, END, PARENT, INVOCATION, OK, COUNTS = range(7)


def _tv_gaussian_counts(bound: inspect.BoundArguments, result) -> dict:
    # Nodes of the tensor quadrature, and the float64 bytes it must at least
    # compute: the (nodes, p) point array, two density vectors and the weights.
    args = bound.arguments
    dim = args["p"].dim
    nodes = args["budget"] ** dim if args["method"] == "quadrature" else args["budget"]
    return {"nodes": nodes, "bytes_computed": 8 * nodes * (dim + 3)}


def _grid_posterior_counts(bound: inspect.BoundArguments, result) -> dict:
    return {"nodes": int(result.log_weights.size)}


def _write_outputs_counts(bound: inspect.BoundArguments, result) -> dict:
    return {"bytes": sum(Path(path).stat().st_size for path in result)}


COUNTERS = {
    "gaussians.tv_gaussian": _tv_gaussian_counts,
    "posteriors.grid_alpha_posterior": _grid_posterior_counts,
    "experiments.write_outputs": _write_outputs_counts,
}


# Counts beyond calls and self time, per target.
EXTRA_STATS = {
    "gaussians.tv_gaussian": (("nodes", "count"), ("bytes_computed", "bytes")),
    "posteriors.grid_alpha_posterior": (("nodes", "count"),),
    "meanfield.gmf_project_numeric": (("grad_evals", "count"), ("failed", "count")),
    "experiments.write_outputs": (("bytes", "bytes"),),
}


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for layer in LAYERS:
        for target_layer, name, _ in TARGETS:
            if target_layer == layer:
                key = f"{layer}.{name}"
                names += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
                names += [(f"{key}.{stat}", unit) for stat, unit in EXTRA_STATS.get(key, ())]
        names.append((f"{layer}.self_s", "s"))
    names += [(name, "s") for name in IMPORT_METRICS]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


class Tracer:
    """Context manager that traces :data:`TARGETS` in the loaded ``alphapost`` modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(key)
        signature = inspect.signature(func) if counter else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [key, clock(), 0.0, stack[-1] if stack else -1, self.invocation, True, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[OK] = False
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[COUNTS] = counter(bound, result)
            return result

        return traced

    def _set(self, owner, attr: str, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items() if name == "alphapost" or name.startswith("alphapost.")]
        for layer, name, path in TARGETS:
            owner = sys.modules[f"alphapost.{layer}"]
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            key = f"{layer}.{name}"
            if classes:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(key, raw.__func__)))
                else:
                    self._set(owner, attr, self._wrap(key, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original)
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, bound_name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Calls, self time and counts per target, and self time per layer.

        The experiments run on one thread, so a span's children never overlap
        and its self time is its duration minus theirs.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out = {name: 0 for name, _ in per_layer_metric_names() if not name.startswith(("cli.", "trace."))}
        for i, span in enumerate(self.spans):
            key = span[NAME]
            layer = key.split(".", 1)[0]
            self_s = span[END] - span[START] - child_time[i]
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            for stat, value in (span[COUNTS] or {}).items():
                out[f"{key}.{stat}"] += value
            if key == "meanfield.gmf_project_numeric" and not span[OK]:
                out["meanfield.gmf_project_numeric.failed"] += 1
            if key == "gaussians.GridDensity.log_pdf_and_grad_at" and self._under(i, "meanfield.gmf_project_numeric"):
                out["meanfield.gmf_project_numeric.grad_evals"] += 1
        return out

    def _under(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, path: Path) -> None:
        """Write the spans as CSV: index, name, start, end, parent, invocation, ok, counts."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,invocation,ok,counts\n")
            for i, (name, start, end, parent, invocation, ok, counts) in enumerate(self.spans):
                extra = ";".join(f"{k}={v}" for k, v in (counts or {}).items())
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{invocation},{int(ok)},{extra}\n")


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime`` stderr.

    Lines read ``import time: <self us> | <cumulative us> | <indented module>``;
    a module appears once, at its first import.
    """
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    return {metric: cumulative.get(module, 0.0) for metric, module in IMPORT_METRICS.items()}
