"""Output checks for one CLI invocation.

An invocation fails when its CSV has the wrong header or row count, holds a
non-finite value, breaks a divergence invariant, reports an
``alpha_star_limit`` other than ``p / (p + eps d'Vd)`` recomputed here from
the config, or -- where a reference file is given -- differs from the
reference beyond ``ATOL + RTOL * |reference|``.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from pathlib import Path

import numpy as np

SCHEMAS = {
    "bvm-convergence": ["n", "rep", "alpha", "tv", "kl"],
    "vbvm-convergence": ["n", "rep", "alpha", "kl"],
    "robustness-curve": ["alpha", "r_star", "r_tilde_star", "r_exact"],
    "optimal-alpha": ["alpha_star_limit", "alpha_tilde_star_limit", "alpha_star_n", "alpha_tilde_star_n"],
    "failure-case": ["n", "h2_failure", "h2_control"],
    "assumption-checks": ["n", "rep", "lan_sup", "prior_term", "lan_term", "markov_bound", "kl_limit"],
    "surrogate-fidelity": ["n", "rep", "alpha", "r_exact", "r_star", "abs_diff"],
}

# Divergences, expected KLs and bounds that cannot be negative.
NONNEGATIVE = {
    "bvm-convergence": ("kl",),
    "vbvm-convergence": ("kl",),
    "robustness-curve": ("r_star", "r_tilde_star", "r_exact"),
    "assumption-checks": ("lan_sup", "markov_bound", "kl_limit"),
    "surrogate-fidelity": ("r_exact", "r_star", "abs_diff"),
}
UNIT_INTERVAL = {
    "bvm-convergence": ("tv",),
    "failure-case": ("h2_failure", "h2_control"),
}

# Quadrature TV is accurate to about 1e-6, so Pinsker gets that much slack.
PINSKER_SLACK = 1e-6
ALPHA_STAR_RTOL = 1e-9
# Reference tolerance: loose enough for the ~1e-6 gaps an exact TV or a
# batched kernel may introduce, tight enough to catch a wrong formula.
ATOL = 5e-6
RTOL = 1e-6
REFERENCE_DIGITS = 10


def expected_rows(experiment: str, config: dict) -> int:
    cells = len(config["n_grid"]) * config["replications"]
    return {
        "bvm-convergence": cells * len(config["alphas"]),
        "vbvm-convergence": cells * len(config["alphas"]),
        "surrogate-fidelity": cells * len(config["alphas"]),
        "assumption-checks": cells,
        "robustness-curve": len(config["alphas"]),
        "optimal-alpha": 1,
        "failure-case": len(config["n_grid"]),
    }[experiment]


def limit_alpha_star(config: dict) -> float:
    """``p / (p + eps d'Vd)`` for the omitted-variable regression, from the config alone."""
    theta0 = np.array(config["theta0"], dtype=float)
    gamma0 = np.array(config["gamma0"], dtype=float)
    p, d = theta0.size, gamma0.size
    cov_ww = np.array(config["cov_ww"], dtype=float).reshape(p, p)
    cov_wz = np.array(config["cov_wz"], dtype=float).reshape(p, d)
    cov_zz = np.array(config["cov_zz"], dtype=float).reshape(d, d)
    gap = -np.linalg.solve(cov_ww, cov_wz @ gamma0)
    resid = cov_zz - cov_wz.T @ np.linalg.solve(cov_ww, cov_wz)
    sigma_u2 = config["sigma_eps"] ** 2 + gamma0 @ resid @ gamma0
    curvature = cov_ww / sigma_u2
    return p / (p + config["eps"] * float(gap @ curvature @ gap))


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def _row_problem(experiment: str, row: dict, config: dict) -> str | None:
    for col in NONNEGATIVE.get(experiment, ()):
        if row[col] < 0.0:
            return f"{col} = {row[col]!r} is negative"
    for col in UNIT_INTERVAL.get(experiment, ()):
        if not 0.0 <= row[col] <= 1.0:
            return f"{col} = {row[col]!r} is outside [0, 1]"
    if experiment == "bvm-convergence" and row["tv"] > math.sqrt(row["kl"] / 2.0) + PINSKER_SLACK:
        return f"tv = {row['tv']!r} breaks Pinsker against kl = {row['kl']!r}"
    if experiment == "surrogate-fidelity" and row["abs_diff"] != abs(row["r_exact"] - row["r_star"]):
        return f"abs_diff = {row['abs_diff']!r} is not |r_exact - r_star|"
    if experiment == "optimal-alpha":
        want = limit_alpha_star(config)
        if abs(row["alpha_star_limit"] - want) > ALPHA_STAR_RTOL * want:
            return f"alpha_star_limit = {row['alpha_star_limit']!r}, expected {want!r}"
    return None


def compare_reference(header: list[str], body: list[list[float]], reference: Path) -> str | None:
    ref_header, ref_body = read_table(reference)
    if ref_header != header or len(ref_body) != len(body):
        return f"shape differs from {reference.name}"
    for i, (row, ref_row) in enumerate(zip(body, ref_body)):
        for col, value, ref_text in zip(header, row, ref_row):
            ref = float(ref_text)
            if abs(value - ref) > ATOL + RTOL * abs(ref):
                return f"row {i} {col} = {value!r} differs from reference {ref!r}"
    return None


def check_output(experiment: str, config: dict, csv_path: Path, reference: Path | None = None) -> tuple[int, list[str]]:
    """Check one experiment's CSV; returns its data-row count and the problems found."""
    if not csv_path.is_file():
        return 0, [f"{csv_path.name} was not written"]
    header, rows = read_table(csv_path)
    if header != SCHEMAS[experiment]:
        return len(rows), [f"header {header} differs from the schema {SCHEMAS[experiment]}"]
    problems = []
    want = expected_rows(experiment, config)
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    body = []
    for i, cells in enumerate(rows):
        try:
            values = [float(c) for c in cells]
        except ValueError:
            problems.append(f"row {i} holds a value that is not a number")
            break
        if len(values) != len(header) or not all(math.isfinite(v) for v in values):
            problems.append(f"row {i} is short or holds a non-finite value")
            break
        problem = _row_problem(experiment, dict(zip(header, values)), config)
        if problem is not None:
            problems.append(f"row {i}: {problem}")
            break
        body.append(values)
    if not problems and reference is not None:
        problem = compare_reference(header, body, reference)
        if problem is not None:
            problems.append(problem)
    return len(rows), problems


def write_reference(csv_path: Path, reference: Path) -> None:
    """Store ``csv_path`` rounded to ``REFERENCE_DIGITS`` significant digits, gzipped."""
    header, rows = read_table(csv_path)
    reference.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(reference, "wb", mtime=0) as raw, io.TextIOWrapper(raw, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(c), f".{REFERENCE_DIGITS}g") for c in row])

