"""Experiment harness and CLI: config handling, schemas, determinism, exit codes."""

import ast
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import alphapost
from alphapost import experiments, regression
from alphapost.cli import main
from alphapost.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    run_experiment,
)
from alphapost.posteriors import SufficientStats
from alphapost.regression import misspec_scenario
from alphapost.robustness import FiniteSampleInputs, optimal_alpha


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


FAST_LOCATION = """
seed = 42
replications = 2
n_grid = 50,100
alphas = 0.5,1.0
model = laplace-location
grid_points = 401
"""

# Samples of 3,000 standard normals, which are drawn on threads.
THREADED = "seed = 7\nreplications = 3\nn_grid = 1000\n"

FAST_REGRESSION = """
seed = 7
replications = 2
n_grid = 100,200
n = 200
alphas = 0.25,0.5,1.0
eps = 1.0
"""


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_config(tmp_path, FAST_REGRESSION))
        assert cfg.seed == 7
        assert cfg.n_grid == [100, 200]
        assert cfg.alphas == [0.25, 0.5, 1.0]
        assert cfg.sigma_u is None
        assert cfg.model == "regression"

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            write_config(tmp_path, "# a comment\n\nseed = 1\n  # another\n")
        )
        assert cfg.seed == 1

    def test_matrix_syntax(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            write_config(tmp_path, "seed = 1\ncov_ww = 1,0.3;0.3,1\ntheta0 = 1,2\n")
        )
        assert cfg.cov_ww == [[1.0, 0.3], [0.3, 1.0]]
        assert cfg.theta0 == [1.0, 2.0]

    def test_unknown_field_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="seeed"):
            ExperimentConfig.from_file(write_config(tmp_path, "seeed = 1\n"))

    def test_unparsable_value_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="replications"):
            ExperimentConfig.from_file(write_config(tmp_path, "replications = soon\n"))

    def test_seed_is_mandatory(self, tmp_path):
        for seed_line in ("", "seed = -1\n"):
            cfg = ExperimentConfig.from_file(write_config(tmp_path, f"replications = 2\n{seed_line}"))
            with pytest.raises(ConfigError, match="^seed: "):
                cfg.validate("optimal-alpha")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("seed = 1\nalphas = 0.5\n# again\nalphas = 1.0\n", "alphas"),
            ("seed = 1\nn_grid = 50\n\nn-grid = 60\n", "n_grid"),
        ],
    )
    def test_repeated_key_names_both_lines(self, tmp_path, text, key):
        with pytest.raises(ConfigError, match=f"^{key}: set on line 2 and again on line 4$"):
            ExperimentConfig.from_file(write_config(tmp_path, text))

    def test_experiment_line_is_an_unknown_field(self, tmp_path):
        # The first argument names the experiment; a config names none.
        with pytest.raises(ConfigError, match="^experiment: unknown configuration field$"):
            ExperimentConfig.from_file(write_config(tmp_path, "seed = 1\nexperiment = failure-case\n"))

    def test_unknown_experiment_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^experiment: unknown experiment 'no-such-experiment'$"):
            run_experiment(ExperimentConfig(seed=1), "no-such-experiment")

    def test_every_field_parses_back_from_its_rendering(self, tmp_path):
        # One non-default value per annotation, so every parser runs.
        samples = {
            "str": "laplace-location",
            "int": 7,
            "int | None": 9,
            "list[int]": [30, 60],
            "float": 0.25,
            "float | None": 1.5,
            "list[float]": [0.5, -1.25],
            "list[float] | None": [0.0, 2.5],
            "list[list[float]]": [[1.0, 0.5], [0.5, 2.0]],
            "list[list[float]] | None": [[3.0, 0.0], [0.0, 0.125]],
        }
        config = {f.name: samples[f.type] for f in fields(ExperimentConfig)}

        def render(value):
            if isinstance(value, list):
                return ";".join(render(v) for v in value) if isinstance(value[0], list) else ",".join(map(str, value))
            return str(value)

        text = "".join(f"{name} = {render(value)}\n" for name, value in config.items())
        assert ExperimentConfig.from_file(write_config(tmp_path, text)).to_dict() == config


def range_edges(f):
    # (inside, outside) at each finite end of a field's declared range: the
    # extreme int or float that lies in it, and the next one beyond it.
    interval = f.metadata["range"]
    cast = int if "int" in f.type else float

    def step(v, toward):
        return v + int(math.copysign(1, toward)) if cast is int else math.nextafter(v, toward)

    ends = zip(interval[1:-1].split(","), (-math.inf, math.inf), (interval[0] == "[", interval[-1] == "]"))
    for text, outward, closed in ends:
        if math.isfinite(end := float(text)):
            end = cast(end)
            yield (end, step(end, outward)) if closed else (step(end, -outward), end)


def config_with(name, value):
    # The default config with value in field name, as the one entry of a list field.
    cfg = ExperimentConfig(seed=0)
    setattr(cfg, name, [value] if isinstance(getattr(cfg, name), list) else value)
    return cfg


RANGE_EDGES = [(f.name, *edge) for f in fields(ExperimentConfig) if "range" in f.metadata for edge in range_edges(f)]


class TestDeclaredRanges:
    # validate alone, in process: optimal-alpha with the regression model
    # fits every edge value, so only the declared range decides.

    @pytest.mark.parametrize("name, inside, outside", RANGE_EDGES)
    def test_range_edges(self, name, inside, outside):
        config_with(name, inside).validate("optimal-alpha")
        with pytest.raises(ConfigError, match=f"^{name}: must lie in "):
            config_with(name, outside).validate("optimal-alpha")

    def test_every_field_with_a_range_has_an_edge(self):
        assert {name for name, *_ in RANGE_EDGES} == {f.name for f in fields(ExperimentConfig) if "range" in f.metadata}

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_default_config_is_valid(self, experiment):
        ExperimentConfig(seed=0).validate(experiment)

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig) if "float" in f.type])
    def test_every_float_field_rejects_non_finite_values(self, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^{name}: must lie in "):
                config_with(name, value).validate("optimal-alpha")


# Every experiment on the regression model, and the convergence ones on the location model too.
EVERY_RUN = [
    *((e, "regression") for e in EXPERIMENTS),
    ("bvm-convergence", "laplace-location"),
    ("vbvm-convergence", "laplace-location"),
]


class TestExperimentOutputs:
    def test_optimal_alpha_no_misspecification_emits_one(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            write_config(tmp_path, "seed = 3\ngamma0 = 0.0\nn = 1000\n")
        )
        columns, rows = run_experiment(cfg, "optimal-alpha")
        assert columns[0] == "alpha_star_limit"
        assert rows[0][0] == 1.0
        assert rows[0][1] == pytest.approx(1.0)

    def test_robustness_curve_argmin_matches_closed_form(self, tmp_path):
        alphas = ",".join(str(a) for a in np.linspace(0.3, 1.6, 53))
        cfg = ExperimentConfig.from_file(
            write_config(tmp_path, f"seed = 5\nn = 2000\nalphas = {alphas}\n")
        )
        columns, rows = run_experiment(cfg, "robustness-curve")
        assert columns == ["alpha", "r_star", "r_tilde_star", "r_exact"]
        grid = np.array([r[0] for r in rows])
        r_star_vals = np.array([r[1] for r in rows])
        argmin = grid[int(np.argmin(r_star_vals))]
        scenario = misspec_scenario(cfg.dgp(), cfg.eps)
        fin = FiniteSampleInputs.at_population_limits(scenario, 2000)
        # The finite-sample estimates differ from the population limits, so
        # allow a couple of grid steps around the closed form.
        assert abs(argmin - optimal_alpha(scenario, fin)) <= 3 * (grid[1] - grid[0])

    def test_robustness_curve_is_surrogate_fidelity_at_rep_zero(self, tmp_path):
        cfg_text = "seed = 13\nn_grid = 300\nreplications = 2\nalphas = 1.0,0.25,0.5\n"
        _, curve = run_experiment(ExperimentConfig.from_file(write_config(tmp_path, cfg_text)), "robustness-curve")
        _, fidelity = run_experiment(ExperimentConfig.from_file(write_config(tmp_path, cfg_text)), "surrogate-fidelity")
        rep0 = [row for row in fidelity if row[1] == 0]
        assert [r[0] for r in curve] == [r[2] for r in rep0] == [0.25, 0.5, 1.0]
        assert [r[3] for r in curve] == [r[3] for r in rep0]
        assert [r[1] for r in curve] == [r[4] for r in rep0]

    def test_failure_case_arms_separate(self, tmp_path):
        cfg = ExperimentConfig.from_file(
            write_config(tmp_path, "seed = 11\nn_grid = 2000,8000\nalpha0 = 1.0\n")
        )
        columns, rows = run_experiment(cfg, "failure-case")
        assert columns == ["n", "h2_failure", "h2_control"]
        assert all(r[1] > 0.001 for r in rows)
        assert rows[-1][2] < rows[0][2]

    @pytest.mark.parametrize(
        "experiment", ["bvm-convergence", "vbvm-convergence", "assumption-checks", "surrogate-fidelity"]
    )
    def test_replication_rows_do_not_depend_on_the_run_shape(self, tmp_path, experiment):
        # A replication's rows come from its own (seed, n, rep) stream, so they
        # stay byte-identical when the stack is shorter or the grids reversed.
        def rows(text):
            cfg = ExperimentConfig.from_file(write_config(tmp_path, f"seed = 19\n{text}"))
            return [[str(v) for v in row] for row in run_experiment(cfg, experiment)[1]]

        full = rows("replications = 5\nn_grid = 60,150\nalphas = 0.25,0.5,1.0\n")
        short = rows("replications = 3\nn_grid = 150,60\nalphas = 1.0,0.5,0.25\n")
        assert len(short) == len(full) * 3 // 5
        assert short == [row for row in full if int(row[1]) < 3]

    @pytest.mark.parametrize("experiment, model", EVERY_RUN)
    def test_rows_are_sorted_whatever_the_config_order(self, tmp_path, experiment, model):
        # Rows are sorted stably by their first three columns, so n_grid and
        # alphas in another order give the sorted config's rows, and a
        # repeated n or alpha repeats the rows that carry it.
        def run(n_grid, alphas):
            text = (
                f"seed = 29\nreplications = 2\nn_grid = {n_grid}\nn = 100\nalphas = {alphas}\n"
                f"model = {model}\ngrid_points = 301\n"
            )
            return run_experiment(ExperimentConfig.from_file(write_config(tmp_path, text)), experiment)

        names, plain = run("50,100", "0.25,0.5,1.0")
        _, shuffled = run("100,50,100", "1.0,0.25,0.5,0.25")
        copies = {"n": {50: 1, 100: 2}, "alpha": {0.25: 2, 0.5: 1, 1.0: 1}}

        def times(row):
            return math.prod(copies[name][v] for name, v in zip(names, row) if name in copies)

        assert shuffled == sorted(shuffled, key=lambda row: row[:3])
        assert shuffled == [row for row in plain for _ in range(times(row))]
        assert len(shuffled) > len(plain) or experiment == "optimal-alpha"

    @pytest.mark.parametrize("experiment", ["bvm-convergence", "vbvm-convergence"])
    def test_location_rows_do_not_depend_on_the_run_shape(self, tmp_path, monkeypatch, experiment):
        # The location model stacks every (rep, alpha) cell of a sample size,
        # and the projection splits that stack into blocks that bound its
        # memory: neither the run's shape nor the blocks change a row.
        def rows(text):
            cfg = ExperimentConfig.from_file(
                write_config(tmp_path, f"seed = 19\nmodel = laplace-location\ngrid_points = 301\n{text}")
            )
            return [[str(v) for v in row] for row in run_experiment(cfg, experiment)[1]]

        full = rows("replications = 5\nn_grid = 60,150\nalphas = 0.25,0.5,1.0\n")
        monkeypatch.setattr(experiments, "_GRID_BLOCK", 2 * 301)
        short = rows("replications = 3\nn_grid = 150,60\nalphas = 1.0,0.5,0.25\n")
        assert short == [row for row in full if int(row[1]) < 3]

    @pytest.mark.parametrize("block", [400, 900])
    def test_location_projection_blocks_hold_at_most_the_grid_block(self, tmp_path, monkeypatch, block):
        # Ten (rep, alpha) cells of 301 nodes per n: blocks of one cell (400)
        # and of two (900), never more values than _GRID_BLOCK, and the same CSV.
        cfg = write_config(
            tmp_path,
            "seed = 19\nmodel = laplace-location\ngrid_points = 301\n"
            "replications = 5\nn_grid = 60,150\nalphas = 0.25,0.5\n",
        )
        assert main(["vbvm-convergence", "--config", str(cfg), "--out", str(tmp_path / "whole")]) == 0
        sizes = []
        tabulate = experiments.grid_alpha_posterior

        def spy(log_lik, log_prior, alpha, x):
            sizes.append(x.lo.size * x.num)
            return tabulate(log_lik, log_prior, alpha, x)

        monkeypatch.setattr(experiments, "grid_alpha_posterior", spy)
        monkeypatch.setattr(experiments, "_GRID_BLOCK", block)
        assert main(["vbvm-convergence", "--config", str(cfg), "--out", str(tmp_path / "blocks")]) == 0
        assert max(sizes) <= block and sum(sizes) == 2 * 10 * 301
        assert len(sizes) == 2 * 10 // (block // 301)
        csv = "vbvm-convergence.csv"
        assert (tmp_path / "blocks" / csv).read_bytes() == (tmp_path / "whole" / csv).read_bytes()

    def test_one_config_runs_every_experiment_in_either_order(self, tmp_path):
        # validate only checks, so a config run once gives the next experiment
        # the rows a fresh config would.
        text = "seed = 23\nreplications = 2\nn_grid = 50,100\nn = 100\nalphas = 0.5,1.0\n"

        def fresh(experiment):
            return run_experiment(ExperimentConfig.from_file(write_config(tmp_path, text)), experiment)

        want = {experiment: fresh(experiment) for experiment in EXPERIMENTS}
        shared = ExperimentConfig.from_file(write_config(tmp_path, text))
        for experiment in [*EXPERIMENTS, *reversed(list(EXPERIMENTS))]:
            assert run_experiment(shared, experiment) == want[experiment], experiment

    @pytest.mark.parametrize("experiment, model", EVERY_RUN)
    def test_every_cell_is_a_python_number(self, tmp_path, experiment, model):
        # Rows leave run_experiment as Python ints and floats, never numpy
        # scalars, so the CSV writer formats plain numbers.
        text = f"seed = 23\nreplications = 2\nn_grid = 50,100\nn = 100\nalphas = 0.5,1.0\nmodel = {model}\n"
        _, rows = run_experiment(ExperimentConfig.from_file(write_config(tmp_path, text)), experiment)
        assert rows and all(type(cell) in (int, float) for row in rows for cell in row)

    def test_grid_points_leaves_the_2d_tv_alone(self, tmp_path):
        # grid_points sizes the Laplace grid only; the p = 2 TV is exact.
        def tv(grid_points):
            cfg = ExperimentConfig.from_file(
                write_config(
                    tmp_path,
                    f"seed = 3\nreplications = 2\nn_grid = 50,200\ngrid_points = {grid_points}\ntheta0 = 1,0.5\n"
                    "cov_ww = 1,0.3;0.3,1\ncov_wz = 0.5;0.2\nmu_pi = 0,0\nsigma_pi = 1,0;0,1\n",
                )
            )
            return [row[3] for row in run_experiment(cfg, "bvm-convergence")[1]]

        assert tv(101) == tv(2001)

    def test_schema_stability(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_config(tmp_path, FAST_LOCATION))
        columns, rows = run_experiment(cfg, "bvm-convergence")
        assert columns == ["n", "rep", "alpha", "tv", "kl"]
        assert len(rows) == 2 * 2 * 2
        cfg2 = ExperimentConfig.from_file(write_config(tmp_path, FAST_LOCATION))
        columns2, rows2 = run_experiment(cfg2, "vbvm-convergence")
        assert columns2 == ["n", "rep", "alpha", "kl"]
        assert all(r[3] >= 0 for r in rows2)


class TestCLI:
    def run_cli(self, args):
        return main(args)

    def test_run_writes_outputs_and_is_deterministic(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_LOCATION)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run_cli(["bvm-convergence", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert self.run_cli(["bvm-convergence", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "bvm-convergence.csv").read_bytes() == (out2 / "bvm-convergence.csv").read_bytes()

    def test_sidecar_round_trips_to_equivalent_config(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        out = tmp_path / "out"
        assert self.run_cli(["optimal-alpha", "--config", str(cfg_path), "--out", str(out)]) == 0
        sidecar = json.loads((out / "optimal-alpha.json").read_text())
        peak_rss = {"peak_rss_mb"} if experiments.resource is not None else set()
        assert set(sidecar) == {"config", "version", "elapsed_seconds", "environment"} | peak_rss
        echo = ExperimentConfig(**sidecar["config"])
        echo.validate("optimal-alpha")
        _, rows_echo = run_experiment(echo, "optimal-alpha")
        cfg = ExperimentConfig.from_file(cfg_path)
        cfg.out = str(out)
        _, rows_orig = run_experiment(cfg, "optimal-alpha")
        assert rows_echo == rows_orig

    def test_sidecar_records_the_environment_and_peak_memory(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        out = tmp_path / "out"
        assert self.run_cli(["optimal-alpha", "--config", str(cfg_path), "--out", str(out)]) == 0
        sidecar = json.loads((out / "optimal-alpha.json").read_text())
        assert sidecar["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "alphapost": alphapost.__version__,
            "cpu_count": os.cpu_count(),
            "draw_threads": regression._draw_threads(),
        }
        if experiments.resource is None:
            pytest.skip("no resource module: the sidecar has no peak_rss_mb")
        # ru_maxrss only grows, so the run's figure is at most this process's peak now.
        after = experiments._peak_rss_mb()
        assert 1.0 < sidecar["peak_rss_mb"] <= after < 1e5

    def test_seed_override_changes_rows(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        self.run_cli(["surrogate-fidelity", "--config", str(cfg_path), "--out", str(out1)])
        self.run_cli(
            ["surrogate-fidelity", "--config", str(cfg_path), "--out", str(out2), "--seed", "8"]
        )
        a = (out1 / "surrogate-fidelity.csv").read_text()
        b = (out2 / "surrogate-fidelity.csv").read_text()
        assert a != b

    def test_config_error_exit_code(self, tmp_path):
        bad = write_config(tmp_path, "seeed = 1\n", name="bad.cfg")
        assert self.run_cli(["optimal-alpha", "--config", str(bad)]) == 2
        missing = tmp_path / "missing.cfg"
        assert self.run_cli(["optimal-alpha", "--config", str(missing)]) == 2

    @pytest.mark.parametrize("experiment", ["surrogate-fidelity", "robustness-curve", "optimal-alpha"])
    def test_eps_above_sample_size_is_a_config_error(self, tmp_path, experiment, capsys):
        cfg_path = write_config(tmp_path, "seed = 1\neps = 100\nn_grid = 50\nreplications = 1\n")
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "eps")]) == 2
        assert "eps:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, line, field",
        [
            ("surrogate-fidelity", "alphas = 0.5,nan", "alphas"),
            ("surrogate-fidelity", "eps = nan", "eps"),
            ("surrogate-fidelity", "sigma_eps = nan", "sigma_eps"),
            ("surrogate-fidelity", "theta0 = nan", "theta0"),
            ("surrogate-fidelity", "cov_wz = inf", "cov_wz"),
            ("failure-case", "alpha0 = nan", "alpha0"),
            ("bvm-convergence", "model = laplace-location\nnoise_sd = nan", "noise_sd"),
            ("assumption-checks", "alpha = inf", "alpha"),
        ],
    )
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys, experiment, line, field):
        cfg_path = write_config(tmp_path, f"seed = 1\nn_grid = 50\nreplications = 1\n{line}\n")
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "nf")]) == 2
        assert f"{field}:" in capsys.readouterr().err

    def test_location_curvature_is_checked_before_any_sample(self, tmp_path, monkeypatch, capsys):
        def sample(cfg, n):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(experiments, "_location_stats", sample)
        cfg_path = write_config(
            tmp_path, "seed = 1\nn_grid = 50\nreplications = 1\nmodel = laplace-location\nnoise_sd = 1e-300\n"
        )
        assert self.run_cli(["vbvm-convergence", "--config", str(cfg_path), "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: noise_sd: ") and "1 / noise_sd^2 is not finite" in err

    def test_lan_sup_above_the_dimension_cap_is_a_config_error(self, tmp_path, capsys):
        # 3^9 faces of the box are beyond the cap of 8 coordinates.
        cfg_path = write_config(tmp_path, "seed = 1\nn_grid = 50\nreplications = 1\ntheta0 = 1,1,1,1,1,1,1,1,1\n")
        assert self.run_cli(["assumption-checks", "--config", str(cfg_path), "--out", str(tmp_path / "lan")]) == 2
        assert "theta0:" in capsys.readouterr().err

    def test_oversized_grid_is_a_config_error(self, tmp_path, capsys):
        # Laplace grids take grid_points nodes, and the field's range holds in every run.
        cfg_path = write_config(tmp_path, "seed = 1\nn_grid = 50\nreplications = 1\ngrid_points = 1000001\n")
        assert self.run_cli(["bvm-convergence", "--config", str(cfg_path), "--out", str(tmp_path / "gp")]) == 2
        assert capsys.readouterr().err.startswith("config error: grid_points: ")

    def test_lan_sup_at_the_dimension_cap_runs(self, tmp_path):
        eye = ";".join(",".join("1" if i == j else "0" for j in range(8)) for i in range(8))
        cfg_path = write_config(
            tmp_path,
            "seed = 1\nn_grid = 50\nreplications = 2\ntheta0 = 1,1,1,1,1,1,1,1\n"
            f"cov_ww = {eye}\ncov_wz = 0.5;0;0;0;0;0;0;0\nmu_pi = 0,0,0,0,0,0,0,0\nsigma_pi = {eye}\n",
        )
        assert self.run_cli(["assumption-checks", "--config", str(cfg_path), "--out", str(tmp_path / "lan8")]) == 0

    def test_three_dimensional_bvm_convergence_is_a_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "seed = 1\nn_grid = 50\nreplications = 1\ntheta0 = 1,1,1\n")
        assert self.run_cli(["bvm-convergence", "--config", str(cfg_path), "--out", str(tmp_path / "tv3")]) == 2
        assert "theta0: exact Gaussian TV" in capsys.readouterr().err

    def test_ragged_matrix_is_a_dgp_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "seed = 1\ncov_ww = 1;0.3,1\n")
        assert self.run_cli(["optimal-alpha", "--config", str(cfg_path), "--out", str(tmp_path / "rg")]) == 2
        assert "dgp/prior:" in capsys.readouterr().err

    def test_nonpositive_n_is_a_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "seed = 1\nn = 0\n")
        assert self.run_cli(["optimal-alpha", "--config", str(cfg_path), "--out", str(tmp_path / "n0")]) == 2
        assert "n:" in capsys.readouterr().err
        # Regression samples need at least p + d = 2 rows.
        for experiment, text, field in [
            ("assumption-checks", "n_grid = 1", "n_grid"),
            ("surrogate-fidelity", "n_grid = 1", "n_grid"),
            ("bvm-convergence", "n_grid = 1", "n_grid"),
            ("robustness-curve", "n = 1", "n"),
            ("robustness-curve", "n_grid = 1", "n_grid"),
        ]:
            cfg_path = write_config(tmp_path, f"seed = 1\nreplications = 1\n{text}\n")
            assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "n1")]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize("experiment", ["bvm-convergence", "assumption-checks"])
    def test_prior_dimension_mismatch_is_a_config_error(self, tmp_path, capsys, experiment):
        cfg_path = write_config(
            tmp_path, "seed = 1\nn_grid = 50\nreplications = 1\ntheta0 = 1,0.5\ncov_ww = 1,0;0,1\ncov_wz = 0.5;0\n"
        )
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "pd")]) == 2
        assert "mu_pi:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["surrogate-fidelity", "robustness-curve"])
    def test_full_prior_dimension_mismatch_is_a_config_error(self, tmp_path, capsys, experiment):
        cfg_path = write_config(
            tmp_path, "seed = 1\nn_grid = 50\nreplications = 1\nfull_prior_mu = 0\nfull_prior_sigma = 1\n"
        )
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "fp")]) == 2
        assert "full_prior_mu:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, line, prefix, detail",
        [
            ("surrogate-fidelity", "full_prior_sigma = 1,0,0;0,1,0;0,0,1", "full_prior_sigma: ", "p + d = 2"),
            ("robustness-curve", "full_prior_sigma = 1,0,0;0,1,0;0,0,1", "full_prior_sigma: ", "p + d = 2"),
            ("optimal-alpha", "sigma_eps = 0", "sigma_eps: ", "positive"),
            ("robustness-curve", "sigma_eps = 0", "sigma_eps: ", "positive"),
            ("surrogate-fidelity", "sigma_eps = 0", "sigma_eps: ", "positive"),
            # sigma_eps^2 underflows to 0, and Omega with it.
            *[
                (e, "sigma_eps = 1e-200", "sigma_eps: ", "positive square")
                for e in ("optimal-alpha", "robustness-curve", "surrogate-fidelity")
            ],
            ("optimal-alpha", "cov_ww = 1;0.3,1", "dgp/prior: cov_ww: ", "same length"),
            ("optimal-alpha", "cov_ww = 1,0.3;0.3,1", "dgp/prior: cov_ww: ", "1 x 1 matrix"),
            (
                "optimal-alpha",
                "theta0 = 1,2\ncov_ww = 1,0;0,1\nmu_pi = 0,0\nsigma_pi = 1,0;0,1\ncov_wz = 0.5",
                "dgp/prior: cov_wz: ",
                "2 x 1 matrix",
            ),
            ("optimal-alpha", "cov_wz = 1.5", "dgp/prior: cov_ww, cov_wz, cov_zz: ", "positive definite"),
            # The Cholesky factor of the draws reads only the lower triangle.
            (
                "optimal-alpha",
                "theta0 = 1,0.5\ncov_ww = 1,0.9;0,1\ncov_wz = 0.5;0\nmu_pi = 0,0\nsigma_pi = 1,0;0,1",
                "dgp/prior: cov_ww, cov_wz, cov_zz: ",
                "symmetric",
            ),
            ("bvm-convergence", "sigma_eps = 0\ngamma0 = 0", "dgp/prior: ", "sigma_eps"),
            ("optimal-alpha", "theta0 =", "dgp/prior: theta0: ", "at least one"),
            ("optimal-alpha", "gamma0 =", "dgp/prior: gamma0: ", "at least one"),
            ("bvm-convergence", "sigma_eps = -1", "dgp/prior: sigma_eps: ", "must be nonnegative"),
            # sigma_eps^2, sigma_u^2 and the projection's curvature 1 / noise_sd^2 overflow.
            *[(e, "sigma_eps = 1e200", "dgp/prior: sigma_eps: ", "not finite") for e in EXPERIMENTS],
            *[(e, "sigma_u = 1e300", "dgp/prior: sigma_u: ", "not finite") for e in EXPERIMENTS],
            # The curvature 1 / sigma_u^2 divides by zero, or overflows.
            *[
                (e, f"sigma_u = {su}", "dgp/prior: sigma_u: ", "1 / sigma_u^2 is not finite")
                for e in EXPERIMENTS
                for su in ("1e-300", "1e-160")
            ],
            *[
                ("vbvm-convergence", f"model = laplace-location\nnoise_sd = {sd}", "noise_sd: ", "not finite")
                for sd in ("1e-300", "1e-200")
            ],
        ],
    )
    def test_builder_error_names_the_field(self, tmp_path, capsys, experiment, line, prefix, detail):
        cfg_path = write_config(tmp_path, f"seed = 1\nn_grid = 50\nreplications = 1\n{line}\n")
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {prefix}")
        assert detail in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_grid 50", "config line 3: expected 'key = value', got 'n_grid 50'"),
            ("n_grid =", "n_grid: must not be empty"),
            ("alphas =", "alphas: must not be empty"),
            ("model = probit", "model: unknown model 'probit'"),
        ],
    )
    def test_malformed_setting_is_a_config_error(self, tmp_path, capsys, line, message):
        cfg_path = write_config(tmp_path, f"seed = 1\nreplications = 1\n{line}\n")
        assert self.run_cli(["bvm-convergence", "--config", str(cfg_path), "--out", str(tmp_path / "m")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "experiment, line",
        [
            ("optimal-alpha", "full_prior_sigma = 1,0,0;0,1,0;0,0,1"),
            ("bvm-convergence", "sigma_eps = 0"),
            ("bvm-convergence", "model = laplace-location\ngrid_points = 101\ncov_ww = 1;0.3,1"),
            ("bvm-convergence", "model = laplace-location\ngrid_points = 101\ntheta0 ="),
        ],
    )
    def test_fields_the_experiment_never_reads_are_not_checked(self, tmp_path, experiment, line):
        cfg_path = write_config(tmp_path, f"seed = 1\nn_grid = 50\nreplications = 1\n{line}\n")
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "u")]) == 0

    def test_unwritable_output_is_a_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        assert self.run_cli(["optimal-alpha", "--config", str(cfg_path), "--out", str(blocked)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # The curvature 1 / sigma_u^2 is finite, but the tempered posterior's
        # KL to the correctly specified one overflows.
        cfg_path = write_config(
            tmp_path,
            "seed = 1\nn_grid = 50\nn = 50\nreplications = 1\nsigma_u = 1e-154\n",
        )
        rc = self.run_cli(["robustness-curve", "--config", str(cfg_path), "--out", str(tmp_path / "nf")])
        assert rc == 3

    @pytest.mark.parametrize(
        "experiment, line, column",
        [
            ("bvm-convergence", "mu_pi = 1e300", "kl"),
            ("vbvm-convergence", "mu_pi = 1e300", "kl"),
            ("robustness-curve", "full_prior_mu = 1e300,0", "r_exact"),
            *[
                ("assumption-checks", f"mu_pi = {mu}", "prior_term, lan_term, markov_bound, kl_limit")
                for mu in ("1e300", "-1e300")
            ],
        ],
    )
    def test_non_finite_results_are_a_numerical_failure(self, tmp_path, capsys, experiment, line, column):
        cfg_path = write_config(tmp_path, f"seed = 1\nn_grid = 50\nn = 50\nreplications = 1\n{line}\n")
        out = tmp_path / "nf"
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"numerical failure: {column}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, line, names",
        [
            *[
                (e, f"theta0 = {theta}", "theta0, gamma0, sigma_eps")
                for e in ("bvm-convergence", "assumption-checks", "failure-case")
                for theta in ("1e300", "-1e300")
            ],
            *[
                (e, f"model = laplace-location\ngrid_points = 401\n{value}", "theta_true, noise_sd")
                for e in ("bvm-convergence", "vbvm-convergence")
                for value in ("theta_true = 1e300", "theta_true = -1e300", "noise_sd = 1e300")
            ],
            *[
                (e, line, "sigma_u, alphas")
                for e in ("bvm-convergence", "vbvm-convergence")
                for line in ("alphas = 1e307", "sigma_u = 1e150\nalphas = 1e-300")
            ],
            # alpha0 / n is subnormal, or underflows to 0.
            *[("failure-case", f"alpha0 = {alpha0}", "alpha0, sigma_u") for alpha0 in ("1e-320", "5e-324")],
        ],
    )
    def test_overflowing_sample_names_its_fields(self, tmp_path, capsys, experiment, line, names):
        # The sample's Gram matrix, or the tempered posterior's scales
        # 1 / (alpha n) and sigma_u^2 / (alpha n), overflow: a numerical
        # failure naming the fields that set them, and the sample's size.
        cfg_path = write_config(tmp_path, f"seed = 1\nn_grid = 50\nreplications = 1\n{line}\n")
        out = tmp_path / "gram"
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {names}: ") and "n = 50" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, names, n",
        [
            # The curvature is finite, but the mean-field limit's precision alpha n V overflows.
            ("n_grid = 50\nreplications = 1\nsigma_u = 1e-154", "sigma_u, cov_ww, alphas", 50),
            *[
                (f"n_grid = 50\nreplications = 1\nmodel = laplace-location\n{line}", "noise_sd, alphas", 50)
                for line in ("noise_sd = 1e-154", "alphas = 1e307", "noise_sd = 1e150\nalphas = 1e-300")
            ],
            # The Laplace prior is narrower than the grid's step: the grid posterior is a spike.
            *[
                (
                    f"n_grid = 30,60\nreplications = 2\nmodel = laplace-location\n{line}",
                    "noise_sd, alphas, prior_scale, prior_loc, theta_true",
                    30,
                )
                for line in (
                    "noise_sd = 1e150",
                    "prior_scale = 1e-300",
                    "alphas = 1e-150",
                    # Narrower than one grid step, but the grid posterior is finite.
                    "prior_scale = 1e-4",
                    "noise_sd = 1e10",
                    # The log prior reaches 1e48 on the box, beyond what the
                    # grid's normalizer resolves.
                    "noise_sd = 1e50",
                )
            ],
        ],
    )
    def test_unresolvable_mean_field_run_names_its_fields(self, tmp_path, capsys, text, names, n):
        cfg_path = write_config(tmp_path, f"seed = 1\n{text}\n")
        out = tmp_path / "mf"
        assert self.run_cli(["vbvm-convergence", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {names}: ") and f"n = {n}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, line",
        [
            ("failure-case", "mu_pi = 1e300"),
            ("bvm-convergence", "model = laplace-location\ngrid_points = 401\nprior_loc = 1e300"),
        ],
    )
    def test_overflowing_offsets_reach_their_limit(self, tmp_path, experiment, line):
        # An offset whose square overflows gives its divergence's limit, quietly.
        cfg_path = write_config(tmp_path, f"seed = 1\nn_grid = 30,60\nreplications = 2\n{line}\n")
        out = tmp_path / "far"
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = np.loadtxt(out / f"{experiment}.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize(
        "experiment, noise_sd",
        [
            *[("vbvm-convergence", sd) for sd in ("1e-8", "1e-10", "1e-15", "1e-20", "1e-50", "1e-150")],
            ("bvm-convergence", "1e-300"),
        ],
    )
    def test_narrow_laplace_posteriors_run(self, tmp_path, experiment, noise_sd):
        # The projection's stopping rule is scale free, and the exact
        # divergences stay quiet where the posterior is narrower than any float.
        cfg_path = write_config(
            tmp_path,
            "seed = 1\nn_grid = 50\nreplications = 1\nmodel = laplace-location\ngrid_points = 401\n"
            f"noise_sd = {noise_sd}\n",
        )
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "narrow")]) == 0

    def test_rank_deficient_replication_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # The second replication's W is all zeros, so its stacked rank check fails.
        real_simulate_stats = experiments.simulate_stats

        def simulate_stats(dgp, n, seeds):
            gram = real_simulate_stats(dgp, n, seeds).gram.copy()
            gram[1, : dgp.p, :] = gram[1, :, : dgp.p] = 0.0
            return SufficientStats(n, gram)

        monkeypatch.setattr(experiments, "simulate_stats", simulate_stats)
        cfg_path = write_config(tmp_path, "seed = 1\nn_grid = 50\nreplications = 3\n")
        assert self.run_cli(["bvm-convergence", "--config", str(cfg_path), "--out", str(tmp_path / "rd")]) == 3
        assert "design matrix is rank deficient" in capsys.readouterr().err

    def test_out_of_memory_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def exhausting(cfg):
            raise MemoryError("Unable to allocate 6.00 GiB")

        monkeypatch.setitem(experiments.EXPERIMENTS, "optimal-alpha", exhausting)
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        out = tmp_path / "oom"
        assert self.run_cli(["optimal-alpha", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: out of memory: Unable to allocate 6.00 GiB\n"
        assert not out.exists()

    def test_out_of_memory_in_a_draw_worker_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        real_block = regression._standard_block

        def block(dgp, n, rng):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("Unable to allocate 6.00 GiB")
            return real_block(dgp, n, rng)

        monkeypatch.setattr(regression, "_standard_block", block)
        monkeypatch.setattr(regression, "_draw_workers", lambda normals: 2)
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        out = tmp_path / "oom"
        assert self.run_cli(["bvm-convergence", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: out of memory: Unable to allocate 6.00 GiB\n"
        assert not out.exists()

    def test_failed_rewrite_keeps_previous_outputs(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        out = tmp_path / "atomic"
        assert self.run_cli(["surrogate-fidelity", "--config", str(cfg_path), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        real_run = experiments.run_experiment

        class Interrupting:
            # A cell whose text fails, as an interruption would, part way through the CSV.
            def __str__(self):
                raise RuntimeError("interrupted")

        def interrupted_run(cfg, experiment):
            columns, rows = real_run(cfg, experiment)
            return columns, rows[:10] + [[Interrupting()] * len(columns)] + rows[10:]

        monkeypatch.setattr(experiments, "run_experiment", interrupted_run)
        with pytest.raises(RuntimeError, match="interrupted"):
            experiments.run_and_write(ExperimentConfig.from_file(cfg_path), "surrogate-fidelity")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_cli_import_defers_heavy_scipy_modules(self):
        # Start-up loads numpy only.
        code = "import sys, alphapost.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_cli_import_defers_numpy_random(self):
        # numpy loads numpy.random on first use, and the package's first draw is the first use.
        code = "import sys, alphapost.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_closed_form_run_imports_no_scipy(self, tmp_path):
        # p = 1 surrogate-fidelity needs only the KL closed forms, and p = 1
        # bvm-convergence the TV closed form in the normal CDF.  The Laplace
        # location model's divergences are closed forms too, and its
        # projection's spline is solved in numpy.  The draws' worker threads
        # (n = 1000 has 3,000 normals per sample) import neither
        # concurrent.futures nor logging, which would add to every launch.
        # Nor does any run import numpy.ma (np.unique does, at about 10 ms).
        regression = write_config(tmp_path, FAST_REGRESSION)
        threaded = write_config(tmp_path, "seed = 7\nreplications = 3\nn_grid = 1000\n", "threaded.cfg")
        laplace = write_config(tmp_path, FAST_LOCATION, "laplace.cfg")
        runs = [
            ("surrogate-fidelity", regression),
            ("bvm-convergence", regression),
            ("bvm-convergence", threaded),
            ("bvm-convergence", laplace),
            ("vbvm-convergence", laplace),
        ]
        for i, (experiment, cfg_path) in enumerate(runs):
            code = (
                "import sys; from alphapost.cli import main; "
                f"code = main([{experiment!r}, '--config', {str(cfg_path)!r}, "
                f"'--out', {str(tmp_path / str(i))!r}]); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'logging') "
                "or m.split('.')[:2] == ['numpy', 'ma'] or m.startswith('concurrent.futures')))"
            )
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
            assert proc.stdout.strip().splitlines()[-1] == "0 []", (experiment, cfg_path.name)

    def test_laplace_projection_run_imports_neither_scipy_nor_numpy_polynomial(self, tmp_path):
        # The projection's Gauss-Hermite rule is built in numpy alone.
        laplace = write_config(tmp_path, FAST_LOCATION, "laplace.cfg")
        code = (
            "import sys; from alphapost.cli import main; "
            f"code = main(['vbvm-convergence', '--config', {str(laplace)!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print(code, sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.polynomial'))))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip().splitlines()[-1] == "0 []"

    def test_library_never_imports_scipy_optimize_or_stats(self):
        # Nor any other scipy module: scipy is a test-only dependency.
        src = Path(experiments.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
        assert found == []

    def test_only_the_config_and_the_writer_raise_config_errors(self):
        # The config and its builders check every field before any sample is
        # drawn, so an experiment's body never raises one.
        allowed = {"ExperimentConfig", "_conjugate_prior", "write_outputs"}
        src = Path(experiments.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                raises = any(
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError"
                    for node in ast.walk(top)
                )
                if raises and getattr(top, "name", None) not in allowed:
                    found.append(f"{path.name}: {getattr(top, 'name', 'module level')}")
        assert found == []

    @pytest.mark.parametrize(
        "experiment, text",
        [
            *(
                pytest.param(e, f"seed = 23\nreplications = 2\nn_grid = 50,100\nn = 100\nmodel = {m}\n", id=f"{e}-{m}")
                for e, m in EVERY_RUN
            ),
            pytest.param("bvm-convergence", THREADED, id="bvm-convergence-threaded"),
        ],
    )
    def test_no_thread_outlives_main(self, tmp_path, monkeypatch, experiment, text):
        # run() ends the process by os._exit once main returns, which would
        # cut short any thread still running.  Two draw threads on any
        # machine, so the threaded config starts one, and it draws slowly, so
        # it would still be running unless main waits for it.
        started = []
        start, real_block = threading.Thread.start, regression._standard_block

        def counted(thread):
            started.append(thread)
            start(thread)

        def slow_block(dgp, n, rng):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.1)
            return real_block(dgp, n, rng)

        monkeypatch.setattr(threading.Thread, "start", counted)
        monkeypatch.setattr(regression, "_draw_threads", lambda: 2)
        monkeypatch.setattr(regression, "_standard_block", slow_block)
        before = threading.active_count()
        cfg_path = write_config(tmp_path, text)
        assert self.run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 0
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in started)
        if text == THREADED:
            assert started

    def test_module_entry_point(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        out = tmp_path / "mod"
        proc = subprocess.run(
            [sys.executable, "-m", "alphapost", "optimal-alpha", "--config", str(cfg_path), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == f"wrote {out / 'optimal-alpha.csv'} and {out / 'optimal-alpha.json'}\n"
        assert proc.stderr == ""
        assert self.run_cli(["optimal-alpha", "--config", str(cfg_path), "--out", str(tmp_path / "in")]) == 0
        assert (out / "optimal-alpha.csv").read_bytes() == (tmp_path / "in" / "optimal-alpha.csv").read_bytes()
        failures = [
            ("optimal-alpha", "seeed = 1\n", 2, "config error: seeed: unknown configuration field"),
            ("bvm-convergence", f"{FAST_REGRESSION}mu_pi = 1e300\n", 3,
             "numerical failure: kl: not every result is finite"),
        ]
        for experiment, text, code, first_line in failures:
            bad = write_config(tmp_path, text, "bad.cfg")
            proc = subprocess.run(
                [sys.executable, "-m", "alphapost", experiment, "--config", str(bad), "--out", str(tmp_path / "bad")],
                capture_output=True,
                text=True,
            )
            assert (proc.returncode, proc.stdout, proc.stderr.splitlines()[0]) == (code, "", first_line)

    def test_profiled_module_entry_point_prints_its_stats(self, tmp_path):
        # A profiler is installed, so the run ends the usual way and cProfile reports.
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "alphapost", "optimal-alpha", "--config", str(cfg_path),
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(f"wrote {tmp_path / 'optimal-alpha.csv'}")
        assert " function calls " in proc.stdout and "ncalls  tottime  percall  cumtime  percall" in proc.stdout

    @pytest.mark.parametrize(
        "observer",
        [
            "",
            "sys.settrace(lambda *args: None)",
            "sys.setprofile(lambda *args: None)",
            pytest.param(
                "sys.monitoring.use_tool_id(3, 'test')",
                marks=pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring is new in 3.12"),
            ),
        ],
    )
    def test_run_skips_teardown_unless_observed(self, tmp_path, observer):
        # An atexit callback runs only if the interpreter is finalized.
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        argv = ["alphapost", "optimal-alpha", "--config", str(cfg_path), "--out", str(tmp_path)]
        code = f"import atexit, sys; atexit.register(print, 'finalized'); sys.argv = {argv!r}; {observer}\n"
        code += "from alphapost.cli import run; run()"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[1:] == (["finalized"] if observer else [])

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("profiled", [False, True])
    def test_closed_stdout_keeps_the_runs_exit_status(self, tmp_path, unbuffered, profiled):
        # The "wrote" line is best effort: with nobody reading stdout, the run
        # still exits 0 with no traceback.  Unbuffered, print itself fails;
        # buffered, its flush does.  Profiled, the process ends by sys.exit
        # and the interpreter flushes stdout again.
        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        out = tmp_path / "piped"
        profiler = ["-m", "cProfile", "-o", str(tmp_path / "profile")] if profiled else []
        argv = [*profiler, "-m", "alphapost", "optimal-alpha", "--config", str(cfg_path), "--out", str(out)]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert self.run_cli(["optimal-alpha", "--config", str(cfg_path), "--out", str(tmp_path / "in")]) == 0
        assert (out / "optimal-alpha.csv").read_bytes() == (tmp_path / "in" / "optimal-alpha.csv").read_bytes()

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
    def test_script_entry_point_is_run(self):
        import tomllib

        pyproject = tomllib.loads((Path(experiments.__file__).parents[2] / "pyproject.toml").read_text())
        assert pyproject["project"]["scripts"] == {"alphapost": "alphapost.cli:run"}

    def test_all_experiments_have_subcommands(self, tmp_path, capsys):
        from alphapost.cli import build_parser

        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name, "--config", "x"])
            assert args.experiment == name
            # The options may come before the experiment too.
            args = parser.parse_args(["--config", "x", "--seed", "3", name])
            assert (args.experiment, args.config, args.seed, args.out) == (name, "x", 3, None)

        proc = subprocess.run([sys.executable, "-m", "alphapost", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert all(name in proc.stdout for name in EXPERIMENTS)

        cfg_path = write_config(tmp_path, FAST_REGRESSION)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["no-such-experiment", "--config", str(cfg_path), "--out", str(out)])
        assert exc.value.code == 2
        assert "argument experiment: invalid choice: 'no-such-experiment'" in capsys.readouterr().err
        assert not out.exists()

        with pytest.raises(SystemExit) as exc:
            main(["optimal-alpha", "--out", str(out)])
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err
        assert not out.exists()

        assert main(["--config", str(cfg_path), "--out", str(out), "optimal-alpha"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["optimal-alpha.csv", "optimal-alpha.json"]
