import csv
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from campc.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_SOLVER,
    ConfigError,
    load_config,
    main,
    scenario_options,
    solver_options,
    thermal_config,
)
from campc.numqp import SolverOptions
from campc.thermal2d import ThermalConfig

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "thermal.yaml"


def _write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestConfigLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_file_is_empty_mapping(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("")
        assert load_config(path) == {}

    def test_thermal_section_round_trip(self):
        cfg = thermal_config({
            "n": 6, "alpha": 1e-3, "beta": 0.01, "reaction_sign": 1.0,
            "horizon": 3, "output_block": 2, "ref_target": 4.0,
            "bound": {"width": 0.3, "peak": 5.0},
            "loads": [{"center": [0.5, 0.5], "width": 0.1, "peak": 2.0}],
        })
        assert cfg.n == 6
        assert cfg.reaction_sign == 1.0
        assert cfg.bound.peak == 5.0
        assert len(cfg.loads) == 1
        assert cfg.loads[0].peak == 2.0

    def test_thermal_defaults(self):
        assert thermal_config(None) == ThermalConfig()

    def test_shipped_config_shows_the_defaults(self):
        cfg = load_config(CONFIG)
        assert thermal_config(cfg["thermal"]) == ThermalConfig()
        assert solver_options(cfg["solver"]) == SolverOptions()

    def test_unknown_thermal_key(self):
        with pytest.raises(ConfigError):
            thermal_config({"conductivity": 1.0})

    def test_invalid_thermal_value(self):
        with pytest.raises(ConfigError):
            thermal_config({"n": 2, "output_block": 1})

    def test_solver_section(self):
        opts = solver_options({"tol": 1e-7, "max_iterations": 50})
        assert opts.tol == 1e-7
        assert opts.max_iterations == 50

    def test_unknown_solver_key(self):
        with pytest.raises(ConfigError):
            solver_options({"pivoting": "partial"})

    def test_scenario_section(self):
        assert scenario_options({"steps": "5", "timing_repeats": 3}) == {
            "mode": "verify", "steps": 5, "timing_repeats": 3}

    def test_unknown_scenario_key(self):
        with pytest.raises(ConfigError):
            scenario_options({"mdoe": "reduced"})

    def test_bad_scenario_value(self):
        with pytest.raises(ConfigError):
            scenario_options({"steps": "many"})


class TestMain:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--instances", "20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("pass") == 4

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_selftest_needs_an_instance(self, capsys, count):
        assert main(["selftest", "--instances", count]) == EXIT_CONFIG
        assert "pass" not in capsys.readouterr().out

    def test_selftest_rejects_negative_seed(self, capsys):
        assert main(["selftest", "--seed", "-1"]) == EXIT_CONFIG
        assert "pass" not in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path):
        cfg = _write_yaml(tmp_path / "c.yaml",
                          {"thermal": {"bogus_key": 1}})
        assert main(["bench", "thermal", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("scenario", [
        {"mdoe": "reduced"}, {"mode": "turbo"}, {"steps": 0},
        {"timing_repeats": None}])
    def test_bad_scenario_exit_code(self, tmp_path, scenario):
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "thermal": {"n": 6, "output_block": 2, "horizon": 3},
            "scenario": scenario,
        })
        assert main(["bench", "thermal", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("section", [
        {"solver": {"tol": "abc"}}, {"thermal": {"n": "abc"}},
        {"thermal": [1, 2]}, {"solver": "tight"}, {"scenario": [5]},
        {"solver": {"tol": -1}}, {"solver": {"max_iterations": 0}},
        {"solver": {"fraction_to_boundary": 1.5}},
        {"thermal": {"alpha": float("nan")}},
        {"thermal": {"bound": {"peak": float("inf")}}},
        {"thermal": {"bound": {"peek": 3.0}}},
        {"thermal": {"bound": [11.5]}},
        {"thermal": {"loads": [{"center": [0.5, 0.5], "amplitude": 2.0}]}},
        {"thermal": {"loads": [{"width": 0.0}]}},
        {"thermal": {"q_scale": -1}}, {"thermal": {"r_scale": -1}},
        {"thermal": {"q_scale": 0, "r_scale": 0}},
        {"thermal": {"ref_ramp_steps": 0}},
        {"thermal": {"beta": float("inf")}},
        {"thermal": {"dt": float("nan")}},
        {"thermal": {"ref_target": float("nan")}},
        {"thermal": {"ref_target": float("inf")}}])
    def test_bad_config_value_exit_code(self, tmp_path, section):
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "thermal": {"n": 6, "output_block": 2, "horizon": 3}, **section})
        assert main(["bench", "thermal", "--config", cfg]) == EXIT_CONFIG

    # no mode may warn of the overflow: with warnings as errors the
    # warning would end the run before it reports the solver failure
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["verify", "full", "reduced"])
    def test_overflowing_reference_is_a_solver_failure(self, tmp_path,
                                                       capsys, mode):
        # a finite but huge target makes Fz overflow in the solve
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "thermal": {"n": 6, "output_block": 2, "horizon": 3,
                        "ref_target": 1.0e308}})
        code = main(["bench", "thermal", "--config", cfg, "--mode", mode])
        assert code == EXIT_SOLVER
        assert "NumericalFailure" in capsys.readouterr().err

    @pytest.mark.parametrize("center", [[0.5], [0.1, 0.2, 0.3],
                                        [float("nan"), 0.5]],
                             ids=["one-entry", "three-entries", "nan"])
    def test_bad_gaussian_center(self, tmp_path, capsys, center):
        # numpy would broadcast a one-entry center to both axes
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "thermal": {"n": 6, "output_block": 2, "horizon": 3,
                        "bound": {"center": center}}})
        assert main(["bench", "thermal", "--config", cfg]) == EXIT_CONFIG
        assert "center" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["verify", "reduced"])
    def test_late_overflowing_reference_is_a_solver_failure(
            self, tmp_path, capsys, mode):
        # the reference overflows Fz only from step 4 on, so the screen
        # runs from a shifted candidate far from the huge v_uc
        y_ref = np.ones((12, 1))
        y_ref[6:] = 1.0e308
        np.savez(tmp_path / "m.npz", A=0.5 * np.eye(2), B=np.eye(2),
                 C=np.ones((1, 2)), Q=np.eye(1), R=np.eye(2), N=2,
                 y_ref=y_ref, M_u=np.eye(2), g_u=np.ones(2),
                 rho_u=np.ones(2))
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": {"path": "m.npz"},
            "scenario": {"steps": 8, "mode": mode}})
        assert main(["run", "--config", cfg]) == EXIT_SOLVER
        assert "at step 4" in capsys.readouterr().err

    def test_bench_thermal_small(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "thermal": {"n": 6, "output_block": 2, "horizon": 3},
            "scenario": {"steps": 5},
        })
        out = tmp_path / "out"
        code = main(["bench", "thermal", "--config", cfg,
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "trace.csv").exists()
        text = capsys.readouterr().out
        assert "equivalence:      pass" in text

    def test_bench_mode_flag(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "thermal": {"n": 6, "output_block": 2, "horizon": 3},
        })
        code = main(["bench", "thermal", "--config", cfg,
                     "--mode", "reduced", "--steps", "4"])
        assert code == EXIT_OK
        assert "max |A|" in capsys.readouterr().out

    def test_sweep_nc(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep-nc", "--n-c", "200", "400", "800", "1600",
                     "--repeats", "20", "--out", str(out)])
        text = capsys.readouterr().out
        assert "linear fit R^2" in text
        assert (out / "sweep_nc.csv").exists()
        assert code in (EXIT_OK, EXIT_FAIL)  # timing-dependent gate

    @pytest.mark.parametrize("args", [
        ["--repeats", "0"], ["--n-c", "500"], ["--n-c", "500", "500"],
        ["--n-c", "0", "20", "--repeats", "1"],
        ["--n-c", "500", "1000", "500"],
        ["--n-v", "0"], ["--n-v", "-2"], ["--n-c", "-5", "20", "40"]])
    def test_sweep_nc_bad_arguments(self, args, capsys):
        assert main(["sweep-nc", *args]) == EXIT_CONFIG
        # a bad size is named, not left to a numpy error
        name = {("--n-v", "0"): "n_v", ("--n-v", "-2"): "n_v",
                ("--n-c", "-5"): "n_c"}.get(tuple(args[:2]))
        if name:
            assert f"{name} must be >= " in capsys.readouterr().err

    def test_run_requires_matrices(self, tmp_path):
        cfg = _write_yaml(tmp_path / "c.yaml", {"scenario": {"steps": 3}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_run_matrices_given_as_string(self, tmp_path):
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": "plant_path.npz", "scenario": {"steps": 3}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("bad", ["A", "y_ref", "x0"])
    def test_run_rejects_non_finite_matrices(self, tmp_path, bad):
        data = dict(A=np.eye(1) * 0.5, B=np.eye(1), C=np.eye(1),
                    Q=np.eye(1), R=np.eye(1), N=2, y_ref=np.ones((5, 1)),
                    x0=np.zeros(1))
        data[bad] = np.full_like(data[bad], np.nan)
        np.savez(tmp_path / "m.npz", **data)
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": {"path": "m.npz"}, "scenario": {"steps": 3}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("bad", ["y_ref", "x0", "Q", "R", "u_prev",
                                     "M_u", "N"])
    def test_run_rejects_misshapen_matrices(self, tmp_path, capsys, bad):
        # n_x = n_u = n_y = 1; each array below is sized for 2 or 3
        data = dict(A=np.eye(1) * 0.5, B=np.eye(1), C=np.eye(1),
                    Q=np.eye(1), R=np.eye(1), N=2, y_ref=np.ones((5, 1)),
                    M_u=np.ones((2, 1)), g_u=np.ones(2), rho_u=np.ones(2))
        data[bad] = dict(y_ref=np.ones((5, 2)), x0=np.zeros(3),
                         Q=np.eye(2), R=np.eye(2), u_prev=np.zeros(2),
                         M_u=np.ones((2, 2)), N=np.array([2, 3]))[bad]
        np.savez(tmp_path / "m.npz", **data)
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": {"path": "m.npz"}, "scenario": {"steps": 3}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert f"{bad} in " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["B", "C"])
    def test_run_rejects_transposed_b_or_c(self, tmp_path, capsys, name):
        # n_x = 4, n_u = 2, n_y = 1: the transposed B or C has the right
        # number of entries, so only its shape tells it apart
        data = dict(A=0.5 * np.eye(4), B=np.arange(8.0).reshape(4, 2),
                    C=np.ones((1, 4)), Q=np.eye(1), R=np.eye(2), N=2,
                    y_ref=np.ones((5, 1)))
        data[name] = data[name].T
        np.savez(tmp_path / "m.npz", **data)
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": {"path": "m.npz"}, "scenario": {"steps": 3}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert (f"{name} has shape {data[name].shape}, but A is (4, 4)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name, value, message", [
        ("Q", -0.01 * np.eye(2), "Q must be symmetric positive"),
        ("Q", np.array([[1.0, 0.8], [-0.8, 1.0]]), "Q must be symmetric"),
        ("N", 2.5, "horizon N must be an integer >= 1")],
        ids=["negative-Q", "asymmetric-Q", "N=2.5"])
    def test_run_rejects_bad_weights_or_horizon(self, tmp_path, capsys,
                                                name, value, message):
        # a negative or asymmetric Q would reward tracking error, and a
        # fractional N is not truncated
        data = dict(A=0.5 * np.eye(2), B=np.eye(2), C=np.eye(2),
                    Q=np.eye(2), R=np.eye(2), N=2, y_ref=np.ones((5, 2)))
        data[name] = value
        np.savez(tmp_path / "m.npz", **data)
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": {"path": "m.npz"}, "scenario": {"steps": 3}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("D, message", [
        (np.ones((1, 2)), "D in .* must be zero"),
        (np.array([[0.0, np.nan]]), "D in .* holds NaN or inf"),
        (np.array([[0.0, np.inf]]), "D in .* holds NaN or inf"),
        (np.zeros((2, 2)), "D in .* has shape"),
        (np.zeros(1), "D in .* has shape")],
        ids=["nonzero", "nan", "inf", "too-many", "too-few"])
    def test_run_rejects_bad_feedthrough(self, tmp_path, capsys, D,
                                         message):
        # the model has no D: a container's D must be n_y*n_u zeros
        data = dict(A=0.5 * np.eye(2), B=np.eye(2), C=np.ones((1, 2)),
                    Q=np.eye(1), R=np.eye(2), N=2, y_ref=np.ones((5, 1)),
                    D=D)
        np.savez(tmp_path / "m.npz", **data)
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": {"path": "m.npz"}, "scenario": {"steps": 3}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("D", [np.zeros((1, 2)), np.zeros(2)],
                             ids=["matrix", "flat"])
    def test_run_zero_feedthrough_changes_nothing(self, tmp_path, capsys,
                                                  D):
        # an all-zero D runs exactly as a container without one
        data = dict(A=0.9 * np.eye(2), B=np.eye(2), C=np.ones((1, 2)),
                    Q=np.eye(1), R=0.1 * np.eye(2), N=3,
                    y_ref=np.ones((8, 1)), M_u=np.eye(2), g_u=np.ones(2),
                    rho_u=np.ones(2))
        rows = {}
        for name, extra in (("without", {}), ("with", {"D": D})):
            np.savez(tmp_path / f"{name}.npz", **data, **extra)
            cfg = _write_yaml(tmp_path / f"{name}.yaml", {
                "matrices": {"path": f"{name}.npz"},
                "scenario": {"steps": 5, "mode": "reduced"}})
            out = tmp_path / name
            assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
            table = list(csv.DictReader(
                (out / "trace.csv").read_text().splitlines()))
            rows[name] = [{k: v for k, v in row.items()
                           if not k.startswith("t_")} for row in table]
        capsys.readouterr()
        assert rows["with"] == rows["without"]

    def test_run_accepts_column_rho(self, tmp_path, capsys):
        # rho_x of shape (n_x, 1), as g_x may be
        n_x = 3
        np.savez(tmp_path / "m.npz", A=0.9 * np.eye(n_x),
                 B=np.ones((n_x, 1)), C=np.ones((1, n_x)) / n_x,
                 Q=np.eye(1), R=0.1 * np.eye(1), N=3,
                 y_ref=np.ones((8, 1)), M_x=np.eye(n_x),
                 g_x=np.full((n_x, 1), 0.8), rho_x=np.full((n_x, 1), 10.0))
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": {"path": "m.npz"}, "scenario": {"steps": 5}})
        assert main(["run", "--config", cfg]) == EXIT_OK
        assert "equivalence:      pass" in capsys.readouterr().out

    def test_run_from_npz(self, tmp_path, capsys):
        steps, N = 4, 2
        rng = np.random.default_rng(0)
        np.savez(
            tmp_path / "m.npz",
            A=np.array([[0.9, 0.1], [0.0, 0.8]]),
            B=np.array([[0.0], [1.0]]),
            C=np.array([[1.0, 0.0]]),
            Q=np.eye(1), R=np.eye(1), N=N,
            y_ref=np.ones((steps + N, 1)),
            M_u=np.array([[1.0], [-1.0]]),
            g_u=np.array([2.0, 2.0]),
            rho_u=np.array([5.0, 5.0]),
        )
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": {"path": "m.npz"},
            "scenario": {"steps": steps},
        })
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "trace.csv").exists()
        assert "equivalence:      pass" in capsys.readouterr().out

    def test_run_reference_too_short(self, tmp_path):
        np.savez(tmp_path / "m.npz",
                 A=np.eye(1) * 0.5, B=np.eye(1), C=np.eye(1),
                 Q=np.eye(1), R=np.eye(1), N=3, y_ref=np.ones((4, 1)))
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "matrices": {"path": "m.npz"},
            "scenario": {"steps": 10},
        })
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
