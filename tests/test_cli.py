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
        assert out.count("pass") == 3

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
        ["--n-c", "500", "1000", "500"]])
    def test_sweep_nc_bad_arguments(self, args):
        assert main(["sweep-nc", *args]) == EXIT_CONFIG

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
