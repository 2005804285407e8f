import csv

import numpy as np
import pytest

from campc import condenser, harness, screener, thermal2d
from campc.harness import (
    CSV_COLUMNS,
    Scenario,
    run_closed_loop,
    screening_time_sweep,
    verify_equivalence,
    write_trace_csv,
)


def _small_scenario(mode="verify", steps=8, **kw):
    cfg = thermal2d.ThermalConfig(n=6, output_block=2, horizon=3)
    model, prob, cfg = thermal2d.build_thermal_benchmark(cfg)
    refs = lambda k: thermal2d.reference_window(cfg, k)
    return Scenario(model=model, problem=prob, references=refs,
                    steps=steps, mode=mode, **kw)


class TestScenarioValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            _small_scenario(mode="turbo")

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            _small_scenario(steps=0)

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            _small_scenario(timing_repeats=0)

    def test_default_initial_state_is_zero(self):
        scen = _small_scenario()
        assert np.array_equal(scen.x0, np.zeros(36))
        assert np.array_equal(scen.u_prev0, np.zeros(3))


class TestClosedLoop:
    def test_input_recursion(self):
        res = run_closed_loop(_small_scenario(mode="reduced"))
        for k, trace in enumerate(res.traces):
            assert np.array_equal(res.inputs[k], trace.u)
            assert trace.u.shape == (3,)
        assert res.states.shape == (len(res.traces) + 1, 36)
        assert res.inputs.shape == (len(res.traces), 3)

    def test_state_propagation(self):
        scen = _small_scenario(mode="reduced")
        res = run_closed_loop(scen)
        A, B = scen.model.A, scen.model.B
        for k in range(len(res.inputs)):
            want = A @ res.states[k] + B @ res.inputs[k]
            assert np.abs(res.states[k + 1] - want).max() <= 1e-12

    def test_full_mode_keeps_everything(self):
        res = run_closed_loop(_small_scenario(mode="full", steps=4))
        n_c = res.qp.n_c
        for trace in res.traces:
            assert trace.n_kept == n_c
            assert trace.t_screen_s == 0.0
            assert trace.dev_inf is None

    def test_modes_agree_on_trajectory(self):
        runs = {mode: run_closed_loop(_small_scenario(mode=mode))
                for mode in ("full", "reduced", "verify")}
        base = runs["full"]
        for mode in ("reduced", "verify"):
            dev = np.abs(runs[mode].states - base.states).max()
            assert dev <= 1e-9 * (1 + np.abs(base.states).max())
            dev_u = np.abs(runs[mode].inputs - base.inputs).max()
            assert dev_u <= 1e-9

    def test_deterministic_rerun(self):
        scen = _small_scenario(mode="reduced")
        a = run_closed_loop(scen)
        b = run_closed_loop(scen)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.inputs, b.inputs)
        assert [t.n_kept for t in a.traces] == [t.n_kept for t in b.traces]
        assert [t.objective for t in a.traces] == [
            t.objective for t in b.traces]

    def test_step_zero_screens_from_v_uc(self, monkeypatch):
        # with nothing to shift at step 0, the candidate is v_uc itself;
        # every later step shifts the previous solution
        screened, shifted = [], []
        step, shift = screener.Screener.step, condenser.shift_warm_start

        def recording_step(cache, v_tilde, v_uc, rhs):
            screened.append((v_tilde, v_uc))
            return step(cache, v_tilde, v_uc, rhs)

        def recording_shift(prev, qp):
            shifted.append(prev)
            return shift(prev, qp)

        monkeypatch.setattr(screener.Screener, "step", recording_step)
        monkeypatch.setattr(condenser, "shift_warm_start", recording_shift)
        run_closed_loop(_small_scenario(mode="reduced", steps=3))
        assert len(screened) == 3
        assert np.array_equal(*screened[0])
        assert len(shifted) == 2
        assert all(prev is not None for prev in shifted)

    def test_verify_mode_deviation_recorded(self):
        res = run_closed_loop(_small_scenario(mode="verify"))
        for trace in res.traces:
            assert trace.dev_inf is not None
            assert trace.t_solve_full_s is not None
            assert trace.dev_inf <= 1e-6 * (1 + trace.v_full_norm)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("mode", ["full", "reduced"])
    @pytest.mark.parametrize("block", ["x", "u_prev", "reference window"])
    def test_bad_block_is_named(self, mode, block):
        scen = _small_scenario(mode=mode, steps=4)
        if block == "x":
            scen.x0[5] = np.nan
        elif block == "u_prev":
            scen.u_prev0[1] = np.inf
        else:
            good = scen.references
            scen.references = lambda k: (
                good(k) if k < 2 else [np.full(4, -np.inf)] + good(k)[1:])
        with pytest.raises(ValueError, match=f"^{block} holds NaN or inf"):
            run_closed_loop(scen)


class TestVerifyReport:
    def test_report_fields(self):
        res = run_closed_loop(_small_scenario(mode="verify"))
        rep = verify_equivalence(res.traces, res.qp.n_c)
        assert rep.steps == len(res.traces)
        assert rep.n_c == res.qp.n_c
        assert rep.dev_ok
        assert 0 <= rep.max_kept <= rep.n_c
        assert rep.kept_fraction == rep.max_kept / rep.n_c
        assert rep.max_dev >= rep.median_dev >= 0.0

    def test_rejects_trace_without_deviations(self):
        res = run_closed_loop(_small_scenario(mode="reduced", steps=3))
        with pytest.raises(ValueError):
            verify_equivalence(res.traces, res.qp.n_c)


class TestTraceCsv:
    def test_schema_and_determinism(self, tmp_path):
        scen = _small_scenario(mode="verify", steps=4)
        paths = []
        for name in ("a.csv", "b.csv"):
            res = run_closed_loop(scen)
            path = tmp_path / name
            write_trace_csv(res.traces, path, n_u=3)
            paths.append(path)
        rows_a, rows_b = (list(csv.reader(p.read_text().splitlines()))
                          for p in paths)
        header = rows_a[0]
        assert header == list(CSV_COLUMNS) + ["u_0", "u_1", "u_2"]
        assert len(rows_a) == 5
        timing = {header.index(c) for c in
                  ("t_screen_s", "t_solve_s", "t_solve_full_s")}
        for ra, rb in zip(rows_a, rows_b):
            trimmed = [
                (x for i, x in enumerate(r) if i not in timing)
                for r in (ra, rb)]
            assert list(trimmed[0]) == list(trimmed[1])

    def test_mode_specific_fields_empty(self, tmp_path):
        res = run_closed_loop(_small_scenario(mode="reduced", steps=3))
        path = tmp_path / "t.csv"
        write_trace_csv(res.traces, path, n_u=3)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        for row in rows:
            assert row["t_solve_full_s"] == ""
            assert row["dev_inf"] == ""
            assert float(row["t_screen_s"]) > 0.0


class TestScreeningSweep:
    def test_linear_scaling(self):
        out = screening_time_sweep(n_c_values=(500, 1000, 2000, 4000),
                                   repeats=50, seed=1)
        assert len(out["t_screen_s"]) == 4
        assert all(t > 0 for t in out["t_screen_s"])
        assert out["slope"] > 0
        assert out["r_squared"] > 0.9

    def test_rejects_no_repeats(self):
        with pytest.raises(ValueError):
            screening_time_sweep(n_c_values=(100, 200), repeats=0)

    @pytest.mark.parametrize("sizes", [(500,), (500, 500)])
    def test_rejects_fewer_than_two_sizes(self, sizes):
        with pytest.raises(ValueError):
            screening_time_sweep(n_c_values=sizes, repeats=2)

    @pytest.mark.parametrize("sizes", [(500, 1000), (0, 20, 20)])
    def test_rejects_two_sizes(self, sizes):
        # a line through two points fits them exactly: R^2 = 1 on no evidence
        with pytest.raises(ValueError, match="three distinct"):
            screening_time_sweep(n_c_values=sizes, repeats=2)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(n_v=0), "n_v"), (dict(n_v=-2), "n_v"),
        (dict(n_c_values=(-5, 20, 40)), "n_c")])
    def test_rejects_bad_sizes(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= "):
            screening_time_sweep(repeats=2, **kwargs)
