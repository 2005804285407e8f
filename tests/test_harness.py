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
from test_condenser import _integrator_qp, _random_setup, _shifted


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
        for steps in (0, 2.5, True):
            with pytest.raises(ValueError, match="^steps must be an integer"):
                _small_scenario(steps=steps)

    def test_rejects_bad_repeats(self):
        for repeats in (0, 2.5, True):
            with pytest.raises(ValueError,
                               match="^timing_repeats must be an integer"):
                _small_scenario(timing_repeats=repeats)

    def test_default_initial_state_is_zero(self):
        scen = _small_scenario()
        assert np.array_equal(scen.x0, np.zeros(36))
        assert np.array_equal(scen.u_prev0, np.zeros(3))

    def test_holds_its_own_initial_state(self):
        # a write to the arrays passed in, after the scenario is built,
        # must not change the run
        want = run_closed_loop(_small_scenario(mode="reduced", steps=3))
        x0, u_prev0 = np.zeros(36), np.zeros(3)
        scen = _small_scenario(mode="reduced", steps=3, x0=x0,
                               u_prev0=u_prev0)
        x0 += 5.0
        u_prev0 += 1.0
        got = run_closed_loop(scen)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.inputs, want.inputs)


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


def _shift_sources(cqp):
    """For each row j, the row whose class `shift_warm_start` hands it,
    read one bit of the row index per shift of bool marks."""
    rows = np.arange(cqp.n_c)
    src = np.zeros(cqp.n_c, dtype=int)
    for bit in range(max(cqp.n_c - 1, 0).bit_length()):
        marks = (rows >> bit & 1).astype(bool)
        shifted = _shifted(np.stack([marks, ~marks]), cqp)
        assert np.array_equal(shifted[1], ~shifted[0])
        src |= shifted[0].astype(int) << bit
    return src


class TestShiftClasses:
    def _check(self, cqp):
        src = _shift_sources(cqp)
        rows_per_step = cqp.n_c // cqp.layout.N
        prov = cqp.provenance
        j = np.arange(cqp.n_c - rows_per_step)
        # row j takes the class of the same constraint one step later
        assert np.array_equal(src[j], j + rows_per_step)
        assert np.array_equal(prov.kind[src[j]], prov.kind[j])
        assert np.array_equal(prov.row[src[j]], prov.row[j])
        assert np.array_equal(prov.step[src[j]], prov.step[j] + 1)
        # the last prediction step's rows keep their own previous classes
        last = np.arange(len(j), cqp.n_c)
        assert np.array_equal(src[last], last)
        assert np.array_equal(prov.step[last],
                              prov.step[last - rows_per_step] + 1)

    def test_thermal(self, thermal_setup):
        model, prob, _ = thermal_setup
        self._check(condenser.condense(model, prob))

    def test_random_with_rate_rows(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 20:
            model, prob = _random_setup(rng)
            if prob.N < 2 or prob.rate_constraints is None:
                continue
            self._check(condenser.condense(model, prob))
            checked += 1

    def test_bool_classes(self):
        # three prediction steps of two input rows each
        cqp = _integrator_qp(3, [[1.0], [-1.0]])
        assert cqp.n_c == 6
        classes = np.array([[True, False, False, True, False, True],
                            [False, True, True, False, False, False]])
        shifted = _shifted(classes, cqp)
        assert shifted.dtype == bool
        assert np.array_equal(shifted, [[False, True, False, True, False, True],
                                        [True, False, False, False, False, False]])
        assert _shifted(None, cqp) is None
        assert np.array_equal(
            _shifted(np.zeros((2, 0), dtype=bool), _integrator_qp(3)),
            np.zeros((2, 0), dtype=bool))


def _tight_scenario(**kw):
    # a bound below the target, so kept rows carry positive slacks
    bound = thermal2d.GaussianSpec(width=0.45, peak=9.5)
    cfg = thermal2d.ThermalConfig(n=6, output_block=2, horizon=3,
                                  ref_target=10.5, ref_ramp_steps=10,
                                  bound=bound)
    model, prob, cfg = thermal2d.build_thermal_benchmark(cfg)
    return Scenario(model=model, problem=prob,
                    references=lambda k: thermal2d.reference_window(cfg, k),
                    **kw)


class TestWarmStart:
    def _run(self, monkeypatch, cold):
        passes, starts = [], []
        solve, shift = harness.solve_active_set, condenser.shift_warm_start

        def recording_solve(qp, z, opts=None, rhs=None, start=None):
            starts.append(None if start is None else start.copy())
            res = solve(qp, z, opts, rhs=rhs, start=start)
            # the solve only reads its start
            assert start is None or np.array_equal(start, starts[-1])
            passes.append(res.iterations)
            return res

        monkeypatch.setattr(harness, "solve_active_set", recording_solve)
        if cold:
            monkeypatch.setattr(condenser, "shift_warm_start",
                                lambda prev, qp: (shift(prev, qp)[0], None))
        res = run_closed_loop(_tight_scenario(mode="reduced", steps=20,
                                              timing_repeats=2))
        monkeypatch.undo()
        return res, passes, starts

    def test_same_answers_in_fewer_passes(self, monkeypatch):
        warm, warm_passes, starts = self._run(monkeypatch, cold=False)
        cold, cold_passes, _ = self._run(monkeypatch, cold=True)
        assert [t.n_kept for t in warm.traces] == [
            t.n_kept for t in cold.traces]
        assert np.abs(warm.inputs - cold.inputs).max() <= 1e-9
        assert max(t.eps_penalty for t in warm.traces) > 0.0
        assert sum(warm_passes) < sum(cold_passes)
        # both timing repeats of a step start from the same classes
        for a, b in zip(starts[::2], starts[1::2]):
            assert a is b is None or np.array_equal(a, b)
        assert any(s is not None and s.any() for s in starts)


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


class TestTimed:
    def test_rounds_chain_and_best_times(self, monkeypatch):
        # durations[r][i]: how long the clock says call i of round r took
        durations = [[3.0, 5.0], [1.0, 7.0], [2.0, 4.0]]
        readings, t = [], 0.0
        for row in durations:
            for d in row:
                readings += [t, t + d]
                t += d + 0.5
        clock = iter(readings)
        monkeypatch.setattr(harness, "perf_counter", clock.__next__)
        calls = []

        def computation(name):
            def call(arg):
                calls.append((name, arg))
                return name, len(calls)
            return call

        outs, best = harness._timed(
            [computation("first"), computation("second")], repeats=3)
        assert calls == [("first", None), ("second", ("first", 1)),
                         ("first", None), ("second", ("first", 3)),
                         ("first", None), ("second", ("first", 5))]
        assert outs == [("first", 5), ("second", 6)]
        assert best == [1.0, 4.0]
        assert next(clock, None) is None   # two readings per call


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
        (dict(n_c_values=(-5, 20, 40)), "n_c"), (dict(n_v=2.5), "n_v"),
        (dict(n_v=True), "n_v"), (dict(n_c_values=(0, 20.5, 40)), "n_c"),
        (dict(repeats=2.5), "repeats")])
    def test_rejects_bad_sizes(self, kwargs, name):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer >= "):
            screening_time_sweep(**{"repeats": 2, **kwargs})
