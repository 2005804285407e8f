"""End-to-end acceptance gate.

Each test checks one headline property of the screening MPC scheme at
its stated tolerance and prints a single pass/fail line (run pytest
with -s to see them as they complete).
"""
import numpy as np
import pytest

from campc import harness, screener, thermal2d
from campc.condenser import condense
from campc.numqp import (
    OPTIMAL,
    SoftQP,
    SolverOptions,
    enumerate_oracle,
    solve_soft_qp,
)
from conftest import random_soft_qp
from test_condenser import _random_setup, _rollout
from test_numqp import _hard_qp_minimizer

STEPS = 60


def _line(num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({label}) failed{tail}"


@pytest.fixture(scope="module")
def thermal_run(thermal_setup):
    """One verify-mode closed loop over the full benchmark, shared by
    the equivalence, reduction, and timing criteria."""
    model, prob, cfg = thermal_setup
    scen = harness.Scenario(
        model=model, problem=prob,
        references=lambda k: thermal2d.reference_window(cfg, k),
        steps=STEPS, mode="verify",
        options=SolverOptions(tol=1e-8),
        timing_repeats=15)
    return harness.run_closed_loop(scen)


def test_criterion_1_closed_loop_equivalence(thermal_run):
    traces = thermal_run.traces
    devs = [t.dev_inf / (1.0 + t.v_full_norm) for t in traces]
    # the run itself checks every removed constraint: re-embedding the
    # reduced solution raises if any removed row has slack above 1e-7,
    # so reaching this point certifies the removed-row half of the bar
    ok = len(traces) == STEPS and max(devs) <= 1e-6
    _line(1, "closed-loop equivalence", ok,
          f"max relative deviation {max(devs):.2e}")


def test_criterion_2_micro_equivalence():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(1000):
        qp, z = random_soft_qp(rng)
        # arbitrary candidate, frequently infeasible
        v_tilde = rng.normal(scale=2.0, size=qp.n_v)
        eps_tilde = screener.complete_slacks(v_tilde, qp, z)
        bound = screener.ellipsoid_bound(v_tilde, eps_tilde, qp, z)
        cache = screener.precompute_row_norms(qp)
        kept = screener.screen(cache, bound, z)
        full = enumerate_oracle(qp, z)
        red = enumerate_oracle(screener.reduce_qp(qp, kept), z)
        scale = 1.0 + np.abs(full.v_star).max()
        worst = max(worst, np.abs(red.v_star - full.v_star).max() / scale)
    _line(2, "micro-scale oracle equivalence", worst <= 1e-6,
          f"1000 instances, worst deviation {worst:.2e}")


def test_criterion_3_constraint_reduction(thermal_run):
    kept = np.array([t.n_kept for t in thermal_run.traces])
    n_c = thermal_run.qp.n_c
    peak = int(kept.argmax())
    hump = (20 <= peak <= 40
            and kept[:10].max() < kept[peak]
            and kept[-10:].max() < kept[peak])
    ok = n_c == 2030 and kept.max() <= 150 and hump
    _line(3, "constraint reduction", ok,
          f"max |A| {kept.max()} of {n_c} "
          f"({100.0 * kept.max() / n_c:.1f}%), peak at step {peak}")


def test_criterion_4_speedup(thermal_run):
    timed = thermal_run.traces[1:]   # step 0 pays one-time warm-up costs
    t_full = np.median([t.t_solve_full_s for t in timed])
    t_red = np.median([t.t_screen_s + t.t_solve_s for t in timed])
    ratio = t_full / t_red
    _line(4, "median speedup", ratio >= 20.0,
          f"measured ratio {ratio:.1f}x "
          f"(full {t_full * 1e3:.2f} ms, reduced {t_red * 1e3:.3f} ms)")


def test_criterion_5_screening_overhead(thermal_run):
    sweep = harness.screening_time_sweep(
        n_c_values=(500, 1000, 2000, 4000), n_v=15, repeats=50, seed=0)
    r2 = sweep["r_squared"]
    timed = thermal_run.traces[1:]
    slow = [t.k for t in timed if t.t_screen_s > t.t_solve_s]
    ok = r2 >= 0.95 and not slow

    def least_ratio(empty):
        # the per-step gate's margin over the steps that keep no row
        # (an empty solve), or over those that keep some
        ratios = [t.t_solve_s / t.t_screen_s for t in timed
                  if (t.n_kept == 0) == empty]
        return f"{min(ratios):.2f}" if ratios else "none"

    _line(5, "screening overhead", ok,
          f"linear fit R^2 {r2:.4f}, "
          f"screen > solve at {len(slow)} of {len(timed)} steps, "
          f"least solve/screen {least_ratio(True)} on empty steps and "
          f"{least_ratio(False)} on non-empty ones")


def test_criterion_6_ellipsoid_properties():
    rng = np.random.default_rng(200)
    ok_a = ok_b = ok_c = True
    for _ in range(10000):
        qp, z = random_soft_qp(rng)
        v_tilde = rng.normal(scale=2.0, size=qp.n_v)
        eps_tilde = screener.complete_slacks(v_tilde, qp, z)
        bound = screener.ellipsoid_bound(v_tilde, eps_tilde, qp, z)
        ok_a &= bound.contains(v_tilde, rel_tol=1e-9)
        v_star = solve_soft_qp(qp, z).v_star
        ok_b &= bound.contains(v_star, rel_tol=1e-7)
        cache = screener.precompute_row_norms(qp)
        s1, s2 = sorted(rng.uniform(0.0, 4.0, size=2))
        k1 = screener.screen(
            cache, screener.EllipsoidBound(q=bound.q, sigma=s1, G=qp.G), z)
        k2 = screener.screen(
            cache, screener.EllipsoidBound(q=bound.q, sigma=s2, G=qp.G), z)
        ok_c &= set(k1.indices) <= set(k2.indices)
    _line(6, "ellipsoid properties", ok_a and ok_b and ok_c,
          f"10000 triples: candidate-in {ok_a}, minimizer-in {ok_b}, "
          f"kept-set monotone {ok_c}")


def test_criterion_7_condensing_correctness():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(200):
        model, prob = _random_setup(rng)
        cqp = condense(model, prob)
        z = rng.normal(size=cqp.n_z)
        v = rng.normal(size=cqp.n_v)
        want_cost, want_cons = _rollout(model, prob, z, v)
        got_cost = (0.5 * v @ cqp.qp.H @ v + v @ (cqp.qp.F @ z)
                    + cqp.cost_constant(z))
        worst = max(worst, abs(got_cost - want_cost) / (1 + abs(want_cost)))
        if cqp.n_c:
            got_cons = cqp.qp.W @ v - cqp.qp.bound(z)
            worst = max(worst, np.abs(got_cons - want_cons).max()
                        / (1 + np.abs(want_cons).max()))
    _line(7, "condensing correctness", worst <= 1e-9,
          f"200 instances, worst relative error {worst:.2e}")


def test_criterion_8_solver_quality():
    rng = np.random.default_rng(400)
    worst = worst_kkt = worst_hard = 0.0
    hard_checked = 0
    for i in range(500):
        qp, z = random_soft_qp(rng)
        res = solve_soft_qp(qp, z)
        want = enumerate_oracle(qp, z)
        scale = 1.0 + np.abs(want.v_star).max()
        worst = max(worst, np.abs(res.v_star - want.v_star).max() / scale)
        if res.status == OPTIMAL:
            worst_kkt = max(worst_kkt, res.kkt_residual)
        if i < 60:
            stiff = SoftQP(H=qp.H, F=qp.F, W=qp.W, c=qp.c, L=qp.L,
                           rho=np.full(qp.n_c, 1e6))
            res_s = solve_soft_qp(stiff, z)
            if np.abs(res_s.eps_star).max() <= 1e-8:  # feasible set nonempty
                hard = _hard_qp_minimizer(qp, z)
                worst_hard = max(
                    worst_hard,
                    np.abs(res_s.v_star - hard).max()
                    / (1 + np.abs(hard).max()))
                hard_checked += 1
    ok = worst <= 1e-6 and worst_kkt <= 1e-8 and worst_hard <= 1e-6
    _line(8, "solver quality", ok and hard_checked >= 20,
          f"oracle dev {worst:.2e}, kkt {worst_kkt:.2e}, "
          f"hard-limit dev {worst_hard:.2e} on {hard_checked} cases")
