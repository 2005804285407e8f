"""Closed-loop simulation of the screening MPC scheme.

Runs the receding-horizon loop in one of three modes:

  full     solve the complete soft-constrained QP at every step;
  reduced  screen first, solve only the kept constraints;
  verify   do both and record the deviation between the minimizers.

The full problem is solved by the interior point method
(`solve_soft_qp`), the paper's baseline and the reference of the
speedup ratio.  The reduced problem is solved by the active set
(`solve_active_set`), which falls back to the interior point method
when its exit is not a KKT point; with no kept row either is the closed
form.  The screen timer covers `Screener.step`, its shape check
included; the reduced-solve timer covers `reduce_qp` and that solve.

The active set is warm-started by the receding horizon principle, as
the screen's candidate is.  The loop carries one value, the last
step's solution over all rows (`expand_solution`), with the row
classes (at the boundary, violated) of its minimizer; outside the
timers `shift_warm_start` shifts them and the candidate one prediction
step.  The reduced solve gathers the kept rows' classes as its `start`
inside its timer and only reads them, so every timing repeat starts
from the same classes.  After a result with no classes (a fallback to
the interior point method, an empty kept set) the next step starts cold.

The plant is propagated with the controller model (no mismatch).  The
scenario, the model, the problem and the condensed QP each hold their
own copy of what they are given, read-only but for x0 and u_prev0, so
a caller's later write to an array cannot change the run.

Each step forms the constraint right-hand side c + Lz once, from the
model's free response (`CondensedQP.bound`), outside every timer.  The
full solve, the screen, the reduced solve and the re-embedding all
reuse it, so neither the full-solve timer nor the screen and
reduced-solve timers include it.  In reduced and verify mode the
screen's v_uc is `cqp.unconstrained_minimizer(z)`, also outside every
timer (the solvers form their own); it is the screen's candidate at
step 0, where there is no solution to shift.  Only those two modes
build the screener (`precompute_row_norms`); full mode never screens.
With a `KroneckerOperator` A (the thermal model's), the free response
comes from the horizon powers of its factors that `condense` caches,
and the plant update forms A @ x through the factors, so neither forms
a dense n_x x n_x matrix.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from campc import condenser, screener
from campc.condenser import CondensedQP, StateSpaceModel, TrackingProblem
from campc.numqp import (
    OPTIMAL,
    SoftQP,
    SolverFailure,
    SolverOptions,
    solve_active_set,
    solve_soft_qp,
    _as_vector,
    _require_count,
)

MODES = ("full", "reduced", "verify")

CSV_COLUMNS = ("k", "n_kept", "t_screen_s", "t_solve_s", "t_solve_full_s",
               "dev_inf", "objective", "y_max", "eps_penalty")

# acceptance limit on the per-step deviation, relative to 1 + |v_full|_inf
DEV_TOL = 1e-6


@dataclass
class Scenario:
    """One closed-loop experiment; it holds writable copies of x0, u_prev0."""

    model: StateSpaceModel
    problem: TrackingProblem
    references: object            # callable k -> list of N reference vectors
    steps: int = 60
    x0: np.ndarray = None
    u_prev0: np.ndarray = None
    mode: str = "reduced"
    options: SolverOptions = field(default_factory=SolverOptions)
    timing_repeats: int = 1   # best-of-R timing of the pure per-step work

    def __post_init__(self):
        _require_count("steps", self.steps, 1)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _require_count("timing_repeats", self.timing_repeats, 1)
        for name, n in (("x0", self.model.n_x), ("u_prev0", self.model.n_u)):
            val = getattr(self, name)
            setattr(self, name, np.zeros(n) if val is None
                    else _as_vector(val, name, n).copy())


@dataclass
class StepTrace:
    k: int
    n_kept: int
    t_screen_s: float
    t_solve_s: float
    t_solve_full_s: float = None
    dev_inf: float = None
    objective: float = 0.0
    y_max: float = 0.0
    eps_penalty: float = 0.0
    u: np.ndarray = None
    v_full_norm: float = None     # not written to CSV; used for pass checks


@dataclass
class RunResult:
    traces: list
    states: np.ndarray     # (steps + 1, n_x), closed-loop trajectory
    inputs: np.ndarray     # (steps, n_u)
    qp: CondensedQP


@dataclass
class Report:
    steps: int
    n_c: int
    max_dev: float
    median_dev: float
    max_kept: int
    kept_fraction: float
    speedup: float
    dev_ok: bool


def run_closed_loop(scenario: Scenario) -> RunResult:
    """Execute the receding-horizon loop and collect per-step traces.

    Raises SolverFailure (with the partial trace attached) if a QP solve
    does not reach optimality.
    """
    cqp = condenser.condense(scenario.model, scenario.problem)
    A, B = scenario.model.A, scenario.model.B
    C = scenario.model.C

    x = scenario.x0.copy()
    u_prev = scenario.u_prev0.copy()
    states = [x.copy()]
    inputs = []
    traces = []
    prev = None
    do_full = scenario.mode in ("full", "verify")
    do_reduced = scenario.mode in ("reduced", "verify")
    cache = screener.precompute_row_norms(cqp) if do_reduced else None

    for k in range(scenario.steps):
        z = condenser.assemble_z(x, u_prev, scenario.references(k),
                                 cqp.layout)
        # shared step setup, outside both timers: c + Lz poses the MPC
        # problem regardless of screening, and both solves reuse it
        rhs = cqp.bound(z)

        trace = StepTrace(k=k, n_kept=cqp.n_c, t_screen_s=0.0, t_solve_s=0.0)
        repeats = scenario.timing_repeats
        res_full = None
        if do_full:
            (res_full,), (t_full,) = _timed(
                [lambda _: solve_soft_qp(cqp, z, scenario.options, rhs=rhs)],
                repeats)
            if do_reduced:
                trace.t_solve_full_s = t_full
            else:
                trace.t_solve_s = t_full
            _require_optimal(res_full, k, traces)

        if do_reduced:
            # screening setup, also outside both timers
            v_uc = cqp.unconstrained_minimizer(z)
            v_tilde, shifted = ((v_uc, None) if prev is None
                                else condenser.shift_warm_start(prev, cqp))

            def solve_step(kept):
                red = screener.reduce_qp(cqp, kept)
                start = None if shifted is None else shifted[:, kept.indices]
                return solve_active_set(red, z, scenario.options,
                                        rhs=rhs[kept.indices], start=start)

            # screen and solve are timed back to back within each repeat
            # so a load spike hits both measurements, not just one; an
            # overflowing Fz keeps every row and fails the solve, unwarned
            with np.errstate(over="ignore", invalid="ignore"):
                (kept, res_red), (trace.t_screen_s, trace.t_solve_s) = _timed(
                    [lambda _: cache.step(v_tilde, v_uc, rhs), solve_step],
                    repeats)
            _require_optimal(res_red, k, traces)
            result = screener.expand_solution(res_red, kept, cqp, z, rhs=rhs)
            trace.n_kept = len(kept)
            if res_full is not None:
                dev = np.abs(result.v_star - res_full.v_star).max()
                trace.dev_inf = float(dev)
                trace.v_full_norm = float(np.abs(res_full.v_star).max())
        else:
            result = res_full

        u = condenser.extract_input(result.v_star, u_prev)
        x = A @ x + B @ u
        trace.objective = float(result.objective)
        trace.y_max = float((C @ x).max()) if C.shape[0] else 0.0
        trace.eps_penalty = float(cqp.rho @ result.eps_star)
        trace.u = u.copy()
        traces.append(trace)
        states.append(x.copy())
        inputs.append(u.copy())
        u_prev = u
        prev = result

    return RunResult(traces=traces, states=np.array(states),
                     inputs=np.array(inputs), qp=cqp)


def _timed(fns, repeats):
    """Run chained pure computations in `repeats` rounds.

    Each round calls `fns` in order, each on the previous one's output
    (the first on None), and times each call alone.  Returns the last
    round's outputs and each computation's best time.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        outs, out = [], None
        for i, fn in enumerate(fns):
            t0 = perf_counter()
            out = fn(out)
            best[i] = min(best[i], perf_counter() - t0)
            outs.append(out)
    return outs, best


def _require_optimal(res, k, traces):
    if res.status != OPTIMAL:
        err = SolverFailure(
            f"QP solve at step {k} ended with status {res.status} "
            f"(kkt residual {res.kkt_residual:.3e})")
        err.traces = traces
        raise err


def verify_equivalence(traces, n_c: int) -> Report:
    """Summarize a verify-mode trace and check equivalence.

    The deviation test is relative: dev <= DEV_TOL * (1 + |v_full|_inf)
    at every step.  The warm-up step is excluded from timing medians.
    """
    devs = [t.dev_inf for t in traces if t.dev_inf is not None]
    if not devs:
        raise ValueError("trace carries no verify-mode deviations")
    dev_ok = all(
        t.dev_inf <= DEV_TOL * (1.0 + t.v_full_norm)
        for t in traces if t.dev_inf is not None)
    timed = traces[1:] if len(traces) > 1 else traces
    t_full = np.median([t.t_solve_full_s for t in timed])
    t_red = np.median([t.t_screen_s + t.t_solve_s for t in timed])
    speedup = float(t_full / t_red) if t_red > 0 else float("inf")
    max_kept = max(t.n_kept for t in traces)
    return Report(
        steps=len(traces),
        n_c=n_c,
        max_dev=float(max(devs)),
        median_dev=float(np.median(devs)),
        max_kept=max_kept,
        kept_fraction=max_kept / n_c if n_c else 0.0,
        speedup=speedup,
        dev_ok=bool(dev_ok),
    )


def write_trace_csv(traces, path, n_u: int) -> None:
    """Trace CSV; verify-only fields are left empty in other modes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(CSV_COLUMNS) + [f"u_{i}" for i in range(n_u)])
        for t in traces:
            row = [t.k, t.n_kept, _fmt(t.t_screen_s), _fmt(t.t_solve_s),
                   _fmt(t.t_solve_full_s), _fmt(t.dev_inf),
                   _fmt(t.objective), _fmt(t.y_max), _fmt(t.eps_penalty)]
            u = t.u if t.u is not None else np.zeros(n_u)
            row += [_fmt(float(ui)) for ui in u]
            writer.writerow(row)


def _fmt(value):
    return "" if value is None else repr(float(value))


def screening_time_sweep(n_c_values=(500, 1000, 2000, 4000), n_v: int = 15,
                         repeats: int = 50, seed: int = 0) -> dict:
    """Measure `Screener.step` time against constraint count on random data.

    Returns the measured times plus slope/intercept and R^2 of a linear
    fit, for checking that screening scales linearly in n_c.  Raises
    ValueError unless `repeats` and `n_v` are integers >= 1 and every
    n_c an integer >= 0, or for fewer than three distinct sizes, since
    a line fits two points exactly.
    """
    _require_count("repeats", repeats, 1)
    _require_count("n_v", n_v, 1)
    for n_c in n_c_values:
        _require_count("n_c", n_c, 0)
    if len(set(n_c_values)) < 3:
        raise ValueError("the fit needs at least three distinct n_c values")
    rng = np.random.default_rng(seed)
    n_z = 40
    screens = []
    for n_c in n_c_values:
        M = rng.normal(size=(n_v, n_v))
        H = M @ M.T + 0.1 * np.eye(n_v)
        qp = SoftQP(
            H=H,
            F=rng.normal(size=(n_v, n_z)),
            W=rng.normal(size=(n_c, n_v)),
            c=rng.normal(size=n_c) + 2.0,
            L=rng.normal(size=(n_c, n_z)),
            rho=rng.uniform(0.5, 2.0, size=n_c),
        )
        cache = screener.precompute_row_norms(qp)
        z = rng.normal(size=n_z)
        v_uc = qp.unconstrained_minimizer(z)
        v_tilde = v_uc + 0.1 * rng.normal(size=n_v)
        screens.append(lambda _, step=cache.step, args=(
            v_tilde, v_uc, qp.bound(z)): step(*args))
    # the sizes take turns within each round, so a burst of host load
    # slows every size alike instead of all rounds of one size
    _, times = _timed(screens, repeats)
    x = np.asarray(n_c_values, dtype=float)
    y = np.asarray(times)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "n_c": list(n_c_values),
        "t_screen_s": times,
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": r_squared,
    }
