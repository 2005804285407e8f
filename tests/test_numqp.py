import re

import numpy as np
import pytest

from campc import numqp
from campc.numqp import (
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    OPTIMAL,
    DimensionError,
    NotPositiveDefiniteError,
    SizeGuardError,
    SoftQP,
    SolverOptions,
    cholesky_factor,
    enumerate_oracle,
    solve_active_set,
    solve_soft_qp,
)
from conftest import random_soft_qp, scalar_qp


class TestCholeskyFactor:
    def test_identity(self):
        assert np.array_equal(cholesky_factor(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        G = cholesky_factor(np.diag([4.0, 9.0]))
        assert np.allclose(G, np.diag([2.0, 3.0]))

    def test_two_by_two(self):
        H = np.array([[2.0, 1.0], [1.0, 2.0]])
        G = cholesky_factor(H)
        assert np.allclose(G, [[1.41421, 0.70711], [0.0, 1.22474]],
                           atol=1e-5)
        assert np.abs(G.T @ G - H).max() <= 1e-10
        assert np.allclose(G, np.triu(G))
        assert (np.diag(G) > 0).all()

    def test_random_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            M = rng.normal(size=(n, n))
            H = M.T @ M + 0.1 * np.eye(n)
            G = cholesky_factor(H)
            assert np.abs(G.T @ G - H).max() <= 1e-10 * (1 + np.abs(H).max())

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor([[1.0, 2.0], [2.0, 1.0]])


class TestSoftQPValidation:
    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            SoftQP(H=[[2.0]], F=[[1.0]], W=[[1.0]], c=[0.0], L=[[0.0]],
                   rho=[0.0])

    def test_rejects_mismatched_rho_length(self):
        with pytest.raises(DimensionError):
            SoftQP(H=[[2.0]], F=[[1.0]], W=[[1.0]], c=[0.0], L=[[0.0]],
                   rho=[1.0, 1.0])

    @pytest.mark.parametrize("name, shape", [
        ("W", (4, 2)), ("W", (2, 3)), ("W", (3, 2, 1)), ("W", (5,)),
        ("L", (2, 3)), ("L", (4, 2))])
    def test_rejects_misshapen_w_or_l(self, name, shape):
        # 3 rows, n_v = n_z = 2: a W or L with too many rows, or
        # transposed with the right number of entries, is not reshaped
        data = dict(H=np.eye(2), F=np.ones((2, 2)), W=np.ones((3, 2)),
                    c=np.zeros(3), L=np.ones((3, 2)), rho=np.ones(3))
        data[name] = np.ones(shape)
        want = f"{name} has shape {shape}, expected (3, 2)"
        with pytest.raises(DimensionError, match=f"^{re.escape(want)}$"):
            SoftQP(**data)

    @pytest.mark.parametrize("name, shape, message", [
        ("H", (2, 2, 1), "H must be a 2-d array, got ndim=3"),
        ("H", (2, 3), "H must be square, got (2, 3)"),
        ("F", (3, 2), "F has 3 rows, expected 2")],
        ids=["3-d-H", "nonsquare-H", "F-rows"])
    def test_rejects_misshapen_h_or_f(self, name, shape, message):
        data = dict(H=np.eye(2), F=np.ones((2, 2)), W=np.ones((3, 2)),
                    c=np.zeros(3), L=np.ones((3, 2)), rho=np.ones(3))
        data[name] = np.ones(shape)
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            SoftQP(**data)

    def test_reshapes_1d_w_and_l(self):
        qp = SoftQP(H=np.eye(2), F=np.ones((2, 2)), W=np.arange(6.0),
                    c=np.zeros(3), L=np.arange(6.0), rho=np.ones(3))
        assert np.array_equal(qp.W, np.arange(6.0).reshape(3, 2))
        assert np.array_equal(qp.L, np.arange(6.0).reshape(3, 2))

    def test_data_is_read_only(self):
        qp = scalar_qp()
        with pytest.raises(ValueError):
            qp.H[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["H", "F", "W", "c", "L", "rho"])
    def test_rejects_non_finite(self, name, bad):
        data = dict(H=[[2.0]], F=[[1.0]], W=[[1.0]], c=[0.0], L=[[0.0]],
                    rho=[1.0])
        data[name] = np.array(data[name], dtype=float)
        data[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{name} holds NaN or inf"):
            SoftQP(**data)


class TestSolverOptionsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}, {"tol": np.inf},
        {"max_iterations": 0}, {"max_iterations": 2.5},
        {"max_iterations": True}])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverOptions(**kwargs)


class TestUnconstrainedMinimizer:
    def test_scalar(self):
        qp = scalar_qp()
        # F z = -2 at z = -1
        assert np.allclose(qp.unconstrained_minimizer([-1.0]), [1.0])

    def test_zero_gradient(self):
        qp = SoftQP(H=np.eye(3), F=np.zeros((3, 2)), W=np.zeros((0, 3)),
                    c=[], L=np.zeros((0, 2)), rho=[])
        assert np.array_equal(qp.unconstrained_minimizer([5.0, -2.0]),
                              np.zeros(3))

    def test_two_by_two(self):
        qp = SoftQP(H=[[2.0, 1.0], [1.0, 2.0]], F=np.eye(2),
                    W=np.zeros((0, 2)), c=[], L=np.zeros((0, 2)), rho=[])
        v = qp.unconstrained_minimizer([1.0, 1.0])
        assert np.allclose(v, [-1.0 / 3.0, -1.0 / 3.0])
        assert np.abs(qp.H @ v + np.ones(2)).max() <= 1e-12

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            scalar_qp().unconstrained_minimizer([1.0, 2.0])


def _overflowing_qp():
    """Rows of norm 1e200: W'W, and so the first Newton matrix and the
    active set's Schur complement, overflow."""
    return SoftQP(H=[[1.0]], F=[[1.0]], W=[[1e200], [-1e200]], c=[0.0, 0.0],
                  L=[[0.0], [0.0]], rho=[1.0, 1.0])


class TestSolveSoftQP:
    def test_active_constraint_with_large_penalty(self):
        res = solve_soft_qp(scalar_qp(c=0.5, rho=10.0), [-1.0])
        assert res.status == OPTIMAL
        assert res.iterations == 7
        assert np.allclose(res.v_star, [0.5], atol=1e-7)
        assert np.allclose(res.eps_star, [0.0], atol=1e-7)

    def test_violated_constraint_with_small_penalty(self):
        res = solve_soft_qp(scalar_qp(c=0.5, rho=0.5), [-1.0])
        assert res.status == OPTIMAL
        assert res.iterations == 7
        assert np.allclose(res.v_star, [0.75], atol=1e-7)
        assert np.allclose(res.eps_star, [0.25], atol=1e-7)

    def test_inactive_constraint(self):
        res = solve_soft_qp(scalar_qp(c=5.0, rho=1.0), [-1.0])
        assert res.iterations == 5
        assert np.allclose(res.v_star, [1.0], atol=1e-7)
        assert np.allclose(res.eps_star, [0.0], atol=1e-7)

    def test_newton_failure_is_reported(self):
        res = solve_soft_qp(_overflowing_qp(), [1.0])
        assert res.status == NUMERICAL_FAILURE
        assert res.iterations == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solve", [solve_soft_qp, solve_active_set])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_overflowing_fz_fails_numerically(self, solve, rows):
        # Fz = 1e309 overflows: the solve reports the failure instead of
        # raising or warning, with and without constraint rows
        qp = SoftQP(H=[[2.0]], F=[[1e308]], W=np.ones((rows, 1)),
                    c=[1.0] * rows, L=np.zeros((rows, 1)), rho=[1.0] * rows)
        res = solve(qp, [10.0])
        assert res.status == NUMERICAL_FAILURE
        assert res.iterations == 0

    def test_no_constraints(self):
        qp = SoftQP(H=[[2.0]], F=[[2.0]], W=np.zeros((0, 1)), c=[],
                    L=np.zeros((0, 1)), rho=[])
        res = solve_soft_qp(qp, [-1.0])
        assert res.status == OPTIMAL
        assert np.allclose(res.v_star, [1.0])
        assert res.eps_star.shape == (0,)

    def test_precomputed_rhs_gives_same_result(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            qp, z = random_soft_qp(rng)
            want = solve_soft_qp(qp, z)
            got = solve_soft_qp(qp, z, rhs=qp.bound(z))
            for field in ("v_star", "eps_star"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
            for field in ("objective", "status", "iterations", "kkt_residual"):
                assert getattr(got, field) == getattr(want, field)

    def test_rhs_length_checked(self):
        empty = SoftQP(H=[[2.0]], F=[[2.0]], W=np.zeros((0, 1)), c=[],
                       L=np.zeros((0, 1)), rho=[])
        for qp, rhs in ((scalar_qp(), [0.5, 0.5]), (scalar_qp(), []),
                        (empty, [0.5])):
            with pytest.raises(DimensionError):
                solve_soft_qp(qp, [-1.0], rhs=rhs)

    def test_iteration_cap(self):
        uncapped = solve_soft_qp(scalar_qp(), [-1.0])
        # the sixth iterate already meets tol, so a cap of 6 still ends
        # Optimal, at the uncapped minimizer; one iteration fewer does not
        for cap, status in ((1, MAX_ITERATIONS), (5, MAX_ITERATIONS),
                            (6, OPTIMAL)):
            res = solve_soft_qp(scalar_qp(), [-1.0],
                                SolverOptions(max_iterations=cap))
            assert (res.status, res.iterations) == (status, cap)
        assert np.array_equal(res.v_star, uncapped.v_star)

    def test_kkt_residual_reported(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            qp, z = random_soft_qp(rng)
            res = solve_soft_qp(qp, z)
            assert res.status == OPTIMAL
            assert res.kkt_residual <= 1e-8

    def test_objective_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            qp, z = random_soft_qp(rng)
            res = solve_soft_qp(qp, z)
            direct = (0.5 * res.v_star @ qp.H @ res.v_star
                      + res.v_star @ (qp.F @ z) + qp.rho @ res.eps_star)
            assert abs(res.objective - direct) <= 1e-9 * (1 + abs(direct))

    def test_slack_structure(self):
        # linear penalty drives every slack to its minimal feasible value
        rng = np.random.default_rng(13)
        for _ in range(100):
            qp, z = random_soft_qp(rng)
            res = solve_soft_qp(qp, z)
            want = np.maximum(0.0, qp.W @ res.v_star - qp.bound(z))
            assert np.abs(res.eps_star - want).max() <= 1e-7

    def test_penalty_growth_shrinks_violation(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            qp, z = random_soft_qp(rng)
            totals = []
            for scale in (1.0, 10.0, 100.0):
                scaled = SoftQP(H=qp.H, F=qp.F, W=qp.W, c=qp.c, L=qp.L,
                                rho=scale * qp.rho)
                res = solve_soft_qp(scaled, z)
                totals.append(qp.rho @ res.eps_star)
            assert totals[0] >= totals[1] - 1e-7
            assert totals[1] >= totals[2] - 1e-7


def _kkt_concatenated(r_v, res, rho, eps, lam, mu, scale):
    """The definition `_kkt_residual` computes: one max over all blocks
    concatenated."""
    viol = res - eps
    return np.concatenate([
        np.abs(r_v), np.abs(rho - lam - mu), viol, -eps, -lam, -mu,
        np.abs(lam * viol), np.abs(mu * eps)]).max(initial=0.0) / scale


def _random_blocks(rng):
    """Random finite (r_v, res, rho, eps, lam, mu) of mixed signs, so
    that any block can hold the largest entry."""
    n_v, n_c = int(rng.integers(1, 5)), int(rng.integers(0, 9))
    r_v = rng.normal(size=n_v) * rng.lognormal(sigma=2.0)
    res, eps, lam, mu = (rng.normal(size=n_c) * rng.lognormal(sigma=2.0)
                         for _ in range(4))
    return r_v, res, rng.uniform(0.2, 3.0, size=n_c), eps, lam, mu


class TestKktResidual:
    def test_matches_definition(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            blocks = _random_blocks(rng)
            scale = 1.0 + rng.lognormal()
            assert (numqp._kkt_residual(*blocks, scale)
                    == _kkt_concatenated(*blocks, scale))

    def test_nan_in_any_block_gives_nan(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            blocks = _random_blocks(rng)
            for k, block in enumerate(blocks):
                if not len(block):
                    continue
                bad = list(blocks)
                bad[k] = block.copy()
                bad[k][rng.integers(len(block))] = np.nan
                assert np.isnan(numqp._kkt_residual(*bad, 2.0))


def _masked_step(x, dx, ftb):
    """The ratio test with a mask over the negative components."""
    neg = dx < 0
    if not neg.any():
        return 1.0
    return min(1.0, float((-ftb * x[neg] / dx[neg]).min()))


class TestMaxStep:
    FTB = 0.995

    def _steps(self, rng, kind):
        n = int(rng.integers(1, 60))
        x = rng.lognormal(sigma=3.0, size=n)
        dx = np.abs(rng.normal(size=n)) * rng.lognormal(sigma=3.0, size=n)
        dx[rng.random(n) < 0.3] = 0.0                      # exact zeros
        neg = rng.random(n) < 0.5
        if kind == "crossing":
            # negative components that a full step would take past 0
            dx[neg] = -x[neg] * (1.0 + rng.lognormal(sigma=2.0, size=n))[neg]
        elif kind == "short":
            # negative components a full step leaves above (1 - ftb) x
            dx[neg] = -x[neg] * rng.uniform(0.0, 0.9, size=n)[neg]
        elif kind == "mixed":
            dx[neg] *= -1.0
        return x, dx

    @pytest.mark.parametrize("kind", ["nonnegative", "crossing", "short",
                                      "mixed"])
    def test_properties(self, kind):
        rng = np.random.default_rng(23)
        ftb = self.FTB
        for _ in range(2000):
            x, dx = self._steps(rng, kind)
            alpha = numqp._max_step(x, dx, ftb)
            assert 0.0 < alpha <= 1.0
            assert (x + alpha * dx > 0.0).all()
            if kind in ("nonnegative", "short") or not (dx < 0).any():
                assert alpha == 1.0
            elif kind == "crossing":
                assert alpha < 1.0
            if alpha < 1.0:
                # the blocking component covers ftb of its distance to 0
                i = int(np.argmin(np.where(dx < 0, dx / x, np.inf)))
                left = x[i] + alpha * dx[i]
                assert abs(left - (1.0 - ftb) * x[i]) <= 4 * np.spacing(x[i])
            want = _masked_step(x, dx, ftb)
            assert abs(alpha - want) <= np.spacing(want)


def _cold_loop(qp, z):
    """`_active_set` from every row inactive, as `solve_active_set` runs
    it: its (v, eps, kkt, passes)."""
    none = np.zeros(qp.n_c, dtype=bool)
    return numqp._active_set(qp, qp.bound(z), qp.F @ z, none, none.copy())


def _same_result(got, want):
    for field in ("v_star", "eps_star"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    for field in ("objective", "status", "iterations", "kkt_residual"):
        assert getattr(got, field) == getattr(want, field)
    if want.classes is None:
        assert got.classes is None
    else:
        assert np.array_equal(got.classes, want.classes)


class TestSolveActiveSet:
    @pytest.mark.parametrize("c, rho, v, e, passes", [
        (0.5, 10.0, 0.5, 0.0, 2),    # inactive -> boundary
        (0.5, 0.5, 0.75, 0.25, 3),   # inactive -> boundary -> violated
        (5.0, 1.0, 1.0, 0.0, 1)])
    def test_pinned_examples(self, c, rho, v, e, passes):
        res = solve_active_set(scalar_qp(c=c, rho=rho), [-1.0])
        assert res.status == OPTIMAL
        assert res.iterations == passes
        assert np.allclose(res.v_star, [v], atol=1e-12)
        assert np.allclose(res.eps_star, [e], atol=1e-12)

    # the random-instance streams of acceptance criteria 2 (seed 100,
    # which also draws a candidate per instance) and 8 (seed 400)
    @pytest.mark.parametrize("seed, count, draws_candidate",
                             [(100, 1000, True), (400, 500, False)])
    def test_agrees_with_oracle(self, seed, count, draws_candidate):
        rng = np.random.default_rng(seed)
        worst, fell_back = 0.0, 0
        for _ in range(count):
            qp, z = random_soft_qp(rng)
            if draws_candidate:
                rng.normal(scale=2.0, size=qp.n_v)
            got = solve_active_set(qp, z)
            want = enumerate_oracle(qp, z)
            assert got.status == OPTIMAL
            assert got.kkt_residual <= 1e-8
            worst = max(worst, np.abs(got.v_star - want.v_star).max()
                        / (1.0 + np.abs(want.v_star).max()))
            fell_back += not np.array_equal(got.v_star, _cold_loop(qp, z)[0])
        assert worst <= 1e-6
        # both branches ran: the loop's own exit and the fallback
        assert 0 < fell_back < count / 10

    def test_forced_fallback_returns_ipm_result(self):
        # a tolerance no point meets fails the residual gate, so the
        # result is the interior point method's, field for field
        rng = np.random.default_rng(16)
        opts = SolverOptions(tol=1e-300, max_iterations=30)
        checked = 0
        for _ in range(20):
            qp, z = random_soft_qp(rng)
            if _cold_loop(qp, z)[2] == 0.0:
                continue    # an exact KKT point passes any tolerance
            want = solve_soft_qp(qp, z, opts)
            _same_result(solve_active_set(qp, z, opts), want)
            _same_result(solve_active_set(qp, z, opts, rhs=qp.bound(z)),
                         want)
            checked += 1
        assert checked >= 10

    def test_cycle_ends_in_fallback(self):
        # the loop can cycle; it stops when it has solved the same
        # classes twice, before the 3*n_c + 1 pass cap, and its exit
        # there is no KKT point, so the answer is the fallback's
        rng = np.random.default_rng(1)
        cycled = 0
        for _ in range(300):
            qp, z = random_soft_qp(rng)
            b, g = qp.bound(z), qp.F @ z
            eq, pinned = np.zeros((2, qp.n_c), dtype=bool)
            _, _, kkt, passes = numqp._active_set(qp, b, g, eq, pinned)
            # restarted from its exit classes, a loop that stopped on a
            # KKT point solves once and stops; a cycle goes round again
            # and stops on the same classes
            again = eq.copy(), pinned.copy()
            if numqp._active_set(qp, b, g, *again)[3] == 1:
                continue
            cycled += 1
            assert np.array_equal(again[0], eq)
            assert np.array_equal(again[1], pinned)
            assert passes < 3 * qp.n_c + 1
            assert kkt > 1e-8
            got = solve_active_set(qp, z)
            _same_result(got, solve_soft_qp(qp, z))
            want = enumerate_oracle(qp, z)
            assert got.status == OPTIMAL
            assert np.abs(got.v_star - want.v_star).max() <= 1e-6 * (
                1.0 + np.abs(want.v_star).max())
        assert cycled

    @pytest.mark.filterwarnings("error")
    def test_overflow_falls_back_without_warning(self):
        # the loop's failed solve must not warn, or with warnings as
        # errors it would raise before the fallback runs
        qp = _overflowing_qp()
        _same_result(solve_active_set(qp, [1.0]), solve_soft_qp(qp, [1.0]))

    def test_no_rows_matches_solve_soft_qp(self):
        qp = SoftQP(H=[[2.0, 1.0], [1.0, 2.0]], F=np.eye(2),
                    W=np.zeros((0, 2)), c=[], L=np.zeros((0, 2)), rho=[])
        for rhs in (None, []):
            _same_result(solve_active_set(qp, [1.0, -3.0], rhs=rhs),
                         solve_soft_qp(qp, [1.0, -3.0]))

    def test_rhs_length_checked(self):
        empty = SoftQP(H=[[2.0]], F=[[2.0]], W=np.zeros((0, 1)), c=[],
                       L=np.zeros((0, 1)), rho=[])
        for qp, rhs in ((scalar_qp(), [0.5, 0.5]), (scalar_qp(), []),
                        (empty, [0.5])):
            with pytest.raises(DimensionError):
                solve_active_set(qp, [-1.0], rhs=rhs)


def _random_start(rng, n_c):
    """A random [boundary; violated] class array over n_c rows."""
    cls = rng.integers(0, 3, size=n_c)
    return np.stack([cls == 1, cls == 2])


class TestWarmStart:
    def test_random_starts(self):
        rng = np.random.default_rng(19)
        fell_back = 0
        for _ in range(500):
            qp, z = random_soft_qp(rng)
            start = _random_start(rng, qp.n_c)
            b = qp.bound(z)
            loop = numqp._active_set(qp, b, qp.F @ z, *start.copy())
            got = solve_active_set(qp, z, start=start)
            want = enumerate_oracle(qp, z)
            assert got.status == OPTIMAL
            assert np.abs(got.v_star - want.v_star).max() <= 1e-6 * (
                1.0 + np.abs(want.v_star).max())
            if loop is None or loop[2] > 1e-8:
                # the fallback's answer, which carries no classes
                fell_back += 1
                assert got.classes is None
                _same_result(got, solve_soft_qp(qp, z))
                continue
            assert got.iterations == loop[3]
            # the result holds the classes of the returned point ...
            eq, pinned = got.classes
            res = qp.W @ got.v_star - b
            tiny = 1e-9 * (1.0 + np.abs(b).max())
            assert np.abs(res[eq]).max(initial=0.0) <= tiny
            assert np.all(got.eps_star[~pinned] == 0.0)
            assert np.all(res[~eq & ~pinned] <= tiny)
            # ... so a solve started from them stops after one pass
            rerun = solve_active_set(qp, z, start=got.classes)
            assert rerun.iterations == 1
            assert np.array_equal(rerun.classes, got.classes)
            assert np.array_equal(rerun.v_star, got.v_star)
        # both branches ran: the loop's own exit and the fallback
        assert 0 < fell_back < 50

    def test_all_inactive_start_is_the_cold_start(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            qp, z = random_soft_qp(rng)
            start = np.zeros((2, qp.n_c), dtype=bool)
            _same_result(solve_active_set(qp, z, start=start),
                         solve_active_set(qp, z))

    def test_fallback_result_is_cold(self):
        # a tolerance no point meets forces the interior point method,
        # whose result carries no classes: the next solve starts cold
        rng = np.random.default_rng(21)
        opts = SolverOptions(tol=1e-300, max_iterations=30)
        checked = 0
        for _ in range(40):
            qp, z = random_soft_qp(rng)
            start = _random_start(rng, qp.n_c)
            if numqp._active_set(qp, qp.bound(z), qp.F @ z,
                                 *start.copy())[2] == 0.0:
                continue    # an exact KKT point passes any tolerance
            got = solve_active_set(qp, z, opts, start=start)
            _same_result(got, solve_soft_qp(qp, z, opts))
            assert got.classes is None
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("kind", ["plain", "read-only", "view"])
    def test_start_is_only_read(self, kind):
        # the loop runs on its own copy of the classes, so a read-only
        # start works and a view does not write into the caller's array
        rng = np.random.default_rng(22)
        changed = 0
        for _ in range(100):
            qp, z = random_soft_qp(rng)
            start = _random_start(rng, qp.n_c)
            want = solve_active_set(qp, z, start=start.copy())
            wide = np.zeros((2, qp.n_c + 2), dtype=bool)
            wide[:, 1:-1] = start
            arg = start.copy() if kind != "view" else wide[:, 1:-1]
            if kind == "read-only":
                arg.setflags(write=False)
            _same_result(solve_active_set(qp, z, start=arg), want)
            assert np.array_equal(arg, start)
            assert not wide[:, [0, -1]].any()
            changed += want.classes is not None and not np.array_equal(
                want.classes, start)
        # most solves end on classes other than their start
        assert changed > 50

    @pytest.mark.parametrize("start, error", [
        (np.zeros((2, 2), dtype=bool), DimensionError),
        (np.zeros((1, 1), dtype=bool), DimensionError),
        (np.zeros((2, 1)), DimensionError),
        (np.ones((2, 1), dtype=bool), ValueError)])
    def test_rejects_bad_start(self, start, error):
        with pytest.raises(error, match="start"):
            solve_active_set(scalar_qp(), [-1.0], start=start)


class TestEnumerateOracle:
    def test_matches_pinned_examples(self):
        for c, rho, v, e in [(0.5, 10.0, 0.5, 0.0),
                             (0.5, 0.5, 0.75, 0.25),
                             (5.0, 1.0, 1.0, 0.0)]:
            res = enumerate_oracle(scalar_qp(c=c, rho=rho), [-1.0])
            assert np.allclose(res.v_star, [v], atol=1e-9)
            assert np.allclose(res.eps_star, [e], atol=1e-9)

    def test_unconstrained(self):
        qp = SoftQP(H=[[2.0]], F=[[2.0]], W=np.zeros((0, 1)), c=[],
                    L=np.zeros((0, 1)), rho=[])
        assert np.allclose(enumerate_oracle(qp, [-1.0]).v_star, [1.0])

    def test_size_guard(self):
        rng = np.random.default_rng(0)
        qp = SoftQP(H=np.eye(7), F=np.zeros((7, 1)),
                    W=rng.normal(size=(3, 7)), c=np.ones(3),
                    L=np.zeros((3, 1)), rho=np.ones(3))
        with pytest.raises(SizeGuardError):
            enumerate_oracle(qp, [0.0])

    def test_solver_agrees_with_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            qp, z = random_soft_qp(rng)
            got = solve_soft_qp(qp, z)
            want = enumerate_oracle(qp, z)
            tol = 1e-6 * (1.0 + np.abs(want.v_star).max())
            assert np.abs(got.v_star - want.v_star).max() <= tol

    def test_large_penalty_matches_hard_constraints(self):
        # with huge rho and a nonempty feasible set the soft problem
        # collapses onto the hard-constrained minimizer (eps = 0)
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 30:
            qp, z = random_soft_qp(rng)
            soft = SoftQP(H=qp.H, F=qp.F, W=qp.W, c=qp.c, L=qp.L,
                          rho=np.full(qp.n_c, 1e6))
            res = enumerate_oracle(soft, z)
            if np.abs(res.eps_star).max() > 1e-8:
                continue  # feasible set likely empty for this draw
            hard = _hard_qp_minimizer(qp, z)
            assert np.abs(res.v_star - hard).max() <= 1e-6 * (
                1 + np.abs(hard).max())
            checked += 1

    def test_dependent_or_zero_rows_match_solver(self):
        # dependent boundary rows make a hypothesis's KKT matrix singular,
        # and the oracle skips it; the minimizer must still be found
        rng = np.random.default_rng(23)
        cases = [(SoftQP(H=np.eye(2), F=np.eye(2), W=[[1.0, 0.0], [1.0, 0.0]],
                         c=[1.0, 1.0], L=np.zeros((2, 2)), rho=[1.5, 1.5]),
                  np.array([-3.0, 0.0]))]   # multiplier 2 split over two rows
        for kind in ("repeated", "twice", "all-zero", "zero-b"):
            for _ in range(40):
                qp, z = random_soft_qp(rng)
                W, c, L = qp.W.copy(), qp.c.copy(), qp.L.copy()
                if kind in ("repeated", "twice"):
                    if qp.n_c < 2:
                        continue
                    i, j = rng.choice(qp.n_c, size=2, replace=False)
                    s = 1.0 if kind == "repeated" else 2.0
                    W[j], c[j], L[j] = s * W[i], s * c[i], s * L[i]
                elif kind == "all-zero":
                    W[:] = L[:] = 0.0
                    c = rng.choice([-1.0, 1.0], size=qp.n_c) * np.abs(c)
                else:
                    zero = rng.random(qp.n_c) < 0.5
                    W[zero] = L[zero] = 0.0
                    c[zero] = 0.0
                cases.append((SoftQP(H=qp.H, F=qp.F, W=W, c=c, L=L,
                                     rho=qp.rho), z))
        for qp, z in cases:
            want = enumerate_oracle(qp, z)
            got = solve_soft_qp(qp, z)
            assert np.abs(got.v_star - want.v_star).max() <= 1e-9 * (
                1.0 + np.abs(want.v_star).max())
        split = enumerate_oracle(*cases[0])
        assert np.allclose(split.v_star, [1.0, 0.0], rtol=0, atol=1e-12)


def _hard_qp_minimizer(qp, z):
    """Active-set enumeration for min 1/2 v'Hv + v'Fz s.t. Wv <= b."""
    import itertools

    g = qp.F @ z
    b = qp.bound(z)
    n_v, n_c = qp.n_v, qp.n_c
    best, best_obj = None, np.inf
    for k in range(min(n_v, n_c) + 1):
        for active in itertools.combinations(range(n_c), k):
            A = qp.W[list(active)]
            KKT = np.block([[qp.H, A.T],
                            [A, np.zeros((k, k))]])
            rhs = np.concatenate([-g, b[list(active)]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                continue
            v, lam = sol[:n_v], sol[n_v:]
            if (lam < -1e-9).any():
                continue
            if (qp.W @ v - b > 1e-9).any():
                continue
            obj = 0.5 * v @ qp.H @ v + v @ g
            if obj < best_obj:
                best, best_obj = v, obj
    assert best is not None
    return best
