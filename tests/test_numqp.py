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
        {"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan},
        {"max_iterations": 0}])
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
        res = solve_soft_qp(scalar_qp(), [-1.0],
                            SolverOptions(max_iterations=1))
        assert res.status == MAX_ITERATIONS

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
                                rho=scale * qp.rho, G=qp.G)
                res = solve_soft_qp(scaled, z)
                totals.append(qp.rho @ res.eps_star)
            assert totals[0] >= totals[1] - 1e-7
            assert totals[1] >= totals[2] - 1e-7


def _cold_loop(qp, z):
    """`_active_set` from every row inactive, as `solve_active_set` runs
    it: its (v, eps, lam, passes) and the KKT residual of that point."""
    b, g = qp.bound(z), qp.F @ z
    none = np.zeros(qp.n_c, dtype=bool)
    v, eps, lam, passes = numqp._active_set(qp, b, g, none, none.copy())
    kkt = numqp._kkt_residual(qp, b, g, v, eps, lam, qp.rho - lam)
    return v, eps, lam, passes, kkt


def _same_result(got, want):
    for field in ("v_star", "eps_star"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    for field in ("objective", "status", "iterations", "kkt_residual"):
        assert getattr(got, field) == getattr(want, field)


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
            if _cold_loop(qp, z)[4] == 0.0:
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
            v, eps, lam, passes = numqp._active_set(qp, b, g, eq, pinned)
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
            kkt = numqp._kkt_residual(qp, b, g, v, eps, lam, qp.rho - lam)
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
                          rho=np.full(qp.n_c, 1e6), G=qp.G)
            res = enumerate_oracle(soft, z)
            if np.abs(res.eps_star).max() > 1e-8:
                continue  # feasible set likely empty for this draw
            hard = _hard_qp_minimizer(qp, z)
            assert np.abs(res.v_star - hard).max() <= 1e-6 * (
                1 + np.abs(hard).max())
            checked += 1


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
