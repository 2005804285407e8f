import numpy as np
import pytest

from campc import thermal2d
from campc.condenser import condense
from campc.numqp import (DimensionError, SoftQP, enumerate_oracle,
                         solve_active_set, solve_soft_qp)
from campc.screener import (
    EllipsoidBound,
    EquivalenceViolation,
    KeptSet,
    complete_slacks,
    ellipsoid_bound,
    expand_solution,
    precompute_row_norms,
    reduce_qp,
    screen,
)
from conftest import random_soft_qp, scalar_qp
from test_condenser import _random_setup


def _screen_pipeline(qp, z, v_tilde):
    eps_tilde = complete_slacks(v_tilde, qp, z)
    bound = ellipsoid_bound(v_tilde, eps_tilde, qp, z)
    cache = precompute_row_norms(qp)
    kept = screen(cache, bound, z, eps_tilde)
    return eps_tilde, bound, kept


class TestRowNorms:
    def test_identity(self):
        qp = SoftQP(H=np.eye(2), F=np.zeros((2, 1)), W=np.eye(2),
                    c=np.ones(2), L=np.zeros((2, 1)), rho=np.ones(2))
        assert np.allclose(precompute_row_norms(qp).zeta, [1.0, 1.0])

    def test_euclidean_norm(self):
        qp = SoftQP(H=np.eye(2), F=np.zeros((2, 1)), W=[[3.0, 4.0]],
                    c=[1.0], L=np.zeros((1, 1)), rho=[1.0])
        assert np.allclose(precompute_row_norms(qp).zeta, [5.0])

    def test_scaled_factor(self):
        # H = G'G with G = diag(2, 1); row [2, 0] maps to [1, 0]
        qp = SoftQP(H=np.diag([4.0, 1.0]), F=np.zeros((2, 1)),
                    W=[[2.0, 0.0]], c=[1.0], L=np.zeros((1, 1)), rho=[1.0])
        assert np.allclose(precompute_row_norms(qp).zeta, [1.0])

    def test_no_rows(self):
        # n_c = 0: the triangular solve and the norm give an empty zeta
        qp = SoftQP(H=np.eye(2), F=np.zeros((2, 1)), W=np.zeros((0, 2)),
                    c=np.zeros(0), L=np.zeros((0, 1)), rho=np.zeros(0))
        cache = precompute_row_norms(qp)
        assert cache.zeta.shape == (0,)
        kept = cache.step(np.ones(2), np.zeros(2), np.zeros(0))
        assert len(kept) == 0 and kept.n_c == 0


class TestCompleteSlacks:
    def test_feasible_candidate(self):
        qp = scalar_qp(c=5.0)
        assert np.array_equal(complete_slacks([1.0], qp, [-1.0]), [0.0])

    def test_elementwise_clip(self):
        qp = SoftQP(H=[[2.0]], F=[[0.0]], W=[[1.0], [1.0], [1.0]],
                    c=[2.0, 1.0, -1.0], L=np.zeros((3, 1)),
                    rho=np.ones(3))
        assert np.array_equal(complete_slacks([1.0], qp, [0.0]),
                              [0.0, 0.0, 2.0])


class TestEllipsoidBound:
    def test_pinned_feasible_case(self):
        qp = scalar_qp(c=0.5, rho=10.0)
        z = [-1.0]
        bound = ellipsoid_bound([0.5], [0.0], qp, z)
        assert np.allclose(bound.q, [0.75])
        assert abs(bound.sigma - 0.125) <= 1e-12
        # interval [0.5, 1.0]: both the candidate and the minimizer lie in it
        assert bound.contains([0.5], rel_tol=1e-9)
        assert bound.contains([1.0], rel_tol=1e-9)
        assert not bound.contains([1.1])
        v_star = enumerate_oracle(qp, z).v_star
        assert bound.contains(v_star, rel_tol=1e-7)

    def test_pinned_violated_case(self):
        qp = scalar_qp(c=0.5, rho=10.0)
        z = [-1.0]
        eps = complete_slacks([1.5], qp, z)
        assert np.allclose(eps, [1.0])
        bound = ellipsoid_bound([1.5], eps, qp, z)
        assert np.allclose(bound.q, [1.25])
        assert abs(bound.sigma - 10.125) <= 1e-12

    def test_degenerate_at_unconstrained_minimizer(self):
        qp = scalar_qp(c=5.0)
        z = [-1.0]
        v_uc = qp.unconstrained_minimizer(z)
        bound = ellipsoid_bound(v_uc, np.zeros(1), qp, z)
        assert bound.sigma <= 1e-14

    def test_candidate_membership_identity(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            qp, z = random_soft_qp(rng)
            v_tilde = rng.normal(scale=2.0, size=qp.n_v)
            eps_tilde = complete_slacks(v_tilde, qp, z)
            bound = ellipsoid_bound(v_tilde, eps_tilde, qp, z)
            assert bound.radius_sq(v_tilde) <= bound.sigma * (1 + 1e-9) + 1e-12

    def test_minimizer_containment(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            qp, z = random_soft_qp(rng)
            v_tilde = rng.normal(scale=2.0, size=qp.n_v)
            eps_tilde = complete_slacks(v_tilde, qp, z)
            bound = ellipsoid_bound(v_tilde, eps_tilde, qp, z)
            v_star = solve_soft_qp(qp, z).v_star
            assert bound.radius_sq(v_star) <= bound.sigma * (1 + 1e-7) + 1e-9


class TestScreen:
    def test_far_constraint_removed(self):
        qp = SoftQP(H=[[2.0]], F=[[2.0]], W=[[1.0], [1.0]], c=[0.5, 2.0],
                    L=np.zeros((2, 1)), rho=[10.0, 10.0])
        _, _, kept = _screen_pipeline(qp, [-1.0], [0.5])
        assert list(kept.indices) == [0]

    def test_tangent_constraint_kept(self):
        # candidate equals the constrained minimizer: the ellipsoid is
        # tangent to the active row, which must stay in the problem
        qp = scalar_qp(c=0.5, rho=10.0)
        _, _, kept = _screen_pipeline(qp, [-1.0], [0.5])
        assert list(kept.indices) == [0]

    def test_violated_candidate_row_kept(self):
        qp = scalar_qp(c=0.5, rho=10.0)
        eps_tilde, _, kept = _screen_pipeline(qp, [-1.0], [1.5])
        assert eps_tilde[0] > 0
        assert list(kept.indices) == [0]

    def test_zero_normal_rows(self):
        qp = SoftQP(H=[[2.0]], F=[[2.0]], W=[[0.0], [0.0]], c=[1.0, -1.0],
                    L=np.zeros((2, 1)), rho=[1.0, 1.0])
        _, _, kept = _screen_pipeline(qp, [-1.0], [0.0])
        # vacuous row dropped, always-violated row kept
        assert list(kept.indices) == [1]

    def test_kept_grows_with_sigma(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            qp, z = random_soft_qp(rng)
            cache = precompute_row_norms(qp)
            q = rng.normal(size=qp.n_v)
            s1, s2 = sorted(rng.uniform(0.0, 5.0, size=2))
            eps = np.zeros(qp.n_c)
            k1 = screen(cache, EllipsoidBound(q=q, sigma=s1, G=qp.G), z, eps)
            k2 = screen(cache, EllipsoidBound(q=q, sigma=s2, G=qp.G), z, eps)
            assert set(k1.indices) <= set(k2.indices)

    def test_active_rows_never_removed(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            qp, z = random_soft_qp(rng)
            res = solve_soft_qp(qp, z)
            v_tilde = res.v_star + rng.normal(scale=0.3, size=qp.n_v)
            _, _, kept = _screen_pipeline(qp, z, v_tilde)
            resid = qp.W @ res.v_star - qp.bound(z)
            active = (res.eps_star > 1e-9) | (np.abs(resid) <= 1e-9)
            assert set(np.flatnonzero(active)) <= set(kept.indices)

    def test_screening_is_sound(self):
        rng = np.random.default_rng(34)
        removals = 0
        for _ in range(300):
            qp, z = random_soft_qp(rng)
            v_tilde = rng.normal(scale=1.5, size=qp.n_v)
            _, _, kept = _screen_pipeline(qp, z, v_tilde)
            removals += qp.n_c - len(kept)
            full = enumerate_oracle(qp, z)
            red = enumerate_oracle(reduce_qp(qp, kept), z)
            tol = 1e-6 * (1.0 + np.abs(full.v_star).max())
            assert np.abs(red.v_star - full.v_star).max() <= tol
        assert removals > 0  # the test is vacuous if nothing was screened

    def test_non_finite_sigma_keeps_every_row(self):
        # a NaN candidate gives sigma = NaN; an infinite sigma bounds
        # nothing either
        rng = np.random.default_rng(39)
        for _ in range(50):
            qp, z = random_soft_qp(rng)
            v_tilde = np.full(qp.n_v, np.nan)
            _, bound, kept = _screen_pipeline(qp, z, v_tilde)
            assert np.isnan(bound.sigma)
            assert list(kept.indices) == list(range(qp.n_c))
            inf = EllipsoidBound(q=np.zeros(qp.n_v), sigma=np.inf, G=qp.G)
            kept = screen(precompute_row_norms(qp), inf, z, np.zeros(qp.n_c))
            assert list(kept.indices) == list(range(qp.n_c))


class TestScreenerStep:
    """`Screener.step`, the screen the closed loop and the sweep run."""

    def test_matches_reference_api(self):
        # arbitrary candidates, frequently infeasible, so eps~ > 0 and
        # the rho'eps~ term of sigma are exercised
        rng = np.random.default_rng(100)
        for _ in range(2000):
            qp, z = random_soft_qp(rng)
            v_tilde = rng.normal(scale=2.0, size=qp.n_v)
            cache = precompute_row_norms(qp)
            _, _, want = _screen_pipeline(qp, z, v_tilde)
            got = cache.step(v_tilde, qp.unconstrained_minimizer(z),
                             qp.bound(z))
            assert np.array_equal(got.indices, want.indices)
            assert got.n_c == qp.n_c

    def test_is_sound(self):
        rng = np.random.default_rng(37)
        removals = 0
        for _ in range(300):
            qp, z = random_soft_qp(rng)
            v_tilde = rng.normal(scale=1.5, size=qp.n_v)
            kept = precompute_row_norms(qp).step(
                v_tilde, qp.unconstrained_minimizer(z), qp.bound(z))
            removals += qp.n_c - len(kept)
            full = enumerate_oracle(qp, z)
            red = enumerate_oracle(reduce_qp(qp, kept), z)
            tol = 1e-6 * (1.0 + np.abs(full.v_star).max())
            assert np.abs(red.v_star - full.v_star).max() <= tol
        assert removals > 0

    def test_zero_normal_rows(self):
        qp = SoftQP(H=[[2.0]], F=[[2.0]], W=[[0.0], [0.0]], c=[1.0, -1.0],
                    L=np.zeros((2, 1)), rho=[1.0, 1.0])
        z = np.array([-1.0])
        kept = precompute_row_norms(qp).step(
            np.zeros(1), qp.unconstrained_minimizer(z), qp.bound(z))
        assert list(kept.indices) == [1]

    def test_zero_normal_rows_random(self):
        # rows of W zeroed at random, c of both signs: the one keep rule
        # keeps each zero row with c_j + L_j z < 0 (the candidate violates
        # it) and stays sound
        rng = np.random.default_rng(38)
        zero_kept = zero_removed = 0
        for _ in range(300):
            qp, z = random_soft_qp(rng)
            zero = rng.random(qp.n_c) < 0.4
            W = np.where(zero[:, None], 0.0, qp.W)
            c = rng.choice([-1.0, 1.0], size=qp.n_c) * np.abs(qp.c)
            qp = SoftQP(H=qp.H, F=qp.F, W=W, c=c, L=qp.L, rho=qp.rho)
            b = qp.bound(z)
            v_tilde = rng.normal(scale=1.5, size=qp.n_v)
            kept = precompute_row_norms(qp).step(
                v_tilde, qp.unconstrained_minimizer(z), b)
            _, _, want = _screen_pipeline(qp, z, v_tilde)
            assert np.array_equal(kept.indices, want.indices)
            violated = np.flatnonzero(zero & (b < 0.0))
            assert np.isin(violated, kept.indices).all()
            zero_kept += len(violated)
            zero_removed += np.count_nonzero(
                ~np.isin(np.flatnonzero(zero), kept.indices))
            full = enumerate_oracle(qp, z)
            red = enumerate_oracle(reduce_qp(qp, kept), z)
            tol = 1e-6 * (1.0 + np.abs(full.v_star).max())
            assert np.abs(red.v_star - full.v_star).max() <= tol
        assert zero_kept > 0 and zero_removed > 0

    def test_nan_candidate_keeps_every_row(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            qp, z = random_soft_qp(rng)
            kept = precompute_row_norms(qp).step(
                np.full(qp.n_v, np.nan), qp.unconstrained_minimizer(z),
                qp.bound(z))
            assert list(kept.indices) == list(range(qp.n_c))
            assert kept.n_c == qp.n_c


class TestUnconstrainedMinimizerMap:
    """`Screener.v_uc_map @ z` against `SoftQP.unconstrained_minimizer`."""

    @staticmethod
    def _rel_err(cache, qp, z):
        want = qp.unconstrained_minimizer(z)
        return np.abs(cache.v_uc_map @ z - want).max() / np.abs(want).max()

    def test_random_stream(self):
        # the stream of acceptance criterion 2, candidate draws included
        rng = np.random.default_rng(100)
        for _ in range(1000):
            qp, z = random_soft_qp(rng)
            rng.normal(scale=2.0, size=qp.n_v)
            assert self._rel_err(precompute_row_norms(qp), qp, z) <= 1e-12

    def test_thermal(self, thermal_setup):
        model, prob, cfg = thermal_setup
        cqp = condense(model, prob)
        cache = precompute_row_norms(cqp)
        assert cache.v_uc_map.shape == (cqp.n_v, cqp.n_z)
        rng = np.random.default_rng(42)
        for k in range(0, 60, 6):
            z = np.concatenate([rng.normal(scale=5.0, size=cqp.layout.n_x),
                                rng.uniform(size=cqp.n_u),
                                *thermal2d.reference_window(cfg, k)])
            assert self._rel_err(cache, cqp, z) <= 1e-12


class TestCondensedRightHandSide:
    def test_fallbacks_use_the_rollout(self):
        # without rhs, each call on a CondensedQP forms c + Lz through
        # cqp.bound: the results equal those given cqp.bound(z) exactly
        rng = np.random.default_rng(36)
        checked = 0
        for _ in range(40):
            cqp = condense(*_random_setup(rng))
            if cqp.n_c == 0:
                continue
            z = rng.normal(size=cqp.n_z)
            rhs = cqp.bound(z)
            v_tilde = rng.normal(size=cqp.n_v)
            eps_tilde = complete_slacks(v_tilde, cqp, z)
            assert np.array_equal(
                eps_tilde, complete_slacks(v_tilde, cqp, z, rhs=rhs))
            bound = ellipsoid_bound(v_tilde, eps_tilde, cqp, z)
            cache = precompute_row_norms(cqp)
            kept = screen(cache, bound, z, eps_tilde)
            red = solve_soft_qp(reduce_qp(cqp, kept), z,
                                rhs=rhs[kept.indices])
            out = expand_solution(red, kept, cqp, z)
            want = expand_solution(red, kept, cqp, z, rhs=rhs)
            assert np.array_equal(out.eps_star, want.eps_star)
            checked += 1
        assert checked > 10

    def test_reduced_problem_needs_rhs(self):
        # a reduced CondensedQP has no L, so c + Lz must be passed in
        rng = np.random.default_rng(37)
        cqp = condense(*_random_setup(rng))
        while cqp.n_c == 0:
            cqp = condense(*_random_setup(rng))
        red = reduce_qp(cqp, KeptSet(indices=np.arange(cqp.n_c),
                                     n_c=cqp.n_c))
        assert cqp.L is None and red.L is None
        z = rng.normal(size=cqp.n_z)
        for solve in (solve_soft_qp, solve_active_set):
            with pytest.raises(DimensionError, match="rhs"):
                solve(red, z)
        want = solve_soft_qp(cqp, z)
        got = solve_soft_qp(red, z, rhs=cqp.bound(z))
        assert np.array_equal(got.v_star, want.v_star)


class TestReduceAndExpand:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(35)
        qp, z = random_soft_qp(rng)
        kept = KeptSet(indices=np.arange(qp.n_c), n_c=qp.n_c)
        red = reduce_qp(qp, kept)
        assert np.array_equal(red.W, qp.W)
        assert np.array_equal(red.c, qp.c)
        res = solve_soft_qp(red, z)
        out = expand_solution(res, kept, qp, z)
        assert np.array_equal(out.v_star, res.v_star)
        assert np.allclose(out.eps_star, res.eps_star, atol=1e-9)

    def test_empty_kept_set(self):
        qp = scalar_qp(c=5.0)
        z = [-1.0]
        kept = KeptSet(indices=np.zeros(0, dtype=int), n_c=1)
        red = reduce_qp(qp, kept)
        assert red.n_c == 0
        res = solve_soft_qp(red, z)
        assert np.allclose(res.v_star, [1.0])
        out = expand_solution(res, kept, qp, z)
        assert np.array_equal(out.eps_star, [0.0])

    def test_removed_inactive_row_gets_zero_slack(self):
        qp = SoftQP(H=[[2.0]], F=[[2.0]], W=[[1.0], [1.0]], c=[0.5, 2.0],
                    L=np.zeros((2, 1)), rho=[10.0, 10.0])
        z = [-1.0]
        kept = KeptSet(indices=np.array([0]), n_c=2)
        res = solve_soft_qp(reduce_qp(qp, kept), z)
        out = expand_solution(res, kept, qp, z)
        assert np.allclose(out.v_star, [0.5], atol=1e-7)
        assert abs(out.eps_star[1]) <= 1e-9

    def test_unsound_removal_is_detected(self):
        # dropping the active row moves the minimizer past it
        qp = scalar_qp(c=0.5, rho=10.0)
        z = [-1.0]
        kept = KeptSet(indices=np.zeros(0, dtype=int), n_c=1)
        res = solve_soft_qp(reduce_qp(qp, kept), z)
        with pytest.raises(EquivalenceViolation):
            expand_solution(res, kept, qp, z)

    def test_kept_set_validation(self):
        with pytest.raises(IndexError):
            KeptSet(indices=np.array([0, 5]), n_c=3)
        with pytest.raises(ValueError):
            KeptSet(indices=np.array([2, 1]), n_c=3)
