import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

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
    kept = screen(cache, bound, z)
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

    def test_candidate_length_checked(self):
        with pytest.raises(DimensionError, match="has length 2, expected 1"):
            complete_slacks([1.0, 2.0], scalar_qp(), [-1.0])


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
            k1 = screen(cache, EllipsoidBound(q=q, sigma=s1, G=qp.G), z)
            k2 = screen(cache, EllipsoidBound(q=q, sigma=s2, G=qp.G), z)
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
            kept = screen(precompute_row_norms(qp), inf, z)
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

    def test_candidate_violated_rows_kept(self):
        # the one-sided rule has no clause for a row the candidate
        # violates: v~ lies in the ellipsoid, so the rule keeps it; half
        # the instances scale their rows by 1e-8 to 1e8
        rng = np.random.default_rng(41)
        violated = 0
        for i in range(2000):
            qp, z = random_soft_qp(rng)
            if i % 2:
                s = 10.0 ** rng.uniform(-8.0, 8.0, size=qp.n_c)
                qp = SoftQP(H=qp.H, F=qp.F, W=s[:, None] * qp.W, c=s * qp.c,
                            L=s[:, None] * qp.L, rho=qp.rho)
            v_tilde = rng.normal(scale=2.0, size=qp.n_v)
            eps_tilde, _, want = _screen_pipeline(qp, z, v_tilde)
            got = precompute_row_norms(qp).step(
                v_tilde, qp.unconstrained_minimizer(z), qp.bound(z))
            assert np.array_equal(got.indices, want.indices)
            assert np.isin(np.flatnonzero(eps_tilde > 0.0), got.indices).all()
            violated += np.count_nonzero(eps_tilde > 0.0)
        assert violated > 0

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
    """`SoftQP.unconstrained_minimizer` and its map `v_uc_map @ z`
    against a solve of H v = -Fz through the Cholesky factor."""

    @staticmethod
    def _check(qp, z):
        want = sla.cho_solve((qp.G, False), -qp.F @ z)
        scale = np.abs(want).max()
        for got in (qp.unconstrained_minimizer(z), qp.v_uc_map @ z):
            assert np.abs(got - want).max() <= 1e-12 * scale

    def test_random_stream(self):
        # the stream of acceptance criterion 2, candidate draws included
        rng = np.random.default_rng(100)
        for _ in range(1000):
            qp, z = random_soft_qp(rng)
            rng.normal(scale=2.0, size=qp.n_v)
            self._check(qp, z)

    def test_thermal(self, thermal_setup):
        model, prob, cfg = thermal_setup
        cqp = condense(model, prob)
        assert cqp.v_uc_map.shape == (cqp.n_v, cqp.n_z)
        rng = np.random.default_rng(42)
        for k in range(0, 60, 6):
            z = np.concatenate([rng.normal(scale=5.0, size=cqp.layout.n_x),
                                rng.uniform(size=cqp.n_u),
                                *thermal2d.reference_window(cfg, k)])
            self._check(cqp, z)


class TestCondensedRightHandSide:
    def test_fallbacks_use_the_rollout(self):
        # complete_slacks and screen form c + Lz through cqp.bound on a
        # CondensedQP: they agree exactly with Screener.step and
        # expand_solution given rhs = cqp.bound(z)
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
            bound = ellipsoid_bound(v_tilde, eps_tilde, cqp, z)
            cache = precompute_row_norms(cqp)
            kept = screen(cache, bound, z)
            step = cache.step(v_tilde, cqp.unconstrained_minimizer(z), rhs)
            assert np.array_equal(kept.indices, step.indices)
            red = solve_soft_qp(reduce_qp(cqp, kept), z,
                                rhs=rhs[kept.indices])
            out = expand_solution(red, kept, cqp, z, rhs=rhs)
            removed = np.setdiff1d(np.arange(cqp.n_c), kept.indices)
            assert np.array_equal(out.eps_star[removed], complete_slacks(
                out.v_star, cqp, z)[removed])
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
        out = expand_solution(res, kept, qp, z, rhs=qp.bound(z))
        assert np.array_equal(out.v_star, res.v_star)
        assert np.allclose(out.eps_star, res.eps_star, atol=1e-9)

    def test_reduced_arrays_match_a_checked_problem(self):
        # reduce_qp skips SoftQP's checks; its arrays must still be the
        # read-only ones a checked SoftQP of the kept rows holds
        rng = np.random.default_rng(43)
        problems = [random_soft_qp(rng)[0] for _ in range(30)]
        problems += [condense(*_random_setup(rng)) for _ in range(30)]
        for qp in problems:
            idx = np.flatnonzero(rng.random(qp.n_c) < 0.5)
            red = reduce_qp(qp, KeptSet(indices=idx, n_c=qp.n_c))
            want = SoftQP(H=qp.H, F=qp.F, W=qp.W[idx], c=qp.c[idx],
                          L=None if qp.L is None else qp.L[idx],
                          rho=qp.rho[idx])
            assert type(red) is SoftQP
            assert red.n_c == len(idx)
            # the row-free arrays are the problem's own, not copies
            for name in ("H", "F", "G", "v_uc_map"):
                assert getattr(red, name) is getattr(qp, name)
            for field in dataclasses.fields(SoftQP):
                got = getattr(red, field.name)
                if got is None:
                    assert getattr(want, field.name) is None
                    continue
                assert np.array_equal(got, getattr(want, field.name))
                assert not got.flags.writeable

    def test_empty_kept_set(self):
        qp = scalar_qp(c=5.0)
        z = [-1.0]
        kept = KeptSet(indices=np.zeros(0, dtype=int), n_c=1)
        red = reduce_qp(qp, kept)
        assert red.n_c == 0
        res = solve_soft_qp(red, z)
        assert np.allclose(res.v_star, [1.0])
        out = expand_solution(res, kept, qp, z, rhs=qp.bound(z))
        assert np.array_equal(out.eps_star, [0.0])

    def test_removed_inactive_row_gets_zero_slack(self):
        qp = SoftQP(H=[[2.0]], F=[[2.0]], W=[[1.0], [1.0]], c=[0.5, 2.0],
                    L=np.zeros((2, 1)), rho=[10.0, 10.0])
        z = [-1.0]
        kept = KeptSet(indices=np.array([0]), n_c=2)
        res = solve_soft_qp(reduce_qp(qp, kept), z)
        out = expand_solution(res, kept, qp, z, rhs=qp.bound(z))
        assert np.allclose(out.v_star, [0.5], atol=1e-7)
        assert abs(out.eps_star[1]) <= 1e-9

    def test_classes_are_re_embedded(self):
        # the kept rows' classes go to their rows, every removed row is
        # inactive, and no classes (a cold start) stay none
        qp = SoftQP(H=np.eye(2), F=np.eye(2),
                    W=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]],
                    c=[0.5, 0.5, 10.0, 10.0], L=np.zeros((4, 2)),
                    rho=np.full(4, 10.0))
        z = [-1.0, -1.0]
        rhs = qp.bound(z)
        kept = KeptSet(indices=np.array([0, 1, 3]), n_c=4)
        res = solve_active_set(reduce_qp(qp, kept), z)
        assert np.array_equal(res.classes, [[True, True, False],
                                            [False, False, False]])
        out = expand_solution(res, kept, qp, z, rhs=rhs)
        assert np.array_equal(out.classes, [[True, True, False, False],
                                            [False, False, False, False]])
        marked = dataclasses.replace(
            res, classes=np.array([[False, True, True], [True, False, False]]))
        assert np.array_equal(
            expand_solution(marked, kept, qp, z, rhs=rhs).classes,
            [[False, True, False, True], [True, False, False, False]])
        cold = dataclasses.replace(res, classes=None)
        assert expand_solution(cold, kept, qp, z, rhs=rhs).classes is None

    def test_unsound_removal_is_detected(self):
        # dropping the active row moves the minimizer past it
        qp = scalar_qp(c=0.5, rho=10.0)
        z = [-1.0]
        kept = KeptSet(indices=np.zeros(0, dtype=int), n_c=1)
        res = solve_soft_qp(reduce_qp(qp, kept), z)
        with pytest.raises(EquivalenceViolation):
            expand_solution(res, kept, qp, z, rhs=qp.bound(z))

    def test_kept_set_validation(self):
        with pytest.raises(IndexError):
            KeptSet(indices=np.array([0, 5]), n_c=3)
        with pytest.raises(ValueError):
            KeptSet(indices=np.array([2, 1]), n_c=3)
        with pytest.raises(TypeError, match="integers"):
            KeptSet(indices=[0.5, 1.9], n_c=3)
        # the checked indices do not change when the caller's array does
        idx = np.array([0, 2])
        kept = KeptSet(indices=idx, n_c=3)
        idx[0] = 5
        assert list(kept.indices) == [0, 2]
        # a kept set of another problem would take the wrong rows
        with pytest.raises(DimensionError, match="different problem"):
            reduce_qp(scalar_qp(), kept)

    def test_expand_checks_its_inputs(self):
        # each input of expand_solution must fit the problem: a one-row
        # result over three kept rows would broadcast its slack, and a
        # kept set of another problem would index the wrong rows
        qp = SoftQP(H=[[2.0]], F=[[2.0]], W=np.ones((3, 1)),
                    c=[2.0, 3.0, 4.0], L=np.zeros((3, 1)), rho=np.ones(3))
        z = [-1.0]
        rhs = qp.bound(z)
        kept = KeptSet(indices=np.arange(3), n_c=3)
        res = solve_soft_qp(reduce_qp(qp, kept), z)
        assert np.array_equal(
            expand_solution(res, kept, qp, z, rhs=rhs).eps_star, np.zeros(3))
        one_row = dataclasses.replace(res, eps_star=np.array([0.25]))
        for args, match in (
                ((one_row, kept, qp, z, rhs), "slacks"),
                ((res, KeptSet(indices=np.arange(3), n_c=4), qp, z, rhs),
                 "different problem"),
                ((res, kept, qp, z, rhs[:2]), "rhs")):
            with pytest.raises(DimensionError, match=match):
                expand_solution(*args)
