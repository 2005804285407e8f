import numpy as np
import pytest

from campc.condenser import (
    KIND_INPUT,
    KIND_RATE,
    KIND_STATE,
    ConstraintBlock,
    StateSpaceModel,
    TrackingProblem,
    assemble_z,
    condense,
    extract_input,
    shift_warm_start,
)
from campc.numqp import DimensionError, cholesky_factor, solve_soft_qp


def _random_setup(rng, with_constraints=True):
    n_x = int(rng.integers(1, 4))
    n_u = int(rng.integers(1, 3))
    n_y = int(rng.integers(1, 3))
    N = int(rng.integers(1, 5))
    model = StateSpaceModel(A=rng.normal(size=(n_x, n_x)) * 0.5,
                            B=rng.normal(size=(n_x, n_u)),
                            C=rng.normal(size=(n_y, n_x)))
    MQ = rng.normal(size=(n_y, n_y))
    MR = rng.normal(size=(n_u, n_u))
    blocks = {}
    if with_constraints:
        for key, dim in (("state_constraints", n_x),
                         ("input_constraints", n_u),
                         ("rate_constraints", n_u)):
            rows = int(rng.integers(0, 3))
            if rows:
                blocks[key] = ConstraintBlock(
                    M=rng.normal(size=(rows, dim)),
                    g=rng.normal(size=rows),
                    rho=rng.uniform(0.5, 2.0, size=rows))
    prob = TrackingProblem(Q=MQ.T @ MQ, R=MR.T @ MR + 0.5 * np.eye(n_u),
                           N=N, **blocks)
    return model, prob


def _rollout(model, prob, z, v):
    """Simulate the prediction and evaluate cost/constraints directly."""
    n_x, n_u, n_y = model.n_x, model.n_u, model.n_y
    N = prob.N
    x = z[:n_x]
    u = z[n_x:n_x + n_u]
    refs = z[n_x + n_u:].reshape(N, n_y)
    cost = 0.0
    cons = []
    sc, ic, rc = (prob.state_constraints, prob.input_constraints,
                  prob.rate_constraints)
    for i in range(N):
        du = v[i * n_u:(i + 1) * n_u]
        u = u + du
        x = model.A @ x + model.B @ u
        err = model.C @ x - refs[i]
        cost += err @ prob.Q @ err + du @ prob.R @ du
        if sc is not None:
            cons.extend(sc.M @ x - sc.g)
        if ic is not None:
            cons.extend(ic.M @ u - ic.g)
        if rc is not None:
            cons.extend(rc.M @ du - rc.g)
    return cost, np.array(cons)


class TestCondensePinnedCases:
    def test_scalar_integrator(self):
        model = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        prob = TrackingProblem(Q=[[1.0]], R=[[1.0]], N=1)
        cqp = condense(model, prob)
        assert np.allclose(cqp.qp.H, [[4.0]])
        assert np.allclose(cqp.qp.F, [[2.0, 2.0, -2.0]])

    def test_zero_output_weight(self):
        model = StateSpaceModel(A=[[0.3]], B=[[1.0]], C=[[1.0]])
        R = np.array([[2.5]])
        prob = TrackingProblem(Q=[[0.0]], R=R, N=1)
        cqp = condense(model, prob)
        assert np.allclose(cqp.qp.H, 2.0 * R)
        assert np.allclose(cqp.qp.F, 0.0)

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model, prob = _random_setup(rng)
            cqp = condense(model, prob)
            rows = sum(
                b.rows for b in (prob.state_constraints,
                                 prob.input_constraints,
                                 prob.rate_constraints) if b is not None)
            assert cqp.n_v == prob.N * model.n_u
            assert cqp.n_c == prob.N * rows
            assert cqp.n_z == model.n_x + model.n_u + prob.N * model.n_y

    def test_hessian_is_positive_definite(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            model, prob = _random_setup(rng)
            cholesky_factor(condense(model, prob).qp.H)


class TestCondenseAgainstRollout:
    def test_cost_matches(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            model, prob = _random_setup(rng, with_constraints=False)
            cqp = condense(model, prob)
            z = rng.normal(size=cqp.n_z)
            v = rng.normal(size=cqp.n_v)
            want, _ = _rollout(model, prob, z, v)
            got = (0.5 * v @ cqp.qp.H @ v + v @ (cqp.qp.F @ z)
                   + cqp.cost_constant(z))
            assert abs(got - want) <= 1e-9 * (1 + abs(want))

    def test_constraints_match(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            model, prob = _random_setup(rng)
            cqp = condense(model, prob)
            if cqp.n_c == 0:
                continue
            z = rng.normal(size=cqp.n_z)
            v = rng.normal(size=cqp.n_v)
            _, want = _rollout(model, prob, z, v)
            got = cqp.qp.W @ v - cqp.qp.bound(z)
            assert np.abs(got - want).max() <= 1e-10 * (
                1 + np.abs(want).max())

    def test_rollout_bound_matches_dense_product(self):
        rng = np.random.default_rng(11)
        no_state_rows = set()   # both with and without state rows
        for _ in range(60):
            model, prob = _random_setup(rng)
            cqp = condense(model, prob)
            no_state_rows.add(prob.state_constraints is None)
            z = rng.normal(size=cqp.n_z)
            want = cqp.qp.bound(z)
            got = cqp.bound(z)
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(
                want).max(initial=1.0)
        assert no_state_rows == {True, False}

    def test_rollout_bound_matches_on_thermal(self, thermal_setup):
        model, prob, _ = thermal_setup
        cqp = condense(model, prob)
        rng = np.random.default_rng(12)
        for _ in range(3):
            z = rng.normal(scale=5.0, size=cqp.n_z)
            want = cqp.qp.bound(z)
            assert np.abs(cqp.bound(z) - want).max() <= 1e-12 * np.abs(
                want).max()

    def test_provenance_is_a_bijection(self):
        rng = np.random.default_rng(9)
        model, prob = _random_setup(rng)
        cqp = condense(model, prob)
        prov = cqp.provenance
        assert len(prov) == cqp.n_c
        triples = set(zip(prov.kind, prov.step, prov.row))
        assert len(triples) == cqp.n_c
        assert set(prov.kind) <= {KIND_STATE, KIND_INPUT, KIND_RATE}

    def test_zero_reference_fixed_point(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            model, prob = _random_setup(rng)
            # make the origin strictly feasible
            blocks = {}
            for key in ("state_constraints", "input_constraints",
                        "rate_constraints"):
                blk = getattr(prob, key)
                if blk is not None:
                    blocks[key] = ConstraintBlock(
                        M=blk.M, g=np.abs(blk.g) + 0.5, rho=blk.rho)
            prob = TrackingProblem(Q=prob.Q, R=prob.R, N=prob.N, **blocks)
            cqp = condense(model, prob)
            z = np.zeros(cqp.n_z)
            res = solve_soft_qp(cqp.qp, z)
            assert np.abs(res.v_star).max() <= 1e-7
            assert np.abs(res.eps_star).max(initial=0.0) <= 1e-7


class TestPerStepVectors:
    def test_assemble_z_concatenates(self):
        assert np.array_equal(assemble_z([1.0], [2.0], [[3.0]]),
                              [1.0, 2.0, 3.0])

    def test_assemble_z_zeroes(self):
        z = assemble_z(np.zeros(2), np.zeros(1), [np.zeros(1)] * 3)
        assert np.array_equal(z, np.zeros(6))

    def test_assemble_z_layout_check(self):
        model = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        prob = TrackingProblem(Q=[[1.0]], R=[[1.0]], N=2)
        cqp = condense(model, prob)
        with pytest.raises(DimensionError):
            assemble_z([1.0, 2.0], [0.0], [[0.0], [0.0]], layout=cqp.layout)

    def test_warm_start_shift(self):
        model = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        prob = TrackingProblem(Q=[[1.0]], R=[[1.0]], N=3)
        cqp = condense(model, prob)
        prev = solve_soft_qp(cqp.qp, np.zeros(cqp.n_z))
        prev = type(prev)(v_star=np.array([1.0, 2.0, 3.0]),
                          eps_star=prev.eps_star, objective=0.0,
                          status=prev.status, iterations=0, kkt_residual=0.0)
        assert np.array_equal(shift_warm_start(prev, cqp, np.zeros(cqp.n_z)),
                              [2.0, 3.0, 0.0])

    def test_warm_start_block_shift(self):
        model = StateSpaceModel(A=np.eye(2), B=np.eye(2), C=np.eye(2))
        prob = TrackingProblem(Q=np.eye(2), R=np.eye(2), N=2)
        cqp = condense(model, prob)
        prev = solve_soft_qp(cqp.qp, np.zeros(cqp.n_z))
        prev = type(prev)(v_star=np.array([1.0, 2.0, 3.0, 4.0]),
                          eps_star=prev.eps_star, objective=0.0,
                          status=prev.status, iterations=0, kkt_residual=0.0)
        assert np.array_equal(shift_warm_start(prev, cqp, np.zeros(cqp.n_z)),
                              [3.0, 4.0, 0.0, 0.0])

    def test_warm_start_cold(self):
        model = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
        prob = TrackingProblem(Q=[[1.0]], R=[[1.0]], N=2)
        cqp = condense(model, prob)
        z = np.array([1.0, 0.0, 1.0, 1.0])
        assert np.allclose(shift_warm_start(None, cqp, z),
                           cqp.qp.unconstrained_minimizer(z))

    def test_extract_input(self):
        assert np.allclose(extract_input([0.5], [2.0]), [2.5])
        assert np.allclose(extract_input([0.0, 1.0], [2.0]), [2.0])
        assert np.allclose(
            extract_input([0.1, 0.2, 0.3, 0.4], [1.0, -1.0]), [1.1, -0.8])


class TestModelValidation:
    def test_rejects_feedthrough(self):
        with pytest.raises(ValueError):
            StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])

    def test_rejects_nonsquare_a(self):
        with pytest.raises(Exception):
            StateSpaceModel(A=np.ones((2, 3)), B=np.ones((2, 1)),
                            C=np.ones((1, 2)))
