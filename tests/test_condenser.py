import dataclasses
import itertools
import re

import numpy as np
import pytest
from scipy import sparse

from campc.condenser import (
    KIND_INPUT,
    KIND_RATE,
    KIND_STATE,
    ConstraintBlock,
    KroneckerOperator,
    StateSpaceModel,
    TrackingProblem,
    ZLayout,
    assemble_z,
    condense,
    extract_input,
    shift_warm_start,
)
from campc.numqp import DimensionError, cholesky_factor, solve_soft_qp
from campc.screener import precompute_row_norms


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


def _setups_over_block_patterns(rng, per_pattern=6):
    """Random setups for every pattern of empty and non-empty state,
    input and rate blocks, n_c = 0 included; an empty block is either
    absent or has zero rows."""
    for present in itertools.product((False, True), repeat=3):
        for k in range(per_pattern):
            model, prob = _random_setup(rng, with_constraints=False)
            keys = ("state_constraints", "input_constraints",
                    "rate_constraints")
            dims = (model.n_x, model.n_u, model.n_u)
            blocks = {}
            for key, dim, on in zip(keys, dims, present):
                rows = int(rng.integers(1, 3)) if on else 0
                if on or k % 2:
                    blocks[key] = ConstraintBlock(
                        M=rng.normal(size=(rows, dim)),
                        g=rng.normal(size=rows),
                        rho=rng.uniform(0.5, 2.0, size=rows))
            yield model, TrackingProblem(Q=prob.Q, R=prob.R, N=prob.N,
                                         **blocks)


def _rollout(model, prob, z, v, labels=None):
    """Simulate the prediction and evaluate cost/constraints directly.

    When given a list, `labels` receives the (kind, step, row) of each
    constraint value, in the order they are returned.
    """
    n_x, n_u, n_y = model.n_x, model.n_u, model.n_y
    N = prob.N
    x = z[:n_x]
    u = z[n_x:n_x + n_u]
    refs = z[n_x + n_u:].reshape(N, n_y)
    cost = 0.0
    cons = []
    for i in range(N):
        du = v[i * n_u:(i + 1) * n_u]
        u = u + du
        x = model.A @ x + model.B @ u
        err = model.C @ x - refs[i]
        cost += err @ prob.Q @ err + du @ prob.R @ du
        for kind, step, blk, val in (
                (KIND_STATE, i + 1, prob.state_constraints, x),
                (KIND_INPUT, i, prob.input_constraints, u),
                (KIND_RATE, i, prob.rate_constraints, du)):
            if blk is not None:
                cons.extend(blk.M @ val - blk.g)
                if labels is not None:
                    labels.extend((kind, step, j) for j in range(blk.rows))
    return cost, np.array(cons)


class TestCondensePinnedCases:
    def test_scalar_integrator(self):
        model = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        prob = TrackingProblem(Q=[[1.0]], R=[[1.0]], N=1)
        cqp = condense(model, prob)
        assert np.allclose(cqp.H, [[4.0]])
        assert np.allclose(cqp.F, [[2.0, 2.0, -2.0]])

    def test_zero_output_weight(self):
        model = StateSpaceModel(A=[[0.3]], B=[[1.0]], C=[[1.0]])
        R = np.array([[2.5]])
        prob = TrackingProblem(Q=[[0.0]], R=R, N=1)
        cqp = condense(model, prob)
        assert np.allclose(cqp.H, 2.0 * R)
        assert np.allclose(cqp.F, 0.0)

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
            cholesky_factor(condense(model, prob).H)


class TestCondenseAgainstRollout:
    def test_cost_matches(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            model, prob = _random_setup(rng, with_constraints=False)
            cqp = condense(model, prob)
            z = rng.normal(size=cqp.n_z)
            v = rng.normal(size=cqp.n_v)
            want, _ = _rollout(model, prob, z, v)
            got = (0.5 * v @ cqp.H @ v + v @ (cqp.F @ z)
                   + cqp.cost_constant(z))
            assert abs(got - want) <= 1e-9 * (1 + abs(want))

    def test_constraints_match(self):
        rng = np.random.default_rng(8)
        for model, prob in _setups_over_block_patterns(rng):
            cqp = condense(model, prob)
            z = rng.normal(size=cqp.n_z)
            v = rng.normal(size=cqp.n_v)
            _, want = _rollout(model, prob, z, v)
            tol = 1e-10 * (1 + np.abs(want).max(initial=0.0))
            got = cqp.W @ v - cqp.bound(z)
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= tol

    def test_rollout_bound_matches_free_response(self):
        rng = np.random.default_rng(11)
        no_state_rows = set()   # both with and without state rows
        for _ in range(60):
            model, prob = _random_setup(rng)
            cqp = condense(model, prob)
            no_state_rows.add(prob.state_constraints is None)
            z = rng.normal(size=cqp.n_z)
            want = _bound_by_rollout(model, prob, z)
            got = cqp.bound(z)
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(
                want).max(initial=1.0)
        assert no_state_rows == {True, False}

    def test_rollout_bound_matches_on_thermal(self, thermal_setup):
        # bit for bit: the free response on the Kronecker grid forms the
        # products of `A @ x`, and each thermal constraint row holds a
        # single +-1, so the per-step block's product is exact
        model, prob, _ = thermal_setup
        cqp = condense(model, prob)
        rng = np.random.default_rng(12)
        for _ in range(3):
            z = rng.normal(scale=5.0, size=cqp.n_z)
            assert np.array_equal(cqp.bound(z),
                                  _bound_by_rollout(model, prob, z))

    def test_cost_constant_on_thermal(self, thermal_setup):
        model, prob, _ = thermal_setup
        cqp = condense(model, prob)
        rng = np.random.default_rng(15)
        for _ in range(3):
            z = rng.normal(scale=5.0, size=cqp.n_z)
            want, _ = _rollout(model, prob, z, np.zeros(cqp.n_v))
            assert abs(cqp.cost_constant(z) - want) <= 1e-9 * (1 + abs(want))

    def test_holds_no_z_sized_arrays_on_thermal(self, thermal_setup):
        # no dense n_c x n_z L and no n_z x n_z cost quadratic: the
        # n = 20 problem (n_c = 2030, n_z = 528) holds well under 1 MB
        model, prob, _ = thermal_setup
        cqp = condense(model, prob)
        assert cqp.L is None
        held = sum(_array_bytes(getattr(cqp, f.name))
                   for f in dataclasses.fields(cqp)
                   if f.name not in ("model", "problem"))
        assert held < 1e6

    def test_whole_setup_holds_under_1mb_on_thermal(self, thermal_setup):
        # model, problem, condensed problem and screener together, each
        # array counted once: no dense n_x x n_x array anywhere (a dense
        # state block alone would be 1.28 MB at n = 20)
        model, prob, _ = thermal_setup
        cqp = condense(model, prob)
        cache = precompute_row_norms(cqp)
        seen = set()
        held = sum(_array_bytes(obj, seen)
                   for obj in (model, prob, cqp, cache))
        assert held < 1e6

    def test_sparse_state_block_matches_dense(self, thermal_setup):
        # the thermal state block as a sparse identity and as np.eye:
        # the same condensed problem, bit for bit
        model, prob, _ = thermal_setup
        blk = prob.state_constraints
        assert sparse.issparse(blk.M)
        dense = dataclasses.replace(prob, state_constraints=ConstraintBlock(
            M=np.eye(model.n_x), g=blk.g, rho=blk.rho))
        got, want = condense(model, prob), condense(model, dense)
        for name in ("W", "c", "rho"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("kind", "step", "row"):
            assert np.array_equal(getattr(got.provenance, name),
                                  getattr(want.provenance, name))
        rng = np.random.default_rng(17)
        for _ in range(3):
            z = rng.normal(scale=5.0, size=got.n_z)
            assert np.array_equal(got.bound(z), want.bound(z))

    def test_sparse_blocks_match_dense(self):
        # every pattern of present and empty blocks, each block given
        # sparse, against the same blocks given dense
        rng = np.random.default_rng(18)
        keys = ("state_constraints", "input_constraints", "rate_constraints")
        for model, prob in _setups_over_block_patterns(rng):
            blocks = {key: ConstraintBlock(M=sparse.csr_matrix(blk.M),
                                           g=blk.g, rho=blk.rho)
                      for key in keys
                      if (blk := getattr(prob, key)) is not None}
            got = condense(model, dataclasses.replace(prob, **blocks))
            want = condense(model, prob)
            for name in ("W", "c", "rho"):
                assert _rel_err(getattr(got, name),
                                getattr(want, name)) <= 1e-13, name
            assert list(zip(got.provenance.kind, got.provenance.step,
                            got.provenance.row)) == list(zip(
                want.provenance.kind, want.provenance.step,
                want.provenance.row))
            z = rng.normal(size=got.n_z)
            assert _rel_err(got.bound(z), want.bound(z)) <= 1e-13

    def test_provenance_is_a_bijection(self):
        # every row's (kind, step, row) is the one the rollout emits there
        rng = np.random.default_rng(9)
        for model, prob in _setups_over_block_patterns(rng):
            cqp = condense(model, prob)
            labels = []
            _rollout(model, prob, np.zeros(cqp.n_z), np.zeros(cqp.n_v), labels)
            prov = cqp.provenance
            assert len(prov) == cqp.n_c
            assert list(zip(prov.kind, prov.step, prov.row)) == labels

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
            res = solve_soft_qp(cqp, z)
            assert np.abs(res.v_star).max() <= 1e-7
            assert np.abs(res.eps_star).max(initial=0.0) <= 1e-7


def _bound_by_rollout(model, prob, z):
    """c + Lz from the free response: the negated constraint values of
    the rollout at v = 0."""
    n_v = prob.N * model.n_u
    return -_rollout(model, prob, z, np.zeros(n_v))[1]


def _array_bytes(obj, seen=None):
    """Bytes of the arrays `obj` holds, through dataclasses and sparse
    matrices; objects whose id is in `seen` are skipped, and each one
    counted is added to it."""
    if seen is not None:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if sparse.issparse(obj):
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(_array_bytes(getattr(obj, f.name), seen)
                   for f in dataclasses.fields(obj))
    return 0


def _rel_err(got, want):
    return np.abs(got - want).max(initial=0.0) / np.abs(want).max(initial=1.0)


class TestKroneckerOperator:
    @pytest.mark.parametrize("p", [1, 3, 20])
    @pytest.mark.parametrize("q", [1, 3, 20])
    def test_matches_dense_form(self, p, q):
        rng = np.random.default_rng(p * 100 + q)
        P, Q = rng.normal(size=(p, p)), rng.normal(size=(q, q))
        A = KroneckerOperator(P, Q)
        dense = np.kron(P, Q)
        assert A.shape == dense.shape
        assert np.array_equal(np.asarray(A), dense)
        x = rng.normal(size=p * q)
        X = rng.normal(size=(p * q, 4))
        assert (A @ x).shape == (p * q,)
        assert _rel_err(A @ x, dense @ x) <= 1e-13
        assert (A @ X).shape == (p * q, 4)
        assert _rel_err(A @ X, dense @ X) <= 1e-13
        # a non-contiguous block of columns, as condense passes them
        assert _rel_err(A @ X[:, 1:3], dense @ X[:, 1:3]) <= 1e-13
        assert (A @ X[:, :0]).shape == (p * q, 0)
        assert np.array_equal(np.asarray(A.T), dense.T)
        assert _rel_err(A.T @ X, dense.T @ X) <= 1e-13

    def test_condense_matches_dense_reference(self, thermal_setup):
        model, prob, _ = thermal_setup
        dense = StateSpaceModel(A=np.asarray(model.A), B=model.B, C=model.C)
        got, want = condense(model, prob), condense(dense, prob)
        for name in ("H", "F", "W", "c"):
            assert _rel_err(getattr(got, name),
                            getattr(want, name)) <= 1e-13, name
        z = np.random.default_rng(13).normal(scale=5.0, size=got.n_z)
        assert _rel_err(got.bound(z), want.bound(z)) <= 1e-13
        assert _rel_err(got.bound(z),
                        _bound_by_rollout(dense, prob, z)) <= 1e-13

    def test_condense_matches_dense_on_random_factors(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            model, prob = _random_setup(rng)
            p = int(rng.integers(1, 4))
            A = KroneckerOperator(0.5 * rng.normal(size=(p, p)),
                                  rng.normal(size=(model.n_x, model.n_x)))
            B = np.tile(model.B, (p, 1))
            C = np.tile(model.C, (1, p))
            blk = prob.state_constraints
            if blk is not None:
                blk = ConstraintBlock(M=np.tile(blk.M.toarray(), (1, p)),
                                      g=blk.g, rho=blk.rho)
            prob = TrackingProblem(Q=prob.Q, R=prob.R, N=prob.N,
                                   state_constraints=blk,
                                   input_constraints=prob.input_constraints,
                                   rate_constraints=prob.rate_constraints)
            dense = StateSpaceModel(A=np.asarray(A), B=B, C=C)
            got = condense(StateSpaceModel(A=A, B=B, C=C), prob)
            want = condense(dense, prob)
            for name in ("H", "F", "W", "c"):
                assert _rel_err(getattr(got, name),
                                getattr(want, name)) <= 1e-13, name
            z = rng.normal(size=got.n_z)
            assert _rel_err(got.bound(z), want.bound(z)) <= 1e-13
            assert _rel_err(got.bound(z),
                            _bound_by_rollout(dense, prob, z)) <= 1e-13


class TestPerStepVectors:
    def test_assemble_z_concatenates(self):
        assert np.array_equal(
            assemble_z([1.0], [2.0], [[3.0]], ZLayout(1, 1, 1, 1)),
            [1.0, 2.0, 3.0])

    def test_assemble_z_zeroes(self):
        z = assemble_z(np.zeros(2), np.zeros(1), [np.zeros(1)] * 3,
                       ZLayout(2, 1, 1, 3))
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
        prev = solve_soft_qp(cqp, np.zeros(cqp.n_z))
        prev = type(prev)(v_star=np.array([1.0, 2.0, 3.0]),
                          eps_star=prev.eps_star, objective=0.0,
                          status=prev.status, iterations=0, kkt_residual=0.0)
        assert np.array_equal(shift_warm_start(prev, cqp), [2.0, 3.0, 0.0])

    def test_warm_start_block_shift(self):
        model = StateSpaceModel(A=np.eye(2), B=np.eye(2), C=np.eye(2))
        prob = TrackingProblem(Q=np.eye(2), R=np.eye(2), N=2)
        cqp = condense(model, prob)
        prev = solve_soft_qp(cqp, np.zeros(cqp.n_z))
        prev = type(prev)(v_star=np.array([1.0, 2.0, 3.0, 4.0]),
                          eps_star=prev.eps_star, objective=0.0,
                          status=prev.status, iterations=0, kkt_residual=0.0)
        assert np.array_equal(shift_warm_start(prev, cqp),
                              [3.0, 4.0, 0.0, 0.0])

    def test_extract_input(self):
        assert np.allclose(extract_input([0.5], [2.0]), [2.5])
        assert np.allclose(extract_input([0.0, 1.0], [2.0]), [2.0])
        assert np.allclose(
            extract_input([0.1, 0.2, 0.3, 0.4], [1.0, -1.0]), [1.1, -0.8])


class TestModelValidation:
    def test_rejects_nonsquare_a(self):
        # dense, and a Kronecker operator whose 6x6 product is square
        # although neither factor is
        for A in (np.ones((2, 3)),
                  KroneckerOperator(np.ones((2, 3)), np.ones((3, 2))),
                  KroneckerOperator(np.eye(2), np.ones((3, 2)))):
            with pytest.raises(DimensionError, match="^A must be square"):
                StateSpaceModel(A=A, B=np.ones((A.shape[0], 1)),
                                C=np.ones((1, A.shape[0])))

    @pytest.mark.parametrize("name, shape", [("B", (2, 4)), ("C", (4, 1)),
                                             ("B", (2, 2, 2)),
                                             ("C", (1, 2, 2))])
    def test_rejects_misshapen_b_or_c(self, name, shape):
        # each has as many entries as the right shape, (4, 2) for B and
        # (1, 4) for C, but is not reshaped to it
        mats = dict(A=np.eye(4), B=np.ones((4, 2)), C=np.ones((1, 4)))
        mats[name] = np.ones(shape)
        want = f"{name} has shape {shape}, but A is (4, 4)"
        with pytest.raises(DimensionError, match=f"^{re.escape(want)}$"):
            StateSpaceModel(**mats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["A", "B", "C", "A.P", "A.Q"])
    def test_model_rejects_non_finite(self, name, bad):
        # "A.P" and "A.Q": A given as kron(P, Q), one factor non-finite
        mats = dict(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        factors = dict(P=np.eye(1), Q=np.eye(2))
        key = name.split(".")[-1]
        arrays = factors if "." in name else mats
        arrays[key] = arrays[key].copy()
        arrays[key].flat[0] = bad
        if "." in name:
            mats["A"] = KroneckerOperator(**factors)
        with pytest.raises(ValueError, match=f"^{name[0]} holds NaN or inf"):
            StateSpaceModel(**mats)

    @pytest.mark.parametrize("name", ["M", "g", "rho"])
    def test_constraint_block_rejects_non_finite(self, name):
        data = dict(M=np.eye(2), g=np.ones(2), rho=np.ones(2))
        data[name] = data[name].copy()
        data[name].flat[-1] = np.nan
        with pytest.raises(ValueError, match=f"^{name} holds NaN or inf"):
            ConstraintBlock(**data)

    def test_constraint_block_rejects_non_finite_sparse_m(self):
        M = sparse.identity(2, format="csr")
        M.data[-1] = np.nan
        with pytest.raises(ValueError, match="^M holds NaN or inf"):
            ConstraintBlock(M=M, g=np.ones(2), rho=np.ones(2))

    def test_constraint_block_holds_only_nonzeros(self):
        # a dense M is held as one CSR copy of its nonzeros
        blk = ConstraintBlock(M=np.eye(400), g=np.ones(400), rho=1.0)
        assert sparse.isspmatrix_csr(blk.M)
        assert blk.M.nnz == len(blk.M.data) == 400
        assert np.array_equal(blk.M.toarray(), np.eye(400))

    def test_constraint_block_ravels_column_rho(self):
        # rho follows g: an (n, 1) column is raveled, a scalar broadcasts
        for rho in (np.full((2, 1), 3.0), 3.0):
            blk = ConstraintBlock(M=np.eye(2), g=np.ones((2, 1)), rho=rho)
            assert np.array_equal(blk.rho, [3.0, 3.0])

    @pytest.mark.parametrize("kwargs, match", [
        ({"Q": -0.01 * np.eye(2)}, "^Q must be symmetric positive semidef"),
        ({"Q": [[1.0, 0.8], [-0.8, 1.0]]}, "^Q must be symmetric"),
        ({"R": -np.eye(1)}, "^R must be symmetric positive semidefinite"),
        ({"R": np.ones((1, 2))}, "^R must be square"),
        ({"N": 0}, "^horizon N must be an integer >= 1"),
        ({"N": 2.5}, "^horizon N must be an integer >= 1"),
        ({"N": np.array([2, 3])}, "^horizon N must be an integer >= 1")],
        ids=["negative-Q", "asymmetric-Q", "negative-R", "nonsquare-R",
             "N=0", "N=2.5", "N-array"])
    def test_tracking_problem_rejects_bad_q_r_or_n(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrackingProblem(**{"Q": np.eye(2), "R": np.eye(1), "N": 2,
                               **kwargs})

    def test_tracking_problem_accepts_zero_r(self):
        # r_scale: 0 is a valid thermal config; H's Cholesky still
        # checks that the condensed problem is definite
        prob = TrackingProblem(Q=np.eye(2), R=np.zeros((1, 1)),
                               N=np.int64(2))
        assert np.array_equal(prob.R, [[0.0]])

    @pytest.mark.parametrize("name", ["Q", "R"])
    def test_tracking_problem_rejects_non_finite(self, name):
        data = dict(Q=np.eye(2), R=np.eye(1))
        data[name] = data[name].copy()
        data[name][0, 0] = np.inf
        with pytest.raises(ValueError, match=f"^{name} holds NaN or inf"):
            TrackingProblem(N=2, **data)
