"""Condense an offset-free output-tracking MPC problem into a SoftQP.

The tracking problem penalizes output error and input increments over a
horizon N, with soft state/input/rate constraints.  States are
eliminated through the dynamics and inputs through the incremental
parameterization u_i = u_{i-1} + du_i, leaving the stacked increment
sequence v = [du_0, ..., du_{N-1}] as the only decision variable.  The
parameter vector is z = [x; u_prev; y_ref_1; ...; y_ref_N].

Constraint rows read the predicted signal s_i = [x_i; u_{i-1}; du_{i-1}],
an affine map of (z, v) from one recursion over the dynamics.  One
sparse per-step block M = blkdiag(M_state, M_input, M_rate) applied to
each s_i gives W in `condense` and the per-step
c + Lz = c - M s_i(z, 0) in `CondensedQP.bound`, so no dense L and no
N-fold block is formed.  The x columns of F come from a transposed
rollout, A' applied to C'.

The model's A is a dense array or a `KroneckerOperator`; the condenser
only ever forms A @ x and A' @ x, so a separable model is rolled out
through its factors without a dense n_x x n_x matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from campc.numqp import (DimensionError, SoftQP, SolveResult, _as_matrix,
                         _as_vector, _require_finite)

KIND_STATE = "state"
KIND_INPUT = "input"
KIND_RATE = "rate"


@dataclass(frozen=True)
class KroneckerOperator:
    """The matrix kron(P, Q), held as its two factors.

    With x in row-major order, A x = vec(P X Q') for X = x reshaped to
    (P columns, Q columns): 2pq(p + q) flops for p x p and q x q
    factors, against (pq)^2 for the dense product.  `A @ X` applies it
    to each column of X, and `np.asarray(A)` gives the dense matrix.
    """

    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        for name in ("P", "Q"):
            val = np.ascontiguousarray(_as_matrix(getattr(self, name), name))
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def shape(self) -> tuple:
        (p_rows, p_cols), (q_rows, q_cols) = self.P.shape, self.Q.shape
        return (p_rows * q_rows, p_cols * q_cols)

    @property
    def T(self) -> KroneckerOperator:
        """The transpose, kron(P', Q')."""
        return KroneckerOperator(self.P.T, self.Q.T)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        p, q = self.P.shape[1], self.Q.shape[1]
        if x.ndim == 1:
            return (self.P @ x.reshape(p, q) @ self.Q.T).ravel()
        cols = x.shape[1]
        PX = (self.P @ x.reshape(p, q * cols)).reshape(len(self.P), q, cols)
        return (self.Q @ PX).reshape(self.shape[0], cols)

    def __array__(self, dtype=None, copy=None):
        return np.kron(self.P, self.Q).astype(
            float if dtype is None else dtype, copy=False)


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete-time LTI model x+ = Ax + Bu, y = Cx: no feedthrough D.

    A is a dense array or a `KroneckerOperator`; an operator is checked
    factor by factor and never made dense.  A 2-d B must have n_x rows
    and a 2-d C n_x columns; a 1-d one is reshaped to fit, and one of
    more dimensions is rejected.
    """

    A: np.ndarray | KroneckerOperator
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = self.A
        if isinstance(A, KroneckerOperator):
            factors = (A.P, A.Q)
        else:
            # contiguous, so the per-step A @ x runs on the fast BLAS path
            A = np.ascontiguousarray(_as_matrix(A, "A"))
            factors = (A,)
        n_x = A.shape[0]
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        for name, val, axis in (("B", B, 0), ("C", C, 1)):
            if val.ndim > 2 or val.ndim == 2 and val.shape[axis] != n_x:
                raise DimensionError(
                    f"{name} has shape {val.shape}, but A is {A.shape}")
        B = np.ascontiguousarray(B.reshape(n_x, -1))
        C = C.reshape(-1, n_x)
        for factor in factors:
            if factor.shape[0] != factor.shape[1]:
                raise DimensionError(f"A must be square, got {factor.shape}")
            _require_finite(A=factor)
        _require_finite(B=B, C=C)
        for val in (*factors, B, C):
            val.setflags(write=False)
        for name, val in (("A", A), ("B", B), ("C", C)):
            object.__setattr__(self, name, val)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class ConstraintBlock:
    """One soft constraint family M w <= g with per-row penalties.

    M is given as a dense array or a `scipy.sparse` matrix and held as
    one CSR copy with only its nonzeros, checked for finiteness on
    those stored entries.
    """

    M: sparse.csr_matrix
    g: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        M = self.M if sparse.issparse(self.M) else _as_matrix(self.M, "M")
        M = sparse.csr_matrix(M, dtype=float, copy=True)
        M.sum_duplicates()
        g = _as_vector(self.g)
        rho = np.asarray(self.rho, dtype=float)
        rho = np.full(len(g), float(rho)) if rho.ndim == 0 else rho.ravel()
        if M.shape[0] != len(g) or len(rho) != len(g):
            raise DimensionError("constraint block rows inconsistent")
        _require_finite(M=M.data, g=g, rho=rho)
        if len(rho) and rho.min() <= 0.0:
            raise ValueError("slack penalties must be positive")
        for val in (M.data, M.indices, M.indptr, g, rho):
            val.setflags(write=False)
        for name, val in (("M", M), ("g", g), ("rho", rho)):
            object.__setattr__(self, name, val)

    @property
    def rows(self) -> int:
        return self.M.shape[0]


def _empty_block(dim):
    return ConstraintBlock(np.zeros((0, dim)), np.zeros(0), np.zeros(0))


@dataclass(frozen=True)
class TrackingProblem:
    """Output-tracking cost and soft constraints over a horizon.

    Q weighs the output error and R the input increment; both must be
    symmetric positive semidefinite, to the relative 1e-12 of
    `cholesky_factor`, which checks that the condensed H is definite.
    N is an integer >= 1.  State constraints apply at prediction steps
    1..N, input and rate constraints at steps 0..N-1; any block may have
    zero rows.
    """

    Q: np.ndarray
    R: np.ndarray
    N: int
    state_constraints: ConstraintBlock = None
    input_constraints: ConstraintBlock = None
    rate_constraints: ConstraintBlock = None

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError(
                f"horizon N must be an integer >= 1, got {self.N!r}")
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        _require_finite(Q=Q, R=R)
        for name, val in (("Q", Q), ("R", R)):
            if val.shape[0] != val.shape[1]:
                raise DimensionError(f"{name} must be square, got {val.shape}")
            tol = 1e-12 * (1.0 + np.abs(val).max(initial=0.0))
            if (np.abs(val - val.T).max(initial=0.0) > tol
                    or np.linalg.eigvalsh(val).min(initial=0.0) < -tol):
                raise ValueError(
                    f"{name} must be symmetric positive semidefinite")
            val.setflags(write=False)
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class ZLayout:
    """Sizes of the blocks of z = [x; u_prev; y_ref_1..N], in order."""

    n_x: int
    n_u: int
    n_y: int
    N: int

    @property
    def y_ref_offset(self) -> int:
        return self.n_x + self.n_u

    @property
    def n_z(self) -> int:
        return self.n_x + self.n_u + self.N * self.n_y


@dataclass(frozen=True)
class Provenance:
    """Per-row origin of the condensed constraints."""

    kind: np.ndarray   # one of KIND_STATE / KIND_INPUT / KIND_RATE
    step: np.ndarray   # prediction step the row belongs to
    row: np.ndarray    # row index within the original block

    def __len__(self):
        return len(self.kind)


@dataclass(frozen=True, kw_only=True)
class CondensedQP(SoftQP):
    """SoftQP produced by condensing, plus structural metadata.

    L is None: z enters only through F and the model's free response,
    which gives c + Lz (`bound`) and the dropped cost (`cost_constant`).
    """

    model: StateSpaceModel
    problem: TrackingProblem
    layout: ZLayout
    provenance: Provenance
    # blkdiag(M_state, M_input, M_rate): the constraint rows over one
    # step's signal s_i
    _M: sparse.csr_matrix

    @property
    def qp(self) -> CondensedQP:
        """The problem itself, for callers that unwrap `cqp.qp`."""
        return self

    @property
    def n_u(self) -> int:
        return self.layout.n_u

    def _free_response(self, z):
        """s_i = [x_i; u_prev; 0] at v = 0, rolling x_i = A x_{i-1} +
        B u_prev N steps from x; one row per step."""
        lay = self.layout
        u_prev = z[lay.n_x:lay.y_ref_offset]
        s = np.zeros((lay.N, lay.n_x + 2 * lay.n_u))
        s[:, lay.n_x:lay.y_ref_offset] = u_prev
        A = self.model.A
        Bu = self.model.B @ u_prev
        x = z[:lay.n_x]
        for x_next in s[:, :lay.n_x]:
            np.add(A @ x, Bu, out=x_next)
            x = x_next
        return s

    def bound(self, z: np.ndarray) -> np.ndarray:
        """Constraint right-hand side c + Lz = c - M s_i(z, 0), i = 1..N,
        with M the per-step block.

        Cost: N n_x^2 for the rollout with a dense A, or N 2n^3 with a
        Kronecker A of two n x n factors (n_x = n^2), plus N nnz(M) for
        the per-step block, against n_c n_z for a dense product with L.
        """
        s = self._free_response(self._check_z(z))
        # (M s')' holds one row per step, as c's rows run
        return self.c - (self._M @ s.T).T.ravel()

    def cost_constant(self, z: np.ndarray) -> float:
        """z-only constant dropped from the condensed objective: the
        output error of the free response, sum_i |C x_i - y_ref_i|_Q^2."""
        z = self._check_z(z)
        lay = self.layout
        x = self._free_response(z)[:, :lay.n_x]
        err = x @ self.model.C.T - z[lay.y_ref_offset:].reshape(lay.N, lay.n_y)
        return float(np.sum((err @ self.problem.Q) * err))


def condense(model: StateSpaceModel, prob: TrackingProblem) -> CondensedQP:
    """Eliminate states and inputs, returning the condensed SoftQP.

    One recursion, x_i = A x_{i-1} + B u_{i-1} with
    u_{i-1} = u_{i-2} + du_{i-1}, gives the predicted signal
    s_i = [x_i; u_{i-1}; du_{i-1}] = P_i z + V_i v for i = 1..N.  It runs
    over the [u_prev; v] columns only (n_u + n_v of them): the x
    column of x_i is A^i, so C A^i (for F) comes from the transposed
    rollout (A')^i C' instead.  The constraint rows of step i are
    M s_i with the per-step block M = blkdiag(M_state, M_input, M_rate),
    held sparse with only the blocks' nonzeros, so the rows of
    W are M V_i, and c, rho and the provenance repeat the blocks' g, rho
    and rows per step.  Rows are thus ordered per prediction step: state
    rows at step i, then input rows at step i-1, then rate rows at i-1,
    for i = 1..N.  The z-only terms, c + Lz = c - M P_i z and the cost
    constant, are left to the rollout in `CondensedQP`.
    """
    A, B, C = model.A, model.B, model.C
    n_x, n_u, n_y = model.n_x, model.n_u, model.n_y
    N = prob.N
    Q, R = prob.Q, prob.R
    if Q.shape != (n_y, n_y):
        raise DimensionError(f"Q must be {n_y}x{n_y}, got {Q.shape}")
    if R.shape != (n_u, n_u):
        raise DimensionError(f"R must be {n_u}x{n_u}, got {R.shape}")
    blocks = (prob.state_constraints or _empty_block(n_x),
              prob.input_constraints or _empty_block(n_u),
              prob.rate_constraints or _empty_block(n_u))
    if [b.M.shape[1] for b in blocks] != [n_x, n_u, n_u]:
        raise DimensionError("constraint block column counts inconsistent")

    layout = ZLayout(n_x, n_u, n_y, N)
    n_v, n_z = N * n_u, layout.n_z
    n_xu = layout.y_ref_offset

    # S[i-1] = [P_i[:, n_x:n_xu], V_i]: s_i over the columns [u_prev; v]
    S = np.zeros((N, n_x + 2 * n_u, n_u + n_v))
    x = np.zeros((n_x, n_u + n_v))      # x_0 = x: no [u_prev; v] term
    u = np.eye(n_u, n_u + n_v)          # u_{-1} = u_prev
    T = np.ascontiguousarray(C.T)       # (A^i)' C': the x columns of C x_i
    A_T = A.T
    # cost: sum_i |C x_i - y_ref_i|_Q^2 + |du_{i-1}|_R^2
    H = 2.0 * np.kron(np.eye(N), R)
    F = np.zeros((n_v, n_z))
    for i in range(1, N + 1):
        s_x, s_u, s_du = S[i - 1, :n_x], S[i - 1, n_x:n_xu], S[i - 1, n_xu:]
        s_du[:, i * n_u:(i + 1) * n_u] = np.eye(n_u)
        np.add(u, s_du, out=s_u)
        s_x[:] = A @ x + B @ s_u
        x, u = s_x, s_u
        T = A_T @ T
        CX = C @ x
        CT = CX[:, n_u:]
        # z-coefficient of the output error C x_i - y_ref_i
        Ez = np.zeros((n_y, n_z))
        Ez[:, :n_x] = T.T
        Ez[:, n_x:n_xu] = CX[:, :n_u]
        Ez[:, n_xu + (i - 1) * n_y:n_xu + i * n_y] = -np.eye(n_y)
        H += 2.0 * CT.T @ Q @ CT
        F += 2.0 * CT.T @ Q @ Ez

    M = sparse.block_diag([b.M for b in blocks], format="csr")
    kind = np.repeat([KIND_STATE, KIND_INPUT, KIND_RATE],
                     [b.rows for b in blocks])
    # state rows belong to step i, input and rate rows to step i-1
    step = np.repeat(np.arange(N), len(kind)) + np.tile(kind == KIND_STATE, N)
    row = np.concatenate([np.arange(b.rows) for b in blocks])
    # concatenated, W is contiguous, so the per-step W products run on
    # the fast BLAS path
    return CondensedQP(
        H=H, F=F, W=np.concatenate([M @ s_i[:, n_u:] for s_i in S]),
        c=np.tile(np.concatenate([b.g for b in blocks]), N), L=None,
        rho=np.tile(np.concatenate([b.rho for b in blocks]), N),
        model=model, problem=prob, layout=layout,
        provenance=Provenance(np.tile(kind, N), step, np.tile(row, N)), _M=M)


def assemble_z(x: np.ndarray, u_prev: np.ndarray, y_refs,
               layout: ZLayout) -> np.ndarray:
    """Stack [x; u_prev; y_ref_1; ...; y_ref_N] for `layout`.

    Raises DimensionError for a block that does not match the layout,
    and ValueError naming the block (x, u_prev or the reference window)
    that holds NaN or inf.
    """
    x = np.asarray(x, dtype=float).ravel()
    u_prev = np.asarray(u_prev, dtype=float).ravel()
    refs = [np.asarray(yr, dtype=float).ravel() for yr in y_refs]
    if len(x) != layout.n_x or len(u_prev) != layout.n_u:
        raise DimensionError("x/u_prev lengths do not match layout")
    if len(refs) != layout.N or any(len(yr) != layout.n_y for yr in refs):
        raise DimensionError("reference window does not match layout")
    z = np.concatenate([x, u_prev] + refs)
    if not np.isfinite(z).all():
        n_xu = len(x) + len(u_prev)
        for name, block in (("x", x), ("u_prev", u_prev),
                            ("reference window", z[n_xu:])):
            if not np.isfinite(block).all():
                raise ValueError(f"{name} holds NaN or inf")
    return z


def shift_warm_start(prev: SolveResult, qp: CondensedQP) -> np.ndarray:
    """Candidate input sequence for the next step: drop the first
    increment block of the previous solution and pad with zeros
    (steady-state continuation).  At the first step there is nothing to
    shift; the closed loop starts from the unconstrained minimizer.
    """
    n_u = qp.n_u
    v_prev = np.asarray(prev.v_star, dtype=float).ravel()
    if len(v_prev) != qp.n_v:
        raise DimensionError(
            f"previous solution has length {len(v_prev)}, expected {qp.n_v}")
    return np.concatenate([v_prev[n_u:], np.zeros(n_u)])


def extract_input(v_star: np.ndarray, u_prev: np.ndarray) -> np.ndarray:
    """Applied input u = u_prev + first increment block."""
    u_prev = np.asarray(u_prev, dtype=float).ravel()
    v_star = np.asarray(v_star, dtype=float).ravel()
    n_u = len(u_prev)
    if len(v_star) < n_u or len(v_star) % n_u:
        raise DimensionError(
            f"solution length {len(v_star)} incompatible with n_u={n_u}")
    return u_prev + v_star[:n_u]
