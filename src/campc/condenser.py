"""Condense an offset-free output-tracking MPC problem into a SoftQP.

The tracking problem penalizes output error and input increments over a
horizon N, with soft state/input/rate constraints.  States are
eliminated through the dynamics and inputs through the incremental
parameterization u_i = u_{i-1} + du_i, leaving the stacked increment
sequence v = [du_0, ..., du_{N-1}] as the only decision variable.  The
parameter vector is z = [x; u_prev; y_ref_1; ...; y_ref_N].

Constraint rows read the predicted signal s_i = [x_i; u_{i-1}; du_{i-1}],
an affine map of (z, v) from one recursion over the dynamics; a single
sparse row selection K over s gives W, c, rho, the provenance and the
u_prev columns of L in `condense`, and the per-step c + Lz = c - K s(z, 0)
in `CondensedQP.bound`.  The x columns of L, and of the output error,
come from a transposed rollout, A' applied to [C' M_state'].

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
    """Discrete-time LTI model x+ = Ax + Bu, y = Cx (D must be zero).

    A is a dense array or a `KroneckerOperator`; an operator is checked
    factor by factor and never made dense.
    """

    A: np.ndarray | KroneckerOperator
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = None

    def __post_init__(self):
        A = self.A
        if isinstance(A, KroneckerOperator):
            factors = (A.P, A.Q)
        else:
            # contiguous, so the per-step A @ x runs on the fast BLAS path
            A = np.ascontiguousarray(_as_matrix(A, "A"))
            factors = (A,)
        B = np.ascontiguousarray(
            np.asarray(self.B, dtype=float).reshape(A.shape[0], -1))
        C = np.asarray(self.C, dtype=float).reshape(-1, A.shape[0])
        D = self.D
        if D is None:
            D = np.zeros((C.shape[0], B.shape[1]))
        D = np.asarray(D, dtype=float).reshape(C.shape[0], B.shape[1])
        for factor in factors:
            if factor.shape[0] != factor.shape[1]:
                raise DimensionError(f"A must be square, got {factor.shape}")
            _require_finite(A=factor)
        _require_finite(B=B, C=C, D=D)
        if np.any(D != 0.0):
            raise ValueError("direct feedthrough D must be zero")
        for val in (*factors, B, C, D):
            val.setflags(write=False)
        for name, val in (("A", A), ("B", B), ("C", C), ("D", D)):
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
    """One soft constraint family M w <= g with per-row penalties."""

    M: np.ndarray
    g: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        M = _as_matrix(self.M, "M")
        g = _as_vector(self.g, "g")
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim == 0:
            rho = np.full(len(g), float(rho))
        if M.shape[0] != len(g) or len(rho) != len(g):
            raise DimensionError("constraint block rows inconsistent")
        _require_finite(M=M, g=g, rho=rho)
        if len(rho) and rho.min() <= 0.0:
            raise ValueError("slack penalties must be positive")
        for name, val in (("M", M), ("g", g), ("rho", rho)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def rows(self) -> int:
        return self.M.shape[0]


def _empty_block(dim):
    return ConstraintBlock(np.zeros((0, dim)), np.zeros(0), np.zeros(0))


@dataclass(frozen=True)
class TrackingProblem:
    """Output-tracking cost and soft constraints over a horizon.

    Q weighs the output error (PSD), R the input increment (PD).  State
    constraints apply at prediction steps 1..N, input and rate
    constraints at steps 0..N-1; any block may have zero rows.
    """

    Q: np.ndarray
    R: np.ndarray
    N: int
    state_constraints: ConstraintBlock = None
    input_constraints: ConstraintBlock = None
    rate_constraints: ConstraintBlock = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("horizon N must be >= 1")
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        _require_finite(Q=Q, R=R)
        for name, val in (("Q", Q), ("R", R)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class ZLayout:
    """Offsets of the blocks inside z = [x; u_prev; y_ref_1..N]."""

    n_x: int
    n_u: int
    n_y: int
    N: int

    @property
    def x_offset(self) -> int:
        return 0

    @property
    def u_prev_offset(self) -> int:
        return self.n_x

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


@dataclass(frozen=True)
class CondensedQP:
    """SoftQP produced by condensing, plus structural metadata."""

    qp: SoftQP
    model: StateSpaceModel
    layout: ZLayout
    provenance: Provenance
    # z-only cost constant z' _const_quad z (dropped from the QP)
    _const_quad: np.ndarray = None
    # K: the constraint rows over the predicted signal s = [s_1; ...; s_N]
    _K: sparse.csr_matrix = None

    @property
    def n_v(self) -> int:
        return self.qp.n_v

    @property
    def n_c(self) -> int:
        return self.qp.n_c

    @property
    def n_z(self) -> int:
        return self.qp.n_z

    @property
    def n_u(self) -> int:
        return self.layout.n_u

    @property
    def N(self) -> int:
        return self.layout.N

    def bound(self, z: np.ndarray) -> np.ndarray:
        """Constraint right-hand side c + Lz, without reading L.

        At v = 0 the predicted signal is s_i = [x_i; u_prev; 0], where
        x_i = A x_{i-1} + B u_prev rolls the model N steps from x, and
        c + Lz = c - K s.  Equals `self.qp.bound(z)` up to rounding.
        Cost: N n_x^2 for the rollout with a dense A, or N 2n^3 with a
        Kronecker A of two n x n factors (n_x = n^2), plus
        nnz(K) = N nnz(M) for the selection, against n_c n_z for the
        dense product; a dense state M therefore makes it costlier than
        `qp.bound`.
        """
        z = self.qp._check_z(z)
        lay = self.layout
        u_prev = z[lay.u_prev_offset:lay.y_ref_offset]
        s = np.zeros((lay.N, lay.n_x + 2 * lay.n_u))
        s[:, lay.n_x:lay.y_ref_offset] = u_prev
        A = self.model.A
        Bu = self.model.B @ u_prev
        x = z[lay.x_offset:lay.u_prev_offset]
        for x_next in s[:, :lay.n_x]:
            np.add(A @ x, Bu, out=x_next)
            x = x_next
        return self.qp.c - self._K @ s.ravel()

    def cost_constant(self, z: np.ndarray) -> float:
        """z-dependent constant dropped from the condensed objective."""
        z = np.asarray(z, dtype=float).ravel()
        return float(z @ self._const_quad @ z)


def condense(model: StateSpaceModel, prob: TrackingProblem) -> CondensedQP:
    """Eliminate states and inputs, returning the condensed SoftQP.

    One recursion, x_i = A x_{i-1} + B u_{i-1} with
    u_{i-1} = u_{i-2} + du_{i-1}, gives the predicted signal
    s_i = [x_i; u_{i-1}; du_{i-1}] = P_i z + V_i v for i = 1..N.  It runs
    over the [u_prev; v] columns only (n_u + n_v of them): the x
    column of x_i is A^i, so C A^i (for F and the cost constant) and
    M_state A^i (for L) come from the transposed rollout
    (A')^i [C' M_state'] instead.  The constraint rows are K s with
    K = kron(I_N, blkdiag(M_state, M_input, M_rate)), so W = K V, the
    u_prev columns of L are -K P, its x columns -M_state A^i in the
    state rows and zero elsewhere, and c, rho and the provenance repeat
    the blocks' g, rho and rows per step.  Rows are thus ordered per
    prediction step: state rows at step i, then input rows at step
    i-1, then rate rows at i-1, for i = 1..N.
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
    M_state = blocks[0].M
    n_s, n_rows = M_state.shape[0], sum(b.rows for b in blocks)

    # S[i-1] = [P_i[:, n_x:n_xu], V_i]: s_i over the columns [u_prev; v]
    S = np.zeros((N, n_x + 2 * n_u, n_u + n_v))
    x = np.zeros((n_x, n_u + n_v))      # x_0 = x: no [u_prev; v] term
    u = np.eye(n_u, n_u + n_v)          # u_{-1} = u_prev
    # (A^i)' [C' M_state']: the x-columns of C x_i and of M_state x_i
    T = np.hstack([C.T, M_state.T])
    A_T = A.T
    # cost: sum_i |C x_i - y_ref_i|_Q^2 + |du_{i-1}|_R^2
    H = 2.0 * np.kron(np.eye(N), R)
    F = np.zeros((n_v, n_z))
    const_quad = np.zeros((n_z, n_z))
    Lmat = np.zeros((N * n_rows, n_z))
    for i in range(1, N + 1):
        s_x, s_u, s_du = S[i - 1, :n_x], S[i - 1, n_x:n_xu], S[i - 1, n_xu:]
        s_du[:, i * n_u:(i + 1) * n_u] = np.eye(n_u)
        np.add(u, s_du, out=s_u)
        s_x[:] = A @ x + B @ s_u
        x, u = s_x, s_u
        T = A_T @ T
        Lmat[(i - 1) * n_rows:(i - 1) * n_rows + n_s, :n_x] = -T[:, n_y:].T
        CX = C @ x
        CT = CX[:, n_u:]
        # z-coefficient of the output error C x_i - y_ref_i
        Ez = np.zeros((n_y, n_z))
        Ez[:, :n_x] = T[:, :n_y].T
        Ez[:, n_x:n_xu] = CX[:, :n_u]
        Ez[:, n_xu + (i - 1) * n_y:n_xu + i * n_y] = -np.eye(n_y)
        H += 2.0 * CT.T @ Q @ CT
        F += 2.0 * CT.T @ Q @ Ez
        const_quad += Ez.T @ Q @ Ez

    # coo_matrix keeps only the nonzeros of each dense M
    M = sparse.block_diag([sparse.coo_matrix(b.M) for b in blocks])
    K = sparse.kron(sparse.identity(N), M, format="csr")
    KS = K @ S.reshape(N * S.shape[1], -1)
    Lmat[:, n_x:n_xu] = -KS[:, :n_u]
    # W contiguous, so the per-step W products run on the fast BLAS path
    qp = SoftQP(H=H, F=F, W=np.ascontiguousarray(KS[:, n_u:]),
                c=np.tile(np.concatenate([b.g for b in blocks]), N), L=Lmat,
                rho=np.tile(np.concatenate([b.rho for b in blocks]), N))
    kind = np.repeat([KIND_STATE, KIND_INPUT, KIND_RATE],
                     [b.rows for b in blocks])
    # state rows belong to step i, input and rate rows to step i-1
    step = np.repeat(np.arange(N), len(kind)) + np.tile(kind == KIND_STATE, N)
    row = np.concatenate([np.arange(b.rows) for b in blocks])
    prov = Provenance(np.tile(kind, N), step, np.tile(row, N))
    return CondensedQP(qp=qp, model=model, layout=layout, provenance=prov,
                       _const_quad=const_quad, _K=K)


def assemble_z(x: np.ndarray, u_prev: np.ndarray, y_refs,
               layout: ZLayout | None = None) -> np.ndarray:
    """Stack [x; u_prev; y_ref_1; ...; y_ref_N].

    Raises ValueError naming the block (x, u_prev or the reference
    window) that holds NaN or inf.
    """
    x = np.asarray(x, dtype=float).ravel()
    u_prev = np.asarray(u_prev, dtype=float).ravel()
    refs = [np.asarray(yr, dtype=float).ravel() for yr in y_refs]
    if layout is not None:
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


def shift_warm_start(prev: SolveResult | None, qp: CondensedQP,
                     z: np.ndarray) -> np.ndarray:
    """Candidate input sequence for the next step.

    With a previous solution: drop its first increment block and pad
    with zeros (steady-state continuation).  Without one, fall back to
    the unconstrained minimizer.
    """
    if prev is None:
        return qp.qp.unconstrained_minimizer(z)
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
