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

The model's A is a dense array or a `KroneckerOperator`; `condense`
only ever forms A @ x and A' @ x, so a separable model is rolled out
through its factors without a dense n_x x n_x matrix.  For such a model
it also caches the horizon powers of the factors (`KroneckerPowers`),
from which `CondensedQP` forms all N free-response states at once; a
dense A is rolled out step by step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import sparse

from campc.numqp import (DimensionError, SoftQP, SolveResult, _as_matrix,
                         _as_vector, _check_classes, _float_copy,
                         _require_count, _require_finite)

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
    It holds its own read-only copies of the factors.
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
        x = np.asarray(x)
        if x.dtype.kind != "f":
            x = _float_copy(x, "KroneckerOperator operand")
        p, q = self.P.shape[1], self.Q.shape[1]
        if x.ndim == 1 and len(x) == p * q:
            return (self.P @ x.reshape(p, q) @ self.Q.T).ravel()
        if x.ndim != 2 or len(x) != p * q:
            raise DimensionError(f"KroneckerOperator operand has shape "
                                 f"{x.shape}, expected {p * q} rows")
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
    more dimensions is rejected.  The model holds its own read-only
    copy of each array it is given.
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
        B = _float_copy(self.B, "B")
        C = _float_copy(self.C, "C")
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
    those stored entries.  M, g and rho are read-only copies.
    """

    M: sparse.csr_matrix
    g: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        if sparse.issparse(self.M):
            M = sparse.csr_matrix(self.M, copy=True)
            M.data = _float_copy(M.data, "M")
        else:
            M = sparse.csr_matrix(_as_matrix(self.M, "M"))
        M.sum_duplicates()
        g = _float_copy(self.g, "g").ravel()
        rho = _float_copy(self.rho, "rho")
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


@cache     # frozen and read-only: one block per dim serves every problem
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
    zero rows.  Q and R are read-only copies.
    """

    Q: np.ndarray
    R: np.ndarray
    N: int
    state_constraints: ConstraintBlock = None
    input_constraints: ConstraintBlock = None
    rate_constraints: ConstraintBlock = None

    def __post_init__(self):
        _require_count("horizon N", self.N, 1)
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


@dataclass(frozen=True)
class KroneckerPowers:
    """The horizon powers of A = kron(P, Q), for the free response.

    With A^i = kron(P^i, Q^i) for p x p and q x q factors, the N states
    x_i = A^i x + Gamma_i u, i = 1..N, come from one product with the
    stacked powers of P, one batched product with those of Q, one
    product with the stacked input response and one add, in place of N
    products with A.  Gamma_i comes from `condense`'s rollout.  The
    three arrays are read-only.
    """

    P_powers: np.ndarray    # [P; P^2; ...; P^N], (N p, p)
    Q_powers_T: np.ndarray  # (Q^i)' for i = 1..N, (N, q, q)
    gamma: np.ndarray       # [Gamma_1; ...; Gamma_N], Gamma_i = sum_{j<i} A^j B

    @classmethod
    def of(cls, A: KroneckerOperator, gamma: np.ndarray):
        """The powers for horizon N = len(gamma), gamma holding the
        (n_x, n_u) Gamma_1..Gamma_N: 2(N - 1) products of the factors."""
        P, Q = A.P, A.Q
        N = len(gamma)
        P_powers = np.empty((N, *P.shape))
        Q_powers_T = np.empty((N, *Q.shape))
        P_powers[0], Q_powers_T[0] = P, Q.T
        for i in range(1, N):
            P_powers[i] = P @ P_powers[i - 1]
            Q_powers_T[i] = Q_powers_T[i - 1] @ Q.T
        # concatenate copies, where a reshape could return a view
        powers = cls(P_powers.reshape(-1, P.shape[1]), Q_powers_T,
                     np.concatenate(gamma))
        for val in vars(powers).values():
            val.setflags(write=False)
        return powers

    def free_states(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """x_i = A^i x + Gamma_i u for i = 1..N, one row per step."""
        N, q = self.Q_powers_T.shape[:2]
        p = self.P_powers.shape[1]
        PX = (self.P_powers @ x.reshape(p, q)).reshape(N, p, q)
        xs = np.matmul(PX, self.Q_powers_T).reshape(N, p * q)
        xs += (self.gamma @ u).reshape(N, p * q)
        return xs


@dataclass(frozen=True, kw_only=True)
class CondensedQP(SoftQP):
    """SoftQP produced by condensing, plus structural metadata.

    L is None: z enters only through F and the model's free response,
    which gives c + Lz (`bound`) and the dropped cost (`cost_constant`).
    Every array it holds, `_M`'s and the provenance's too, is read-only.
    """

    model: StateSpaceModel
    problem: TrackingProblem
    layout: ZLayout
    provenance: Provenance
    # blkdiag(M_state, M_input, M_rate): the constraint rows over one
    # step's signal s_i
    _M: sparse.csr_matrix
    # the horizon powers of a Kronecker A; None for a dense A
    _powers: KroneckerPowers = None

    @property
    def qp(self) -> CondensedQP:
        """The problem itself, for callers that unwrap `cqp.qp`."""
        return self

    @property
    def n_u(self) -> int:
        return self.layout.n_u

    def _free_response(self, z):
        """s_i = [x_i; u_prev; 0] at v = 0, with x_i = A x_{i-1} +
        B u_prev from x, i = 1..N: from the cached powers of a Kronecker
        A, or rolled out step by step with a dense one.  One column per
        step, so the per-step block applies to all steps in one
        product."""
        lay = self.layout
        x, u_prev = z[:lay.n_x], z[lay.n_x:lay.y_ref_offset]
        s = np.zeros((lay.n_x + 2 * lay.n_u, lay.N))
        s[lay.n_x:lay.y_ref_offset] = u_prev[:, None]
        if self._powers is not None:
            s[:lay.n_x] = self._powers.free_states(x, u_prev).T
            return s
        A = self.model.A
        Bu = self.model.B @ u_prev
        for i in range(lay.N):
            x = A @ x
            x += Bu
            s[:lay.n_x, i] = x
        return s

    def bound(self, z: np.ndarray) -> np.ndarray:
        """Constraint right-hand side c + Lz = c - M s_i(z, 0), i = 1..N,
        with M the per-step block.

        Cost: N n_x^2 for the step-by-step rollout with a dense A, or
        N (2n^3 + n_x n_u) in four array operations from the cached
        powers of a Kronecker A of two n x n factors (n_x = n^2), plus
        N nnz(M) for the per-step block, against n_c n_z for a dense
        product with L.
        """
        s = self._free_response(self._check_z(z))
        # (M s)' holds one row per step, as c's rows run
        return self.c - (self._M @ s).T.ravel()

    def cost_constant(self, z: np.ndarray) -> float:
        """z-only constant dropped from the condensed objective: the
        output error of the free response, sum_i |C x_i - y_ref_i|_Q^2."""
        z = self._check_z(z)
        lay = self.layout
        x = self._free_response(z)[:lay.n_x]
        err = self.model.C @ x - z[lay.y_ref_offset:].reshape(lay.N, lay.n_y).T
        return float(np.sum((self.problem.Q @ err) * err))


def condense(model: StateSpaceModel, prob: TrackingProblem) -> CondensedQP:
    """Eliminate states and inputs, returning the condensed SoftQP.

    One recursion, x_i = A x_{i-1} + B u_{i-1} with
    u_{i-1} = u_{i-2} + du_{i-1}, gives the predicted signal
    s_i = [x_i; u_{i-1}; du_{i-1}] = P_i z + V_i v for i = 1..N.  It runs
    over the [u_prev; v] columns only (n_u + n_v of them): the x
    column of x_i is A^i, so C A^i (for F) comes from the transposed
    rollout (A')^i C' instead, and F is filled from 2 (C V_i)' Q one
    column block at a time.  The constraint rows of step i are
    M s_i with the per-step block M = blkdiag(M_state, M_input, M_rate),
    held sparse with only the blocks' nonzeros, so the rows of
    W are M V_i, and c, rho and the provenance repeat the blocks' g, rho
    and rows per step.  Rows are thus ordered per prediction step: state
    rows at step i, then input rows at step i-1, then rate rows at i-1,
    for i = 1..N.  The z-only terms, c + Lz = c - M P_i z and the cost
    constant, are left to the free response in `CondensedQP`, for which
    a Kronecker A's horizon powers are cached here, with the rollout's
    u_prev columns of x_i as its input responses Gamma_i.
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
        CTQ = 2.0 * CT.T @ Q
        H += CTQ @ CT
        # z-coefficient of C x_i - y_ref_i: T', C Gamma_i, -I on y_ref_i
        F[:, :n_x] += CTQ @ T.T
        F[:, n_x:n_xu] += CTQ @ CX[:, :n_u]
        F[:, n_xu + (i - 1) * n_y:n_xu + i * n_y] = -CTQ

    M = sparse.block_diag([b.M for b in blocks], format="csr")
    kind = np.repeat([KIND_STATE, KIND_INPUT, KIND_RATE],
                     [b.rows for b in blocks])
    # state rows belong to step i, input and rate rows to step i-1
    step = np.repeat(np.arange(N), len(kind)) + np.tile(kind == KIND_STATE, N)
    row = np.concatenate([np.arange(b.rows) for b in blocks])
    # W is column-major: the screen's one product (2, n_v) @ W' then
    # reads W' contiguously
    blk = M.shape[0]
    W = np.empty((N * blk, n_v), order="F")
    for i, s_i in enumerate(S):
        W[i * blk:(i + 1) * blk] = M @ s_i[:, n_u:]
    provenance = Provenance(np.tile(kind, N), step, np.tile(row, N))
    # read-only, as the arrays `SoftQP` copies are
    for val in (M.data, M.indices, M.indptr, *vars(provenance).values()):
        val.setflags(write=False)
    return CondensedQP(
        H=H, F=F, W=W,
        c=np.tile(np.concatenate([b.g for b in blocks]), N), L=None,
        rho=np.tile(np.concatenate([b.rho for b in blocks]), N),
        model=model, problem=prob, layout=layout,
        provenance=provenance, _M=M,
        _powers=(KroneckerPowers.of(A, S[:, :n_x, :n_u])
                 if isinstance(A, KroneckerOperator) else None))


def assemble_z(x: np.ndarray, u_prev: np.ndarray, y_refs,
               layout: ZLayout) -> np.ndarray:
    """Stack [x; u_prev; y_ref_1; ...; y_ref_N] for `layout`.

    Raises DimensionError for a block that does not match the layout,
    and ValueError naming the block (x, u_prev or the reference window)
    that is complex or holds NaN or inf, each checked once on z.
    """
    x, u_prev = np.asarray(x).ravel(), np.asarray(u_prev).ravel()
    refs = [np.asarray(yr).ravel() for yr in y_refs]
    if len(x) != layout.n_x or len(u_prev) != layout.n_u:
        raise DimensionError("x/u_prev lengths do not match layout")
    if len(refs) != layout.N or any(len(yr) != layout.n_y for yr in refs):
        raise DimensionError("reference window does not match layout")
    z = np.concatenate([x, u_prev] + refs)
    if z.dtype != float or not np.isfinite(z).all():
        # name the first block that is complex or holds NaN or inf
        for name, block in (("x", [x]), ("u_prev", [u_prev]),
                            ("reference window", refs)):
            block = _float_copy(np.concatenate(block), name)
            if not np.isfinite(block).all():
                raise ValueError(f"{name} holds NaN or inf")
        z = z.astype(float)
    return z


def shift_warm_start(prev: SolveResult, qp: CondensedQP) -> tuple:
    """The next step's warm start (v_tilde, classes): the previous
    solution one prediction step on.  Each prediction step takes the
    next one's increment block and row classes (its `n_c / N` rows);
    the last takes zero increments, holding the input, and keeps its
    classes.  None classes (a cold start) stay None.  At the first step
    there is nothing to shift; the closed loop starts from v_uc.
    """
    n_u = qp.n_u
    v_prev = _as_vector(prev.v_star, "previous solution", qp.n_v)
    classes = prev.classes
    if classes is not None:
        _check_classes(classes, "previous classes", qp.n_c)
        step = qp.n_c // qp.layout.N
        classes = np.hstack([classes[:, step:], classes[:, qp.n_c - step:]])
    return np.concatenate([v_prev[n_u:], np.zeros(n_u)]), classes


def extract_input(v_star: np.ndarray, u_prev: np.ndarray) -> np.ndarray:
    """Applied input u = u_prev + first increment block."""
    u_prev = _float_copy(u_prev, "u_prev").ravel()
    v_star = _float_copy(v_star, "v_star").ravel()
    n_u = len(u_prev)
    if len(v_star) < n_u or len(v_star) % n_u:
        raise DimensionError(
            f"solution length {len(v_star)} incompatible with n_u={n_u}")
    return u_prev + v_star[:n_u]
