"""Dense soft-constrained quadratic programs.

Problem form, for data (H, F, W, c, L, rho) and parameter vector z:

    minimize    1/2 v'Hv + v'Fz + rho'eps
    subject to  W v <= c + L z + eps
                eps >= 0

with H symmetric positive definite and rho elementwise positive.  The
module provides the data container, two solvers, a brute-force
enumeration oracle for testing, and a random instance generator for
property tests.

The solvers share one active-set loop (`_active_set`), which classes
each row as inactive, at its boundary or violated, solves the equality
system of those classes exactly and returns that point's KKT residual:

  solve_soft_qp     interior point method on x = [s; eps] (a slack s per
                    row, and eps >= 0 bounded directly) and their
                    multipliers y = [lam; mu]; its optimal exit is
                    refined by the loop started from the classes the
                    iterate suggests (the polish).  Its cost grows with
                    the number of rows; it is the full-problem solver.
  solve_active_set  the loop alone, from the row classes the caller
                    passes as `start` (every row inactive by default),
                    with solve_soft_qp as the fallback whenever its
                    exit's residual exceeds `tol`.  Its cost grows with
                    the number of rows whose class the loop must change;
                    the closed loop uses it for the screened (reduced)
                    problem, from the classes of the last step's result.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dposv, dpotrf, dpotrs


class DimensionError(ValueError):
    """Inconsistent matrix/vector dimensions."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky factorization failed: matrix is not positive definite."""


class SizeGuardError(ValueError):
    """Problem too large for the combinatorial oracle."""


class SolverFailure(RuntimeError):
    """Solver did not return a usable result."""


OPTIMAL = "Optimal"
MAX_ITERATIONS = "MaxIterations"
NUMERICAL_FAILURE = "NumericalFailure"


def _float_copy(val, name):
    """A float copy of `val`; ValueError naming `name` when its dtype is
    complex, whose imaginary part the cast would drop."""
    val = np.asarray(val)
    if val.dtype.kind == "c":
        raise ValueError(f"{name} is complex; only real arrays are accepted")
    return np.array(val, dtype=float)


def _as_matrix(M, name):
    """A float copy of M as a 2-d array."""
    M = np.atleast_2d(_float_copy(M, name))
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d array, got ndim={M.ndim}")
    return M


def _as_vector(v, name, n):
    """`v` raveled to a real float vector of length n, copied if not one."""
    v = np.asarray(v)
    if v.dtype != float:
        v = _float_copy(v, name)
    v = v.ravel()
    if len(v) != n:
        raise DimensionError(f"{name} has length {len(v)}, expected {n}")
    return v


def _check_classes(classes, name, n_c):
    """Raise DimensionError unless `classes` is a (2, n_c) bool array."""
    if classes.shape != (2, n_c) or classes.dtype != bool:
        raise DimensionError(f"{name} must be a (2, {n_c}) bool array, "
                             f"got {classes.shape} {classes.dtype}")


def _as_shaped(M, name, shape):
    """A float copy of M of `shape`: a 2-d M must have that shape, and a
    1-d one is reshaped to it."""
    M = _float_copy(M, name)
    if (M.ndim > 2 or M.ndim == 2 and M.shape != shape
            or M.size != shape[0] * shape[1]):
        raise DimensionError(f"{name} has shape {M.shape}, expected {shape}")
    return M.reshape(shape)


def _require_finite(**arrays):
    """Raise ValueError naming the first array that holds NaN or inf."""
    for name, val in arrays.items():
        if not np.isfinite(val).all():
            raise ValueError(f"{name} holds NaN or inf")


def _require_count(name, value, minimum):
    """Raise ValueError unless `value` is an int or np.integer, not a
    bool, and at least `minimum`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


def cholesky_factor(H: np.ndarray) -> np.ndarray:
    """Upper-triangular G with H = G'G.

    Raises NotPositiveDefiniteError if H is not symmetric positive
    definite (symmetry checked to 1e-12 relative).
    """
    H = _as_matrix(H, "H")
    if H.shape[0] != H.shape[1]:
        raise DimensionError(f"H must be square, got {H.shape}")
    scale = 1.0 + np.abs(H).max()
    if np.abs(H - H.T).max() > 1e-12 * scale:
        raise NotPositiveDefiniteError("H is not symmetric")
    try:
        return sla.cholesky(H, lower=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


@dataclass(frozen=True)
class SoftQP:
    """Data of a soft-constrained QP; immutable after construction: it
    holds its own read-only copy of each array it is given.

    The Cholesky factor G of H (upper triangular, H = G'G) is computed
    once from H and cached.  A 2-d W must be (len(c), n_v) and a 2-d L
    (len(c), n_z); a 1-d one is reshaped to that shape.  L may be None
    (`CondensedQP`); c + Lz is then formed by a subclass or passed to
    the solvers as `rhs`.  A vector argument (z, rhs) is checked for
    realness and length where it enters; `Screener.step` checks shapes.
    """

    H: np.ndarray
    F: np.ndarray
    W: np.ndarray
    c: np.ndarray
    L: np.ndarray
    rho: np.ndarray
    G: np.ndarray = field(init=False)   # the Cholesky factor of H

    def __post_init__(self):
        H = _as_matrix(self.H, "H")
        F = _as_matrix(self.F, "F")
        n_v = H.shape[0]
        c = _float_copy(self.c, "c").ravel()
        rho = _float_copy(self.rho, "rho").ravel()
        W = _as_shaped(self.W, "W", (len(c), n_v))
        data = dict(H=H, F=F, W=W, c=c, rho=rho)
        if self.L is not None:
            data["L"] = _as_shaped(self.L, "L", (len(c), F.shape[1]))
        if F.shape[0] != n_v:
            raise DimensionError(f"F has {F.shape[0]} rows, expected {n_v}")
        if len(rho) != len(c):
            raise DimensionError(
                f"rho has {len(rho)} entries, expected {len(c)}")
        if len(rho) and rho.min() <= 0.0:
            raise ValueError("all slack penalties rho must be positive")
        _require_finite(**data)
        data["G"] = cholesky_factor(H)
        for name, val in data.items():
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def n_v(self) -> int:
        return self.H.shape[0]

    @property
    def n_z(self) -> int:
        return self.F.shape[1]

    @property
    def n_c(self) -> int:
        return len(self.c)

    def bound(self, z: np.ndarray) -> np.ndarray:
        """Constraint right-hand side c + Lz."""
        z = self._check_z(z)
        if self.L is None:
            raise DimensionError("problem holds no L: pass c + Lz as rhs")
        return self.c + self.L @ z

    def unconstrained_minimizer(self, z: np.ndarray) -> np.ndarray:
        """Solve H v = -Fz through the cached Cholesky factor; an Fz that
        overflows gives a non-finite v, not an error."""
        z = self._check_z(z)
        with np.errstate(over="ignore", invalid="ignore"):
            return sla.cho_solve((self.G, False), -self.F @ z,
                                 check_finite=False)

    def objective(self, v: np.ndarray, eps: np.ndarray, z: np.ndarray) -> float:
        return 0.5 * v @ self.H @ v + v @ (self.F @ z) + self.rho @ eps

    def _check_z(self, z):
        return _as_vector(z, "z", self.n_z)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        _require_count("max_iterations", self.max_iterations, 1)


@dataclass(frozen=True)
class SolveResult:
    """`iterations` counts interior point iterations, or active-set
    passes when `solve_active_set` returns its own point, whose (2, n_c)
    bool [boundary; violated] row classes `classes` then holds (None
    otherwise: a cold start); `kkt_residual` is `_kkt_residual`'s."""
    v_star: np.ndarray
    eps_star: np.ndarray
    objective: float
    status: str
    iterations: int
    kkt_residual: float
    classes: np.ndarray | None = None


def _residual_scale(g, b, rho):
    """1 + the largest of |g|, |b| and rho: the divisor of
    `_kkt_residual`, formed once per solve."""
    return 1.0 + max(np.abs(g).max(initial=0.0), np.abs(b).max(initial=0.0),
                     rho.max(initial=0.0))


def _kkt_residual(r_v, res, rho, eps, lam, mu, scale):
    """Scaled max of stationarity, feasibility and complementarity.

    `r_v` = Hv + g + W'lam and `res` = Wv - b are the blocks the caller
    already holds; `scale` is `_residual_scale`.  One numpy max runs over
    all blocks, so a NaN in any of them gives NaN.
    """
    viol = res - eps
    return np.concatenate([
        np.abs(r_v), np.abs(rho - lam - mu),
        # primal feasibility, and dual: multipliers must stay nonnegative
        viol, -eps, -lam, -mu,
        np.abs(lam * viol), np.abs(mu * eps)]).max(initial=0.0) / scale


def _max_step(x, dx, ftb):
    """Step length along dx from x > 0: the fraction `ftb` of the way to
    the nearest boundary of x > 0, or 1 if that is farther.

    A mask-free ratio test: the blocking component i minimizes dx_i/x_i,
    and alpha = min(1, -ftb x_i / dx_i) if dx_i < 0, else 1.
    """
    i = (dx / x).argmin()
    if not dx[i] < 0:   # no component of dx is negative (or dx holds NaN)
        return 1.0
    return min(1.0, float(-ftb * x[i] / dx[i]))


def solve_soft_qp(qp: SoftQP, z: np.ndarray,
                  opts: SolverOptions | None = None,
                  rhs: np.ndarray | None = None) -> SolveResult:
    """Mehrotra predictor-corrector interior point method on (v, eps).

    Each row gets a slack s with multiplier lam, and eps >= 0 is bounded
    directly, with multiplier mu.  The pairs are held as one primal
    vector x = [s; eps] and one dual vector y = [lam; mu], with duality
    measure x'y / (2 n_c); (eps, mu, s) are eliminated from the Newton
    system, leaving an n_v x n_v condensed KKT matrix per iteration.
    Each iteration forms W v and W'lam once, for its one residual
    evaluation and the Newton right-hand sides, writes both Newton
    directions into buffers allocated once per solve, and takes each
    step length from the ratio test of `_max_step`.
    `rhs` may carry a precomputed c + Lz.  An optimal exit is refined by
    an active-set polish, which the exactness of screening relies on.
    If Fz, c + Lz or the start holds NaN or inf (an overflow), the
    result is `NumericalFailure` after 0 iterations.
    """
    if opts is None:
        opts = SolverOptions()
    z = qp._check_z(z)
    n_c = qp.n_c
    H, W, rho = qp.H, qp.W, qp.rho
    # tiny curvature on the slack block; the (v, eps) Hessian is only PSD
    delta = 1e-10
    ftb = 0.995     # fraction of the distance to the boundary a step covers
    status = MAX_ITERATIONS
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # strictly interior start: slack/dual pairs at >= 1
        g = qp.F @ z
        b = qp.bound(z) if rhs is None else _as_vector(rhs, "rhs", qp.n_c)
        # LAPACK's solve through G called directly, as `_active_set` calls
        # it: on an empty reduced problem scipy's cho_solve wrapper
        # costs more than the solve
        v, _ = dpotrs(qp.G, -g)
        viol = W @ v - b
        eps = np.maximum(viol, 0.0) + 1.0
        s = eps - viol          # >= 1 by construction
        if not all(np.isfinite(a).all() for a in (g, b, v, s)):
            return SolveResult(v, eps, np.nan, NUMERICAL_FAILURE, 0, np.inf)
        if n_c == 0:
            res = np.abs(H @ v + g).max(initial=0.0) / (1.0 + np.abs(g).max(initial=0.0))
            return SolveResult(v, eps, qp.objective(v, eps, z), OPTIMAL, 0, res)
        x = np.concatenate([s, eps])
        y = np.ones(2 * n_c)
        # the Newton directions and the target of x * y, written in place
        dx, dy, rc = np.empty(2 * n_c), np.empty(2 * n_c), np.empty(2 * n_c)
        # views, which the in-place steps of x and y move along
        s, eps, lam, mu = x[:n_c], x[n_c:], y[:n_c], y[n_c:]
        ds, deps, dlam, dmu = dx[:n_c], dx[n_c:], dy[:n_c], dy[n_c:]
        scale = _residual_scale(g, b, rho)
        for it in range(1, opts.max_iterations + 1):
            res = W @ v - b
            r_v = H @ v + g + W.T @ lam
            kkt = _kkt_residual(r_v, res, rho, eps, lam, mu, scale)
            if kkt <= opts.tol:
                status = OPTIMAL
                break

            r_e = delta * eps + rho - lam - mu
            r_p = res - eps + s

            # eliminate (eps, mu, s); all denominators stay positive
            m_e = mu + delta * eps
            a = eps / m_e
            denom = lam * a + s
            Dinv = lam / denom
            K = H + (W.T * Dinv) @ W
            Kfac, info = dpotrf(K) if np.isfinite(K).all() else (None, 1)
            if info:
                status = NUMERICAL_FAILURE
                break

            def newton():   # to the target rc of x * y; fills dx and dy
                e0 = (rc[n_c:] - eps * r_e) / m_e
                coef = (lam * (r_p - e0) + rc[:n_c]) / denom
                dv, _ = dpotrs(Kfac, -r_v - W.T @ coef)
                Wdv = W @ dv
                # dlam = Dinv W dv + coef, deps = a dlam + e0,
                # ds = -r_p - W dv + deps, dmu = r_e + delta deps - dlam
                np.add(np.multiply(Dinv, Wdv, out=dlam), coef, out=dlam)
                np.add(np.multiply(a, dlam, out=deps), e0, out=deps)
                np.subtract(deps, np.add(r_p, Wdv, out=ds), out=ds)
                np.add(np.multiply(delta, deps, out=dmu), r_e, out=dmu)
                np.subtract(dmu, dlam, out=dmu)
                return dv

            # predictor: aim at complementarity zero
            np.negative(np.multiply(y, x, out=rc), out=rc)
            dv = newton()
            ap, ad = _max_step(x, dx, ftb), _max_step(y, dy, ftb)
            mu_now = y @ x / (2 * n_c)
            mu_aff = (y + ad * dy) @ (x + ap * dx) / (2 * n_c)
            sigma = (max(mu_aff, 0.0) / mu_now) ** 3 if mu_now > 0 else 0.0

            # corrector with centering, from the predictor's step: the
            # target sigma mu - x * y - dx * dy (dy is spent as scratch;
            # the corrector's Newton step overwrites it)
            rc += sigma * mu_now
            rc -= np.multiply(dy, dx, out=dy)
            dv = newton()
            ap, ad = _max_step(x, dx, ftb), _max_step(y, dy, ftb)

            v += ap * dv
            x += ap * dx
            y += ad * dy

            if not np.isfinite(v).all() or x.min() <= 0 or y.min() <= 0:
                status = NUMERICAL_FAILURE
                break

    if status != OPTIMAL:   # an optimal break holds this point's residual
        kkt = _kkt_residual(H @ v + g + W.T @ lam, W @ v - b, rho, eps, lam,
                            mu, scale)
        if status == MAX_ITERATIONS and kkt <= opts.tol:
            status = OPTIMAL
    if status == OPTIMAL:
        # polish: the active set started from the classes the iterate
        # suggests, comparing each primal quantity with its dual partner;
        # it resolves weakly active rows the interior point cannot
        # separate at loose tolerances, and is kept only if its KKT
        # residual is no larger
        active = s < lam                 # at its boundary or violated
        pinned = active & (eps > mu)     # slack strictly positive
        out = _active_set(qp, b, g, active & ~pinned, pinned)
        if out is not None and out[2] <= kkt:
            v, eps, kkt, _ = out
    return SolveResult(v, eps, qp.objective(v, eps, z), status, it, kkt)


def solve_active_set(qp: SoftQP, z: np.ndarray,
                     opts: SolverOptions | None = None,
                     rhs: np.ndarray | None = None,
                     start: np.ndarray | None = None) -> SolveResult:
    """Active-set method from given row classes, with `solve_soft_qp`
    as fallback.

    `start` is a (2, n_c) bool array [boundary; violated] of the classes
    the loop starts from; None starts every row inactive (a cold start).
    `_active_set` moves one row per pass, on a copy (`start` is only
    read), until the equality system of the classes is a KKT point.
    The result is `Optimal` only if its KKT residual is at most
    `opts.tol`; `iterations` counts the passes and `classes` holds the
    classes of the returned point.  Otherwise (the loop cycled, reached
    its pass cap or met a failed solve) the interior point method's
    result, with no classes, is returned.  Cheapest on small problems
    with few active rows, such as a screened problem, and from the
    classes of a nearby problem, such as the previous closed-loop step.
    `rhs` may carry a precomputed c + Lz; with no rows, or when Fz or
    c + Lz holds NaN or inf, the result is that of `solve_soft_qp`.
    """
    if opts is None:
        opts = SolverOptions()
    if start is None:
        start = np.zeros((2, qp.n_c), dtype=bool)
    _check_classes(start, "start", qp.n_c)
    if (start[0] & start[1]).any():
        raise ValueError("start puts a row both at its boundary and violated")
    if qp.n_c == 0:
        return solve_soft_qp(qp, z, opts, rhs=rhs)
    z = qp._check_z(z)
    with np.errstate(over="ignore", invalid="ignore"):
        b = qp.bound(z) if rhs is None else _as_vector(rhs, "rhs", qp.n_c)
        g = qp.F @ z
    classes = start.copy()
    out = _active_set(qp, b, g, *classes)
    if out is not None and out[2] <= opts.tol:
        v, eps, kkt, passes = out
        return SolveResult(v, eps, qp.objective(v, eps, z), OPTIMAL,
                           passes, kkt, classes)
    return solve_soft_qp(qp, z, opts, rhs=b)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _active_set(qp, b, g, eq, pinned):
    """Active-set loop over the classes of the soft QP's rows.

    A row is inactive (W_j v <= b_j, eps_j = 0, multiplier 0), at its
    boundary (`eq`: W_j v = b_j, eps_j = 0, multiplier in [0, rho_j]) or
    violated (`pinned`: eps_j = W_j v - b_j >= 0, multiplier rho_j), as
    in `enumerate_oracle`.  Each pass solves the equality system the
    classes define exactly, then moves the single row whose sign
    condition fails worst to the class its own numbers point at.  The
    loop stops when no row fails by more than a tiny margin.  It can
    cycle: each pass is a function of the classes alone, so it stops
    when it has solved the same classes twice, and in any case after
    3*n_c + 1 passes, which bounds its cost.  `eq` and `pinned` are
    updated in place; at every stop they hold the classes of the
    returned point.

    Returns (v, eps, kkt, passes) of the last solve, with kkt its
    `_kkt_residual`, or None if a solve failed or b or g holds NaN or
    inf; the caller judges the point by that residual.
    """
    if not (np.isfinite(b).all() and np.isfinite(g).all()):
        return None
    W, rho, G = qp.W, qp.rho, qp.G
    n_v, n_c = qp.n_v, qp.n_c
    tiny = 1e-11 * (1.0 + np.abs(b).max(initial=0.0))
    seen = set()
    cap = 3 * n_c + 1
    for passes in range(1, cap + 1):
        E, = eq.nonzero()
        P, = pinned.nonzero()
        # range-space solve through the cached factor G (H = G'G), which
        # was checked when the problem was built: v first minimizes with
        # the boundary rows left out, then their multipliers solve the
        # Schur complement system S lam_E = W_E v - b_E and correct it
        v, _ = dpotrs(G, -g - rho[P] @ W[P])
        if len(E):
            W_E = W[E]
            Y, _ = dpotrs(G, W_E.T)          # H^-1 W_E'
            S = W_E @ Y
            r = W_E @ v - b[E]
            _, lam_E, info = dposv(S, r)
            if info or len(E) > n_v:
                # more boundary rows than variables, or dependent ones:
                # the least-norm multipliers
                try:
                    lam_E = np.linalg.lstsq(S, r, rcond=None)[0]
                except np.linalg.LinAlgError:
                    return None
            v = v - Y @ lam_E
        else:
            lam_E = np.zeros(0)
        res = W @ v - b
        # how far each row's sign condition fails: res <= 0 if inactive,
        # res >= 0 if pinned, 0 <= lam <= rho at the boundary
        score = np.where(pinned, -res, res)
        score[E] = np.maximum(-lam_E, lam_E - rho[E])
        j = int(score.argmax())
        if score[j] <= tiny:
            break
        state = (E.tobytes(), P.tobytes())
        if state in seen or passes == cap:
            break
        seen.add(state)
        if eq[j]:
            # a negative multiplier releases the row; one above rho_j
            # means the slack must carry it
            eq[j] = False
            pinned[j] = lam_E[np.searchsorted(E, j)] > rho[j]
        elif pinned[j] or len(E) < n_v:
            eq[j] = True
            pinned[j] = False
        else:
            # the boundary rows already fix v, so a violated row cannot
            # join them; its slack carries it instead
            pinned[j] = True
    eps = np.zeros(n_c)
    eps[P] = np.maximum(res[P], 0.0)
    lam = np.zeros(n_c)
    lam[P] = rho[P]
    lam[E] = lam_E
    kkt = _kkt_residual(qp.H @ v + g + W.T @ lam, res, rho, eps, lam,
                        rho - lam, _residual_scale(g, b, rho))
    return v, eps, kkt, passes


ORACLE_MAX_N_V, ORACLE_MAX_N_C = 6, 14   # hypotheses grow as 3^n_c


def enumerate_oracle(qp: SoftQP, z: np.ndarray) -> SolveResult:
    """Exact minimizer by enumerating optimal-slack structures.

    At an optimum each constraint row is in one of three states:
      - inactive: W_j v < b_j, eps_j = 0, multiplier 0;
      - at the boundary: W_j v = b_j, eps_j = 0, multiplier in [0, rho_j];
      - violated: W_j v > b_j, eps_j > 0, multiplier pinned at rho_j.
    Structures are tried with few non-inactive rows first, and among
    those with few boundary rows first; the first KKT-consistent
    candidate is the global minimizer (convex problem).

    Each structure's equality system is the KKT matrix
    [[H, W_E'], [W_E, 0]] of its boundary rows E.  With H definite it
    is singular exactly when the rows of W_E are dependent (a zero row
    among them counts), and such a structure is skipped.  That loses no
    minimizer: if it were consistent with multipliers lam_E, a vertex
    of {l in [0, rho_E] : W_E'l = W_E'lam_E} gives the same v with
    independent boundary rows and every other row of E inactive
    (multiplier 0, residual 0) or pinned (multiplier rho_j, slack 0).
    That structure has fewer boundary rows and no more non-inactive
    ones, so the enumeration reaches it first.
    """
    if qp.n_v > ORACLE_MAX_N_V or qp.n_c > ORACLE_MAX_N_C:
        raise SizeGuardError(
            f"oracle limited to n_v <= {ORACLE_MAX_N_V}, "
            f"n_c <= {ORACLE_MAX_N_C}; "
            f"got n_v={qp.n_v}, n_c={qp.n_c}")
    z = qp._check_z(z)
    g = qp.F @ z
    n_v, n_c = qp.n_v, qp.n_c
    b = qp.bound(z)
    scale = _residual_scale(g, b, qp.rho)

    best = None
    tried = 0
    # hypotheses grouped by (|E|, |P|) and visited with few non-inactive
    # rows first; at a basic optimum |E| <= n_v, so larger E sets are
    # skipped (their rows are dependent)
    for k in range(n_c + 1):
        for e in range(min(k, n_v) + 1):
            p = k - e
            pairs = []
            for E in itertools.combinations(range(n_c), e):
                rest = [j for j in range(n_c) if j not in E]
                pairs.extend((E, P)
                             for P in itertools.combinations(rest, p))
            for lo in range(0, len(pairs), 4096):
                chunk = pairs[lo:lo + 4096]
                tried += len(chunk)
                for cand in _oracle_chunk(qp, b, g, chunk, e, p, scale,
                                          tried):
                    if cand.kkt_residual <= 1e-9:
                        return cand
                    if best is None or cand.objective < best.objective:
                        best = cand
    if best is None:
        raise SolverFailure("oracle found no KKT-consistent candidate")
    return best


def _oracle_chunk(qp, b, g, pairs, e, p, scale, tried):
    """Solve one batch of (boundary, pinned) hypotheses and yield the
    KKT-consistent ones in order, skipping singular systems; a check
    passes within 1e-9 of `scale`, the `_residual_scale` of the problem."""
    n_v, n_c = qp.n_v, qp.n_c
    H, W, rho = qp.H, qp.W, qp.rho
    tol = 1e-9 * scale
    m = len(pairs)
    E_arr = np.array([E for E, _ in pairs], dtype=int).reshape(m, e)
    P_arr = np.array([P for _, P in pairs], dtype=int).reshape(m, p)

    WE = W[E_arr]                           # (m, e, n_v)
    K = np.zeros((m, n_v + e, n_v + e))
    K[:, :n_v, :n_v] = H
    K[:, :n_v, n_v:] = WE.transpose(0, 2, 1)
    K[:, n_v:, :n_v] = WE
    rhs = np.concatenate(
        [-g - np.einsum("mp,mpv->mv", rho[P_arr], W[P_arr]), b[E_arr]], axis=1)
    ok = np.ones(m, dtype=bool)
    try:
        sol = np.linalg.solve(K, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # some boundary rows are dependent (see `enumerate_oracle`); the
        # sign of slogdet, unlike det, cannot underflow to 0
        ok = np.linalg.slogdet(K)[0] != 0
        sol = np.zeros((m, n_v + e))
        sol[ok] = np.linalg.solve(K[ok], rhs[ok, :, None])[..., 0]
    ok &= np.abs(np.einsum("mij,mj->mi", K, sol) - rhs).max(axis=1) <= tol
    v = sol[:, :n_v]
    lam_E = sol[:, n_v:]
    ok &= lam_E.min(axis=1, initial=0.0) >= -tol
    ok &= (lam_E - rho[E_arr]).max(axis=1, initial=0.0) <= tol

    res = v @ W.T - b                       # (m, n_c)
    inactive = np.ones((m, n_c), dtype=bool)
    np.put_along_axis(inactive, E_arr, False, axis=1)
    np.put_along_axis(inactive, P_arr, False, axis=1)
    ok &= np.take_along_axis(res, P_arr, axis=1).min(
        axis=1, initial=np.inf) >= -tol
    ok &= np.where(inactive, res, -np.inf).max(axis=1, initial=-np.inf) <= tol

    for i in np.flatnonzero(ok):
        eps = np.maximum(res[i], 0.0)
        eps[inactive[i]] = 0.0
        lam = np.zeros(n_c)
        lam[P_arr[i]] = rho[P_arr[i]]
        lam[E_arr[i]] = lam_E[i]
        kkt = _kkt_residual(H @ v[i] + g + W.T @ lam, W @ v[i] - b, rho, eps,
                            lam, rho - lam, scale)
        yield SolveResult(v[i].copy(), eps, float(
            0.5 * v[i] @ H @ v[i] + v[i] @ g + rho @ eps), OPTIMAL, tried, kkt)


def random_soft_qp(rng):
    """Random well-conditioned soft QP plus a parameter vector, with
    1-4 variables, 1-10 constraints and 1-3 parameters."""
    n_v = int(rng.integers(1, 5))
    n_c = int(rng.integers(1, 11))
    n_z = int(rng.integers(1, 4))
    M = rng.normal(size=(n_v, n_v))
    qp = SoftQP(
        H=M.T @ M + 0.1 * np.eye(n_v),
        F=rng.normal(size=(n_v, n_z)),
        W=rng.normal(size=(n_c, n_v)),
        c=rng.normal(size=n_c),
        L=rng.normal(size=(n_c, n_z)),
        rho=rng.uniform(0.2, 3.0, size=n_c),
    )
    z = rng.normal(size=n_z)
    return qp, z
