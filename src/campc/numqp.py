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
each row as inactive, at its boundary or violated and solves the
equality system of those classes exactly:

  solve_soft_qp     interior point method with a slack s per row and
                    eps >= 0 bounded directly; its optimal exit is
                    refined by the loop started from the classes the
                    iterate suggests (the polish).  Its cost grows with
                    the number of rows; it is the full-problem solver.
  solve_active_set  the loop alone, from every row inactive, with
                    solve_soft_qp as the fallback whenever its exit is
                    not a KKT point to `tol`.  Its cost grows with the
                    number of rows that end up active; the closed loop
                    uses it for the screened (reduced) problem.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

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


def _as_matrix(M, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d array, got ndim={M.ndim}")
    return M

def _as_vector(v):
    return np.asarray(v, dtype=float).ravel()


def _require_finite(**arrays):
    """Raise ValueError naming the first array that holds NaN or inf."""
    for name, val in arrays.items():
        if not np.isfinite(val).all():
            raise ValueError(f"{name} holds NaN or inf")


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
    """Data of a soft-constrained QP; immutable after construction.

    The Cholesky factor G of H (upper triangular, H = G'G) is computed
    once and cached.  L may be None (`CondensedQP`); c + Lz is then
    formed by a subclass or passed to the solvers as `rhs`.
    """

    H: np.ndarray
    F: np.ndarray
    W: np.ndarray
    c: np.ndarray
    L: np.ndarray
    rho: np.ndarray
    G: np.ndarray = None  # cached factor; computed if not supplied

    def __post_init__(self):
        H = _as_matrix(self.H, "H")
        F = _as_matrix(self.F, "F")
        n_v = H.shape[0]
        W = np.asarray(self.W, dtype=float).reshape(-1, n_v)
        c = _as_vector(self.c)
        rho = _as_vector(self.rho)
        data = dict(H=H, F=F, W=W, c=c, rho=rho)
        if self.L is not None:
            data["L"] = np.asarray(self.L, dtype=float).reshape(
                len(c), F.shape[1])
        if F.shape[0] != n_v:
            raise DimensionError(f"F has {F.shape[0]} rows, expected {n_v}")
        if len(rho) != len(c):
            raise DimensionError(
                f"rho has {len(rho)} entries, expected {len(c)}")
        if len(rho) and rho.min() <= 0.0:
            raise ValueError("all slack penalties rho must be positive")
        if self.G is None:
            # a supplied G comes from a checked problem (`reduce_qp`), so
            # the per-step reduced QP skips this pass over its data
            _require_finite(**data)
        data["G"] = np.asarray(
            self.G if self.G is not None else cholesky_factor(H))
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
        z = _as_vector(z)
        if len(z) != self.n_z:
            raise DimensionError(f"z has length {len(z)}, expected {self.n_z}")
        return z


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not self.max_iterations >= 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class SolveResult:
    """`iterations` counts interior point iterations, or active-set
    passes when `solve_active_set` returns its own point;
    `kkt_residual` is the scaled residual of `_kkt_residual`."""
    v_star: np.ndarray
    eps_star: np.ndarray
    objective: float
    status: str
    iterations: int
    kkt_residual: float


def _kkt_residual(qp, b, g, v, eps, lam, mu):
    """Scaled max of stationarity, feasibility and complementarity."""
    scale = 1.0 + max(np.abs(g).max(initial=0.0),
                      np.abs(b).max(initial=0.0),
                      qp.rho.max(initial=0.0))
    stat_v = qp.H @ v + g + qp.W.T @ lam
    stat_e = qp.rho - lam - mu
    viol = qp.W @ v - b - eps
    prim = max(viol.max(initial=0.0),
               -eps.min(initial=0.0),
               # dual feasibility: multipliers must stay nonnegative
               -lam.min(initial=0.0),
               -mu.min(initial=0.0))
    comp = max(np.abs(lam * viol).max(initial=0.0),
               np.abs(mu * eps).max(initial=0.0))
    stat = max(np.abs(stat_v).max(initial=0.0),
               np.abs(stat_e).max(initial=0.0))
    return max(stat, prim, comp) / scale


def solve_soft_qp(qp: SoftQP, z: np.ndarray,
                  opts: SolverOptions | None = None,
                  rhs: np.ndarray | None = None) -> SolveResult:
    """Mehrotra predictor-corrector interior point method on (v, eps).

    Each row gets a slack s with multiplier lam, and eps >= 0 is bounded
    directly, with multiplier mu; eps is eliminated from the Newton
    system, leaving an n_v x n_v condensed KKT matrix per iteration.
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
        b = qp.bound(z) if rhs is None else _checked_rhs(qp, rhs)
        v = sla.cho_solve((qp.G, False), -g, check_finite=False)
        viol = W @ v - b
        eps = np.maximum(viol, 0.0) + 1.0
        s = eps - viol          # >= 1 by construction
        if not all(np.isfinite(a).all() for a in (g, b, v, s)):
            return SolveResult(v, eps, np.nan, NUMERICAL_FAILURE, 0, np.inf)
        if n_c == 0:
            res = np.abs(H @ v + g).max(initial=0.0) / (1.0 + np.abs(g).max(initial=0.0))
            return SolveResult(v, eps, qp.objective(v, eps, z), OPTIMAL, 0, res)
        lam = np.ones(n_c)
        mu = np.ones(n_c)
        for it in range(1, opts.max_iterations + 1):
            kkt = _kkt_residual(qp, b, g, v, eps, lam, mu)
            if kkt <= opts.tol:
                status = OPTIMAL
                break

            r_v = H @ v + g + W.T @ lam
            r_e = delta * eps + rho - lam - mu
            r_p = W @ v - b - eps + s

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

            def newton(rc1, rc2):
                e0 = (rc2 - eps * r_e) / m_e
                coef = (lam * (r_p - e0) + rc1) / denom
                dv, _ = dpotrs(Kfac, -r_v - W.T @ coef)
                dlam = Dinv * (W @ dv) + coef
                deps = a * dlam + e0
                dmu = r_e + delta * deps - dlam
                ds = -r_p - W @ dv + deps
                return dv, deps, dlam, dmu, ds

            def max_step(x, dx):
                neg = dx < 0
                if not neg.any():
                    return 1.0
                return min(1.0, float((-ftb * x[neg] / dx[neg]).min()))

            # predictor: aim at complementarity zero
            dv, deps, dlam, dmu, ds = newton(-lam * s, -mu * eps)
            ap = min(max_step(s, ds), max_step(eps, deps))
            ad = min(max_step(lam, dlam), max_step(mu, dmu))
            mu_now = (lam @ s + mu @ eps) / (2 * n_c)
            mu_aff = ((lam + ad * dlam) @ (s + ap * ds)
                      + (mu + ad * dmu) @ (eps + ap * deps)) / (2 * n_c)
            sigma = (max(mu_aff, 0.0) / mu_now) ** 3 if mu_now > 0 else 0.0

            # corrector with centering, from the predictor's step
            target = sigma * mu_now
            dv, deps, dlam, dmu, ds = newton(
                target - lam * s - dlam * ds,
                target - mu * eps - dmu * deps)
            ap = min(max_step(s, ds), max_step(eps, deps))
            ad = min(max_step(lam, dlam), max_step(mu, dmu))

            v = v + ap * dv
            eps = eps + ap * deps
            s = s + ap * ds
            lam = lam + ad * dlam
            mu = mu + ad * dmu

            if (not np.isfinite(v).all() or s.min() <= 0 or eps.min() <= 0
                    or lam.min() <= 0 or mu.min() <= 0):
                status = NUMERICAL_FAILURE
                break

    if status != OPTIMAL:   # an optimal break holds this point's residual
        kkt = _kkt_residual(qp, b, g, v, eps, lam, mu)
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
        if out is not None:
            v_p, eps_p, lam_p, _ = out
            kkt_p = _kkt_residual(qp, b, g, v_p, eps_p, lam_p, rho - lam_p)
            if kkt_p <= kkt:
                v, eps, kkt = v_p, eps_p, kkt_p
    return SolveResult(v, eps, qp.objective(v, eps, z), status, it, kkt)


def solve_active_set(qp: SoftQP, z: np.ndarray,
                     opts: SolverOptions | None = None,
                     rhs: np.ndarray | None = None) -> SolveResult:
    """Cold-start active-set method, with `solve_soft_qp` as fallback.

    Every row starts inactive, and `_active_set` moves one row per pass
    until the equality system of the row classes is a KKT point.  The
    result is `Optimal` only if its KKT residual is at most `opts.tol`,
    and `iterations` counts the passes.  Otherwise (the loop cycled,
    reached its pass cap or met a failed solve) the interior point
    method solves the problem and its result is returned.  Cheapest on
    small problems with few active rows, such as a screened problem.
    `rhs` may carry a precomputed c + Lz; with no rows, or when Fz or
    c + Lz holds NaN or inf, the result is that of `solve_soft_qp`.
    """
    if opts is None:
        opts = SolverOptions()
    if qp.n_c == 0:
        return solve_soft_qp(qp, z, opts, rhs=rhs)
    z = qp._check_z(z)
    with np.errstate(over="ignore", invalid="ignore"):
        b = qp.bound(z) if rhs is None else _checked_rhs(qp, rhs)
        g = qp.F @ z
    out = _active_set(qp, b, g, np.zeros(qp.n_c, dtype=bool),
                      np.zeros(qp.n_c, dtype=bool))
    if out is not None:
        v, eps, lam, passes = out
        kkt = _kkt_residual(qp, b, g, v, eps, lam, qp.rho - lam)
        if kkt <= opts.tol:
            return SolveResult(v, eps, qp.objective(v, eps, z), OPTIMAL,
                               passes, kkt)
    return solve_soft_qp(qp, z, opts, rhs=b)


def _checked_rhs(qp, rhs):
    rhs = _as_vector(rhs)
    if len(rhs) != qp.n_c:
        raise DimensionError(
            f"rhs has length {len(rhs)}, expected {qp.n_c}")
    return rhs


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
    updated in place; on a stop other than the cap they hold the
    classes of the returned point.

    Returns (v, eps, lam, passes) of the last solve, or None if a solve
    failed or b or g holds NaN or inf; the caller judges the point by
    its KKT residual.
    """
    if not (np.isfinite(b).all() and np.isfinite(g).all()):
        return None
    W, rho, G = qp.W, qp.rho, qp.G
    n_v, n_c = qp.n_v, qp.n_c
    tiny = 1e-11 * (1.0 + np.abs(b).max(initial=0.0))
    seen = set()
    for passes in range(1, 3 * n_c + 2):
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
        if state in seen:
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
    return v, eps, lam, passes


ORACLE_MAX_N_V, ORACLE_MAX_N_C = 6, 14   # hypotheses grow as 3^n_c


def enumerate_oracle(qp: SoftQP, z: np.ndarray) -> SolveResult:
    """Exact minimizer by enumerating optimal-slack structures.

    At an optimum each constraint row is in one of three states:
      - inactive: W_j v < b_j, eps_j = 0, multiplier 0;
      - at the boundary: W_j v = b_j, eps_j = 0, multiplier in [0, rho_j];
      - violated: W_j v > b_j, eps_j > 0, multiplier pinned at rho_j.
    Structures are tried with few non-inactive rows first; the first
    KKT-consistent candidate is the global minimizer (convex problem).
    """
    if qp.n_v > ORACLE_MAX_N_V or qp.n_c > ORACLE_MAX_N_C:
        raise SizeGuardError(
            f"oracle limited to n_v <= {ORACLE_MAX_N_V}, "
            f"n_c <= {ORACLE_MAX_N_C}; "
            f"got n_v={qp.n_v}, n_c={qp.n_c}")
    z = qp._check_z(z)
    g = qp.F @ z
    n_v, n_c = qp.n_v, qp.n_c
    rho = qp.rho
    b = qp.bound(z)
    scale = 1.0 + max(np.abs(g).max(initial=0.0), np.abs(b).max(initial=0.0),
                      np.abs(rho).max(initial=0.0))
    tol = 1e-9 * scale

    best = None
    tried = 0
    # hypotheses grouped by (|E|, |P|) and visited with few non-inactive
    # rows first; at a basic optimum |E| <= n_v, so larger E sets are
    # skipped (their KKT systems are singular for generic data)
    for k in range(n_c + 1):
        for e in range(min(k, n_v, n_c) + 1):
            p = k - e
            if p > n_c - e:
                continue
            pairs = []
            for E in itertools.combinations(range(n_c), e):
                rest = [j for j in range(n_c) if j not in E]
                pairs.extend((E, P)
                             for P in itertools.combinations(rest, p))
            for lo in range(0, len(pairs), 4096):
                chunk = pairs[lo:lo + 4096]
                tried += len(chunk)
                cand = _oracle_chunk(qp, b, g, chunk, e, p, tol, tried)
                if cand is not None:
                    if cand.kkt_residual <= 1e-9:
                        return cand
                    if best is None or cand.objective < best.objective:
                        best = cand
    if best is None:
        raise SolverFailure("oracle found no KKT-consistent candidate")
    return best


def _oracle_chunk(qp, b, g, pairs, e, p, tol, tried):
    """Solve and KKT-check one batch of (boundary, pinned) hypotheses."""
    n_v, n_c = qp.n_v, qp.n_c
    H, W, rho = qp.H, qp.W, qp.rho
    m = len(pairs)
    E_arr = np.array([E for E, _ in pairs], dtype=int).reshape(m, e)
    P_arr = np.array([P for _, P in pairs], dtype=int).reshape(m, p)

    rhs_v = np.broadcast_to(-g, (m, n_v)).copy()
    if p:
        rhs_v -= np.einsum("mp,mpv->mv", rho[P_arr], W[P_arr])
    if e:
        WE = W[E_arr]                       # (m, e, n_v)
        K = np.zeros((m, n_v + e, n_v + e))
        K[:, :n_v, :n_v] = H
        K[:, :n_v, n_v:] = WE.transpose(0, 2, 1)
        K[:, n_v:, :n_v] = WE
        rhs = np.concatenate([rhs_v, b[E_arr]], axis=1)
        try:
            sol = np.linalg.solve(K, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            sol = np.array([_lstsq_or_nan(K[i], rhs[i]) for i in range(m)])
        ok = np.abs(np.einsum("mij,mj->mi", K, sol) - rhs).max(axis=1) <= tol
        v = sol[:, :n_v]
        lam_E = sol[:, n_v:]
        ok &= lam_E.min(axis=1, initial=0.0) >= -tol
        ok &= (lam_E - rho[E_arr]).max(axis=1, initial=0.0) <= tol
    else:
        v = sla.cho_solve((qp.G, False), rhs_v.T).T
        lam_E = np.zeros((m, 0))
        ok = np.ones(m, dtype=bool)

    res = v @ W.T - b                       # (m, n_c)
    inactive = np.ones((m, n_c), dtype=bool)
    if e:
        np.put_along_axis(inactive, E_arr, False, axis=1)
    if p:
        np.put_along_axis(inactive, P_arr, False, axis=1)
        ok &= np.take_along_axis(res, P_arr, axis=1).min(axis=1) >= -tol
    ok &= np.where(inactive, res, -np.inf).max(axis=1, initial=-np.inf) <= tol

    hits = np.flatnonzero(ok)
    if not len(hits):
        return None
    best = None
    for i in hits:
        eps = np.maximum(res[i], 0.0)
        eps[inactive[i]] = 0.0
        lam = np.zeros(n_c)
        lam[P_arr[i]] = rho[P_arr[i]]
        lam[E_arr[i]] = lam_E[i]
        mu = rho - lam
        kkt = _kkt_residual(qp, b, g, v[i], eps, lam, mu)
        cand = SolveResult(v[i].copy(), eps, float(
            0.5 * v[i] @ H @ v[i] + v[i] @ g + rho @ eps), OPTIMAL, tried, kkt)
        if kkt <= 1e-9:
            return cand
        if best is None or cand.objective < best.objective:
            best = cand
    return best


def _lstsq_or_nan(K, rhs):
    try:
        return np.linalg.lstsq(K, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:
        return np.full(len(rhs), np.nan)


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
