"""Dense soft-constrained quadratic programs.

Problem form, for data (H, F, W, c, L, rho) and parameter vector z:

    minimize    1/2 v'Hv + v'Fz + rho'eps
    subject to  W v <= c + L z + eps
                eps >= 0

with H symmetric positive definite and rho elementwise positive.  The
module provides the data container, an interior point solver, a
brute-force enumeration oracle for testing, and a random instance
generator for property tests.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


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

def _as_vector(v, name):
    v = np.asarray(v, dtype=float).ravel()
    return v


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
    once and cached.
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
        c = _as_vector(self.c, "c")
        L = np.asarray(self.L, dtype=float).reshape(len(c), F.shape[1])
        rho = _as_vector(self.rho, "rho")
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
            _require_finite(H=H, F=F, W=W, c=c, L=L, rho=rho)
        G = self.G if self.G is not None else cholesky_factor(H)
        for name, val in (("H", H), ("F", F), ("W", W), ("c", c),
                          ("L", L), ("rho", rho), ("G", np.asarray(G))):
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
        return self.c + self.L @ z

    def unconstrained_minimizer(self, z: np.ndarray) -> np.ndarray:
        """Solve H v = -Fz through the cached Cholesky factor."""
        z = self._check_z(z)
        return sla.cho_solve((self.G, False), -self.F @ z)

    def objective(self, v: np.ndarray, eps: np.ndarray, z: np.ndarray) -> float:
        return 0.5 * v @ self.H @ v + v @ (self.F @ z) + self.rho @ eps

    def _check_z(self, z):
        z = _as_vector(z, "z")
        if len(z) != self.n_z:
            raise DimensionError(f"z has length {len(z)}, expected {self.n_z}")
        return z


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iterations: int = 200
    fraction_to_boundary: float = 0.995
    # tiny curvature on the slack block; the (v, eps) Hessian is only PSD
    eps_shift: float = 1e-10
    # active-set refinement after convergence
    polish: bool = True

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not self.max_iterations >= 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.fraction_to_boundary < 1.0:
            raise ValueError("fraction_to_boundary must lie in (0, 1), "
                             f"got {self.fraction_to_boundary}")
        if not self.eps_shift >= 0.0:
            raise ValueError(f"eps_shift must be >= 0, got {self.eps_shift}")


@dataclass(frozen=True)
class SolveResult:
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
                      np.abs(qp.rho).max(initial=0.0))
    stat_v = qp.H @ v + g + qp.W.T @ lam
    stat_e = qp.rho - lam - mu
    viol = qp.W @ v - b - eps
    prim = max(np.maximum(viol, 0.0).max(initial=0.0),
               np.maximum(-eps, 0.0).max(initial=0.0),
               # dual feasibility: multipliers must stay nonnegative
               np.maximum(-lam, 0.0).max(initial=0.0),
               np.maximum(-mu, 0.0).max(initial=0.0))
    comp = max(np.abs(lam * viol).max(initial=0.0),
               np.abs(mu * eps).max(initial=0.0))
    stat = max(np.abs(stat_v).max(initial=0.0),
               np.abs(stat_e).max(initial=0.0))
    return max(stat, prim, comp) / scale


def solve_soft_qp(qp: SoftQP, z: np.ndarray,
                  opts: SolverOptions | None = None,
                  rhs: np.ndarray | None = None) -> SolveResult:
    """Mehrotra predictor-corrector interior point method on (v, eps).

    Inequalities are handled through positive slacks s (constraint rows)
    and t (eps >= 0); eps itself is eliminated from the Newton system,
    leaving an n_v x n_v condensed KKT matrix per iteration.  `rhs` may
    carry a precomputed c + Lz.
    """
    if opts is None:
        opts = SolverOptions()
    z = qp._check_z(z)
    g = qp.F @ z
    n_v, n_c = qp.n_v, qp.n_c
    if rhs is not None:
        rhs = _as_vector(rhs, "rhs")
        if len(rhs) != n_c:
            raise DimensionError(
                f"rhs has length {len(rhs)}, expected {n_c}")

    if n_c == 0:
        v = qp.unconstrained_minimizer(z)
        eps = np.zeros(0)
        res = np.abs(qp.H @ v + g).max(initial=0.0) / (1.0 + np.abs(g).max(initial=0.0))
        return SolveResult(v, eps, qp.objective(v, eps, z), OPTIMAL, 0, res)

    H, W, rho = qp.H, qp.W, qp.rho
    b = qp.bound(z) if rhs is None else rhs
    delta = opts.eps_shift

    # strictly interior start: slack/dual pairs at >= 1
    v = qp.unconstrained_minimizer(z)
    viol = W @ v - b
    eps = np.maximum(viol, 0.0) + 1.0
    s = eps - viol          # >= 1 by construction
    t = eps.copy()
    lam = np.ones(n_c)
    mu = np.ones(n_c)

    ftb = opts.fraction_to_boundary
    status = MAX_ITERATIONS
    it = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(1, opts.max_iterations + 1):
            kkt = _kkt_residual(qp, b, g, v, eps, lam, mu)
            if kkt <= opts.tol:
                status = OPTIMAL
                break

            r_v = H @ v + g + W.T @ lam
            r_e = delta * eps + rho - lam - mu
            r_p = W @ v - b - eps + s
            r_t = t - eps

            # eliminate (eps, mu, s, t); all denominators stay positive
            a = t / (mu + delta * t)
            denom = lam * a + s
            Dinv = lam / denom
            try:
                K = H + (W.T * Dinv) @ W
                if not np.isfinite(K).all():
                    raise np.linalg.LinAlgError("non-finite KKT matrix")
                Kfac = sla.cho_factor(K, lower=False)
            except (np.linalg.LinAlgError, ValueError):
                status = NUMERICAL_FAILURE
                break

            def newton(rc1, rc2):
                e0 = (rc2 - t * r_e + mu * r_t) / (mu + delta * t)
                coef = (lam * (r_p - e0) + rc1) / denom
                dv = sla.cho_solve(Kfac, -r_v - W.T @ coef)
                dlam = Dinv * (W @ dv) + coef
                deps = a * dlam + e0
                dmu = r_e + delta * deps - dlam
                ds = -r_p - W @ dv + deps
                dt = deps - r_t
                return dv, deps, dlam, dmu, ds, dt

            def max_step(x, dx):
                neg = dx < 0
                if not neg.any():
                    return 1.0
                return min(1.0, float((-ftb * x[neg] / dx[neg]).min()))

            # predictor: aim at complementarity zero
            aff = newton(-lam * s, -mu * t)
            dv, deps, dlam, dmu, ds, dt = aff
            ap = min(max_step(s, ds), max_step(t, dt))
            ad = min(max_step(lam, dlam), max_step(mu, dmu))
            mu_now = (lam @ s + mu @ t) / (2 * n_c)
            mu_aff = ((lam + ad * dlam) @ (s + ap * ds)
                      + (mu + ad * dmu) @ (t + ap * dt)) / (2 * n_c)
            sigma = (max(mu_aff, 0.0) / mu_now) ** 3 if mu_now > 0 else 0.0

            # corrector with centering
            target = sigma * mu_now
            dv, deps, dlam, dmu, ds, dt = newton(
                target - lam * s - aff[2] * aff[4],
                target - mu * t - aff[3] * aff[5])
            ap = min(max_step(s, ds), max_step(t, dt))
            ad = min(max_step(lam, dlam), max_step(mu, dmu))

            v = v + ap * dv
            eps = eps + ap * deps
            s = s + ap * ds
            t = t + ap * dt
            lam = lam + ad * dlam
            mu = mu + ad * dmu

            if (not np.isfinite(v).all() or s.min() <= 0 or t.min() <= 0
                    or lam.min() <= 0 or mu.min() <= 0):
                status = NUMERICAL_FAILURE
                break

    kkt = _kkt_residual(qp, b, g, v, eps, lam, mu)
    if status != NUMERICAL_FAILURE and kkt <= opts.tol:
        status = OPTIMAL
    if status == OPTIMAL and opts.polish:
        v, eps, kkt = _polish(qp, b, g, v, eps, lam, mu, s, t, kkt)
    return SolveResult(v, eps, qp.objective(v, eps, z), status, it, kkt)


def _polish(qp, b, g, v, eps, lam, mu, s, t, kkt):
    """Active-set refinement of a converged interior point iterate.

    Rows start in the class suggested by comparing each primal quantity
    against its dual partner (inactive / at the boundary / violated).
    The guessed equality system is solved exactly; rows whose sign
    conditions come out wrong are reclassified one at a time, which
    resolves weakly-active rows the interior point cannot separate at
    loose tolerances.  The refined point is kept only if its KKT
    residual does not grow.
    """
    H, W, rho = qp.H, qp.W, qp.rho
    n_v, n_c = qp.n_v, qp.n_c
    active = s < lam          # constraint row at its boundary or violated
    pinned = active & (t > mu)       # slack strictly positive
    eq = active & ~pinned            # at the boundary with zero slack
    tiny = 1e-11 * (1.0 + np.abs(b).max(initial=0.0))
    best = (v, eps, kkt)
    for _ in range(3 * n_c + 1):
        E = np.flatnonzero(eq)
        P = np.flatnonzero(pinned)
        rhs_v = -g - W[P].T @ rho[P]
        nE = len(E)
        try:
            if nE:
                KKT = np.zeros((n_v + nE, n_v + nE))
                KKT[:n_v, :n_v] = H
                KKT[:n_v, n_v:] = W[E].T
                KKT[n_v:, :n_v] = W[E]
                rhs = np.concatenate([rhs_v, b[E]])
                sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
                v_new, lam_E = sol[:n_v], sol[n_v:]
            else:
                v_new = sla.cho_solve((qp.G, False), rhs_v)
                lam_E = np.zeros(0)
        except np.linalg.LinAlgError:
            break
        res = W @ v_new - b
        eps_new = np.zeros_like(eps)
        eps_new[P] = np.maximum(res[P], 0.0)
        lam_new = np.zeros_like(lam)
        lam_new[P] = rho[P]
        lam_new[E] = lam_E
        mu_new = rho - lam_new
        kkt_new = _kkt_residual(qp, b, g, v_new, eps_new, lam_new, mu_new)
        if kkt_new <= best[2]:
            best = (v_new, eps_new, kkt_new)

        # score each way a row's sign conditions can fail and move the
        # single worst offender to the class its own numbers point at
        bad_i = np.where(~eq & ~pinned, res, -np.inf)      # should hold
        bad_p = np.where(pinned, -res, -np.inf)            # slack >= 0
        bad_lo = np.full(n_c, -np.inf)
        bad_hi = np.full(n_c, -np.inf)
        bad_lo[E] = -lam_E                                 # lam_E >= 0
        bad_hi[E] = lam_E - rho[E]                         # lam_E <= rho
        worst = max(bad_i.max(initial=-np.inf), bad_p.max(initial=-np.inf),
                    bad_lo.max(initial=-np.inf), bad_hi.max(initial=-np.inf))
        if worst <= tiny:
            break
        if worst == bad_i.max(initial=-np.inf):
            j = int(bad_i.argmax())
            eq[j] = True
        elif worst == bad_p.max(initial=-np.inf):
            j = int(bad_p.argmax())
            pinned[j] = False
            eq[j] = True
        elif worst == bad_lo.max(initial=-np.inf):
            j = int(bad_lo.argmax())
            eq[j] = False
        else:
            j = int(bad_hi.argmax())
            eq[j] = False
            pinned[j] = True
    return best


def enumerate_oracle(qp: SoftQP, z: np.ndarray,
                     max_n_v: int = 6, max_n_c: int = 14) -> SolveResult:
    """Exact minimizer by enumerating optimal-slack structures.

    At an optimum each constraint row is in one of three states:
      - inactive: W_j v < b_j, eps_j = 0, multiplier 0;
      - at the boundary: W_j v = b_j, eps_j = 0, multiplier in [0, rho_j];
      - violated: W_j v > b_j, eps_j > 0, multiplier pinned at rho_j.
    Structures are tried with few non-inactive rows first; the first
    KKT-consistent candidate is the global minimizer (convex problem).
    """
    if qp.n_v > max_n_v or qp.n_c > max_n_c:
        raise SizeGuardError(
            f"oracle limited to n_v <= {max_n_v}, n_c <= {max_n_c}; "
            f"got n_v={qp.n_v}, n_c={qp.n_c}")
    z = qp._check_z(z)
    g = qp.F @ z
    n_v, n_c = qp.n_v, qp.n_c
    H, W, rho = qp.H, qp.W, qp.rho
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


def random_soft_qp(rng, n_v_max=4, n_c_max=10, n_z_max=3):
    """Random well-conditioned soft QP plus a parameter vector."""
    n_v = int(rng.integers(1, n_v_max + 1))
    n_c = int(rng.integers(1, n_c_max + 1))
    n_z = int(rng.integers(1, n_z_max + 1))
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
