"""Online constraint screening via an ellipsoidal minimizer bound.

From any candidate sequence v~ the minimal feasible slacks are
completed, an ellipsoid guaranteed to contain the full-problem
minimizer is formed, and every constraint whose half-space contains the
ellipsoid (with its slack at zero) is removed.  Solving the reduced
problem then yields the minimizer of the full problem.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from campc.numqp import DimensionError, SoftQP, SolveResult


# largest slack a removed row may need at the reduced minimizer
REMOVED_SLACK_TOL = 1e-7


class EquivalenceViolation(RuntimeError):
    """A removed constraint is violated by the reduced minimizer."""


@dataclass(frozen=True)
class EllipsoidBound:
    """Ellipsoid {v : |G(v - q)|^2 <= sigma} containing the minimizer."""

    q: np.ndarray
    sigma: float
    G: np.ndarray

    def contains(self, v: np.ndarray, rel_tol: float = 0.0) -> bool:
        return self.radius_sq(v) <= self.sigma * (1.0 + rel_tol) + rel_tol

    def radius_sq(self, v: np.ndarray) -> float:
        return float(np.sum((self.G @ (np.asarray(v, float) - self.q)) ** 2))


@dataclass(frozen=True)
class KeptSet:
    """Ascending indices of the constraints kept in the reduced problem."""

    indices: np.ndarray
    n_c: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).ravel()
        if len(idx) and (idx.min() < 0 or idx.max() >= self.n_c):
            raise IndexError("kept index out of range")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("kept indices must be strictly ascending")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class Screener:
    """The per-step screen and its offline data: the row norms
    zeta_j = |W_j G^-1|_2 and the map v_uc_map = -H^-1 F.

    `qp.bound` forms c + Lz the way the problem forms it: a
    `CondensedQP` from its rollout.  `v_uc_map @ z` is
    the unconstrained minimizer v_uc the screen needs, one
    n_v x n_z product instead of a product with F and two triangular
    solves.  One keep rule (see `screen`) decides every row; a row with
    a zero normal (zeta_j = 0) needs no rule of its own, since it is
    kept exactly when the candidate violates it or |c_j + L_j z| <= tau.
    """

    zeta: np.ndarray
    qp: SoftQP
    v_uc_map: np.ndarray

    def step(self, v_tilde: np.ndarray, v_uc: np.ndarray,
             rhs: np.ndarray) -> KeptSet:
        """Screen from candidate v~, unconstrained minimizer v_uc and
        rhs = c + Lz.

        Completes the slacks eps~ = max(0, Wv~ - rhs), forms
        sigma = rho'eps~ + |G(v~ - v_uc)|^2 / 4 and applies the keep
        rule of `screen`.  The ellipsoid center q = (v~ + v_uc)/2
        enters only through W q, so it is formed in constraint-row
        space.
        """
        qp = self.qp
        Wvt = qp.W @ v_tilde
        Wvu = qp.W @ v_uc
        eps_tilde = Wvt - rhs
        np.maximum(eps_tilde, 0.0, out=eps_tilde)
        Gd = qp.G @ (v_tilde - v_uc)
        sigma = float(qp.rho @ eps_tilde + 0.25 * (Gd @ Gd))
        Wvt += Wvu
        Wvt *= 0.5
        return self._keep(sigma, eps_tilde, rhs, Wvt)

    def _keep(self, sigma: float, eps_tilde, b, margin) -> KeptSet:
        """Keep rule; overwrites `margin` (W q on entry) in place."""
        if sigma < np.inf:
            rad = np.sqrt(max(sigma, 0.0))
            # reach of the ellipsoid along W_j plus a small safety margin
            tau = 1e-9 * (1.0 + np.abs(b).max(initial=0.0))
            thresh = rad * self.zeta
            thresh += tau
            gap = np.subtract(b, margin, out=margin)
            np.abs(gap, out=gap)
            keep = thresh >= gap
            keep |= eps_tilde > 0.0
            idx = np.flatnonzero(keep)
        else:
            # a NaN or infinite sigma bounds nothing: keep every row
            idx = np.arange(self.qp.n_c)
        idx.setflags(write=False)
        # indices are ascending and in range by construction
        kept = object.__new__(KeptSet)
        object.__setattr__(kept, "indices", idx)
        object.__setattr__(kept, "n_c", self.qp.n_c)
        return kept


def precompute_row_norms(qp: SoftQP) -> Screener:
    """The Screener of `qp`, with zeta_j = |W_j G^-1|_2 via one
    triangular solve per row and v_uc_map = -H^-1 F via the cached
    Cholesky factor."""
    Y = sla.solve_triangular(qp.G, qp.W.T, trans="T", lower=False)
    v_uc_map = sla.cho_solve((qp.G, False), -qp.F)
    v_uc_map.setflags(write=False)
    return Screener(zeta=np.linalg.norm(Y, axis=0), qp=qp, v_uc_map=v_uc_map)


def complete_slacks(v_tilde: np.ndarray, qp: SoftQP, z: np.ndarray,
                    rhs: np.ndarray | None = None) -> np.ndarray:
    """Minimal slacks making (v~, eps~) feasible: max(0, Wv~ - c - Lz).

    `rhs` may carry a precomputed c + Lz.
    """
    v_tilde = np.asarray(v_tilde, dtype=float).ravel()
    if len(v_tilde) != qp.n_v:
        raise DimensionError(
            f"candidate has length {len(v_tilde)}, expected {qp.n_v}")
    if rhs is None:
        rhs = qp.bound(z)
    return np.maximum(0.0, qp.W @ v_tilde - rhs)


def ellipsoid_bound(v_tilde: np.ndarray, eps_tilde: np.ndarray, qp: SoftQP,
                    z: np.ndarray) -> EllipsoidBound:
    """Bound on the full-problem minimizer from a feasible pair.

    Center q = (v~ + v_uc)/2 with v_uc = -H^-1 Fz; squared radius
    sigma = rho'eps~ + |G(v~ - v_uc)|^2 / 4.
    """
    v_tilde = np.asarray(v_tilde, dtype=float).ravel()
    eps_tilde = np.asarray(eps_tilde, dtype=float).ravel()
    v_uc = qp.unconstrained_minimizer(z)
    q = 0.5 * (v_tilde + v_uc)
    sigma = float(qp.rho @ eps_tilde
                  + 0.25 * np.sum((qp.G @ (v_tilde - v_uc)) ** 2))
    return EllipsoidBound(q=q, sigma=sigma, G=qp.G)


def screen(cache: Screener, bound: EllipsoidBound, z: np.ndarray,
           eps_tilde: np.ndarray) -> KeptSet:
    """Keep row j unless its half-space provably contains the ellipsoid.

    Row j is kept when sqrt(sigma)*zeta_j + tau >= |c_j + L_j z - W_j q|
    with tau = 1e-9 (1 + max|c + Lz|) (non-strict rule: a tangent
    constraint is kept), or when the candidate violates it
    (eps~_j > 0), and every row is kept when sigma is NaN or inf.  This
    one rule decides every row, a zero-normal one included.
    `Screener.step`, which the closed loop runs, applies the same rule.
    """
    margin = cache.qp.W @ bound.q
    return cache._keep(bound.sigma, eps_tilde, cache.qp.bound(z), margin)


def reduce_qp(qp: SoftQP, kept: KeptSet) -> SoftQP:
    """SoftQP with only the kept rows; H, G, F are shared unchanged.
    Without L (a `CondensedQP`), its solvers need `rhs`."""
    if kept.n_c != qp.n_c:
        raise DimensionError("kept set built for a different problem")
    idx = kept.indices
    return SoftQP(H=qp.H, F=qp.F, W=qp.W[idx], c=qp.c[idx],
                  L=None if qp.L is None else qp.L[idx], rho=qp.rho[idx],
                  G=qp.G)


def expand_solution(red: SolveResult, kept: KeptSet, qp, z: np.ndarray,
                    rhs: np.ndarray | None = None) -> SolveResult:
    """Re-embed a reduced solution into the full constraint ordering.

    Slacks for removed rows are recomputed from the minimizer; any of
    them exceeding REMOVED_SLACK_TOL signals an unsound screening
    decision.  `rhs` may carry a precomputed c + Lz.
    """
    v = np.asarray(red.v_star, dtype=float).ravel()
    eps = complete_slacks(v, qp, z, rhs=rhs)
    removed = np.ones(qp.n_c, dtype=bool)
    removed[kept.indices] = False
    if eps[removed].max(initial=0.0) > REMOVED_SLACK_TOL:
        j = int(np.flatnonzero(removed)[np.argmax(eps[removed])])
        raise EquivalenceViolation(
            f"removed constraint {j} violated by {eps[j]:.3e}")
    eps[kept.indices] = red.eps_star
    return SolveResult(
        v_star=v,
        eps_star=eps,
        objective=qp.objective(v, eps, z),
        status=red.status,
        iterations=red.iterations,
        kkt_residual=red.kkt_residual,
    )
