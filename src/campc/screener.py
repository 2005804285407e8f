"""Online constraint screening via an ellipsoidal minimizer bound.

From any candidate sequence v~ the minimal feasible slacks are
completed, an ellipsoid guaranteed to contain the full-problem
minimizer is formed, and every constraint whose half-space contains the
ellipsoid (with its slack at zero) is removed.  Solving the reduced
problem then yields the minimizer of the full problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm

from campc.numqp import (DimensionError, SoftQP, SolveResult, _as_vector,
                          _check_classes)


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
        v = _as_vector(v, "v", len(self.q))
        return float(np.sum((self.G @ (v - self.q)) ** 2))


@dataclass(frozen=True)
class KeptSet:
    """Ascending indices of the constraints kept in the reduced problem."""

    indices: np.ndarray
    n_c: int

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise TypeError(f"kept indices must be integers, got {idx.dtype}")
        idx = np.array(idx, dtype=int).ravel()  # a copy the caller can't write
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
    """The per-step screen and its offline data, the row norms
    zeta_j = |W_j G^-1|_2.

    The problem forms c + Lz (`qp.bound`) and the unconstrained
    minimizer v_uc (`qp.unconstrained_minimizer`) that it screens.
    One keep rule (see `screen`) decides every row; a row with a zero
    normal (zeta_j = 0) needs no rule of its own, since it is kept
    exactly when c_j + L_j z <= tau.  `precompute_row_norms` makes zeta
    read-only, as the problem's own arrays are.
    """

    zeta: np.ndarray
    qp: SoftQP

    def step(self, v_tilde: np.ndarray, v_uc: np.ndarray,
             rhs: np.ndarray) -> KeptSet:
        """Screen from candidate v~, unconstrained minimizer v_uc and
        rhs = c + Lz.

        Completes the slacks eps~ = max(0, Wv~ - rhs), which enter only
        sigma = rho'eps~ + |G(v~ - v_uc)|^2 / 4, and applies the keep
        rule of `screen`.  The ellipsoid center q = (v~ + v_uc)/2
        enters only through W q, so W v~ and W q come from one
        (2, n_v) @ W' product, a single pass over W; a column-major W
        (`condense` builds one) makes W' the contiguous operand.  This
        call is timed, so it checks only the three arrays' shapes.
        """
        qp = self.qp
        n_c, n_v = qp.W.shape
        if (v_tilde.shape, v_uc.shape, rhs.shape) != ((n_v,), (n_v,), (n_c,)):
            raise DimensionError(
                f"v_tilde, v_uc, rhs must have lengths {n_v}, {n_v}, {n_c}")
        vq = np.empty((2, n_v))
        vq[0] = v_tilde
        np.add(v_tilde, v_uc, out=vq[1])
        vq[1] *= 0.5
        eps_tilde, Wq = vq @ qp.W.T
        eps_tilde -= rhs
        np.maximum(eps_tilde, 0.0, out=eps_tilde)
        Gd = qp.G @ (v_tilde - v_uc)
        sigma = float(qp.rho @ eps_tilde + 0.25 * (Gd @ Gd))
        return self._keep(sigma, rhs, Wq)

    def _keep(self, sigma: float, b, margin) -> KeptSet:
        """Keep rule; overwrites `margin` (W q on entry) in place.  A row
        the candidate violates needs no clause: v~ lies in the ellipsoid."""
        if sigma < np.inf:
            rad = math.sqrt(max(sigma, 0.0))
            # reach of the ellipsoid along W_j plus a small safety margin
            tau = 1e-9 * (1.0 + np.abs(b).max(initial=0.0))
            thresh = rad * self.zeta
            thresh += tau
            gap = np.subtract(b, margin, out=margin)
            idx, = (gap <= thresh).nonzero()
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
    right-side triangular solve on W."""
    # W G^-1 on W as held: a column-major W (as `condense` builds it) is
    # not copied, where a solve on W' would first copy it
    Y = dtrsm(1.0, qp.G, qp.W, side=1)
    zeta = np.linalg.norm(Y, axis=1)
    zeta.setflags(write=False)
    return Screener(zeta=zeta, qp=qp)


def complete_slacks(v_tilde: np.ndarray, qp: SoftQP,
                    z: np.ndarray) -> np.ndarray:
    """Minimal slacks making (v~, eps~) feasible: max(0, Wv~ - c - Lz),
    with c + Lz formed by `qp.bound`."""
    v_tilde = _as_vector(v_tilde, "candidate", qp.n_v)
    return np.maximum(0.0, qp.W @ v_tilde - qp.bound(z))


def ellipsoid_bound(v_tilde: np.ndarray, eps_tilde: np.ndarray, qp: SoftQP,
                    z: np.ndarray) -> EllipsoidBound:
    """Bound on the full-problem minimizer from a feasible pair.

    Center q = (v~ + v_uc)/2 with v_uc = -H^-1 Fz; squared radius
    sigma = rho'eps~ + |G(v~ - v_uc)|^2 / 4.
    """
    v_tilde = _as_vector(v_tilde, "candidate", qp.n_v)
    eps_tilde = _as_vector(eps_tilde, "slacks", qp.n_c)
    v_uc = qp.unconstrained_minimizer(z)
    q = 0.5 * (v_tilde + v_uc)
    sigma = float(qp.rho @ eps_tilde
                  + 0.25 * np.sum((qp.G @ (v_tilde - v_uc)) ** 2))
    return EllipsoidBound(q=q, sigma=sigma, G=qp.G)


def screen(cache: Screener, bound: EllipsoidBound, z: np.ndarray) -> KeptSet:
    """Keep row j unless its half-space provably contains the ellipsoid.

    With b = c + Lz, row j is kept when
    b_j - W_j q <= sqrt(sigma)*zeta_j + tau, tau = 1e-9 (1 + max|b|)
    (non-strict rule: a tangent constraint is kept), and every row is
    kept when sigma is NaN or inf.  This one-sided test decides every
    row, a zero-normal one and one the candidate violates included.
    `Screener.step`, which the closed loop runs, applies the same rule.
    """
    return cache._keep(bound.sigma, cache.qp.bound(z), cache.qp.W @ bound.q)


def reduce_qp(qp: SoftQP, kept: KeptSet) -> SoftQP:
    """SoftQP with only the kept rows; H, F, G and v_uc_map are shared.
    Without L (a `CondensedQP`), its solvers need `rhs`.

    The rows are taken from `qp`'s checked arrays, so the reduced
    problem skips `SoftQP`'s checks and factorization, as `Screener`
    builds its `KeptSet`; its row arrays are read-only copies.
    """
    if kept.n_c != qp.n_c:
        raise DimensionError("kept set built for a different problem")
    idx = kept.indices
    red = object.__new__(SoftQP)
    for name in ("H", "F", "G", "v_uc_map"):
        object.__setattr__(red, name, getattr(qp, name))
    for name in ("W", "c", "L", "rho"):
        val = getattr(qp, name)
        if val is not None:
            val = val[idx]
            val.setflags(write=False)
        object.__setattr__(red, name, val)
    return red


def expand_solution(red: SolveResult, kept: KeptSet, qp, z: np.ndarray,
                    rhs: np.ndarray) -> SolveResult:
    """Re-embed a reduced solution into the full constraint ordering.

    `rhs` is the full problem's c + Lz.  Slacks for removed rows are
    recomputed from the minimizer as max(0, Wv - rhs); any of them
    exceeding REMOVED_SLACK_TOL signals an unsound screening decision.
    Row classes are re-embedded with removed rows inactive; None stays.
    """
    if kept.n_c != qp.n_c:
        raise DimensionError("kept set built for a different problem")
    eps_kept = _as_vector(red.eps_star, "reduced slacks", len(kept))
    v = _as_vector(red.v_star, "reduced minimizer", qp.n_v)
    eps = qp.W @ v
    eps -= _as_vector(rhs, "rhs", qp.n_c)
    np.maximum(eps, 0.0, out=eps)
    eps[kept.indices] = 0.0    # the max below runs over removed rows
    if eps.max(initial=0.0) > REMOVED_SLACK_TOL:
        j = int(np.argmax(eps))
        raise EquivalenceViolation(
            f"removed constraint {j} violated by {eps[j]:.3e}")
    eps[kept.indices] = eps_kept
    classes = None
    if red.classes is not None:
        _check_classes(red.classes, "reduced classes", len(kept))
        classes = np.zeros((2, qp.n_c), dtype=bool)
        classes[:, kept.indices] = red.classes
    return SolveResult(v, eps, qp.objective(v, eps, z), red.status,
                       red.iterations, red.kkt_residual, classes)
