"""Two-dimensional thermal regulation benchmark.

A reaction-diffusion PDE on the unit square is discretized with a
node-centered 5-point stencil and exact zero-order hold sampling.  The
controller heats a central output region toward a ramped temperature
target while Gaussian-shaped upper bounds constrain the temperature at
every grid node.  The sampled state matrix is kept as the Kronecker
product of two n x n factors, never as a dense n^2 x n^2 matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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
        if self.dt <= 0.0:
            raise ValueError("sample time must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
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


def build_laplacian(cfg: ThermalConfig) -> tuple[np.ndarray, np.ndarray]:
    """Continuous-time (A_c, B_c) of the semi-discretized PDE.

    A_c = alpha (D1 (x) I + I (x) D1) + sign * beta * I, with D1 from
    `second_difference`.
    """
    n = cfg.n
    if cfg.alpha != 0.0:
        D1 = second_difference(cfg)
        eye = np.eye(n)
        A_c = cfg.alpha * (np.kron(D1, eye) + np.kron(eye, D1))
    else:
        A_c = np.zeros((n * n, n * n))
    A_c = A_c + cfg.reaction_sign * cfg.beta * np.eye(n * n)
    B_c = np.column_stack([gaussian_field(n, spec) for spec in cfg.loads])
    return A_c, B_c


def discretize_zoh(A_c: np.ndarray, B_c: np.ndarray,
                   dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact sampling under piecewise-constant inputs.

    Computed jointly as the exponential of the block matrix
    [[A_c, B_c], [0, 0]] * dt.
    """
    A_c = np.asarray(A_c, dtype=float)
    B_c = np.asarray(B_c, dtype=float)
    n, m = A_c.shape[0], B_c.shape[1]
    blk = np.zeros((n + m, n + m))
    blk[:n, :n] = A_c * dt
    blk[:n, n:] = B_c * dt
    E = sla.expm(blk)
    if not np.isfinite(E).all():
        raise FloatingPointError("matrix exponential did not converge")
    return E[:n, :n], E[:n, n:]


def sampled_state_operator(cfg: ThermalConfig) -> KroneckerOperator:
    """expm(A_c dt) as kron(e^(sign beta dt) E1, E1), E1 = expm(alpha dt D1).

    The three terms of A_c commute, so the exponential of the Kronecker
    sum factors into one n x n exponential.  With alpha = 0 both
    factors are (scaled) identities.
    """
    n = cfg.n
    if cfg.alpha != 0.0:
        E1 = sla.expm(cfg.alpha * cfg.dt * second_difference(cfg))
    else:
        E1 = np.eye(n)
    scale = np.exp(cfg.reaction_sign * cfg.beta * cfg.dt)
    return KroneckerOperator(scale * E1, E1)


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
    """
    if cfg is None:
        cfg = ThermalConfig()
    # B needs the block exponential; A comes from its Kronecker factors
    _, B = discretize_zoh(*build_laplacian(cfg), cfg.dt)
    n_x = cfg.n_x
    n_u = B.shape[1]
    out = np.asarray(cfg.output_nodes, dtype=int)
    C = np.zeros((len(out), n_x))
    C[np.arange(len(out)), out] = 1.0
    model = StateSpaceModel(A=sampled_state_operator(cfg), B=B, C=C)

    t_bar = gaussian_field(cfg.n, cfg.bound)
    state = ConstraintBlock(M=np.eye(n_x), g=t_bar,
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
