"""Soft-constrained MPC with online ellipsoidal constraint screening."""

from campc.numqp import (
    SoftQP,
    SolveResult,
    SolverOptions,
    cholesky_factor,
    enumerate_oracle,
    solve_active_set,
    solve_soft_qp,
)
from campc.condenser import (
    CondensedQP,
    ConstraintBlock,
    KroneckerOperator,
    StateSpaceModel,
    TrackingProblem,
    assemble_z,
    condense,
    extract_input,
    shift_warm_start,
)
from campc.screener import (
    EllipsoidBound,
    KeptSet,
    Screener,
    complete_slacks,
    ellipsoid_bound,
    expand_solution,
    precompute_row_norms,
    reduce_qp,
    screen,
)

__all__ = [
    "SoftQP", "SolveResult", "SolverOptions", "cholesky_factor",
    "enumerate_oracle", "solve_active_set", "solve_soft_qp",
    "CondensedQP", "ConstraintBlock", "KroneckerOperator", "StateSpaceModel",
    "TrackingProblem",
    "assemble_z", "condense", "extract_input", "shift_warm_start",
    "EllipsoidBound", "KeptSet", "Screener", "complete_slacks",
    "ellipsoid_bound", "expand_solution", "precompute_row_norms",
    "reduce_qp", "screen",
]
