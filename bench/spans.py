"""Spans around calls into campc's modules, recorded from outside.

`traced(tracer)` swaps the functions and methods that the closed loop
looks up at call time for wrappers that record one span per call, and
puts the originals back on exit.  Nothing under `src/` is changed.

A span has a name, start and end (perf_counter seconds), the index of
the enclosing traced call (-1 at top level) and an optional note with
counts taken from the call's arguments and result.  Nesting matters:
`SoftQP.bound` and `unconstrained_minimizer` also run inside
`solve_soft_qp`, so a parent's self time must not count them twice.
Spans stay in memory; `write_csv` writes them out when the run ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from campc import condenser, harness, numqp, screener, thermal2d

# a kept row counts as active when its residual W_j v - b_j is within
# this relative distance of zero, or positive (violated)
ACTIVE_TOL = 1e-6


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 at top level
    note: object    # call-specific counts, or None


class Tracer:
    """Collects the spans of one closed-loop episode."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, note=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced_call(*args, **kwargs):
            idx = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = Span(name, start, end, parent, None)
            if note is not None:
                spans[idx] = spans[idx]._replace(note=note(args, kwargs, out))
            return out

        return traced_call


def _bytes_of_l(args, kwargs, out):
    return args[0].L.nbytes            # computed from the array size


def _solve_counts(args, kwargs, out):
    return args[0].n_c, out.iterations


def _kept_active(args, kwargs, out):
    kept, cqp, rhs = args[1], args[2], kwargs["rhs"]
    idx = kept.indices
    b = rhs[idx]
    resid = cqp.qp.W[idx] @ out.v_star - b
    return len(idx), int(np.count_nonzero(resid >= -ACTIVE_TOL * (1.0 + np.abs(b))))


# (owner, attribute, span name, note); each owner is where the closed
# loop looks the name up when it calls it
PATCHES = (
    (thermal2d, "build_thermal_benchmark", "thermal2d.build", None),
    (condenser, "condense", "condenser.condense", None),
    (condenser, "assemble_z", "condenser.assemble_z", None),
    (condenser, "shift_warm_start", "condenser.shift_warm_start", None),
    (condenser, "extract_input", "condenser.extract_input", None),
    (numqp.SoftQP, "bound", "numqp.bound", _bytes_of_l),
    (numqp.SoftQP, "unconstrained_minimizer", "numqp.v_uc", None),
    (harness, "solve_soft_qp", "numqp.solve", _solve_counts),
    (screener, "precompute_row_norms", "screener.precompute", None),
    (screener, "reduce_qp", "screener.reduce", None),
    (screener, "expand_solution", "screener.expand", _kept_active),
)


@contextmanager
def traced(tracer: Tracer):
    """Route the patched names through `tracer` until the block exits."""
    saved = []
    try:
        for owner, attr, name, note in PATCHES:
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, note))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def write_csv(path, episodes) -> None:
    """One line per span: episode, name, start, end, parent, note."""
    with open(path, "w") as fh:
        fh.write("episode,name,start_s,end_s,parent,note\n")
        for i, spans in enumerate(episodes):
            for s in spans:
                note = "" if s.note is None else str(s.note).replace(",", ";")
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{note}\n")
