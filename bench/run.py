#!/usr/bin/env python3
"""Closed-loop benchmark of campc on the bundled 20x20 thermal problem.

Run from the repository root:

    python3 bench/run.py --workload thermal-nominal --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 1

A run draws a pool of episodes from --seed (ramp targets only), solves
each once in `full` mode as the correctness reference, and then drives
the pool through `campc.harness.run_closed_loop` in whole cycles until
--seconds have passed.  Steps are timed from outside: the loop calls
the benchmark's `references(k)` once at the start of every step, so the
gap between two calls is one step's wall time, and the time from the
start of the problem build to `references(0)` is the set-up time.  The
loop is closed (step k+1 starts when step k ends), single process, BLAS
on one thread, `timing_repeats=1`.

With --trace 1, traced and untraced cycles alternate; the traced ones
record spans around each module's functions (see spans.py) and give the
per-layer metrics.  End-to-end metrics always come from untraced cycles.
`--workload all` runs every workload in turn and adds the derived
full-over-reduced ratios.  The last line of output is one JSON object.
"""
import os

# one BLAS thread, set before numpy loads: the plain single-threaded
# baseline; with two OpenBLAS threads on two cores the tail latency was
# two to three times worse from scheduler noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import json
import platform
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "campc" / "__init__.py").is_file():
    sys.exit(f"bench: no campc sources under {SRC}; run from a campc checkout")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

from campc import thermal2d
from campc.harness import Scenario, run_closed_loop
from campc.thermal2d import ThermalConfig

import spans

clock = time.perf_counter

STEPS = 60        # one episode: the 30-step ramp, then 30 steps at the target
EPISODES = 8      # distinct episodes per run, cycled until time is up
DEV_TOL = 1e-6    # acceptance criterion 1: deviation relative to 1 + |u_full|
OUT_DIR = ROOT / ".bench_out"


@dataclasses.dataclass(frozen=True)
class Workload:
    mode: str         # run_closed_loop mode
    peak: float       # peak of the Gaussian temperature upper bound
    targets: tuple    # band the ramp targets are drawn from


WORKLOADS = {
    # The nominal band is narrow on purpose: from a target of about 10.1
    # most steps keep rows and carry positive slacks, and at 9 or below
    # almost no step keeps a row.  Nominal and full draw the same
    # episodes for the same seed.
    "thermal-nominal": Workload("reduced", 11.5, (9.95, 10.05)),
    "thermal-full": Workload("full", 11.5, (9.95, 10.05)),
}


@dataclasses.dataclass
class Episode:
    start: float            # clock before the problem build
    marks: np.ndarray       # clock at each references(k) call, then at return
    inputs: np.ndarray      # applied inputs, one row per completed step
    screen_s: np.ndarray    # harness timers per completed step
    solve_s: np.ndarray
    ok: bool                # run_closed_loop returned
    spans: list = None

    @property
    def setup_s(self) -> float:
        return self.marks[0] - self.start

    @property
    def step_s(self) -> np.ndarray:
        return np.diff(self.marks)


@dataclasses.dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    plain: list = dataclasses.field(default_factory=list)   # untraced, completed
    traced: list = dataclasses.field(default_factory=list)  # traced, completed


def draw_episodes(workload: Workload, seed: int, count: int) -> list:
    """Thermal configs with ramp targets drawn from the workload's band.

    One target per equal slice of the band, so the mix of kept-row
    counts, and with it the step-time distribution, moves little from
    one seed to the next.
    """
    rng = np.random.default_rng(seed)
    lo, hi = workload.targets
    targets = lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count
    bound = dataclasses.replace(ThermalConfig().bound, peak=workload.peak)
    return [ThermalConfig(ref_target=float(t), bound=bound) for t in targets]


def run_episode(cfg: ThermalConfig, mode: str, steps: int,
                tracer: spans.Tracer = None) -> Episode:
    """Build the problem and run one closed-loop episode, timed from outside."""
    windows = [thermal2d.reference_window(cfg, k) for k in range(steps)]
    marks = []

    def references(k):
        marks.append(clock())
        return windows[k]

    with spans.traced(tracer) if tracer else contextlib.nullcontext():
        start = clock()
        try:
            model, prob, _ = thermal2d.build_thermal_benchmark(cfg)
            result = run_closed_loop(Scenario(
                model=model, problem=prob, references=references,
                steps=steps, mode=mode, timing_repeats=1))
            marks.append(clock())
            ok, traces = True, result.traces
        except Exception as exc:
            # the episode's unfinished steps count as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            ok, traces = False, getattr(exc, "traces", [])
    # keep arrays only: fewer objects for the garbage collector to walk
    return Episode(start, np.array(marks), np.array([t.u for t in traces]),
                   np.array([t.t_screen_s for t in traces]),
                   np.array([t.t_solve_s for t in traces]), ok,
                   tracer.spans if tracer else None)


def failed_steps(ep: Episode, ref, steps: int) -> int:
    """Steps that raised, were never reached, or whose applied input
    differs from the full-mode reference by more than DEV_TOL."""
    n = len(ep.inputs)
    if ref is None or n == 0:
        return steps
    dev = np.abs(ep.inputs - ref[:n]).max(axis=1)
    ok = dev <= DEV_TOL * (1.0 + np.abs(ref[:n]).max(axis=1))
    return steps - int(np.count_nonzero(ok))


def measure(name: str, seed: int, seconds: float, trace: bool,
            episodes: int = EPISODES, steps: int = STEPS) -> Measurement:
    wl = WORKLOADS[name]
    cfgs = draw_episodes(wl, seed, episodes)
    # correctness reference, outside every timed cycle
    refs = []
    for cfg in cfgs:
        ep = run_episode(cfg, "full", steps)
        refs.append(ep.inputs if ep.ok else None)
    run_episode(cfgs[0], wl.mode, steps)    # warm-up, not counted
    m = Measurement()
    deadline = clock() + seconds
    cycle = 0
    while cycle < 1 + trace or clock() < deadline:
        # traced and untraced cycles alternate, so drift hits both alike
        use_trace = trace and cycle % 2 == 1
        for cfg, ref in zip(cfgs, refs):
            ep = run_episode(cfg, wl.mode, steps,
                             spans.Tracer() if use_trace else None)
            m.attempted += steps
            m.failed += failed_steps(ep, ref, steps)
            if ep.ok:
                (m.traced if use_trace else m.plain).append(ep)
        cycle += 1
    return m


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def end_to_end(m: Measurement) -> dict:
    step_us = np.concatenate([ep.step_s for ep in m.plain]) * 1e6
    solve_us = np.concatenate([ep.screen_s + ep.solve_s for ep in m.plain]) * 1e6
    return {
        "step_p50_us": float(np.percentile(step_us, 50)),
        "step_p95_us": float(np.percentile(step_us, 95)),
        "steps_per_s": len(step_us) / (step_us.sum() * 1e-6),
        "solve_only_p50_us": _median(solve_us),
        "setup_s": _median([ep.setup_s for ep in m.plain]),
    }


def step_breakdown(ep: Episode):
    """Per step: wall time, top-level span time, and the harness's own
    screen timer (the screen is inline code, not a call to wrap).

    Also returns, per step, the bytes of L that `SoftQP.bound` calls
    read, and each span's step index (-1 for set-up).
    """
    marks = np.asarray(ep.marks)
    n = len(marks) - 1
    child = np.zeros(n)
    l_bytes = np.zeros(n)
    step_of = np.searchsorted(marks, [s.start for s in ep.spans],
                              side="right") - 1
    for s, k in zip(ep.spans, step_of):
        if not 0 <= k < n:
            continue
        if s.name == "numqp.bound":
            l_bytes[k] += s.note
        if s.parent == -1:
            child[k] += s.end - s.start
    return np.diff(marks), child, ep.screen_s, l_bytes, step_of


def per_layer(m: Measurement, step_p50_us: float) -> dict:
    """Per-layer metrics from the traced cycles.

    Times are per call, median.  `bound_us`/`v_uc_us` count only the
    calls the harness makes itself; the ones nested in the solver are
    part of `solve_us`.  A layer the workload never calls reads 0.
    """
    calls = defaultdict(list)   # span name -> durations, every call
    top = defaultdict(list)     # span name -> durations, harness-level calls
    wall, self_s, screen, l_bytes = [], [], [], []
    for ep in m.traced:
        w, child, scr, nb, step_of = step_breakdown(ep)
        wall.append(w)
        self_s.append(w - child - scr)
        screen.append(scr)
        l_bytes.append(nb)
        for s, k in zip(ep.spans, step_of):
            calls[s.name].append(s.end - s.start)
            if s.parent == -1 and k >= 0:
                top[s.name].append(s.end - s.start)
    solves = [s.note for ep in m.traced for s in ep.spans
              if s.name == "numqp.solve"]
    expands = [s.note for ep in m.traced for s in ep.spans
               if s.name == "screener.expand"]
    rows = [n for n, _ in solves]
    kept = [n for n, _ in expands]
    active = sum(a for _, a in expands)
    traced_p50 = float(np.percentile(np.concatenate(wall), 50)) * 1e6

    def us(xs):
        return 1e6 * _median(xs)

    return {
        "thermal2d.build_ms": 1e3 * _median(calls["thermal2d.build"]),
        "condenser.condense_ms": 1e3 * _median(calls["condenser.condense"]),
        "condenser.assemble_z_us": us(calls["condenser.assemble_z"]),
        "condenser.shift_warm_start_us": us(calls["condenser.shift_warm_start"]),
        "condenser.extract_input_us": us(calls["condenser.extract_input"]),
        "numqp.bound_us": us(top["numqp.bound"]),
        "numqp.bound_bytes": _median(np.concatenate(l_bytes)),
        "numqp.v_uc_us": us(top["numqp.v_uc"]),
        "numqp.solve_us": us(calls["numqp.solve"]),
        "numqp.ipm_iters": _median([it for n, it in solves if n]),
        "numqp.solve_rows": _mean(rows),
        "numqp.empty_solve_frac": _mean([n == 0 for n in rows]),
        "screener.precompute_ms": 1e3 * _median(calls["screener.precompute"]),
        "screener.screen_us": us(np.concatenate(screen)),
        "screener.reduce_us": us(calls["screener.reduce"]),
        "screener.expand_us": us(calls["screener.expand"]),
        "screener.kept_rows_mean": _mean(kept),
        "screener.kept_rows_max": float(max(kept, default=0)),
        "screener.empty_kept_frac": _mean([n == 0 for n in kept]),
        "screener.kept_active_ratio": active / sum(kept) if sum(kept) else 0.0,
        "harness.step_self_us": us(np.concatenate(self_s)),
        "harness.tracing_overhead_us": traced_p50 - step_p50_us,
    }


def declared_metrics() -> tuple:
    """Metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({d["name"]: d["unit"] for d in spec["end_to_end"]},
            {d["name"]: d["unit"] for d in spec["per_layer"]})


def with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _blas_threads() -> str:
    """Threads each loaded OpenBLAS reports, or the pin if none answers."""
    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    getattr(lib, sym).restype = ctypes.c_int
                    found.append(f"{pkg.__name__}:{getattr(lib, sym)()}")
                    break
    return ",".join(found) or f"pinned {os.environ['OPENBLAS_NUM_THREADS']}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# env: blas threads {_blas_threads()}, nproc {os.cpu_count()}, "
            f"cpu {_cpu_model()!r}, python {platform.python_version()}, "
            f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"{blas.get('name')} {blas.get('version')}")


def _print_metrics(name: str, values: dict, units: dict) -> None:
    for key in units:
        print(f"{name} {key} {values[key]:.6g} {units[key]}")


def _ratio_line(what: str, metric: str, full: dict, nominal: dict) -> None:
    a, b = full[metric], nominal[metric]
    print(f"derived (ungated) {what}: thermal-full / thermal-nominal on "
          f"{metric} = {a:.1f} / {b:.1f} = {a / b:.2f}x")


def _split_line(name: str, e2e: dict, layers: dict) -> None:
    base = e2e["step_p50_us"]
    param = sum(layers[k] for k in ("numqp.bound_us", "numqp.v_uc_us",
                                    "condenser.assemble_z_us"))
    solve = layers["screener.screen_us"] + layers["numqp.solve_us"]
    print(f"{name} step split, base step_p50_us {base:.1f} us (untraced): "
          f"bound+v_uc+assemble_z {param:.1f} us = {100 * param / base:.1f}%, "
          f"screen+solve {solve:.1f} us = {100 * solve / base:.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Closed-loop thermal benchmark of campc.")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    e2e_units, layer_units = declared_metrics()
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    print(environment())
    attempted = failed = 0
    metrics, e2e_by_name = {}, {}
    for name in names:
        wl = WORKLOADS[name]
        print(f"# {name}: mode {wl.mode}, bound peak {wl.peak}, targets "
              f"{wl.targets[0]}-{wl.targets[1]}, {EPISODES} episodes x "
              f"{STEPS} steps, seed {args.seed}")
        m = measure(name, args.seed, args.seconds, trace, EPISODES, STEPS)
        attempted += m.attempted
        failed += m.failed
        if not m.plain or (trace and not m.traced):
            print(f"{name}: no episode completed", file=sys.stderr)
            return 1
        e2e = e2e_by_name[name] = end_to_end(m)
        n_steps = sum(len(ep.step_s) for ep in m.plain)
        print(f"{name} samples {n_steps} steps, {len(m.plain)} episodes "
              f"(untraced)")
        _print_metrics(name, e2e, e2e_units)
        print(f"{name} fail_frac {m.failed / m.attempted:.6g} "
              f"({m.failed} of {m.attempted} steps)")
        values, units = (e2e, e2e_units)
        if trace:
            layers = per_layer(m, e2e["step_p50_us"])
            _print_metrics(name, layers, layer_units)
            _split_line(name, e2e, layers)
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{name}-seed{args.seed}.csv"
            spans.write_csv(path, [ep.spans for ep in m.traced])
            print(f"{name} spans written to {path}")
            values, units = (layers, layer_units)
        for key, val in with_units(values, units).items():
            metrics[key if len(names) == 1 else f"{name}/{key}"] = val
    if len(names) > 1:
        full, nominal = e2e_by_name["thermal-full"], e2e_by_name["thermal-nominal"]
        _ratio_line("solve-only ratio (the paper's figure)",
                    "solve_only_p50_us", full, nominal)
        _ratio_line("step ratio", "step_p50_us", full, nominal)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
