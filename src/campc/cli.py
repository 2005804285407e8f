"""Command line interface.

Subcommands:
  bench thermal   closed-loop thermal benchmark (full/reduced/verify)
  run             closed loop on matrices loaded from an .npz container
  selftest        quick randomized property suites
  sweep-nc        screening-time scaling experiment

Exit codes: 0 pass, 1 acceptance failure, 2 configuration error,
3 solver failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np
import yaml

from campc import condenser, harness, numqp, screener, thermal2d
from campc.condenser import ConstraintBlock, StateSpaceModel, TrackingProblem
from campc.numqp import SolverFailure, SolverOptions

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


SCENARIO_KEYS = {"mode": str, "steps": int, "timing_repeats": int}
GAUSSIAN_KEYS = {"center": tuple, "width": float, "peak": float,
                 "floor": float}


def _section_options(section, name: str, converters: dict) -> dict:
    """Keyword arguments from one config section, each value passed
    through its key's converter; a missing section is empty."""
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be a mapping, "
                          f"got {type(section).__name__}")
    unknown = sorted(set(section) - set(converters))
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {unknown}")
    try:
        return {key: converters[key](value) for key, value in section.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} value: {exc}") from exc


def _gaussian_spec(entry, default, name: str) -> thermal2d.GaussianSpec:
    """`default` with the keys given in `entry` replaced; a converter of
    the thermal section, which reports its ValueError."""
    return dataclasses.replace(
        default, **_section_options(entry, name, GAUSSIAN_KEYS))


def thermal_config(section: dict | None) -> thermal2d.ThermalConfig:
    kwargs = _section_options(section, "thermal", {
        **dict.fromkeys(("n", "horizon", "ref_ramp_steps", "output_block"),
                        int),
        **dict.fromkeys(("alpha", "beta", "reaction_sign", "boundary_sign",
                         "dt", "q_scale", "r_scale", "rho_scale",
                         "ref_target"), float),
        "output_nodes": lambda nodes: tuple(int(j) for j in nodes),
        "loads": lambda entries: tuple(
            _gaussian_spec(e, thermal2d.GaussianSpec(), "loads entry")
            for e in entries),
        "bound": lambda entry: _gaussian_spec(
            entry, thermal2d.ThermalConfig().bound, "bound"),
    })
    try:
        return thermal2d.ThermalConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def solver_options(section: dict | None) -> SolverOptions:
    kwargs = _section_options(section, "solver", {
        "tol": float, "max_iterations": int})
    try:
        return SolverOptions(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad solver option: {exc}") from exc


def scenario_options(section: dict | None) -> dict:
    """Scenario keyword arguments from the `scenario` section; the mode
    defaults to verify.  `_scenario` checks the values."""
    return {"mode": "verify",
            **_section_options(section, "scenario", SCENARIO_KEYS)}


def _scenario(**kwargs) -> harness.Scenario:
    try:
        return harness.Scenario(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def _print_report(report: harness.Report) -> None:
    print(f"steps:            {report.steps}")
    print(f"constraints:      {report.n_c}")
    print(f"max |A|:          {report.max_kept} "
          f"({100.0 * report.kept_fraction:.1f}%)")
    print(f"max deviation:    {report.max_dev:.3e}")
    print(f"median deviation: {report.median_dev:.3e}")
    print(f"speedup:          {report.speedup:.1f}x")
    print(f"equivalence:      {'pass' if report.dev_ok else 'FAIL'}")


def cmd_bench(args) -> int:
    cfg_file = load_config(args.config) if args.config else {}
    cfg = thermal_config(cfg_file.get("thermal"))
    opts = solver_options(cfg_file.get("solver"))
    scen = scenario_options(cfg_file.get("scenario"))
    if args.mode is not None:
        scen["mode"] = args.mode
    if args.steps is not None:
        scen["steps"] = args.steps

    try:
        model, problem, cfg = thermal2d.build_thermal_benchmark(cfg)
    except (ValueError, FloatingPointError) as exc:
        # the build reads nothing but the config, e.g. a NaN alpha or peak
        raise ConfigError(f"bad thermal config: {exc}") from exc
    scenario = _scenario(
        model=model, problem=problem,
        references=lambda k: thermal2d.reference_window(cfg, k),
        options=opts, **scen)
    return _run_scenario(scenario, args.out)


def _load_matrices(path) -> tuple:
    try:
        data = np.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read matrix container {path}: {exc}") from exc
    need = {"A", "B", "C", "Q", "R", "N", "y_ref"}
    missing = need - set(data.files)
    if missing:
        raise ConfigError(f"matrix container missing keys: {sorted(missing)}")

    def block(prefix):
        if f"M_{prefix}" not in data.files:
            return None
        return ConstraintBlock(M=data[f"M_{prefix}"], g=data[f"g_{prefix}"],
                               rho=data[f"rho_{prefix}"])

    N = data["N"]
    if N.shape != ():
        raise ConfigError(f"N in {path} has shape {N.shape}, expected ()")
    try:
        model = StateSpaceModel(A=data["A"], B=data["B"], C=data["C"])
        problem = TrackingProblem(
            Q=data["Q"], R=data["R"], N=N[()],
            state_constraints=block("x"),
            input_constraints=block("u"),
            rate_constraints=block("d"))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad matrices in {path}: {exc}") from exc
    y_ref = np.atleast_2d(np.asarray(data["y_ref"], dtype=float))
    x0, u_prev, D = (data.get(key) for key in ("x0", "u_prev", "D"))
    for name, val in (("y_ref", y_ref), ("x0", x0), ("u_prev", u_prev),
                      ("D", D)):
        if val is not None and not np.isfinite(val).all():
            raise ConfigError(f"{name} in {path} holds NaN or inf")
    n_x, n_u, n_y = model.n_x, model.n_u, model.n_y
    shapes = [("Q", problem.Q, (n_y, n_y)), ("R", problem.R, (n_u, n_u)),
              ("y_ref", y_ref, (len(y_ref), n_y))]
    shapes += [(name, b.M, (b.rows, n)) for name, b, n in (
        ("M_x", problem.state_constraints, n_x),
        ("M_u", problem.input_constraints, n_u),
        ("M_d", problem.rate_constraints, n_u)) if b is not None]
    shapes += [(name, np.ravel(val), (n,)) for name, val, n in (
        ("x0", x0, n_x), ("u_prev", u_prev, n_u), ("D", D, n_y * n_u))
        if val is not None]
    for name, val, want in shapes:
        if val.shape != want:
            raise ConfigError(f"{name} in {path} has shape {val.shape}, "
                              f"expected {want}")
    if D is not None and np.any(D != 0.0):
        raise ConfigError(f"D in {path} must be zero: no feedthrough")
    return model, problem, y_ref, x0, u_prev


def cmd_run(args) -> int:
    cfg_file = load_config(args.config)
    mats = cfg_file.get("matrices")
    if not isinstance(mats, dict) or not isinstance(mats.get("path"), str):
        raise ConfigError("`run` needs matrices: {path: file.npz} in the config")
    path = Path(args.config).parent / mats["path"]
    model, problem, y_ref, x0, u_prev = _load_matrices(path)
    opts = solver_options(cfg_file.get("solver"))
    N = problem.N
    scenario = _scenario(
        model=model, problem=problem,
        references=lambda k: [y_ref[k + i] for i in range(1, N + 1)],
        x0=x0, u_prev0=u_prev, options=opts,
        **scenario_options(cfg_file.get("scenario")))
    if len(y_ref) < scenario.steps + N:
        raise ConfigError(f"y_ref must cover steps+N = {scenario.steps + N} "
                          f"rows, has {len(y_ref)}")
    return _run_scenario(scenario, args.out)


def _run_scenario(scenario: harness.Scenario, out_dir) -> int:
    out = Path(out_dir) if out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.run_closed_loop(scenario)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if out and getattr(exc, "traces", None):
            harness.write_trace_csv(exc.traces, out / "trace.csv",
                                    scenario.model.n_u)
        return EXIT_SOLVER
    if out:
        harness.write_trace_csv(result.traces, out / "trace.csv",
                                scenario.model.n_u)
        print(f"trace written to {out / 'trace.csv'}")
    if scenario.mode == "verify":
        report = harness.verify_equivalence(result.traces, result.qp.n_c)
        _print_report(report)
        return EXIT_OK if report.dev_ok else EXIT_FAIL
    kept = max(t.n_kept for t in result.traces)
    print(f"steps: {len(result.traces)}, max |A|: {kept} of {result.qp.n_c}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    failures = []

    def check(name, ok):
        print(f"{'pass' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    n_inst = args.instances
    solver_ok = sound_ok = member_ok = step_ok = True
    for _ in range(n_inst):
        qp, z = numqp.random_soft_qp(rng)
        full = numqp.solve_soft_qp(qp, z)
        oracle = numqp.enumerate_oracle(qp, z)
        tol = 1e-6 * (1.0 + np.abs(oracle.v_star).max())
        solver_ok &= np.abs(full.v_star - oracle.v_star).max() <= tol

        v_tilde = oracle.v_star + rng.normal(scale=0.5, size=qp.n_v)
        eps_tilde = screener.complete_slacks(v_tilde, qp, z)
        bound = screener.ellipsoid_bound(v_tilde, eps_tilde, qp, z)
        member_ok &= bound.radius_sq(oracle.v_star) <= bound.sigma * (1 + 1e-7) + 1e-9
        cache = screener.precompute_row_norms(qp)
        kept = screener.screen(cache, bound, z, eps_tilde)
        # the closed loop screens through Screener.step: same rule
        step = cache.step(v_tilde, qp.unconstrained_minimizer(z), qp.bound(z))
        step_ok &= np.array_equal(step.indices, kept.indices)
        red = screener.reduce_qp(qp, kept)
        red_star = numqp.enumerate_oracle(red, z)
        sound_ok &= np.abs(red_star.v_star - oracle.v_star).max() <= tol
    check(f"solver matches oracle on {n_inst} random QPs", solver_ok)
    check("full minimizer inside ellipsoid bound", member_ok)
    check("screening preserves the minimizer", sound_ok)
    check("Screener.step keeps the rows screen keeps", step_ok)
    return EXIT_OK if not failures else EXIT_FAIL


def cmd_sweep(args) -> int:
    try:
        result = harness.screening_time_sweep(
            n_c_values=tuple(args.n_c), n_v=args.n_v, repeats=args.repeats,
            seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for n_c, t in zip(result["n_c"], result["t_screen_s"]):
        print(f"n_c={n_c:6d}  t_screen={t * 1e6:9.1f} us")
    print(f"linear fit R^2 = {result['r_squared']:.4f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep_nc.csv", "w") as fh:
            fh.write("n_c,t_screen_s\n")
            for n_c, t in zip(result["n_c"], result["t_screen_s"]):
                fh.write(f"{n_c},{t!r}\n")
    return EXIT_OK if result["r_squared"] >= 0.95 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="campc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="built-in benchmarks")
    bench_sub = bench.add_subparsers(dest="benchmark", required=True)
    thermal = bench_sub.add_parser("thermal", help="2-d thermal benchmark")
    thermal.add_argument("--config", help="YAML config file")
    thermal.add_argument("--mode", choices=harness.MODES)
    thermal.add_argument("--steps", type=int)
    thermal.add_argument("--out", help="output directory for trace.csv")
    thermal.set_defaults(func=cmd_bench)

    run = sub.add_parser("run", help="closed loop on loaded matrices")
    run.add_argument("--config", required=True)
    run.add_argument("--out")
    run.set_defaults(func=cmd_run)

    selftest = sub.add_parser("selftest", help="randomized property suites")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--instances", type=int, default=100)
    selftest.set_defaults(func=cmd_selftest)

    sweep = sub.add_parser("sweep-nc", help="screening-time scaling")
    sweep.add_argument("--n-c", type=int, nargs="+",
                       default=[500, 1000, 2000, 4000])
    sweep.add_argument("--n-v", type=int, default=15)
    sweep.add_argument("--repeats", type=int, default=50)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out")
    sweep.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
