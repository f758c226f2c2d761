"""Command-line interface.

Subcommands mirror the library layers: ``alpha`` (one certificate),
``gamma`` (sequence construction/inspection), ``profile`` (alpha versus
control horizon), ``region`` (stability over exponential-bound parameters),
``horizon`` (minimal stabilizing horizons and analytic thresholds),
``simulate`` (closed-loop validation), ``network`` (seeded dropout
campaigns with Lyapunov audits).

Conventions: all floats are printed with 12 significant digits; CSV outputs
start with a ``#config`` echo of the resolved parameters; JSON reports
embed the same echo under ``"config"``.  Relative ``--output`` paths are
resolved against $MPCCERT_OUTDIR when it is set.  Exit status reflects
execution success only — an unstable verdict is a result, not an error,
and neither is a reader that closes the pipe early (``mpccert ... | head``):
the command then stops quietly with status 0.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._output import dumps_stable, fmt12
from .analysis import (
    alpha_profile_m,
    constant_family,
    default_region_axes,
    exponential_family,
    horizon_bound_half,
    horizon_bound_m1,
    horizon_table,
    horizon_table_to_csv,
    minimal_horizon,
    profile_to_csv,
    region_to_csv,
    stability_region,
)
from .certificate import CLOSED_FORM, LINEAR_PROGRAM, CertificateQuery, certificate
from .controllability import (
    GammaSequence,
    constant_gamma,
    gamma_from_csv,
    gamma_from_exponential,
    gamma_to_csv,
)
from .netcheck import NetworkExperiment, run_network_experiment
from .sim.loop import constant_schedule, measured_alpha, mpc_run, trace_to_csv
from .sim.lq import gamma_from_riccati
from .sim.models import MODEL_NAMES, LqModel, LqScalarModel, model_by_name

# models with intrinsic (Riccati) growth bounds, which a campaign certifies from
_NETWORK_MODELS = ("lq-scalar", "lq-double-integrator")

OUTDIR_ENV = "MPCCERT_OUTDIR"

# largest requests accepted: a table's rows and a region's cells per axis
# are allocated in full before any of them is computed
_MAX_TABLE_ROWS = 10_000
_MAX_GRID = 1_000


def _resolve_output(path: Optional[str]) -> Optional[Path]:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUTDIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _config_line(cfg: dict) -> str:
    parts = []
    for k, v in cfg.items():
        if isinstance(v, float):
            parts.append(f"{k}={fmt12(v)}")
        elif isinstance(v, (list, tuple)):
            parts.append(f"{k}={','.join(fmt12(x) if isinstance(x, float) else str(x) for x in v)}")
        else:
            parts.append(f"{k}={v}")
    return " ".join(parts)


def _add_gamma_source(p: argparse.ArgumentParser, with_length: bool = False) -> None:
    g = p.add_argument_group("growth-bound source (choose one)")
    g.add_argument("--C", type=float, help="exponential bound: overshoot C >= 1")
    g.add_argument("--sigma", type=float, help="exponential bound: decay rate in (0,1)")
    g.add_argument("--M", type=float, help="constant bound gamma_i = M")
    g.add_argument("--gamma-csv", type=str, help="CSV file with header i,gamma")
    if with_length:
        g.add_argument("--length", type=int, help="number of entries to generate")


def _gamma_from_args(args, n: int) -> tuple[GammaSequence, dict]:
    """Build the sequence named by the flags, at least n entries long."""
    sources = [args.C is not None or args.sigma is not None, args.M is not None,
               args.gamma_csv is not None]
    if sum(sources) != 1:
        raise ValueError("specify exactly one of --C/--sigma, --M, or --gamma-csv")
    if args.C is not None or args.sigma is not None:
        if args.C is None or args.sigma is None:
            raise ValueError("--C and --sigma must be given together")
        return gamma_from_exponential(args.C, args.sigma, n), {"C": args.C, "sigma": args.sigma}
    if args.M is not None:
        return constant_gamma(args.M, n), {"M": args.M}
    gam = gamma_from_csv(args.gamma_csv)
    if gam.n < n:
        raise ValueError(f"{args.gamma_csv} provides {gam.n} bounds but N = {n} are needed")
    return gam, {"gamma_csv": args.gamma_csv}


def _emit_json(record: dict, out: Optional[Path]) -> None:
    text = dumps_stable(record)
    if out is not None:  # first: a reader closing stdout early must not lose the file
        out.write_text(text + "\n", encoding="ascii")
    print(text)


# --- subcommand handlers ----------------------------------------------------


def _cmd_alpha(args) -> int:
    gamma, src = _gamma_from_args(args, args.N)
    method = LINEAR_PROGRAM if args.exact else CLOSED_FORM
    res = certificate(CertificateQuery(gamma, args.N, args.m), method)
    record = res.to_record()
    record["config"] = {**src, "N": args.N, "m": args.m, "method": method}
    _emit_json(record, _resolve_output(args.output))
    return 0


def _cmd_gamma(args) -> int:
    if args.length is None:
        raise ValueError("--length is required")
    gamma, src = _gamma_from_args(args, args.length)
    gamma = gamma.truncated(args.length)
    out = _resolve_output(args.output)
    gamma_to_csv(gamma, out)
    if out is not None:
        print(f"wrote {gamma.n} bounds to {out}")
    return 0


def _cmd_profile(args) -> int:
    gamma, src = _gamma_from_args(args, args.N)
    method = LINEAR_PROGRAM if args.exact else CLOSED_FORM
    prof = alpha_profile_m(gamma, args.N, method)
    cfg = {**src, "N": args.N, "method": method}
    out = _resolve_output(args.output)
    profile_to_csv(prof, out, _config_line(cfg))
    if out is not None:
        print(f"wrote {len(prof)} rows to {out}")
    return 0


def _cmd_region(args) -> int:
    if args.grid > _MAX_GRID:
        raise ValueError(f"grid {args.grid} exceeds {_MAX_GRID} cells per axis")
    C_axis, s_axis = default_region_axes(
        (args.C_range[0], args.C_range[1]), (args.sigma_range[0], args.sigma_range[1]), args.grid
    )
    grid = stability_region(args.N, args.m, C_axis, s_axis)
    cfg = {
        "N": args.N,
        "m": args.m,
        "C_range": list(args.C_range),
        "sigma_range": list(args.sigma_range),
        "grid": args.grid,
    }
    out = _resolve_output(args.output)
    if out is None:
        raise ValueError("region output is a full grid; --output is required")
    region_to_csv(grid, out, _config_line(cfg))
    print(
        f"wrote {args.grid}x{args.grid} region to {out} "
        f"(stable fraction {fmt12(grid.fraction_stable())})"
    )
    return 0


def _cmd_horizon(args) -> int:
    if args.table is not None:
        lo, hi, step = args.table
        if not all(map(math.isfinite, args.table)):
            raise ValueError(f"table range {lo} {hi} {step} must be finite")
        if lo <= 1.0:
            raise ValueError("table range must start above M = 1")
        if step <= 0.0:
            raise ValueError(f"table step {step} must be positive")
        if (hi - lo) / step >= _MAX_TABLE_ROWS:
            raise ValueError(f"table range {lo} {hi} {step} asks for more than {_MAX_TABLE_ROWS} rows")
        M_values, v = [], lo
        while v <= hi + 1e-12:
            M_values.append(round(v, 12))
            v += step
        rows = horizon_table(M_values, n_max=args.N_max)
        out = _resolve_output(args.output)
        if out is None:
            raise ValueError("--output is required with --table")
        horizon_table_to_csv(rows, out, _config_line({"table": list(args.table), "N_max": args.N_max}))
        print(f"wrote {len(rows)} rows to {out}")
        return 0

    policy: object
    if args.policy == "best":
        policy = "best"
    elif args.policy == "half":
        policy = "half"
    else:
        policy = int(args.policy)
    if args.M is not None:
        factory = constant_family(args.M)
        src = {"M": args.M}
    elif args.C is not None and args.sigma is not None:
        factory = exponential_family(args.C, args.sigma)
        src = {"C": args.C, "sigma": args.sigma}
    else:
        raise ValueError("specify --M or both --C and --sigma")
    res = minimal_horizon(factory, policy, n_max=args.N_max)
    record = {
        "config": {**src, "policy": args.policy, "N_max": args.N_max},
        "N_hat": res.n_hat,
        "m": res.m,
        "alpha_at": res.alpha,
        "alpha_before": res.alpha_before,
    }
    if args.M is not None:
        record["bound_m1"] = horizon_bound_m1(args.M)
        record["bound_half_even"] = horizon_bound_half(args.M, "even")
        record["bound_half_odd"] = horizon_bound_half(args.M, "odd")
    _emit_json(record, _resolve_output(args.output))
    return 0


def _default_epsilon(model_name: str) -> float:
    # the pendulum reaches practical stability only; the scalar chain is exact
    return 1e-5 if model_name == "pendulum" else 0.0


def _default_startup(model_name: str) -> int:
    return 20 if model_name == "pendulum" else 0


def _cmd_simulate(args) -> int:
    if args.m < 1:
        raise ValueError(f"--m {args.m} must be >= 1")
    if args.m > args.N - 1:
        raise ValueError(f"--m {args.m} must be <= N - 1 = {args.N - 1}")
    if args.steps < 1:
        raise ValueError(f"--steps {args.steps} must be >= 1")
    model = model_by_name(args.model)
    x0 = np.array([float(v) for v in args.x0.split(",")]) if args.x0 else model.default_x0
    startup = args.startup if args.startup is not None else _default_startup(args.model)
    epsilon = args.epsilon if args.epsilon is not None else _default_epsilon(args.model)
    sched = constant_schedule(args.m, (args.steps + args.m - 1) // args.m)
    solver_options = {}
    if args.maxiter is not None:
        solver_options["maxiter"] = args.maxiter
    trace = mpc_run(
        model, args.N, sched, x0, args.steps, startup=startup, solver_options=solver_options
    )
    cfg = {
        "model": args.model,
        "N": args.N,
        "m": args.m,
        "steps": args.steps,
        "startup": startup,
        "epsilon": epsilon,
        "x0": [float(v) for v in x0],
    }
    record = {
        "config": cfg,
        "failure": trace.failure,
        "updates": len(trace.updates),
        "all_converged": trace.all_converged,
    }
    if trace.failure is None:
        record["measured_alpha"] = measured_alpha(trace, epsilon=epsilon)
        record["value_initial"] = trace.updates[0].value
        record["value_final"] = trace.final_value
        record["realized_cost"] = float(np.sum(trace.stage_costs))
        if isinstance(model, (LqScalarModel, LqModel)):
            gam = gamma_from_riccati(model, args.N)
            record["certificate_alpha"] = certificate(
                CertificateQuery(gam, args.N, args.m), CLOSED_FORM
            ).alpha
    out = _resolve_output(args.output)
    if out is not None:
        trace_to_csv(trace, out, _config_line(cfg))
    _emit_json(record, None)
    return 0


def _cmd_network(args) -> int:
    model = model_by_name(args.model)
    x0 = np.array([float(v) for v in args.x0.split(",")]) if args.x0 else None
    solver_options = {}
    if args.maxiter is not None:
        solver_options["maxiter"] = args.maxiter
    exp = NetworkExperiment(
        model=model,
        horizon=args.N,
        m_star=args.m_star,
        dropout_p=args.p,
        num_seeds=args.seeds,
        steps=args.steps,
        x0=x0,
        base_seed=args.base_seed,
        startup=args.startup if args.startup is not None else _default_startup(args.model),
        solver_options=solver_options,
    )
    report = run_network_experiment(
        exp,
        audit_alpha=args.audit_alpha,
        epsilon=args.epsilon if args.epsilon is not None else _default_epsilon(args.model),
    )
    record = report.to_record()
    record["config"] = {
        "model": args.model,
        "N": args.N,
        "m_star": args.m_star,
        "p": args.p,
        "seeds": args.seeds,
        "steps": args.steps,
        "base_seed": args.base_seed,
    }
    _emit_json(record, _resolve_output(args.output))
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpccert",
        description="Certify and validate receding-horizon control without terminal conditions.",
        epilog=f"Relative --output paths are resolved against ${OUTDIR_ENV} when set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="suboptimality/stability index for one (N, m)")
    _add_gamma_source(p)
    p.add_argument("--N", type=int, required=True, help="prediction horizon (>= 2)")
    p.add_argument("--m", type=int, required=True, help="control horizon (1..N-1)")
    p.add_argument("--exact", action="store_true",
                   help="exact worst-case index (the LP's optimum, by a backward recursion) instead of the closed form")
    p.add_argument("--output", type=str, help="also write the JSON record here")
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("gamma", help="construct growth-bound sequences as CSV")
    _add_gamma_source(p, with_length=True)
    p.add_argument("--output", type=str, help="CSV destination (stdout if omitted)")
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("profile", help="index as a function of the control horizon m")
    _add_gamma_source(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="exact worst-case index instead of the closed form")
    p.add_argument("--output", type=str)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("region", help="stability verdicts over exponential-bound parameters")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--C-range", type=float, nargs=2, default=(1.0, 10.0), metavar=("LO", "HI"))
    p.add_argument("--sigma-range", type=float, nargs=2, default=(0.01, 0.99), metavar=("LO", "HI"))
    p.add_argument("--grid", type=int, default=200, help="cells per axis")
    p.add_argument("--output", type=str, required=True)
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("horizon", help="minimal stabilizing horizon for a bound family")
    p.add_argument("--M", type=float, help="constant bound")
    p.add_argument("--C", type=float, help="exponential overshoot")
    p.add_argument("--sigma", type=float, help="exponential decay rate")
    p.add_argument("--policy", type=str, default="1",
                   help="control-horizon policy: integer m, 'best', or 'half'")
    p.add_argument("--N-max", type=int, default=600)
    p.add_argument("--table", type=float, nargs=3, metavar=("LO", "HI", "STEP"),
                   help="sweep constant bounds and write a CSV table")
    p.add_argument("--output", type=str)
    p.set_defaults(handler=_cmd_horizon)

    p = sub.add_parser("simulate", help="closed-loop run with constant control horizon")
    p.add_argument("--model", choices=MODEL_NAMES, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--x0", type=str, help="comma-separated initial state")
    p.add_argument("--startup", type=int, help="classical MPC steps before the audited phase")
    p.add_argument("--epsilon", type=float, help="practical-stability truncation level")
    p.add_argument("--maxiter", type=int, help="optimizer iteration cap per solve")
    p.add_argument("--output", type=str, help="trace CSV destination")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("network", help="seeded dropout campaign with Lyapunov audit")
    p.add_argument("--model", choices=_NETWORK_MODELS, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m-star", type=int, required=True, help="worst tolerated update gap")
    p.add_argument("--p", type=float, required=True, help="per-step dropout probability")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--x0", type=str)
    p.add_argument("--startup", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--maxiter", type=int)
    p.add_argument("--audit-alpha", type=float,
                   help="audit against this index instead of alpha_star (falsification probe)")
    p.add_argument("--output", type=str)
    p.set_defaults(handler=_cmd_network)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
    except BrokenPipeError:
        status = 0  # the reader closed the pipe early (`mpccert ... | head`)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    try:
        sys.stdout.flush()  # here, not at exit, where a closed pipe gets reported
    except BrokenPipeError:
        # drop what is still buffered, so that the flush at exit passes too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
