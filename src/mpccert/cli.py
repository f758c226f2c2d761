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
from typing import Callable, Optional, Sequence

import numpy as np

from ._output import dumps_stable, fmt12, write_text
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
from .controllability import GammaSequence, gamma_from_csv, gamma_to_csv
from .netcheck import NetworkExperiment, run_network_experiment
from .sim.loop import constant_schedule, measured_alpha, mpc_run, trace_to_csv
from .sim.lq import gamma_from_riccati
from .sim.models import MODEL_NAMES, SystemModel, model_by_name
from .sim.shooting import ShootingProblem

# models with intrinsic (Riccati) growth bounds, for campaigns and certificates
_RICCATI_MODELS = ("lq-scalar", "lq-double-integrator")

OUTDIR_ENV = "MPCCERT_OUTDIR"

# largest requests accepted: a table's rows and a region's cells per axis
# are allocated in full before any of them is computed
_MAX_TABLE_ROWS = 10_000
_MAX_GRID = 1_000


def _output_path(text: str) -> Path:
    """``--output``: a relative path is resolved against $MPCCERT_OUTDIR when set."""
    p = Path(text)
    base = os.environ.get(OUTDIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
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


def _add_gamma_source(p: argparse.ArgumentParser, csv: bool = True) -> None:
    g = p.add_argument_group("growth-bound source (choose one)")
    g.add_argument("--C", type=float, help="exponential bound: overshoot C >= 1")
    g.add_argument("--sigma", type=float, help="exponential bound: decay rate in (0,1)")
    g.add_argument("--M", type=float, help="constant bound gamma_i = M")
    if csv:
        g.add_argument("--gamma-csv", type=str, help="CSV file with header i,gamma")


def _gamma_family(args) -> tuple[Callable[[int], GammaSequence], dict]:
    """The one growth-bound source the flags name, as a family N -> gamma_1..gamma_N,
    and its config echo."""
    csv = vars(args).get("gamma_csv")  # `horizon` takes no CSV
    if (args.C is not None or args.sigma is not None) + (args.M is not None) + (csv is not None) != 1:
        flags = "--C/--sigma, --M, or --gamma-csv" if "gamma_csv" in vars(args) else "--C/--sigma or --M"
        raise ValueError(f"specify exactly one of {flags}")
    if args.M is not None:
        return constant_family(args.M), {"M": args.M}
    if csv is not None:
        gam = gamma_from_csv(csv)
        return gam.truncated, {"gamma_csv": csv}
    if args.C is None or args.sigma is None:
        raise ValueError("--C and --sigma must be given together")
    return exponential_family(args.C, args.sigma), {"C": args.C, "sigma": args.sigma}


def _emit_json(record: dict, out: Optional[Path]) -> None:
    text = dumps_stable(record)
    if out is not None:  # first: a reader closing stdout early must not lose the file
        write_text(out, text + "\n")
    print(text)


# --- subcommand handlers ----------------------------------------------------


def _cmd_alpha(args) -> int:
    family, src = _gamma_family(args)
    gamma = family(args.N)
    res = certificate(CertificateQuery(gamma, args.N, args.m), args.method)
    record = res.to_record()
    record["config"] = {**src, "N": args.N, "m": args.m, "method": args.method}
    _emit_json(record, args.output)
    return 0


def _cmd_gamma(args) -> int:
    family, src = _gamma_family(args)
    gamma = family(args.length)
    gamma_to_csv(gamma, args.output)
    if args.output is not None:
        print(f"wrote {gamma.n} bounds to {args.output}")
    return 0


def _cmd_profile(args) -> int:
    family, src = _gamma_family(args)
    gamma = family(args.N)
    prof = alpha_profile_m(gamma, args.N, args.method)
    cfg = {**src, "N": args.N, "method": args.method}
    profile_to_csv(prof, args.output, _config_line(cfg))
    if args.output is not None:
        print(f"wrote {len(prof)} rows to {args.output}")
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
    region_to_csv(grid, args.output, _config_line(cfg))
    print(
        f"wrote {args.grid}x{args.grid} region to {args.output} "
        f"(stable fraction {fmt12(grid.fraction_stable())})"
    )
    return 0


def _cmd_horizon(args) -> int:
    if args.table is not None:
        if any(v is not None for v in (args.M, args.C, args.sigma, args.policy)):
            raise ValueError("--table sweeps constant bounds under both policies; drop --M, --C, --sigma and --policy")
        if args.output is None:
            raise ValueError("--output is required with --table")
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
        horizon_table_to_csv(rows, args.output, _config_line({"table": list(args.table), "N_max": args.N_max}))
        print(f"wrote {len(rows)} rows to {args.output}")
        return 0

    policy = 1 if args.policy is None else args.policy
    family, src = _gamma_family(args)
    res = minimal_horizon(family, policy, n_max=args.N_max)
    record = {
        "config": {**src, "policy": str(policy), "N_max": args.N_max},
        "N_hat": res.n_hat,
        "m": res.m,
        "alpha_at": res.alpha,
        "alpha_before": res.alpha_before,
    }
    if args.M is not None:
        record["bound_m1"] = horizon_bound_m1(args.M)
        record["bound_half_even"] = horizon_bound_half(args.M, "even")
        record["bound_half_odd"] = horizon_bound_half(args.M, "odd")
    _emit_json(record, args.output)
    return 0


def _add_loop_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", type=str, help="comma-separated initial state")
    p.add_argument("--startup", type=int, help="classical MPC steps before the audited phase")
    p.add_argument("--epsilon", type=float, help="practical-stability truncation level")


def _loop_args(args, model: SystemModel) -> tuple[np.ndarray, int, float]:
    """``--x0``, ``--startup`` and ``--epsilon``, with each model's defaults."""
    # the pendulum needs a warm-up and is practically stable only; LQ plants are exact
    pendulum = model.name == "pendulum"
    x0 = np.array([float(v) for v in args.x0.split(",")]) if args.x0 else model.default_x0
    startup = args.startup if args.startup is not None else (20 if pendulum else 0)
    epsilon = args.epsilon if args.epsilon is not None else (1e-5 if pendulum else 0.0)
    return x0, startup, epsilon


def _cmd_simulate(args) -> int:
    if args.m < 1:
        raise ValueError(f"--m {args.m} must be >= 1")
    if args.m > args.N - 1:
        raise ValueError(f"--m {args.m} must be <= N - 1 = {args.N - 1}")
    if args.steps < 1:
        raise ValueError(f"--steps {args.steps} must be >= 1")
    model = model_by_name(args.model)
    x0, startup, epsilon = _loop_args(args, model)
    sched = constant_schedule(args.m, (args.steps + args.m - 1) // args.m)
    trace = mpc_run(model, args.N, sched, x0, args.steps, startup=startup, maxiter=args.maxiter)
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
        if args.model in _RICCATI_MODELS:
            gam = gamma_from_riccati(model, args.N)
            record["certificate_alpha"] = certificate(
                CertificateQuery(gam, args.N, args.m), CLOSED_FORM
            ).alpha
    if args.output is not None:
        trace_to_csv(trace, args.output, _config_line(cfg))
    _emit_json(record, None)
    return 0


def _cmd_network(args) -> int:
    model = model_by_name(args.model)
    x0, startup, epsilon = _loop_args(args, model)
    exp = NetworkExperiment(
        model=model,
        horizon=args.N,
        m_star=args.m_star,
        dropout_p=args.p,
        num_seeds=args.seeds,
        steps=args.steps,
        x0=x0,
        base_seed=args.base_seed,
        startup=startup,
    )
    report = run_network_experiment(exp, audit_alpha=args.audit_alpha, epsilon=epsilon)
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
    _emit_json(record, args.output)
    return 0


# --- parser -----------------------------------------------------------------


def _policy(text: str):
    """``--policy``: 'best', 'half' or an integer control horizon m."""
    if text in ("best", "half"):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer m, 'best' or 'half', got {text!r}") from None


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
    p.add_argument("--exact", dest="method", action="store_const", const=LINEAR_PROGRAM, default=CLOSED_FORM,
                   help="exact worst-case index (the LP's optimum, by a backward recursion) instead of the closed form")
    p.add_argument("--output", type=_output_path, help="also write the JSON record here")
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("gamma", help="construct growth-bound sequences as CSV")
    _add_gamma_source(p)
    p.add_argument("--length", type=int, required=True, help="number of entries to generate")
    p.add_argument("--output", type=_output_path, help="CSV destination (stdout if omitted)")
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("profile", help="index as a function of the control horizon m")
    _add_gamma_source(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--exact", dest="method", action="store_const", const=LINEAR_PROGRAM, default=CLOSED_FORM,
                   help="exact worst-case index instead of the closed form")
    p.add_argument("--output", type=_output_path)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("region", help="stability verdicts over exponential-bound parameters")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--C-range", type=float, nargs=2, default=(1.0, 10.0), metavar=("LO", "HI"))
    p.add_argument("--sigma-range", type=float, nargs=2, default=(0.01, 0.99), metavar=("LO", "HI"))
    p.add_argument("--grid", type=int, default=200, help="cells per axis")
    p.add_argument("--output", type=_output_path, required=True)
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("horizon", help="minimal stabilizing horizon for a bound family")
    _add_gamma_source(p, csv=False)
    p.add_argument("--policy", type=_policy,
                   help="control-horizon policy: integer m, 'best', or 'half' (default: 1)")
    p.add_argument("--N-max", type=int, default=600)
    p.add_argument("--table", type=float, nargs=3, metavar=("LO", "HI", "STEP"),
                   help="sweep constant bounds and write a CSV table")
    p.add_argument("--output", type=_output_path)
    p.set_defaults(handler=_cmd_horizon)

    p = sub.add_parser("simulate", help="closed-loop run with constant control horizon")
    p.add_argument("--model", choices=MODEL_NAMES, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--steps", type=int, required=True)
    _add_loop_flags(p)
    p.add_argument("--maxiter", type=int, default=ShootingProblem.maxiter,
                   help="optimizer iteration cap per solve (>= 1, default: %(default)s)")
    p.add_argument("--output", type=_output_path, help="trace CSV destination")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("network", help="seeded dropout campaign with Lyapunov audit")
    p.add_argument("--model", choices=_RICCATI_MODELS, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m-star", type=int, required=True, help="worst tolerated update gap")
    p.add_argument("--p", type=float, required=True, help="per-step dropout probability")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--base-seed", type=int, default=0)
    _add_loop_flags(p)
    p.add_argument("--audit-alpha", type=float,
                   help="audit against this index instead of alpha_star (falsification probe)")
    p.add_argument("--output", type=_output_path)
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
