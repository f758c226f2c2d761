"""One workload in one fresh process: set up, measure, check.

run.py starts this script; it prints one JSON line.

    python3 worker.py --workload W --seed S --seconds T --trace 0|1 --t0 T0 [--setup-only]

T0 is ``time.monotonic()`` in the parent just before it started this
process, so ``setup_s`` covers interpreter start, ``import mpccert``, input
generation and one untimed warm-up operation of each kind.  Operations run
in whole rounds until their summed wall time reaches ``--seconds``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _problem(op, out, err) -> str | None:
    """Why an operation failed, or None if it ran and passed its check."""
    import workloads

    if err is not None:
        return f"raised {type(err).__name__}: {err}"
    try:
        op.check(out)
    except workloads.Mismatch as exc:
        return str(exc)
    except Exception as exc:  # output of an unexpected shape: a failure, not a crash
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def _run_op(op, tracer):
    if tracer is not None:
        tracer.active = True
    t = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # the operation failed; its check reports it
        out, err = None, exc
    dt = time.perf_counter() - t
    if tracer is not None:
        tracer.active = False
    return dt, _problem(op, out, err)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.workload != "cli":
        import mpccert  # noqa: F401  (tracing wraps what this loads)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    if args.workload == "cli":
        work = workloads.Cli(args.seed, tracer)
    else:
        work = workloads.WORKLOADS[args.workload](args.seed)

    try:
        warm = work.warmup_ops()
        warm_results = [_run_op(op, None) for op in warm]
        setup_s = time.monotonic() - args.t0
        unexpected = [f"warm-up {op.kind}: {p}" for op, (_, p) in zip(warm, warm_results) if p]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "problems": unexpected}))
            return 0
        if tracer is not None:
            tracer.reset()
        if args.workload == "cli":
            work.process_s.clear()
            work.interpreter_s.clear()

        times, failed, mended, rounds = [], 0, set(), 0
        while sum(times) < args.seconds:
            for op in work.round_ops(rounds):
                dt, problem = _run_op(op, tracer)
                times.append(dt)
                if problem is not None:
                    failed += 1
                    if not op.is_known(problem):
                        unexpected.append(f"round {rounds} {op.kind}: {problem}")
                elif op.known_fault is not None:
                    mended.add(op.kind)
            rounds += 1
    finally:
        if args.workload == "cli":
            work.close()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    busy = sum(times)
    result = {
        "setup_s": setup_s,
        "attempted": len(times),
        "failed": failed,
        "correct": not unexpected,
        "rounds": rounds,
        "busy_s": busy,
        "ops_per_s": len(times) / busy,
        "op_p50_ms": 1e3 * statistics.median(times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "problems": unexpected[:10],
        "mended": sorted(mended),
    }
    if tracer is not None:
        import tracing

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self_s, _, top = tracer.summary()
        extras = {
            "trace.ops_per_s": result["ops_per_s"],
            "trace.unattributed_ms": 1e3 * (busy - top) / rounds,
        }
        if args.workload == "cli":
            extras.update(work.extras())
        names = [m["name"] for m in spec["per_layer"]]
        result["per_layer"] = tracing.layer_metrics(tracer, names, rounds, extras)
        result["self_ms_per_round"] = 1e3 * sum(self_s.values()) / rounds
        result["op_ms_per_round"] = 1e3 * busy / rounds
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"trace-{args.workload}-seed{args.seed}.npz")
    for p in unexpected[:10]:
        print(f"[{args.workload}] unexpected failure: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
