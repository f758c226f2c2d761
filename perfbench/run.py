"""mpccert benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload design|closed-loop|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all                 # every workload, untraced/traced pairs
    python3 perfbench/run.py --workload all --repeat 10     # spread of each metric over seeds

Run from the root of a source checkout; the package is imported from
``src/``.  Each run of a workload sets up SETUPS fresh processes and
reports the median set-up time; the last process also measures.  With one
workload the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
RUN_LIMIT_S = 170.0  # one run, all its processes included
WORKLOADS = ("design", "closed-loop", "cli")


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, timeout: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: SETUPS - 1 set-up-only processes, then one that also measures."""
    start = time.monotonic()
    setups, problems = [], []
    for _ in range(SETUPS - 1):
        res = _worker(workload, seed, seconds, trace, True, RUN_LIMIT_S)
        setups.append(res["setup_s"])
        problems += res["problems"]
    res = _worker(workload, seed, seconds, trace, False, RUN_LIMIT_S - (time.monotonic() - start))
    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)
    res["problems"] = problems + res["problems"]
    res["correct"] = res["correct"] and not problems
    return res


def contract_line(res: dict, spec: dict, trace: int) -> dict:
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = res["per_layer"][m["name"]] if trace else res[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def _print_run(workload: str, res: dict, spec: dict, trace: int) -> None:
    print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}, rounds {res['rounds']}")
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = res["per_layer"][m["name"]] if trace else res[m["name"]]
        print(f"  {m['name']:<48} {value:14.6g} {m['unit']}")
    for p in res["problems"]:
        print(f"  unexpected failure: {p}")
    for kind in res["mended"]:
        print(f"  known fault no longer fails: {kind}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+k-1")
    ap.add_argument("--pairs", type=int, default=3, help="untraced/traced pairs per workload in 'all' mode")
    args = ap.parse_args()
    if not (ROOT / "src" / "mpccert" / "__init__.py").is_file():
        print(f"error: no mpccert sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if len(names) == 1 and args.repeat == 1:
            res = run_workload(names[0], args.seed, args.seconds, args.trace)
            _print_run(names[0], res, spec, args.trace)
            print(json.dumps(contract_line(res, spec, args.trace)))
            return 0
        if args.repeat > 1:
            return _repeat(names, args, spec)
        return _all(names, args, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _repeat(names, args, spec) -> int:
    """Median and quartiles of every metric over k runs with k seeds."""
    key = "per_layer" if args.trace else "end_to_end"
    summary = {}
    for w in names:
        runs = []
        for i in range(args.repeat):
            res = run_workload(w, args.seed + i, args.seconds, args.trace)
            runs.append(res)
            print(f"{w} seed {args.seed + i}: attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {res['correct']}", flush=True)
        stats = {}
        print(f"{w}: {args.repeat} runs; failed/attempted {[(r['failed'], r['attempted']) for r in runs]}")
        for m in spec[key]:
            values = [r["per_layer"][m["name"]] if args.trace else r[m["name"]] for r in runs]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            stats[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"]}
            print(f"  {m['name']:<48} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {100 * spread:6.2f}% {m['unit']}")
        summary[w] = {
            "runs": args.repeat,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": stats,
        }
    print(json.dumps(summary))
    return 0


def _all(names, args, spec) -> int:
    """Each workload in untraced/traced pairs, the order alternating from one
    pair to the next: end-to-end and per-layer metrics, the tracing overhead
    from the medians over the pairs, and the self-time coverage."""
    summary = {}
    for w in names:
        plain, traced = [], []
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for trace in order:
                res = run_workload(w, args.seed + i, args.seconds, trace)
                (traced if trace else plain).append(res)
                _print_run(f"{w} seed {args.seed + i}" + (" (traced)" if trace else ""), res, spec, trace)
        ops = [r["ops_per_s"] for r in plain]
        q1, med, q3 = _quartiles(ops)
        drift = (q3 - q1) / med
        overhead = 1.0 - statistics.median(r["ops_per_s"] for r in traced) / med
        gap = statistics.median(1.0 - r["self_ms_per_round"] / r["op_ms_per_round"] for r in traced)
        resolved = abs(overhead) > drift
        print(f"{w}: tracing overhead {100 * overhead:.1f}% of ops_per_s (medians over {args.pairs} pairs; "
              f"untraced spread {100 * drift:.1f}%, so {'resolved' if resolved else 'not resolved'}); "
              f"per-layer self times leave {100 * gap:.2f}% of the traced operation time unattributed, "
              f"{'within' if gap <= max(overhead, drift) else 'outside'} the overhead")
        summary[w] = {
            "untraced": [contract_line(r, spec, 0) for r in plain],
            "traced": [contract_line(r, spec, 1) for r in traced],
            "tracing_overhead": overhead,
            "untraced_spread": drift,
            "self_time_gap": gap,
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
