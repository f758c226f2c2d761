"""Span tracing for the benchmark's per-layer metrics.

A traced run replaces each public function of the package's layers, in
every ``mpccert`` module namespace that holds a reference to it, with a
wrapper that records a span: name, start, end and parent.  ``analysis``
binds its own reference to ``certificate``, ``sim.loop`` its own to
``solve_finite_horizon``, and so on, so every lookup path is covered.
Model methods are wrapped on their classes.  Nothing under ``src/``
changes.

Spans stay in memory in flat arrays and are written out when the run ends.
A span's self time is its duration minus the durations of its children.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (defining module, public function); the span is named after both
FUNCTIONS = (
    ("mpccert.controllability", "check_submultiplicative"),
    ("mpccert.controllability", "gamma_from_exponential"),
    ("mpccert.controllability", "constant_gamma"),
    ("mpccert.certificate", "certificate"),
    ("mpccert.certificate", "alpha_closed_form"),
    ("mpccert.certificate", "alpha_lp"),
    ("mpccert.certificate", "build_lp"),
    ("mpccert.certificate", "solve_lp"),
    ("mpccert.certificate", "max_alpha_over_m"),
    ("mpccert.analysis", "minimal_horizon"),
    ("mpccert.analysis", "stability_region"),
    ("mpccert.analysis", "alpha_profile_m"),
    ("mpccert.analysis", "horizon_table"),
    ("mpccert.sim.lq", "gamma_from_riccati"),
    ("mpccert.sim.shooting", "solve_finite_horizon"),
    ("mpccert.sim.loop", "mpc_run"),
    ("mpccert.sim.loop", "verify_relaxed_lyapunov"),
    ("mpccert.sim.loop", "measured_alpha"),
    ("mpccert.netcheck", "certify_up_to"),
    ("mpccert.netcheck", "run_network_experiment"),
    ("mpccert.cli", "main"),
)


def _count_lp_iterations(tracer, sol) -> None:
    tracer.counters["certificate.solve_lp.iterations"] += sol.iterations


def _count_solver_work(tracer, sol) -> None:
    tracer.counters["sim.shooting.iterations"] += sol.iterations
    tracer.counters["sim.shooting.unconverged"] += not sol.converged


def _count_cells(tracer, grid) -> None:
    tracer.counters["analysis.stability_region.cells"] += grid.stable.size


# counters read from a layer's return value
POST = {
    "certificate.solve_lp": _count_lp_iterations,
    "sim.shooting.solve_finite_horizon": _count_solver_work,
    "analysis.stability_region": _count_cells,
}


class Tracer:
    """Span recorder; records only while ``active`` (the timed operations)."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)

    def call(self, name: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.counters[name + ".failed"] += 1
            raise
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        post = POST.get(name)
        if post is not None:
            post(self, out)
        return out

    def reset(self) -> None:
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        self.counters.clear()

    # --- persistence and aggregation -----------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=float),
        )

    def merge_file(self, path) -> float:
        """Append the spans and counters another process saved; return the
        summed duration of its top-level spans."""
        with np.load(path) as data:
            ids = [self._id(str(n)) for n in data["names"]]
            offset = len(self.start)
            parent = data["parent"]
            self.name_id.extend(ids[i] for i in data["name_id"])
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.parent.extend(int(p) + offset if p >= 0 else -1 for p in parent)
            for k, v in zip(data["counter_names"], data["counter_values"]):
                self.counters[str(k)] += float(v)
            top = parent < 0
            return float(np.sum(data["end"][top] - data["start"][top]))

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span with this name."""
        nid = self._ids.get(name, -1)
        mask = np.frombuffer(self.name_id, dtype=np.int32) == nid
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[mask]

    def summary(self) -> tuple[dict, dict, float]:
        """(self seconds by name, calls by name, summed top-level duration)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        selft = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = {n: float(selft[i]) for i, n in enumerate(self.names)}
        n_calls = {n: int(calls[i]) for i, n in enumerate(self.names)}
        return self_s, n_calls, float(np.sum(dur[~nested]))


def _span_name(module: str, func: str) -> str:
    return f"{module.removeprefix('mpccert.')}.{func}"


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _wrap_rollout(tracer: Tracer, fn):
    def traced(self, *args, **kwargs):
        return tracer.call(f"sim.models.{self.name}.rollout", fn, (self,) + args, kwargs)

    return traced


def _wrap_period(tracer: Tracer, fn):
    def counted(self, *args):
        if tracer.active:
            tracer.counters["sim.models.pendulum.periods"] += 1
        return fn(self, *args)

    return counted


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a loaded mpccert module refers to it."""
    modules = [m for k, m in list(sys.modules.items()) if k == "mpccert" or k.startswith("mpccert.")]
    for mod_name, func in FUNCTIONS:
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue
        original = getattr(mod, func)
        wrapped = _wrap(tracer, _span_name(mod_name, func), original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)

    models = sys.modules.get("mpccert.sim.models")
    if models is None:
        return
    for cls in (models.SystemModel, models.LqScalarModel, models.PendulumModel):
        if "rollout" in vars(cls):
            cls.rollout = _wrap_rollout(tracer, vars(cls)["rollout"])
        if "step" in vars(cls):
            cls.step = _wrap(tracer, "sim.models.step", vars(cls)["step"])
    models.PendulumModel._sweep = _wrap_period(tracer, models.PendulumModel._sweep)


def layer_metrics(tracer: Tracer, names, rounds: int, extras: dict) -> dict:
    """Per-layer values: self times and counts per round, ratios as they are.

    ``extras`` supplies values the workload measured itself; any other name
    is ``<span>.self_ms``, ``<span>.calls``, a counter, or the rollouts per
    shooting solve.
    """
    self_s, calls, _ = tracer.summary()
    out = {}
    for name in names:
        if name in extras:
            value = extras[name]
        elif name.endswith(".self_ms"):
            value = 1e3 * self_s.get(name.removesuffix(".self_ms"), 0.0) / rounds
        elif name.endswith(".calls"):
            value = calls.get(name.removesuffix(".calls"), 0) / rounds
        elif name == "sim.shooting.rollouts_per_solve":
            rollouts = sum(c for n, c in calls.items() if n.endswith(".rollout"))
            solves = calls.get("sim.shooting.solve_finite_horizon", 0)
            value = rollouts / solves if solves else 0.0
        else:
            value = tracer.counters.get(name, 0.0) / rounds
        out[name] = value
    return out
