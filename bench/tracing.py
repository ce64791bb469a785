"""In-memory span tracing around the public functions of tubenet's modules.

The tracer wraps functions from the outside: every module of the `tubenet`
package that holds a reference to a wrapped function gets the wrapper in its
place, so calls between modules are seen too. The program itself is not
changed. Spans (name, start, end, parent, run id, info) are kept in flat
lists while tracing and turned into per-layer metrics afterwards.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass
from importlib import import_module

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    run: int  # operation the span belongs to (episode, design, pnp cycle)
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_info(report, args, kwargs):
    return (report.status, int(report.iterations))


def _member_info(cert, args, kwargs):
    return bool(cert.feasible)


def _tx_info(tx, args, kwargs):
    return (bool(tx.committed), len(tx.redesign_set) if tx.committed else 0)


def _bytes_info(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


#: (module, function, span name, info extractor): the layer boundaries traced
LAYERS = [
    ("tubenet.optim", "solve_lp", "optim.lp", _solve_info),
    ("tubenet.optim", "solve_qp", "optim.qp", _solve_info),
    ("tubenet.geometry", "erode_by_vpolytope", "geometry.erode", None),
    ("tubenet.geometry", "member_aggregate", "geometry.member", _member_info),
    ("tubenet.rci", "synthesize_rci_from_w", "rci.synthesize", None),
    ("tubenet.controller", "design_controller", "controller.design", None),
    ("tubenet.controller", "tighten_sets", "controller.tighten", None),
    ("tubenet.controller", "solve_mpc", "controller.nominal", None),
    ("tubenet.controller", "kappa_bar_full", "controller.kappa", None),
    ("tubenet.controller", "kappa_bar_dis_full", "controller.kappa_dis", None),
    ("tubenet.controller", "step_control", "controller.step", None),
    ("tubenet.verify", "rci_certificate", "verify.certificate", None),
    ("tubenet.pnp", "plug_in", "pnp.plug", _tx_info),
    ("tubenet.pnp", "unplug", "pnp.unplug", _tx_info),
    ("tubenet.sim", "run", "sim.run", None),
    ("tubenet.cli", "design_scenario", "cli.design", None),
    ("tubenet.cli", "save_bundle", "cli.bundle_save", _bytes_info),
    ("tubenet.cli", "load_bundle", "cli.bundle_load", None),
    ("tubenet.cli", "cmd_plug", "cli.plug", None),
    ("tubenet.cli", "cmd_unplug", "cli.unplug", None),
]

#: HiGHS itself, below scipy's linprog wrapper
CORE = ("scipy.optimize._linprog_highs", "_highs_wrapper", "optim.lp.core")

SPAN_NAMES = [name for _, _, name, _ in LAYERS]


class Tracer:
    """Collects spans in memory; `run` tags the spans of one operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.run = 0
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._runs: list[int] = []
        self._infos: list[object] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        """Return fn wrapped so that each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer._names)
                tracer._names.append(name)
                tracer._parents.append(stack[-1] if stack else -1)
                tracer._runs.append(tracer.run)
                tracer._infos.append(None)
                tracer._ends.append(0.0)
                tracer._starts.append(tracer.clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._ends[idx] = tracer.clock()
                stack.pop()
            if info is not None:
                tracer._infos[idx] = info(result, args, kwargs)
            return result

        return traced

    def spans(self) -> list[Span]:
        return [Span(*row) for row in zip(self._names, self._starts, self._ends,
                                          self._parents, self._runs, self._infos)]

    # ------------------------------------------------------------ patching
    def install(self, layers=LAYERS, core=CORE):
        """Wrap every traced function wherever a tubenet module refers to it."""
        for module_name, attr, name, info in layers:
            original = getattr(import_module(module_name), attr)
            self._replace_everywhere(original, self.wrap(name, original, info))
        module = import_module(core[0])
        original = getattr(module, core[1])
        self._patches.append((module, core[1], original))
        setattr(module, core[1], self.wrap(core[2], original))
        return self

    def _replace_everywhere(self, original, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "tubenet":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ------------------------------------------------------------ span arithmetic

def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [a, b] intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    kids = children_of(spans)
    return [s.duration - union_length([(spans[c].start, spans[c].end) for c in kids[i]],
                                      s.start, s.end)
            for i, s in enumerate(spans)]


def unattributed(spans: list[Span], t0: float, t1: float) -> float:
    """Time of the window [t0, t1] that no root span covers."""
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    return (t1 - t0) - union_length(roots, t0, t1)


def ancestors(spans: list[Span], i: int):
    """Names of the ancestors of span i, nearest first."""
    p = spans[i].parent
    while p >= 0:
        yield spans[p].name
        p = spans[p].parent


def tail_percentile(values, pct: float = 99.0, beyond: int = 10) -> float | None:
    """The pct-th percentile, or None when fewer than `beyond` samples lie
    above it."""
    if len(values) * (100.0 - pct) / 100.0 < beyond - 1e-9:
        return None
    return float(np.percentile(values, pct))


# ----------------------------------------------------------- layer summary

#: spans whose LP descendants are counted as `<name>.lps`
LP_OWNERS = ("rci.synthesize", "controller.tighten", "controller.nominal",
             "geometry.erode", "verify.certificate")


def layer_metrics(spans: list[Span], t0: float, t1: float) -> dict:
    """Per-layer counts and times of the spans recorded in the window [t0, t1]."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for key in ("optim.lp.core_s", "optim.lp.iters", "optim.lp.infeasible",
                "optim.lp.unbounded", "optim.lp.failed",
                "optim.qp.iters", "optim.qp.failed", "optim.qp.fallback_lps",
                "controller.nominal.shortcut", "controller.nominal.qp",
                "controller.nominal.l1", "geometry.member.infeasible",
                "pnp.redesigned", "pnp.rejected", "cli.bundle_bytes"):
        out[key] = 0
    for owner in LP_OWNERS:
        out[f"{owner}.lps"] = 0

    kids = children_of(spans)
    member_tries = 0
    saved = []
    for i, s in enumerate(spans):
        if s.name == "optim.lp.core":
            out["optim.lp.core_s"] += s.duration
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.s"] += s.duration
        out[f"{s.name}.self_s"] += selfs[i]
        if s.name in ("optim.lp", "optim.qp"):
            layer = s.name
            status, iters = s.info if s.info is not None else ("raised", 0)
            out[f"{layer}.iters"] += iters
            if layer == "optim.lp" and status in ("infeasible", "unbounded"):
                out[f"optim.lp.{status}"] += 1
            elif status not in ("optimal", "infeasible"):
                out[f"{layer}.failed"] += 1
            if layer == "optim.lp":
                if s.parent >= 0 and spans[s.parent].name == "optim.qp":
                    out["optim.qp.fallback_lps"] += 1
                above = set(ancestors(spans, i))
                for owner in LP_OWNERS:
                    if owner in above:
                        out[f"{owner}.lps"] += 1
        elif s.name == "geometry.member" and s.info is False:
            out["geometry.member.infeasible"] += 1
        elif s.name == "controller.nominal":
            names = [spans[c].name for c in kids[i]]
            tried = "geometry.member" in names
            member_tries += tried
            if "optim.qp" in names:
                out["controller.nominal.qp"] += 1
            elif "optim.lp" in names:
                out["controller.nominal.l1"] += 1
            elif tried:
                out["controller.nominal.shortcut"] += 1
        elif s.name in ("pnp.plug", "pnp.unplug") and s.info is not None:
            committed, redesigned = s.info
            out["pnp.redesigned"] += redesigned
            out["pnp.rejected"] += not committed
        elif s.name == "cli.bundle_save" and s.info is not None:
            saved.append(s.info)
    out["controller.nominal.shortcut_ratio"] = (
        out["controller.nominal.shortcut"] / member_tries if member_tries else 0.0)
    out["cli.bundle_bytes"] = sum(saved) / len(saved) if saved else 0
    out["sim.plant_s"] = out["sim.run.self_s"]
    step = [s.duration * 1e3 for s in spans if s.name == "controller.step"]
    out["controller.step.p50_ms"] = float(np.median(step)) if step else 0.0
    out["controller.step.p99_ms"] = tail_percentile(step) or 0.0
    out["unattributed_s"] = unattributed(spans, t0, t1)
    out["tracing.spans"] = len(spans)
    return out


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a function that does nothing."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


#: every metric `layer_metrics` reports, plus those the runner adds
def layer_metric_names() -> list[str]:
    names = list(layer_metrics([], 0.0, 1.0))
    return names + ["tracing.overhead_s", "tracing.estimate_s", "sim.eta"]


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    for suffix, unit in (("_ratio", "ratio"), ("_bytes", "bytes"), (".eta", "index")):
        if name.endswith(suffix):
            return unit
    return "count"
