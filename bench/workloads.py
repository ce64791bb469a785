"""The four benchmark workloads: seeded inputs, the repeated operation, and the
checks of the paper's guarantees on every output.

A workload is built from its seed alone. `setup()` designs the starting
network; `op(k)` runs operation k (a design, an episode or a plug/unplug
cycle), whose inputs depend only on the seed and k, so an operation can be
replayed exactly. The program sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from tubenet import cli, sim
from tubenet.model import discretize_exact
from tubenet.scenarios import mass_scenario, power_scenario, truck_scenario

#: slack allowed on the invariance occupancy mu <= 1; the occupancy LP is
#: solved to a 1e-9 primal tolerance on vertex data of order one
MU_TOL = 1e-6
#: controller evaluations an online run collects at least, so that the p99
#: latency has ten samples beyond it
MIN_EVALUATIONS = 1000

TRUCK_T = 150
TRUCK_BOX = np.array([3.0, 0.5, 3.0, 0.5])  # |position|, |velocity| of both trucks
GRID_T = 100
GRID_LOAD_MAX = 0.1
GRID_LOAD_STEPS = 2


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, *key])


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of index in the given base."""
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def truck_x0(seed: int, k: int) -> dict:
    """Initial states of episode k: point k+1 of a Halton sequence, shifted by
    a seeded offset (mod 1) and mapped onto the box. Any prefix of episodes
    covers the box evenly, whatever the seed."""
    shift = rng_for(seed, 0).random(4)
    u = (np.array([radical_inverse(k + 1, b) for b in (2, 3, 5, 7)]) + shift) % 1.0
    x = (2.0 * u - 1.0) * TRUCK_BOX
    return {"1": x[:2].tolist(), "2": x[2:].tolist()}


def grid_loads(seed: int, k: int, ids=("1", "2", "3", "4")) -> list[dict]:
    """Known load steps of episode k: GRID_LOAD_STEPS steps on distinct areas,
    at seeded times, with seeded levels of magnitude up to GRID_LOAD_MAX."""
    rng = rng_for(seed, 1, k)
    areas = rng.choice(len(ids), size=GRID_LOAD_STEPS, replace=False)
    times = np.sort(rng.integers(5, GRID_T // 2, size=GRID_LOAD_STEPS))
    values = rng.uniform(-GRID_LOAD_MAX, GRID_LOAD_MAX, size=GRID_LOAD_STEPS)
    return [{"id": ids[a], "time": int(t), "value": float(v)}
            for a, t, v in zip(areas, times, values)]


def third_truck_delta(seed: int, k: int, ts: float = 0.1) -> dict:
    """Plug delta for a third truck hung onto truck 2 by a spring and damper,
    with seeded mass, spring and damper; coupled both ways, so truck 2 is a
    successor of the new truck."""
    rng = rng_for(seed, 2, k)
    m3 = float(rng.uniform(2.5, 3.5))
    k23 = float(rng.uniform(0.05, 0.15))
    h23 = float(rng.uniform(0.05, 0.15))
    Ac = np.array([[0.0, 1.0], [-k23 / m3, -h23 / m3]])
    Bc = np.array([[0.0], [100.0 / m3]])
    Ad, Bd, E32 = discretize_exact(Ac, Bc, np.array([[0.0, 0.0], [k23 / m3, h23 / m3]]), ts)
    # the same spring acting on truck 2 (mass 4)
    Ac2 = np.array([[0.0, 1.0], [-(0.4 + k23) / 4.0, -(0.3 + h23) / 4.0]])
    _, _, E23 = discretize_exact(Ac2, np.array([[0.0], [25.0]]),
                                 np.array([[0.0, 0.0], [k23 / 4.0, h23 / 4.0]]), ts)
    box = np.vstack([np.eye(2), -np.eye(2)]).tolist()
    return {
        "add_subsystem": {"id": "3", "A": Ad.tolist(), "B": Bd.tolist(),
                          "X": {"C": box, "d": [4.5, 2.0, 4.5, 2.0]},
                          "U": {"C": [[1.0], [-1.0]], "d": [1.5, 1.5]}},
        "couplings": [{"from": "2", "to": "3", "A": E32.tolist()},
                      {"from": "3", "to": "2", "A": E23.tolist()}],
    }


def mass_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed % 2**32, 3, k]).generate_state(1)[0])


@dataclass
class OpResult:
    """What one operation produced: work done, latency samples, failures."""

    work: int = 0  # units of the workload's throughput metric
    latencies_ms: list = field(default_factory=list)  # samples for op_p50_ms
    attempted: int = 0
    failures: list = field(default_factory=list)  # one message per failed operation
    extra: dict = field(default_factory=dict)  # workload-specific samples, by metric


class Workload:
    name = ""
    why = ""
    unit = ""  # what one unit of `work` is

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.design_times: list[float] = []

    def setup(self) -> list[str]:
        """Generate the inputs and design the starting network; returns the
        failed checks."""
        raise NotImplementedError

    def op(self, k: int) -> OpResult:
        raise NotImplementedError

    def enough(self, ops: list[OpResult]) -> bool:
        """Whether the run has the samples its metrics need."""
        return True

    def _design(self, doc: dict):
        scenario = cli.scenario_from_dict(doc)
        t0 = time.perf_counter()
        controllers, report, failures = cli.design_scenario(scenario)
        self.design_times.append(time.perf_counter() - t0)
        return scenario, controllers, report, failures


def design_checks(report: dict, failures: dict) -> list[str]:
    """Every design succeeds, with positive state and input margins."""
    bad = [f"design of {i} failed: {f.reason}" for i, f in sorted(failures.items())]
    for i, info in sorted(report["subsystems"].items()):
        if info["status"] == "ok" and not (info["state_margin"] > 0 and info["input_margin"] > 0):
            bad.append(f"design of {i} has a non-positive margin")
    return bad


# ------------------------------------------------------------------ design

class DesignMass(Workload):
    name = "design-mass4x4"
    why = ("mass 4x4 design: almost all time in set tightening (redundancy LPs); "
           "no QP, certificate or simulation")
    unit = "controllers designed"

    def setup(self) -> list[str]:
        mass_scenario(4, 4, seed=mass_seed(self.seed, 0))  # input generation only
        return []

    def op(self, k: int) -> OpResult:
        scenario, controllers, report, failures = self._design(
            mass_scenario(4, 4, seed=mass_seed(self.seed, k)))
        res = OpResult(work=len(controllers), attempted=len(scenario.network.ids) + 1)
        res.latencies_ms = [1e3 * info["design_time"] for info in report["subsystems"].values()]
        res.failures = design_checks(report, failures)
        res.extra["design_alpha_max"] = [max((c.rci.alpha for c in controllers.values()),
                                             default=0.0)]
        path = os.path.join(self.scratch, f"mass-{k}.json")
        cli.save_bundle(path, scenario, controllers, report)
        _, loaded, _ = cli.load_bundle(path)
        os.remove(path)
        if not same_controllers(controllers, loaded):
            res.failures.append("bundle did not round-trip to identical controllers")
        return res


def same_controllers(a: dict, b: dict) -> bool:
    """Identical designs and settings, compared through the bundle encoding."""
    if set(a) != set(b):
        return False
    for i in a:
        ca, cb = a[i], b[i]
        if cli._design_to_dict(ca) != cli._design_to_dict(cb):
            return False
        if (ca.cfg.N, ca.cfg.mode, ca.cfg.cost) != (cb.cfg.N, cb.cfg.mode, cb.cfg.cost):
            return False
        if not (np.array_equal(ca.cfg.Q, cb.cfg.Q) and np.array_equal(ca.cfg.R, cb.cfg.R)):
            return False
    return True


# ------------------------------------------------------------------ online

class Online(Workload):
    """Closed-loop episodes of a designed network."""

    unit = "network steps"

    def scenario_doc(self) -> dict:
        raise NotImplementedError

    def sim_config(self, k: int) -> sim.SimConfig:
        raise NotImplementedError

    def setup(self) -> list[str]:
        self.scenario, self.controllers, report, failures = self._design(self.scenario_doc())
        net = self.scenario.network
        self.Q, self.R = {}, {}
        for i in net.ids:
            cfg = self.scenario.controller_config(i).resolved(net.subsystems[i].n,
                                                              net.subsystems[i].m)
            self.Q[i], self.R[i] = cfg.Q, cfg.R
        return design_checks(report, failures)

    def enough(self, ops) -> bool:
        return sum(len(r.latencies_ms) for r in ops) >= MIN_EVALUATIONS

    def op(self, k: int) -> OpResult:
        net = self.scenario.network
        trace = sim.run(net, self.controllers, self.sim_config(k))
        res = OpResult(work=trace.steps)
        for i in trace.ids:
            d = trace.data[i]
            res.latencies_ms.extend(1e3 * t for t in d["solve_time"])
            res.attempted += len(d["solve_time"])
            for t, (feasible, violation, mu) in enumerate(zip(d["feasible"], d["violation"],
                                                               d["mu"])):
                if not feasible:
                    res.failures.append(f"episode {k}: {i} infeasible at t={t}")
                elif violation:
                    res.failures.append(f"episode {k}: {i} violates a constraint at t={t}")
                elif not mu <= 1.0 + MU_TOL:
                    res.failures.append(f"episode {k}: {i} left its tube (mu={mu!r}) at t={t}")
        if trace.steps:
            res.extra["eta"] = [sim.eta_index(trace, Q=self.Q, R=self.R)]
        return res


class OnlineTrucks(Online):
    name = "online-trucks"
    why = ("two trucks in closed loop from seeded transients: the dense QP serves "
           "part of the steps, so QP and BLAS threading costs show")

    def scenario_doc(self) -> dict:
        return truck_scenario(T=TRUCK_T)

    def sim_config(self, k: int) -> sim.SimConfig:
        return sim.SimConfig(T=TRUCK_T, x0=truck_x0(self.seed, k), mode="decentralized",
                             record_failure=True)


class OnlineGrid(Online):
    name = "online-grid"
    why = ("4-area grid, distributed law under seeded load steps: shortcut and "
           "predecessor-aware LPs on every step, almost no QP")

    def scenario_doc(self) -> dict:
        doc = power_scenario(T=GRID_T)
        doc["controller"]["mode"] = "distributed"
        doc["simulation"]["mode"] = "distributed"
        return doc

    def sim_config(self, k: int) -> sim.SimConfig:
        ids = tuple(self.scenario.network.ids)
        loads = [sim.LoadStep(ls["id"], ls["time"], ls["value"])
                 for ls in grid_loads(self.seed, k, ids)]
        return sim.SimConfig(T=GRID_T, x0={i: np.zeros(4) for i in ids},
                             mode="distributed", loads=loads, record_failure=True)


# --------------------------------------------------------------------- pnp

class PnpTrucks(Workload):
    name = "pnp-trucks"
    why = ("plug a seeded third truck into the designed pair and unplug it again "
           "through the CLI: design plus the sampled commit certificate")
    unit = "cli transactions"

    def setup(self) -> list[str]:
        scenario, controllers, report, failures = self._design(truck_scenario())
        self.base = os.path.join(self.scratch, "base.json")
        cli.save_bundle(self.base, scenario, controllers, report)
        with open(self.base) as fh:
            self.base_doc = json.load(fh)
        return design_checks(report, failures)

    def _cli(self, argv) -> tuple[int, float]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, time.perf_counter() - t0

    def op(self, k: int) -> OpResult:
        res = OpResult(attempted=2)
        delta = os.path.join(self.scratch, f"plug-{k}.json")
        udelta = os.path.join(self.scratch, f"unplug-{k}.json")
        plugged = os.path.join(self.scratch, f"plugged-{k}.json")
        unplugged = os.path.join(self.scratch, f"unplugged-{k}.json")
        with open(delta, "w") as fh:
            json.dump(third_truck_delta(self.seed, k), fh)
        with open(udelta, "w") as fh:
            json.dump({"remove_subsystem": "3"}, fh)
        rc_plug, t_plug = self._cli(["plug", delta, self.base, "-o", plugged])
        rc_unplug, t_unplug = (None, 0.0)
        if rc_plug == 0:
            rc_unplug, t_unplug = self._cli(["unplug", udelta, plugged, "-o", unplugged,
                                             "--policy", "performance"])
        res.work = int(rc_plug == 0) + int(rc_unplug == 0)
        res.latencies_ms = [1e3 * (t_plug + t_unplug)]
        res.extra["plug_ms"] = [1e3 * t_plug]
        if rc_unplug == 0:
            res.extra["unplug_ms"] = [1e3 * t_unplug]
        res.failures = self._check(k, rc_plug, plugged, rc_unplug, unplugged)
        for path in (delta, udelta, plugged, unplugged):
            if os.path.exists(path):
                os.remove(path)
        return res

    def _check(self, k, rc_plug, plugged, rc_unplug, unplugged) -> list[str]:
        if rc_plug != 0:
            return [f"cycle {k}: plug rejected (exit {rc_plug})"]
        bad = []
        with open(plugged) as fh:
            doc = json.load(fh)
        # redesign set = the new truck plus its successors; the rest is reused
        outcomes = doc["report"]["transaction"]["outcomes"]
        if set(outcomes) != {"3", "2"} or set(outcomes.values()) != {"designed+certified"}:
            bad.append(f"cycle {k}: plug redesigned {outcomes}, expected 3 and 2")
        if doc["controllers"]["1"] != self.base_doc["controllers"]["1"]:
            bad.append(f"cycle {k}: plug changed the controller of truck 1")
        if rc_unplug != 0:
            return bad + [f"cycle {k}: unplug rejected (exit {rc_unplug})"]
        with open(unplugged) as fh:
            doc = json.load(fh)
        outcomes = doc["report"]["transaction"]["outcomes"]
        if set(outcomes) != {"2"} or set(outcomes.values()) != {"designed+certified"}:
            bad.append(f"cycle {k}: unplug redesigned {outcomes}, expected 2")
        if set(doc["controllers"]) != {"1", "2"}:
            bad.append(f"cycle {k}: unplug left controllers {sorted(doc['controllers'])}")
        elif doc["controllers"]["1"] != self.base_doc["controllers"]["1"]:
            bad.append(f"cycle {k}: unplug changed the controller of truck 1")
        return bad


WORKLOADS = {w.name: w for w in (DesignMass, OnlineTrucks, OnlineGrid, PnpTrucks)}


@contextlib.contextmanager
def scratch_dir(root: str):
    """A private directory under root, removed afterwards."""
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=root)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
