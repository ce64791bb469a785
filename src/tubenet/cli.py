"""Scenario ingestion, design-bundle persistence and the command surface.

Scenario and bundle files are JSON; traces export to CSV plus a JSON metrics
document. Exit codes: 0 ok, 1 usage or schema error, 2 design failure,
3 runtime infeasibility, 4 numerical failure of an online solve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from jsonschema import Draft202012Validator

from .controller import MpcConfig, TerminalData, TubeController
from .geometry import GeometryError, HPolytope, VAggregate, VPolytope
from .model import Coupling, ModelError, Network, Subsystem
from .optim import STATUS_INFEASIBLE, blas_threads
from .pnp import plug_in, unplug
from .rci import DesignFailure, RciConfig, RciDesign
from .sim import LoadStep, NaiveMpc, SimConfig, SimTrace, compute_metrics, run
from .verify import run_all_checks, structural_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DESIGN = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}
_VECTOR = {"type": "array", "items": {"type": "number"}}
_POLY = {
    "type": "object",
    "required": ["C", "d"],
    "properties": {"C": _MATRIX, "d": _VECTOR, "vertices": _MATRIX},
}
_CONTROLLER = {
    "type": "object",
    "properties": {
        "horizon": {"type": "integer", "minimum": 1},
        "Q": _MATRIX,
        "R": _MATRIX,
        "terminal": {"anyOf": [{"const": "zero"},
                               {"type": "object", "required": ["S", "K", "Xf"],
                                "properties": {"S": _MATRIX, "K": _MATRIX, "Xf": _POLY,
                                               "Xf_vertices": _MATRIX}}]},
        "mode": {"enum": ["decentralized", "distributed"]},
        "cost": {"enum": ["quadratic", "l1"]},
        "k": {"type": "integer", "minimum": 1},
        "omega": {"type": "number", "exclusiveMinimum": 0},
        "minimize_alpha": {"type": "boolean"},
    },
    "additionalProperties": False,
}

_ID = {"type": ["string", "integer"]}
_SUBSYSTEM = {
    "type": "object",
    "required": ["id", "A", "B", "X", "U"],
    "properties": {
        "id": _ID,
        "A": _MATRIX, "B": _MATRIX, "X": _POLY, "U": _POLY,
        "L": _MATRIX,
        "setpoint_state_gain": _VECTOR,
        "setpoint_input_gain": _VECTOR,
        "controller": _CONTROLLER,
    },
}
_COUPLINGS = {
    "type": "array",
    "items": {"type": "object", "required": ["from", "to", "A"],
              "properties": {"from": _ID, "to": _ID, "A": _MATRIX}},
}

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["name", "sampling_time", "subsystems", "couplings", "controller",
                 "simulation"],
    "properties": {
        "name": {"type": "string"},
        "sampling_time": {"type": "number", "exclusiveMinimum": 0},
        "subsystems": {
            "type": "array",
            "minItems": 1,
            "items": _SUBSYSTEM,
        },
        "couplings": _COUPLINGS,
        "controller": _CONTROLLER,
        "simulation": {
            "type": "object",
            "required": ["T", "x0"],
            "properties": {
                "T": {"type": "integer", "minimum": 1},
                "x0": {"type": "object", "additionalProperties": _VECTOR},
                "loads": {"type": "array",
                          "items": {"type": "object", "required": ["id", "time", "value"],
                                    "properties": {"id": _ID,
                                                   "time": {"type": "integer", "minimum": 0},
                                                   "value": {"type": "number"}}}},
                "seed": {"type": "integer"},
                "mode": {"enum": ["decentralized", "distributed"]},
            },
        },
    },
}


#: `tubenet plug` delta: the new subsystem, its couplings both ways, its own
#: controller settings and its initial state
PLUG_SCHEMA = {
    "type": "object",
    "required": ["add_subsystem"],
    "properties": {
        "add_subsystem": _SUBSYSTEM,
        "couplings": _COUPLINGS,
        "controller": _CONTROLLER,
        "x0": _VECTOR,
    },
}

#: `tubenet unplug` delta: the subsystem to remove and the new local
#: dynamics of retained subsystems
UNPLUG_SCHEMA = {
    "type": "object",
    "required": ["remove_subsystem"],
    "properties": {
        "remove_subsystem": _ID,
        "A_overrides": {"type": "object", "additionalProperties": _MATRIX},
    },
}


#: design bundle: the embedded scenario (checked by SCENARIO_SCHEMA when it
#: is ingested) and one solved design per subsystem; the design's arrays
#: are checked when they are read, since a deep check costs more than the read
_ARRAY, _NUMBER, _INTEGER = {"type": "array"}, {"type": "number"}, {"type": "integer"}
_DESIGN = {
    "type": "object",
    "required": ["alpha", "k", "q", "omega", "z_blocks", "u_blocks", "z_terminal", "rho",
                 "w_blocks", "w_sigma", "Xhat", "V"],
    "properties": {"alpha": _NUMBER, "k": _INTEGER, "q": _INTEGER, "omega": _NUMBER,
                   "z_blocks": _ARRAY, "u_blocks": _ARRAY, "z_terminal": _ARRAY, "rho": _ARRAY,
                   "w_blocks": _ARRAY, "w_sigma": _NUMBER,
                   "Xhat": {"type": "object", "required": ["C", "d"]},
                   "V": {"type": "object", "required": ["C", "d"]}},
}
BUNDLE_SCHEMA = {
    "type": "object",
    "required": ["scenario", "scenario_fingerprint", "controllers"],
    "properties": {"scenario": {"type": "object"}, "scenario_fingerprint": {"type": "string"},
                   "controllers": {"type": "object", "additionalProperties": _DESIGN},
                   "report": {"type": "object"}},
}


class ScenarioError(ValueError):
    pass


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def fingerprint(doc) -> str:
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()


def _check_schema(doc, schema: dict, root: str = "$"):
    """Raise ScenarioError naming the JSON path of the first violation; root
    is the path of doc inside its file."""
    errors = sorted(Draft202012Validator(schema).iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise ScenarioError(f"schema violation at {root}{e.json_path[1:]}: {e.message}")


def validate_scenario(doc: dict, root: str = "$"):
    """Schema check with JSON-path diagnostics, then shape consistency; root
    is the path of doc inside its file."""
    _check_schema(doc, SCENARIO_SCHEMA, root)
    ids = [str(s["id"]) for s in doc["subsystems"]]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"schema violation at {root}.subsystems: ids are not unique")
    dims = {}
    for idx, s in enumerate(doc["subsystems"]):
        path = f"{root}.subsystems[{idx}]"
        A = np.asarray(s["A"], dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ScenarioError(f"ill-shaped matrix at {path}.A: expected square")
        n = A.shape[0]
        B = np.asarray(s["B"], dtype=float)
        if B.ndim != 2 or B.shape[0] != n:
            raise ScenarioError(f"ill-shaped matrix at {path}.B: {B.shape} does not match n={n}")
        for key in ("X", "U"):
            C = np.asarray(s[key]["C"], dtype=float)
            d = np.asarray(s[key]["d"], dtype=float)
            want = n if key == "X" else B.shape[1]
            if C.ndim != 2 or C.shape[1] != want or C.shape[0] != d.shape[0]:
                raise ScenarioError(f"ill-shaped matrix at {path}.{key}: C is {C.shape}, "
                                    f"d has {d.shape[0]} rows, expected width {want}")
        dims[str(s["id"])] = (n, B.shape[1])
    for idx, c in enumerate(doc["couplings"]):
        path = f"{root}.couplings[{idx}]"
        src, dst = str(c["from"]), str(c["to"])
        if src not in dims or dst not in dims:
            raise ScenarioError(f"unknown subsystem reference at {path}")
        A = np.asarray(c["A"], dtype=float)
        if A.shape != (dims[dst][0], dims[src][0]):
            raise ScenarioError(f"ill-shaped matrix at {path}.A: {A.shape}, "
                                f"expected ({dims[dst][0]}, {dims[src][0]})")
    for sid, x0 in doc["simulation"]["x0"].items():
        if str(sid) not in dims:
            raise ScenarioError(f"unknown subsystem at {root}.simulation.x0.{sid}")
        if len(x0) != dims[str(sid)][0]:
            raise ScenarioError(f"ill-shaped vector at {root}.simulation.x0.{sid}")


@dataclass
class Scenario:
    doc: dict
    network: Network
    ts: float

    @property
    def name(self) -> str:
        return self.doc["name"]

    def fingerprint(self) -> str:
        return fingerprint(self.doc)

    def _controller_doc(self, sid: str) -> dict:
        """Scenario-wide controller settings, overridden by the subsystem's own."""
        merged = dict(self.doc.get("controller", {}))
        for s in self.doc["subsystems"]:
            if str(s["id"]) == sid and "controller" in s:
                merged.update(s["controller"])
        return merged

    def controller_config(self, sid: str) -> MpcConfig:
        merged = self._controller_doc(sid)
        terminal = merged.get("terminal", "zero")
        if terminal == "zero":
            term = TerminalData()
        else:
            verts = terminal.get("Xf_vertices")
            term = TerminalData(mode="custom", S=terminal["S"], K_aux=terminal["K"],
                                Xf=HPolytope(terminal["Xf"]["C"], terminal["Xf"]["d"]),
                                xf_vertices=None if verts is None else VPolytope(verts))
        return MpcConfig(N=merged.get("horizon", 10), Q=merged.get("Q"), R=merged.get("R"),
                         terminal=term, mode=merged.get("mode", "decentralized"),
                         cost=merged.get("cost", "quadratic"))

    def resolved_configs(self) -> dict:
        """Every subsystem's controller settings, with default weights filled in."""
        return {i: self.controller_config(i).resolved(sub.n, sub.m)
                for i, sub in self.network.subsystems.items()}

    def rci_config(self, sid: str) -> RciConfig:
        merged = self._controller_doc(sid)
        return RciConfig(k=merged.get("k"), omega=merged.get("omega"),
                         minimize_alpha=merged.get("minimize_alpha", False))

    def sim_config(self, mode: str | None = None, record_failure: bool = False) -> SimConfig:
        simdoc = self.doc["simulation"]
        loads = [LoadStep(str(ls["id"]), int(ls["time"]), float(ls["value"]))
                 for ls in simdoc.get("loads", [])]
        return SimConfig(T=int(simdoc["T"]),
                         x0={str(k): np.asarray(v, dtype=float) for k, v in simdoc["x0"].items()},
                         mode=mode or simdoc.get("mode", "decentralized"),
                         loads=loads, seed=int(simdoc.get("seed", 0)),
                         record_failure=record_failure)


def scenario_from_dict(doc: dict, root: str = "$") -> Scenario:
    validate_scenario(doc, root)
    try:
        subs = []
        for s in doc["subsystems"]:
            verts = s["X"].get("vertices")
            subs.append(Subsystem(
                str(s["id"]), s["A"], s["B"],
                HPolytope(s["X"]["C"], s["X"]["d"]),
                HPolytope(s["U"]["C"], s["U"]["d"]),
                x_vertices=None if verts is None else VPolytope(verts),
                L=s.get("L"),
                setpoint_state_gain=s.get("setpoint_state_gain"),
                setpoint_input_gain=s.get("setpoint_input_gain")))
        coups = [Coupling(str(c["from"]), str(c["to"]), c["A"]) for c in doc["couplings"]]
        net = Network(subs, coups)
    except (ModelError, GeometryError) as e:
        raise ScenarioError(str(e)) from e
    return Scenario(doc=doc, network=net, ts=float(doc["sampling_time"]))


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        doc = json.load(fh)
    return scenario_from_dict(doc)


# ----------------------------------------------------------------- bundle i/o

def _design_to_dict(ctrl: TubeController) -> dict:
    rci = ctrl.rci
    return {
        "alpha": rci.alpha,
        "k": rci.k,
        "q": rci.q,
        "omega": rci.omega,
        "z_blocks": [b.tolist() for b in rci.z_blocks],
        "u_blocks": [b.tolist() for b in rci.u_blocks],
        "z_terminal": rci.z_terminal.tolist(),
        "rho": rci.rho.tolist(),
        "w_blocks": [b.vertices.tolist() for b in rci.w_set.blocks],
        "w_sigma": rci.w_set.sigma,
        "Xhat": {"C": ctrl.Xhat.C.tolist(), "d": ctrl.Xhat.d.tolist()},
        "V": {"C": ctrl.V.C.tolist(), "d": ctrl.V.d.tolist()},
    }


def _design_from_dict(sub: Subsystem, doc: dict, cfg: MpcConfig) -> TubeController:
    z_blocks = [np.asarray(b, dtype=float) for b in doc["z_blocks"]]
    u_blocks = [np.asarray(b, dtype=float) for b in doc["u_blocks"]]
    rci = RciDesign(sub.id, float(doc["alpha"]), int(doc["k"]), int(doc["q"]),
                    float(doc["omega"]), z_blocks, u_blocks,
                    VPolytope(z_blocks[0]),
                    VAggregate([VPolytope(b) for b in doc["w_blocks"]], doc["w_sigma"]),
                    np.asarray(doc["z_terminal"], dtype=float),
                    np.asarray(doc["rho"], dtype=float), sub.A.copy(), sub.B.copy())
    return TubeController(sub, rci,
                          HPolytope(doc["Xhat"]["C"], doc["Xhat"]["d"]),
                          HPolytope(doc["V"]["C"], doc["V"]["d"]),
                          cfg.resolved(sub.n, sub.m))


def bundle_to_dict(scenario: Scenario, controllers: dict, report: dict) -> dict:
    return {
        "version": 1,
        "scenario_fingerprint": scenario.fingerprint(),
        "scenario": scenario.doc,
        "controllers": {i: _design_to_dict(c) for i, c in sorted(controllers.items())},
        "report": report,
    }


def save_bundle(path, scenario: Scenario, controllers: dict, report: dict):
    with open(path, "w") as fh:
        json.dump(bundle_to_dict(scenario, controllers, report), fh, sort_keys=True, indent=1)


def load_bundle(path) -> tuple[Scenario, dict, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    _check_schema(doc, BUNDLE_SCHEMA)
    scenario = scenario_from_dict(doc["scenario"], "$.scenario")
    if fingerprint(doc["scenario"]) != doc["scenario_fingerprint"]:
        raise ScenarioError("bundle fingerprint does not match its embedded scenario")
    controllers = {}
    for i, cdoc in doc["controllers"].items():
        sub = scenario.network.subsystems.get(i)
        if sub is None:
            raise ScenarioError(f"unknown subsystem at $.controllers.{i}")
        try:
            controllers[i] = _design_from_dict(sub, cdoc, scenario.controller_config(i))
        except (ValueError, IndexError, TypeError) as e:
            raise ScenarioError(f"malformed design at $.controllers.{i}: {e}") from e
    return scenario, controllers, doc.get("report", {})


# ------------------------------------------------------------------- commands

def _thread_count() -> int:
    return max(1, int(os.environ.get("TUBENET_THREADS", "1")))


def design_scenario(scenario: Scenario, overrides: dict | None = None):
    """Design every controller; returns (controllers, report, failures)."""
    overrides = overrides or {}
    from .controller import design_controller
    from .model import disturbance_set

    def one(i):
        t0 = time.perf_counter()
        rci_cfg = scenario.rci_config(i)
        for key, value in overrides.items():
            setattr(rci_cfg, key, value)
        result = design_controller(scenario.network.subsystems[i],
                                   disturbance_set(scenario.network, i),
                                   rci_cfg, scenario.controller_config(i))
        return i, result, time.perf_counter() - t0

    ids = scenario.network.ids
    workers = _thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, ids))
    else:
        results = [one(i) for i in ids]

    controllers, failures = {}, {}
    report = {"subsystems": {}, "threads": workers, "blas_threads": blas_threads()}
    for i, result, elapsed in results:
        if isinstance(result, DesignFailure):
            failures[i] = result
            report["subsystems"][i] = {"status": "failed", "reason": result.reason,
                                       "attempted_k": result.attempted_k,
                                       "design_time": elapsed}
            continue
        controllers[i] = result
        sub = scenario.network.subsystems[i]
        sx, su = result.rci.inclusion_slacks(sub.X, sub.U)
        norms_x = np.linalg.norm(sub.X.C, axis=1)
        norms_u = np.linalg.norm(sub.U.C, axis=1)
        structure = structural_report(result.rci)
        report["subsystems"][i] = {
            "status": "ok",
            "alpha": result.rci.alpha,
            "k": result.rci.k,
            "q": result.rci.q,
            "omega": result.rci.omega,
            "design_time": elapsed,
            # margins of the strict inclusions, as per-facet ball radii
            "state_margin": float((sx / norms_x).min()),
            "input_margin": float((su / norms_u).min()),
            "chain_residual": structure["chain_residual"],
            "fold_residual": structure["fold_residual"],
        }
    return controllers, report, failures


def cmd_design(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    overrides = {}
    if args.k is not None:
        overrides["k"] = args.k
    if args.omega is not None:
        overrides["omega"] = args.omega
    if args.minimize_alpha:
        overrides["minimize_alpha"] = True
    controllers, report, failures = design_scenario(scenario, overrides)
    if failures:
        for i, f in failures.items():
            print(f"design failed for subsystem {i}: {f.reason} "
                  f"(attempted k: {f.attempted_k})", file=sys.stderr)
        return EXIT_DESIGN
    save_bundle(args.out, scenario, controllers, report)
    for i in scenario.network.ids:
        info = report["subsystems"][i]
        print(f"subsystem {i}: alpha={info['alpha']:.6f} k={info['k']} "
              f"q={info['q']} time={info['design_time']:.2f}s")
    print(f"bundle written to {args.out}")
    return EXIT_OK


def _check_bundle_matches(scenario: Scenario, bundle_path) -> tuple:
    bundle_scenario, controllers, report = load_bundle(bundle_path)
    if bundle_scenario.fingerprint() != scenario.fingerprint():
        raise ScenarioError("bundle was designed for a different scenario "
                            "(fingerprint mismatch)")
    return controllers, report


def cmd_simulate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if args.naive:
            controllers = {i: NaiveMpc(scenario.network.subsystems[i], N=cfg.N, Q=cfg.Q, R=cfg.R)
                           for i, cfg in scenario.resolved_configs().items()}
        else:
            if args.bundle is None:
                raise ScenarioError("a bundle is required unless --naive is given")
            controllers, _ = _check_bundle_matches(scenario, args.bundle)
    except (ScenarioError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    cfg = scenario.sim_config(mode=args.mode, record_failure=True)
    trace = run(scenario.network, controllers, cfg)
    if args.trace:
        trace.to_json(args.trace)
    if args.csv:
        trace.to_csv(args.csv)
    if args.metrics:
        _write_metrics(trace, scenario, args.metrics)
    if trace.infeasible_at is not None:
        where = f"at t={trace.infeasible_at}: subsystem {trace.infeasible_id}"
        if trace.infeasible_status != STATUS_INFEASIBLE:
            print(f"numerical failure {where} (solver status {trace.infeasible_status})",
                  file=sys.stderr)
            code = EXIT_NUMERICAL
        else:
            sub = scenario.network.subsystems[trace.infeasible_id]
            x = np.asarray(trace.data[trace.infeasible_id]["x"][-1])
            state_bad = not sub.X.contains(x, tol=1e-7)
            detail = ("state constraints violated" if state_bad else "optimization infeasible")
            print(f"infeasible {where} ({detail})", file=sys.stderr)
            code = EXIT_INFEASIBLE
        if not args.record_failure:
            return code
    print(f"simulated {trace.steps} steps, mode={cfg.mode}")
    return EXIT_OK


def _write_metrics(trace: SimTrace, scenario: Scenario, path):
    cfgs = scenario.resolved_configs()
    compute_metrics(trace, scenario.network, Q={i: c.Q for i, c in cfgs.items()},
                    R={i: c.R for i, c in cfgs.items()}, tie_gains=_tie_gains(scenario),
                    ts=scenario.ts).to_json(path)


def _tie_gains(scenario: Scenario) -> dict:
    """Angle-to-angle coupling strengths, when the model carries them."""
    gains = {}
    for c in scenario.network.couplings:
        g = float(np.abs(c.A[:, 0]).sum())
        if g > 0 and c.A.shape[0] > 1:
            gains[(c.dst, c.src)] = g
    return gains


def _load_delta(path, schema: dict) -> dict:
    with open(path) as fh:
        delta = json.load(fh)
    _check_schema(delta, schema)
    return delta


def cmd_plug(args) -> int:
    try:
        delta = _load_delta(args.delta, PLUG_SCHEMA)
        scenario, controllers, _ = load_bundle(args.bundle)
        sdoc = dict(delta["add_subsystem"])
        if "controller" in delta:
            sdoc["controller"] = {**sdoc.get("controller", {}), **delta["controller"]}
        new_scenario = scenario_from_dict(_scenario_doc_with(
            scenario.doc, sdoc, delta.get("couplings", []), delta.get("x0")))
    except (ScenarioError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    new_id = str(sdoc["id"])
    new_net = new_scenario.network
    tx = plug_in(scenario.network, controllers, new_net.subsystems[new_id],
                 new_net.couplings[len(scenario.network.couplings):],
                 new_scenario.controller_config(new_id), new_scenario.rci_config(new_id))
    print(json.dumps({"operation": tx.operation, "target": tx.target,
                      "status": tx.status, "reason": tx.reason,
                      "redesigned": tx.redesign_set if tx.committed else [],
                      "outcomes": tx.outcomes}, indent=1))
    if not tx.committed:
        return EXIT_DESIGN
    save_bundle(args.out, new_scenario, tx.controllers,
                {"transaction": {"operation": "plug", "target": tx.target,
                                 "outcomes": tx.outcomes}})
    print(f"bundle written to {args.out}")
    return EXIT_OK


def _scenario_doc_with(doc: dict, new_sub: dict, new_coups: list, x0=None) -> dict:
    out = json.loads(json.dumps(doc))
    out["subsystems"].append(new_sub)
    out["couplings"].extend(new_coups)
    out["simulation"]["x0"][str(new_sub["id"])] = (
        x0 if x0 is not None else [0.0] * len(new_sub["A"]))
    return out


def _scenario_doc_without(doc: dict, target: str, overrides: dict) -> dict:
    out = json.loads(json.dumps(doc))
    out["subsystems"] = [s for s in out["subsystems"] if str(s["id"]) != target]
    for s in out["subsystems"]:
        if str(s["id"]) in overrides:
            s["A"] = np.asarray(overrides[str(s["id"])], dtype=float).tolist()
    out["couplings"] = [c for c in out["couplings"]
                        if str(c["from"]) != target and str(c["to"]) != target]
    out["simulation"]["x0"].pop(target, None)
    out["simulation"]["loads"] = [ls for ls in out["simulation"].get("loads", [])
                                  if str(ls["id"]) != target]
    return out


def cmd_unplug(args) -> int:
    try:
        delta = _load_delta(args.delta, UNPLUG_SCHEMA)
        scenario, controllers, _ = load_bundle(args.bundle)
        for sid, A in delta.get("A_overrides", {}).items():
            sub = scenario.network.subsystems.get(sid)
            if sub is not None and np.shape(A) != sub.A.shape:
                raise ScenarioError(f"ill-shaped matrix at $.A_overrides.{sid}: "
                                    f"{np.shape(A)}, expected {sub.A.shape}")
    except (ScenarioError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    target = str(delta["remove_subsystem"])
    overrides = delta.get("A_overrides", {})
    tx = unplug(scenario.network, controllers, target, policy=args.policy,
                dynamics_overrides=overrides)
    print(json.dumps({"operation": tx.operation, "target": tx.target,
                      "status": tx.status, "reason": tx.reason,
                      "redesigned": tx.redesign_set if tx.committed else [],
                      "outcomes": tx.outcomes}, indent=1))
    if not tx.committed:
        return EXIT_DESIGN
    new_scenario = scenario_from_dict(_scenario_doc_without(scenario.doc, target, overrides))
    save_bundle(args.out, new_scenario, tx.controllers,
                {"transaction": {"operation": "unplug", "target": target,
                                 "policy": args.policy, "outcomes": tx.outcomes}})
    print(f"bundle written to {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        scenario, controllers, _ = load_bundle(args.bundle)
    except (ScenarioError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    report = {}
    all_pass = True
    for i, ctrl in sorted(controllers.items()):
        checks = run_all_checks(ctrl, n_samples=args.samples, seed=args.seed)
        report[i] = checks
        for chk in checks:
            all_pass &= bool(chk["passed"])
            verdict = "skipped" if "skipped" in chk else "pass" if chk["passed"] else "FAIL"
            print(f"subsystem {i}: {chk['name']}: {verdict}")
    doc = {"passed": all_pass, "samples": args.samples, "seed": args.seed,
           "subsystems": report}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, default=float)
    return EXIT_OK


def cmd_export(args) -> int:
    try:
        trace = SimTrace.from_json(args.trace)
        scenario, _, _ = load_bundle(args.bundle)
    except (ScenarioError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.csv:
        trace.to_csv(args.csv)
        print(f"trace csv written to {args.csv}")
    if args.metrics:
        _write_metrics(trace, scenario, args.metrics)
        print(f"metrics written to {args.metrics}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tubenet",
                                description="Design and simulate plug-and-play tube "
                                            "controllers for coupled linear subsystems.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="design all controllers for a scenario")
    d.add_argument("scenario")
    d.add_argument("-o", "--out", required=True)
    d.add_argument("--k", type=int, default=None, help="override the step count")
    d.add_argument("--omega", type=float, default=None, help="override the seed inflation")
    d.add_argument("--minimize-alpha", action="store_true", dest="minimize_alpha")
    d.set_defaults(func=cmd_design)

    s = sub.add_parser("simulate", help="run the closed loop from a designed bundle")
    s.add_argument("scenario")
    s.add_argument("bundle", nargs="?", default=None)
    s.add_argument("--mode", choices=["decentralized", "distributed"], default=None)
    s.add_argument("--record-failure", action="store_true", dest="record_failure")
    s.add_argument("--naive", action="store_true",
                   help="coupling-blind baseline controller instead of the bundle")
    s.add_argument("--csv", default=None)
    s.add_argument("--metrics", default=None)
    s.add_argument("--trace", default=None)
    s.set_defaults(func=cmd_simulate)

    pl = sub.add_parser("plug", help="add a subsystem (delta file) to a bundle")
    pl.add_argument("delta")
    pl.add_argument("bundle")
    pl.add_argument("-o", "--out", required=True)
    pl.set_defaults(func=cmd_plug)

    up = sub.add_parser("unplug", help="remove a subsystem (delta file) from a bundle")
    up.add_argument("delta")
    up.add_argument("bundle")
    up.add_argument("-o", "--out", required=True)
    up.add_argument("--policy", choices=["none", "performance"], default="none")
    up.set_defaults(func=cmd_unplug)

    c = sub.add_parser("check", help="run the design certificates on a bundle")
    c.add_argument("bundle")
    c.add_argument("--samples", type=int, default=1000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("-o", "--out", default=None)
    c.set_defaults(func=cmd_check)

    e = sub.add_parser("export", help="re-emit CSV/metrics from a saved trace")
    e.add_argument("trace")
    e.add_argument("bundle")
    e.add_argument("--csv", default=None)
    e.add_argument("--metrics", default=None)
    e.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
