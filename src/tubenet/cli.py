"""Scenario ingestion, design-bundle persistence and the command surface.

Scenario and bundle files are JSON; traces export to CSV plus a JSON metrics
document. Every matrix and vector of a scenario, a delta or a bundle's design
is checked in one pass: a rectangular array of finite JSON numbers (never a
boolean, string or null). A fault in a scenario (load steps included), in a
plug or unplug delta or in a bundle exits 1 naming its JSON path; so does a
file that cannot be read or written. Bundles are compact, key-sorted JSON.
Design settings come from the scenario file alone (a bundle's from its
embedded scenario); the online law is the run's: `simulate --mode`, else
`simulation.mode`, else the scenario-wide `controller.mode`.
Exit codes: 0 ok, 1 usage or input error, 2 design failure (for `check`,
a failed certificate), 3 runtime infeasibility, 4 numerical failure of an
online solve.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np
from jsonschema import Draft202012Validator, ValidationError, validators

from .controller import MpcConfig, TerminalData, TubeController, design_controller
from .geometry import GeometryError, HPolytope, VAggregate, VPolytope
from .model import (Coupling, ModelError, Network, NotControllableError, Subsystem,
                    controllability_index, disturbance_set)
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

#: "numbers": the array's levels; see _numbers
_MATRIX = {"type": "array", "numbers": 2}
_VECTOR = {"type": "array", "numbers": 1}
_POLY = {
    "type": "object",
    "required": ["C", "d"],
    "properties": {"C": _MATRIX, "d": _VECTOR, "vertices": _MATRIX},
}
#: a subsystem's own controller block: no mode, the online law is the run's
_OWN_CONTROLLER = {
    "type": "object",
    "properties": {
        "horizon": {"type": "integer", "minimum": 1},
        "Q": _MATRIX,
        "R": _MATRIX,
        "terminal": {"anyOf": [{"const": "zero"},
                               {"type": "object", "required": ["S", "K", "Xf"],
                                "properties": {"S": _MATRIX, "K": _MATRIX, "Xf": _POLY,
                                               "Xf_vertices": _MATRIX}}]},
        "cost": {"enum": ["quadratic", "l1"]},
        "k": {"type": "integer", "minimum": 1},
        "omega": {"type": "number", "exclusiveMinimum": 0},
        "minimize_alpha": {"type": "boolean"},
    },
    "additionalProperties": False,
}
_MODE = {"enum": ["decentralized", "distributed"]}
_CONTROLLER = {**_OWN_CONTROLLER, "properties": {**_OWN_CONTROLLER["properties"], "mode": _MODE}}

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
        "controller": _OWN_CONTROLLER,
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
                "mode": _MODE,
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
        "controller": _OWN_CONTROLLER,
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
#: is ingested) and one solved design per subsystem; each block of a list is
#: a matrix of its own, so w_blocks may differ in size from block to block
_BLOCKS = {"type": "array", "items": _MATRIX}
_NUMBER, _INTEGER = {"type": "number"}, {"type": "integer"}
_DESIGN = {
    "type": "object",
    "required": ["alpha", "k", "q", "omega", "z_blocks", "u_blocks", "z_terminal", "rho",
                 "w_blocks", "w_sigma", "Xhat", "V"],
    "properties": {"alpha": _NUMBER, "k": _INTEGER, "q": _INTEGER, "omega": _NUMBER,
                   "z_blocks": _BLOCKS, "u_blocks": _BLOCKS, "z_terminal": _MATRIX,
                   "rho": _MATRIX, "w_blocks": _BLOCKS, "w_sigma": _NUMBER,
                   "Xhat": _POLY, "V": _POLY},
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


_NUMBER_TYPES = {int, float}
_FLOAT_MAX = sys.float_info.max


def _is_numeric_array(x: list, ndim: int) -> bool:
    """Whether x is a rectangular array of ndim levels of finite JSON numbers;
    bools fail, although numpy would read them as ints."""
    leaves = x
    for _ in range(ndim - 1):
        if not all(type(row) is list for row in leaves):
            return False
        leaves = list(chain.from_iterable(leaves))
    if not _NUMBER_TYPES.issuperset(map(type, leaves)):
        return False
    try:
        values = np.array(x, dtype=float)
    except (ValueError, OverflowError):  # ragged rows; an int beyond float range
        return False
    return values.ndim == ndim and bool(np.isfinite(values).all())


def _misfit(x, ndim: int, path: tuple = ()) -> ValidationError | None:
    """The first entry of x, ndim levels down, that is not a finite number,
    as an error at its path relative to x."""
    if ndim == 0:
        if type(x) not in _NUMBER_TYPES:
            return ValidationError(f"{x!r} is not of type 'number'", path=path)
        if not -_FLOAT_MAX <= x <= _FLOAT_MAX:
            return ValidationError(f"{x!r} is not a finite number", path=path)
        return None
    if type(x) is not list:
        return ValidationError(f"{x!r} is not of type 'array'", path=path)
    for i, v in enumerate(x):
        error = _misfit(v, ndim - 1, (*path, i))
        if error is not None:
            return error
    return None


def _numbers(validator, ndim, instance, schema):
    """Keyword "numbers": a rectangular array of ndim levels of finite JSON
    numbers, checked in one pass where jsonschema would walk every entry;
    the first faulty entry is named at its own path."""
    if type(instance) is list and not _is_numeric_array(instance, ndim):
        yield _misfit(instance, ndim) or ValidationError(
            f"not a rectangular array of {ndim} levels")


_Validator = validators.extend(Draft202012Validator, {"numbers": _numbers})


def _check_schema(doc, schema: dict, root: str = "$"):
    """Raise ScenarioError naming the JSON path of the first violation; root
    is the path of doc inside its file."""
    errors = sorted(_Validator(schema).iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise ScenarioError(f"schema violation at {root}{e.json_path[1:]}: {e.message}")


def _check_weights(settings: dict, path: str, n: int | None = None, m: int | None = None):
    """The weights Q and R of one controller block must be symmetric positive
    definite, the standing assumption of tube MPC, and n x n and m x m where
    the subsystem is known."""
    for key, dim in (("Q", n), ("R", m)):
        if key not in settings:
            continue
        W = np.asarray(settings[key], dtype=float)
        if W.shape[0] != W.shape[1] or dim not in (None, W.shape[0]):
            raise ScenarioError(f"ill-shaped matrix at {path}.{key}: {W.shape}, "
                                f"expected a square matrix of size {dim}")
        if np.abs(W - W.T).max(initial=0.0) > 1e-10 or not np.linalg.eigvalsh(W).min() > 0.0:
            raise ScenarioError(f"weight at {path}.{key} is not symmetric positive definite")


def _check_subsystem(s: dict, path: str) -> tuple[int, int]:
    """Shapes, bounded X and U and the own controller weights of one
    subsystem entry at path; returns its (n, m)."""
    A = np.asarray(s["A"], dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ScenarioError(f"ill-shaped matrix at {path}.A: expected square")
    n = A.shape[0]
    B = np.asarray(s["B"], dtype=float)
    if B.shape[0] != n:
        raise ScenarioError(f"ill-shaped matrix at {path}.B: {B.shape} does not match n={n}")
    for key in ("X", "U"):
        C = np.asarray(s[key]["C"], dtype=float)
        d = np.asarray(s[key]["d"], dtype=float)
        want = n if key == "X" else B.shape[1]
        if C.shape[1] != want or C.shape[0] != d.shape[0]:
            raise ScenarioError(f"ill-shaped matrix at {path}.{key}: C is {C.shape}, "
                                f"d has {d.shape[0]} rows, expected width {want}")
        try:
            bounded = HPolytope(C, d).is_bounded()
        except GeometryError as e:
            raise ScenarioError(f"invalid set at {path}.{key}: {e}") from e
        if not bounded:
            raise ScenarioError(f"unbounded set at {path}.{key}: some direction "
                                "meets no row of C")
    _check_weights(s.get("controller", {}), f"{path}.controller", n, B.shape[1])
    return n, B.shape[1]


def _check_coupling(c: dict, path: str, dims: dict):
    """A coupling entry at path joins known subsystems with an A of the
    right shape; dims maps ids to (n, m)."""
    src, dst = str(c["from"]), str(c["to"])
    if src not in dims or dst not in dims:
        raise ScenarioError(f"unknown subsystem reference at {path}")
    A = np.asarray(c["A"], dtype=float)
    if A.shape != (dims[dst][0], dims[src][0]):
        raise ScenarioError(f"ill-shaped matrix at {path}.A: {A.shape}, "
                            f"expected ({dims[dst][0]}, {dims[src][0]})")


def validate_scenario(doc: dict, root: str = "$"):
    """Schema check with JSON-path diagnostics, then shape consistency; root
    is the path of doc inside its file."""
    _check_schema(doc, SCENARIO_SCHEMA, root)
    ids = [str(s["id"]) for s in doc["subsystems"]]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"schema violation at {root}.subsystems: ids are not unique")
    dims = {}
    for idx, s in enumerate(doc["subsystems"]):
        n, m = _check_subsystem(s, f"{root}.subsystems[{idx}]")
        own = s.get("controller", {})
        _check_weights({k: v for k, v in doc["controller"].items() if k not in own},
                       f"{root}.controller", n, m)
        dims[str(s["id"])] = (n, m)
    for idx, c in enumerate(doc["couplings"]):
        _check_coupling(c, f"{root}.couplings[{idx}]", dims)
    for sid, x0 in doc["simulation"]["x0"].items():
        if str(sid) not in dims:
            raise ScenarioError(f"unknown subsystem at {root}.simulation.x0.{sid}")
        if len(x0) != dims[str(sid)][0]:
            raise ScenarioError(f"ill-shaped vector at {root}.simulation.x0.{sid}")
    for idx, ls in enumerate(doc["simulation"].get("loads", [])):
        if str(ls["id"]) not in dims:
            raise ScenarioError(f"unknown subsystem at {root}.simulation.loads[{idx}].id")
        if ls["time"] >= doc["simulation"]["T"]:
            raise ScenarioError(f"load step outside [0, T) at {root}.simulation.loads[{idx}].time")


@dataclass
class Scenario:
    doc: dict
    network: Network
    ts: float

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
        """The run's settings; the online law is mode, else the scenario's."""
        simdoc = self.doc["simulation"]
        loads = [LoadStep(str(ls["id"]), int(ls["time"]), float(ls["value"]))
                 for ls in simdoc.get("loads", [])]
        mode = mode or simdoc.get("mode") or self.doc["controller"].get("mode", "decentralized")
        return SimConfig(T=int(simdoc["T"]),
                         x0={str(k): np.asarray(v, dtype=float) for k, v in simdoc["x0"].items()},
                         mode=mode, loads=loads, record_failure=record_failure)


def _model_of(subsystems: list, couplings: list, paths: list) -> tuple[list, list]:
    """The Subsystem and Coupling objects of checked scenario or delta
    entries; a subsystem the model rejects (an uncontrollable pair) is named
    at its entry's JSON path in paths."""
    subs = []
    for s, path in zip(subsystems, paths):
        try:
            subs.append(Subsystem(str(s["id"]), s["A"], s["B"],
                                  HPolytope(s["X"]["C"], s["X"]["d"]),
                                  HPolytope(s["U"]["C"], s["U"]["d"]),
                                  x_vertices=None if "vertices" not in s["X"]
                                  else VPolytope(s["X"]["vertices"]),
                                  L=s.get("L"),
                                  setpoint_state_gain=s.get("setpoint_state_gain"),
                                  setpoint_input_gain=s.get("setpoint_input_gain")))
        except (ModelError, GeometryError) as e:
            raise ScenarioError(f"invalid subsystem at {path}: {e}") from e
    try:
        return subs, [Coupling(str(c["from"]), str(c["to"]), c["A"]) for c in couplings]
    except (ModelError, GeometryError) as e:
        raise ScenarioError(str(e)) from e


def scenario_from_dict(doc: dict, root: str = "$") -> Scenario:
    validate_scenario(doc, root)
    paths = [f"{root}.subsystems[{i}]" for i in range(len(doc["subsystems"]))]
    net = Network(*_model_of(doc["subsystems"], doc["couplings"], paths))  # ids and links checked
    return Scenario(doc=doc, network=net, ts=float(doc["sampling_time"]))


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


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


def _design_from_dict(sub: Subsystem, doc: dict, cfg: MpcConfig,
                      rci_cfg: RciConfig) -> TubeController:
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
                          cfg.resolved(sub.n, sub.m), rci_cfg)


def bundle_to_dict(scenario: Scenario, controllers: dict, report: dict) -> dict:
    return {
        "version": 1,
        "scenario_fingerprint": scenario.fingerprint(),
        "scenario": scenario.doc,
        "controllers": {i: _design_to_dict(c) for i, c in sorted(controllers.items())},
        "report": report,
    }


def save_bundle(path, scenario: Scenario, controllers: dict, report: dict):
    # json.dumps with no indent runs the C encoder; json.dump to a file never does
    with open(path, "w") as fh:
        fh.write(_canonical(bundle_to_dict(scenario, controllers, report)))


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
            controllers[i] = _design_from_dict(sub, cdoc, scenario.controller_config(i),
                                               scenario.rci_config(i))
        except (ValueError, IndexError, TypeError) as e:
            raise ScenarioError(f"malformed design at $.controllers.{i}: {e}") from e
    return scenario, controllers, doc.get("report", {})


# ------------------------------------------------------------------- commands

def design_scenario(scenario: Scenario):
    """Design every controller; returns (controllers, report, failures)."""

    def one(i):
        t0 = time.perf_counter()
        result = design_controller(scenario.network.subsystems[i],
                                   disturbance_set(scenario.network, i),
                                   scenario.rci_config(i), scenario.controller_config(i))
        return i, result, time.perf_counter() - t0

    controllers, failures = {}, {}
    report = {"subsystems": {}, "blas_threads": blas_threads()}
    for i, result, elapsed in map(one, scenario.network.ids):
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
    scenario = load_scenario(args.scenario)
    controllers, report, failures = design_scenario(scenario)
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
    scenario = load_scenario(args.scenario)
    if args.naive:
        controllers = {i: NaiveMpc(scenario.network.subsystems[i], N=cfg.N, Q=cfg.Q, R=cfg.R)
                       for i, cfg in scenario.resolved_configs().items()}
    else:
        if args.bundle is None:
            raise ScenarioError("a bundle is required unless --naive is given")
        controllers, _ = _check_bundle_matches(scenario, args.bundle)
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
    print(f"simulated {trace.completed} steps, mode={cfg.mode}")
    return EXIT_OK


def _write_metrics(trace: SimTrace, scenario: Scenario, path) -> bool:
    """Metrics over the steps every subsystem completed; none (False) when
    the first step failed."""
    if trace.completed == 0:
        print(f"no step completed: metrics not written to {path}", file=sys.stderr)
        return False
    cfgs = scenario.resolved_configs()
    compute_metrics(trace, scenario.network, Q={i: c.Q for i, c in cfgs.items()},
                    R={i: c.R for i, c in cfgs.items()}, tie_gains=_tie_gains(scenario),
                    ts=scenario.ts).to_json(path)
    return True


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
    delta = _load_delta(args.delta, PLUG_SCHEMA)
    scenario, controllers, _ = load_bundle(args.bundle)
    _check_plug_delta(delta, scenario)
    # the settings are read off the document alone; the network is the transaction's
    plugged = Scenario(_scenario_doc_with(scenario.doc, delta), scenario.network, scenario.ts)
    (sub,), coups = _model_of(plugged.doc["subsystems"][-1:], delta.get("couplings", []),
                              ["$.add_subsystem"])
    tx = plug_in(scenario.network, controllers, sub, coups,
                 plugged.controller_config(sub.id), plugged.rci_config(sub.id))
    return _report_transaction(tx, plugged.doc, scenario.ts, args.out)


def _check_plug_delta(delta: dict, scenario: Scenario):
    """Check a plug delta against the bundle's scenario, naming faults at
    the delta's own JSON paths; weights the new subsystem inherits from the
    scenario are named at the bundle's $.scenario.controller."""
    sub = delta["add_subsystem"]
    new_id = str(sub["id"])
    if new_id in scenario.network.subsystems:
        raise ScenarioError(f"schema violation at $.add_subsystem.id: {new_id!r} is in use")
    n, m = _check_subsystem(sub, "$.add_subsystem")
    weights = delta.get("controller", {})
    _check_weights(weights, "$.controller", n, m)
    own = {**sub.get("controller", {}), **weights}
    _check_weights({k: v for k, v in scenario.doc["controller"].items() if k not in own},
                   "$.scenario.controller", n, m)
    dims = {i: (s.n, s.m) for i, s in scenario.network.subsystems.items()}
    dims[new_id] = (n, m)
    for idx, c in enumerate(delta.get("couplings", [])):
        _check_coupling(c, f"$.couplings[{idx}]", dims)
    if "x0" in delta and len(delta["x0"]) != n:
        raise ScenarioError(f"ill-shaped vector at $.x0: expected length {n}")


def _check_unplug_delta(delta: dict, scenario: Scenario) -> tuple[str, dict]:
    """Check an unplug delta at its own JSON paths; returns target and overrides."""
    subs = scenario.network.subsystems
    target = str(delta["remove_subsystem"])
    if target not in subs:
        raise ScenarioError(f"unknown subsystem at $.remove_subsystem: {target!r}")
    for sid, A in delta.get("A_overrides", {}).items():
        if sid not in subs or sid == target:
            raise ScenarioError(f"no retained subsystem at $.A_overrides.{sid}")
        if np.shape(A) != subs[sid].A.shape:
            raise ScenarioError(f"ill-shaped matrix at $.A_overrides.{sid}: "
                                f"{np.shape(A)}, expected {subs[sid].A.shape}")
        try:
            controllability_index(A, subs[sid].B)
        except NotControllableError as e:
            raise ScenarioError(f"uncontrollable override at $.A_overrides.{sid}: {e}") from e
    return target, delta.get("A_overrides", {})


def _scenario_doc_with(doc: dict, delta: dict) -> dict:
    """doc plus the plug delta's subsystem (with its settings), couplings and x0."""
    out = json.loads(json.dumps(doc))
    sub = dict(delta["add_subsystem"])
    if "controller" in delta:
        sub["controller"] = {**sub.get("controller", {}), **delta["controller"]}
    out["subsystems"].append(sub)
    out["couplings"].extend(delta.get("couplings", []))
    out["simulation"]["x0"][str(sub["id"])] = delta.get("x0", [0.0] * len(sub["A"]))
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
    if "loads" in out["simulation"]:
        out["simulation"]["loads"] = [ls for ls in out["simulation"]["loads"]
                                      if str(ls["id"]) != target]
    return out


def cmd_unplug(args) -> int:
    delta = _load_delta(args.delta, UNPLUG_SCHEMA)
    scenario, controllers, _ = load_bundle(args.bundle)
    target, overrides = _check_unplug_delta(delta, scenario)
    tx = unplug(scenario.network, controllers, target, policy=args.policy,
                dynamics_overrides=overrides)
    return _report_transaction(tx, _scenario_doc_without(scenario.doc, target, overrides),
                               scenario.ts, args.out, policy=args.policy)


def _report_transaction(tx, doc: dict, ts: float, out, **extra) -> int:
    """Print a plug/unplug transaction; on commit, save the new network's bundle."""
    print(json.dumps({"operation": tx.operation, "target": tx.target,
                      "status": tx.status, "reason": tx.reason,
                      "redesigned": tx.redesign_set if tx.committed else [],
                      "outcomes": tx.outcomes}, indent=1))
    if not tx.committed:
        return EXIT_DESIGN
    save_bundle(out, Scenario(doc, tx.network, ts), tx.controllers,
                {"transaction": {"operation": tx.operation, "target": tx.target, **extra,
                                 "outcomes": tx.outcomes}})
    print(f"bundle written to {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    _, controllers, _ = load_bundle(args.bundle)
    report = {}
    all_pass = True
    for i, ctrl in sorted(controllers.items()):
        checks = run_all_checks(ctrl)
        report[i] = checks
        for chk in checks:
            all_pass &= bool(chk["passed"])
            verdict = "skipped" if "skipped" in chk else "pass" if chk["passed"] else "FAIL"
            print(f"subsystem {i}: {chk['name']}: {verdict}")
    doc = {"passed": all_pass, "subsystems": report}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, default=float)
    return EXIT_OK if all_pass else EXIT_DESIGN


def cmd_export(args) -> int:
    try:
        trace = SimTrace.from_json(args.trace)
    except KeyError as e:
        raise ScenarioError(f"malformed trace {args.trace}: no field {e}") from e
    scenario, _, _ = load_bundle(args.bundle)
    if args.csv:
        trace.to_csv(args.csv)
        print(f"trace csv written to {args.csv}")
    if args.metrics and _write_metrics(trace, scenario, args.metrics):
        print(f"metrics written to {args.metrics}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_USAGE on a usage error (argparse's own code, 2, is a
    design failure here); the subparsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. A subcommand's
    handler is `cmd_<name>`, looked up when it runs (see `main`)."""
    p = _Parser(prog="tubenet",
                description="Design and simulate plug-and-play tube "
                            "controllers for coupled linear subsystems.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="design all controllers for a scenario")
    d.add_argument("scenario")
    d.add_argument("-o", "--out", required=True)

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

    pl = sub.add_parser("plug", help="add a subsystem (delta file) to a bundle")
    pl.add_argument("delta")
    pl.add_argument("bundle")
    pl.add_argument("-o", "--out", required=True)

    up = sub.add_parser("unplug", help="remove a subsystem (delta file) from a bundle")
    up.add_argument("delta")
    up.add_argument("bundle")
    up.add_argument("-o", "--out", required=True)
    up.add_argument("--policy", choices=["none", "performance"], default="none")

    c = sub.add_parser("check", help="run the design certificates on a bundle")
    c.add_argument("bundle")
    c.add_argument("-o", "--out", default=None)

    e = sub.add_parser("export", help="re-emit CSV/metrics from a saved trace")
    e.add_argument("trace")
    e.add_argument("bundle")
    e.add_argument("--csv", default=None)
    e.add_argument("--metrics", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapper installed on the module is seen
        return globals()[f"cmd_{args.command}"](args)
    except (ScenarioError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
