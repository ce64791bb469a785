"""Closed-loop simulation of the full network with constraint monitoring,
trace recording and the tracking/transfer performance indices.

Each step takes a barrier snapshot of all states, evaluates every controller
against it (so distributed corrections always see time-t information), then
applies the exact collective update.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .controller import InfeasibleStep, MpcConfig, TubeController, step_control
from .model import Network, Subsystem
from .optim import QuadraticProgram, solve_qp

__all__ = [
    "LoadStep",
    "SimConfig",
    "SimTrace",
    "Metrics",
    "run",
    "NaiveMpc",
    "build_naive_counterexample_network",
    "eta_index",
    "phi_index",
    "settling_time_95",
    "max_constraint_slack",
    "compute_metrics",
]


@dataclass
class LoadStep:
    """Known exogenous step: `value` applies to `subsystem` from `time` on."""

    subsystem: str
    time: int
    value: float


@dataclass
class SimConfig:
    T: int
    x0: dict
    mode: str = "decentralized"
    loads: list[LoadStep] = field(default_factory=list)
    record_failure: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("simulation horizon must be at least one step")
        if self.mode not in ("decentralized", "distributed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        self.x0 = {str(k): np.asarray(v, dtype=float) for k, v in self.x0.items()}
        for k, v in self.x0.items():
            if not np.all(np.isfinite(v)):
                raise ValueError(f"initial state of {k} is not finite")
        for ls in self.loads:
            if not (0 <= ls.time < self.T):
                raise ValueError(f"load step at t={ls.time} outside [0, {self.T})")


class SimTrace:
    """Per-step, per-subsystem closed-loop record."""

    FIELDS = ("x", "u", "v", "xhat", "x_ref", "u_ref")

    def __init__(self, ids, meta):
        self.ids = list(ids)
        self.meta = dict(meta)
        self.data = {i: {"x": [], "u": [], "v": [], "xhat": [], "x_ref": [], "u_ref": [],
                         "mu": [], "objective": [], "feasible": [], "violation": [],
                         "solve_time": []} for i in self.ids}
        self.final_x = {}
        self.infeasible_at: int | None = None
        self.infeasible_id: str | None = None
        self.infeasible_status: str | None = None  # "infeasible" or a solver failure

    @property
    def steps(self) -> int:
        return len(self.data[self.ids[0]]["u"]) if self.ids else 0

    @property
    def completed(self) -> int:
        """Steps that every subsystem completed: all of them, or those before
        the failed step (the subsystems after the failing one have no row
        for it)."""
        return self.steps if self.infeasible_at is None else self.infeasible_at

    def record(self, i, **kv):
        d = self.data[i]
        for key, value in kv.items():
            d[key].append(value)

    def arrays(self, i, key) -> np.ndarray:
        return np.asarray(self.data[i][key])

    def to_dict(self) -> dict:
        out = {"meta": self.meta, "ids": self.ids,
               "infeasible_at": self.infeasible_at, "infeasible_id": self.infeasible_id,
               "infeasible_status": self.infeasible_status,
               "final_x": {i: np.asarray(v).tolist() for i, v in self.final_x.items()},
               "data": {}}
        for i in self.ids:
            d = self.data[i]
            out["data"][i] = {
                **{k: np.asarray(d[k]).tolist() for k in self.FIELDS},
                "mu": list(map(float, d["mu"])),
                "objective": list(map(float, d["objective"])),
                "feasible": list(map(bool, d["feasible"])),
                "violation": list(map(bool, d["violation"])),
                "solve_time": list(map(float, d["solve_time"])),
            }
        return out

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=1)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_dict(cls, doc: dict) -> "SimTrace":
        tr = cls(doc["ids"], doc["meta"])
        tr.infeasible_at = doc.get("infeasible_at")
        tr.infeasible_id = doc.get("infeasible_id")
        tr.infeasible_status = doc.get("infeasible_status")
        tr.final_x = {i: np.asarray(v, dtype=float) for i, v in doc.get("final_x", {}).items()}
        for i in tr.ids:
            src = doc["data"][i]
            dst = tr.data[i]
            for k in cls.FIELDS:
                dst[k] = [np.asarray(row, dtype=float) for row in src[k]]
            dst["mu"] = list(src["mu"])
            dst["objective"] = list(src["objective"])
            dst["feasible"] = list(src["feasible"])
            dst["violation"] = list(src["violation"])
            dst["solve_time"] = list(src["solve_time"])
        return tr

    @classmethod
    def from_json(cls, path) -> "SimTrace":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def fingerprint(self, include_timings: bool = False) -> str:
        doc = self.to_dict()
        if not include_timings:
            for i in doc["data"]:
                doc["data"][i].pop("solve_time")
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    def to_csv(self, path):
        """One row per (t, subsystem): t, id, x.., u.., v.., xhat.., mu, feasible."""
        nx = max(len(self.data[i]["x"][0]) for i in self.ids)
        nu = max(len(self.data[i]["u"][0]) for i in self.ids)
        header = (["t", "id"]
                  + [f"x{j}" for j in range(nx)] + [f"u{j}" for j in range(nu)]
                  + [f"v{j}" for j in range(nu)] + [f"xhat{j}" for j in range(nx)]
                  + ["mu", "feasible"])

        def pad(vec, width):
            vals = [repr(float(a)) for a in vec]
            return vals + [""] * (width - len(vals))

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for t in range(self.steps):
                for i in self.ids:
                    d = self.data[i]
                    if t >= len(d["u"]):  # after the failing subsystem of a failed step
                        continue
                    w.writerow([t, i]
                               + pad(d["x"][t], nx) + pad(d["u"][t], nu)
                               + pad(d["v"][t], nu) + pad(d["xhat"][t], nx)
                               + [repr(float(d["mu"][t])), int(d["feasible"][t])])


def _reference_schedule(sub: Subsystem, loads, T: int) -> list[tuple]:
    """(load, x_ref, u_ref, load_term) of sub at each step t: the load is
    the value of the last listed step of sub at or before t, 0 before any.
    The references are computed once per load step; steps at the same level
    share one tuple. A time given as a float applies from the first step at
    or after it."""
    schedule = [(0.0, *_references(sub, 0.0))] * T
    for ls in loads:
        if ls.subsystem == sub.id:
            start = int(np.ceil(ls.time))
            schedule[start:] = [(ls.value, *_references(sub, ls.value))] * (T - start)
    return schedule


def _references(sub: Subsystem, load: float):
    n, m = sub.n, sub.m
    x_ref = np.zeros(n)
    u_ref = np.zeros(m)
    load_term = np.zeros(n)
    if load != 0.0:
        if sub.setpoint_state_gain is not None:
            x_ref = np.asarray(sub.setpoint_state_gain, dtype=float) * load
        if sub.setpoint_input_gain is not None:
            u_ref = np.asarray(sub.setpoint_input_gain, dtype=float) * load
        if sub.L is not None:
            load_term = (sub.L @ np.array([load])).reshape(n)
    return x_ref, u_ref, load_term


def run(net: Network, controllers: dict, cfg: SimConfig) -> SimTrace:
    """Simulate the closed loop for cfg.T steps.

    Controllers are evaluated against a frozen time-t snapshot; the plant
    then advances with the exact discretized collective model including
    couplings and scheduled load terms. The run is deterministic for a given
    configuration. Infeasibility stops the run: it raises by default, or is
    recorded in the trace when cfg.record_failure is set.
    """
    ids = net.ids
    missing = [i for i in ids if i not in controllers]
    if missing:
        raise ValueError(f"no controller for subsystems {missing}")
    states = {}
    for i in ids:
        if i not in cfg.x0:
            raise ValueError(f"no initial state for subsystem {i}")
        states[i] = np.asarray(cfg.x0[i], dtype=float).copy()

    trace = SimTrace(ids, {"T": cfg.T, "mode": cfg.mode,
                           "record_failure": cfg.record_failure})
    for ctrl in controllers.values():
        if isinstance(ctrl, TubeController):
            ctrl.compiled  # build the tube section and nominal program outside the timed steps
    # per run, not per step: coupling blocks and the reference schedule
    preds = {i: net.predecessors(i) for i in ids}
    schedule = {i: _reference_schedule(net.subsystems[i], cfg.loads, cfg.T) for i in ids}
    for t in range(cfg.T):
        snapshot = {i: states[i].copy() for i in ids}
        controls = {}
        stop = False
        for i in ids:
            sub = net.subsystems[i]
            _, x_ref, u_ref, load_term = schedule[i][t]
            ctrl = controllers[i]
            t0 = time.perf_counter()
            try:
                if isinstance(ctrl, TubeController):
                    couplings = preds[i] if cfg.mode == "distributed" else None
                    u, diag = step_control(ctrl, snapshot[i],
                                           predecessor_states=snapshot if couplings else None,
                                           couplings=couplings, x_ref=x_ref, u_ref=u_ref,
                                           load_term=load_term)
                    v0, xhat0, mu, obj = diag.v0, diag.xhat0, diag.mu, diag.objective
                else:  # coupling-blind baseline controller
                    u, info = ctrl.step(snapshot[i])
                    v0, xhat0, mu, obj = u, snapshot[i], 0.0, info["objective"]
            except InfeasibleStep as e:
                trace.infeasible_at = t
                trace.infeasible_id = i
                trace.infeasible_status = e.status
                trace.record(i, x=snapshot[i].copy(), u=np.full(sub.m, np.nan),
                             v=np.full(sub.m, np.nan), xhat=np.full(sub.n, np.nan),
                             x_ref=x_ref.copy(), u_ref=u_ref.copy(), mu=np.nan, objective=np.nan,
                             feasible=False,
                             violation=not sub.X.contains(snapshot[i], tol=1e-7),
                             solve_time=time.perf_counter() - t0)
                if not cfg.record_failure:
                    raise
                stop = True
                break
            controls[i] = u
            trace.record(i, x=snapshot[i].copy(), u=u.copy(), v=np.asarray(v0).copy(),
                         xhat=np.asarray(xhat0).copy(), x_ref=x_ref.copy(), u_ref=u_ref.copy(),
                         mu=float(mu), objective=float(obj), feasible=True,
                         violation=bool(not sub.X.contains(snapshot[i], tol=1e-7)
                                        or not sub.U.contains(u, tol=1e-7)),
                         solve_time=time.perf_counter() - t0)
        if stop:
            break
        for i in ids:
            sub = net.subsystems[i]
            load, _, _, load_term = schedule[i][t]
            nxt = sub.A @ snapshot[i] + sub.B @ controls[i]
            for j, Aij in preds[i].items():
                nxt = nxt + Aij @ snapshot[j]
            if sub.L is not None and load != 0.0:
                nxt = nxt + load_term  # L load, as `_references` computes it
            states[i] = nxt
    trace.final_x = {i: states[i].copy() for i in ids}
    return trace


class NaiveMpc:
    """Coupling-blind MPC baseline: per-step QP over the local model alone,
    zero terminal state, no tube, no tightening. Exists to demonstrate loss
    of feasibility under coupling; not a recommended controller.

    The QP is built once: variables x(0..N), u(0..N-1); the measured state is
    pinned by x(0) = x, the only right-hand side a step writes, and the
    states x(0..N-1) and inputs must lie in X and U."""

    def __init__(self, sub: Subsystem, N: int = 20, Q=None, R=None):
        cfg = MpcConfig(int(N), Q, R).resolved(sub.n, sub.m)  # as for the tube controllers
        self.sub, self.id = sub, sub.id
        self.N, self.Q, self.R = cfg.N, cfg.Q, cfg.R
        n, m, N = sub.n, sub.m, self.N
        nx = (N + 1) * n  # x(0..N) come first, then u(0..N-1)
        eye = np.eye(N)
        A_eq = np.zeros(((N + 2) * n, nx + N * m))
        A_eq[:n, :n] = np.eye(n)  # x(0) = x
        A_eq[n:nx, n:nx] = np.eye(N * n)  # x(j+1) - A x(j) - B u(j) = 0
        A_eq[n:nx, :N * n] -= np.kron(eye, sub.A)
        A_eq[n:nx, nx:] = -np.kron(eye, sub.B)
        A_eq[nx:, N * n:nx] = np.eye(n)  # x(N) = 0
        G = np.zeros((N * (sub.X.n_rows + sub.U.n_rows), nx + N * m))
        G[:N * sub.X.n_rows, :N * n] = np.kron(eye, sub.X.C)
        G[N * sub.X.n_rows:, nx:] = np.kron(eye, sub.U.C)
        P = np.zeros((nx + N * m, nx + N * m))
        P[:N * n, :N * n] = np.kron(eye, 2.0 * self.Q)
        P[nx:, nx:] = np.kron(eye, 2.0 * self.R)
        self.program = QuadraticProgram(
            P, np.zeros(nx + N * m), A_ub=G,
            b_ub=np.concatenate([np.tile(sub.X.d, N), np.tile(sub.U.d, N)]),
            A_eq=A_eq, b_eq=np.zeros(A_eq.shape[0]))

    def step(self, x) -> tuple[np.ndarray, dict]:
        """Returns (u(0), info); raises InfeasibleStep with the solver's
        status when the QP has no solution, which an inadmissible measured
        state makes certifiably infeasible."""
        n, m, N = self.sub.n, self.sub.m, self.N
        b_eq = np.zeros(self.program.A_eq.shape[0])
        b_eq[:n] = np.asarray(x, dtype=float).reshape(n)
        rep = solve_qp(self.program.with_rhs(b_eq=b_eq))
        if not rep.optimal:
            raise InfeasibleStep(self.id, rep.status)
        nx = (N + 1) * n
        return rep.x[nx:nx + m], {"objective": rep.objective,
                                  "x_pred": rep.x[n:nx].reshape(N, n)}


def build_naive_counterexample_network() -> Network:
    """Two coupled masses with the known discretized blocks for which the
    coupling-blind controller loses feasibility after one step from a
    boundary start."""
    from .geometry import HPolytope, VPolytope, box_vertices
    from .model import Coupling

    Ad = np.array([
        [0.9987, 0.1987, 0.0, 0.0],
        [-0.01245, 0.9863, 0.0, 0.0],
        [0.0, 0.0, 0.9987, 0.1987],
        [0.0, 0.0, -0.0125, 0.9863],
    ])
    Bd = np.array([
        [0.2497, 0.0],
        [2.4909, 0.0],
        [0.0, 0.2497],
        [0.0, 2.4909],
    ])
    A12 = np.array([
        [0.0012, 0.0012, 0.0, 0.0],
        [0.0124, 0.0124, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    hw = [1.5, 0.8, 1.5, 0.8]
    subs = []
    for sid in ("1", "2"):
        subs.append(Subsystem(sid, Ad.copy(), Bd.copy(),
                              HPolytope.symmetric_box(hw),
                              HPolytope.symmetric_box([1.0, 1.0]),
                              x_vertices=VPolytope(box_vertices(-np.array(hw), np.array(hw)))))
    return Network(subs, [Coupling("2", "1", A12.copy()), Coupling("1", "2", A12.copy())])


def _weight_for(W, i, dim):
    if W is None:
        return np.eye(dim)
    if isinstance(W, dict):
        return np.atleast_2d(np.asarray(W[i], dtype=float))
    return np.atleast_2d(np.asarray(W, dtype=float))


def eta_index(trace: SimTrace, setpoints=None, Q=None, R=None) -> float:
    """Time-averaged weighted tracking error over states and inputs, over
    the steps every subsystem completed.

    Setpoints default to the per-step references recorded in the trace; pass
    {id: (x_ref, u_ref)} to override with constants.
    """
    T = trace.completed
    if T == 0:
        raise ValueError("empty trace")
    total = 0.0
    for i in trace.ids:
        d = trace.data[i]
        if setpoints is not None:
            x_ref, u_ref = (np.asarray(r, dtype=float) for r in setpoints[i])
        else:
            x_ref, u_ref = np.asarray(d["x_ref"][:T]), np.asarray(d["u_ref"][:T])
        ex = np.asarray(d["x"][:T]) - x_ref
        eu = np.asarray(d["u"][:T]) - u_ref
        Qi = _weight_for(Q, i, ex.shape[1])
        Ri = _weight_for(R, i, eu.shape[1])
        total += float(np.vdot(ex @ Qi, ex)) + float(np.vdot(eu @ Ri, eu))
    return total / T


def phi_index(trace: SimTrace, tie_gains: dict, ts: float, angle_index: int = 0) -> float:
    """Time-averaged absolute inter-area power transfer, over the steps
    every subsystem completed.

    tie_gains maps directed pairs (i, j) to the line gain; the transfer at
    step t is gain * (angle_i(t) - angle_j(t)) with the angle taken from the
    given state component.
    """
    T = trace.completed
    if T == 0:
        raise ValueError("empty trace")
    total = 0.0
    for (i, j), gain in tie_gains.items():
        i, j = str(i), str(j)
        for t in range(T):
            thi = float(trace.data[i]["x"][t][angle_index])
            thj = float(trace.data[j]["x"][t][angle_index])
            total += abs(gain * (thi - thj)) * ts
    return total / T


def settling_time_95(trace: SimTrace, ts: float = 1.0) -> float:
    """First time (in seconds) after which every subsystem stays within 5% of
    its initial max-norm deviation from the recorded reference, over the
    steps every subsystem completed."""
    T = trace.completed
    if T == 0:
        raise ValueError("empty trace")

    def deviation(t):
        return max(float(np.abs(np.asarray(trace.data[i]["x"][t])
                                - np.asarray(trace.data[i]["x_ref"][t])).max(initial=0.0))
                   for i in trace.ids)

    d0 = deviation(0)
    if d0 == 0.0:
        return 0.0
    threshold = 0.05 * d0
    settle_step = T
    for t in range(T - 1, -1, -1):
        if deviation(t) > threshold:
            settle_step = t + 1
            break
        settle_step = t
    return settle_step * ts


def max_constraint_slack(trace: SimTrace, net: Network) -> float:
    """Largest value of (C x - d) and (C u - d) seen anywhere in the trace;
    negative means every constraint held with margin. Inputs of a failed
    step are NaN and skipped."""
    worst = -np.inf
    for i in trace.ids:
        sub = net.subsystems[i]
        for x, u in zip(trace.data[i]["x"], trace.data[i]["u"]):
            x, u = np.asarray(x), np.asarray(u)
            worst = max(worst, float(np.max(sub.X.C @ x - sub.X.d)))
            if np.all(np.isfinite(u)):
                worst = max(worst, float(np.max(sub.U.C @ u - sub.U.d)))
    for i, x in trace.final_x.items():
        sub = net.subsystems[i]
        worst = max(worst, float(np.max(sub.X.C @ x - sub.X.d)))
    return worst


@dataclass
class Metrics:
    eta: float
    phi: float
    settling_95: float
    max_slack: float

    def to_json(self, path=None) -> str:
        text = json.dumps({"eta": self.eta, "phi": self.phi,
                           "settling_95": self.settling_95, "max_slack": self.max_slack},
                          sort_keys=True, indent=1)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def compute_metrics(trace: SimTrace, net: Network, Q=None, R=None,
                    tie_gains=None, ts: float = 1.0) -> Metrics:
    eta = eta_index(trace, Q=Q, R=R)
    phi = phi_index(trace, tie_gains, ts) if tie_gains else 0.0
    return Metrics(eta=eta, phi=phi, settling_95=settling_time_95(trace, ts),
                   max_slack=max_constraint_slack(trace, net))
