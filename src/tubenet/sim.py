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
    seed: int = 0
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
                    w.writerow([t, i]
                               + pad(d["x"][t], nx) + pad(d["u"][t], nu)
                               + pad(d["v"][t], nu) + pad(d["xhat"][t], nx)
                               + [repr(float(d["mu"][t])), int(d["feasible"][t])])


def _load_value(loads, i, t) -> float:
    value = 0.0
    for ls in loads:
        if ls.subsystem == i and ls.time <= t:
            value = ls.value
    return value


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

    trace = SimTrace(ids, {"T": cfg.T, "mode": cfg.mode, "seed": cfg.seed,
                           "record_failure": cfg.record_failure})
    for ctrl in controllers.values():
        if isinstance(ctrl, TubeController):
            ctrl.compiled  # build the tube section and nominal program outside the timed steps
    for t in range(cfg.T):
        snapshot = {i: states[i].copy() for i in ids}
        controls = {}
        stop = False
        for i in ids:
            sub = net.subsystems[i]
            load = _load_value(cfg.loads, i, t)
            x_ref, u_ref, load_term = _references(sub, load)
            ctrl = controllers[i]
            t0 = time.perf_counter()
            try:
                if isinstance(ctrl, TubeController):
                    preds = net.predecessors(i) if cfg.mode == "distributed" else None
                    u, diag = step_control(ctrl, snapshot[i],
                                           predecessor_states=snapshot if preds else None,
                                           couplings=preds, x_ref=x_ref, u_ref=u_ref,
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
                             x_ref=x_ref, u_ref=u_ref, mu=np.nan, objective=np.nan,
                             feasible=False,
                             violation=not sub.X.contains(snapshot[i], tol=1e-7),
                             solve_time=time.perf_counter() - t0)
                if not cfg.record_failure:
                    raise
                stop = True
                break
            controls[i] = u
            trace.record(i, x=snapshot[i].copy(), u=u.copy(), v=np.asarray(v0).copy(),
                         xhat=np.asarray(xhat0).copy(), x_ref=x_ref, u_ref=u_ref,
                         mu=float(mu), objective=float(obj), feasible=True,
                         violation=bool(not sub.X.contains(snapshot[i], tol=1e-7)
                                        or not sub.U.contains(u, tol=1e-7)),
                         solve_time=time.perf_counter() - t0)
        if stop:
            break
        for i in ids:
            sub = net.subsystems[i]
            load = _load_value(cfg.loads, i, t)
            nxt = sub.A @ snapshot[i] + sub.B @ controls[i]
            for j, Aij in net.predecessors(i).items():
                nxt = nxt + Aij @ snapshot[j]
            if sub.L is not None and load != 0.0:
                nxt = nxt + (sub.L @ np.array([load])).reshape(sub.n)
            states[i] = nxt
    trace.final_x = {i: states[i].copy() for i in ids}
    return trace


class NaiveMpc:
    """Coupling-blind MPC baseline: per-step QP over the local model alone,
    zero terminal state, no tube, no tightening. Exists to demonstrate loss
    of feasibility under coupling; not a recommended controller."""

    def __init__(self, sub: Subsystem, N: int = 20, Q=None, R=None):
        cfg = MpcConfig(int(N), Q, R).resolved(sub.n, sub.m)  # as for the tube controllers
        self.sub, self.id = sub, sub.id
        self.N, self.Q, self.R = cfg.N, cfg.Q, cfg.R

    def step(self, x) -> tuple[np.ndarray, dict]:
        """Returns (u(0), info); raises InfeasibleStep when the measured state
        is inadmissible or the QP has no solution (predicted states
        constrained from step 1 to N-1, inputs throughout, terminal state
        pinned to the origin)."""
        sub = self.sub
        n, m, N = sub.n, sub.m, self.N
        x = np.asarray(x, dtype=float).reshape(n)
        if not sub.X.contains(x, tol=1e-9):
            raise InfeasibleStep(self.id, "infeasible")
        NV = N * n + N * m  # x(1..N), u(0..N-1)

        def xs(j):  # j in 1..N
            return slice((j - 1) * n, j * n)

        def us(j):
            return slice(N * n + j * m, N * n + (j + 1) * m)

        A_eq = np.zeros((N * n + n, NV))
        b_eq = np.zeros(N * n + n)
        for j in range(N):
            A_eq[j * n:(j + 1) * n, xs(j + 1)] = np.eye(n)
            A_eq[j * n:(j + 1) * n, us(j)] = -sub.B
            if j == 0:
                b_eq[:n] = sub.A @ x
            else:
                A_eq[j * n:(j + 1) * n, xs(j)] = -sub.A
        A_eq[N * n:, xs(N)] = np.eye(n)  # x(N) = 0

        rows, rhs = [], []
        for j in range(1, N):  # state constraints start one step in
            row = np.zeros((sub.X.n_rows, NV))
            row[:, xs(j)] = sub.X.C
            rows.append(row)
            rhs.append(sub.X.d)
        for j in range(N):
            row = np.zeros((sub.U.n_rows, NV))
            row[:, us(j)] = sub.U.C
            rows.append(row)
            rhs.append(sub.U.d)

        P = np.zeros((NV, NV))
        q = np.zeros(NV)
        for j in range(1, N):
            P[xs(j), xs(j)] = 2.0 * self.Q
        for j in range(N):
            P[us(j), us(j)] = 2.0 * self.R
        # stage cost at k=0 contributes only the constant x'Qx
        rep = solve_qp(QuadraticProgram(P, q, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                                        A_eq=A_eq, b_eq=b_eq))
        if rep.status == "infeasible":
            raise InfeasibleStep(self.id, "infeasible")
        if not rep.optimal:
            raise InfeasibleStep(self.id, rep.status)
        u0 = rep.x[us(0)]
        objective = rep.objective + float(x @ self.Q @ x)
        return u0, {"objective": objective, "x_pred": rep.x[:N * n].reshape(N, n)}


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
    """Time-averaged weighted tracking error over states and inputs.

    Setpoints default to the per-step references recorded in the trace; pass
    {id: (x_ref, u_ref)} to override with constants.
    """
    T = trace.steps
    if T == 0:
        raise ValueError("empty trace")
    total = 0.0
    for i in trace.ids:
        d = trace.data[i]
        n = len(d["x"][0])
        m = len(d["u"][0])
        Qi = _weight_for(Q, i, n)
        Ri = _weight_for(R, i, m)
        for t in range(T):
            if setpoints is not None:
                x_ref, u_ref = setpoints[i]
                x_ref = np.asarray(x_ref, dtype=float)
                u_ref = np.asarray(u_ref, dtype=float)
            else:
                x_ref = np.asarray(d["x_ref"][t])
                u_ref = np.asarray(d["u_ref"][t])
            ex = np.asarray(d["x"][t]) - x_ref
            eu = np.asarray(d["u"][t]) - u_ref
            total += float(ex @ Qi @ ex) + float(eu @ Ri @ eu)
    return total / T


def phi_index(trace: SimTrace, tie_gains: dict, ts: float, angle_index: int = 0) -> float:
    """Time-averaged absolute inter-area power transfer.

    tie_gains maps directed pairs (i, j) to the line gain; the transfer at
    step t is gain * (angle_i(t) - angle_j(t)) with the angle taken from the
    given state component.
    """
    T = trace.steps
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
    its initial max-norm deviation from the recorded reference."""
    T = trace.steps

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
    negative means every constraint held with margin."""
    worst = -np.inf
    for i in trace.ids:
        sub = net.subsystems[i]
        for t in range(trace.steps):
            x = np.asarray(trace.data[i]["x"][t])
            u = np.asarray(trace.data[i]["u"][t])
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
