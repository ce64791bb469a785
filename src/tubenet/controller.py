"""Per-subsystem tube controllers: tightened sets, the finite-horizon
tracking problem over the nominal model, and the LP-defined invariance
control applied on top of it.

The applied input is always u = v + kappa(x - xhat), where (v, xhat) come
from the nominal optimization and kappa keeps the true state inside the
invariant tube section around the nominal trajectory. Online, the tube
membership test and kappa are read off the explicit tube section
(`section.py`); the LPs below define them and serve when the section is
unavailable.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import HPolytope, VPolytope, erode_by_vpolytope, member_aggregate
from .model import Subsystem
from .optim import STATUS_FAILURE, LinearProgram, QuadraticProgram, solve_lp, solve_qp
from .rci import DesignError, DesignFailure, RciConfig, RciDesign, synthesize_rci_from_w
from .section import TubeSection, build_section

log = logging.getLogger(__name__)

#: tube membership of the shortcut: gauge <= 1 up to the LP's feasibility slack
SHORTCUT_TOL = 1e-9

__all__ = [
    "TerminalData",
    "MpcConfig",
    "TubeController",
    "MpcSolution",
    "StepDiagnostics",
    "MissingPredecessorState",
    "InfeasibleStep",
    "tighten_sets",
    "design_controller",
    "solve_mpc",
    "kappa_bar_full",
    "kappa_bar_dis_full",
    "step_control",
]


class MissingPredecessorState(RuntimeError):
    pass


class InfeasibleStep(RuntimeError):
    def __init__(self, subsystem_id: str, status: str):
        super().__init__(f"controller {subsystem_id}: nominal problem {status}")
        self.subsystem_id = subsystem_id
        self.status = status


@dataclass
class TerminalData:
    """Terminal ingredients: either the zero-terminal pin x(N) = x_ref, or a
    user-supplied (weight, auxiliary gain, terminal set) triple that is
    validated, never computed here. The custom terminal set lives in
    deviation coordinates (x - x_ref)."""

    mode: str = "zero"  # "zero" | "custom"
    S: np.ndarray | None = None
    K_aux: np.ndarray | None = None
    Xf: HPolytope | None = None
    xf_vertices: VPolytope | None = None

    def __post_init__(self):
        if self.mode not in ("zero", "custom"):
            raise ValueError(f"unknown terminal mode {self.mode!r}")
        if self.mode == "custom":
            if self.S is None or self.K_aux is None or self.Xf is None:
                raise ValueError("custom terminal mode needs S, K_aux and Xf")
            self.S = np.atleast_2d(np.asarray(self.S, dtype=float))
            self.K_aux = np.atleast_2d(np.asarray(self.K_aux, dtype=float))

    def terminal_vertices(self) -> VPolytope:
        if self.xf_vertices is None:
            from .geometry import vertices_of

            self.xf_vertices = vertices_of(self.Xf)
        return self.xf_vertices

    def validate(self, A, B, Q, R, Xhat: HPolytope, V: HPolytope):
        """Check the custom terminal data: containment in the tightened state
        set, invariance under the auxiliary loop, admissible auxiliary inputs
        and the quadratic cost decrease."""
        if self.mode == "zero":
            return
        verts = self.terminal_vertices().vertices
        K = self.K_aux
        Acl = A + B @ K
        for v in verts:
            if not Xhat.contains(v, tol=1e-9):
                raise DesignError("terminal set leaves the tightened state constraints")
            if not self.Xf.contains(Acl @ v, tol=1e-9):
                raise DesignError("terminal set is not invariant under the auxiliary law")
            if not V.contains(K @ v, tol=1e-9):
                raise DesignError("auxiliary law leaves the tightened input constraints")
        decrease = Acl.T @ self.S @ Acl - self.S + Q + K.T @ R @ K
        if np.max(np.linalg.eigvalsh((decrease + decrease.T) / 2)) > 1e-8:
            raise DesignError("terminal weight does not decrease along the auxiliary loop")


@dataclass
class MpcConfig:
    """Per-subsystem controller settings (weights default to identities)."""

    N: int = 10
    Q: np.ndarray | None = None
    R: np.ndarray | None = None
    terminal: TerminalData = field(default_factory=TerminalData)
    mode: str = "decentralized"  # "decentralized" | "distributed"
    cost: str = "quadratic"  # "quadratic" | "l1"

    def resolved(self, n: int, m: int) -> "MpcConfig":
        Q = np.eye(n) if self.Q is None else np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.eye(m) if self.R is None else np.atleast_2d(np.asarray(self.R, dtype=float))
        if self.N < 1:
            raise ValueError("horizon must be at least 1")
        if self.mode not in ("decentralized", "distributed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.cost not in ("quadratic", "l1"):
            raise ValueError(f"unknown cost {self.cost!r}")
        return MpcConfig(self.N, Q, R, self.terminal, self.mode, self.cost)


@dataclass
class TubeController:
    """Designed controller for one subsystem (immutable after design)."""

    sub: Subsystem
    rci: RciDesign
    Xhat: HPolytope
    V: HPolytope
    cfg: MpcConfig

    @property
    def id(self) -> str:
        return self.sub.id

    @functools.cached_property
    def compiled(self) -> "CompiledController":
        """Online solver state, built on first use (never during design)."""
        return CompiledController(self.rci)


class CompiledController:
    """What the online path derives once per controller: the invariance law
    it serves, and the nominal problem's constraint blocks, per setpoint,
    and Hessian.

    The law is read off the explicit tube section, or, when the section is
    unavailable, solved with the LPs that define it; the choice is made
    here, once. The LPs are looked up in this module at call time, so a
    wrapper installed on the module (the benchmark's tracer) sees each call.
    """

    def __init__(self, rci: RciDesign):
        self.rci = rci
        self.section: TubeSection | None = build_section(rci)
        self.constraints: dict = {}
        self.hessian: np.ndarray | None = None

    def tube_beta(self, dev: np.ndarray) -> list[np.ndarray] | None:
        """Unit-sum coefficients per block representing dev in the tube
        section, or None when dev lies outside it."""
        if self.section is None:
            cert = member_aggregate(self.rci.z_set(), dev)
            return [np.asarray(b, dtype=float) for b in cert.beta] if cert.feasible else None
        if self.section.gauge(dev) > 1.0 + SHORTCUT_TOL:
            return None
        _, mu, beta = self.section.law(dev)
        beta = beta.reshape(self.rci.k, self.rci.q)
        beta[:, 0] += max(1.0 - mu, 0.0)  # the rest on each block's origin vertex
        return list(beta)

    def law(self, z) -> tuple[np.ndarray, float, np.ndarray]:
        """Decentralized invariance law at error state z: (u, mu, beta)."""
        if self.section is None:
            return kappa_bar_full(self.rci, z)
        return self.section.law(z)

    def successor_law(self, z, v, predecessor_states: dict, couplings: dict,
                      U: HPolytope) -> tuple[np.ndarray, float, np.ndarray]:
        """Predecessor-aware invariance law: (u_z, mu, beta). Raises
        MissingPredecessorState when a predecessor state is missing."""
        if self.section is not None:
            w = _coupling_term(predecessor_states, couplings, self.rci.A.shape[0])
            law = self.section.successor_law(self.rci.A @ z + w, U, v)
            if law is not None:
                return law
        return kappa_bar_dis_full(self.rci, z, v, predecessor_states, couplings, U)


@dataclass
class MpcSolution:
    status: str
    v0: np.ndarray | None = None
    xhat0: np.ndarray | None = None
    v_seq: np.ndarray | None = None      # N x m
    xhat_seq: np.ndarray | None = None   # (N+1) x n
    beta: list[np.ndarray] | None = None
    objective: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


def tighten_sets(X: HPolytope, U: HPolytope, rci: RciDesign) -> tuple[HPolytope, HPolytope]:
    """Erode the state/input constraints by the invariant tube section, one
    vertex block at a time (erosions by summands compose), then check each
    tightened set for emptiness with one LP."""
    Xhat = X
    for blk in rci.z_blocks:
        Xhat = erode_by_vpolytope(Xhat, VPolytope(blk), rci.sigma)
    if Xhat.is_empty():
        raise DesignError("tightened state set is empty (coupling too large)")
    V = U
    for blk in rci.u_blocks:
        V = erode_by_vpolytope(V, VPolytope(blk), rci.sigma)
    if V.is_empty():
        raise DesignError("tightened input set is empty (coupling too large)")
    if not Xhat.has_origin_interior():
        raise DesignError("tightened state set lost the origin from its interior")
    if not V.has_origin_interior():
        raise DesignError("tightened input set lost the origin from its interior")
    return Xhat, V


def design_controller(sub: Subsystem, W, rci_cfg: RciConfig | None = None,
                      mpc_cfg: MpcConfig | None = None) -> TubeController | DesignFailure:
    """Full per-subsystem design: invariant set, tightened sets, terminal data."""
    design = synthesize_rci_from_w(sub, W, rci_cfg)
    if isinstance(design, DesignFailure):
        return design
    cfg = (mpc_cfg or MpcConfig()).resolved(sub.n, sub.m)
    try:
        Xhat, V = tighten_sets(sub.X, sub.U, design)
        cfg.terminal.validate(sub.A, sub.B, cfg.Q, cfg.R, Xhat, V)
    except DesignError as e:
        return DesignFailure(sub.id, str(e))
    return TubeController(sub, design, Xhat, V, cfg)


def _setpoint_residual(sub: Subsystem, x_ref, u_ref, load_term) -> float:
    drift = sub.A @ x_ref + sub.B @ u_ref + load_term - x_ref
    return float(np.abs(drift).max(initial=0.0))


def solve_mpc(ctrl: TubeController, x, x_ref=None, u_ref=None, load_term=None) -> MpcSolution:
    """Solve the per-step nominal tracking problem.

    The true state enters only through the requirement that x - xhat(0) lies
    in the invariant tube section, expressed with the implicit vertex-block
    membership variables. When x already sits in the tube around the
    setpoint, the exact optimizer (xhat = x_ref, v = u_ref, cost 0) is
    returned without invoking the solver: the cost is nonnegative and that
    point attains zero.
    """
    sub = ctrl.sub
    n, m, N = sub.n, sub.m, ctrl.cfg.N
    x = np.asarray(x, dtype=float).reshape(n)
    x_ref = np.zeros(n) if x_ref is None else np.asarray(x_ref, dtype=float).reshape(n)
    u_ref = np.zeros(m) if u_ref is None else np.asarray(u_ref, dtype=float).reshape(m)
    load_term = np.zeros(n) if load_term is None else np.asarray(load_term, dtype=float).reshape(n)
    if _setpoint_residual(sub, x_ref, u_ref, load_term) > 1e-7:
        raise ValueError("setpoint is not an equilibrium of the nominal model")

    term = ctrl.cfg.terminal
    dev = x - x_ref

    # exact-setpoint shortcut (also makes u = u_ref + kappa(x - x_ref) exact)
    if (ctrl.Xhat.contains(x_ref, tol=0.0) and ctrl.V.contains(u_ref, tol=0.0)
            and (term.mode == "zero" or term.Xf.contains(np.zeros(n), tol=0.0))):
        beta = ctrl.compiled.tube_beta(dev)
        if beta is not None:
            xhat_seq = np.tile(x_ref, (N + 1, 1))
            v_seq = np.tile(u_ref, (N, 1))
            return MpcSolution("optimal", v0=u_ref.copy(), xhat0=x_ref.copy(),
                               v_seq=v_seq, xhat_seq=xhat_seq, beta=beta, objective=0.0)

    if ctrl.cfg.cost == "quadratic":
        return _solve_mpc_qp(ctrl, dev, x_ref, u_ref)
    return _solve_mpc_l1(ctrl, dev, x_ref, u_ref)


def _mpc_layout(ctrl: TubeController):
    sub = ctrl.sub
    n, m, N = sub.n, sub.m, ctrl.cfg.N
    k, q = ctrl.rci.k, ctrl.rci.q
    n_state = (N + 1) * n
    n_input = N * m
    n_beta = k * q
    return n, m, N, k, q, n_state, n_input, n_beta


def _mpc_constraints(ctrl: TubeController, dev: np.ndarray, x_ref, u_ref, n_extra: int = 0):
    """Shared constraint blocks in shifted (deviation) coordinates, cached per
    setpoint; only the tube-link rhs depends on the measured state.

    Variable order: states (N+1)*n, inputs N*m, beta k*q, then n_extra
    caller-specific columns (the l1 epigraph variables).
    """
    cache = ctrl.compiled.constraints
    key = (n_extra, x_ref.tobytes(), u_ref.tobytes())
    if key in cache:
        A_eq, b_eq_base, A_ub, b_ub, lb, NV, link_at = cache[key]
        b_eq = b_eq_base.copy()
        b_eq[link_at:link_at + dev.shape[0]] = dev
        return A_eq, b_eq, A_ub, b_ub, lb, NV
    sub = ctrl.sub
    rci = ctrl.rci
    term = ctrl.cfg.terminal
    n, m, N, k, q, n_state, n_input, n_beta = _mpc_layout(ctrl)
    NV = n_state + n_input + n_beta + n_extra

    def xs(j):
        return slice(j * n, (j + 1) * n)

    def us(j):
        return slice(n_state + j * m, n_state + (j + 1) * m)

    bs = slice(n_state + n_input, n_state + n_input + n_beta)

    eq_rows, eq_rhs = [], []
    # nominal dynamics
    for j in range(N):
        row = np.zeros((n, NV))
        row[:, xs(j + 1)] = np.eye(n)
        row[:, xs(j)] = -sub.A
        row[:, us(j)] = -sub.B
        eq_rows.append(row)
        eq_rhs.append(np.zeros(n))
    # tube link: x - xhat(0) is the scaled beta-combination of block vertices
    link = np.zeros((n, NV))
    link[:, xs(0)] = np.eye(n)
    link[:, bs] = rci.sigma * np.hstack([blk.T for blk in rci.z_blocks])
    eq_rows.append(link)
    eq_rhs.append(dev)
    # unit simplex per block
    for s in range(k):
        row = np.zeros((1, NV))
        row[0, n_state + n_input + s * q: n_state + n_input + (s + 1) * q] = 1.0
        eq_rows.append(row)
        eq_rhs.append(np.ones(1))
    if term.mode == "zero":
        row = np.zeros((n, NV))
        row[:, xs(N)] = np.eye(n)
        eq_rows.append(row)
        eq_rhs.append(np.zeros(n))

    ub_rows, ub_rhs = [], []
    for j in range(N):
        row = np.zeros((ctrl.Xhat.n_rows, NV))
        row[:, xs(j)] = ctrl.Xhat.C
        ub_rows.append(row)
        ub_rhs.append(ctrl.Xhat.d - ctrl.Xhat.C @ x_ref)
        row = np.zeros((ctrl.V.n_rows, NV))
        row[:, us(j)] = ctrl.V.C
        ub_rows.append(row)
        ub_rhs.append(ctrl.V.d - ctrl.V.C @ u_ref)
    if term.mode == "custom":
        row = np.zeros((term.Xf.n_rows, NV))
        row[:, xs(N)] = term.Xf.C
        ub_rows.append(row)
        ub_rhs.append(term.Xf.d)

    lb = np.full(NV, -np.inf)
    lb[bs] = 0.0
    A_eq = np.vstack(eq_rows)
    b_eq = np.concatenate(eq_rhs)
    A_ub = np.vstack(ub_rows)
    b_ub = np.concatenate(ub_rhs)
    link_at = N * n  # rhs offset of the tube-link rows
    cache[key] = (A_eq, b_eq.copy(), A_ub, b_ub, lb, NV, link_at)
    return A_eq, b_eq, A_ub, b_ub, lb, NV


def _extract_mpc(ctrl: TubeController, xvec: np.ndarray, x_ref, u_ref, objective):
    n, m, N, k, q, n_state, n_input, n_beta = _mpc_layout(ctrl)
    xhat_seq = xvec[:n_state].reshape(N + 1, n) + x_ref
    v_seq = xvec[n_state:n_state + n_input].reshape(N, m) + u_ref
    beta_flat = xvec[n_state + n_input:n_state + n_input + n_beta]
    beta = [beta_flat[s * q:(s + 1) * q] for s in range(k)]
    return MpcSolution("optimal", v0=v_seq[0].copy(), xhat0=xhat_seq[0].copy(),
                       v_seq=v_seq, xhat_seq=xhat_seq, beta=beta,
                       objective=float(objective))


def _solve_mpc_qp(ctrl: TubeController, dev, x_ref, u_ref) -> MpcSolution:
    cfg = ctrl.cfg
    n, m, N, k, q, n_state, n_input, n_beta = _mpc_layout(ctrl)
    A_eq, b_eq, A_ub, b_ub, lb, NV = _mpc_constraints(ctrl, dev, x_ref, u_ref)
    compiled = ctrl.compiled
    P = compiled.hessian
    if P is None:
        P = np.zeros((NV, NV))
        for j in range(N):
            P[j * n:(j + 1) * n, j * n:(j + 1) * n] = 2.0 * cfg.Q
            P[n_state + j * m:n_state + (j + 1) * m,
              n_state + j * m:n_state + (j + 1) * m] = 2.0 * cfg.R
        if cfg.terminal.mode == "custom":
            P[N * n:(N + 1) * n, N * n:(N + 1) * n] = 2.0 * cfg.terminal.S
        compiled.hessian = P
    rep = solve_qp(QuadraticProgram(P, np.zeros(NV), A_ub=A_ub, b_ub=b_ub,
                                    A_eq=A_eq, b_eq=b_eq, lb=lb))
    if rep.status == "infeasible":
        return MpcSolution("infeasible")
    if not rep.optimal:
        return MpcSolution(rep.status)
    # with P carrying the factor 2, the solver objective equals the tracking cost
    return _extract_mpc(ctrl, rep.x, x_ref, u_ref, rep.objective)


def _solve_mpc_l1(ctrl: TubeController, dev, x_ref, u_ref) -> MpcSolution:
    """1-norm stage cost |Q xdev|_1 + |R vdev|_1 via epigraph variables."""
    cfg = ctrl.cfg
    n, m, N, k, q, n_state, n_input, n_beta = _mpc_layout(ctrl)
    n_extra = N * (n + m)
    A_eq, b_eq, A_ub, b_ub, lb, NV = _mpc_constraints(ctrl, dev, x_ref, u_ref, n_extra)
    base_t = n_state + n_input + n_beta
    rows, rhs = [A_ub], [b_ub]
    for j in range(N):
        for (Wmat, var_base, width, t_off) in (
                (cfg.Q, j * n, n, base_t + j * (n + m)),
                (cfg.R, n_state + j * m, m, base_t + j * (n + m) + n)):
            for sign in (1.0, -1.0):
                row = np.zeros((width, NV))
                row[:, var_base:var_base + width] = sign * Wmat
                row[:, t_off:t_off + width] = -np.eye(width)
                rows.append(row)
                rhs.append(np.zeros(width))
    c = np.zeros(NV)
    c[base_t:] = 1.0
    rep = solve_lp(LinearProgram(c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                                 A_eq=A_eq, b_eq=b_eq, lb=lb))
    if rep.status == "infeasible":
        return MpcSolution("infeasible")
    if not rep.optimal:
        return MpcSolution(rep.status)
    return _extract_mpc(ctrl, rep.x, x_ref, u_ref, rep.objective)


def kappa_bar_full(rci: RciDesign, z) -> tuple[np.ndarray, float, np.ndarray]:
    """Invariance control: minimize the uniform block occupancy mu subject to
    representing z with the vertex blocks, then mix the input vertices with
    the optimal coefficients. Returns (u, mu, beta). Feasible for every z
    because the seed block is full-dimensional; exact zeros for z = 0 (no
    control action is needed to stay in the tube)."""
    n = rci.z_blocks[0].shape[1]
    m = rci.u_blocks[0].shape[1]
    z = np.asarray(z, dtype=float).reshape(n)
    k, q = rci.k, rci.q
    if not np.any(z):
        return np.zeros(m), 0.0, np.zeros(k * q)
    NV = 1 + k * q  # mu first, then beta by block
    A_eq = np.zeros((k + n, NV))
    b_eq = np.zeros(k + n)
    for s in range(k):
        A_eq[s, 0] = -1.0
        A_eq[s, 1 + s * q: 1 + (s + 1) * q] = 1.0
    A_eq[k:, 1:] = rci.sigma * np.hstack([blk.T for blk in rci.z_blocks])
    b_eq[k:] = z
    c = np.zeros(NV)
    c[0] = 1.0
    rep = solve_lp(LinearProgram(c, A_eq=A_eq, b_eq=b_eq, lb=np.zeros(NV)))
    if not rep.optimal:
        raise RuntimeError("invariance-control LP failed: " + rep.status)
    beta = rep.x[1:]
    u = rci.sigma * np.hstack([blk.T for blk in rci.u_blocks]) @ beta
    return u, float(rep.x[0]), beta


def kappa_bar_dis_full(rci: RciDesign, z, v, predecessor_states: dict,
                       couplings: dict, U: HPolytope):
    """Predecessor-aware invariance control: place the *successor* error in
    the smallest uniform block occupancy, using the measured neighbor states,
    and bound the total input v + u_z by the original input constraints.
    Returns (u_z, mu, beta)."""
    n = rci.z_blocks[0].shape[1]
    m = rci.u_blocks[0].shape[1]
    z = np.asarray(z, dtype=float).reshape(n)
    v = np.asarray(v, dtype=float).reshape(m)
    w = _coupling_term(predecessor_states, couplings, n)
    k, q = rci.k, rci.q
    A_sub, B_sub = rci.A, rci.B
    NV = 1 + k * q + m  # mu, beta, u_z
    A_eq = np.zeros((k + n, NV))
    b_eq = np.zeros(k + n)
    for s in range(k):
        A_eq[s, 0] = -1.0
        A_eq[s, 1 + s * q: 1 + (s + 1) * q] = 1.0
    A_eq[k:, 1:1 + k * q] = rci.sigma * np.hstack([blk.T for blk in rci.z_blocks])
    A_eq[k:, 1 + k * q:] = -B_sub
    b_eq[k:] = A_sub @ z + w
    A_ub = np.zeros((U.n_rows, NV))
    A_ub[:, 1 + k * q:] = U.C
    b_ub = U.d - U.C @ v
    lb = np.full(NV, -np.inf)
    lb[:1 + k * q] = 0.0
    c = np.zeros(NV)
    c[0] = 1.0
    rep = solve_lp(LinearProgram(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lb=lb))
    if not rep.optimal:
        raise RuntimeError("predecessor-aware control LP failed: " + rep.status)
    u_z = rep.x[1 + k * q:]
    return u_z, float(rep.x[0]), rep.x[1:1 + k * q]


def _coupling_term(predecessor_states: dict, couplings: dict, n: int) -> np.ndarray:
    """w = sum_j A_ij x_j over the measured predecessor states."""
    w = np.zeros(n)
    for j, Aij in couplings.items():
        if j not in predecessor_states:
            raise MissingPredecessorState(f"state of predecessor {j} not provided")
        w = w + Aij @ np.asarray(predecessor_states[j], dtype=float)
    return w


@dataclass
class StepDiagnostics:
    v0: np.ndarray
    xhat0: np.ndarray
    mu: float
    beta: np.ndarray | None
    objective: float
    kappa_mode: str
    mpc: MpcSolution


def step_control(ctrl: TubeController, x, predecessor_states: dict | None = None,
                 couplings: dict | None = None, x_ref=None, u_ref=None,
                 load_term=None) -> tuple[np.ndarray, StepDiagnostics]:
    """One controller evaluation: nominal solve plus invariance correction.

    Distributed mode uses the predecessor-aware correction when every
    predecessor state is available; otherwise it logs and falls back to the
    decentralized law. Both laws are read off the explicit tube section when
    it is available (the predecessor-aware law for one input only) and
    solved as LPs otherwise. An infeasible nominal problem raises
    InfeasibleStep with its status; a failed LP raises it with status
    "numerical-failure".
    """
    sol = solve_mpc(ctrl, x, x_ref=x_ref, u_ref=u_ref, load_term=load_term)
    if not sol.feasible:
        raise InfeasibleStep(ctrl.id, sol.status)
    z = np.asarray(x, dtype=float) - sol.xhat0
    compiled = ctrl.compiled
    try:
        if ctrl.cfg.mode == "distributed" and couplings:
            try:
                u_z, mu, beta = compiled.successor_law(z, sol.v0, predecessor_states or {},
                                                       couplings, ctrl.sub.U)
                kappa_mode = "distributed"
            except MissingPredecessorState as e:
                log.warning("%s: %s; falling back to the decentralized law", ctrl.id, e)
                u_z, mu, beta = compiled.law(z)
                kappa_mode = "fallback"
        else:
            u_z, mu, beta = compiled.law(z)
            kappa_mode = "decentralized"
    except RuntimeError as e:  # a failed invariance LP is numerical, not infeasibility
        raise InfeasibleStep(ctrl.id, STATUS_FAILURE) from e
    u = sol.v0 + u_z
    return u, StepDiagnostics(sol.v0, sol.xhat0, mu, beta, sol.objective, kappa_mode, sol)
