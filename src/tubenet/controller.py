"""Per-subsystem tube controllers: tightened sets, the finite-horizon
tracking problem over the nominal model, and the LP-defined invariance
control applied on top of it.

The applied input is always u = v + kappa(x - xhat), where (v, xhat) come
from the nominal optimization and kappa keeps the true state inside the
invariant tube section around the nominal trajectory. Online, the tube
membership test and kappa are read off the explicit tube section
(`section.py`); the LPs below define them and serve when the section is
unavailable. The nominal problem is one parametric QP (an LP with the
1-norm cost) per controller: its matrices are assembled once, and each solve
writes only the measured state and the setpoint into its right-hand sides.

Each controller keeps the verdict on the last setpoint it saw: whether it
is an equilibrium of the nominal model, and whether the exact-setpoint
shortcut may serve it. Both checks run again on the first step after any
change. The shortcut's solution is the constant setpoint plan, given by
its first stage (no sequences, no beta); with the section it carries
H (x - x_ref), which the decentralized law reuses, so a shortcut step runs
one facet/cone lookup.
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
from .section import SuccessorLaw, TubeSection, build_section

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
    """Per-subsystem controller settings (weights default to identities);
    `mode` records the scenario's setting, the run picks the online law."""

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
    """Designed controller for one subsystem and its design settings (immutable)."""

    sub: Subsystem
    rci: RciDesign
    Xhat: HPolytope
    V: HPolytope
    cfg: MpcConfig
    rci_cfg: RciConfig = field(default_factory=RciConfig)

    @property
    def id(self) -> str:
        return self.sub.id

    @functools.cached_property
    def compiled(self) -> "CompiledController":
        """Online solver state, built on first use (never during design)."""
        return CompiledController(self)


class CompiledController:
    """What the online path derives once per controller: the invariance law
    it serves and the nominal tracking problem.

    The law is read off the explicit tube section, or, when the section is
    unavailable, solved with the LPs that define it; the choice is made
    here, once. With one input, the predecessor-aware law is compiled here
    against the subsystem's input set U (`section.SuccessorLaw`). The LPs
    are looked up in this module at call time, so a wrapper installed on
    the module (the benchmark's tracer) sees each call.

    The nominal problem is assembled here, once, in shifted (deviation)
    coordinates, where none of its matrices depends on the state or the
    setpoint; each solve fills a fresh copy of the right-hand sides. Variable
    order: states (N+1)*n, inputs N*m, beta k*q, then, with the l1 cost, the
    epigraph variables N*(n+m).
    """

    def __init__(self, ctrl: TubeController):
        self.sub, self.rci, self.terminal = ctrl.sub, ctrl.rci, ctrl.cfg.terminal
        self.section: TubeSection | None = build_section(ctrl.rci)
        self.successor: SuccessorLaw | None = (
            None if self.section is None else self.section.compile_successor(ctrl.sub.U))
        self.Xhat, self.V = ctrl.Xhat, ctrl.V
        self.n, self.m, self.N = ctrl.sub.n, ctrl.sub.m, ctrl.cfg.N
        self.program = _nominal_program(ctrl)
        self._setpoint = None  # (exact bytes of the last setpoint, its shortcut verdict)

    def admits_shortcut(self, x_ref: np.ndarray, u_ref: np.ndarray,
                        load_term: np.ndarray) -> bool:
        """Whether the exact-setpoint shortcut may serve the setpoint:
        x_ref in Xhat, u_ref in V and, with a custom terminal set, 0 in Xf.
        Raises ValueError when the setpoint is not an equilibrium of the
        nominal model (to 1e-7). Both checks run once per setpoint: the
        verdict on the last one is kept, keyed by its exact bytes."""
        key = (x_ref.tobytes(), u_ref.tobytes(), load_term.tobytes())
        if self._setpoint is None or self._setpoint[0] != key:
            if _setpoint_residual(self.sub, x_ref, u_ref, load_term) > 1e-7:
                raise ValueError("setpoint is not an equilibrium of the nominal model")
            term = self.terminal
            self._setpoint = (key, bool(
                self.Xhat.contains(x_ref, tol=0.0) and self.V.contains(u_ref, tol=0.0)
                and (term.mode == "zero" or term.Xf.contains(np.zeros(self.n), tol=0.0))))
        return self._setpoint[1]

    def shortcut(self, dev: np.ndarray, x_ref: np.ndarray, u_ref: np.ndarray) -> MpcSolution | None:
        """The exact optimizer at an admitted setpoint (xhat = x_ref,
        v = u_ref, cost 0) when dev = x - x_ref lies in the tube section;
        None when it does not. With the section, membership is the gauge
        max H dev <= 1 and the solution keeps hz = H dev; without it, the
        membership LP decides."""
        hz = None
        if self.section is None:
            if not member_aggregate(self.rci.z_set(), dev).feasible:
                return None
        else:
            hz = self.section.H @ dev
            if hz.max() > 1.0 + SHORTCUT_TOL:
                return None
        return MpcSolution("optimal", v0=u_ref.copy(), xhat0=x_ref.copy(), objective=0.0,
                           path="shortcut", hz=hz)

    def solve_nominal(self, dev: np.ndarray, x_ref: np.ndarray, u_ref: np.ndarray) -> MpcSolution:
        """Solve the nominal problem for the state deviation dev = x - x_ref
        about the setpoint (x_ref, u_ref); the shared program is not changed."""
        n, m, N, k, q = self.n, self.m, self.N, self.rci.k, self.rci.q
        p = self.program
        b_eq = p.b_eq.copy()
        b_eq[N * n:(N + 1) * n] = dev  # the tube-link rows
        b_ub = p.b_ub.copy()
        stages = b_ub[:N * (self.Xhat.n_rows + self.V.n_rows)].reshape(N, -1)
        stages[:, :self.Xhat.n_rows] = self.Xhat.d - self.Xhat.C @ x_ref
        stages[:, self.Xhat.n_rows:] = self.V.d - self.V.C @ u_ref
        step = p.with_rhs(b_ub=b_ub, b_eq=b_eq)
        path = "qp" if isinstance(p, QuadraticProgram) else "l1"
        rep = solve_qp(step) if path == "qp" else solve_lp(step)
        if not rep.optimal:
            return MpcSolution(rep.status, path=path)
        n_state, n_input = (N + 1) * n, N * m
        xhat_seq = rep.x[:n_state].reshape(N + 1, n) + x_ref
        v_seq = rep.x[n_state:n_state + n_input].reshape(N, m) + u_ref
        beta_flat = rep.x[n_state + n_input:n_state + n_input + k * q]
        # with P carrying the factor 2, the QP objective equals the tracking cost
        return MpcSolution("optimal", v0=v_seq[0].copy(), xhat0=xhat_seq[0].copy(),
                           v_seq=v_seq, xhat_seq=xhat_seq,
                           beta=[beta_flat[s * q:(s + 1) * q] for s in range(k)],
                           objective=float(rep.objective), path=path)

    def law(self, z, hz=None) -> tuple[np.ndarray, float, np.ndarray]:
        """Decentralized invariance law at error state z: (u, mu, beta).
        hz = H z when the caller has it (the shortcut's solution)."""
        if self.section is None:
            return kappa_bar_full(self.rci, z)
        return self.section.law(z, hz)

    def successor_law(self, z, v, predecessor_states: dict,
                      couplings: dict) -> tuple[np.ndarray, float, np.ndarray]:
        """Predecessor-aware invariance law within the subsystem's input set:
        (u_z, mu, beta). Raises MissingPredecessorState when a predecessor
        state is missing."""
        if self.successor is not None:
            w = _coupling_term(predecessor_states, couplings, self.rci.A.shape[0])
            law = self.successor(self.rci.A @ z + w, v)
            if law is not None:
                return law
        return kappa_bar_dis_full(self.rci, z, v, predecessor_states, couplings, self.sub.U)


@dataclass
class MpcSolution:
    status: str
    v0: np.ndarray | None = None
    xhat0: np.ndarray | None = None
    v_seq: np.ndarray | None = None      # N x m
    xhat_seq: np.ndarray | None = None   # (N+1) x n
    beta: list[np.ndarray] | None = None
    objective: float | None = None
    path: str | None = None  # where it was served: "shortcut", "qp" or "l1"
    hz: np.ndarray | None = None  # the shortcut's H (x - x_ref), with the section

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
    return TubeController(sub, design, Xhat, V, cfg, rci_cfg or RciConfig())


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
    point attains zero. The setpoint is checked (an equilibrium of the
    nominal model, and whether the shortcut may serve it) on the first step
    after each change; the controller keeps the verdict until the next.
    """
    sub = ctrl.sub
    n, m = sub.n, sub.m
    x = np.asarray(x, dtype=float).reshape(n)
    x_ref = np.zeros(n) if x_ref is None else np.asarray(x_ref, dtype=float).reshape(n)
    u_ref = np.zeros(m) if u_ref is None else np.asarray(u_ref, dtype=float).reshape(m)
    load_term = np.zeros(n) if load_term is None else np.asarray(load_term, dtype=float).reshape(n)
    compiled = ctrl.compiled
    dev = x - x_ref
    # exact-setpoint shortcut (also makes u = u_ref + kappa(x - x_ref) exact)
    if compiled.admits_shortcut(x_ref, u_ref, load_term):
        sol = compiled.shortcut(dev, x_ref, u_ref)
        if sol is not None:
            return sol
    return compiled.solve_nominal(dev, x_ref, u_ref)


def _nominal_program(ctrl: TubeController) -> QuadraticProgram | LinearProgram:
    """The nominal problem of a controller in shifted coordinates. Its
    right-hand sides are those of the origin setpoint with x = x_ref;
    `CompiledController.solve_nominal` writes the actual ones into a copy."""
    sub, rci, cfg, term = ctrl.sub, ctrl.rci, ctrl.cfg, ctrl.cfg.terminal
    n, m, N, k, q = sub.n, sub.m, cfg.N, rci.k, rci.q
    n_state, n_input = (N + 1) * n, N * m
    base_t = n_state + n_input + k * q  # first epigraph column
    NV = base_t + (N * (n + m) if cfg.cost == "l1" else 0)
    bs = slice(n_state + n_input, base_t)

    def xs(j):
        return slice(j * n, (j + 1) * n)

    def us(j):
        return slice(n_state + j * m, n_state + (j + 1) * m)

    # equalities: nominal dynamics, tube link, unit simplex per block, and
    # the zero-terminal pin
    A_eq = np.zeros(((N + 1) * n + k + (n if term.mode == "zero" else 0), NV))
    b_eq = np.zeros(A_eq.shape[0])
    for j in range(N):
        A_eq[xs(j), xs(j + 1)] = np.eye(n)
        A_eq[xs(j), xs(j)] = -sub.A
        A_eq[xs(j), us(j)] = -sub.B
    # tube link: x - xhat(0) is the scaled beta-combination of block vertices
    A_eq[xs(N), xs(0)] = np.eye(n)
    A_eq[xs(N), bs] = rci.sigma * np.hstack([blk.T for blk in rci.z_blocks])
    for s in range(k):
        A_eq[n_state + s, bs.start + s * q:bs.start + (s + 1) * q] = 1.0
    b_eq[n_state:n_state + k] = 1.0
    if term.mode == "zero":
        A_eq[n_state + k:, xs(N)] = np.eye(n)

    # inequalities: tightened sets per stage, the custom terminal set, then
    # the l1 epigraph rows
    Xhat, V = ctrl.Xhat, ctrl.V
    stage = Xhat.n_rows + V.n_rows
    G = np.zeros((N * stage, NV))
    for j in range(N):
        G[j * stage:j * stage + Xhat.n_rows, xs(j)] = Xhat.C
        G[j * stage + Xhat.n_rows:(j + 1) * stage, us(j)] = V.C
    ub_rows, ub_rhs = [G], [np.tile(np.concatenate([Xhat.d, V.d]), N)]
    if term.mode == "custom":
        row = np.zeros((term.Xf.n_rows, NV))
        row[:, xs(N)] = term.Xf.C
        ub_rows.append(row)
        ub_rhs.append(term.Xf.d)
    if cfg.cost == "l1":  # |Q xdev|_1 + |R vdev|_1 per stage
        for j in range(N):
            t_off = base_t + j * (n + m)
            for Wmat, cols, t in ((cfg.Q, xs(j), slice(t_off, t_off + n)),
                                  (cfg.R, us(j), slice(t_off + n, t_off + n + m))):
                for sign in (1.0, -1.0):
                    row = np.zeros((Wmat.shape[0], NV))
                    row[:, cols] = sign * Wmat
                    row[:, t] = -np.eye(Wmat.shape[0])
                    ub_rows.append(row)
                    ub_rhs.append(np.zeros(Wmat.shape[0]))
    lb = np.full(NV, -np.inf)
    lb[bs] = 0.0
    blocks = dict(A_ub=np.vstack(ub_rows), b_ub=np.concatenate(ub_rhs),
                  A_eq=A_eq, b_eq=b_eq, lb=lb)
    if cfg.cost == "l1":
        c = np.zeros(NV)
        c[base_t:] = 1.0
        return LinearProgram(c, **blocks)
    P = np.zeros((NV, NV))
    for j in range(N):
        P[xs(j), xs(j)] = 2.0 * cfg.Q
        P[us(j), us(j)] = 2.0 * cfg.R
    if term.mode == "custom":
        P[xs(N), xs(N)] = 2.0 * term.S
    return QuadraticProgram(P, np.zeros(NV), **blocks)


def kappa_bar_full(rci: RciDesign, z) -> tuple[np.ndarray, float, np.ndarray]:
    """Invariance control: minimize the uniform block occupancy mu subject to
    representing z with the vertex blocks, then mix the input vertices with
    the optimal coefficients. Returns (u, mu, beta). Feasible for every z
    because the seed block is full-dimensional; exact zeros for z = 0 (no
    control action is needed to stay in the tube)."""
    n = rci.z_blocks[0].shape[1]
    m = rci.u_blocks[0].shape[1]
    z = np.asarray(z, dtype=float).reshape(n)
    if not np.any(z):
        return np.zeros(m), 0.0, np.zeros(rci.k * rci.q)
    x = _occupancy_lp(rci, z, "invariance-control")
    beta = x[1:]
    u = rci.sigma * np.hstack([blk.T for blk in rci.u_blocks]) @ beta
    return u, float(x[0]), beta


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
    x = _occupancy_lp(rci, rci.A @ z + w, "predecessor-aware control", U, v)
    kq = rci.k * rci.q
    return x[1 + kq:], float(x[0]), x[1:1 + kq]


def _occupancy_lp(rci: RciDesign, target, what: str, U: HPolytope | None = None,
                  v=None) -> np.ndarray:
    """The invariance LP of both laws: minimize mu over (mu, beta[, u]), mu
    first, such that each block's coefficients beta_s >= 0 sum to mu and
    sigma sum_s Z_s' beta_s equals target, or, with U given, target + B u
    for an input u with v + u in U. Raises RuntimeError naming `what`
    unless optimal."""
    n = rci.z_blocks[0].shape[1]
    k, q = rci.k, rci.q
    m = 0 if U is None else rci.B.shape[1]
    NV = 1 + k * q + m
    A_eq = np.zeros((k + n, NV))
    b_eq = np.zeros(k + n)
    for s in range(k):
        A_eq[s, 0] = -1.0
        A_eq[s, 1 + s * q: 1 + (s + 1) * q] = 1.0
    A_eq[k:, 1:1 + k * q] = rci.sigma * np.hstack([blk.T for blk in rci.z_blocks])
    b_eq[k:] = target
    lb = np.zeros(NV)
    ub_rows = {}
    if U is not None:
        A_eq[k:, 1 + k * q:] = -rci.B
        lb[1 + k * q:] = -np.inf
        A_ub = np.zeros((U.n_rows, NV))
        A_ub[:, 1 + k * q:] = U.C
        ub_rows = dict(A_ub=A_ub, b_ub=U.d - U.C @ v)
    c = np.zeros(NV)
    c[0] = 1.0
    rep = solve_lp(LinearProgram(c, A_eq=A_eq, b_eq=b_eq, lb=lb, **ub_rows))
    if not rep.optimal:
        raise RuntimeError(f"{what} LP failed: " + rep.status)
    return rep.x


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

    @property
    def path(self) -> str:
        """Where the nominal problem was served: "shortcut", "qp" or "l1"."""
        return self.mpc.path


def step_control(ctrl: TubeController, x, predecessor_states: dict | None = None,
                 couplings: dict | None = None, x_ref=None, u_ref=None,
                 load_term=None) -> tuple[np.ndarray, StepDiagnostics]:
    """One controller evaluation: nominal solve plus invariance correction.

    Given couplings (a distributed run), the predecessor-aware correction
    serves when every predecessor state is available; otherwise it logs and
    falls back to the decentralized law. Both laws are read off the explicit
    tube section when it is available (the predecessor-aware law for one
    input only) and solved as LPs otherwise. An infeasible nominal problem
    raises InfeasibleStep with its status; a failed LP raises it with status
    "numerical-failure".
    """
    sol = solve_mpc(ctrl, x, x_ref=x_ref, u_ref=u_ref, load_term=load_term)
    if not sol.feasible:
        raise InfeasibleStep(ctrl.id, sol.status)
    # on a shortcut step z = x - x_ref is bit for bit the shortcut's dev, so
    # its hz serves the decentralized law
    z = np.asarray(x, dtype=float) - sol.xhat0
    compiled = ctrl.compiled
    try:
        if couplings:
            try:
                u_z, mu, beta = compiled.successor_law(z, sol.v0, predecessor_states or {},
                                                       couplings)
                kappa_mode = "distributed"
            except MissingPredecessorState as e:
                log.warning("%s: %s; falling back to the decentralized law", ctrl.id, e)
                u_z, mu, beta = compiled.law(z, sol.hz)
                kappa_mode = "fallback"
        else:
            u_z, mu, beta = compiled.law(z, sol.hz)
            kappa_mode = "decentralized"
    except RuntimeError as e:  # a failed invariance LP is numerical, not infeasibility
        raise InfeasibleStep(ctrl.id, STATUS_FAILURE) from e
    u = sol.v0 + u_z
    return u, StepDiagnostics(sol.v0, sol.xhat0, mu, beta, sol.objective, kappa_mode, sol)
