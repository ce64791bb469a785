"""Robust-control-invariant set synthesis through a single affine program.

The invariant set is parametrized as a scaled Minkowski sum of k vertex
blocks: block 0 is a fixed box seeded around the coupling disturbance, blocks
1..k-1 are decision variables chained by the one-step dynamics, and the k-th
block must fold back into alpha times block 0. Feasibility of the resulting
LP certifies invariance; everything downstream reuses the vertex blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import HPolytope, VAggregate, VPolytope, box_vertices
from .model import Network, Subsystem, controllability_index, disturbance_set
from .optim import STRICT_MARGIN, LinearProgram, SolveReport, ToleranceConfig, solve_lp

__all__ = [
    "DesignError",
    "RciConfig",
    "ThetaProblem",
    "RciDesign",
    "DesignFailure",
    "build_z0",
    "default_omega",
    "assemble_theta",
    "synthesize_rci",
    "synthesize_rci_from_w",
]

THETA_TOL = ToleranceConfig(feas_tol=1e-9, opt_tol=1e-9)


class DesignError(Exception):
    """Hard design-step failure (construction impossible with given data)."""


@dataclass
class RciConfig:
    """Synthesis knobs: step count k, vertices per block q, seed inflation omega.

    Unset fields are derived: k from the controllability index, omega from the
    slack between the disturbance set and the state constraints, q from the
    seed box (2^n corners plus the origin).
    """

    k: int | None = None
    q: int | None = None
    omega: float | None = None
    minimize_alpha: bool = False
    retries: int = 3  # additional k values tried before giving up

    def validate(self, sub: Subsystem):
        ci = controllability_index(sub.A, sub.B)
        if self.k is not None and self.k < ci:
            raise DesignError(f"k={self.k} is below the controllability index {ci}")
        if self.q is not None and self.q < sub.n + 1:
            raise DesignError(f"q={self.q} must be at least n+1={sub.n + 1}")
        if self.omega is not None and self.omega <= 0:
            raise DesignError("omega must be positive")
        if self.retries < 0:
            raise DesignError("retries must be nonnegative")


@dataclass
class DesignFailure:
    """Soft, expected outcome: the feasibility program has no solution."""

    subsystem_id: str
    reason: str
    attempted_k: list[int] = field(default_factory=list)

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("check isinstance(result, DesignFailure) explicitly")


def default_omega(W: VAggregate, X: HPolytope, fraction: float = 0.01) -> float:
    """Small inflation radius keeping the seed box strictly inside X.

    Uses a fraction of the smallest normalized facet slack of X over W;
    non-positive slack means the coupling disturbance is too large.
    """
    norms = np.linalg.norm(X.C, axis=1)
    slacks = np.array([(X.d[r] - W.support(X.C[r])) / norms[r] for r in range(X.n_rows)])
    min_slack = float(slacks.min())
    if min_slack <= 0:
        raise DesignError(
            "disturbance set reaches the state constraints; no invariant set can exist")
    return fraction * min_slack


def build_z0(W: VAggregate, omega: float, X: HPolytope) -> VPolytope:
    """Seed block: interval hull of W inflated by omega, origin as vertex 1.

    The inflation uses the max-norm box, which contains the Euclidean ball of
    the same radius, so the seed covers every disturbance plus the ball.
    Every corner must sit strictly inside X (margin 1e-9).
    """
    if omega <= 0:
        raise DesignError("omega must be positive")
    lo, hi = W.bounds()
    corners = box_vertices(lo - omega, hi + omega)
    margins = X.d[None, :] - corners @ X.C.T
    if np.min(margins) < 1e-9:
        raise DesignError(
            "cannot construct the seed block: inflated disturbance box leaves the "
            "state constraints (shrink omega or reduce coupling)")
    verts = np.vstack([np.zeros((1, W.n)), corners])
    return VPolytope(verts)


class ThetaProblem:
    """Index bookkeeping and assembly for the invariant-set feasibility LP.

    Decision variables, in order: state vertices z(s,f) for s in 1..k, input
    vertices u(s,f) for s in 0..k-1, the folding multipliers rho(f1,f2), the
    per-row input budgets psi(r,s), state budgets gamma(r,s), and alpha.
    Vertex 1 of every block is pinned to the origin.
    """

    def __init__(self, sub: Subsystem, z0: VPolytope, k: int):
        self.sub = sub
        self.z0 = z0
        self.k = int(k)
        self.q = z0.n_vertices
        self.n = sub.n
        self.m = sub.m
        self.g = sub.X.n_rows
        self.l = sub.U.n_rows
        if not np.allclose(z0.vertices[0], 0.0):
            raise DesignError("seed block must carry the origin as vertex 1")
        n, m, k, q = self.n, self.m, self.k, self.q
        self._base_u = k * q * n
        self._base_rho = self._base_u + k * q * m
        self._base_psi = self._base_rho + q * q
        self._base_gamma = self._base_psi + self.l * k
        self.n_vars = self._base_gamma + self.g * k + 1
        self.alpha_idx = self.n_vars - 1

    # -- variable index helpers (f is 0-based here) --
    def z_idx(self, s: int, f: int) -> slice:
        assert 1 <= s <= self.k
        start = ((s - 1) * self.q + f) * self.n
        return slice(start, start + self.n)

    def u_idx(self, s: int, f: int) -> slice:
        assert 0 <= s <= self.k - 1
        start = self._base_u + (s * self.q + f) * self.m
        return slice(start, start + self.m)

    def rho_idx(self, f1: int, f2: int) -> int:
        return self._base_rho + f1 * self.q + f2

    def psi_idx(self, r: int, s: int) -> int:
        return self._base_psi + r * self.k + s

    def gamma_idx(self, r: int, s: int) -> int:
        return self._base_gamma + r * self.k + s

    def build_lp(self, minimize_alpha: bool = False) -> LinearProgram:
        n, m, k, q = self.n, self.m, self.k, self.q
        A, B = self.sub.A, self.sub.B
        Cx, dx = self.sub.X.C, self.sub.X.d
        Cu, du = self.sub.U.C, self.sub.U.d
        z0v = self.z0.vertices
        N = self.n_vars

        eq_rows, eq_rhs = [], []

        def new_eq(count):
            block = np.zeros((count, N))
            eq_rows.append(block)
            return block

        # one-step chain: z(s+1,f) = A z(s,f) + B u(s,f)
        for s in range(0, k):
            for f in range(q):
                blk = new_eq(n)
                blk[:, self.z_idx(s + 1, f)] = np.eye(n)
                blk[:, self.u_idx(s, f)] = -B
                if s == 0:
                    eq_rhs.append(A @ z0v[f])
                else:
                    blk[:, self.z_idx(s, f)] = -A
                    eq_rhs.append(np.zeros(n))
        # fold-back: z(k,f1) = sum_f2 rho(f1,f2) z0(f2)
        for f1 in range(q):
            blk = new_eq(n)
            blk[:, self.z_idx(k, f1)] = np.eye(n)
            for f2 in range(q):
                blk[:, self.rho_idx(f1, f2)] = -z0v[f2]
            eq_rhs.append(np.zeros(n))
        # origin pins for vertex 1 of every block
        for s in range(1, k + 1):
            blk = new_eq(n)
            blk[:, self.z_idx(s, 0)] = np.eye(n)
            eq_rhs.append(np.zeros(n))
        for s in range(0, k):
            blk = new_eq(m)
            blk[:, self.u_idx(s, 0)] = np.eye(m)
            eq_rhs.append(np.zeros(m))

        A_eq = np.vstack(eq_rows)
        b_eq = np.concatenate(eq_rhs)

        ub_rows, ub_rhs = [], []

        def add_ub(row, rhs):
            ub_rows.append(row)
            ub_rhs.append(rhs)

        # folding budget: sum_f2 rho(f1,f2) <= alpha
        for f1 in range(q):
            row = np.zeros(N)
            for f2 in range(q):
                row[self.rho_idx(f1, f2)] = 1.0
            row[self.alpha_idx] = -1.0
            add_ub(row, 0.0)
        # input budget rows (strict, closed by the margin)
        for r in range(self.l):
            row = np.zeros(N)
            for s in range(k):
                row[self.psi_idx(r, s)] = 1.0
            row[self.alpha_idx] = du[r]
            add_ub(row, du[r] - STRICT_MARGIN)
            for s in range(k):
                for f in range(q):
                    row = np.zeros(N)
                    row[self.u_idx(s, f)] = Cu[r]
                    row[self.psi_idx(r, s)] = -1.0
                    add_ub(row, 0.0)
        # state budget rows
        for r in range(self.g):
            row = np.zeros(N)
            for s in range(k):
                row[self.gamma_idx(r, s)] = 1.0
            row[self.alpha_idx] = dx[r]
            add_ub(row, dx[r] - STRICT_MARGIN)
            for s in range(k):  # s counts the blocks entering the invariant sum
                for f in range(q):
                    row = np.zeros(N)
                    row[self.gamma_idx(r, s)] = -1.0
                    if s == 0:
                        add_ub(row, -float(Cx[r] @ z0v[f]))
                    else:
                        row[self.z_idx(s, f)] = Cx[r]
                        add_ub(row, 0.0)

        lb = np.full(N, -np.inf)
        ub = np.full(N, np.inf)
        lb[self._base_rho:self._base_rho + q * q] = 0.0
        lb[self.alpha_idx] = 0.0
        ub[self.alpha_idx] = 1.0 - STRICT_MARGIN

        c = np.zeros(N)
        if minimize_alpha:
            c[self.alpha_idx] = 1.0
        return LinearProgram(c, A_ub=np.vstack(ub_rows), b_ub=np.array(ub_rhs),
                             A_eq=A_eq, b_eq=b_eq, lb=lb, ub=ub)

    def refinement_lp(self, base: LinearProgram, alpha_cap: float) -> LinearProgram:
        """Second, tie-breaking pass: keep alpha at or below the achieved value
        and minimize the normalized facet budgets, which upper-bound the
        support of the invariant set along every constraint row. Smaller
        budgets mean a thinner tube and roomier tightened sets."""
        c = np.zeros(self.n_vars)
        for r in range(self.g):
            for s in range(self.k):
                c[self.gamma_idx(r, s)] = 1.0 / self.sub.X.d[r]
        for r in range(self.l):
            for s in range(self.k):
                c[self.psi_idx(r, s)] = 1.0 / self.sub.U.d[r]
        ub = base.ub.copy()
        ub[self.alpha_idx] = alpha_cap
        return LinearProgram(c, A_ub=base.A_ub, b_ub=base.b_ub,
                             A_eq=base.A_eq, b_eq=base.b_eq, lb=base.lb, ub=ub)

    def extract(self, x: np.ndarray):
        """Split a solution vector into alpha and the vertex/multiplier blocks."""
        k, q, n, m = self.k, self.q, self.n, self.m
        alpha = float(x[self.alpha_idx])
        if alpha <= 0.0:  # the LP can report -0.0 or a tiny negative value
            alpha = 0.0
        z_blocks = [self.z0.vertices.copy()]
        for s in range(1, k):
            z_blocks.append(np.vstack([x[self.z_idx(s, f)] for f in range(q)]))
        z_terminal = np.vstack([x[self.z_idx(k, f)] for f in range(q)])
        u_blocks = [np.vstack([x[self.u_idx(s, f)] for f in range(q)]) for s in range(k)]
        rho = np.array([[x[self.rho_idx(f1, f2)] for f2 in range(q)] for f1 in range(q)])
        return alpha, z_blocks, u_blocks, z_terminal, rho


def assemble_theta(sub: Subsystem, z0: VPolytope, cfg: RciConfig) -> LinearProgram:
    """Feasibility LP whose solutions parametrize an invariant set for sub."""
    cfg.validate(sub)
    k = cfg.k if cfg.k is not None else controllability_index(sub.A, sub.B)
    problem = ThetaProblem(sub, z0, k)
    if cfg.q is not None and cfg.q != problem.q:
        raise DesignError(f"q={cfg.q} does not match the seed block ({problem.q} vertices)")
    return problem.build_lp(minimize_alpha=cfg.minimize_alpha)


@dataclass
class RciDesign:
    """Solved invariant-set parametrization for one subsystem.

    z_blocks/u_blocks hold the k vertex blocks (block 0 is the seed); the
    invariant set and its input set are their Minkowski sums scaled by
    1/(1-alpha), kept implicit as VAggregate values.
    """

    subsystem_id: str
    alpha: float
    k: int
    q: int
    omega: float
    z_blocks: list[np.ndarray]
    u_blocks: list[np.ndarray]
    z0: VPolytope
    w_set: VAggregate
    z_terminal: np.ndarray
    rho: np.ndarray
    A: np.ndarray
    B: np.ndarray

    @property
    def sigma(self) -> float:
        return 1.0 / (1.0 - self.alpha)

    def z_set(self) -> VAggregate:
        return VAggregate([VPolytope(b) for b in self.z_blocks], self.sigma)

    def u_set(self) -> VAggregate:
        return VAggregate([VPolytope(b) for b in self.u_blocks], self.sigma)

    def inclusion_slacks(self, X: HPolytope, U: HPolytope):
        """Per-facet slack of the invariant set inside X and its inputs inside U."""
        Z = self.z_set()
        Uz = self.u_set()
        sx = np.array([X.d[r] - Z.support(X.C[r]) for r in range(X.n_rows)])
        su = np.array([U.d[r] - Uz.support(U.C[r]) for r in range(U.n_rows)])
        return sx, su


def synthesize_rci_from_w(sub: Subsystem, W: VAggregate,
                          cfg: RciConfig | None = None) -> RciDesign | DesignFailure:
    """Run the design for a given coupling-disturbance set (design locality:
    only predecessor data enters through W)."""
    cfg = cfg or RciConfig()
    try:
        cfg.validate(sub)
        omega = cfg.omega if cfg.omega is not None else default_omega(W, sub.X)
        z0 = build_z0(W, omega, sub.X)
    except DesignError as e:
        return DesignFailure(sub.id, str(e))

    ci = controllability_index(sub.A, sub.B)
    k_start = max(cfg.k if cfg.k is not None else ci, ci)
    attempted = []
    last: SolveReport | None = None
    for k in range(k_start, k_start + cfg.retries + 1):
        attempted.append(k)
        problem = ThetaProblem(sub, z0, k)
        lp = problem.build_lp(minimize_alpha=cfg.minimize_alpha)
        rep = solve_lp(lp, THETA_TOL)
        last = rep
        if not rep.optimal:
            continue
        # tie-break: among parametrizations with this alpha, pick a thin tube
        refined = solve_lp(problem.refinement_lp(lp, float(rep.x[problem.alpha_idx])), THETA_TOL)
        if refined.optimal:
            rep = refined
        alpha, z_blocks, u_blocks, z_term, rho = problem.extract(rep.x)
        design = RciDesign(sub.id, alpha, k, problem.q, omega, z_blocks, u_blocks,
                           z0, W, z_term, rho, sub.A.copy(), sub.B.copy())
        sx, su = design.inclusion_slacks(sub.X, sub.U)
        if sx.min() <= 0 or su.min() <= 0:
            return DesignFailure(sub.id, "solved design violates the strict inclusion margins",
                                 attempted)
        return design
    reason = "feasibility LP infeasible for all attempted k" if last is not None else "no attempt ran"
    if last is not None and last.status not in ("infeasible", "optimal"):
        reason = f"feasibility LP ended with status {last.status}"
    return DesignFailure(sub.id, reason, attempted)


def synthesize_rci(sub: Subsystem, net: Network,
                   cfg: RciConfig | None = None) -> RciDesign | DesignFailure:
    """Design the invariant set for one subsystem of a network."""
    return synthesize_rci_from_w(sub, disturbance_set(net, sub.id), cfg)
