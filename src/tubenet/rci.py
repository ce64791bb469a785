"""Robust-control-invariant set synthesis through a single affine program.

The invariant set is parametrized as a scaled Minkowski sum of k vertex
blocks: block 0 is a fixed box seeded around the coupling disturbance, blocks
1..k-1 are decision variables chained by the one-step dynamics, and the k-th
block must fold back into alpha times block 0. Feasibility of the resulting
LP certifies invariance; everything downstream reuses the vertex blocks.
When alpha is minimized and its minimum is 0, one LP per subsystem does the
whole design: the thin-tube tie-break solved at alpha = 0. Otherwise two run:
min alpha, then the tie-break at the achieved alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import HPolytope, VAggregate, VPolytope, box_vertices
from .model import Subsystem, controllability_index
from .optim import STRICT_MARGIN, LinearProgram, SolveReport, ToleranceConfig, solve_lp

__all__ = [
    "DesignError",
    "RciConfig",
    "ThetaProblem",
    "RciDesign",
    "DesignFailure",
    "build_z0",
    "default_omega",
    "synthesize_rci_from_w",
]

THETA_TOL = ToleranceConfig(feas_tol=1e-9, opt_tol=1e-9)


class DesignError(Exception):
    """Hard design-step failure (construction impossible with given data)."""


@dataclass
class RciConfig:
    """Synthesis knobs: step count k and seed inflation omega.

    Unset fields are derived: k from the controllability index, omega from the
    slack between the disturbance set and the state constraints. Every block
    has the seed box's 2^n corners plus the origin as vertices.
    """

    k: int | None = None
    omega: float | None = None
    minimize_alpha: bool = False
    retries: int = 3  # additional k values tried before giving up

    def validate(self, sub: Subsystem):
        ci = controllability_index(sub.A, sub.B)
        if self.k is not None and self.k < ci:
            raise DesignError(f"k={self.k} is below the controllability index {ci}")
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
    slacks = (X.d - W.support(X.C)) / np.linalg.norm(X.C, axis=1)
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


def _coo(entries, shape) -> sp.coo_array:
    """A sparse matrix from (rows, cols, values) blocks, each broadcast to
    one shape. No (row, col) pair may repeat."""
    flat = [[a.ravel() for a in np.broadcast_arrays(*e)] for e in entries]
    rows, cols, vals = (np.concatenate(part) for part in zip(*flat))
    return sp.coo_array((vals.astype(float), (rows, cols)), shape=shape)


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

    def build_lp(self, minimize_alpha: bool = False) -> LinearProgram:
        """The feasibility LP, its blocks assembled as sparse COO triplets.

        Equality rows, in order: the one-step chain z(s+1,f) = A z(s,f) +
        B u(s,f) (z(0,f) is the seed vertex, so s = 0 has A z0(f) as rhs),
        the fold-back z(k,f1) = sum_f2 rho(f1,f2) z0(f2), and the origin pins
        of z(s,1) and u(s,1). Inequality rows: the folding budgets
        sum_f2 rho(f1,f2) <= alpha; then, per input row r, the budget
        sum_s psi(r,s) + alpha du(r) <= du(r) and its vertex rows
        Cu(r) u(s,f) <= psi(r,s); then, per state row r, the same with gamma,
        Cx(r) and z(s,f), the s = 0 rows bounding the seed vertices. Budgets
        are strict, closed by STRICT_MARGIN.
        """
        n, m, k, q, g, l = self.n, self.m, self.k, self.q, self.g, self.l
        A, B = self.sub.A, self.sub.B
        Cx, dx = self.sub.X.C, self.sub.X.d
        Cu, du = self.sub.U.C, self.sub.U.d
        z0v = self.z0.vertices
        N, base_u = self.n_vars, self._base_u
        ar = np.arange
        i, j, f = ar(n), ar(m), ar(q)
        # z(s,f)[i], s >= 1, is column ((s-1)q + f)n + i; u(s,f)[j] is base_u + (sq + f)m + j
        sf = ar(k * q)[:, None, None]  # (s, f) of the chain rows, s = 0..k-1
        fold, pins = k * q * n, (k + 1) * q * n
        n_eq = pins + k * (n + m)
        A_eq = _coo([
            (ar(fold), ar(fold), 1.0),                                  # z(s+1,f)
            (sf * n + i[:, None], base_u + sf * m + j, -B),              # -B u(s,f)
            (sf[q:] * n + i[:, None], (sf[q:] - q) * n + i, -A),         # -A z(s,f), s >= 1
            (fold + ar(q * n), (k - 1) * q * n + ar(q * n), 1.0),        # z(k,f1)
            (fold + f[:, None, None] * n + i[:, None],                   # -z0(f2) rho(f1,f2)
             self._base_rho + f[:, None, None] * q + f, -z0v.T),
            (pins + ar(k * n).reshape(k, n), ar(k)[:, None] * q * n + i, 1.0),
            (pins + k * n + ar(k * m).reshape(k, m), base_u + ar(k)[:, None] * q * m + j, 1.0),
        ], (n_eq, N))
        b_eq = np.concatenate([np.concatenate([A @ v for v in z0v]), np.zeros(n_eq - q * n)])

        per_row = 1 + k * q  # a budget row and its vertex rows
        first_u, first_x = q, q + l * per_row
        budget_u, budget_x = first_u + ar(l) * per_row, first_x + ar(g) * per_row
        vertex_u = (budget_u + 1)[:, None, None] + ar(k * q).reshape(k, q)  # (r, s, f)
        vertex_x = (budget_x + 1)[:, None, None] + ar(k * q).reshape(k, q)
        entries = [(f[:, None], self._base_rho + f[:, None] * q + f, 1.0),  # rho(f1,f2)
                   (f, self.alpha_idx, -1.0)]                                # -alpha
        for budget, vertex, base, d in ((budget_u, vertex_u, self._base_psi, du),
                                        (budget_x, vertex_x, self._base_gamma, dx)):
            var = base + ar(budget.size)[:, None] * k + ar(k)  # psi(r,s) or gamma(r,s)
            entries += [(budget[:, None], var, 1.0), (budget, self.alpha_idx, d),
                        (vertex, var[:, :, None], -1.0)]
        entries += [(vertex_u[..., None], base_u + ar(k * q).reshape(k, q, 1) * m + j,
                     Cu[:, None, None, :]),                                  # Cu(r) u(s,f)
                    (vertex_x[:, 1:, :, None], ar((k - 1) * q).reshape(k - 1, q, 1) * n + i,
                     Cx[:, None, None, :])]                                  # Cx(r) z(s,f), s >= 1
        n_ub = first_x + g * per_row
        A_ub = _coo(entries, (n_ub, N))
        b_ub = np.zeros(n_ub)
        b_ub[budget_u] = du - STRICT_MARGIN
        b_ub[budget_x] = dx - STRICT_MARGIN
        b_ub[vertex_x[:, 0]] = [[-float(Cx[r] @ v) for v in z0v] for r in range(g)]

        lb = np.full(N, -np.inf)
        ub = np.full(N, np.inf)
        lb[self._base_rho:self._base_rho + q * q] = 0.0
        lb[self.alpha_idx] = 0.0
        ub[self.alpha_idx] = 1.0 - STRICT_MARGIN

        c = np.zeros(N)
        if minimize_alpha:
            c[self.alpha_idx] = 1.0
        return LinearProgram(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, lb=lb, ub=ub)

    def refinement_lp(self, base: LinearProgram, alpha_cap: float) -> LinearProgram:
        """Tie-breaking pass: keep alpha at or below alpha_cap and minimize
        the normalized facet budgets, which upper-bound the support of the
        invariant set along every constraint row. Smaller budgets mean a
        thinner tube and roomier tightened sets. With alpha_cap = 0 it is
        the whole design when it is feasible (alpha >= 0 is a bound, so its
        optimum also minimizes alpha); otherwise it follows a solved min
        alpha at the achieved value. The copy shares the constraint matrix
        of base."""
        c = np.zeros(self.n_vars)
        c[self._base_gamma:self._base_gamma + self.g * self.k] = np.repeat(1.0 / self.sub.X.d,
                                                                           self.k)
        c[self._base_psi:self._base_psi + self.l * self.k] = np.repeat(1.0 / self.sub.U.d, self.k)
        ub = base.ub.copy()
        ub[self.alpha_idx] = alpha_cap
        return base.with_objective(c, ub)

    def extract(self, x: np.ndarray):
        """Split a solution vector into alpha and the vertex/multiplier blocks."""
        k, q, n, m = self.k, self.q, self.n, self.m
        alpha = float(x[self.alpha_idx])
        if alpha <= 0.0:  # the LP can report -0.0 or a tiny negative value
            alpha = 0.0
        z = x[:self._base_u].reshape(k, q, n).copy()  # z(s,f) for s = 1..k
        u = x[self._base_u:self._base_rho].reshape(k, q, m).copy()
        rho = x[self._base_rho:self._base_psi].reshape(q, q).copy()
        return alpha, [self.z0.vertices.copy(), *z[:-1]], list(u), z[-1], rho


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
        return X.d - self.z_set().support(X.C), U.d - self.u_set().support(U.C)


def synthesize_rci_from_w(sub: Subsystem, W: VAggregate,
                          cfg: RciConfig | None = None) -> RciDesign | DesignFailure:
    """Run the design for a given coupling-disturbance set (design locality:
    only predecessor data enters through W).

    For each k from the controllability index on (cfg.retries more on
    failure): with cfg.minimize_alpha, the tie-break LP at alpha = 0 comes
    first, and when it is optimal it is the design, in one LP. Otherwise the
    feasibility LP (min alpha with cfg.minimize_alpha) runs, and the
    tie-break at its alpha refines it. The failure reason names the status of
    the last feasibility LP."""
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
        # alpha >= 0 is a bound, so a thin-tube LP that is optimal at alpha = 0
        # proves min alpha = 0 and is the tie-break the two passes would solve
        rep = solve_lp(problem.refinement_lp(lp, 0.0), THETA_TOL) if cfg.minimize_alpha else None
        if rep is None or not rep.optimal:
            rep = last = solve_lp(lp, THETA_TOL)
            if not rep.optimal:
                continue
            # tie-break: among parametrizations with this alpha, pick a thin tube
            refined = solve_lp(problem.refinement_lp(lp, float(rep.x[problem.alpha_idx])),
                               THETA_TOL)
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

