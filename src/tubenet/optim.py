"""Uniform LP/QP solver contracts used by every other module.

Linear programs go to scipy's HiGHS backend; quadratic programs are solved by
a self-contained dense primal-dual interior-point method (scipy has no QP).
Both entry points are pure functions: identical inputs give identical outputs.
"""

from __future__ import annotations

import ctypes
import glob
import logging
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import linprog

log = logging.getLogger(__name__)

#: (folder next to numpy, library glob, thread setter, thread getter) of the
#: OpenBLAS builds that numpy and scipy wheels bundle
_OPENBLAS = (
    ("numpy.libs", "libscipy_openblas64_*.so",
     "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy.libs", "libscipy_openblas*.so",
     "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _bundled_openblas() -> list[tuple]:
    """(setter, getter) of every bundled OpenBLAS already loaded here."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    found = []
    for folder, pattern, set_name, get_name in _OPENBLAS:
        for path in sorted(glob.glob(os.path.join(site, folder, pattern))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            except (OSError, AttributeError):
                continue  # not loaded, or another build
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((setter, getter))
    return found


def _pin_blas():
    """Cap the BLAS pool: every matrix here is small and dense, and
    multithreaded kernels lose far more to synchronization than they gain.
    Uses threadpoolctl when installed, else the bundled OpenBLAS setters;
    warns when neither works. Returns what keeps a threadpoolctl limit."""
    raw = os.environ.get("TUBENET_BLAS_THREADS", "1")
    try:
        threads = max(1, int(raw))
    except ValueError:
        log.warning("TUBENET_BLAS_THREADS=%r is not an integer; using 1", raw)
        threads = 1
    try:
        from threadpoolctl import threadpool_limits

        return threadpool_limits(limits=threads, user_api="blas")
    except ImportError:
        pass
    except Exception as e:  # a broken threadpoolctl must not stop the import
        log.warning("threadpoolctl failed (%s); using the bundled OpenBLAS setters", e)
    for setter, _ in _OPENBLAS_API:
        setter(threads)
    if not _OPENBLAS_API:
        log.warning("BLAS threads not capped: neither threadpoolctl nor a bundled "
                    "OpenBLAS is available")
    return None


def blas_threads() -> int | None:
    """Effective BLAS thread count (the largest over the loaded libraries),
    or None when it cannot be read."""
    try:
        from threadpoolctl import threadpool_info

        counts = [lib["num_threads"] for lib in threadpool_info() if lib["user_api"] == "blas"]
    except Exception:  # missing or broken threadpoolctl
        counts = [getter() for _, getter in _OPENBLAS_API]
    return max(counts) if counts else None


_OPENBLAS_API = _bundled_openblas()
_BLAS_LIMIT = _pin_blas()

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_FAILURE = "numerical-failure"

#: margin used to close strict inequalities (x < b becomes x <= b - STRICT_MARGIN)
STRICT_MARGIN = 1e-9


@dataclass(frozen=True)
class ToleranceConfig:
    """Solver tolerances; defaults follow double-precision practice."""

    feas_tol: float = 1e-8
    opt_tol: float = 1e-8
    max_iter: int | None = None  # None: 50 * (n_vars + n_rows)

    def iter_cap(self, n_vars: int, n_rows: int) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return 50 * (n_vars + n_rows)


DEFAULT_LP_TOL = ToleranceConfig(feas_tol=1e-8, opt_tol=1e-8)
DEFAULT_QP_TOL = ToleranceConfig(feas_tol=1e-8, opt_tol=1e-6)


def _as_matrix(M, ncols: int | None, name: str) -> np.ndarray | None:
    if M is None:
        return None
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    if ncols is not None and M.shape[1] != ncols:
        raise ValueError(f"{name} has {M.shape[1]} columns, expected {ncols}")
    return M


def _as_vector(v, length: int | None, name: str, finite: bool = True) -> np.ndarray | None:
    if v is None:
        return None
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if finite and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {length}")
    return v


@dataclass
class LinearProgram:
    """min c'x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub."""

    c: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None  # None means -inf for every variable
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.c = _as_vector(self.c, None, "c")
        n = self.c.shape[0]
        self.A_ub = _as_matrix(self.A_ub, n, "A_ub")
        self.A_eq = _as_matrix(self.A_eq, n, "A_eq")
        self.b_ub = _as_vector(self.b_ub, None if self.A_ub is None else self.A_ub.shape[0], "b_ub")
        self.b_eq = _as_vector(self.b_eq, None if self.A_eq is None else self.A_eq.shape[0], "b_eq")
        if (self.A_ub is None) != (self.b_ub is None) or (self.A_eq is None) != (self.b_eq is None):
            raise ValueError("constraint matrix and rhs must be given together")
        self.lb = _as_vector(self.lb, n, "lb", finite=False)
        self.ub = _as_vector(self.ub, n, "ub", finite=False)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        rows = 0
        if self.A_ub is not None:
            rows += self.A_ub.shape[0]
        if self.A_eq is not None:
            rows += self.A_eq.shape[0]
        return rows

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lb = np.full(self.n, -np.inf) if self.lb is None else self.lb
        ub = np.full(self.n, np.inf) if self.ub is None else self.ub
        return lb, ub


@dataclass
class QuadraticProgram:
    """min 0.5 x'Px + q'x with the same constraint blocks as LinearProgram.

    P must be symmetric (1e-10) and positive semidefinite (eigenvalues >= -1e-8).
    """

    P: np.ndarray
    q: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.q = _as_vector(self.q, None, "q")
        n = self.q.shape[0]
        self.P = _as_matrix(self.P, n, "P")
        if self.P.shape[0] != n:
            raise ValueError(f"P is {self.P.shape}, expected ({n}, {n})")
        if np.max(np.abs(self.P - self.P.T), initial=0.0) > 1e-10:
            raise ValueError("P is not symmetric within 1e-10")
        if np.min(np.linalg.eigvalsh(self.P)) < -1e-8:
            raise ValueError("P is not positive semidefinite (eigenvalue < -1e-8)")
        self.A_ub = _as_matrix(self.A_ub, n, "A_ub")
        self.A_eq = _as_matrix(self.A_eq, n, "A_eq")
        self.b_ub = _as_vector(self.b_ub, None if self.A_ub is None else self.A_ub.shape[0], "b_ub")
        self.b_eq = _as_vector(self.b_eq, None if self.A_eq is None else self.A_eq.shape[0], "b_eq")
        self.lb = _as_vector(self.lb, n, "lb", finite=False)
        self.ub = _as_vector(self.ub, n, "ub", finite=False)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def n_rows(self) -> int:
        rows = 0
        if self.A_ub is not None:
            rows += self.A_ub.shape[0]
        if self.A_eq is not None:
            rows += self.A_eq.shape[0]
        return rows

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lb = np.full(self.n, -np.inf) if self.lb is None else self.lb
        ub = np.full(self.n, np.inf) if self.ub is None else self.ub
        return lb, ub


@dataclass
class SolveReport:
    """Outcome of one LP/QP solve; x and objective are None unless optimal."""

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    residuals: dict = field(default_factory=dict)
    duals: dict = field(default_factory=dict)
    iterations: int = 0
    message: str = ""

    @property
    def optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL


def _primal_residual(p, x) -> float:
    """Max constraint violation at x (0 when feasible)."""
    viol = 0.0
    if p.A_ub is not None:
        viol = max(viol, float(np.max(p.A_ub @ x - p.b_ub, initial=0.0)))
    if p.A_eq is not None:
        viol = max(viol, float(np.max(np.abs(p.A_eq @ x - p.b_eq), initial=0.0)))
    lb, ub = p.bounds_arrays()
    viol = max(viol, float(np.max(lb - x, initial=0.0)))
    viol = max(viol, float(np.max(x - ub, initial=0.0)))
    return viol


_LINPROG_STATUS = {
    0: STATUS_OPTIMAL,
    1: STATUS_FAILURE,   # iteration limit
    2: STATUS_INFEASIBLE,
    3: STATUS_UNBOUNDED,
    4: STATUS_FAILURE,
}


def solve_lp(p: LinearProgram, tol: ToleranceConfig = DEFAULT_LP_TOL,
             backend: str = "highs") -> SolveReport:
    """Solve a linear program.

    Optimal reports carry the primal point, objective, dual marginals and the
    measured feasibility residual. Infeasible/unbounded outcomes are reported
    explicitly, never silently.
    """
    return LP_BACKENDS[backend](p, tol)


def _solve_lp_highs(p: LinearProgram, tol: ToleranceConfig) -> SolveReport:
    lb, ub = p.bounds_arrays()
    res = linprog(
        p.c,
        A_ub=p.A_ub,
        b_ub=p.b_ub,
        A_eq=p.A_eq,
        b_eq=p.b_eq,
        bounds=np.column_stack([lb, ub]),
        method="highs",
        options={
            "maxiter": tol.iter_cap(p.n, p.n_rows),
            "primal_feasibility_tolerance": max(tol.feas_tol * 1e-1, 1e-10),
            "dual_feasibility_tolerance": max(tol.opt_tol * 1e-1, 1e-10),
        },
    )
    status = _LINPROG_STATUS.get(res.status, STATUS_FAILURE)
    if status != STATUS_OPTIMAL:
        return SolveReport(status=status, iterations=int(res.nit), message=res.message)

    x = np.asarray(res.x, dtype=float)
    primal_res = _primal_residual(p, x)
    if primal_res > tol.feas_tol:
        return SolveReport(
            status=STATUS_FAILURE,
            iterations=int(res.nit),
            message=f"reported solution violates constraints by {primal_res:.3e}",
        )
    duals = {
        "ineq": None if res.ineqlin is None else np.asarray(res.ineqlin.marginals, dtype=float),
        "eq": None if res.eqlin is None else np.asarray(res.eqlin.marginals, dtype=float),
        "lower": np.asarray(res.lower.marginals, dtype=float),
        "upper": np.asarray(res.upper.marginals, dtype=float),
    }
    return SolveReport(
        status=STATUS_OPTIMAL,
        x=x,
        objective=float(res.fun),
        residuals={"primal": primal_res},
        duals=duals,
        iterations=int(res.nit),
    )


def lp_dual_objective(p: LinearProgram, report: SolveReport) -> float:
    """Dual objective reconstructed from HiGHS marginals (certifies the primal)."""
    if not report.optimal:
        raise ValueError("dual objective requires an optimal report")
    lb, ub = p.bounds_arrays()
    val = 0.0
    if report.duals["ineq"] is not None and p.b_ub is not None:
        val += float(p.b_ub @ report.duals["ineq"])
    if report.duals["eq"] is not None and p.b_eq is not None:
        val += float(p.b_eq @ report.duals["eq"])
    mask = np.isfinite(lb)
    val += float(lb[mask] @ report.duals["lower"][mask])
    mask = np.isfinite(ub)
    val += float(ub[mask] @ report.duals["upper"][mask])
    return val


def _stack_inequalities(p) -> tuple[np.ndarray, np.ndarray]:
    """Fold A_ub rows and finite variable bounds into a single G x <= h block."""
    n = p.n
    lb, ub = p.bounds_arrays()
    blocks_G, blocks_h = [], []
    if p.A_ub is not None:
        blocks_G.append(p.A_ub)
        blocks_h.append(p.b_ub)
    idx = np.where(np.isfinite(ub))[0]
    if idx.size:
        rows = np.zeros((idx.size, n))
        rows[np.arange(idx.size), idx] = 1.0
        blocks_G.append(rows)
        blocks_h.append(ub[idx])
    idx = np.where(np.isfinite(lb))[0]
    if idx.size:
        rows = np.zeros((idx.size, n))
        rows[np.arange(idx.size), idx] = -1.0
        blocks_G.append(rows)
        blocks_h.append(-lb[idx])
    if not blocks_G:
        return np.zeros((0, n)), np.zeros(0)
    return np.vstack(blocks_G), np.concatenate(blocks_h)


def _solve_kkt_equality(P, q, A, b, reg=1e-12):
    """Solve the equality-constrained QP via its KKT system."""
    n = q.shape[0]
    me = A.shape[0]
    K = np.zeros((n + me, n + me))
    K[:n, :n] = P + reg * np.eye(n)
    K[:n, n:] = A.T
    K[n:, :n] = A
    K[n:, n:] = -reg * np.eye(me)
    rhs = np.concatenate([-q, b])
    sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n:]


def _qp_interior_point(P, q, A, b, G, h, x0, tol: ToleranceConfig, max_iter: int):
    """Mehrotra predictor-corrector for min 0.5 x'Px + q'x, Ax=b, Gx<=h.

    Returns (x, y, z, status, iterations). Assumes a feasible point exists
    (checked by the caller with an LP), so failure to converge is numerical.
    """
    n = q.shape[0]
    me = A.shape[0]
    mi = G.shape[0]
    x = x0.copy()
    y = np.zeros(me)
    s = np.maximum(h - G @ x, 1.0)
    z = np.ones(mi)
    scale = 1.0 + max(np.abs(q).max(initial=0.0), np.abs(h).max(initial=0.0),
                      np.abs(b).max(initial=0.0) if me else 0.0)
    reg = 1e-10 * (1.0 + np.abs(P).max(initial=0.0))

    for it in range(1, max_iter + 1):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s)) and np.all(np.isfinite(z))
                and np.all(s > 0) and np.all(z > 0)):
            return x, y, z, STATUS_FAILURE, it  # iterates degenerated (e.g. infeasible problem)
        r_d = P @ x + q + G.T @ z + (A.T @ y if me else 0.0)
        r_p = (A @ x - b) if me else np.zeros(0)
        r_g = G @ x + s - h
        mu = float(s @ z) / mi
        obj = 0.5 * float(x @ P @ x) + float(q @ x)
        pinf = max(np.abs(r_p).max(initial=0.0), np.abs(r_g).max(initial=0.0))
        dinf = np.abs(r_d).max(initial=0.0)
        comp = float(np.max(s * z, initial=0.0))
        # aim well below the contract tolerance; Mehrotra converges superlinearly
        if (pinf <= 0.1 * tol.feas_tol * scale
                and dinf <= 0.05 * tol.opt_tol * scale
                and comp <= 0.05 * tol.opt_tol * (1.0 + abs(obj))):
            return x, y, z, STATUS_OPTIMAL, it
        if obj < -1e14 * scale and pinf <= tol.feas_tol * scale:
            return x, y, z, STATUS_UNBOUNDED, it

        W = z / s
        M = P + (G.T * W) @ G + reg * np.eye(n)
        K = np.zeros((n + me, n + me))
        K[:n, :n] = M
        if me:
            K[:n, n:] = A.T
            K[n:, :n] = A
            K[n:, n:] = -reg * np.eye(me)
        try:
            lu = lu_factor(K)
        except (np.linalg.LinAlgError, ValueError):
            return x, y, z, STATUS_FAILURE, it

        def newton_step(r_c):
            rhs_x = -r_d - G.T @ ((-r_c + z * r_g) / s)
            rhs = np.concatenate([rhs_x, -r_p]) if me else rhs_x
            if not np.all(np.isfinite(rhs)):
                return None
            sol = lu_solve(lu, rhs)
            dx = sol[:n]
            dy = sol[n:] if me else np.zeros(0)
            ds = -r_g - G @ dx
            dz = (-r_c - z * ds) / s
            return dx, dy, ds, dz

        def step_len(v, dv):
            neg = dv < 0
            if not np.any(neg):
                return 1.0
            return min(1.0, float(np.min(-v[neg] / dv[neg])))

        # predictor
        step = newton_step(s * z)
        if step is None:
            return x, y, z, STATUS_FAILURE, it
        dx_a, dy_a, ds_a, dz_a = step
        alpha_p = step_len(s, ds_a)
        alpha_d = step_len(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / mi
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0
        # corrector
        r_c = s * z - sigma * mu * np.ones(mi) + ds_a * dz_a
        step = newton_step(r_c)
        if step is None:
            return x, y, z, STATUS_FAILURE, it
        dx, dy, ds, dz = step
        alpha_p = 0.99 * step_len(s, ds)
        alpha_d = 0.99 * step_len(z, dz)
        x += alpha_p * dx
        s += alpha_p * ds
        y += alpha_d * dy
        z += alpha_d * dz

    # iteration budget exhausted: accept if the contract tolerance is still met
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s)) and np.all(np.isfinite(z))):
        return x, y, z, STATUS_FAILURE, max_iter
    r_d = P @ x + q + G.T @ z + (A.T @ y if me else 0.0)
    r_p = (A @ x - b) if me else np.zeros(0)
    r_g = G @ x + s - h
    obj = 0.5 * float(x @ P @ x) + float(q @ x)
    pinf = max(np.abs(r_p).max(initial=0.0), np.abs(r_g).max(initial=0.0))
    dinf = np.abs(r_d).max(initial=0.0)
    comp = float(np.max(s * z, initial=0.0))
    if pinf <= tol.feas_tol * scale and dinf <= tol.opt_tol * scale and comp <= tol.opt_tol * (1.0 + abs(obj)):
        return x, y, z, STATUS_OPTIMAL, max_iter
    return x, y, z, STATUS_FAILURE, max_iter


def qp_kkt_residual(p: QuadraticProgram, x: np.ndarray, y_eq: np.ndarray | None,
                    z_ineq: np.ndarray | None) -> float:
    """Max-norm KKT residual (stationarity, feasibility, complementarity)."""
    G, h = _stack_inequalities(p)
    grad = p.P @ x + p.q
    if p.A_eq is not None and y_eq is not None:
        grad = grad + p.A_eq.T @ y_eq
    if G.shape[0] and z_ineq is not None:
        grad = grad + G.T @ z_ineq
    res = float(np.abs(grad).max(initial=0.0))
    res = max(res, _primal_residual(p, x))
    if G.shape[0] and z_ineq is not None:
        res = max(res, float(np.abs(z_ineq * (G @ x - h)).max(initial=0.0)))
    return res


def solve_qp(p: QuadraticProgram, tol: ToleranceConfig = DEFAULT_QP_TOL,
             backend: str = "dense-ipm") -> SolveReport:
    """Solve a convex quadratic program.

    The reference backend is a self-contained dense predictor-corrector
    interior-point method; a failed run is classified with a feasibility LP,
    so infeasibility is always reported, never silent.
    """
    return QP_BACKENDS[backend](p, tol)


def _solve_qp_ipm(p: QuadraticProgram, tol: ToleranceConfig) -> SolveReport:
    n = p.n
    G, h = _stack_inequalities(p)
    has_eq = p.A_eq is not None and p.A_eq.shape[0] > 0

    if G.shape[0] == 0 and not has_eq:
        x, _, _, _ = np.linalg.lstsq(p.P, -p.q, rcond=None)
        if np.abs(p.P @ x + p.q).max(initial=0.0) > 1e-7 * (1.0 + np.abs(p.q).max(initial=0.0)):
            return SolveReport(status=STATUS_UNBOUNDED, message="objective unbounded below")
        obj = 0.5 * float(x @ p.P @ x) + float(p.q @ x)
        return SolveReport(status=STATUS_OPTIMAL, x=x, objective=obj,
                           residuals={"primal": 0.0, "kkt": float(np.abs(p.P @ x + p.q).max(initial=0.0))})

    A = p.A_eq if has_eq else np.zeros((0, n))
    b = p.b_eq if has_eq else np.zeros(0)

    if G.shape[0] == 0:
        x, y = _solve_kkt_equality(p.P, p.q, A, b)
        kkt = qp_kkt_residual(p, x, y, None)
        if kkt > tol.opt_tol * (1.0 + np.abs(p.q).max(initial=0.0)):
            return SolveReport(status=STATUS_FAILURE, message=f"KKT residual {kkt:.3e}")
        obj = 0.5 * float(x @ p.P @ x) + float(p.q @ x)
        return SolveReport(status=STATUS_OPTIMAL, x=x, objective=obj,
                           residuals={"primal": _primal_residual(p, x), "kkt": kkt},
                           duals={"eq": y})

    max_iter = max(min(tol.iter_cap(n, p.n_rows), 200), 50)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, y, z, status, iters = _qp_interior_point(p.P, p.q, A, b, G, h, np.zeros(n), tol, max_iter)
    if status != STATUS_OPTIMAL:
        # classify: run the feasibility LP only on the failure path
        feas = solve_lp(
            LinearProgram(np.zeros(n), A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq,
                          lb=p.lb, ub=p.ub),
            ToleranceConfig(feas_tol=tol.feas_tol, opt_tol=tol.feas_tol),
        )
        if feas.status == STATUS_INFEASIBLE:
            return SolveReport(status=STATUS_INFEASIBLE, message="constraints are infeasible")
        if feas.status == STATUS_OPTIMAL and status == STATUS_FAILURE:
            # provably feasible: retry once from the certified point
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                x, y, z, status, iters = _qp_interior_point(
                    p.P, p.q, A, b, G, h, feas.x, tol, 2 * max_iter)
    if status != STATUS_OPTIMAL:
        return SolveReport(status=status, iterations=iters, message="interior point did not converge"
                           if status == STATUS_FAILURE else "")
    kkt = qp_kkt_residual(p, x, y if has_eq else None, z)
    obj = 0.5 * float(x @ p.P @ x) + float(p.q @ x)
    return SolveReport(
        status=STATUS_OPTIMAL,
        x=x,
        objective=obj,
        residuals={"primal": _primal_residual(p, x), "kkt": kkt},
        duals={"eq": y if has_eq else None, "ineq": z},
        iterations=iters,
    )


#: solver registries; register alternatives here, the defaults stay in-process
LP_BACKENDS = {"highs": _solve_lp_highs}
QP_BACKENDS = {"dense-ipm": _solve_qp_ipm}
