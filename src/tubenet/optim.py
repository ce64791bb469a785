"""Uniform LP/QP solver contracts used by every other module.

Linear programs go to HiGHS (Huangfu & Hall 2018, dual simplex) in one
call on CSC data, through the wrapper that scipy's linprog itself calls;
the stacked constraint matrix is built once per program. Quadratic
programs take one path: the equalities are eliminated over their null
space once per program, and each solve runs proximal-point outer steps,
each one least-distance problem solved by `scipy.optimize.nnls` (Bemporad,
IEEE TAC 2016 and 2018).
"infeasible" and "unbounded" come with a certificate checked on the
original data; every other non-optimal outcome is a numerical failure.
Both entry points are pure functions: identical inputs give identical outputs.
"""

from __future__ import annotations

import copy
import ctypes
import glob
import logging
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.optimize import _linprog_highs, nnls
from scipy.optimize._highspy import _core as _highs

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
    """Cap the BLAS pool at one thread: every matrix here is small and dense,
    and multithreaded kernels lose far more to synchronization than they
    gain. Uses threadpoolctl when installed, else the bundled OpenBLAS
    setters; warns when neither works. Returns what keeps a threadpoolctl
    limit."""
    try:
        from threadpoolctl import threadpool_limits

        return threadpool_limits(limits=1, user_api="blas")
    except ImportError:
        pass
    except Exception as e:  # a broken threadpoolctl must not stop the import
        log.warning("threadpoolctl failed (%s); using the bundled OpenBLAS setters", e)
    for setter, _ in _OPENBLAS_API:
        setter(1)
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

#: proximal weight of the QP outer steps: Z'PZ + PROX_EPS I is positive
#: definite for every positive semidefinite P. Larger values take more outer
#: steps (with 1e-3, 4 of 19 power-4 nominal QPs hit PROX_STEPS); smaller
#: ones lose accuracy in the factor (with 1e-6, the worst truck primal
#: residual rose from 8e-10 to 6e-9)
PROX_EPS = 1e-5
#: outer steps before a QP that has not converged is classified
PROX_STEPS = 200


@dataclass(frozen=True)
class ToleranceConfig:
    """Solver tolerances; defaults follow double-precision practice."""

    feas_tol: float = 1e-8
    opt_tol: float = 1e-8

    def iter_cap(self, n_vars: int, n_rows: int) -> int:
        return 50 * (n_vars + n_rows)


DEFAULT_LP_TOL = ToleranceConfig(feas_tol=1e-8, opt_tol=1e-8)
DEFAULT_QP_TOL = ToleranceConfig(feas_tol=1e-8, opt_tol=1e-6)


def _as_matrix(M, ncols: int | None, name: str, sparse: bool = False):
    """M as a float matrix, checked: a dense 2-d array, or a CSC array when
    sparse input is allowed and M is a scipy.sparse matrix."""
    if M is None:
        return None
    if sparse and sp.issparse(M):
        M = sp.csc_array(M, dtype=float)
        values = M.data
    else:
        M = values = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(values)):
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


@dataclass(kw_only=True)
class _Constrained:
    """Constraint blocks shared by LinearProgram and QuadraticProgram:
    A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub."""

    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None  # None means -inf for every variable
    ub: np.ndarray | None = None

    def _coerce_constraints(self, n: int, sparse: bool = False):
        self.A_ub = _as_matrix(self.A_ub, n, "A_ub", sparse)
        self.A_eq = _as_matrix(self.A_eq, n, "A_eq", sparse)
        self.b_ub = _as_vector(self.b_ub, None if self.A_ub is None else self.A_ub.shape[0], "b_ub")
        self.b_eq = _as_vector(self.b_eq, None if self.A_eq is None else self.A_eq.shape[0], "b_eq")
        if (self.A_ub is None) != (self.b_ub is None) or (self.A_eq is None) != (self.b_eq is None):
            raise ValueError("constraint matrix and rhs must be given together")
        self.lb = _as_vector(self.lb, n, "lb", finite=False)
        self.ub = _as_vector(self.ub, n, "ub", finite=False)

    def with_rhs(self, b_ub=None, b_eq=None):
        """A copy with new right-hand sides, checked like the originals. The
        matrices, bounds and objective are shared, not copied or re-checked:
        a program validated once can be solved for many right-hand sides."""
        p = copy.copy(self)
        if b_ub is not None:
            p.b_ub = _as_vector(b_ub, self.A_ub.shape[0], "b_ub")
        if b_eq is not None:
            p.b_eq = _as_vector(b_eq, self.A_eq.shape[0], "b_eq")
        return p

    @property
    def n_rows(self) -> int:
        return sum(A.shape[0] for A in (self.A_ub, self.A_eq) if A is not None)

    def row_values(self, x) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(A_ub x, A_eq x), None for an absent block."""
        return tuple(None if A is None else A @ x for A in (self.A_ub, self.A_eq))

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lb = np.full(self.n, -np.inf) if self.lb is None else self.lb
        ub = np.full(self.n, np.inf) if self.ub is None else self.ub
        return lb, ub


@dataclass
class LinearProgram(_Constrained):
    """min c'x subject to the constraint blocks.

    A_ub and A_eq may be dense or scipy.sparse. They are stacked here, once,
    into the one CSC matrix [A_ub; A_eq] that every solve hands to HiGHS;
    copies made by `with_rhs` and `with_objective` share it.
    """

    c: np.ndarray

    def __post_init__(self):
        self.c = _as_vector(self.c, None, "c")
        self._coerce_constraints(self.n, sparse=True)
        self._rows = _stack_rows([A for A in (self.A_ub, self.A_eq) if A is not None], self.n)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def with_objective(self, c, ub=None) -> "LinearProgram":
        """A copy with a new objective and, when given, new upper bounds,
        checked like the originals; the constraints are shared."""
        p = copy.copy(self)
        p.c = _as_vector(c, self.n, "c")
        if ub is not None:
            p.ub = _as_vector(ub, self.n, "ub", finite=False)
        return p

    def row_values(self, x) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(A_ub x, A_eq x) from the stacked matrix, so that a dense block and
        its sparse form give the same bits."""
        ax = self._rows @ x
        n_ub = 0 if self.A_ub is None else self.A_ub.shape[0]
        return (None if self.A_ub is None else ax[:n_ub],
                None if self.A_eq is None else ax[n_ub:])


def _stack_rows(blocks: list, n: int) -> sp.csc_array:
    """The blocks stacked into one CSC matrix in canonical form: sorted row
    indices, no duplicate and no stored zero, whatever form they came in."""
    if not any(sp.issparse(A) for A in blocks):
        # by numpy, which takes a third of the time of sp.csc_array(dense)
        D = np.vstack([np.zeros((0, n)), *blocks])
        cols, rows = np.nonzero(D.T)  # column-major, rows sorted in each column
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(D, axis=0), out=indptr[1:])
        return sp.csc_array((D[rows, cols], rows.astype(np.int32), indptr), shape=D.shape)
    K = sp.vstack([sp.csc_array(A) for A in blocks], format="csc")
    K.sum_duplicates()
    K.eliminate_zeros()
    return K


@dataclass
class QuadraticProgram(_Constrained):
    """min 0.5 x'Px + q'x subject to the constraint blocks.

    P must be symmetric (1e-10) and positive semidefinite (eigenvalues >= -1e-8).
    The reduction every solve needs is computed here, once; copies made by
    `with_rhs` share it.
    """

    P: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.q = _as_vector(self.q, None, "q")
        n = self.n
        self.P = _as_matrix(self.P, n, "P")
        if self.P.shape[0] != n:
            raise ValueError(f"P is {self.P.shape}, expected ({n}, {n})")
        if np.max(np.abs(self.P - self.P.T), initial=0.0) > 1e-10:
            raise ValueError("P is not symmetric within 1e-10")
        if np.min(np.linalg.eigvalsh(self.P)) < -1e-8:
            raise ValueError("P is not positive semidefinite (eigenvalue < -1e-8)")
        self._coerce_constraints(n)
        self._reduction = _Reduction.of(self)

    @property
    def n(self) -> int:
        return self.q.shape[0]


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
    ax_ub, ax_eq = p.row_values(x)
    viol = 0.0
    if ax_ub is not None:
        viol = max(viol, float(np.max(ax_ub - p.b_ub, initial=0.0)))
    if ax_eq is not None:
        viol = max(viol, float(np.max(np.abs(ax_eq - p.b_eq), initial=0.0)))
    lb, ub = p.bounds_arrays()
    viol = max(viol, float(np.max(lb - x, initial=0.0)))
    viol = max(viol, float(np.max(x - ub, initial=0.0)))
    return viol


#: HiGHS model statuses with a meaning here; every other one (a model error,
#: "unbounded or infeasible", an iteration or time limit) is a numerical failure
_HIGHS_STATUS = {
    _highs.HighsModelStatus.kOptimal: STATUS_OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: STATUS_INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: STATUS_UNBOUNDED,
}
_NO_INTEGRALITY = np.zeros(0, dtype=np.uint8)
_NO_ROWS = np.zeros(0)


def solve_lp(p: LinearProgram, tol: ToleranceConfig = DEFAULT_LP_TOL) -> SolveReport:
    """Solve a linear program with one HiGHS call on the stacked CSC matrix,
    as lhs <= [A_ub; A_eq] x <= rhs. Of the options scipy's
    linprog(method="highs") sets, only those that differ from the HiGHS
    defaults are passed: the wrapper checks each one at a cost. The debug
    level (0), the dual simplex (strategy 1) and presolve ("choose", which
    presolves an LP) are the defaults, and output_flag=False silences the
    console log too.

    Optimal reports carry the primal point, objective, dual marginals and the
    measured feasibility residual. Infeasible/unbounded outcomes are reported
    explicitly, never silently.
    """
    lb, ub = p.bounds_arrays()
    b_ub = _NO_ROWS if p.b_ub is None else p.b_ub
    b_eq = _NO_ROWS if p.b_eq is None else p.b_eq
    K = p._rows
    cap = tol.iter_cap(p.n, p.n_rows)
    # looked up at call time, where a tracer may have wrapped it
    res = _linprog_highs._highs_wrapper(
        p.c, K.indptr, K.indices, K.data,
        np.concatenate([np.full(b_ub.size, -np.inf), b_eq]), np.concatenate([b_ub, b_eq]),
        lb, ub, _NO_INTEGRALITY, {
            "dual_feasibility_tolerance": max(tol.opt_tol * 1e-1, 1e-10),
            "output_flag": False,
            "primal_feasibility_tolerance": max(tol.feas_tol * 1e-1, 1e-10),
            "ipm_iteration_limit": cap,
            "simplex_iteration_limit": cap,
        })
    status = _HIGHS_STATUS.get(res["status"], STATUS_FAILURE)
    iterations = int(res.get("simplex_nit", 0) or res.get("ipm_nit", 0))
    if status != STATUS_OPTIMAL:
        return SolveReport(status=status, iterations=iterations,
                           message=f"HiGHS: {res.get('message', '')}")

    x = np.asarray(res["x"], dtype=float)
    primal_res = _primal_residual(p, x)
    if primal_res > tol.feas_tol:
        return SolveReport(
            status=STATUS_FAILURE,
            iterations=iterations,
            message=f"reported solution violates constraints by {primal_res:.3e}",
        )
    lam = np.asarray(res["lambda"], dtype=float)
    duals = {
        "ineq": lam[:b_ub.size],
        "eq": lam[b_ub.size:],
        "lower": res["marg_bnds"][0],
        "upper": res["marg_bnds"][1],
    }
    return SolveReport(
        status=STATUS_OPTIMAL,
        x=x,
        objective=float(res["fun"]),
        residuals={"primal": primal_res},
        duals=duals,
        iterations=iterations,
    )


def _stack_inequalities(p) -> tuple[np.ndarray, np.ndarray]:
    """Fold A_ub rows and finite variable bounds into a single G x <= h block."""
    lb, ub = p.bounds_arrays()
    eye, up, lo = np.eye(p.n), np.isfinite(ub), np.isfinite(lb)
    G = np.vstack([np.zeros((0, p.n)) if p.A_ub is None else p.A_ub, eye[up], -eye[lo]])
    return G, np.concatenate([np.zeros(0) if p.b_ub is None else p.b_ub, ub[up], -lb[lo]])


@dataclass(frozen=True)
class _Reduction:
    """What every solve of one QuadraticProgram shares: the stacked
    inequalities G x <= h, the equality null space (x = x_p + Z y with
    x_p = A^+ b for A x = b) and the factor L of the proximal reduced
    Hessian Z'PZ + PROX_EPS I = L L'."""

    G: np.ndarray
    h_bounds: np.ndarray  # rhs of the bound rows of G, which follow those of A_ub
    A: np.ndarray         # A_eq, with no rows when there are no equalities
    pinv: np.ndarray      # A^+
    Z: np.ndarray         # orthonormal basis of the null space of A
    Linv: np.ndarray      # L^-1
    Mt: np.ndarray        # (G Z L^-T)': the least-distance rows, by column
    fixed: np.ndarray     # rows of G with G Z = 0 (to rounding), which no y moves

    @classmethod
    def of(cls, p: "QuadraticProgram") -> "_Reduction":
        G, h = _stack_inequalities(p)
        A = np.zeros((0, p.n)) if p.A_eq is None else p.A_eq
        U, s, Vt = np.linalg.svd(A)
        rank = int(np.sum(s > s.max(initial=0.0) * max(A.shape) * np.finfo(float).eps))
        Z = Vt[rank:].T
        L = np.linalg.cholesky(Z.T @ p.P @ Z + PROX_EPS * np.eye(Z.shape[1]))
        Linv = solve_triangular(L, np.eye(L.shape[0]), lower=True)
        GZ = G @ Z
        fixed = (np.abs(GZ).max(axis=1, initial=0.0)
                 <= 1e-12 * np.maximum(np.abs(G).max(axis=1, initial=0.0), 1.0))
        GZ[fixed] = 0.0
        return cls(G, h[0 if p.b_ub is None else p.b_ub.size:], A,
                   (Vt[:rank].T / s[:rank]) @ U[:, :rank].T, Z, Linv,
                   np.ascontiguousarray(Linv @ GZ.T), fixed)

    def rhs(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(h, b) of G x <= h and A x = b for the right-hand sides of p."""
        h = self.h_bounds if p.b_ub is None else np.concatenate([p.b_ub, self.h_bounds])
        return h, np.zeros(0) if p.b_eq is None else p.b_eq


def _least_distance(Mt: np.ndarray, d: np.ndarray):
    """min 0.5 |u|^2 s.t. M u <= d as one NNLS (Lawson & Hanson, ch. 23):
    with d scaled to unit max-norm by s, y >= 0 minimizes |[M'; d'/s] y + e|
    for the last unit vector e, and its residual r gives u = -s r[:-1] / r[-1]
    with multipliers s y / r[-1]. Returns (u, multipliers), or (None, y)
    when r[-1] vanishes: then M'y = 0 and d'y < 0, so y is a Farkas vector
    of M u <= d."""
    if d.size == 0:
        return np.zeros(Mt.shape[0]), d
    s = float(np.abs(d).max()) or 1.0  # keeps r[-1] = 1 / (1 + |u / s|^2) away from 0
    E = np.vstack([Mt, d / s])
    e = np.zeros(E.shape[0])
    e[-1] = 1.0
    y, _ = nnls(E, -e)
    r = E @ y + e
    if not r[-1] > 1e-14:
        return None, y
    return -s * r[:-1] / r[-1], s * y / r[-1]


def _infeasibility(p: QuadraticProgram, u, mu, tol: ToleranceConfig) -> SolveReport:
    """Check (u >= 0, mu) as a Farkas vector on the original data: G'u +
    A_eq'mu = 0 and h'u + b_eq'mu < 0 mean that no x has G x <= h and
    A_eq x = b_eq. Both are checked to the feasibility tolerance after
    scaling the vector to unit max-norm; "infeasible" is reported only when
    they hold, and a numerical failure otherwise."""
    red = p._reduction
    h, b = red.rhs(p)
    if mu is None:
        mu = -red.pinv.T @ (red.G.T @ u)
    scale = max(float(np.abs(u).max(initial=0.0)), float(np.abs(mu).max(initial=0.0)))
    if np.all(np.isfinite(u)) and np.all(u >= 0) and np.isfinite(scale) and scale > 0:
        u, mu = u / scale, mu / scale
        res = float(np.abs(red.G.T @ u + red.A.T @ mu).max(initial=0.0))
        gap = float(h @ u + b @ mu)
        if res <= tol.feas_tol and gap < -tol.feas_tol:
            return SolveReport(status=STATUS_INFEASIBLE, residuals={"farkas": res},
                               duals={"ineq": u, "eq": mu if p.A_eq is not None else None},
                               message=f"Farkas certificate: h'u + b'mu = {gap:.3e}")
    return SolveReport(status=STATUS_FAILURE, message="infeasibility candidate failed its check")


def _unboundedness(p: QuadraticProgram, dy, tol: ToleranceConfig) -> SolveReport:
    """Check the last proximal step as a recession direction d on the
    original data: P d = 0, A_eq d = 0, G d <= 0 and q'd < 0 mean that the
    objective decreases without bound from any feasible point."""
    red = p._reduction
    d = red.Z @ dy
    d = d / float(np.abs(d).max(initial=0.0))
    if (float(np.abs(np.vstack([p.P, red.A]) @ d).max()) <= tol.feas_tol
            and float(np.max(red.G @ d, initial=0.0)) <= tol.feas_tol
            and float(p.q @ d) < -tol.opt_tol):
        return SolveReport(status=STATUS_UNBOUNDED, iterations=PROX_STEPS,
                           message="objective unbounded below along a checked ray")
    return SolveReport(status=STATUS_FAILURE, iterations=PROX_STEPS,
                       message=f"no convergence in {PROX_STEPS} proximal steps")


def solve_qp(p: QuadraticProgram, tol: ToleranceConfig = DEFAULT_QP_TOL) -> SolveReport:
    """Solve a convex quadratic program by proximal-point NNLS steps over the
    equality null space (Bemporad, IEEE TAC 2016 and 2018).

    x = x_p + Z y with x_p = A_eq^+ b_eq; an inconsistent A_eq x = b_eq is
    infeasible, with the residual as its certificate. Each outer step
    minimizes the reduced objective plus (PROX_EPS / 2)|y - y_k|^2 over
    G Z y <= h - G x_p: with u = L'y + L^-1 c_k that is a least-distance
    problem, solved by one NNLS. The steps stop once the proximal term moves
    the stationarity residual by less than a hundredth of opt_tol.
    "infeasible" and "unbounded" are reported only with a certificate
    checked on the original data, "optimal" only with checked primal and
    KKT residuals; everything else is a numerical failure.
    """
    red = p._reduction
    h, b = red.rhs(p)
    scale = 1.0 + float(np.abs(p.q).max(initial=0.0))
    with np.errstate(all="ignore"):
        x_p = red.pinv @ b
        r_eq = red.A @ x_p - b
        if float(np.abs(r_eq).max(initial=0.0)) > tol.feas_tol:
            return _infeasibility(p, np.zeros(h.size), r_eq, tol)
        c = red.Z.T @ (p.P @ x_p + p.q)
        d0 = h - red.G @ x_p
        # a fixed row holds within the feasibility tolerance or never
        d0[red.fixed] = np.where(d0[red.fixed] >= -tol.feas_tol,
                                 np.maximum(d0[red.fixed], 0.0), d0[red.fixed])
        y = np.zeros(red.Z.shape[1])
        for it in range(1, PROX_STEPS + 1):
            w = red.Linv @ (c - PROX_EPS * y)
            try:
                u, lam = _least_distance(red.Mt, d0 + red.Mt.T @ w)
            except (ValueError, RuntimeError) as e:  # non-finite data, or NNLS's step cap
                return SolveReport(status=STATUS_FAILURE, iterations=it, message=f"NNLS: {e}")
            if u is None:
                return _infeasibility(p, lam, None, tol)
            y_next = red.Linv.T @ (u - w)
            dy, y = y_next - y, y_next
            if PROX_EPS * float(np.abs(dy).max(initial=0.0)) <= 1e-2 * tol.opt_tol * scale:
                break
        else:
            return _unboundedness(p, dy, tol)
        x = x_p + red.Z @ y
        mu = -red.pinv.T @ (p.P @ x + p.q + red.G.T @ lam)
        # max-norm KKT residual on the original data: stationarity,
        # feasibility and complementarity
        primal = _primal_residual(p, x)
        kkt = max(primal,
                  float(np.abs(p.P @ x + p.q + red.G.T @ lam + red.A.T @ mu).max(initial=0.0)),
                  float(np.abs(lam * (red.G @ x - h)).max(initial=0.0)))
    if not (np.all(np.isfinite(x)) and primal <= tol.feas_tol and kkt <= tol.opt_tol * scale):
        return SolveReport(status=STATUS_FAILURE, iterations=it,
                           message=f"residuals: primal {primal:.3e}, KKT {kkt:.3e}")
    return SolveReport(status=STATUS_OPTIMAL, x=x,
                       objective=0.5 * float(x @ p.P @ x) + float(p.q @ x),
                       residuals={"primal": primal, "kkt": kkt},
                       duals={"ineq": lam, "eq": mu if p.A_eq is not None else None},
                       iterations=it)
