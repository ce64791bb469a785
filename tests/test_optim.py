import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import _linprog, _linprog_highs
from scipy.optimize._highspy import _core as _highs
from scipy.optimize._highspy._core import HighsModelStatus

from tubenet import optim
from tubenet.optim import (
    DEFAULT_LP_TOL,
    DEFAULT_QP_TOL,
    PROX_STEPS,
    LinearProgram,
    QuadraticProgram,
    solve_lp,
    solve_qp,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def lp_dual_objective(p: LinearProgram, report) -> float:
    """Dual objective reconstructed from HiGHS marginals (certifies the primal)."""
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


def test_lp_single_active_bound():
    r = solve_lp(LinearProgram(c=[1.0], lb=[1.0]))
    assert r.optimal
    assert r.x[0] == pytest.approx(1.0, abs=1e-9)
    assert r.objective == pytest.approx(1.0, abs=1e-9)


def test_lp_contradictory_bounds_infeasible():
    r = solve_lp(LinearProgram(c=[0.0], lb=[1.0], ub=[-1.0]))
    assert r.status == "infeasible"


def test_lp_simplex_corner():
    # oracle: enumerate the 3 vertices of {x+y<=1, x,y>=0}
    vertices = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    c = np.array([-1.0, -1.0])
    best = min(float(c @ v) for v in vertices)
    r = solve_lp(LinearProgram(c=c, A_ub=[[1.0, 1.0]], b_ub=[1.0], lb=[0.0, 0.0]))
    assert r.optimal
    assert r.objective == pytest.approx(best, abs=1e-9)
    assert r.x[0] + r.x[1] == pytest.approx(1.0, abs=1e-9)


def test_lp_unbounded_reported():
    r = solve_lp(LinearProgram(c=[-1.0]))
    assert r.status == "unbounded"


def test_lp_rejects_nonfinite_and_bad_shapes():
    with pytest.raises(ValueError):
        LinearProgram(c=[np.nan])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 2.0], A_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=None)


def test_lp_determinism_bitwise():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 4))
    b = rng.normal(size=6) + 2.0
    c = rng.normal(size=4)
    runs = [solve_lp(LinearProgram(c=c, A_ub=A, b_ub=b, lb=-5 * np.ones(4), ub=5 * np.ones(4)))
            for _ in range(3)]
    assert all(r.optimal for r in runs)
    assert np.array_equal(runs[0].x, runs[1].x)
    assert np.array_equal(runs[0].x, runs[2].x)


def test_lp_weak_duality_certificate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 8))
        A = rng.normal(size=(m, n))
        x_feas = rng.uniform(-1, 1, size=n)  # rhs built around a known interior point
        p = LinearProgram(
            c=rng.normal(size=n),
            A_ub=A,
            b_ub=A @ x_feas + rng.uniform(0.1, 1.0, size=m),
            lb=-3 * np.ones(n),
            ub=3 * np.ones(n),
        )
        r = solve_lp(p)
        assert r.optimal
        assert lp_dual_objective(p, r) == pytest.approx(r.objective, abs=1e-7, rel=1e-7)


@pytest.mark.parametrize("model_status", ["kModelError", "kUnboundedOrInfeasible",
                                          "kIterationLimit", "kTimeLimit", "kNotset"])
def test_lp_other_highs_statuses_are_numerical_failures(monkeypatch, model_status):
    # only kOptimal, kInfeasible and kUnbounded have a meaning of their own
    status = getattr(HighsModelStatus, model_status)
    monkeypatch.setattr(_linprog_highs, "_highs_wrapper",
                        lambda *args: {"status": status, "message": model_status})
    r = solve_lp(LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[1.0], lb=[0.0]))
    assert r.status == "numerical-failure" and r.x is None


def test_solve_lp_is_one_highs_call_and_no_linprog(monkeypatch):
    calls = []
    wrapper = _linprog_highs._highs_wrapper

    def spy(*args):
        calls.append(args)
        return wrapper(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("linprog was called")

    monkeypatch.setattr(_linprog_highs, "_highs_wrapper", spy)
    monkeypatch.setattr(_linprog, "_parse_linprog", forbidden)  # linprog's first step
    monkeypatch.setattr(_linprog, "_linprog_highs", forbidden)
    r = solve_lp(LinearProgram(c=[-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
                               A_eq=[[1.0, -1.0]], b_eq=[0.0], lb=[0.0, 0.0]))
    assert r.optimal and np.allclose(r.x, [0.5, 0.5])
    assert len(calls) == 1
    assert "linprog" not in vars(optim)


def test_lp_objective_scaling_keeps_argmin_optimal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 3
        p = LinearProgram(
            c=rng.normal(size=n),
            A_ub=rng.normal(size=(5, n)),
            b_ub=rng.normal(size=5) + 1.5,
            lb=-4 * np.ones(n),
            ub=4 * np.ones(n),
        )
        r = solve_lp(p)
        assert r.optimal
        for scale in (2.0, 17.5, 1e3):
            ps = LinearProgram(c=scale * p.c, A_ub=p.A_ub, b_ub=p.b_ub, lb=p.lb, ub=p.ub)
            rs = solve_lp(ps)
            assert rs.optimal
            # the original argmin stays optimal for the scaled problem
            assert float(ps.c @ r.x) == pytest.approx(rs.objective, abs=1e-6, rel=1e-8)


def test_qp_projection_onto_halfline():
    r = solve_qp(QuadraticProgram(P=[[1.0]], q=[0.0], lb=[2.0]))
    assert r.optimal
    assert r.x[0] == pytest.approx(2.0, abs=1e-6)


def test_qp_unconstrained_minimum():
    r = solve_qp(QuadraticProgram(P=np.eye(3), q=np.zeros(3)))
    assert r.optimal
    assert np.allclose(r.x, 0.0, atol=1e-9)


def test_qp_box_constrained_matches_grid_search():
    # min 0.5 (x-3)^2 on [0, 1]; oracle: grid search at step 1e-4
    grid = np.arange(0.0, 1.0 + 1e-4, 1e-4)
    obj = 0.5 * (grid - 3.0) ** 2
    x_star = grid[np.argmin(obj)]
    r = solve_qp(QuadraticProgram(P=[[1.0]], q=[-3.0], lb=[0.0], ub=[1.0]))
    assert r.optimal
    assert r.x[0] == pytest.approx(x_star, abs=1e-4)
    assert r.x[0] == pytest.approx(1.0, abs=1e-6)


def _farkas_holds(p, rep):
    """The infeasible report's duals (u >= 0, mu) satisfy G'u + A_eq'mu = 0
    and h'u + b_eq'mu < 0 on the program's own rows and bounds."""
    lb, ub = p.bounds_arrays()
    rows = [p.A_ub] if p.A_ub is not None else []
    rhs = [p.b_ub] if p.b_ub is not None else []
    fin_u, fin_l = np.isfinite(ub), np.isfinite(lb)
    rows += [np.eye(p.n)[fin_u], -np.eye(p.n)[fin_l]]
    rhs += [ub[fin_u], -lb[fin_l]]
    G, h = np.vstack(rows), np.concatenate(rhs)
    u, mu = rep.duals["ineq"], rep.duals["eq"]
    ray, gap = G.T @ u, h @ u
    if p.A_eq is not None:
        ray, gap = ray + p.A_eq.T @ mu, gap + p.b_eq @ mu
    return np.all(u >= 0) and np.abs(ray).max() <= 1e-8 and gap < -1e-8


def test_qp_infeasible_reported():
    box = dict(P=np.eye(2), q=np.zeros(2), lb=[-1.0, -1.0], ub=[1.0, 1.0])
    cases = [
        QuadraticProgram(P=[[1.0]], q=[0.0], lb=[1.0], ub=[-1.0]),
        QuadraticProgram(A_ub=[[1.0, 1.0]], b_ub=[-3.0], **box),  # misses the box
        QuadraticProgram(A_eq=[[1.0, 1.0]], b_eq=[3.0], **box),
        QuadraticProgram(A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 3.0], **box),  # inconsistent
    ]
    for p in cases:
        rep = solve_qp(p)
        assert rep.status == "infeasible" and rep.x is None
        assert _farkas_holds(p, rep)


def test_qp_validates_hessian():
    with pytest.raises(ValueError):
        QuadraticProgram(P=[[0.0, 1.0], [0.0, 0.0]], q=[0.0, 0.0])
    with pytest.raises(ValueError):
        QuadraticProgram(P=[[-1.0]], q=[0.0])


def _brute_force_qp(P, q, G, h, A=None, b=None):
    """Enumerate active sets of Gx<=h (with every row of Ax=b active) and
    return the best KKT point whose linear system was solved exactly."""
    m, n = G.shape
    A = np.zeros((0, n)) if A is None else A
    b = np.zeros(0) if b is None else b
    best, best_obj = None, np.inf
    for k in range(0, n - A.shape[0] + 1):
        for rows in itertools.combinations(range(m), k):
            Ga = np.vstack([A, G[list(rows)]])
            K = np.block([[P, Ga.T], [Ga, np.zeros((Ga.shape[0], Ga.shape[0]))]])
            rhs = np.concatenate([-q, b, h[list(rows)]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.abs(K @ sol - rhs).max() > 1e-9:
                continue
            x = sol[:n]
            lam = sol[n + A.shape[0]:]
            if np.any(G @ x - h > 1e-9) or np.any(lam < -1e-9):
                continue
            obj = 0.5 * x @ P @ x + q @ x
            if obj < best_obj:
                best, best_obj = x, obj
    return best, best_obj


def test_qp_random_instances_match_active_set_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        L = rng.normal(size=(n, n))
        P = L @ L.T + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        G = rng.normal(size=(m, n))
        h = rng.normal(size=m) + 1.0
        r = solve_qp(QuadraticProgram(P=P, q=q, A_ub=G, b_ub=h))
        x_ref, obj_ref = _brute_force_qp(P, q, G, h)
        if x_ref is None:  # P is positive definite, so the QP cannot be unbounded
            assert r.status == "infeasible"
            continue
        assert r.optimal
        assert r.objective == pytest.approx(obj_ref, abs=1e-6)
        assert np.allclose(r.x, x_ref, atol=1e-5)


def test_qp_kkt_residual_within_tolerance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = 5
        L = rng.normal(size=(n, n))
        P = L @ L.T + 1e-3 * np.eye(n)
        p = QuadraticProgram(
            P=P,
            q=rng.normal(size=n),
            A_ub=rng.normal(size=(4, n)),
            b_ub=rng.normal(size=4) + 2.0,
            A_eq=rng.normal(size=(1, n)),
            b_eq=rng.normal(size=1) * 0.1,
            lb=-10 * np.ones(n),
            ub=10 * np.ones(n),
        )
        r = solve_qp(p)
        assert r.optimal
        assert r.residuals["kkt"] <= 1e-6 * (1.0 + np.abs(p.q).max())


def test_qp_determinism_bitwise():
    P = np.diag([2.0, 1.0])
    p = dict(P=P, q=[-1.0, 0.5], A_ub=[[1.0, 1.0]], b_ub=[1.0], lb=[0.0, 0.0])
    a = solve_qp(QuadraticProgram(**p))
    b = solve_qp(QuadraticProgram(**p))
    assert np.array_equal(a.x, b.x)


def test_qp_psd_singular_hessian_with_free_block():
    # one variable has no curvature but is pinned by equality rows
    P = np.diag([1.0, 0.0])
    r = solve_qp(QuadraticProgram(P=P, q=[0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[2.0],
                                  lb=[-5.0, -5.0], ub=[5.0, 5.0]))
    assert r.optimal
    # optimum puts all movement on the curvature-free coordinate
    assert r.x[0] == pytest.approx(0.0, abs=1e-5)
    assert r.x[1] == pytest.approx(2.0, abs=1e-5)


# ------------------------------------------------------- certified failures

def test_qp_unbounded_only_with_a_checked_ray():
    # no curvature along x2 and a linear pull towards +inf
    p = QuadraticProgram(P=np.diag([1.0, 0.0]), q=[0.0, -1.0], lb=[-1.0, 0.0])
    rep = solve_qp(p)
    assert rep.status == "unbounded" and rep.iterations == PROX_STEPS
    # the same flat direction without a pull is bounded
    rep = solve_qp(QuadraticProgram(P=np.diag([1.0, 0.0]), q=[1.0, 0.0], lb=[-1.0, 0.0]))
    assert rep.optimal and rep.x[0] == pytest.approx(-1.0, abs=1e-7)


@pytest.mark.parametrize("garbage", ["nan", "zeros", "random", "huge", "raises"])
def test_qp_garbage_from_nnls_is_a_numerical_failure(monkeypatch, garbage):
    rng = np.random.default_rng(0)
    outputs = {
        "nan": lambda k: np.full(k, np.nan),
        "zeros": lambda k: np.zeros(k),
        "random": lambda k: rng.random(k),
        "huge": lambda k: np.full(k, 1e12),
    }

    def bad_nnls(E, f, **kwargs):
        if garbage == "raises":
            raise RuntimeError("Maximum number of iterations reached.")
        return outputs[garbage](E.shape[1]), 0.0

    feasible = QuadraticProgram(P=np.eye(2), q=[-3.0, -3.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
                                lb=[0.0, 0.0])  # the unconstrained minimum is cut off
    infeasible = QuadraticProgram(P=np.eye(2), q=np.zeros(2), A_ub=[[1.0, 1.0]], b_ub=[-3.0],
                                  lb=[-1.0, -1.0], ub=[1.0, 1.0])
    assert solve_qp(feasible).optimal and solve_qp(infeasible).status == "infeasible"
    monkeypatch.setattr(optim, "nnls", bad_nnls)
    for p in (feasible, infeasible):
        assert solve_qp(p).status == "numerical-failure"


# ------------------------------------------------------------ property suite

def _random_qp(seed, n, rank, n_eq, n_ub):
    """A feasible QP with P = L L' of rank < n, equality rows through a
    known point, inequality rows with slack there, and finite bounds."""
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(n, min(rank, n - 1)))
    x0 = rng.uniform(-1.0, 1.0, size=n)
    A = rng.normal(size=(n_eq, n))
    G = rng.normal(size=(n_ub, n))
    return dict(P=L @ L.T, q=rng.normal(size=n),
                A_ub=G if n_ub else None, b_ub=G @ x0 + rng.uniform(0.0, 1.0, n_ub) if n_ub else None,
                A_eq=A if n_eq else None, b_eq=A @ x0 if n_eq else None,
                lb=-2.0 * np.ones(n), ub=2.0 * np.ones(n))


QP_SHAPES = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), rank=st.integers(0, 4),
                 n_eq=st.integers(0, 2), n_ub=st.integers(0, 3))


@PROPERTY
@given(**QP_SHAPES)
def test_qp_property_optimal_points_are_certified(seed, n, rank, n_eq, n_ub):
    data = _random_qp(seed, n, rank, n_eq, n_ub)
    p = QuadraticProgram(**data)
    rep = solve_qp(p)
    assert rep.optimal, rep.message
    assert rep.residuals["kkt"] <= 1e-6 * (1.0 + np.abs(p.q).max())
    assert rep.residuals["primal"] <= DEFAULT_QP_TOL.feas_tol
    assert isinstance(rep.iterations, int) and 1 <= rep.iterations < PROX_STEPS
    G = np.vstack([np.zeros((0, n)) if p.A_ub is None else p.A_ub, np.eye(n), -np.eye(n)])
    h = np.concatenate([np.zeros(0) if p.b_ub is None else p.b_ub, p.ub, -p.lb])
    _, best = _brute_force_qp(p.P, p.q, G, h, p.A_eq, p.b_eq)
    if np.isfinite(best):
        assert rep.objective <= best + 1e-6
        assert rep.objective >= best - 1e-6


@PROPERTY
@given(**QP_SHAPES)
def test_qp_property_reports_are_bitwise_deterministic(seed, n, rank, n_eq, n_ub):
    data = _random_qp(seed, n, rank, n_eq, n_ub)
    a, b = solve_qp(QuadraticProgram(**data)), solve_qp(QuadraticProgram(**data))
    assert a.status == b.status and a.iterations == b.iterations
    assert np.array_equal(a.x, b.x) and a.objective == b.objective
    assert a.residuals == b.residuals
    for key in ("ineq", "eq"):
        assert (a.duals[key] is None and b.duals[key] is None) or np.array_equal(a.duals[key],
                                                                                 b.duals[key])


@PROPERTY
@given(**QP_SHAPES, gap=st.floats(1e-3, 10.0))
def test_qp_property_infeasible_points_are_certified(seed, n, rank, n_eq, n_ub, gap):
    # a row pair g'x <= a and -g'x <= -a - gap leaves no feasible point
    data = _random_qp(seed, n, rank, n_eq, n_ub)
    g = np.random.default_rng(seed).normal(size=n)
    rows = [g, -g] if data["A_ub"] is None else [data["A_ub"], g, -g]
    rhs = [[0.5], [-0.5 - gap]] if data["b_ub"] is None else [data["b_ub"], [0.5], [-0.5 - gap]]
    data.update(A_ub=np.vstack(rows), b_ub=np.concatenate(rhs))
    p = QuadraticProgram(**data)
    rep = solve_qp(p)
    assert rep.status == "infeasible", rep.message
    assert _farkas_holds(p, rep)


def _random_lp(seed, n, m, n_eq):
    """The random LPs of the weak-duality test: rows around a known interior
    point, finite bounds; here with about a third of the entries zeroed and
    equality rows through that point."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) > 0.3)
    E = rng.normal(size=(n_eq, n)) * (rng.random((n_eq, n)) > 0.3)
    x_feas = rng.uniform(-1, 1, size=n)
    return dict(c=rng.normal(size=n),
                A_ub=A if m else None, b_ub=A @ x_feas + rng.uniform(0.1, 1.0, size=m) if m else None,
                A_eq=E if n_eq else None, b_eq=E @ x_feas if n_eq else None,
                lb=-3 * np.ones(n), ub=3 * np.ones(n))


def _bitwise_equal(a, b) -> bool:
    """Equal bit for bit: arrays (or None) and floats."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), m=st.integers(0, 7),
       n_eq=st.integers(0, 2))
def test_lp_property_sparse_input_gives_the_same_report(seed, n, m, n_eq):
    data = _random_lp(seed, n, m, n_eq)
    csc = {key: None if data[key] is None else sp.csc_array(data[key]) for key in ("A_ub", "A_eq")}
    dense, sparse = solve_lp(LinearProgram(**data)), solve_lp(LinearProgram(**{**data, **csc}))
    assert dense.optimal, dense.message
    assert (dense.status, dense.iterations, dense.message) == (sparse.status, sparse.iterations,
                                                               sparse.message)
    assert _bitwise_equal(dense.x, sparse.x) and _bitwise_equal(dense.objective, sparse.objective)
    assert dense.residuals.keys() == sparse.residuals.keys()
    assert all(_bitwise_equal(dense.residuals[k], sparse.residuals[k]) for k in dense.residuals)
    assert dense.duals.keys() == sparse.duals.keys() == {"ineq", "eq", "lower", "upper"}
    assert all(_bitwise_equal(dense.duals[k], sparse.duals[k]) for k in dense.duals)


def test_lp_sparse_input_is_checked():
    with pytest.raises(ValueError, match="non-finite"):
        LinearProgram(c=[1.0], A_ub=sp.csc_array([[np.inf]]), b_ub=[1.0])
    with pytest.raises(ValueError, match="columns"):
        LinearProgram(c=[1.0], A_eq=sp.csc_array(np.ones((1, 2))), b_eq=[1.0])
    with pytest.raises(ValueError):  # QPs take dense blocks only
        QuadraticProgram(P=np.eye(1), q=[0.0], A_ub=sp.csc_array([[1.0]]), b_ub=[1.0])


def test_lp_passes_only_options_that_differ_from_the_highs_defaults(monkeypatch, capfd):
    # solve_lp leaves the debug level, the simplex strategy and the console
    # log at their HiGHS defaults; a HiGHS that changes one must fail here
    h = _highs._Highs()
    defaults = {key: h.getOptionValue(key) for key in
                ("highs_debug_level", "simplex_strategy", "presolve", "log_to_console")}
    assert all(status == _highs.HighsStatus.kOk for status, _ in defaults.values())
    assert defaults["highs_debug_level"][1] == 0
    dual = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    assert defaults["simplex_strategy"][1] == dual
    assert defaults["presolve"][1] == "choose"  # presolves an LP; see the next test

    seen = []
    wrapper = _linprog_highs._highs_wrapper

    def spy(*args):
        seen.append(args[-1])
        return wrapper(*args)

    monkeypatch.setattr(_linprog_highs, "_highs_wrapper", spy)
    capfd.readouterr()
    assert solve_lp(LinearProgram(c=[1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                                  lb=[0.0, 0.0])).optimal
    assert solve_lp(LinearProgram(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0])).status \
        == "infeasible"
    assert capfd.readouterr() == ("", "")  # output_flag=False silences the console log
    assert all(set(options) == {"output_flag", "primal_feasibility_tolerance",
                                "dual_feasibility_tolerance", "ipm_iteration_limit",
                                "simplex_iteration_limit"} for options in seen)
    assert all(options["output_flag"] is False for options in seen)


def test_default_presolve_gives_the_bits_of_presolve_on(monkeypatch):
    # every LP of the built-in designs, solved again with presolve "on"
    from tubenet.cli import design_scenario, scenario_from_dict
    from tubenet.scenarios import mass_scenario, power_scenario, truck_scenario

    seen = []
    wrapper = _linprog_highs._highs_wrapper

    def spy(*args):
        seen.append((args, wrapper(*args)))
        return seen[-1][1]

    monkeypatch.setattr(_linprog_highs, "_highs_wrapper", spy)
    for doc in (truck_scenario(T=5), power_scenario(T=5), mass_scenario(2, 2, seed=1)):
        _, _, failures = design_scenario(scenario_from_dict(doc))
        assert not failures
    assert len(seen) > 20
    for args, res in seen:
        on = wrapper(*args[:-1], {**args[-1], "presolve": True})  # "on"
        assert on["status"] == res["status"] and on["simplex_nit"] == res["simplex_nit"]
        for key in ("x", "lambda", "marg_bnds"):
            assert np.array_equal(on.get(key), res.get(key))


def test_dense_blocks_stack_into_scipys_canonical_csc():
    rng = np.random.default_rng(5)
    blocks = [rng.normal(size=shape) * (rng.random(shape) < 0.4)
              for shape in ((4, 2), (7, 5), (1, 9), (12, 3), (6, 6))]
    blocks += [np.zeros((3, 4)), np.zeros((0, 4)), np.ones((2, 1))]
    for A in blocks:
        n = A.shape[1]
        stacked = {"one block": (LinearProgram(np.zeros(n), A_ub=A, b_ub=np.ones(A.shape[0])), A),
                   "two blocks": (LinearProgram(np.zeros(n), A_ub=A, b_ub=np.ones(A.shape[0]),
                                                A_eq=A[::-1], b_eq=np.ones(A.shape[0])),
                                  np.vstack([A, A[::-1]]))}
        for label, (p, dense) in stacked.items():
            got, want = p._rows, sp.csc_array(dense)
            assert got.shape == want.shape, label
            for part in ("indptr", "indices", "data"):
                a, b = getattr(got, part), getattr(want, part)
                assert a.dtype == b.dtype and np.array_equal(a, b), (A.shape, label, part)
            assert got.has_sorted_indices and np.all(got.data != 0)


def test_iteration_cap_config():
    assert DEFAULT_LP_TOL.iter_cap(3, 4) == 350
    assert DEFAULT_QP_TOL.opt_tol == 1e-6


# ----------------------------------------------------------------- BLAS pool

def test_blas_pool_is_capped_and_reported():
    from tubenet import optim
    from tubenet.cli import design_scenario, scenario_from_dict
    from tubenet.scenarios import truck_scenario

    assert optim.blas_threads() == 1
    _, report, _ = design_scenario(scenario_from_dict(truck_scenario(T=5)))
    assert report["blas_threads"] == 1


def test_blas_pin_warns_when_no_route_works(monkeypatch, caplog):
    import sys

    from tubenet import optim

    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    monkeypatch.setattr(optim, "_OPENBLAS_API", [])
    with caplog.at_level("WARNING", logger="tubenet.optim"):
        assert optim._pin_blas() is None
    assert "not capped" in caplog.text
    assert optim.blas_threads() is None


def test_broken_threadpoolctl_falls_back_to_openblas(monkeypatch, caplog):
    import sys
    import types

    from tubenet import optim

    def broken(*args, **kwargs):
        raise RuntimeError("incompatible library")

    fake = types.ModuleType("threadpoolctl")
    fake.threadpool_limits = fake.threadpool_info = broken
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
    calls = []
    monkeypatch.setattr(optim, "_OPENBLAS_API", [(calls.append, lambda: 1)])
    with caplog.at_level("WARNING", logger="tubenet.optim"):
        assert optim._pin_blas() is None
    assert "threadpoolctl failed" in caplog.text and calls == [1]
    assert optim.blas_threads() == 1
