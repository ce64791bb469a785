import itertools

import numpy as np
import pytest

from tubenet.optim import (
    DEFAULT_LP_TOL,
    DEFAULT_QP_TOL,
    LinearProgram,
    QuadraticProgram,
    qp_kkt_residual,
    solve_lp,
    solve_qp,
)


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


def test_qp_infeasible_reported():
    r = solve_qp(QuadraticProgram(P=[[1.0]], q=[0.0], lb=[1.0], ub=[-1.0]))
    assert r.status == "infeasible"


def test_qp_validates_hessian():
    with pytest.raises(ValueError):
        QuadraticProgram(P=[[0.0, 1.0], [0.0, 0.0]], q=[0.0, 0.0])
    with pytest.raises(ValueError):
        QuadraticProgram(P=[[-1.0]], q=[0.0])


def _brute_force_qp(P, q, G, h):
    """Enumerate active sets of Gx<=h and return the best feasible KKT point."""
    m, n = G.shape
    best, best_obj = None, np.inf
    for k in range(0, n + 1):
        for rows in itertools.combinations(range(m), k):
            Ga = G[list(rows)]
            K = np.block([[P, Ga.T], [Ga, np.zeros((k, k))]])
            rhs = np.concatenate([-q, h[list(rows)]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            lam = sol[n:]
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
        if x_ref is None:
            assert r.status in ("infeasible", "unbounded")
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
