import numpy as np
import pytest

from tubenet.geometry import HPolytope, VAggregate, VPolytope, box_vertices, member_aggregate
from tubenet import rci
from tubenet.model import Coupling, Network, Subsystem, controllability_index, disturbance_set
from tubenet.optim import STRICT_MARGIN, SolveReport, solve_lp
from tubenet.rci import (
    THETA_TOL,
    DesignError,
    DesignFailure,
    RciConfig,
    ThetaProblem,
    build_z0,
    default_omega,
    synthesize_rci_from_w,
)
from tubenet.verify import rci_certificate, structural_report


def scalar_subsystem(a=0.5, xbound=1.0, ubound=1.0):
    return Subsystem("s", [[a]], [[1.0]],
                     HPolytope.symmetric_box([xbound]), HPolytope.symmetric_box([ubound]))


def origin_w(n):
    return VAggregate([VPolytope.origin(n)], 1.0)


# -------------------------------------------------------------------- build_z0

def test_build_z0_point_disturbance():
    z0 = build_z0(origin_w(2), 0.1, HPolytope.symmetric_box([1.0, 1.0]))
    assert z0.n_vertices == 5
    assert np.allclose(z0.vertices[0], 0.0)
    lo, hi = z0.bounds()
    assert np.allclose(lo, -0.1) and np.allclose(hi, 0.1)


def test_build_z0_interval_arithmetic():
    W = VAggregate([VPolytope(box_vertices([-0.2, -0.2], [0.2, 0.2]))], 1.0)
    z0 = build_z0(W, 0.05, HPolytope.symmetric_box([1.0, 1.0]))
    lo, hi = z0.bounds()
    assert np.allclose(lo, -0.25) and np.allclose(hi, 0.25)


def test_build_z0_truck_margins(truck_network):
    net = truck_network
    W2 = disturbance_set(net, "2")
    z0 = build_z0(W2, 0.01, net.subsystems["2"].X)
    X = net.subsystems["2"].X
    for v in z0.vertices:
        assert np.all(X.C @ v <= X.d - 1e-9)


def test_build_z0_rejects_oversized_box():
    with pytest.raises(DesignError):
        build_z0(origin_w(2), 2.0, HPolytope.symmetric_box([1.0, 1.0]))


def test_default_omega_positive_and_small():
    X = HPolytope.symmetric_box([1.0, 1.0])
    w = default_omega(origin_w(2), X)
    assert 0 < w <= 0.01 * 1.0 + 1e-12


def test_default_omega_rejects_big_disturbance():
    W = VAggregate([VPolytope(box_vertices([-2.0, -2.0], [2.0, 2.0]))], 1.0)
    with pytest.raises(DesignError):
        default_omega(W, HPolytope.symmetric_box([1.0, 1.0]))


# ---------------------------------------------------------------- ThetaProblem

def test_theta_variable_count():
    sub = scalar_subsystem()
    z0 = VPolytope([[0.0], [0.15], [-0.15]])
    prob = ThetaProblem(sub, z0, 1)
    k, q, n, m, l, g = 1, 3, 1, 1, 2, 2
    assert prob.n_vars == k * q * n + k * q * m + q * q + l * k + g * k + 1

    rng = np.random.default_rng(0)
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    B = np.array([[0.0], [1.0]])
    sub2 = Subsystem("t", A, B, HPolytope.symmetric_box([1.0, 1.0]),
                     HPolytope.symmetric_box([1.0]))
    z02 = build_z0(origin_w(2), 0.05, sub2.X)
    prob2 = ThetaProblem(sub2, z02, 3)
    k, q, n, m, l, g = 3, 5, 2, 1, 2, 4
    assert prob2.n_vars == k * q * n + k * q * m + q * q + l * k + g * k + 1


def test_theta_scalar_feasible_with_small_alpha():
    sub = scalar_subsystem()
    z0 = VPolytope([[0.0], [0.15], [-0.15]])
    lp = ThetaProblem(sub, z0, 1).build_lp(minimize_alpha=True)
    rep = solve_lp(lp)
    assert rep.optimal
    assert rep.x[-1] <= 0.1 + 1e-9  # alpha is the last variable


def test_theta_scalar_infeasible_when_seed_exceeds_state_set():
    sub = scalar_subsystem(xbound=1.0)
    z0 = VPolytope([[0.0], [2.0], [-2.0]])  # seed sticks out of X
    lp = ThetaProblem(sub, z0, 1).build_lp()
    rep = solve_lp(lp)
    assert rep.status == "infeasible"


def test_theta_config_validation():
    # the double integrator needs two steps to reach every state
    sub = Subsystem("d", [[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]],
                    HPolytope.symmetric_box([1.0, 1.0]), HPolytope.symmetric_box([1.0]))
    with pytest.raises(DesignError, match="controllability index 2"):
        RciConfig(k=1).validate(sub)
    failure = synthesize_rci_from_w(sub, origin_w(2), RciConfig(k=1))
    assert isinstance(failure, DesignFailure) and "controllability index" in failure.reason


# ------------------------------------------------------- synthesize_rci_from_w

def test_synthesize_isolated_subsystem():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    sub = Subsystem("i", A, B, HPolytope.symmetric_box([2.0, 2.0]),
                    HPolytope.symmetric_box([1.0]))
    d = synthesize_rci_from_w(sub, origin_w(2), RciConfig(minimize_alpha=True))
    assert not isinstance(d, DesignFailure)
    assert 0.0 <= d.alpha < 0.2
    assert member_aggregate(d.z_set(), np.zeros(2)).feasible


def test_synthesize_truck_invariance_sampled(truck_controllers):
    for i in ("1", "2"):
        report = rci_certificate(truck_controllers[i], n_samples=300, seed=7, tol=1e-6)
        assert report["passed"], report


def test_synthesize_failure_when_disturbance_covers_state_set():
    X = HPolytope.symmetric_box([1.0, 1.0])
    U = HPolytope.symmetric_box([1.0])
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    s1 = Subsystem("1", A, B, X, U)
    s2 = Subsystem("2", A, B, X.copy(), U.copy())
    net = Network([s1, s2], [Coupling("2", "1", 2.0 * np.eye(2))])  # W = 2-box covers X
    d = synthesize_rci_from_w(net.subsystems["1"], disturbance_set(net, "1"))
    assert isinstance(d, DesignFailure)
    assert "state constraints" in d.reason


def test_synthesize_retries_larger_k():
    sub = scalar_subsystem()
    d = synthesize_rci_from_w(sub, origin_w(1), RciConfig(k=1, retries=2))
    assert not isinstance(d, DesignFailure)
    assert d.k >= 1


def test_structural_identities(truck_controllers):
    for ctrl in truck_controllers.values():
        rep = structural_report(ctrl.rci, tol=1e-9)
        assert rep["passed"], rep
        assert rep["chain_residual"] <= 1e-9
        assert rep["fold_residual"] <= 1e-9
        assert rep["origin_pins"] <= 1e-9


def test_minimize_alpha_not_larger_than_feasibility(truck_network):
    net = truck_network
    sub = net.subsystems["2"]
    W = disturbance_set(net, "2")
    d_feas = synthesize_rci_from_w(sub, W, RciConfig(minimize_alpha=False))
    d_min = synthesize_rci_from_w(sub, W, RciConfig(minimize_alpha=True))
    assert not isinstance(d_feas, DesignFailure) and not isinstance(d_min, DesignFailure)
    assert d_min.alpha <= d_feas.alpha + 1e-9


def test_design_blocks_inside_constraints(truck_network, truck_controllers):
    # every solved input vertex scaled by sigma stays admissible blockwise
    net = truck_network
    for i in ("1", "2"):
        d = truck_controllers[i].rci
        sx, su = d.inclusion_slacks(net.subsystems[i].X, net.subsystems[i].U)
        assert sx.min() > 0
        assert su.min() > 0


def test_design_failure_is_not_truthy():
    f = DesignFailure("x", "reason")
    with pytest.raises(TypeError):
        bool(f)


# ------------------------------------------------ one LP when alpha* = 0

def two_pass_reference(sub, W, cfg):
    """The design by two explicit passes on the same ThetaProblem: min
    alpha, then the tie-break at the alpha it reached. (alpha, z_blocks,
    u_blocks, z_terminal, rho)."""
    omega = cfg.omega if cfg.omega is not None else default_omega(W, sub.X)
    problem = ThetaProblem(sub, build_z0(W, omega, sub.X),
                           max(cfg.k or 0, controllability_index(sub.A, sub.B)))
    lp = problem.build_lp(minimize_alpha=True)
    first = solve_lp(lp, THETA_TOL)
    refined = solve_lp(problem.refinement_lp(lp, float(first.x[problem.alpha_idx])), THETA_TOL)
    assert first.optimal and refined.optimal
    return problem.extract(refined.x)


def assert_design_is(design, reference):
    alpha, z_blocks, u_blocks, z_terminal, rho = reference
    assert design.alpha == alpha
    assert len(design.z_blocks) == len(z_blocks) and len(design.u_blocks) == len(u_blocks)
    assert all(np.array_equal(a, b) for a, b in zip(design.z_blocks, z_blocks))
    assert all(np.array_equal(a, b) for a, b in zip(design.u_blocks, u_blocks))
    assert np.array_equal(design.z_terminal, z_terminal) and np.array_equal(design.rho, rho)


def alpha_star_positive():
    """A stable scalar subsystem whose input bound is too small to cancel
    the drift of the seed in one step: min alpha is about 0.19."""
    sub = Subsystem("s", [[0.5]], [[1.0]], HPolytope.symmetric_box([1.0]),
                    HPolytope.symmetric_box([0.08]))
    return sub, VAggregate([VPolytope([[-0.2], [0.2]])], 1.0)


def count_lps(monkeypatch):
    calls = []
    solve = rci.solve_lp
    monkeypatch.setattr(rci, "solve_lp", lambda *a: calls.append(a) or solve(*a))
    return calls


def test_one_lp_design_equals_the_two_pass_design(monkeypatch):
    from tubenet.cli import scenario_from_dict
    from tubenet.scenarios import mass_scenario, power_scenario, truck_scenario

    calls = count_lps(monkeypatch)
    cases = [("truck", truck_scenario(), ("1", "2")), ("power4", power_scenario(), None),
             ("mass", mass_scenario(4, 4, seed=5), ("1", "16"))]
    checked = 0
    for name, doc, ids in cases:
        scenario = scenario_from_dict(doc)
        net = scenario.network
        for i in ids or net.ids:
            sub, W, cfg = net.subsystems[i], disturbance_set(net, i), scenario.rci_config(i)
            assert cfg.minimize_alpha
            calls.clear()
            design = synthesize_rci_from_w(sub, W, cfg)
            assert not isinstance(design, DesignFailure), (name, i, design)
            assert len(calls) == 1 and design.alpha == 0.0, (name, i)
            assert_design_is(design, two_pass_reference(sub, W, cfg))
            checked += 1
    assert checked == 8


def test_positive_alpha_takes_the_two_pass_path(monkeypatch):
    sub, W = alpha_star_positive()
    cfg = RciConfig(minimize_alpha=True)
    calls = count_lps(monkeypatch)
    design = synthesize_rci_from_w(sub, W, cfg)
    assert not isinstance(design, DesignFailure)
    assert 0.1 < design.alpha < 0.3 and design.k == 1
    # the tie-break at alpha = 0, then min alpha and the tie-break at alpha*
    assert len(calls) == 3
    assert calls[0][0].ub[-1] == 0.0 and calls[0][0].c[-1] == 0.0
    assert calls[1][0].c[-1] == 1.0 and calls[2][0].ub[-1] == design.alpha
    assert_design_is(design, two_pass_reference(sub, W, cfg))
    assert structural_report(design, tol=1e-9)["passed"]


def test_without_minimize_alpha_the_feasibility_lp_comes_first(monkeypatch):
    sub, W = alpha_star_positive()
    calls = count_lps(monkeypatch)
    design = synthesize_rci_from_w(sub, W, RciConfig())
    assert not isinstance(design, DesignFailure)
    assert len(calls) == 2 and not np.any(calls[0][0].c)
    assert calls[1][0].ub[-1] == design.alpha


def test_infeasible_k_before_a_feasible_one(monkeypatch):
    # the double integrator with a tight input bound: k = 2 and 3 are
    # infeasible, k = 4 reaches alpha = 0
    sub = Subsystem("d", [[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]],
                    HPolytope.symmetric_box([1.0, 1.0]), HPolytope.symmetric_box([0.03]))
    W = origin_w(2)
    calls = count_lps(monkeypatch)
    design = synthesize_rci_from_w(sub, W, RciConfig(minimize_alpha=True, retries=3))
    assert not isinstance(design, DesignFailure)
    assert design.k == 4 and design.alpha == 0.0
    assert len(calls) == 2 + 2 + 1  # alpha = 0 and min alpha for each infeasible k
    assert_design_is(design, two_pass_reference(sub, W, RciConfig(k=4)))

    failure = synthesize_rci_from_w(sub, W, RciConfig(minimize_alpha=True, retries=1))
    assert isinstance(failure, DesignFailure)
    assert failure.attempted_k == [2, 3]
    assert failure.reason == "feasibility LP infeasible for all attempted k"


def test_failure_reason_names_the_status_of_the_feasibility_lp(monkeypatch):
    # the alpha = 0 LP is infeasible and min alpha fails numerically: the
    # reason names min alpha's status, as it did before the alpha = 0 LP ran
    sub, W = alpha_star_positive()
    solve = rci.solve_lp

    def failing(lp, tol):
        rep = solve(lp, tol)
        return SolveReport("numerical-failure") if lp.c[-1] == 1.0 else rep

    monkeypatch.setattr(rci, "solve_lp", failing)
    failure = synthesize_rci_from_w(sub, W, RciConfig(minimize_alpha=True, retries=0))
    assert isinstance(failure, DesignFailure) and failure.attempted_k == [1]
    assert failure.reason == "feasibility LP ended with status numerical-failure"


# ------------------------------------------------------- sparse LP assembly

def _dense_theta_lp(p: ThetaProblem, minimize_alpha: bool = False):
    """Reference assembly of the feasibility LP, row by row into dense
    matrices: (c, A_ub, b_ub, A_eq, b_eq, lb, ub)."""
    n, m, k, q = p.n, p.m, p.k, p.q
    A, B = p.sub.A, p.sub.B
    Cx, dx = p.sub.X.C, p.sub.X.d
    Cu, du = p.sub.U.C, p.sub.U.d
    z0v = p.z0.vertices
    N = p.n_vars

    def z_idx(s, f):  # z(s,f), s = 1..k; f is 0-based
        start = ((s - 1) * q + f) * n
        return slice(start, start + n)

    def u_idx(s, f):  # u(s,f), s = 0..k-1
        start = p._base_u + (s * q + f) * m
        return slice(start, start + m)

    def rho_idx(f1, f2):
        return p._base_rho + f1 * q + f2

    def psi_idx(r, s):
        return p._base_psi + r * k + s

    def gamma_idx(r, s):
        return p._base_gamma + r * k + s

    eq_rows, eq_rhs = [], []

    def new_eq(count):
        block = np.zeros((count, N))
        eq_rows.append(block)
        return block

    for s in range(0, k):
        for f in range(q):
            blk = new_eq(n)
            blk[:, z_idx(s + 1, f)] = np.eye(n)
            blk[:, u_idx(s, f)] = -B
            if s == 0:
                eq_rhs.append(A @ z0v[f])
            else:
                blk[:, z_idx(s, f)] = -A
                eq_rhs.append(np.zeros(n))
    for f1 in range(q):
        blk = new_eq(n)
        blk[:, z_idx(k, f1)] = np.eye(n)
        for f2 in range(q):
            blk[:, rho_idx(f1, f2)] = -z0v[f2]
        eq_rhs.append(np.zeros(n))
    for s in range(1, k + 1):
        blk = new_eq(n)
        blk[:, z_idx(s, 0)] = np.eye(n)
        eq_rhs.append(np.zeros(n))
    for s in range(0, k):
        blk = new_eq(m)
        blk[:, u_idx(s, 0)] = np.eye(m)
        eq_rhs.append(np.zeros(m))

    ub_rows, ub_rhs = [], []

    def add_ub(row, rhs):
        ub_rows.append(row)
        ub_rhs.append(rhs)

    for f1 in range(q):
        row = np.zeros(N)
        for f2 in range(q):
            row[rho_idx(f1, f2)] = 1.0
        row[p.alpha_idx] = -1.0
        add_ub(row, 0.0)
    for r in range(p.l):
        row = np.zeros(N)
        for s in range(k):
            row[psi_idx(r, s)] = 1.0
        row[p.alpha_idx] = du[r]
        add_ub(row, du[r] - STRICT_MARGIN)
        for s in range(k):
            for f in range(q):
                row = np.zeros(N)
                row[u_idx(s, f)] = Cu[r]
                row[psi_idx(r, s)] = -1.0
                add_ub(row, 0.0)
    for r in range(p.g):
        row = np.zeros(N)
        for s in range(k):
            row[gamma_idx(r, s)] = 1.0
        row[p.alpha_idx] = dx[r]
        add_ub(row, dx[r] - STRICT_MARGIN)
        for s in range(k):
            for f in range(q):
                row = np.zeros(N)
                row[gamma_idx(r, s)] = -1.0
                if s == 0:
                    add_ub(row, -float(Cx[r] @ z0v[f]))
                else:
                    row[z_idx(s, f)] = Cx[r]
                    add_ub(row, 0.0)

    lb = np.full(N, -np.inf)
    ub = np.full(N, np.inf)
    lb[p._base_rho:p._base_rho + q * q] = 0.0
    lb[p.alpha_idx] = 0.0
    ub[p.alpha_idx] = 1.0 - STRICT_MARGIN
    c = np.zeros(N)
    if minimize_alpha:
        c[p.alpha_idx] = 1.0
    return (c, np.vstack(ub_rows), np.array(ub_rhs), np.vstack(eq_rows),
            np.concatenate(eq_rhs), lb, ub)


def _theta_cases():
    """(label, subsystem, W) of the trucks, the 4-area grid and a 2x2 mass
    network, plus a two-input subsystem."""
    from tubenet.cli import scenario_from_dict
    from tubenet.scenarios import mass_scenario, power_scenario, truck_scenario

    for name, doc in (("truck", truck_scenario()), ("power4", power_scenario()),
                      ("mass", mass_scenario(2, 2, seed=1))):
        net = scenario_from_dict(doc).network
        for i in net.ids:
            yield f"{name}-{i}", net.subsystems[i], disturbance_set(net, i)
    two_inputs = Subsystem("m2", [[1.0, 0.1], [0.0, 1.0]], [[0.5, 0.0], [0.1, 1.0]],
                           HPolytope.symmetric_box([2.0, 1.5]), HPolytope.symmetric_box([1.0, 0.7]))
    yield "two-inputs", two_inputs, VAggregate([VPolytope(box_vertices([-0.05, -0.02],
                                                                       [0.05, 0.02]))], 1.0)


@pytest.mark.parametrize("minimize_alpha", [False, True])
def test_sparse_theta_lp_matches_dense_reference(minimize_alpha):
    from tubenet.model import controllability_index

    seen_m = set()
    for label, sub, W in _theta_cases():
        z0 = build_z0(W, default_omega(W, sub.X), sub.X)
        ci = controllability_index(sub.A, sub.B)
        for k in (ci, ci + 2):
            p = ThetaProblem(sub, z0, k)
            lp = p.build_lp(minimize_alpha)
            c, A_ub, b_ub, A_eq, b_eq, lb, ub = _dense_theta_lp(p, minimize_alpha)
            got = (lp.c, lp.A_ub.toarray(), lp.b_ub, lp.A_eq.toarray(), lp.b_eq, lp.lb, lp.ub)
            for name, a, b in zip(("c", "A_ub", "b_ub", "A_eq", "b_eq", "lb", "ub"), got,
                                  (c, A_ub, b_ub, A_eq, b_eq, lb, ub)):
                assert a.shape == b.shape and np.array_equal(a, b), f"{label} k={k}: {name}"
            # the stacked matrix holds exactly the nonzeros of [A_ub; A_eq]
            assert lp._rows.nnz == np.count_nonzero(A_ub) + np.count_nonzero(A_eq)
            refined = p.refinement_lp(lp, 0.5)
            assert refined._rows is lp._rows and refined.ub[p.alpha_idx] == 0.5
            seen_m.add(sub.m)
    assert seen_m == {1, 2}
