from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov
from scipy.signal import place_poles
from scipy.spatial import ConvexHull

from tubenet import controller as controller_mod
from tubenet import optim
from tubenet.controller import (
    InfeasibleStep,
    MissingPredecessorState,
    MpcConfig,
    TerminalData,
    design_controller,
    kappa_bar_dis_full,
    kappa_bar_full,
    solve_mpc,
    step_control,
    tighten_sets,
)
from tubenet.geometry import HPolytope, VAggregate, VPolytope, box_vertices, member_aggregate
from tubenet.model import disturbance_set
from tubenet.rci import DesignError, DesignFailure, RciConfig, RciDesign
from tubenet.sim import SimConfig, run
from tubenet.verify import homogeneity_report, tube_containment_report

from conftest import TRUCK_Q, TRUCK_R, design_truck_controllers


def make_design(z_blocks, u_blocks, alpha=0.0, A=None, B=None):
    """Hand-built design record for geometry-only tests."""
    n = z_blocks[0].shape[1]
    m = u_blocks[0].shape[1]
    q = z_blocks[0].shape[0]
    return RciDesign("t", alpha, len(z_blocks), q, 0.01,
                     [np.asarray(b, dtype=float) for b in z_blocks],
                     [np.asarray(b, dtype=float) for b in u_blocks],
                     VPolytope(z_blocks[0]), VAggregate([VPolytope.origin(n)], 1.0),
                     np.zeros((q, n)), np.zeros((q, q)),
                     np.eye(n) if A is None else np.asarray(A, dtype=float),
                     np.zeros((n, m)) if B is None else np.asarray(B, dtype=float))


def scalar_design():
    """x+ = 0.5x + u with u(f) = -0.5 z(f): one-step fold to the origin."""
    z = np.array([[0.0], [0.15], [-0.15]])
    u = -0.5 * z
    return make_design([z], [u], alpha=0.0, A=[[0.5]], B=[[1.0]])


# ----------------------------------------------------------------- tighten_sets

def test_tighten_by_origin_is_identity():
    X = HPolytope.symmetric_box([1.0, 1.0])
    U = HPolytope.symmetric_box([1.0])
    d = make_design([np.zeros((1, 2))], [np.zeros((1, 1))])
    Xhat, V = tighten_sets(X, U, d)
    assert np.allclose(Xhat.d, X.d)
    assert np.allclose(V.d, U.d)


def test_tighten_box_arithmetic():
    X = HPolytope.symmetric_box([1.0, 1.0])
    U = HPolytope.symmetric_box([1.0])
    zblk = box_vertices([-0.2, -0.2], [0.2, 0.2])
    d = make_design([zblk], [np.zeros((16, 1))[:4]], alpha=0.0)
    Xhat, _ = tighten_sets(X, U, d)
    assert np.allclose(sorted(Xhat.d), [0.8] * 4)


def test_tighten_truck_containment(truck_controllers):
    for ctrl in truck_controllers.values():
        rep = tube_containment_report(ctrl)
        assert rep["passed"], rep


def test_tighten_empty_raises():
    X = HPolytope.symmetric_box([0.1, 0.1])
    U = HPolytope.symmetric_box([1.0])
    zblk = box_vertices([-0.5, -0.5], [0.5, 0.5])
    d = make_design([zblk], [np.zeros((4, 1))])
    with pytest.raises(DesignError):
        tighten_sets(X, U, d)


# -------------------------------------------------------------------- solve_mpc

def test_mpc_at_setpoint_is_exact(truck_controllers):
    sol = solve_mpc(truck_controllers["1"], np.zeros(2))
    assert sol.feasible
    assert sol.objective == 0.0
    assert np.array_equal(sol.v0, np.zeros(1))
    assert np.array_equal(sol.xhat0, np.zeros(2))


def test_mpc_inside_tube_zero_cost(truck_controllers):
    ctrl = truck_controllers["2"]
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = ctrl.rci.z_set().sample(rng)
        sol = solve_mpc(ctrl, x)
        assert sol.feasible
        assert sol.objective == 0.0
        assert np.array_equal(sol.xhat0, np.zeros(2))
        assert member_aggregate(ctrl.rci.z_set(), x - sol.xhat0, tol=1e-8).feasible


def test_mpc_far_outside_infeasible(truck_controllers):
    sol = solve_mpc(truck_controllers["1"], np.array([40.0, 0.0]))
    assert sol.status == "infeasible"


def test_mpc_sequences_consistent(truck_controllers):
    ctrl = truck_controllers["2"]
    sol = solve_mpc(ctrl, np.array([3.0, 0.0]))
    assert sol.feasible
    sub = ctrl.sub
    for k in range(ctrl.cfg.N):
        succ = sub.A @ sol.xhat_seq[k] + sub.B @ sol.v_seq[k]
        assert np.allclose(succ, sol.xhat_seq[k + 1], atol=1e-6)
        assert ctrl.Xhat.contains(sol.xhat_seq[k], tol=1e-6)
        assert ctrl.V.contains(sol.v_seq[k], tol=1e-6)
    assert np.allclose(sol.xhat_seq[-1], 0.0, atol=1e-6)  # zero-terminal pin
    beta = np.concatenate(sol.beta)
    assert np.all(beta >= -1e-9)


def test_mpc_rejects_non_equilibrium_setpoint(truck_controllers):
    with pytest.raises(ValueError):
        solve_mpc(truck_controllers["1"], np.zeros(2), x_ref=np.array([1.0, 0.5]))


def test_mpc_l1_cost_mode(truck_network):
    net = truck_network
    ctrl = design_controller(net.subsystems["2"], disturbance_set(net, "2"),
                             RciConfig(minimize_alpha=True),
                             MpcConfig(N=25, Q=TRUCK_Q, R=TRUCK_R, cost="l1"))
    assert not isinstance(ctrl, DesignFailure)
    sol = solve_mpc(ctrl, np.array([3.0, 0.0]))
    assert sol.feasible
    assert sol.objective > 0
    sol0 = solve_mpc(ctrl, np.zeros(2))
    assert sol0.objective == 0.0


# --------------------------------------------------------------- kappa_bar_full

def test_kappa_zero_error_exact_zero():
    d = scalar_design()
    u, mu, beta = kappa_bar_full(d, np.zeros(1))
    assert mu == 0.0
    assert not np.any(u)
    assert not np.any(beta)


def test_kappa_scalar_hand_value():
    d = scalar_design()
    u = kappa_bar_full(d, np.array([0.1]))[0]
    assert u[0] == pytest.approx(-0.05, abs=1e-9)
    _, mu, _ = kappa_bar_full(d, np.array([0.1]))
    assert mu == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_kappa_homogeneity_pairs(truck_controllers):
    d = truck_controllers["2"].rci
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = d.z_set().sample(rng)
        _, mu, _ = kappa_bar_full(d, z)
        _, mu2, _ = kappa_bar_full(d, 2.0 * z)
        assert mu2 == pytest.approx(2.0 * mu, abs=1e-7)


def test_kappa_homogeneity_report(truck_controllers):
    rep = homogeneity_report(truck_controllers["2"], n_samples=50, seed=5)
    assert rep["passed"], rep


def test_kappa_feasible_anywhere(truck_controllers):
    # the seed block is full-dimensional, so any error state is representable
    d = truck_controllers["1"].rci
    u = kappa_bar_full(d, np.array([100.0, -50.0]))[0]
    assert np.all(np.isfinite(u))


def test_kappa_shrinks_tube_under_small_disturbance(truck_controllers, truck_network):
    # statistical form of the shrink property: states from the tube section
    # and disturbances from half the seed block land the successor in the
    # section eroded by the other half of the seed block, i.e. the successor
    # plus any half-seed vertex is still a member
    ctrl = truck_controllers["2"]
    d = ctrl.rci
    sub = truck_network.subsystems["2"]
    Z = d.z_set()
    seed = d.z_blocks[0]
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = Z.sample(rng)
        w_coef = rng.random(seed.shape[0])
        w_coef /= w_coef.sum()
        w = 0.5 * (w_coef @ seed)
        u, _, _ = kappa_bar_full(d, x)
        succ = sub.A @ x + sub.B @ u + w
        for v in seed:
            assert member_aggregate(Z, succ + 0.5 * v, tol=1e-7).feasible


# ----------------------------------------------------------- kappa_bar_dis_full

def test_kappa_dis_all_zero(truck_network, truck_controllers):
    net = truck_network
    ctrl = truck_controllers["1"]
    u_z = kappa_bar_dis_full(ctrl.rci, np.zeros(2), np.zeros(1),
                             {"2": np.zeros(2)}, net.predecessors("1"), ctrl.sub.U)[0]
    assert np.allclose(u_z, 0.0, atol=1e-9)


def test_kappa_dis_counteracts_coupling(truck_network, truck_controllers_distributed):
    # x1 = 0, x2 displaced: the predecessor-aware law acts on subsystem 1
    # while the decentralized one stays silent; the reported value is -0.012
    net = truck_network
    states = {"1": np.zeros(2), "2": np.array([3.0, 0.0])}
    u1, diag1 = step_control(truck_controllers_distributed["1"], states["1"],
                             predecessor_states=states, couplings=net.predecessors("1"))
    assert diag1.kappa_mode == "distributed"
    assert u1[0] < 0  # opposes the positive spring/damper pull
    assert u1[0] == pytest.approx(-0.012, abs=2e-3)


def test_kappa_dis_feasible_at_disturbance_vertices(truck_network, truck_controllers):
    net = truck_network
    ctrl = truck_controllers["2"]
    verts = net.subsystems["1"].state_vertices().vertices
    rng = np.random.default_rng(2)
    for v in verts:
        z = ctrl.rci.z_set().sample(rng)
        u_z = kappa_bar_dis_full(ctrl.rci, z, np.zeros(1), {"1": v},
                                 net.predecessors("2"), ctrl.sub.U)[0]
        assert np.all(np.isfinite(u_z))


def test_kappa_dis_missing_predecessor_raises(truck_network, truck_controllers):
    net = truck_network
    ctrl = truck_controllers["2"]
    with pytest.raises(MissingPredecessorState):
        kappa_bar_dis_full(ctrl.rci, np.zeros(2), np.zeros(1), {},
                           net.predecessors("2"), ctrl.sub.U)


def test_step_control_falls_back_without_states(truck_network, truck_controllers_distributed):
    net = truck_network
    u, diag = step_control(truck_controllers_distributed["1"], np.zeros(2),
                           predecessor_states={}, couplings=net.predecessors("1"))
    assert diag.kappa_mode == "fallback"
    assert np.array_equal(u, np.zeros(1))


# ----------------------------------------------------------------- step_control

def test_step_zero_state_zero_input(truck_controllers):
    u, diag = step_control(truck_controllers["1"], np.zeros(2))
    assert np.array_equal(u, np.zeros(1))
    assert diag.objective == 0.0


def test_step_inside_tube_uses_invariance_law(truck_controllers):
    # beta is not unique: the step's (mu, beta) must be an optimal solution
    # of the invariance LP, and u its input mix
    ctrl = truck_controllers["2"]
    rci = ctrl.rci
    zmat = rci.sigma * np.hstack([blk.T for blk in rci.z_blocks])
    umat = rci.sigma * np.hstack([blk.T for blk in rci.u_blocks])
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rci.z_set().sample(rng)
        u, diag = step_control(ctrl, x)
        assert np.array_equal(diag.v0, np.zeros(1))
        assert np.array_equal(diag.xhat0, np.zeros(2))
        _, mu_lp, _ = kappa_bar_full(rci, x)
        assert abs(diag.mu - mu_lp) <= 1e-9
        assert np.all(diag.beta >= -1e-12)
        assert np.allclose(diag.beta.reshape(rci.k, rci.q).sum(axis=1), diag.mu, atol=1e-12)
        assert np.allclose(zmat @ diag.beta, x, atol=1e-9)
        assert np.allclose(u, umat @ diag.beta, atol=1e-12)


def test_step_input_constraints_hold(truck_controllers):
    ctrl = truck_controllers["2"]
    sub = ctrl.sub
    rng = np.random.default_rng(21)
    for trial in range(500):
        rho = rng.uniform(0.0, 1.0)
        x = rho * ctrl.rci.z_set().sample(rng)
        u, _ = step_control(ctrl, x)
        assert np.all(sub.U.C @ u <= sub.U.d + 1e-7)
    for x in ([3.0, 0.0], [-3.0, 0.5], [2.0, -1.0], [4.0, 0.0]):
        u, _ = step_control(ctrl, np.array(x))
        assert np.all(sub.U.C @ u <= sub.U.d + 1e-7)


def test_step_infeasible_propagates(truck_controllers):
    with pytest.raises(InfeasibleStep):
        step_control(truck_controllers["1"], np.array([40.0, 0.0]))


# -------------------------------------------------------------- terminal data

def lqr_terminal(sub, Q, R, level=0.5, n_vertices=64):
    """Custom terminal triple from the discrete LQR solution: weight from the
    Riccati equation, polygon inscribed in one of its level sets."""
    S = solve_discrete_are(sub.A, sub.B, Q, R)
    K = -np.linalg.solve(sub.B.T @ S @ sub.B + R, sub.B.T @ S @ sub.A)
    L = np.linalg.cholesky(S)
    angles = np.linspace(0, 2 * np.pi, n_vertices, endpoint=False)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    verts = np.sqrt(level) * np.linalg.solve(L.T, circle.T).T
    hull = ConvexHull(verts)
    Xf = HPolytope(hull.equations[:, :2], -hull.equations[:, 2])
    return TerminalData(mode="custom", S=S, K_aux=K, Xf=Xf, xf_vertices=VPolytope(verts))


def test_custom_terminal_validates_and_solves(truck_network):
    net = truck_network
    sub = net.subsystems["1"]
    term = lqr_terminal(sub, TRUCK_Q, TRUCK_R)
    ctrl = design_controller(sub, disturbance_set(net, "1"),
                             RciConfig(minimize_alpha=True),
                             MpcConfig(N=10, Q=TRUCK_Q, R=TRUCK_R, terminal=term))
    assert not isinstance(ctrl, DesignFailure)
    sol = solve_mpc(ctrl, np.array([1.0, 0.0]))
    assert sol.feasible
    assert term.Xf.contains(sol.xhat_seq[-1], tol=1e-6)


def test_custom_terminal_rejects_bad_weight(truck_network):
    sub = truck_network.subsystems["1"]
    term = lqr_terminal(sub, TRUCK_Q, TRUCK_R)
    bad = TerminalData(mode="custom", S=0.01 * term.S, K_aux=term.K_aux,
                       Xf=term.Xf, xf_vertices=term.xf_vertices)
    with pytest.raises(DesignError):
        bad.validate(sub.A, sub.B, TRUCK_Q, TRUCK_R,
                     HPolytope.symmetric_box([10.0, 10.0]), HPolytope.symmetric_box([10.0]))


def test_custom_terminal_rejects_oversized_set(truck_network):
    sub = truck_network.subsystems["1"]
    term = lqr_terminal(sub, TRUCK_Q, TRUCK_R, level=1e4)
    with pytest.raises(DesignError):
        term.validate(sub.A, sub.B, TRUCK_Q, TRUCK_R,
                      HPolytope.symmetric_box([4.0, 1.5]), HPolytope.symmetric_box([1.3]))


def test_terminal_data_requires_fields():
    with pytest.raises(ValueError):
        TerminalData(mode="custom")
    with pytest.raises(ValueError):
        TerminalData(mode="banana")


# ---------------------------------------------------- compiled nominal program

def real_pole_terminal(sub, Q, R, poles=(0.5, 0.6, 0.7, 0.8), eps=1e-3):
    """Custom terminal triple around an auxiliary loop with real poles: the
    box |T^-1 x|_inf <= eps in the loop's eigenbasis T is invariant, and the
    loop's Lyapunov weight, raised by 1 %, decreases strictly along it."""
    K = -place_poles(sub.A, sub.B, poles).gain_matrix
    Acl = sub.A + sub.B @ K
    T = np.linalg.eig(Acl)[1].real
    Ti = np.linalg.inv(T)
    Xf = HPolytope(np.vstack([Ti, -Ti]), np.full(2 * sub.n, eps))
    verts = box_vertices(np.full(sub.n, -eps), np.full(sub.n, eps)) @ T.T
    S = solve_discrete_lyapunov(Acl.T, Q + K.T @ R @ K)
    return TerminalData(mode="custom", S=1.01 * (S + S.T) / 2, K_aux=K, Xf=Xf,
                        xf_vertices=VPolytope(verts))


@pytest.mark.parametrize("variant", ["quadratic", "l1", "custom"])
def test_nominal_rhs_does_not_leak_between_solves(power_four_areas, variant):
    scenario, _ = power_four_areas
    net = scenario.network
    sub = net.subsystems["1"]
    cfg = scenario.controller_config("1").resolved(sub.n, sub.m)
    if variant == "l1":
        cfg = replace(cfg, cost="l1")
    elif variant == "custom":
        cfg = replace(cfg, terminal=real_pole_terminal(sub, cfg.Q, cfg.R))

    def design():
        ctrl = design_controller(sub, disturbance_set(net, "1"), scenario.rci_config("1"), cfg)
        assert not isinstance(ctrl, DesignFailure), ctrl
        return ctrl

    load = 0.1  # a nonzero load step moves the setpoint to (0, 0, load, load)
    setpoints = [(np.zeros(4), np.zeros(1), np.zeros(4)),
                 (np.multiply(sub.setpoint_state_gain, load),
                  np.multiply(sub.setpoint_input_gain, load), sub.L[:, 0] * load)]
    states = [np.array([0.02, 0.0, 0.05, 0.05]), np.array([-0.03, 0.01, 0.0, 0.0])]
    shared = design()
    program = shared.compiled.program
    b_ub, b_eq = program.b_ub.copy(), program.b_eq.copy()
    # each solve changes the setpoint, the state or both against the one before
    for a, b in ((0, 0), (0, 1), (1, 1), (1, 0), (0, 0), (1, 1)):
        x_ref, u_ref, load_term = setpoints[b]
        sol = solve_mpc(shared, states[a], x_ref, u_ref, load_term)
        ref = solve_mpc(design(), states[a], x_ref, u_ref, load_term)
        assert sol.feasible and sol.objective > 0  # served by the solver, not the shortcut
        assert np.array_equal(sol.v_seq, ref.v_seq)
        assert np.array_equal(sol.xhat_seq, ref.xhat_seq)
        assert all(np.array_equal(u, v) for u, v in zip(sol.beta, ref.beta))
        assert sol.objective == ref.objective
    assert shared.compiled.program is program
    assert np.array_equal(program.b_ub, b_ub) and np.array_equal(program.b_eq, b_eq)


def test_hessian_is_checked_once_per_controller(monkeypatch, truck_network):
    ctrls = design_truck_controllers(truck_network)
    calls = {"eigvalsh": 0, "qp": 0}
    eigvalsh, solve_qp = optim.np.linalg.eigvalsh, controller_mod.solve_qp

    def counting_eigvalsh(*args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_solve_qp(*args, **kwargs):
        calls["qp"] += 1
        return solve_qp(*args, **kwargs)

    monkeypatch.setattr(optim.np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(controller_mod, "solve_qp", counting_solve_qp)
    tr = run(truck_network, ctrls, SimConfig(T=150, x0={"1": np.zeros(2), "2": [3.0, 0.0]}))
    assert tr.steps == 150
    assert calls["qp"] > 5 * len(ctrls)  # many QPs per controller
    assert calls["eigvalsh"] == len(ctrls)
