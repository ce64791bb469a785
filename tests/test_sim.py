import numpy as np
import pytest

from tubenet.controller import InfeasibleStep
from tubenet.model import Network, build_truck_network
from tubenet.sim import (
    LoadStep,
    NaiveMpc,
    SimConfig,
    SimTrace,
    build_naive_counterexample_network,
    compute_metrics,
    eta_index,
    max_constraint_slack,
    phi_index,
    run,
    settling_time_95,
)

from conftest import design_truck_controllers


# ------------------------------------------------------------------ basic runs

def test_equilibrium_stays_at_zero(truck_network, truck_controllers):
    cfg = SimConfig(T=20, x0={"1": np.zeros(2), "2": np.zeros(2)})
    tr = run(truck_network, truck_controllers, cfg)
    for i in ("1", "2"):
        assert np.allclose(tr.arrays(i, "x"), 0.0)
        assert np.allclose(tr.arrays(i, "u"), 0.0)
        assert not any(tr.data[i]["violation"])


def test_truck_decentralized_first_inputs(truck_network, truck_controllers):
    cfg = SimConfig(T=3, x0={"1": [0.0, 0.0], "2": [3.0, 0.0]})
    tr = run(truck_network, truck_controllers, cfg)
    assert tr.data["1"]["u"][0][0] == 0.0  # exactly, not approximately
    assert tr.data["2"]["u"][0][0] != 0.0


def test_truck_distributed_first_inputs(truck_network, truck_controllers):
    cfg = SimConfig(T=3, x0={"1": [0.0, 0.0], "2": [3.0, 0.0]}, mode="distributed")
    tr = run(truck_network, truck_controllers, cfg)
    u1 = tr.data["1"]["u"][0][0]
    assert u1 != 0.0
    assert u1 < 0  # pushes against the spring/damper pull from truck 2
    assert u1 == pytest.approx(-0.012, abs=2e-3)


def test_truck_convergence_and_constraints(truck_network, truck_controllers):
    cfg = SimConfig(T=150, x0={"1": [0.0, 0.0], "2": [3.0, 0.0]})
    tr = run(truck_network, truck_controllers, cfg)
    assert tr.infeasible_at is None
    assert max(np.abs(tr.final_x[i]).max() for i in ("1", "2")) <= 0.05
    assert max_constraint_slack(tr, truck_network) <= 0.0
    for i in ("1", "2"):
        assert not any(tr.data[i]["violation"])


def test_cost_decrease_along_run(truck_network, truck_controllers):
    cfg = SimConfig(T=60, x0={"1": [0.0, 0.0], "2": [3.0, 0.0]})
    tr = run(truck_network, truck_controllers, cfg)
    Q = truck_controllers["1"].cfg.Q
    R = truck_controllers["1"].cfg.R
    for i in ("1", "2"):
        d = tr.data[i]
        for t in range(tr.steps - 1):
            ex = np.asarray(d["xhat"][t]) - np.asarray(d["x_ref"][t])
            eu = np.asarray(d["v"][t]) - np.asarray(d["u_ref"][t])
            stage = float(ex @ Q @ ex) + float(eu @ R @ eu)
            assert d["objective"][t + 1] <= d["objective"][t] - stage + 1e-6


def test_recursive_feasibility_long_run(truck_network, truck_controllers):
    cfg = SimConfig(T=200, x0={"1": [0.5, -0.3], "2": [2.5, 0.2]})
    tr = run(truck_network, truck_controllers, cfg)
    assert tr.infeasible_at is None
    assert all(all(tr.data[i]["feasible"]) for i in ("1", "2"))


def test_tube_containment_along_run(truck_network, truck_controllers):
    from tubenet.geometry import member_aggregate

    cfg = SimConfig(T=40, x0={"1": [0.0, 0.0], "2": [3.0, 0.0]})
    tr = run(truck_network, truck_controllers, cfg)
    for i in ("1", "2"):
        Z = truck_controllers[i].rci.z_set()
        d = tr.data[i]
        for t in range(tr.steps):
            err = np.asarray(d["x"][t]) - np.asarray(d["xhat"][t])
            assert member_aggregate(Z, err, tol=1e-7).feasible


def test_determinism_identical_traces(truck_network, truck_controllers):
    cfg = SimConfig(T=25, x0={"1": [0.4, 0.0], "2": [2.0, -0.5]})
    a = run(truck_network, truck_controllers, cfg)
    b = run(truck_network, truck_controllers, cfg)
    assert a.fingerprint() == b.fingerprint()


def test_mode_consistency_when_uncoupled():
    # no coupling records at all: the predecessor-aware law has nothing to
    # use and both modes must produce identical trajectories
    net = build_truck_network()
    solo = Network([net.subsystems["1"], net.subsystems["2"]], [])
    ctrls = design_truck_controllers(solo)  # the run's mode alone picks the law
    x0 = {"1": [1.0, 0.0], "2": [2.0, 0.0]}
    tr_dec = run(solo, ctrls, SimConfig(T=30, x0=x0, mode="decentralized"))
    tr_dis = run(solo, ctrls, SimConfig(T=30, x0=x0, mode="distributed"))
    for i in ("1", "2"):
        assert np.array_equal(tr_dec.arrays(i, "x"), tr_dis.arrays(i, "x"))
        assert np.array_equal(tr_dec.arrays(i, "u"), tr_dis.arrays(i, "u"))


def test_missing_controller_or_state_rejected(truck_network, truck_controllers):
    with pytest.raises(ValueError):
        run(truck_network, {"1": truck_controllers["1"]},
            SimConfig(T=2, x0={"1": np.zeros(2), "2": np.zeros(2)}))
    with pytest.raises(ValueError):
        run(truck_network, truck_controllers, SimConfig(T=2, x0={"1": np.zeros(2)}))


# ------------------------------------------------------------- naive baseline

def paper_naive_controllers(net):
    """The baseline with the paper's weights, Q = 10 I and R = I."""
    return {i: NaiveMpc(net.subsystems[i], Q=10.0 * np.eye(4), R=np.eye(2)) for i in net.ids}


def test_naive_counterexample_reproduction():
    net = build_naive_counterexample_network()
    ctrls = paper_naive_controllers(net)
    cfg = SimConfig(T=5, x0={"1": [1.5, 0.8, 0.0, 0.0], "2": [1.5, 0.0, 0.0, 0.0]},
                    record_failure=True)
    tr = run(net, ctrls, cfg)
    u0 = tr.data["1"]["u"][0]
    assert np.allclose(u0, [-0.6304, 0.0], atol=1e-3)
    x1 = tr.data["1"]["x"][1]
    assert np.allclose(x1, [1.5015, -0.7813, 0.0, 0.0], atol=2e-3)
    assert tr.infeasible_at == 1
    assert tr.infeasible_id == "1"


def test_naive_program_is_built_once(monkeypatch):
    from tubenet import optim

    calls = []
    eigvalsh = optim.np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(optim.np.linalg, "eigvalsh", counting_eigvalsh)
    net = build_naive_counterexample_network()
    ctrls = paper_naive_controllers(net)
    cfg = SimConfig(T=5, x0={"1": [1.5, 0.8, 0.0, 0.0], "2": [1.5, 0.0, 0.0, 0.0]},
                    record_failure=True)
    tr = run(net, ctrls, cfg)
    assert tr.infeasible_at == 1
    for x in ([0.0, 0.0, 0.0, 0.0], [-0.7, 0.3, 0.2, -0.1]):  # and more steps
        for ctrl in ctrls.values():
            ctrl.step(np.array(x))
    assert len(calls) == len(ctrls)


def test_naive_infeasibility_is_certified(monkeypatch):
    """The step at t = 1 fails with a Farkas vector (u >= 0, mu) that holds on
    the QP's own data: G'u + A_eq'mu = 0 and h'u + b_eq'mu < 0."""
    from tubenet import sim

    reports = []
    solve_qp = sim.solve_qp

    def recording_solve_qp(p, *args, **kwargs):
        reports.append((p, solve_qp(p, *args, **kwargs)))
        return reports[-1][1]

    monkeypatch.setattr(sim, "solve_qp", recording_solve_qp)
    net = build_naive_counterexample_network()
    cfg = SimConfig(T=5, x0={"1": [1.5, 0.8, 0.0, 0.0], "2": [1.5, 0.0, 0.0, 0.0]},
                    record_failure=True)
    tr = run(net, paper_naive_controllers(net), cfg)
    assert tr.infeasible_at == 1 and tr.infeasible_status == "infeasible"
    p, rep = reports[-1]
    assert rep.status == "infeasible"
    u, mu = rep.duals["ineq"], rep.duals["eq"]
    assert np.all(u >= 0)
    assert np.abs(p.A_ub.T @ u + p.A_eq.T @ mu).max() <= 1e-10
    assert p.b_ub @ u + p.b_eq @ mu < -1e-6


def test_naive_raises_without_record_flag():
    net = build_naive_counterexample_network()
    ctrls = paper_naive_controllers(net)
    cfg = SimConfig(T=5, x0={"1": [1.5, 0.8, 0.0, 0.0], "2": [1.5, 0.0, 0.0, 0.0]})
    with pytest.raises(InfeasibleStep):
        run(net, ctrls, cfg)


def test_naive_zero_state_zero_input():
    net = build_naive_counterexample_network()
    ctrl = NaiveMpc(net.subsystems["1"])
    u, info = ctrl.step(np.zeros(4))
    assert np.allclose(u, 0.0, atol=1e-7)
    assert info["objective"] == pytest.approx(0.0, abs=1e-9)


def test_naive_feasible_at_boundary_start():
    net = build_naive_counterexample_network()
    ctrl = NaiveMpc(net.subsystems["1"])
    u, _ = ctrl.step(np.array([1.5, 0.8, 0.0, 0.0]))
    assert np.all(np.isfinite(u))


def test_naive_weights_default_to_identities():
    sub = build_naive_counterexample_network().subsystems["1"]
    default, explicit = NaiveMpc(sub), NaiveMpc(sub, Q=np.eye(4), R=np.eye(2))
    for x in ([0.0, 0.0, 0.0, 0.0], [1.5, 0.8, 0.0, 0.0], [-0.7, 0.3, 0.2, -0.1]):
        u, info = default.step(np.array(x))
        u_ref, info_ref = explicit.step(np.array(x))
        assert np.array_equal(u, u_ref)
        assert info["objective"] == info_ref["objective"]
        assert np.array_equal(info["x_pred"], info_ref["x_pred"])


# ----------------------------------------------------------------- metrics

def test_eta_zero_at_setpoint(truck_network, truck_controllers):
    cfg = SimConfig(T=5, x0={"1": np.zeros(2), "2": np.zeros(2)})
    tr = run(truck_network, truck_controllers, cfg)
    assert eta_index(tr, Q=np.eye(2), R=np.eye(1)) == 0.0


def test_eta_constant_unit_error():
    tr = SimTrace(["a"], {})
    for _ in range(4):
        tr.record("a", x=np.array([1.0, 0.0]), u=np.zeros(1), v=np.zeros(1),
                  xhat=np.zeros(2), x_ref=np.zeros(2), u_ref=np.zeros(1),
                  mu=0.0, objective=0.0, feasible=True, violation=False, solve_time=0.0)
    assert eta_index(tr, Q=np.eye(2), R=np.eye(1)) == pytest.approx(1.0)


def test_eta_matches_direct_summation(truck_network, truck_controllers):
    cfg = SimConfig(T=12, x0={"1": [0.3, 0.1], "2": [1.5, -0.2]})
    tr = run(truck_network, truck_controllers, cfg)
    Q = np.diag([2.0, 0.5])
    R = np.array([[0.7]])
    # independent recomputation with plain loops
    total = 0.0
    for i in ("1", "2"):
        for t in range(12):
            ex = np.asarray(tr.data[i]["x"][t])
            eu = np.asarray(tr.data[i]["u"][t])
            total += ex @ Q @ ex + eu @ R @ eu
    assert eta_index(tr, Q=Q, R=R) == pytest.approx(total / 12, rel=1e-12)


def test_phi_zero_for_equal_angles():
    tr = SimTrace(["1", "2"], {})
    for _ in range(6):
        for i in ("1", "2"):
            tr.record(i, x=np.array([0.25, 0.0]), u=np.zeros(1), v=np.zeros(1),
                      xhat=np.zeros(2), x_ref=np.zeros(2), u_ref=np.zeros(1),
                      mu=0.0, objective=0.0, feasible=True, violation=False,
                      solve_time=0.0)
    assert phi_index(tr, {("1", "2"): 1.0}, ts=1.0) == 0.0


def test_phi_constant_offset_hand_value():
    tr = SimTrace(["1", "2"], {})
    for _ in range(10):
        tr.record("1", x=np.array([0.1, 0.0]), u=np.zeros(1), v=np.zeros(1),
                  xhat=np.zeros(2), x_ref=np.zeros(2), u_ref=np.zeros(1),
                  mu=0.0, objective=0.0, feasible=True, violation=False, solve_time=0.0)
        tr.record("2", x=np.array([0.0, 0.0]), u=np.zeros(1), v=np.zeros(1),
                  xhat=np.zeros(2), x_ref=np.zeros(2), u_ref=np.zeros(1),
                  mu=0.0, objective=0.0, feasible=True, violation=False, solve_time=0.0)
    # one directed pair, gain 1, offset 0.1, Ts = 1: average is 0.1
    assert phi_index(tr, {("1", "2"): 1.0}, ts=1.0) == pytest.approx(0.1)


def test_phi_matches_direct_summation(power_four_areas):
    scenario, controllers = power_four_areas
    cfg = SimConfig(T=30, x0={i: np.zeros(4) for i in scenario.network.ids},
                    loads=[LoadStep("1", 2, 0.08)])
    tr = run(scenario.network, controllers, cfg)
    gains = {("1", "2"): 0.4, ("2", "1"): 0.4, ("2", "3"): 0.35}
    total = 0.0
    for (i, j), g in gains.items():
        for t in range(30):
            total += abs(g * (tr.data[i]["x"][t][0] - tr.data[j]["x"][t][0])) * 1.0
    assert phi_index(tr, gains, ts=1.0) == pytest.approx(total / 30, rel=1e-12)


def test_settling_time_at_setpoint_is_zero(truck_network, truck_controllers):
    cfg = SimConfig(T=5, x0={"1": np.zeros(2), "2": np.zeros(2)})
    tr = run(truck_network, truck_controllers, cfg)
    assert settling_time_95(tr, ts=0.1) == 0.0


def test_metrics_document(truck_network, truck_controllers, tmp_path):
    cfg = SimConfig(T=40, x0={"1": [0.0, 0.0], "2": [3.0, 0.0]})
    tr = run(truck_network, truck_controllers, cfg)
    m = compute_metrics(tr, truck_network, Q=np.eye(2), R=np.eye(1), ts=0.1)
    assert m.eta >= 0.0
    assert m.phi == 0.0  # no tie gains supplied
    assert m.max_slack <= 0.0
    path = tmp_path / "metrics.json"
    m.to_json(path)
    import json

    doc = json.loads(path.read_text())
    assert set(doc) == {"eta", "phi", "settling_95", "max_slack"}


# ------------------------------------------------------------- serialization

def test_trace_json_roundtrip(truck_network, truck_controllers, tmp_path):
    cfg = SimConfig(T=10, x0={"1": [0.2, 0.0], "2": [1.0, 0.0]})
    tr = run(truck_network, truck_controllers, cfg)
    path = tmp_path / "trace.json"
    tr.to_json(path)
    back = SimTrace.from_json(path)
    assert back.fingerprint() == tr.fingerprint()


def test_trace_csv_shape(truck_network, truck_controllers, tmp_path):
    cfg = SimConfig(T=7, x0={"1": [0.2, 0.0], "2": [1.0, 0.0]})
    tr = run(truck_network, truck_controllers, cfg)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["t", "id"]
    assert len(lines) == 1 + 7 * 2  # header + T rows per subsystem
