"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import time

import numpy as np
import pytest
from util_geom import erode_support_oracle, minkowski_cloud, random_2d_polytope

from tubenet.cli import bundle_to_dict, design_scenario, scenario_from_dict
from tubenet.geometry import (
    HPolytope,
    VPolytope,
    erode_by_vpolytope,
    member_aggregate,
    vertices_of,
)
from tubenet.model import Coupling
from tubenet.pnp import plug_in, unplug
from tubenet.rci import RciConfig
from tubenet.scenarios import counterexample_scenario, mass_scenario, truck_scenario
from tubenet.sim import (
    LoadStep,
    NaiveMpc,
    SimConfig,
    eta_index,
    max_constraint_slack,
    phi_index,
    run,
    settling_time_95,
)
from tubenet.verify import tube_containment_report

from test_pnp import third_truck, truck_mpc_cfg


def report(number, name, passed, detail=""):
    print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_counterexample_reproduction():
    t0 = time.perf_counter()
    doc = counterexample_scenario()
    scenario = scenario_from_dict(doc)
    net = scenario.network
    ctrls = {i: NaiveMpc(net.subsystems[i], N=20, Q=10.0 * np.eye(4), R=np.eye(2))
             for i in net.ids}
    tr = run(net, ctrls, scenario.sim_config(record_failure=True))
    u0 = np.asarray(tr.data["1"]["u"][0])
    x1 = np.asarray(tr.data["1"]["x"][1])
    elapsed = time.perf_counter() - t0
    ok_u = np.all(np.abs(u0 - np.array([-0.6304, 0.0])) <= 1e-3)
    ok_x = np.all(np.abs(x1 - np.array([1.5015, -0.7813, 0.0, 0.0])) <= 2e-3)
    ok_inf = tr.infeasible_at == 1 and tr.infeasible_id == "1"
    report(1, "counterexample reproduction",
           ok_u and ok_x and ok_inf and elapsed < 5.0,
           f"u0={np.round(u0, 5).tolist()} x1={np.round(x1, 5).tolist()} "
           f"infeasible_at={tr.infeasible_at} elapsed={elapsed:.2f}s")


def test_criterion_2_rci_certificate(truck_network, truck_controllers):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    for i in ("1", "2"):
        sub = truck_network.subsystems[i]
        design = truck_controllers[i].rci
        Z = design.z_set()
        for _ in range(1000):
            x = Z.sample(rng)
            w = design.w_set.sample(rng)
            u, _, _ = truck_controllers[i].compiled.law(x)  # the served law
            succ = sub.A @ x + sub.B @ u + w
            if not member_aggregate(Z, succ, tol=1e-6).feasible:
                failures += 1
    elapsed = time.perf_counter() - t0
    report(2, "sampled invariance certificate",
           failures == 0 and elapsed < 60.0,
           f"failures={failures}/2000 elapsed={elapsed:.1f}s")


def test_criterion_3_inclusions(truck_network, truck_controllers):
    worst_in = np.inf
    worst_tube = np.inf
    for i in ("1", "2"):
        sub = truck_network.subsystems[i]
        sx, su = truck_controllers[i].rci.inclusion_slacks(sub.X, sub.U)
        worst_in = min(worst_in, sx.min(), su.min())
        rep = tube_containment_report(truck_controllers[i])
        worst_tube = min(worst_tube, rep["min_state_slack"], rep["min_input_slack"])
    report(3, "strict inclusions and tube containment",
           worst_in > 0 and worst_tube >= -1e-8,
           f"min inclusion slack={worst_in:.3e}, min containment slack={worst_tube:.3e}")


def test_criterion_4_geometry_oracles():
    rng = np.random.default_rng(44)
    # sequential block erosion against the explicit vertex-sum oracle
    hausdorff_worst = 0.0
    checked = 0
    while checked < 20:
        X = random_2d_polytope(rng, n_points=12)
        blocks = []
        for _ in range(int(rng.integers(2, 4))):
            verts = rng.normal(size=(4, 2)) * 0.12
            verts[0] = 0.0
            blocks.append(VPolytope(verts))
        sigma = 1.0 / (1.0 - rng.uniform(0.0, 0.3))
        mine = X.copy()
        for blk in blocks:
            mine = erode_by_vpolytope(mine, blk, sigma)
            if mine.is_empty():
                break
        oracle = erode_support_oracle(X, minkowski_cloud(blocks, sigma))
        if mine.is_empty() or oracle.is_empty():
            continue
        try:
            mine_v = vertices_of(mine).vertices
            oracle_v = vertices_of(oracle).vertices
        except Exception:
            continue  # degenerate interior; draw another instance
        # mutual vertex containment bounds the Hausdorff distance
        d1 = max(float(np.max(oracle.C @ v - oracle.d)) for v in mine_v)
        d2 = max(float(np.max(mine.C @ v - mine.d)) for v in oracle_v)
        hausdorff_worst = max(hausdorff_worst, d1, d2)
        checked += 1
    report(4, "geometry oracles",
           hausdorff_worst <= 1e-6,
           f"hausdorff bound={hausdorff_worst:.2e} over {checked} instances")


def test_criterion_5_homogeneity(truck_controllers):
    design = truck_controllers["2"].rci
    law = truck_controllers["2"].compiled.law  # the served law
    rng = np.random.default_rng(55)
    Z = design.z_set()
    zmat = design.sigma * np.hstack([blk.T for blk in design.z_blocks])
    worst = 0.0
    for _ in range(100):
        z = Z.sample(rng)
        _, mu, beta = law(z)
        for rho in (0.0, 0.3, 1.0, 2.0):
            _, mu_r, _ = law(rho * z)
            worst = max(worst, abs(mu_r - rho * mu))
            # the scaled optimizer must stay feasible and attain the optimum
            link = float(np.abs(zmat @ (rho * beta) - rho * z).max(initial=0.0))
            worst = max(worst, link, abs(rho * mu - mu_r))
    u0, mu0, beta0 = law(np.zeros(2))
    zero_exact = mu0 == 0.0 and not np.any(u0) and not np.any(beta0)
    report(5, "invariance-control homogeneity",
           worst <= 1e-7 and zero_exact,
           f"max deviation={worst:.2e} zero-exact={zero_exact}")


def test_criterion_6_closed_loop_stability(truck_network, truck_controllers):
    cfg = SimConfig(T=150, x0={"1": [0.0, 0.0], "2": [3.0, 0.0]})
    tr = run(truck_network, truck_controllers, cfg)
    final = max(np.abs(tr.final_x[i]).max() for i in ("1", "2"))
    violations = any(any(tr.data[i]["violation"]) for i in ("1", "2"))
    u1_dec = tr.data["1"]["u"][0][0]

    cfg_dis = SimConfig(T=3, x0={"1": [0.0, 0.0], "2": [3.0, 0.0]}, mode="distributed")
    tr_dis = run(truck_network, truck_controllers, cfg_dis)
    u1_dis = tr_dis.data["1"]["u"][0][0]
    # truck 2 sits at +3: the spring/damper pulls truck 1 forward, so the
    # anticipating correction must push backward
    report(6, "closed-loop stability",
           final <= 0.05 and not violations and u1_dec == 0.0 and u1_dis < 0.0,
           f"final |x|={final:.4f} violations={violations} "
           f"u1_dec={u1_dec} u1_dis={u1_dis:.4f}")


def _cost_decrease_ok(trace, controllers, tol=1e-6):
    worst = -np.inf
    for i in trace.ids:
        Q = controllers[i].cfg.Q
        R = controllers[i].cfg.R
        d = trace.data[i]
        for t in range(trace.steps - 1):
            if not np.array_equal(d["x_ref"][t], d["x_ref"][t + 1]):
                continue  # the tracked equilibrium moved: objective jumps
            ex = np.asarray(d["xhat"][t]) - np.asarray(d["x_ref"][t])
            eu = np.asarray(d["v"][t]) - np.asarray(d["u_ref"][t])
            stage = float(ex @ Q @ ex) + float(eu @ R @ eu)
            worst = max(worst, d["objective"][t + 1] - (d["objective"][t] - stage))
    return worst <= tol, worst


def test_criterion_7_recursive_feasibility(truck_network, truck_controllers,
                                           power_four_areas):
    cfg = SimConfig(T=200, x0={"1": [0.3, -0.2], "2": [2.8, 0.1]})
    tr_truck = run(truck_network, truck_controllers, cfg)
    ok_truck = tr_truck.infeasible_at is None
    dec_truck, worst_truck = _cost_decrease_ok(tr_truck, truck_controllers)

    scenario, controllers = power_four_areas
    cfg_p = SimConfig(T=200, x0={i: np.zeros(4) for i in scenario.network.ids},
                      loads=[LoadStep("1", 5, 0.10), LoadStep("3", 80, -0.08)])
    tr_power = run(scenario.network, controllers, cfg_p)
    ok_power = tr_power.infeasible_at is None
    dec_power, worst_power = _cost_decrease_ok(tr_power, controllers)
    report(7, "recursive feasibility and cost decrease",
           ok_truck and ok_power and dec_truck and dec_power,
           f"truck steps={tr_truck.steps} worst decrease residual={worst_truck:.2e}; "
           f"power steps={tr_power.steps} residual={worst_power:.2e}")


def test_criterion_8_pnp_behavior(truck_network, truck_controllers):
    # commit with a weakly coupled third truck
    sub, coups = third_truck()
    tx = plug_in(truck_network, truck_controllers, sub, coups,
                 truck_mpc_cfg(), RciConfig(minimize_alpha=True))
    ok_commit = tx.committed and tx.redesign_set == ["3", "2"] \
        and tx.controllers["1"] is truck_controllers["1"]

    # engineered rejection: successor disturbance swallows its state set
    scenario = scenario_from_dict(truck_scenario(T=10))
    controllers2, _, failures = design_scenario(scenario)
    assert not failures
    before = json.dumps(bundle_to_dict(scenario, controllers2, {}), sort_keys=True)
    bad_sub, _ = third_truck()
    bad_coups = [Coupling("2", "3", 0.01 * np.eye(2)), Coupling("3", "2", 3.0 * np.eye(2))]
    tx_bad = plug_in(scenario.network, controllers2, bad_sub, bad_coups,
                     truck_mpc_cfg(), RciConfig(minimize_alpha=True))
    after = json.dumps(bundle_to_dict(scenario, controllers2, {}), sort_keys=True)
    ok_reject = (not tx_bad.committed) and before == after

    # unplug with static dynamics: nothing to redesign
    tx_un = unplug(truck_network, truck_controllers, "1", policy="none")
    ok_unplug = tx_un.committed and tx_un.redesign_set == []
    report(8, "plug-and-play behavior", ok_commit and ok_reject and ok_unplug,
           f"commit redesign={tx.redesign_set} reject_rolls_back={ok_reject} "
           f"unplug redesign={tx_un.redesign_set}")


def test_criterion_9_scale_64_masses():
    t_all = time.perf_counter()
    doc = mass_scenario(8, 8, seed=7, T=60, perturbation=0.25)
    scenario = scenario_from_dict(doc)
    controllers, rep, failures = design_scenario(scenario)
    ok_design = not failures
    per_sub = [rep["subsystems"][i]["design_time"] for i in scenario.network.ids]
    tr = run(scenario.network, controllers, scenario.sim_config())
    solve_max = max(max(tr.data[i]["solve_time"]) for i in scenario.network.ids)
    violations = any(any(tr.data[i]["violation"]) for i in scenario.network.ids)
    settle = settling_time_95(tr, ts=0.2)
    total = time.perf_counter() - t_all
    report(9, "64-mass scale check",
           ok_design and max(per_sub) < 5.0 and solve_max < 0.5
           and not violations and settle < 0.2 * 60 and total < 600.0,
           f"design max={max(per_sub):.2f}s solve max={solve_max:.3f}s "
           f"settle={settle:.1f}s total={total:.0f}s")


def test_criterion_10_power_network(power_four_areas):
    scenario, controllers = power_four_areas
    net = scenario.network
    loads = [LoadStep("1", 5, 0.10), LoadStep("3", 80, -0.08)]
    cfg = SimConfig(T=200, x0={i: np.zeros(4) for i in net.ids}, loads=loads)
    tr = run(net, controllers, cfg)

    freq_end = max(abs(float(tr.data[i]["x"][t][1]))
                   for i in net.ids for t in range(180, 200))
    ok_freq = freq_end <= 1e-4

    # local compensation within 60 steps of each step change (5% of the step)
    ok_comp = True
    for ls in loads:
        t_check = ls.time + 60
        pm = float(tr.data[ls.subsystem]["x"][t_check][2])
        ok_comp &= abs(pm - ls.value) <= 0.05 * abs(ls.value)

    # index oracles: plain-loop recomputation must match to 1e-10
    Q = {i: controllers[i].cfg.Q for i in net.ids}
    R = {i: controllers[i].cfg.R for i in net.ids}
    eta = eta_index(tr, Q=Q, R=R)
    eta_oracle = 0.0
    for i in net.ids:
        d = tr.data[i]
        for t in range(tr.steps):
            ex = np.asarray(d["x"][t]) - np.asarray(d["x_ref"][t])
            eu = np.asarray(d["u"][t]) - np.asarray(d["u_ref"][t])
            eta_oracle += float(ex @ Q[i] @ ex) + float(eu @ R[i] @ eu)
    eta_oracle /= tr.steps

    gains = {("1", "2"): 0.028, ("2", "1"): 0.028, ("2", "3"): 0.027,
             ("3", "2"): 0.027, ("3", "4"): 0.026, ("4", "3"): 0.026}
    phi = phi_index(tr, gains, ts=1.0)
    phi_oracle = 0.0
    for (i, j), g in gains.items():
        for t in range(tr.steps):
            phi_oracle += abs(g * (tr.data[i]["x"][t][0] - tr.data[j]["x"][t][0])) * 1.0
    phi_oracle /= tr.steps

    ok_idx = abs(eta - eta_oracle) <= 1e-10 and abs(phi - phi_oracle) <= 1e-10
    ok_slack = max_constraint_slack(tr, net) <= 0.0
    report(10, "power-network substitute",
           ok_freq and ok_comp and ok_idx and ok_slack,
           f"|freq| end={freq_end:.2e} compensated={ok_comp} "
           f"eta={eta:.6f} (oracle diff {abs(eta - eta_oracle):.1e}) "
           f"phi={phi:.6f} (oracle diff {abs(phi - phi_oracle):.1e})")
