"""The compiled online step: the per-setpoint verdict, the single cone lookup
of the shortcut, the shortcut's plain solution, and the per-run schedule of
`sim.run`. Every result is compared with an eager computation or a fresh
controller, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

from tubenet import controller as controller_mod
from tubenet import section as section_mod
from tubenet import sim as sim_mod
from tubenet.controller import solve_mpc, step_control
from tubenet.sim import LoadStep, SimConfig, run


def references(sub, load):
    """(x_ref, u_ref, load_term) of a power area at a load level."""
    return (np.multiply(sub.setpoint_state_gain, load),
            np.multiply(sub.setpoint_input_gain, load), sub.L[:, 0] * load)


def fresh(controllers):
    """The same designs without their compiled state."""
    return {i: replace(c) for i, c in controllers.items()}


def inside(rci):
    """A nonzero point inside the tube section: half of a sum of one
    vertex per block."""
    return 0.5 * rci.sigma * sum(blk[-1] for blk in rci.z_blocks)


# ------------------------------------------------------- shortcut solution

@pytest.mark.parametrize("with_section", [True, False])
def test_shortcut_solution_is_the_plain_setpoint(monkeypatch, power_four_areas, with_section):
    """The shortcut's solution is the setpoint's first stage at zero cost,
    in its own arrays; with the section it carries H dev, and it holds no
    sequences and no beta."""
    scenario, controllers = power_four_areas
    sub = scenario.network.subsystems["1"]
    if not with_section:
        monkeypatch.setattr(section_mod, "MAX_POINTS", 0)
    ctrl = replace(controllers["1"])
    sec = ctrl.compiled.section
    assert (sec is not None) == with_section
    x_ref, u_ref, load_term = references(sub, 0.1)
    x = x_ref + inside(ctrl.rci)
    sol = solve_mpc(ctrl, x, x_ref, u_ref, load_term)
    assert sol.path == "shortcut" and sol.feasible and sol.objective == 0.0
    assert np.array_equal(sol.v0, u_ref) and not np.shares_memory(sol.v0, u_ref)
    assert np.array_equal(sol.xhat0, x_ref) and not np.shares_memory(sol.xhat0, x_ref)
    if with_section:
        assert np.array_equal(sol.hz, sec.H @ (x - x_ref))  # dev as the shortcut computes it
    else:
        assert sol.hz is None
    assert sol.v_seq is None and sol.xhat_seq is None and sol.beta is None


def test_shortcut_step_looks_up_the_cone_once(monkeypatch, power_four_areas):
    scenario, controllers = power_four_areas
    sub = scenario.network.subsystems["2"]
    ctrl = replace(controllers["2"])
    sec = ctrl.compiled.section
    x_ref, u_ref, load_term = references(sub, -0.05)
    x = x_ref + inside(ctrl.rci)
    lookups = []
    decompose = section_mod.TubeSection.decompose
    monkeypatch.setattr(section_mod.TubeSection, "decompose",
                        lambda self, *a: lookups.append(1) or decompose(self, *a))
    u, diag = step_control(ctrl, x, x_ref=x_ref, u_ref=u_ref, load_term=load_term)
    assert diag.path == "shortcut" and diag.kappa_mode == "decentralized"
    assert len(lookups) == 1
    monkeypatch.setattr(section_mod.TubeSection, "decompose", decompose)
    u_z, mu, beta_law = sec.law(x - x_ref)
    assert np.array_equal(u, u_ref + u_z)
    assert diag.mu == mu and np.array_equal(diag.beta, beta_law)


# ------------------------------------------------------------ cache guards

def test_equilibrium_check_runs_on_each_new_setpoint(power_four_areas):
    scenario, controllers = power_four_areas
    sub = scenario.network.subsystems["1"]
    ctrl = replace(controllers["1"])
    x_ref, u_ref, load_term = references(sub, 0.1)
    assert solve_mpc(ctrl, x_ref, x_ref, u_ref, load_term).path == "shortcut"
    for _ in range(2):  # a rejected setpoint is not kept
        with pytest.raises(ValueError, match="not an equilibrium"):
            solve_mpc(ctrl, x_ref, x_ref, u_ref, 2.0 * load_term)
    assert solve_mpc(ctrl, x_ref, x_ref, u_ref, load_term).feasible
    # the verdict is keyed by value: an array changed in place is a new setpoint
    x_ref_arg = x_ref.copy()
    assert solve_mpc(ctrl, x_ref, x_ref_arg, u_ref, load_term).feasible
    x_ref_arg += 0.01
    with pytest.raises(ValueError, match="not an equilibrium"):
        solve_mpc(ctrl, x_ref, x_ref_arg, u_ref, load_term)


def test_non_equilibrium_setpoint_fails_at_its_load_step(monkeypatch, power_four_areas):
    scenario, controllers = power_four_areas
    net = scenario.network.copy()
    sub = net.subsystems["3"]
    net.subsystems["3"] = replace(sub, setpoint_input_gain=1.5 * np.asarray(
        sub.setpoint_input_gain, dtype=float))
    calls = []
    step = sim_mod.step_control
    monkeypatch.setattr(sim_mod, "step_control",
                        lambda ctrl, *a, **k: calls.append(ctrl.id) or step(ctrl, *a, **k))
    cfg = SimConfig(T=12, x0={i: np.zeros(4) for i in net.ids}, mode="distributed",
                    loads=[LoadStep("3", 6, 0.05)])
    with pytest.raises(ValueError, match="not an equilibrium"):
        run(net, controllers, cfg)  # warm at the zero setpoint for 6 steps
    assert calls[-1] == "3" and calls.count("3") == 7  # t = 0..6


def test_shared_controllers_match_fresh_ones_across_episodes(power_four_areas):
    scenario, controllers = power_four_areas
    net = scenario.network
    shared = fresh(controllers)
    schedules = [[LoadStep("1", 5, 0.10), LoadStep("3", 20, -0.08)],
                 [LoadStep("2", 3, 0.05), LoadStep("2", 15, 0.0), LoadStep("2", 25, 0.05)],
                 [],
                 [LoadStep("1", 0, 0.10), LoadStep("4", 10, 0.06)]]
    for loads in schedules:
        cfg = SimConfig(T=35, x0={i: np.zeros(4) for i in net.ids}, mode="distributed",
                        loads=loads)
        trace = run(net, shared, cfg)
        assert trace.infeasible_at is None
        assert trace.fingerprint() == run(net, fresh(controllers), cfg).fingerprint()


def test_trace_rows_do_not_alias_the_references(power_four_areas):
    scenario, controllers = power_four_areas
    net = scenario.network
    cfg = SimConfig(T=12, x0={i: np.zeros(4) for i in net.ids}, mode="distributed",
                    loads=[LoadStep("1", 4, 0.10)])
    trace = run(net, controllers, cfg)
    x_ref, u_ref, _ = references(net.subsystems["1"], 0.10)
    for key, ref in (("x_ref", x_ref), ("u_ref", u_ref)):
        rows = trace.data["1"][key]
        assert all(np.array_equal(rows[t], ref) for t in range(4, 12))
        rows[5] += 1.0  # one row changed in place leaves the others as they were
        assert all(np.array_equal(rows[t], ref) for t in range(4, 12) if t != 5)
    again = run(net, controllers, cfg)
    assert np.array_equal(again.data["1"]["x_ref"][5], x_ref)


# ----------------------------------------------------------- observability

def test_qp_steps_count_the_qp_calls(monkeypatch, truck_network, truck_controllers):
    qp_calls, paths = [], []
    solve_qp = controller_mod.solve_qp
    monkeypatch.setattr(controller_mod, "solve_qp",
                        lambda p: qp_calls.append(1) or solve_qp(p))
    step = sim_mod.step_control

    def recording(*args, **kwargs):
        u, diag = step(*args, **kwargs)
        paths.append(diag.path)
        return u, diag

    monkeypatch.setattr(sim_mod, "step_control", recording)
    trace = run(truck_network, truck_controllers,
                SimConfig(T=60, x0={"1": [0.0, 0.0], "2": [3.0, 0.0]}))
    assert trace.infeasible_at is None and len(paths) == 120
    assert paths.count("qp") == len(qp_calls) > 0
    assert set(paths) == {"shortcut", "qp"}


def test_reference_schedule_matches_the_scan_of_the_loads(power_four_areas):
    scenario, _ = power_four_areas
    sub = scenario.network.subsystems["2"]
    loads = [LoadStep("2", 7, 0.05), LoadStep("1", 2, 0.10), LoadStep("2", 3, -0.02),
             LoadStep("2", 7, 0.03), LoadStep("2", 11, 0.0)]
    schedule = sim_mod._reference_schedule(sub, loads, 14)
    for t, (load, x_ref, u_ref, load_term) in enumerate(schedule):
        expected = 0.0
        for ls in loads:  # the last listed step of "2" at or before t
            if ls.subsystem == "2" and ls.time <= t:
                expected = ls.value
        assert load == expected
        refs = sim_mod._references(sub, expected)
        assert all(np.array_equal(a, b) for a, b in zip((x_ref, u_ref, load_term), refs))


def test_float_load_times_apply_from_the_next_whole_step(power_four_areas):
    scenario, _ = power_four_areas
    sub = scenario.network.subsystems["2"]
    for time, start in ((5.0, 5), (np.float64(5.0), 5), (4.5, 5)):
        schedule = sim_mod._reference_schedule(sub, [LoadStep("2", time, 0.05)], 9)
        assert [row[0] for row in schedule] == [0.0] * start + [0.05] * (9 - start)
