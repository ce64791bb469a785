from dataclasses import replace

import numpy as np
import pytest

from tubenet import pnp
from tubenet.controller import MpcConfig
from tubenet.model import Coupling, Network, Subsystem, discretize_exact
from tubenet.geometry import HPolytope, VAggregate, VPolytope
from tubenet.pnp import plug_in, unplug
from tubenet.rci import RciConfig
from tubenet.scenarios import _power_area_matrices
from tubenet.verify import rci_certificate

from conftest import TRUCK_N, TRUCK_Q, TRUCK_R


def third_truck(m3=3.0, k23=0.1, h23=0.1, ts=0.1):
    """New truck hung onto truck 2 through a weak spring/damper."""
    Ac = np.array([[0.0, 1.0], [-k23 / m3, -h23 / m3]])
    Bc = np.array([[0.0], [100.0 / m3]])
    cross = np.array([[0.0, 0.0], [k23 / m3, h23 / m3]])
    Ad, Bd, Ed = discretize_exact(Ac, Bc, cross, ts)
    sub = Subsystem("3", Ad, Bd, HPolytope.symmetric_box([4.5, 2.0]),
                    HPolytope.symmetric_box([1.5]))
    # and the reverse influence on truck 2 (same spring, mass 4)
    Ac2 = np.array([[0.0, 1.0], [-(0.4 + k23) / 4.0, -(0.3 + h23) / 4.0]])
    cross2 = np.array([[0.0, 0.0], [k23 / 4.0, h23 / 4.0]])
    _, _, Ed2 = discretize_exact(Ac2, np.array([[0.0], [25.0]]), cross2, ts)
    return sub, [Coupling("2", "3", Ed), Coupling("3", "2", Ed2)]


def truck_mpc_cfg():
    return MpcConfig(N=TRUCK_N, Q=TRUCK_Q, R=TRUCK_R)


def controllers_fingerprint(controllers):
    return {i: (id(c), float(c.rci.alpha), c.rci.k) for i, c in controllers.items()}


# --------------------------------------------------------------------- plug_in

def test_plug_isolated_subsystem(truck_network, truck_controllers):
    sub = Subsystem("9", [[1.0, 0.1], [0.0, 1.0]], [[0.0], [1.0]],
                    HPolytope.symmetric_box([2.0, 2.0]), HPolytope.symmetric_box([1.0]))
    tx = plug_in(truck_network, truck_controllers, sub, [],
                 MpcConfig(N=10), RciConfig(minimize_alpha=True))
    assert tx.committed, tx.reason
    assert tx.redesign_set == ["9"]
    assert tx.network.predecessors("9") == {}
    # untouched controllers are reused object-identically
    for i in ("1", "2"):
        assert tx.controllers[i] is truck_controllers[i]


def test_plug_weakly_coupled_truck(truck_network, truck_controllers):
    sub, coups = third_truck()
    tx = plug_in(truck_network, truck_controllers, sub, coups,
                 truck_mpc_cfg(), RciConfig(minimize_alpha=True))
    assert tx.committed, tx.reason
    assert tx.redesign_set == ["3", "2"]
    assert tx.controllers["1"] is truck_controllers["1"]
    assert tx.controllers["2"] is not truck_controllers["2"]
    # post-commit soundness of the redesigned controllers
    for i in ("3", "2"):
        rep = rci_certificate(tx.controllers[i], n_samples=200, seed=3)
        assert rep["passed"], rep


def test_plug_rejected_when_successor_would_fail(truck_network, truck_controllers):
    sub, _ = third_truck()
    # coupling so strong the successor's disturbance covers its state set
    huge = [Coupling("2", "3", 0.01 * np.eye(2)), Coupling("3", "2", 3.0 * np.eye(2))]
    before = controllers_fingerprint(truck_controllers)
    before_net = (len(truck_network.couplings), sorted(truck_network.ids))
    tx = plug_in(truck_network, truck_controllers, sub, huge,
                 truck_mpc_cfg(), RciConfig(minimize_alpha=True))
    assert not tx.committed
    assert tx.network is None and tx.controllers is None
    assert "2" in tx.reason or "failed" in tx.outcomes.get("2", "")
    # full rollback: inputs untouched
    assert controllers_fingerprint(truck_controllers) == before
    assert (len(truck_network.couplings), sorted(truck_network.ids)) == before_net


def _perturb_fold_back(rci):
    return replace(rci, z_terminal=rci.z_terminal + 1e-3)


def _overspend_rho(rci):
    rho = rci.rho.copy()
    rho[:, 0] += rci.alpha + 0.1  # column of the origin vertex: fold-back unchanged
    return replace(rci, rho=rho)


def _widen_coupling_set(rci):
    return replace(rci, w_set=VAggregate([VPolytope(rci.z_blocks[0])], 1.01))


@pytest.mark.parametrize("tamper", [_perturb_fold_back, _overspend_rho, _widen_coupling_set],
                         ids=["fold-back", "rho-row-sum", "w-outside-z0"])
def test_commit_gate_rejects_broken_identity(truck_network, truck_controllers,
                                             monkeypatch, tamper):
    real_design = pnp.design_controller

    def tampered_design(*args, **kwargs):
        ctrl = real_design(*args, **kwargs)
        return replace(ctrl, rci=tamper(ctrl.rci))

    monkeypatch.setattr(pnp, "design_controller", tampered_design)
    sub, coups = third_truck()
    before = controllers_fingerprint(truck_controllers)
    before_net = (len(truck_network.couplings), sorted(truck_network.ids))
    tx = plug_in(truck_network, truck_controllers, sub, coups,
                 truck_mpc_cfg(), RciConfig(minimize_alpha=True))
    assert not tx.committed
    assert tx.network is None and tx.controllers is None
    assert tx.outcomes["3"] == "failed: invariance certificate"
    assert controllers_fingerprint(truck_controllers) == before
    assert (len(truck_network.couplings), sorted(truck_network.ids)) == before_net


def test_plug_duplicate_id_rejected(truck_network, truck_controllers):
    sub = Subsystem("1", [[1.0, 0.1], [0.0, 1.0]], [[0.0], [1.0]],
                    HPolytope.symmetric_box([2.0, 2.0]), HPolytope.symmetric_box([1.0]))
    tx = plug_in(truck_network, truck_controllers, sub, [], MpcConfig())
    assert not tx.committed
    assert "already exists" in tx.reason


# ---------------------------------------------------------------------- unplug

def test_unplug_leaf_no_redesign(truck_network, truck_controllers):
    sub, coups = third_truck()
    tx = plug_in(truck_network, truck_controllers, sub, [coups[0]],  # only 2 -> 3
                 truck_mpc_cfg(), RciConfig(minimize_alpha=True))
    assert tx.committed
    # "3" has no successors: removing it redesigns nothing
    tx2 = unplug(tx.network, tx.controllers, "3", policy="none")
    assert tx2.committed
    assert tx2.redesign_set == []
    assert "3" not in tx2.network.subsystems
    assert tx2.controllers["1"] is tx.controllers["1"]


def test_unplug_keeps_remaining_controller_valid(truck_network, truck_controllers):
    tx = unplug(truck_network, truck_controllers, "1", policy="none")
    assert tx.committed
    assert tx.redesign_set == []
    # remaining controller still passes the invariance certificate:
    # its disturbance set only shrank (here: to nothing)
    net2 = tx.network
    assert net2.predecessors("2") == {}
    assert tx.controllers["2"].sub.A.tolist() == net2.subsystems["2"].A.tolist()
    rep = rci_certificate(tx.controllers["2"], n_samples=300, seed=5)
    assert rep["passed"], rep


def test_unplug_performance_policy_redesigns_successors(truck_network, truck_controllers):
    tx = unplug(truck_network, truck_controllers, "1", policy="performance")
    assert tx.committed
    assert tx.redesign_set == ["2"]
    assert tx.controllers["2"] is not truck_controllers["2"]


def test_unplug_unknown_id():
    net = Network([Subsystem("1", [[1.0, 0.1], [0.0, 1.0]], [[0.0], [1.0]],
                             HPolytope.symmetric_box([2.0, 2.0]),
                             HPolytope.symmetric_box([1.0]))])
    tx = unplug(net, {}, "7")
    assert not tx.committed
    assert "unknown" in tx.reason


def test_unplug_with_dynamics_overrides_forces_redesign(power_five_areas):
    scenario, controllers = power_five_areas
    net = scenario.network
    # removing area 4 drops one tie line from areas 3 and 5: their local
    # synchronizing term changes, so new A blocks come with the topology
    assert net.successors("4") == ["3", "5"]
    overrides = {}
    for i in ("3", "5"):
        Ad, _, _, _ = _power_area_matrices(1, 5.0 + 0.2 * int(i), 0.3)
        overrides[i] = Ad
    tx = unplug(net, controllers, "4", policy="none", dynamics_overrides=overrides)
    assert tx.committed, tx.reason
    assert tx.redesign_set == ["3", "5"]
    assert tx.controllers["1"] is controllers["1"]
    assert tx.controllers["2"] is controllers["2"]
    for i in ("3", "5"):
        assert tx.controllers[i] is not controllers[i]
        assert np.array_equal(tx.network.subsystems[i].A, overrides[i])


def test_unplug_rejects_override_for_target(truck_network, truck_controllers):
    tx = unplug(truck_network, truck_controllers, "1",
                dynamics_overrides={"1": np.eye(2)})
    assert not tx.committed


def test_unplug_rejects_ill_shaped_override(truck_network, truck_controllers):
    before = controllers_fingerprint(truck_controllers)
    before_net = (len(truck_network.couplings), sorted(truck_network.ids))
    tx = unplug(truck_network, truck_controllers, "1", dynamics_overrides={"2": [[1.0]]})
    assert not tx.committed
    assert tx.network is None and tx.controllers is None
    assert "subsystem 2" in tx.reason
    assert controllers_fingerprint(truck_controllers) == before
    assert (len(truck_network.couplings), sorted(truck_network.ids)) == before_net
