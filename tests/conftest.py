import numpy as np
import pytest

from tubenet.controller import MpcConfig, design_controller
from tubenet.model import build_truck_network, disturbance_set
from tubenet.rci import DesignFailure, RciConfig

TRUCK_Q = np.diag([10.0, 1.0])
TRUCK_R = np.array([[1.0]])
TRUCK_N = 25  # the tightened velocity bound needs ~20 steps to cross the arena


def design_truck_controllers(net):
    ctrls = {}
    for i in net.ids:
        ctrl = design_controller(
            net.subsystems[i], disturbance_set(net, i),
            RciConfig(minimize_alpha=True),
            MpcConfig(N=TRUCK_N, Q=TRUCK_Q, R=TRUCK_R))
        assert not isinstance(ctrl, DesignFailure), ctrl
        ctrls[i] = ctrl
    return ctrls


@pytest.fixture(scope="session")
def truck_network():
    return build_truck_network()


@pytest.fixture(scope="session")
def truck_controllers(truck_network):
    return design_truck_controllers(truck_network)


def design_power(topology=None):
    from tubenet.cli import design_scenario, scenario_from_dict
    from tubenet.scenarios import power_scenario

    scenario = scenario_from_dict(power_scenario(topology))
    controllers, report, failures = design_scenario(scenario)
    assert not failures, failures
    return scenario, controllers


@pytest.fixture(scope="session")
def power_four_areas():
    return design_power()


@pytest.fixture(scope="session")
def power_five_areas():
    from tubenet.scenarios import POWER_TOPOLOGY_5

    return design_power(POWER_TOPOLOGY_5)
