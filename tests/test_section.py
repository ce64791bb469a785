"""The explicit tube section against the invariance LPs it replaces online.

Property tests draw points from the tube section, from its boundary facets
and at its vertices, scaled by rho in [0, 3], on the truck, power-4,
mass 4x4 and a one-dimensional design.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubenet import section as section_mod
from tubenet.cli import design_scenario, scenario_from_dict
from tubenet.controller import (
    MpcConfig,
    design_controller,
    kappa_bar,
    kappa_bar_dis,
    kappa_bar_dis_full,
    kappa_bar_full,
    step_control,
)
from tubenet.geometry import HPolytope, VAggregate, VPolytope, member_aggregate
from tubenet.model import Subsystem
from tubenet.rci import DesignFailure, RciConfig
from tubenet.scenarios import mass_scenario
from tubenet.section import _min_max_lines
from tubenet.verify import vertex_invariance_report

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
DESIGNS = ("trucks", "power", "mass", "scalar")


@pytest.fixture(scope="module")
def designs(truck_controllers, power_four_areas):
    scenario = scenario_from_dict(mass_scenario(4, 4, seed=1))
    mass, _, failures = design_scenario(scenario)
    assert not failures
    scalar = Subsystem("s", [[1.2]], [[1.0]], HPolytope.symmetric_box([1.0]),
                       HPolytope.symmetric_box([1.0]))
    W = VAggregate([VPolytope([[-0.05], [0.05]])], 1.0)
    one_d = design_controller(scalar, W, RciConfig(), MpcConfig(N=5))
    assert not isinstance(one_d, DesignFailure), one_d
    return {
        "trucks": list(truck_controllers.values()),
        "power": list(power_four_areas[1].values())[:2],
        "mass": [mass[i] for i in scenario.network.ids[:2]],
        "scalar": [one_d],
    }


def pick(designs, name, data):
    ctrls = designs[name]
    ctrl = ctrls[data.draw(st.integers(0, len(ctrls) - 1))]
    assert ctrl.compiled.section is not None
    return ctrl


def tube_point(data, ctrl):
    """A point of rho * Z: a random member, a point on a boundary facet, or
    a hull vertex."""
    sec = ctrl.compiled.section
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["member", "facet", "vertex"]))
    if kind == "member":
        z = ctrl.rci.z_set().sample(rng)
    elif kind == "facet":
        corners = sec.vertices[sec.simplices[rng.integers(sec.simplices.shape[0])]]
        weights = rng.random(corners.shape[0])
        z = weights @ corners / weights.sum()
    else:
        z = sec.vertices[rng.integers(sec.vertices.shape[0])]
    on_boundary = st.sampled_from([1.0 - 1e-10, 1.0, 1.0 + 1e-10])
    return data.draw(st.one_of(st.floats(0.0, 3.0), on_boundary)) * z


def mixing_matrices(rci):
    zmat = rci.sigma * np.hstack([blk.T for blk in rci.z_blocks])
    umat = rci.sigma * np.hstack([blk.T for blk in rci.u_blocks])
    return zmat, umat


# ---------------------------------------------------------- decentralized law

@pytest.mark.parametrize("name", DESIGNS)
@PROPERTY
@given(data=st.data())
def test_law_is_an_optimal_kappa_lp_solution(designs, name, data):
    ctrl = pick(designs, name, data)
    rci, sec = ctrl.rci, ctrl.compiled.section
    z = tube_point(data, ctrl)
    u, mu, beta = sec.law(z)
    _, mu_lp, _ = kappa_bar_full(rci, z)
    tol = 1e-9 * max(1.0, mu_lp)
    assert abs(mu - mu_lp) <= tol
    assert abs(sec.gauge(z) - mu_lp) <= tol
    zmat, umat = mixing_matrices(rci)
    assert beta.min() >= -1e-12
    assert np.allclose(beta.reshape(rci.k, rci.q).sum(axis=1), mu, rtol=0, atol=1e-12 * max(1, mu))
    assert np.abs(zmat @ beta - z).max() <= 1e-9
    assert np.allclose(u, umat @ beta, rtol=0, atol=1e-12 * max(1, mu))


@pytest.mark.parametrize("name", DESIGNS)
@PROPERTY
@given(data=st.data())
def test_law_is_homogeneous(designs, name, data):
    ctrl = pick(designs, name, data)
    sec = ctrl.compiled.section
    z = tube_point(data, ctrl)
    rho = data.draw(st.floats(0.0, 3.0))
    u, mu, _ = sec.law(z)
    u_r, mu_r, _ = sec.law(rho * z)
    assert abs(mu_r - rho * mu) <= 1e-9 * max(1.0, rho * mu)
    assert np.abs(u_r - rho * u).max() <= 1e-9 * max(1.0, rho * np.abs(u).max())


@pytest.mark.parametrize("name", DESIGNS)
def test_law_at_zero_is_exactly_zero(designs, name):
    for ctrl in designs[name]:
        u, mu, beta = ctrl.compiled.section.law(np.zeros(ctrl.sub.n))
        assert mu == 0.0 and not np.any(u) and not np.any(beta)
        assert u.shape == (ctrl.sub.m,) and beta.shape == (ctrl.rci.k * ctrl.rci.q,)


# ------------------------------------------------------------ distributed law

def input_offset(data, V):
    """A point of the tightened input set V, along a random direction."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    e = rng.normal(size=V.n)
    reach = V.C @ e
    step = np.min(V.d[reach > 0] / reach[reach > 0])
    return data.draw(st.floats(0.0, 1.0)) * step * e


@pytest.mark.parametrize("name", DESIGNS)
@PROPERTY
@given(data=st.data())
def test_successor_law_matches_the_distributed_lp(designs, name, data):
    ctrl = pick(designs, name, data)
    rci, sub, sec = ctrl.rci, ctrl.sub, ctrl.compiled.section
    z = tube_point(data, ctrl)
    w = rci.w_set.sample(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    v = input_offset(data, ctrl.V)
    law = sec.successor_law(sub.A @ z + w, sub.U, v)
    if sub.m > 1:  # read off the section for one input only
        assert law is None
        return
    u, mu, beta = law
    _, mu_lp, _ = kappa_bar_dis_full(rci, z, v, {"w": w}, {"w": np.eye(sub.n)}, sub.U)
    assert abs(mu - mu_lp) <= 1e-9 * max(1.0, mu_lp)
    assert sub.U.contains(v + u, tol=1e-9)
    zmat, _ = mixing_matrices(rci)
    assert np.abs(zmat @ beta - (sub.A @ z + w + sub.B @ u)).max() <= 1e-9


def test_one_input_minimizer_of_least_magnitude():
    # g(u) = max(1 - u, 0, u - 2) is flat on [1, 2]; shifted, flat on [-1, 1]
    box = np.array([1.0, -1.0]), np.array([5.0, 5.0])
    flat = _min_max_lines(np.array([1.0, 0.0, -2.0]), np.array([-1.0, 0.0, 1.0]), *box)[0]
    assert flat == pytest.approx(1.0, abs=1e-11)  # within the tie tolerance
    assert _min_max_lines(np.array([-1.0, 0.0, -1.0]), np.array([-1.0, 0.0, 1.0]), *box)[0] == 0.0
    # a unique kink at 0.25, and the bound when the kink lies outside
    lines = np.array([0.5, 0.0]), np.array([-2.0, 2.0])
    assert _min_max_lines(*lines, *box)[0] == pytest.approx(0.125)
    capped = _min_max_lines(*lines, np.array([1.0, -1.0]), np.array([0.1, 5.0]))[0]
    assert capped == pytest.approx(0.1, abs=1e-11)
    assert _min_max_lines(*lines, np.array([1.0, -1.0]), np.array([-1.0, -2.0])) is None


# ------------------------------------------------------------- LP fallback

def fresh(ctrl):
    """The same design without its compiled state."""
    return replace(ctrl)


def test_capped_section_falls_back_to_the_lps(monkeypatch, truck_network, truck_controllers,
                                              truck_controllers_distributed):
    monkeypatch.setattr(section_mod, "MAX_POINTS", 0)
    rng = np.random.default_rng(4)
    for i in ("1", "2"):
        ctrl = fresh(truck_controllers[i])
        assert ctrl.compiled.section is None
        assert vertex_invariance_report(ctrl)["skipped"]
        for x in [ctrl.rci.z_set().sample(rng) for _ in range(5)] + [np.array([3.0, 0.0])]:
            u, diag = step_control(ctrl, x)
            assert np.array_equal(u, diag.v0 + kappa_bar(ctrl.rci, x - diag.xhat0))
            if diag.objective == 0.0:  # the shortcut: membership LP coefficients
                cert = member_aggregate(ctrl.rci.z_set(), x - diag.xhat0)
                assert all(np.array_equal(a, b) for a, b in zip(diag.mpc.beta, cert.beta))
    states = {"1": np.array([0.1, 0.0]), "2": np.array([3.0, 0.0])}
    ctrl = fresh(truck_controllers_distributed["1"])
    preds = truck_network.predecessors("1")
    u, diag = step_control(ctrl, states["1"], predecessor_states=states, couplings=preds)
    assert diag.kappa_mode == "distributed"
    assert np.array_equal(u, diag.v0 + kappa_bar_dis(ctrl.rci, states["1"] - diag.xhat0, diag.v0,
                                                     states, preds, ctrl.sub.U))


def test_section_is_built_on_first_use_only(truck_controllers):
    ctrl = fresh(truck_controllers["1"])
    assert "compiled" not in vars(ctrl)
    assert ctrl.compiled is ctrl.compiled


# -------------------------------------------------------- exact invariance

@pytest.mark.parametrize("name", DESIGNS)
def test_vertex_invariance_holds(designs, name):
    for ctrl in designs[name]:
        rep = vertex_invariance_report(ctrl)
        assert rep["passed"] and rep["max_gauge"] < 1.0, rep
