import numpy as np
import pytest

from tubenet.geometry import HPolytope, VAggregate, VPolytope, box_vertices, member_aggregate
from tubenet.model import Coupling, Network, Subsystem, disturbance_set
from tubenet.optim import solve_lp
from tubenet.rci import (
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
