import numpy as np
import pytest

from tubenet.geometry import HPolytope
from tubenet.model import (
    Coupling,
    ModelError,
    Network,
    NotControllableError,
    Subsystem,
    build_mass_array,
    build_truck_network,
    controllability_index,
    discretize_exact,
    disturbance_set,
    truck_continuous_matrices,
)


# ------------------------------------------------------- controllability_index

def test_ci_double_integrator():
    assert controllability_index([[1, 1], [0, 1]], [[0], [1]]) == 2


def test_ci_full_input_authority():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    B = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    assert controllability_index(A, B) == 1


def test_ci_matches_bruteforce_rank_sweep():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 1))
        ks = []
        blocks = []
        term = B.copy()
        for k in range(1, 4):
            blocks.append(term.copy())
            if np.linalg.matrix_rank(np.hstack(blocks)) == 3:
                ks.append(k)
            term = A @ term
        if not ks:
            with pytest.raises(NotControllableError):
                controllability_index(A, B)
        else:
            assert controllability_index(A, B) == min(ks)


def test_ci_uncontrollable_raises():
    with pytest.raises(NotControllableError):
        controllability_index(np.eye(2), [[1.0], [0.0]])


# ------------------------------------------------------------- discretize_exact

def test_discretize_zero_dynamics():
    Ad, Bd = discretize_exact(np.zeros((2, 2)), np.eye(2), None, 0.1)
    assert np.allclose(Ad, np.eye(2), atol=1e-12)
    assert np.allclose(Bd, 0.1 * np.eye(2), atol=1e-12)


def test_discretize_double_integrator_closed_form():
    T = 0.37
    Ad, Bd = discretize_exact([[0, 1], [0, 0]], [[0], [1]], None, T)
    assert np.allclose(Ad, [[1, T], [0, 1]], atol=1e-12)
    assert np.allclose(Bd, [[T * T / 2], [T]], atol=1e-12)


def test_discretize_mass_block_reference_values():
    # corner mass of the array model with m = 8: one spring/damper per axis
    m = 8.0
    Ac = np.array([[0.0, 1.0], [-0.5 / m, -0.5 / m]])
    Bc = np.array([[0.0], [100.0 / m]])
    Ad, Bd = discretize_exact(Ac, Bc, None, 0.2)
    assert np.allclose(Ad, [[0.9987, 0.1987], [-0.0124, 0.9863]], atol=1.5e-4)
    # the companion input column is reported with looser rounding
    assert np.allclose(Bd.ravel(), [0.2497, 2.4909], atol=8e-3)


def test_discretize_semigroup_property():
    rng = np.random.default_rng(6)
    Ac = rng.normal(size=(3, 3)) * 0.5
    Bc = rng.normal(size=(3, 2))
    T = 0.21
    Ad1, _ = discretize_exact(Ac, Bc, None, T)
    Ad2, _ = discretize_exact(Ac, Bc, None, 2 * T)
    assert np.max(np.abs(Ad1 @ Ad1 - Ad2)) <= 1e-9


def test_discretize_rejects_bad_sample_time():
    with pytest.raises(ModelError):
        discretize_exact(np.zeros((1, 1)), np.ones((1, 1)), None, 0.0)


# ------------------------------------------------------------- network basics

def test_network_graph_duality():
    net = build_mass_array(2, 3, seed=2)
    for i in net.ids:
        for j in net.predecessors(i):
            assert i in net.successors(j)
        for j in net.successors(i):
            assert i in net.predecessors(j)


def test_coupling_validation():
    X = HPolytope.symmetric_box([1.0, 1.0])
    U = HPolytope.symmetric_box([1.0])
    s1 = Subsystem("1", [[1, 0.1], [0, 1]], [[0], [1]], X, U)
    s2 = Subsystem("2", [[1, 0.1], [0, 1]], [[0], [1]], X.copy(), U.copy())
    with pytest.raises(ModelError):
        Coupling("1", "1", np.eye(2))
    with pytest.raises(ModelError):
        Coupling("1", "2", np.zeros((2, 2)))
    with pytest.raises(ModelError):
        Network([s1, s2], [Coupling("1", "2", np.eye(3))])
    with pytest.raises(ModelError):
        Network([s1, s2], [Coupling("3", "2", np.eye(2))])


def test_subsystem_requires_origin_interior_constraints():
    off_center = HPolytope.box([0.5, 0.5], [1.5, 1.5])
    with pytest.raises(ModelError):
        Subsystem("1", [[1, 0.1], [0, 1]], [[0], [1]], off_center, HPolytope.symmetric_box([1.0]))


# ------------------------------------------------------------ disturbance_set

def test_disturbance_no_predecessors_is_origin():
    net = build_mass_array(1, 1, seed=3)
    W = disturbance_set(net, "1")
    assert len(W.blocks) == 1
    assert np.allclose(W.blocks[0].vertices, 0.0)


def test_disturbance_scaling_block():
    X = HPolytope.symmetric_box([1.0, 1.0])
    U = HPolytope.symmetric_box([1.0])
    s1 = Subsystem("1", [[1, 0.1], [0, 1]], [[0], [1]], X, U)
    s2 = Subsystem("2", [[1, 0.1], [0, 1]], [[0], [1]], X.copy(), U.copy())
    net = Network([s1, s2], [Coupling("2", "1", 0.1 * np.eye(2))])
    W = disturbance_set(net, "1")
    assert W.support([1.0, 0.0]) == pytest.approx(0.1)
    assert W.support([0.0, -1.0]) == pytest.approx(0.1)


def test_disturbance_truck_support_matches_vertex_arithmetic():
    net = build_truck_network()
    W2 = disturbance_set(net, "2")
    A21 = net.predecessors("2")["1"]
    verts = net.subsystems["1"].state_vertices().vertices
    expect = float(np.max((verts @ A21.T)[:, 0]))
    assert W2.support([1.0, 0.0]) == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------------------------- builders

def test_truck_continuous_entries():
    blk = truck_continuous_matrices()
    assert blk["A22"][1, 0] == pytest.approx(-0.1)       # k12/m2
    assert blk["A22"][1, 1] == pytest.approx(-0.075)     # h12/m2
    assert blk["A21"][1, 0] == pytest.approx(0.1)
    assert blk["B2"][1, 0] == pytest.approx(25.0)        # 100/m2
    assert blk["B1"][1, 0] == pytest.approx(50.0)


def test_truck_network_constraints():
    net = build_truck_network()
    for i in ("1", "2"):
        sub = net.subsystems[i]
        assert sub.X.contains([4.5, 2.0])
        assert not sub.X.contains([4.6, 0.0], tol=1e-9)
        assert sub.U.contains([1.5])
        assert len(net.predecessors(i)) == 1


def test_mass_array_1x1_isolated():
    net = build_mass_array(1, 1, seed=0)
    assert net.ids == ["1"]
    assert net.predecessors("1") == {}


def test_mass_array_2x2_edge_count():
    net = build_mass_array(2, 2, seed=0)
    assert len(net.couplings) == 8  # 4 undirected grid edges
    for i in net.ids:
        assert len(net.predecessors(i)) == 2


def test_mass_array_seed_reproducibility():
    a = build_mass_array(3, 3, seed=42)
    b = build_mass_array(3, 3, seed=42)
    for i in a.ids:
        assert np.array_equal(a.subsystems[i].A, b.subsystems[i].A)
        assert np.array_equal(a.subsystems[i].B, b.subsystems[i].B)
        assert np.array_equal(a.subsystems[i].U.d, b.subsystems[i].U.d)
    for ca, cb in zip(a.couplings, b.couplings):
        assert (ca.src, ca.dst) == (cb.src, cb.dst)
        assert np.array_equal(ca.A, cb.A)
    c = build_mass_array(3, 3, seed=43)
    assert not np.array_equal(a.subsystems["1"].A, c.subsystems["1"].A)


def test_mass_array_rejects_empty_grid():
    with pytest.raises(ModelError):
        build_mass_array(0, 2)


def test_network_copy_is_deep():
    net = build_truck_network()
    dup = net.copy()
    dup.subsystems["1"].A[0, 0] = 99.0
    assert net.subsystems["1"].A[0, 0] != 99.0
    assert [c.src for c in dup.couplings] == [c.src for c in net.couplings]
