"""Built-in demo scenarios, emitted as plain JSON-ready dicts.

These feed the CLI (and the test suite) with ready-made networks: a pair of
spring-coupled trucks, a synthetic multi-area frequency-control grid, a
seeded mass array, and the coupled pair on which the coupling-blind baseline
controller loses feasibility.
"""

from __future__ import annotations

import numpy as np

from .model import build_mass_array, build_truck_network, discretize_exact

__all__ = [
    "truck_scenario",
    "power_scenario",
    "mass_scenario",
    "counterexample_scenario",
    "POWER_TOPOLOGY_4",
    "POWER_TOPOLOGY_5",
]

# chain 1-2-3-4 (bidirectional)
POWER_TOPOLOGY_4 = {"1": ["2"], "2": ["1", "3"], "3": ["2", "4"], "4": ["3"]}
# four areas plus a fifth tied into 2 and 4
POWER_TOPOLOGY_5 = {"1": ["2"], "2": ["1", "3", "5"], "3": ["2", "4"],
                    "4": ["3", "5"], "5": ["2", "4"]}


def _mat(M):
    return np.asarray(M, dtype=float).tolist()


def _sub_entry(sub, vertices=False):
    entry = {
        "id": sub.id,
        "A": _mat(sub.A),
        "B": _mat(sub.B),
        "X": {"C": _mat(sub.X.C), "d": _mat(sub.X.d)},
        "U": {"C": _mat(sub.U.C), "d": _mat(sub.U.d)},
    }
    if vertices and sub.x_vertices is not None:
        entry["X"]["vertices"] = _mat(sub.x_vertices.vertices)
    if sub.L is not None:
        entry["L"] = _mat(sub.L)
        entry["setpoint_state_gain"] = _mat(sub.setpoint_state_gain)
        entry["setpoint_input_gain"] = _mat(sub.setpoint_input_gain)
    return entry


def _network_dict(net, vertices=False):
    return {
        "subsystems": [_sub_entry(net.subsystems[i], vertices) for i in net.ids],
        "couplings": [{"from": c.src, "to": c.dst, "A": _mat(c.A)} for c in net.couplings],
    }


def truck_scenario(T: int = 150) -> dict:
    """Two spring/damper-coupled trucks; truck 2 starts displaced by 3."""
    net = build_truck_network()
    return {
        "name": "two-trucks",
        "sampling_time": 0.1,
        **_network_dict(net),
        "controller": {"horizon": 25, "Q": _mat(np.diag([10.0, 1.0])), "R": [[1.0]],
                       "terminal": "zero", "mode": "decentralized",
                       "minimize_alpha": True},
        "simulation": {"T": T, "x0": {"1": [0.0, 0.0], "2": [3.0, 0.0]}, "seed": 0},
    }


def _power_area_matrices(n_neighbors: int, inertia: float, tie_gain: float,
                         damping=1.0, turbine=0.5, governor=0.2, droop=0.25, ts=1.0):
    M = 2.0 * inertia
    Ac = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-n_neighbors * tie_gain / M, -damping / M, 1.0 / M, 0.0],
        [0.0, 0.0, -1.0 / turbine, 1.0 / turbine],
        [0.0, -1.0 / (droop * governor), 0.0, -1.0 / governor],
    ])
    Bc = np.array([[0.0], [0.0], [0.0], [1.0 / governor]])
    Lc = np.array([[0.0], [-1.0 / M], [0.0], [0.0]])
    coupling = np.zeros((4, 4))
    coupling[1, 0] = tie_gain / M
    slabs = [Lc] + [coupling] * n_neighbors
    Ad, Bd, Ed = discretize_exact(Ac, Bc, np.hstack(slabs), ts)
    Ld = Ed[:, :1]
    neighbor_blocks = [Ed[:, 1 + 4 * k: 1 + 4 * (k + 1)] for k in range(n_neighbors)]
    return Ad, Bd, Ld, neighbor_blocks


def power_scenario(topology: dict | None = None, T: int = 200, tie_gain: float = 0.3,
                   loads=None) -> dict:
    """Synthetic multi-area frequency-control grid.

    Per-area states: (angle, frequency deviation, mechanical power, valve
    position); input: load reference. Known local load steps shift the
    tracked equilibrium to (0, 0, load, load) with input load.
    """
    topology = topology or POWER_TOPOLOGY_4
    hw = [0.15, 0.1, 0.8, 0.8]
    subsystems = []
    couplings = []
    from .geometry import box_vertices

    verts = _mat(box_vertices(-np.array(hw), np.array(hw)))
    for i in sorted(topology, key=int):
        nbrs = topology[i]
        inertia = 5.0 + 0.2 * int(i)
        Ad, Bd, Ld, blocks = _power_area_matrices(len(nbrs), inertia, tie_gain)
        subsystems.append({
            "id": i, "A": _mat(Ad), "B": _mat(Bd),
            "X": {"C": _mat(np.vstack([np.eye(4), -np.eye(4)])),
                  "d": hw + hw, "vertices": verts},
            "U": {"C": [[1.0], [-1.0]], "d": [0.8, 0.8]},
            "L": _mat(Ld),
            "setpoint_state_gain": [0.0, 0.0, 1.0, 1.0],
            "setpoint_input_gain": [1.0],
        })
        for k, j in enumerate(nbrs):
            couplings.append({"from": j, "to": i, "A": _mat(blocks[k])})
    if loads is None:  # the default steps that fall inside the horizon
        loads = [ls for ls in ({"id": "1", "time": 5, "value": 0.10},
                               {"id": "3", "time": 80, "value": -0.08}) if ls["time"] < T]
    return {
        "name": f"power-{len(topology)}-areas",
        "sampling_time": 1.0,
        "subsystems": subsystems,
        "couplings": couplings,
        "controller": {"horizon": 15, "Q": _mat(np.diag([500.0, 0.01, 0.01, 10.0])),
                       "R": [[10.0]], "terminal": "zero", "mode": "decentralized",
                       "minimize_alpha": True},
        "simulation": {"T": T, "x0": {i: [0.0, 0.0, 0.0, 0.0] for i in sorted(topology, key=int)},
                       "loads": loads, "seed": 0},
    }


def mass_scenario(rows: int, cols: int, seed: int = 0, T: int = 80,
                  perturbation: float = 0.25) -> dict:
    """Seeded grid of spring-coupled masses with a perturbed start."""
    net = build_mass_array(rows, cols, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x0 = {}
    for i in net.ids:
        x = np.zeros(4)
        x[0] = rng.uniform(-perturbation, perturbation)
        x[2] = rng.uniform(-perturbation, perturbation)
        x0[i] = x.tolist()
    return {
        "name": f"mass-array-{rows}x{cols}",
        "sampling_time": 0.2,
        **_network_dict(net, vertices=True),
        "controller": {"horizon": 10, "Q": _mat(10.0 * np.eye(4)), "R": _mat(np.eye(2)),
                       "terminal": "zero", "mode": "decentralized",
                       "minimize_alpha": True},
        "simulation": {"T": T, "x0": x0, "seed": seed},
    }


def counterexample_scenario(T: int = 5) -> dict:
    """Coupled pair with the known discretized blocks; boundary start."""
    from .sim import build_naive_counterexample_network

    net = build_naive_counterexample_network()
    return {
        "name": "coupling-blind-counterexample",
        "sampling_time": 0.2,
        **_network_dict(net, vertices=True),
        "controller": {"horizon": 20, "Q": _mat(10.0 * np.eye(4)), "R": _mat(np.eye(2)),
                       "terminal": "zero", "mode": "decentralized"},
        "simulation": {"T": T,
                       "x0": {"1": [1.5, 0.8, 0.0, 0.0], "2": [1.5, 0.0, 0.0, 0.0]},
                       "seed": 0},
    }
