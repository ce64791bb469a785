import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from tubenet.cli import (
    EXIT_DESIGN,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    PLUG_SCHEMA,
    ScenarioError,
    _check_schema,
    design_scenario,
    fingerprint,
    load_bundle,
    load_scenario,
    main,
    save_bundle,
    scenario_from_dict,
    validate_scenario,
)
from tubenet.scenarios import (
    POWER_TOPOLOGY_5,
    counterexample_scenario,
    mass_scenario,
    power_scenario,
    truck_scenario,
)
from tubenet.sim import SimTrace, run

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def truck_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    scenario_path = base / "trucks.json"
    scenario_path.write_text(json.dumps(truck_scenario(T=20)))
    bundle_path = base / "bundle.json"
    rc = main(["design", str(scenario_path), "-o", str(bundle_path)])
    assert rc == EXIT_OK
    return scenario_path, bundle_path


# ---------------------------------------------------------------- schema layer

def test_schema_missing_field_names_path():
    doc = truck_scenario()
    del doc["subsystems"][0]["B"]
    with pytest.raises(ScenarioError, match=r"subsystems\[0\]"):
        validate_scenario(doc)


def test_schema_ill_shaped_matrix_names_path():
    doc = truck_scenario()
    doc["subsystems"][1]["A"] = [[1.0, 0.0]]
    with pytest.raises(ScenarioError, match=r"subsystems\[1\]\.A"):
        validate_scenario(doc)


def test_schema_bad_coupling_shape():
    doc = truck_scenario()
    doc["couplings"][0]["A"] = [[0.1]]
    with pytest.raises(ScenarioError, match=r"couplings\[0\]"):
        validate_scenario(doc)


def test_schema_duplicate_ids():
    doc = truck_scenario()
    doc["subsystems"][1]["id"] = "1"
    with pytest.raises(ScenarioError, match="unique"):
        validate_scenario(doc)


def test_schema_bad_x0():
    doc = truck_scenario()
    doc["simulation"]["x0"]["1"] = [0.0, 0.0, 0.0]
    with pytest.raises(ScenarioError, match=r"x0"):
        validate_scenario(doc)


def test_builtin_scenarios_validate(monkeypatch):
    shipped = [json.loads(path.read_text()) for path in sorted(ROOT.glob("scenarios/*.json"))]
    assert len(shipped) == 4
    for doc in [truck_scenario(), power_scenario(), power_scenario(POWER_TOPOLOGY_5),
                counterexample_scenario(), mass_scenario(2, 2, seed=1)] + shipped:
        validate_scenario(doc)
        scenario_from_dict(doc)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the benchmark's plug delta
    workloads = importlib.import_module("workloads")
    _check_schema(workloads.third_truck_delta(seed=1, k=0), PLUG_SCHEMA)


@pytest.mark.parametrize("where", ["scenario", "subsystem"])
@pytest.mark.parametrize("key", ["q", "horizn"])
def test_controller_settings_reject_unknown_keys(tmp_path, capsys, where, key):
    doc = truck_scenario(T=5)
    settings = doc["controller"] if where == "scenario" else doc["subsystems"][1].setdefault(
        "controller", {})
    settings[key] = 9
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert main(["design", str(spath), "-o", str(tmp_path / "b.json")]) == EXIT_USAGE
    path = "$.controller" if where == "scenario" else "$.subsystems[1].controller"
    err = capsys.readouterr().err
    assert f"schema violation at {path}: Additional properties" in err and repr(key) in err


# ------------------------------------------------------------------- commands

def test_design_writes_bundle(truck_paths):
    _, bundle_path = truck_paths
    doc = json.loads(bundle_path.read_text())
    assert set(doc["controllers"]) == {"1", "2"}
    assert doc["report"]["subsystems"]["1"]["status"] == "ok"
    assert doc["report"]["subsystems"]["1"]["state_margin"] > 0


def test_design_failure_exit_code(tmp_path, capsys):
    doc = truck_scenario()
    # coupling too strong: disturbance swallows the state set
    doc["couplings"][0]["A"] = (3.0 * np.eye(2)).tolist()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["design", str(path), "-o", str(tmp_path / "b.json")])
    assert rc == EXIT_DESIGN
    err = capsys.readouterr().err
    assert "subsystem 1" in err


def test_design_usage_error(tmp_path):
    path = tmp_path / "nope.json"
    assert main(["design", str(path), "-o", str(tmp_path / "b.json")]) == EXIT_USAGE
    path.write_text("{\"name\": 1}")
    assert main(["design", str(path), "-o", str(tmp_path / "b.json")]) == EXIT_USAGE


def test_simulate_roundtrip_byte_identical(truck_paths, tmp_path):
    scenario_path, bundle_path = truck_paths
    # in-process: design and simulate without touching disk
    scenario = load_scenario(scenario_path)
    controllers, _, failures = design_scenario(scenario)
    assert not failures
    direct = run(scenario.network, controllers, scenario.sim_config())
    # through the bundle file
    _, loaded, _ = load_bundle(bundle_path)
    via_bundle = run(scenario.network, loaded, scenario.sim_config())
    assert direct.fingerprint() == via_bundle.fingerprint()


def test_simulate_cli_outputs(truck_paths, tmp_path):
    scenario_path, bundle_path = truck_paths
    csv_path = tmp_path / "t.csv"
    metrics_path = tmp_path / "m.json"
    rc = main(["simulate", str(scenario_path), str(bundle_path),
               "--csv", str(csv_path), "--metrics", str(metrics_path)])
    assert rc == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 20 * 2
    doc = json.loads(metrics_path.read_text())
    assert set(doc) == {"eta", "phi", "settling_95", "max_slack"}
    assert doc["max_slack"] <= 0.0


def test_simulate_zero_start_zero_inputs(tmp_path):
    doc = truck_scenario(T=5)
    doc["simulation"]["x0"] = {"1": [0.0, 0.0], "2": [0.0, 0.0]}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    bpath = tmp_path / "b.json"
    assert main(["design", str(spath), "-o", str(bpath)]) == EXIT_OK
    cpath = tmp_path / "t.csv"
    assert main(["simulate", str(spath), str(bpath), "--csv", str(cpath)]) == EXIT_OK
    rows = cpath.read_text().strip().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert float(cells[4]) == 0.0  # u0 column stays exactly zero


def test_simulate_fingerprint_mismatch(truck_paths, tmp_path, capsys):
    scenario_path, bundle_path = truck_paths
    doc = json.loads(scenario_path.read_text())
    doc["simulation"]["T"] = 99  # different scenario now
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    rc = main(["simulate", str(other), str(bundle_path)])
    assert rc == EXIT_USAGE
    assert "fingerprint" in capsys.readouterr().err


def test_simulate_naive_counterexample_exit3(tmp_path, capsys):
    spath = tmp_path / "naive.json"
    spath.write_text(json.dumps(counterexample_scenario()))
    rc = main(["simulate", str(spath), "--naive", "--trace", str(tmp_path / "tr.json")])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "t=1" in err and "subsystem 1" in err and "state constraints" in err
    trace = SimTrace.from_json(tmp_path / "tr.json")
    assert trace.infeasible_at == 1
    assert trace.infeasible_status == "infeasible"


def test_simulate_numerical_failure_exit4(truck_paths, tmp_path, capsys, monkeypatch):
    from tubenet import controller

    scenario_path, bundle_path = truck_paths
    monkeypatch.setattr(controller, "solve_mpc",
                        lambda *args, **kwargs: controller.MpcSolution("numerical-failure"))
    rc = main(["simulate", str(scenario_path), str(bundle_path),
               "--trace", str(tmp_path / "tr.json")])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "infeasible" not in err
    doc = json.loads((tmp_path / "tr.json").read_text())
    assert doc["infeasible_status"] == "numerical-failure"
    del doc["infeasible_status"]  # traces written before the field existed
    assert SimTrace.from_dict(doc).infeasible_status is None


def test_check_command(truck_paths, tmp_path):
    _, bundle_path = truck_paths
    out = tmp_path / "report.json"
    rc = main(["check", str(bundle_path), "--samples", "50", "--seed", "1",
               "-o", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_check_structural_only_with_zero_samples(truck_paths, tmp_path):
    _, bundle_path = truck_paths
    out = tmp_path / "report0.json"
    rc = main(["check", str(bundle_path), "--samples", "0", "-o", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    names = {c["name"] for c in doc["subsystems"]["1"]}
    assert "rci_certificate" not in names  # sampled suites skipped
    exact = [c for c in doc["subsystems"]["1"] if c["name"] == "vertex_invariance"][0]
    assert exact["passed"] and exact["max_gauge"] < 1.0


def _malformed(doc: dict, case: str) -> dict:
    if case == "empty":
        return {}
    if case == "no-controllers":
        del doc["controllers"]
    elif case == "no-alpha":
        del doc["controllers"]["1"]["alpha"]
    elif case == "no-blocks":
        doc["controllers"]["1"]["z_blocks"] = []
    elif case == "unknown-id":
        doc["controllers"]["9"] = doc["controllers"]["2"]
    elif case == "scenario-field":
        del doc["scenario"]["subsystems"][0]["B"]
    return doc


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("case, path", [
    ("empty", "$: 'scenario' is a required property"),
    ("no-controllers", "$: 'controllers' is a required property"),
    ("no-alpha", "$.controllers['1']: 'alpha' is a required property"),
    ("no-blocks", "malformed design at $.controllers.1"),
    ("unknown-id", "unknown subsystem at $.controllers.9"),
    ("scenario-field", "$.scenario.subsystems[0]: 'B' is a required property"),
])
def test_malformed_bundle_names_json_path(truck_paths, tmp_path, capsys, command, case, path):
    scenario_path, bundle_path = truck_paths
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_malformed(json.loads(bundle_path.read_text()), case)))
    argv = ["check", str(bad)] if command == "check" else ["simulate", str(scenario_path), str(bad)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


def test_check_detects_corrupted_alpha(truck_paths, tmp_path):
    _, bundle_path = truck_paths
    doc = json.loads(bundle_path.read_text())
    doc["controllers"]["1"]["alpha"] = 0.9999  # inflates the tube drastically
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    rc = main(["check", str(bad), "--samples", "0", "-o", str(out)])
    assert rc == EXIT_OK  # failures are report content, not exit conditions
    report = json.loads(out.read_text())
    assert report["passed"] is False
    inclusion = [c for c in report["subsystems"]["1"] if c["name"] == "inclusions"][0]
    assert not inclusion["passed"]


def test_plug_and_unplug_commands(truck_paths, tmp_path):
    scenario_path, bundle_path = truck_paths
    from tubenet.model import discretize_exact

    Ac = np.array([[0.0, 1.0], [-0.1 / 3.0, -0.1 / 3.0]])
    Bc = np.array([[0.0], [100.0 / 3.0]])
    cross = np.array([[0.0, 0.0], [0.1 / 3.0, 0.1 / 3.0]])
    Ad, Bd, Ed = discretize_exact(Ac, Bc, cross, 0.1)
    delta = {
        "add_subsystem": {
            "id": "3", "A": Ad.tolist(), "B": Bd.tolist(),
            "X": {"C": np.vstack([np.eye(2), -np.eye(2)]).tolist(), "d": [4.5, 2.0, 4.5, 2.0]},
            "U": {"C": [[1.0], [-1.0]], "d": [1.5, 1.5]},
        },
        "couplings": [{"from": "2", "to": "3", "A": Ed.tolist()}],
        "controller": {"horizon": 25, "minimize_alpha": True},
    }
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(delta))
    plugged = tmp_path / "plugged.json"
    rc = main(["plug", str(dpath), str(bundle_path), "-o", str(plugged)])
    assert rc == EXIT_OK
    scenario, controllers, report = load_bundle(plugged)
    assert set(controllers) == {"1", "2", "3"}
    # "3" has no successors: only itself is designed
    assert report["transaction"]["outcomes"].keys() == {"3"}

    # unplug the leaf again: empty redesign set
    udelta = tmp_path / "udelta.json"
    udelta.write_text(json.dumps({"remove_subsystem": "3"}))
    unplugged = tmp_path / "unplugged.json"
    rc = main(["unplug", str(udelta), str(plugged), "-o", str(unplugged)])
    assert rc == EXIT_OK
    scenario2, controllers2, report2 = load_bundle(unplugged)
    assert set(controllers2) == {"1", "2"}
    assert report2["transaction"]["outcomes"] == {}


def test_plugged_subsystem_keeps_its_controller_config(truck_paths, tmp_path):
    # the scenario's own horizon is 25: 18 shows the delta's setting survives a reload
    _, bundle_path = truck_paths
    delta = {
        "add_subsystem": {
            "id": "3", "A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [1.0]],
            "X": {"C": np.vstack([np.eye(2), -np.eye(2)]).tolist(), "d": [2.0, 2.0, 2.0, 2.0]},
            "U": {"C": [[1.0], [-1.0]], "d": [1.0, 1.0]},
        },
        "controller": {"horizon": 18},
    }
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(delta))
    plugged = tmp_path / "plugged.json"
    assert main(["plug", str(dpath), str(bundle_path), "-o", str(plugged)]) == EXIT_OK
    _, controllers, _ = load_bundle(plugged)
    assert controllers["3"].cfg.N == 18
    assert controllers["1"].cfg.N == 25


@pytest.mark.parametrize("command", ["plug", "unplug"])
def test_malformed_delta_names_json_path(truck_paths, tmp_path, capsys, command):
    _, bundle_path = truck_paths
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps({"oops": 1}))
    out = tmp_path / "out.json"
    rc = main([command, str(dpath), str(bundle_path), "-o", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()
    assert "schema violation at $" in capsys.readouterr().err


def test_ill_shaped_unplug_override_names_json_path(truck_paths, tmp_path, capsys):
    _, bundle_path = truck_paths
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps({"remove_subsystem": "1", "A_overrides": {"2": [[1.0]]}}))
    rc = main(["unplug", str(dpath), str(bundle_path), "-o", str(tmp_path / "out.json")])
    assert rc == EXIT_USAGE
    assert "$.A_overrides.2" in capsys.readouterr().err


def test_design_rejects_state_set_without_origin(tmp_path, capsys):
    doc = truck_scenario(T=5)
    doc["subsystems"][0]["X"]["d"][0] = -1.0
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert main(["design", str(spath), "-o", str(tmp_path / "b.json")]) == EXIT_USAGE
    assert "origin" in capsys.readouterr().err


def test_plug_rejected_keeps_bundle_unchanged(truck_paths, tmp_path, capsys):
    scenario_path, bundle_path = truck_paths
    before = bundle_path.read_text()
    delta = {
        "add_subsystem": {
            "id": "3", "A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [1.0]],
            "X": {"C": np.vstack([np.eye(2), -np.eye(2)]).tolist(), "d": [2.0, 2.0, 2.0, 2.0]},
            "U": {"C": [[1.0], [-1.0]], "d": [1.0, 1.0]},
        },
        "couplings": [{"from": "3", "to": "2",
                       "A": (3.0 * np.eye(2)).tolist()}],  # swallows X of "2"
    }
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(delta))
    out = tmp_path / "plugged.json"
    rc = main(["plug", str(dpath), str(bundle_path), "-o", str(out)])
    assert rc == EXIT_DESIGN
    assert not out.exists()
    assert bundle_path.read_text() == before  # byte-identical input bundle


def test_export_command(truck_paths, tmp_path):
    scenario_path, bundle_path = truck_paths
    trace_path = tmp_path / "trace.json"
    csv1 = tmp_path / "a.csv"
    rc = main(["simulate", str(scenario_path), str(bundle_path),
               "--trace", str(trace_path), "--csv", str(csv1)])
    assert rc == EXIT_OK
    csv2 = tmp_path / "b.csv"
    rc = main(["export", str(trace_path), str(bundle_path), "--csv", str(csv2)])
    assert rc == EXIT_OK
    assert csv1.read_text() == csv2.read_text()


def test_fingerprint_stable_under_key_order():
    doc = truck_scenario()
    shuffled = json.loads(json.dumps(doc))
    shuffled["controller"] = dict(reversed(list(shuffled["controller"].items())))
    assert fingerprint(doc) == fingerprint(shuffled)


def test_design_with_empty_couplings(tmp_path):
    doc = truck_scenario(T=5)
    doc["couplings"] = []  # isolated subsystems: disturbance degenerates to {0}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    bpath = tmp_path / "b.json"
    assert main(["design", str(spath), "-o", str(bpath)]) == EXIT_OK
    doc = json.loads(bpath.read_text())
    assert all(doc["controllers"][i]["alpha"] < 1.0 for i in ("1", "2"))


def test_design_respects_thread_env(tmp_path, monkeypatch):
    doc = truck_scenario(T=5)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    b1 = tmp_path / "b1.json"
    assert main(["design", str(spath), "-o", str(b1)]) == EXIT_OK
    monkeypatch.setenv("TUBENET_THREADS", "2")
    b2 = tmp_path / "b2.json"
    assert main(["design", str(spath), "-o", str(b2)]) == EXIT_OK
    d1 = json.loads(b1.read_text())
    d2 = json.loads(b2.read_text())
    assert d2["report"]["threads"] == 2
    assert d1["controllers"] == d2["controllers"]  # parallel design is bit-equal


def test_unplug_with_dynamics_overrides_cli(power_five_areas, tmp_path):
    scenario, controllers = power_five_areas
    from tubenet.scenarios import _power_area_matrices

    bundle_path = tmp_path / "p5.json"
    save_bundle(bundle_path, scenario, controllers, {})
    overrides = {}
    for i in ("3", "5"):
        Ad, _, _, _ = _power_area_matrices(1, 5.0 + 0.2 * int(i), 0.3)
        overrides[i] = Ad.tolist()
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps({"remove_subsystem": "4", "A_overrides": overrides}))
    out = tmp_path / "p4.json"
    rc = main(["unplug", str(dpath), str(bundle_path), "-o", str(out)])
    assert rc == EXIT_OK
    new_scenario, new_controllers, report = load_bundle(out)
    assert set(new_controllers) == {"1", "2", "3", "5"}
    assert set(report["transaction"]["outcomes"]) == {"3", "5"}
    assert np.allclose(new_scenario.network.subsystems["3"].A, overrides["3"])
