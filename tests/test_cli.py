import contextlib
import importlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
import util_oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from tubenet import cli, verify
from tubenet import section as section_mod
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


@pytest.mark.parametrize("record", [False, True])
def test_simulate_metrics_of_a_run_that_stopped_early(tmp_path, capsys, record):
    """The subsystems after the failing one have no row for the failed
    step: metrics and CSV cover what was recorded, and the exit code is
    the run's (3, or 0 with --record-failure)."""
    spath = tmp_path / "naive.json"
    spath.write_text(json.dumps(counterexample_scenario()))
    mpath, cpath = tmp_path / "m.json", tmp_path / "t.csv"
    argv = ["simulate", str(spath), "--naive", "--metrics", str(mpath), "--csv", str(cpath)]
    rc = main(argv + (["--record-failure"] if record else []))
    assert rc == (EXIT_OK if record else EXIT_INFEASIBLE)
    assert "infeasible at t=1: subsystem 1" in capsys.readouterr().err
    metrics = json.loads(mpath.read_text())
    assert np.isfinite(metrics["eta"]) and metrics["max_slack"] > 0.0
    rows = cpath.read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["0", "1"], ["0", "2"], ["1", "1"]]
    assert rows[-1].endswith(",0")  # the failed step's row, not feasible


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


EXACT_REPORTS = ["structure", "inclusions", "tube_containment", "vertex_invariance"]


@pytest.fixture(scope="module")
def power_bundle(power_four_areas, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_power") / "power4.json"
    save_bundle(path, *power_four_areas, {})
    return path


@pytest.mark.parametrize("bundle", ["trucks", "power-4", "capped"])
def test_check_runs_the_exact_reports_only(request, tmp_path, monkeypatch, bundle):
    """`tubenet check` writes the four exact reports of every subsystem and
    exits 0 when they pass; no sampler runs. Without an explicit tube
    section (capped) the vertex check is skipped and still passes."""
    path = (request.getfixturevalue("power_bundle") if bundle == "power-4"
            else request.getfixturevalue("truck_paths")[1])
    if bundle == "capped":
        monkeypatch.setattr(section_mod, "MAX_POINTS", 0)

    def sampler(*args, **kwargs):
        raise AssertionError("a sampled oracle ran")

    monkeypatch.setattr(verify, "rci_certificate", sampler)
    monkeypatch.setattr(util_oracles, "homogeneity_report", sampler)
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(["check", str(path), "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert set(doc) == {"passed", "subsystems"}  # no sampler settings
    assert doc["passed"] is True
    assert len(doc["subsystems"]) == (4 if bundle == "power-4" else 2)
    for i, checks in doc["subsystems"].items():
        assert [c["name"] for c in checks] == EXACT_REPORTS
        assert all(c["passed"] for c in checks)
        vertex = checks[-1]
        if bundle == "capped":
            assert vertex["skipped"]
            assert f"subsystem {i}: vertex_invariance: skipped" in text.getvalue()
        else:
            assert "skipped" not in vertex and vertex["max_gauge"] < 1.0


@pytest.mark.parametrize("argv", [
    ["check", "{bundle}", "--bogus"],
    ["check", "{bundle}", "--samples", "10"],
    ["check", "{bundle}", "--seed", "1"],
    ["check"],
    ["plug", "{bundle}"],
    ["nosuchcommand"],
])
def test_usage_errors_exit_1(truck_paths, capsys, argv):
    """Unknown flags and missing positionals are usage errors (1), not the
    design failure (2) of argparse's own exit code."""
    argv = [a.format(bundle=truck_paths[1]) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "usage: tubenet" in capsys.readouterr().err


def test_one_parser_per_process_and_handlers_looked_up_when_run(monkeypatch, capsys):
    """`main` parses with one parser built once, and runs the module's
    `cmd_<name>` as it is at call time (so a wrapper installed later, as a
    tracer's, is the one that runs)."""
    parsers, ran = [], []
    parse = cli._Parser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    cli.build_parser()  # the parser exists before the handler is replaced
    monkeypatch.setattr(cli._Parser, "parse_args", spy)
    monkeypatch.setattr(cli, "cmd_plug", lambda args: ran.append(args.delta) or EXIT_OK)
    assert main(["plug", "d1.json", "b.json", "-o", "out.json"]) == EXIT_OK
    assert main(["plug", "d2.json", "b.json", "-o", "out.json"]) == EXIT_OK
    assert ran == ["d1.json", "d2.json"]
    assert len(parsers) == 2 and parsers[0] is parsers[1] is cli.build_parser()


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: tubenet" in capsys.readouterr().out


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
    elif case == "string-in-z-block":
        doc["controllers"]["1"]["z_blocks"][0][0][0] = "0.0"
    elif case == "true-in-Xhat":
        doc["controllers"]["1"]["Xhat"]["d"][0] = True
    elif case == "null-in-V":
        doc["controllers"]["1"]["V"]["C"][0][0] = None
    elif case == "flat-rho":
        doc["controllers"]["1"]["rho"] = doc["controllers"]["1"]["rho"][0]
    elif case == "ragged-w-block":
        doc["controllers"]["1"]["w_blocks"][0][0].append(0.0)
    elif case == "nan-z-terminal":
        doc["controllers"]["1"]["z_terminal"][0][0] = float("nan")
    return doc


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("case, path", [
    ("empty", "$: 'scenario' is a required property"),
    ("no-controllers", "$: 'controllers' is a required property"),
    ("no-alpha", "$.controllers['1']: 'alpha' is a required property"),
    ("no-blocks", "malformed design at $.controllers.1"),
    ("unknown-id", "unknown subsystem at $.controllers.9"),
    ("scenario-field", "$.scenario.subsystems[0]: 'B' is a required property"),
    ("string-in-z-block", "$.controllers['1'].z_blocks[0][0][0]: '0.0' is not of type 'number'"),
    ("true-in-Xhat", "$.controllers['1'].Xhat.d[0]: True is not of type 'number'"),
    ("null-in-V", "$.controllers['1'].V.C[0][0]: None is not of type 'number'"),
    ("flat-rho", "$.controllers['1'].rho[0]: "),
    ("ragged-w-block", "$.controllers['1'].w_blocks[0]: not a rectangular array"),
    ("nan-z-terminal", "$.controllers['1'].z_terminal[0][0]: nan is not a finite number"),
])
def test_malformed_bundle_names_json_path(truck_paths, tmp_path, capsys, command, case, path):
    scenario_path, bundle_path = truck_paths
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_malformed(json.loads(bundle_path.read_text()), case)))
    argv = ["check", str(bad)] if command == "check" else ["simulate", str(scenario_path), str(bad)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


# ------------------------------------------------------- numeric arrays

#: one malformed-array fault each, applied to a 2 x 2 matrix
BAD_MATRICES = {
    "numeric-string": lambda A: [[A[0][0], "0.1"], A[1]],
    "true": lambda A: [[A[0][0], True], A[1]],
    "one-and-true": lambda A: [[1, True], A[1]],  # numpy would read [1, 1]
    "null": lambda A: [A[0], [None, A[1][1]]],
    "nan": lambda A: [A[0], [A[1][0], float("nan")]],
    "inf": lambda A: [A[0], [A[1][0], float("-inf")]],
    "ragged": lambda A: [A[0], A[1][:1]],
    "shallow": lambda A: A[0],
    "deep": lambda A: [A],
    "empty": lambda A: [],
}


def _numeric_fault(target: str, bad, truck_paths, tmp_path) -> tuple[list, str]:
    """argv of a command whose input carries the fault bad, and the JSON path
    of the faulty array."""
    _, bundle_path = truck_paths
    path = tmp_path / "in.json"
    out = str(tmp_path / "out.json")
    A = truck_scenario()["subsystems"][1]["A"]
    if target == "scenario":
        doc = truck_scenario(T=5)
        doc["subsystems"][1]["A"] = bad(A)
        path.write_text(json.dumps(doc))
        return ["design", str(path), "-o", out], "$.subsystems[1].A"
    if target == "plug":
        path.write_text(json.dumps(_third_truck(**{"add_subsystem.A": bad(A)})))
        return ["plug", str(path), str(bundle_path), "-o", out], "$.add_subsystem.A"
    if target == "unplug":
        path.write_text(json.dumps({"remove_subsystem": "1", "A_overrides": {"2": bad(A)}}))
        return ["unplug", str(path), str(bundle_path), "-o", out], "$.A_overrides['2']"
    doc = json.loads(bundle_path.read_text())
    doc["scenario"]["subsystems"][1]["A"] = bad(A)
    path.write_text(json.dumps(doc))
    return ["check", str(path)], "$.scenario.subsystems[1].A"


@pytest.mark.parametrize("case", sorted(BAD_MATRICES))
@pytest.mark.parametrize("target", ["scenario", "plug", "unplug", "bundle"])
def test_malformed_array_names_its_json_path(truck_paths, tmp_path, capsys, target, case):
    argv, path = _numeric_fault(target, BAD_MATRICES[case], truck_paths, tmp_path)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"schema violation at {path}" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def _json_path(parts) -> str:
    """A path as jsonschema writes it: $.key, $['1'], $[0]."""
    return "$" + "".join(f"[{p}]" if isinstance(p, int)
                         else f".{p}" if re.fullmatch(r"[a-zA-Z]\w*", p) else f"['{p}']"
                         for p in parts)


def _numeric_arrays(doc, parts=()):
    """(path, levels) of every vector and matrix in a scenario document."""
    def numbers(row):
        return isinstance(row, list) and row and all(type(v) in (int, float) for v in row)

    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _numeric_arrays(value, (*parts, key))
    elif numbers(doc):
        yield parts, 1
    elif isinstance(doc, list) and doc and all(numbers(row) for row in doc):
        yield parts, 2
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _numeric_arrays(value, (*parts, i))


FUZZED = power_scenario(T=5)
FUZZED_ARRAYS = sorted(_numeric_arrays(FUZZED), key=str)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_corrupted_array_entry_exits_1_with_its_path(tmp_path_factory, data):
    parts, levels = data.draw(st.sampled_from(FUZZED_ARRAYS))
    doc = json.loads(json.dumps(FUZZED))
    array = doc
    for part in parts:
        array = array[part]
    for _ in range(levels):
        i = data.draw(st.integers(0, len(array) - 1))
        parts, parent, array = (*parts, i), array, array[i]
    parent[parts[-1]] = data.draw(st.sampled_from(
        ["0.5", True, False, None, float("nan"), float("inf"), 10**400, [], [0.5], {}]))
    path = tmp_path_factory.mktemp("fuzz") / "s.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["design", str(path), "-o", str(path.with_name("b.json"))])
    assert rc == EXIT_USAGE
    assert err.getvalue().startswith(f"error: schema violation at {_json_path(parts)}: ")


def test_bundle_is_compact_json_that_round_trips(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    same_controllers = importlib.import_module("workloads").same_controllers
    scenario = scenario_from_dict(truck_scenario(T=5))
    controllers, report, _ = design_scenario(scenario)
    path = tmp_path / "b.json"
    save_bundle(path, scenario, controllers, report)
    text = path.read_text()
    doc = json.loads(text)
    assert "\n" not in text
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert doc["scenario_fingerprint"] == fingerprint(truck_scenario(T=5))
    loaded_scenario, loaded, _ = load_bundle(path)
    assert loaded_scenario.fingerprint() == scenario.fingerprint()
    assert same_controllers(controllers, loaded)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1))  # the older layout
    assert same_controllers(controllers, load_bundle(path)[1])


def test_check_detects_corrupted_alpha(truck_paths, tmp_path):
    _, bundle_path = truck_paths
    doc = json.loads(bundle_path.read_text())
    doc["controllers"]["1"]["alpha"] = 0.9999  # inflates the tube drastically
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    rc = main(["check", str(bad), "-o", str(out)])
    assert rc == EXIT_DESIGN  # after the report is written
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


@pytest.mark.parametrize("delta, path", [
    ({"remove_subsystem": "7"}, "unknown subsystem at $.remove_subsystem"),
    ({"remove_subsystem": 7}, "unknown subsystem at $.remove_subsystem"),
    ({"remove_subsystem": "1", "A_overrides": {"9": np.eye(2).tolist()}},
     "no retained subsystem at $.A_overrides.9"),
    ({"remove_subsystem": "1", "A_overrides": {"1": np.eye(2).tolist()}},
     "no retained subsystem at $.A_overrides.1"),
    ({"remove_subsystem": "1", "A_overrides": {"2": [[1, 0], [0, 1]]}},
     "uncontrollable override at $.A_overrides.2"),
])
def test_unplug_delta_faults_name_the_delta_path(truck_paths, tmp_path, capsys, delta, path):
    _, bundle_path = truck_paths
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(delta))
    out = tmp_path / "out.json"
    assert main(["unplug", str(dpath), str(bundle_path), "-o", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert path in captured.err and "Traceback" not in captured.err
    assert captured.out == ""  # rejected before any transaction runs
    assert not out.exists()


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workload module, for its seeded plug delta."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("k", [0, 1, 2])
def test_plug_then_performance_unplug_restores_the_bundle(truck_paths, tmp_path, capsys,
                                                         workloads, k):
    # exact oracle: unplugging the plugged truck returns the original network,
    # and truck 2 is redesigned there with its own settings
    scenario_path, bundle_path = truck_paths
    delta, udelta = tmp_path / "plug.json", tmp_path / "unplug.json"
    delta.write_text(json.dumps(workloads.third_truck_delta(5, k)))
    udelta.write_text(json.dumps({"remove_subsystem": "3"}))
    plugged, unplugged = tmp_path / "plugged.json", tmp_path / "unplugged.json"
    assert main(["plug", str(delta), str(bundle_path), "-o", str(plugged)]) == EXIT_OK
    assert main(["unplug", str(udelta), str(plugged), "-o", str(unplugged),
                 "--policy", "performance"]) == EXIT_OK
    base, out = (json.loads(p.read_text()) for p in (bundle_path, unplugged))
    assert out["scenario"] == base["scenario"]
    assert out["controllers"] == base["controllers"]
    assert main(["simulate", str(scenario_path), str(unplugged)]) == EXIT_OK


def test_plug_redesigns_a_successor_with_its_own_settings(tmp_path, capsys, workloads):
    doc = truck_scenario(T=5)
    doc["subsystems"][1]["controller"] = {"k": 3}
    spath, bpath, dpath = tmp_path / "s.json", tmp_path / "b.json", tmp_path / "d.json"
    spath.write_text(json.dumps(doc))
    dpath.write_text(json.dumps(workloads.third_truck_delta(5, 0)))
    assert main(["design", str(spath), "-o", str(bpath)]) == EXIT_OK
    out = tmp_path / "plugged.json"
    assert main(["plug", str(dpath), str(bpath), "-o", str(out)]) == EXIT_OK
    _, controllers, _ = load_bundle(out)
    assert controllers["2"].rci.k == 3 and controllers["2"].rci_cfg.k == 3
    assert controllers["3"].rci.k == 2


def test_mode_flag_picks_the_online_law(tmp_path, capsys):
    spath, bpath = tmp_path / "s.json", tmp_path / "b.json"
    spath.write_text(json.dumps(truck_scenario(T=3)))  # x0: (0, 0) and (3, 0)
    assert main(["design", str(spath), "-o", str(bpath)]) == EXIT_OK
    first_u1 = {}
    for mode in ("distributed", None):
        trace_path = tmp_path / f"{mode}.json"
        flag = ["--mode", mode] if mode else []
        assert main(["simulate", str(spath), str(bpath), "--trace", str(trace_path),
                     *flag]) == EXIT_OK
        first_u1[mode] = SimTrace.from_json(trace_path).data["1"]["u"][0][0]
    # truck 2 at +3 pulls truck 1 forward: only the predecessor-aware law answers
    assert first_u1["distributed"] == pytest.approx(-0.012, abs=1e-3)
    assert first_u1[None] == 0.0


def test_mode_in_a_subsystem_block_names_its_path(tmp_path, capsys):
    doc = truck_scenario(T=5)
    doc["subsystems"][0]["controller"] = {"mode": "distributed"}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert main(["design", str(spath), "-o", str(tmp_path / "b.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "at $.subsystems[0].controller" in err and "'mode'" in err


@pytest.mark.parametrize("where, path", [("controller", "$.controller"),
                                         ("add_subsystem.controller",
                                          "$.add_subsystem.controller")])
def test_mode_in_a_plug_delta_names_its_path(truck_paths, tmp_path, capsys, where, path):
    _, bundle_path = truck_paths
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(_third_truck(**{where: {"mode": "distributed"}})))
    out = tmp_path / "out.json"
    assert main(["plug", str(dpath), str(bundle_path), "-o", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"at {path}:" in err and "'mode'" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("time", 50), ("id", "9")])
def test_load_step_faults_name_their_path(tmp_path, capsys, field, value):
    doc = power_scenario(T=20)
    validate_scenario(doc)  # the default steps that fit the horizon
    doc["simulation"]["loads"].append({"id": "2", "time": 3, "value": 0.05})
    doc["simulation"]["loads"][1][field] = value
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert main(["simulate", str(spath), "--naive"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"at $.simulation.loads[1].{field}" in err and "Traceback" not in err


def test_unwritable_output_exits_1(tmp_path, capsys):
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(truck_scenario(T=5)))
    assert main(["design", str(spath), "-o", str(tmp_path / "missing" / "b.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_design_rejects_state_set_without_origin(tmp_path, capsys):
    doc = truck_scenario(T=5)
    doc["subsystems"][0]["X"]["d"][0] = -1.0
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert main(["design", str(spath), "-o", str(tmp_path / "b.json")]) == EXIT_USAGE
    assert "origin" in capsys.readouterr().err


@pytest.mark.parametrize("key, row", [("X", 3), ("U", 1)])
def test_design_rejects_unbounded_set(tmp_path, capsys, key, row):
    # the truck without its lower velocity (or input) row is unbounded below
    doc = truck_scenario(T=5)
    for part in ("C", "d"):
        del doc["subsystems"][0][key][part][row]
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert main(["design", str(spath), "-o", str(tmp_path / "b.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"unbounded set at $.subsystems[0].{key}" in err and "Traceback" not in err


INDEFINITE = [[-1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("where, key, path", [
    ("scenario", "Q", "$.controller.Q"),
    ("scenario", "R", "$.controller.R"),
    ("subsystem", "Q", "$.subsystems[1].controller.Q"),
    ("subsystem", "R", "$.subsystems[1].controller.R"),
])
def test_design_rejects_weights_not_positive_definite(tmp_path, capsys, where, key, path):
    doc = truck_scenario(T=5)
    settings = doc["controller"] if where == "scenario" else doc["subsystems"][1].setdefault(
        "controller", {})
    settings[key] = INDEFINITE if key == "Q" else [[0.0]]
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert main(["design", str(spath), "-o", str(tmp_path / "b.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"weight at {path} is not symmetric positive definite" in err
    assert "Traceback" not in err


def test_plug_rejects_weights_not_positive_definite(truck_paths, tmp_path, capsys):
    _, bundle_path = truck_paths
    delta = {
        "add_subsystem": {
            "id": "3", "A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [1.0]],
            "X": {"C": np.vstack([np.eye(2), -np.eye(2)]).tolist(), "d": [2.0, 2.0, 2.0, 2.0]},
            "U": {"C": [[1.0], [-1.0]], "d": [1.0, 1.0]},
        },
        "controller": {"Q": INDEFINITE},
    }
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(delta))
    out = tmp_path / "out.json"
    assert main(["plug", str(dpath), str(bundle_path), "-o", str(out)]) == EXIT_USAGE
    assert "weight at $.controller.Q is not symmetric positive definite" in capsys.readouterr().err
    assert not out.exists()


def _third_truck(**changes) -> dict:
    """A plug delta adding subsystem "3" behind "2", with changes applied."""
    delta = {
        "add_subsystem": {
            "id": "3", "A": [[1.0, 0.1], [0.0, 1.0]], "B": [[0.0], [1.0]],
            "X": {"C": np.vstack([np.eye(2), -np.eye(2)]).tolist(), "d": [2.0, 2.0, 2.0, 2.0]},
            "U": {"C": [[1.0], [-1.0]], "d": [1.0, 1.0]},
        },
        "couplings": [{"from": "2", "to": "3", "A": (0.01 * np.eye(2)).tolist()}],
        "x0": [0.0, 0.0],
    }
    for path, value in changes.items():
        *keys, last = path.split(".")
        target = delta
        for key in keys:
            target = target[int(key)] if isinstance(target, list) else target[key]
        target[last] = value
    return delta


@pytest.mark.parametrize("changes, path", [
    ({"add_subsystem.X": {"C": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], "d": [2.0, 2.0, 2.0]}},
     "unbounded set at $.add_subsystem.X"),
    ({"add_subsystem.B": [[0.0], [1.0], [0.0]]}, "ill-shaped matrix at $.add_subsystem.B"),
    ({"add_subsystem.controller": {"R": [[1.0, 0.0], [0.0, 1.0]]}},
     "ill-shaped matrix at $.add_subsystem.controller.R"),
    ({"controller": {"Q": [[1.0]]}}, "ill-shaped matrix at $.controller.Q"),
    ({"add_subsystem.id": "2"}, "schema violation at $.add_subsystem.id"),
    ({"couplings.0.A": [[0.1]]}, "ill-shaped matrix at $.couplings[0].A"),
    ({"couplings.0.from": "9"}, "unknown subsystem reference at $.couplings[0]"),
    ({"x0": [0.0, 0.0, 0.0]}, "ill-shaped vector at $.x0"),
])
def test_plug_delta_faults_name_the_delta_path(truck_paths, tmp_path, capsys, changes, path):
    _, bundle_path = truck_paths
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(_third_truck(**changes)))
    out = tmp_path / "out.json"
    assert main(["plug", str(dpath), str(bundle_path), "-o", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err
    assert "$.subsystems" not in err and "simulation" not in err
    assert not out.exists()


def test_uncontrollable_subsystem_names_its_path(truck_paths, tmp_path, capsys):
    # A = I with B = e2: the position is unreachable, in a scenario and in a plug delta
    doc = truck_scenario(T=5)
    doc["subsystems"][1]["A"] = [[1.0, 0.0], [0.0, 1.0]]
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert main(["design", str(spath), "-o", str(tmp_path / "b.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "at $.subsystems[1]: " in err and "not controllable" in err
    _, bundle_path = truck_paths
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(_third_truck(**{"add_subsystem.A": [[1.0, 0.0], [0.0, 1.0]]})))
    out = tmp_path / "out.json"
    assert main(["plug", str(dpath), str(bundle_path), "-o", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "at $.add_subsystem: " in err and "not controllable" in err
    assert "Traceback" not in err and not out.exists()


def test_plug_delta_checked_against_inherited_weights(truck_paths, tmp_path, capsys):
    # the trucks' scenario-wide Q is 2 x 2: a 3-state subsystem cannot inherit it
    _, bundle_path = truck_paths
    delta = _third_truck(**{"add_subsystem.A": np.eye(3).tolist(),
                            "add_subsystem.B": [[0.0], [0.0], [1.0]],
                            "add_subsystem.X": {"C": np.vstack([np.eye(3), -np.eye(3)]).tolist(),
                                                "d": [2.0] * 6},
                            "couplings": [], "x0": [0.0, 0.0, 0.0]})
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(delta))
    assert main(["plug", str(dpath), str(bundle_path), "-o", str(tmp_path / "o.json")]) == EXIT_USAGE
    assert "at $.scenario.controller.Q" in capsys.readouterr().err


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


def _power_five_unplug(power_five_areas, tmp_path) -> tuple[Path, dict]:
    """A bundle of the 5-area grid and a delta removing area 4, with new local
    dynamics for its neighbours 3 and 5."""
    scenario, controllers = power_five_areas
    from tubenet.scenarios import _power_area_matrices

    bundle_path = tmp_path / "p5.json"
    save_bundle(bundle_path, scenario, controllers, {})
    overrides = {i: _power_area_matrices(1, 5.0 + 0.2 * int(i), 0.3)[0].tolist()
                 for i in ("3", "5")}
    return bundle_path, {"remove_subsystem": "4", "A_overrides": overrides}


@pytest.mark.parametrize("command", ["plug", "unplug"])
def test_each_transaction_validates_the_scenario_once(request, tmp_path, monkeypatch, command):
    if command == "plug":
        bundle_path, delta = request.getfixturevalue("truck_paths")[1], _third_truck()
    else:
        bundle_path, delta = _power_five_unplug(request.getfixturevalue("power_five_areas"),
                                                tmp_path)
    dpath = tmp_path / "delta.json"
    dpath.write_text(json.dumps(delta))
    out = tmp_path / "out.json"
    validated, transactions = [], []
    validate = cli.validate_scenario
    operation = cli.plug_in if command == "plug" else cli.unplug

    def count(doc, root="$"):
        validated.append(root)
        return validate(doc, root)

    def keep(*args, **kwargs):
        transactions.append(operation(*args, **kwargs))
        return transactions[-1]

    monkeypatch.setattr(cli, "validate_scenario", count)
    monkeypatch.setattr(cli, operation.__name__, keep)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, str(dpath), str(bundle_path), "-o", str(out)]) == EXIT_OK
    assert validated == ["$.scenario"]  # the input bundle's own check, nothing more
    monkeypatch.undo()

    # the saved scenario rebuilds exactly the network the transaction committed
    (tx,) = transactions
    saved = load_bundle(out)[0].network
    assert list(saved.subsystems) == list(tx.network.subsystems)
    for i, sub in tx.network.subsystems.items():
        assert np.array_equal(saved.subsystems[i].A, sub.A)
        assert np.array_equal(saved.subsystems[i].B, sub.B)
    assert len(saved.couplings) == len(tx.network.couplings)
    for a, b in zip(saved.couplings, tx.network.couplings):
        assert (a.src, a.dst) == (b.src, b.dst) and np.array_equal(a.A, b.A)
    if command == "unplug":
        assert np.array_equal(saved.subsystems["3"].A, delta["A_overrides"]["3"])
