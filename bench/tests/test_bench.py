"""Tests of the benchmark's own machinery: span arithmetic, the percentile
rule, seeded input generation and layer attribution of solver calls.

    python3 -m pytest -q bench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times, tail_percentile  # noqa: E402


def spans_of(rows):
    return [Span(name, a, b, parent, 0, info) for name, a, b, parent, info in rows]


# ------------------------------------------------------------ span arithmetic

def test_union_length_merges_and_clips():
    assert tracing.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.union_length([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert tracing.union_length([], 0, 1) == 0
    assert tracing.union_length([(3, 3), (4, 2)], 0, 10) == 0


def test_self_time_subtracts_children_union_only():
    spans = spans_of([
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 3.0, 0, None),
        ("b", 2.0, 5.0, 0, None),  # overlaps a: counted once
        ("grandchild", 2.5, 2.9, 1, None),  # inside a: does not touch root
        ("c", 7.0, 8.0, 0, None),
    ])
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 5)
    assert selfs[1] == pytest.approx(2 - 0.4)
    assert selfs[2] == pytest.approx(3)
    assert selfs[3] == pytest.approx(0.4)


def test_unattributed_is_window_minus_roots():
    spans = spans_of([("r1", 1.0, 2.0, -1, None), ("r2", 3.0, 5.0, -1, None),
                      ("kid", 3.5, 4.0, 1, None)])
    assert tracing.unattributed(spans, 0.0, 6.0) == pytest.approx(3.0)


def test_tracer_records_parents_and_times_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    tracer.run = 7
    assert tracer.wrap("outer", outer)() == 2
    spans = tracer.spans()
    assert [s.name for s in spans] == ["outer", "leaf", "leaf"]
    assert [s.parent for s in spans] == [-1, 0, 0]
    assert all(s.run == 7 for s in spans)
    # clock ticks: outer 0..5, leaves 1..2 and 3..4
    assert [(s.start, s.end) for s in spans] == [(0, 5), (1, 2), (3, 4)]
    assert self_times(spans) == [3, 1, 1]


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    (span,) = tracer.spans()
    assert span.end >= span.start
    assert tracer._stack() == []


# ------------------------------------------------------------ percentile rule

def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1000))) == pytest.approx(np.percentile(np.arange(1000), 99))
    assert tail_percentile(list(range(999))) is None
    assert tail_percentile(list(range(999)), pct=90.0) is not None
    assert tail_percentile(list(range(10000)), pct=99.9) is not None
    assert tail_percentile(list(range(20)), pct=50.0) == pytest.approx(9.5)
    assert tail_percentile(list(range(19)), pct=50.0) is None


# ------------------------------------------------------------ seeded inputs

def test_generators_are_deterministic_per_seed():
    for seed in (0, 1, 12345):
        for k in (0, 1, 5):
            assert workloads.truck_x0(seed, k) == workloads.truck_x0(seed, k)
            assert workloads.grid_loads(seed, k) == workloads.grid_loads(seed, k)
            assert workloads.third_truck_delta(seed, k) == workloads.third_truck_delta(seed, k)
            assert workloads.mass_seed(seed, k) == workloads.mass_seed(seed, k)
    assert workloads.truck_x0(1, 0) != workloads.truck_x0(2, 0)
    assert workloads.grid_loads(1, 0) != workloads.grid_loads(2, 0)
    assert workloads.third_truck_delta(1, 0) != workloads.third_truck_delta(2, 0)
    assert workloads.mass_seed(1, 0) != workloads.mass_seed(2, 0)


def test_generated_inputs_stay_in_their_ranges():
    for seed in range(5):
        for k in range(20):
            x0 = workloads.truck_x0(seed, k)
            x = np.array(x0["1"] + x0["2"])
            assert np.all(np.abs(x) <= workloads.TRUCK_BOX)
            loads = workloads.grid_loads(seed, k)
            assert len({ls["id"] for ls in loads}) == workloads.GRID_LOAD_STEPS
            for ls in loads:
                assert abs(ls["value"]) <= workloads.GRID_LOAD_MAX
                assert 0 <= ls["time"] < workloads.GRID_T


def test_truck_starts_cover_the_box_for_any_seed():
    # 64 episodes reach all 16 orthants of the box, whatever the seed
    for seed in range(20):
        starts = [workloads.truck_x0(seed, k) for k in range(64)]
        assert len({tuple(np.sign(x0["1"] + x0["2"])) for x0 in starts}) == 16


# ------------------------------------------------------------ layer attribution

def test_lp_spans_are_attributed_to_their_layer():
    from tubenet import controller, geometry, optim
    from tubenet.model import build_truck_network, disturbance_set
    from tubenet.rci import RciConfig

    net = build_truck_network()
    W = disturbance_set(net, "1")
    original = optim.solve_lp
    tracer = Tracer()
    with tracer:
        assert geometry.solve_lp is not original and optim.solve_lp is not original
        ctrl = controller.design_controller(net.subsystems["1"], W,
                                            RciConfig(minimize_alpha=True),
                                            controller.MpcConfig(N=25))
        controller.kappa_bar_full(ctrl.rci, np.array([0.1, 0.0]))
    assert optim.solve_lp is original and geometry.solve_lp is original
    assert controller.solve_lp is original

    spans = tracer.spans()
    owners = ("rci.synthesize", "controller.tighten", "controller.kappa")
    by_owner = {}
    for i, s in enumerate(spans):
        if s.name == "optim.lp":
            owner = next((n for n in tracing.ancestors(spans, i) if n in owners), None)
            by_owner.setdefault(owner, []).append(i)
    assert set(by_owner) == set(owners)
    assert len(by_owner["controller.kappa"]) == 1
    # every LP has HiGHS below it
    cores = [s for s in spans if s.name == "optim.lp.core"]
    assert len(cores) == sum(len(v) for v in by_owner.values())
    assert all(spans[c.parent].name == "optim.lp" for c in cores)

    m = layer_metrics(spans, spans[0].start, spans[-1].end)
    assert m["rci.synthesize.lps"] == len(by_owner["rci.synthesize"])
    assert m["controller.tighten.lps"] == len(by_owner["controller.tighten"])
    assert m["optim.lp.calls"] == len(cores)
    assert 0 < m["optim.lp.core_s"] < m["optim.lp.s"]


def test_nominal_path_is_read_from_child_spans():
    spans = spans_of([
        ("controller.nominal", 0.0, 1.0, -1, None),
        ("geometry.member", 0.1, 0.2, 0, True),
        ("optim.lp", 0.1, 0.2, 1, ("optimal", 3)),
        ("controller.nominal", 2.0, 4.0, -1, None),
        ("geometry.member", 2.1, 2.2, 3, False),
        ("optim.lp", 2.1, 2.2, 4, ("infeasible", 1)),
        ("optim.qp", 2.3, 3.9, 3, ("optimal", 12)),
        ("optim.lp", 2.4, 2.5, 6, ("optimal", 2)),
    ])
    m = layer_metrics(spans, 0.0, 5.0)
    assert (m["controller.nominal.shortcut"], m["controller.nominal.qp"]) == (1, 1)
    assert m["controller.nominal.shortcut_ratio"] == 0.5
    assert m["controller.nominal.lps"] == 3
    assert m["optim.qp.fallback_lps"] == 1
    assert m["optim.lp.infeasible"] == 1 and m["geometry.member.infeasible"] == 1
    assert m["optim.qp.iters"] == 12 and m["optim.lp.iters"] == 6
    assert m["unattributed_s"] == pytest.approx(5.0 - 3.0)
    assert m["controller.nominal.self_s"] == pytest.approx(1.0 - 0.1 + 2.0 - 0.1 - 1.6)
