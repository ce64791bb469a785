"""The explicit tube section against the invariance LPs it replaces online.

Property tests draw points from the tube section, from its boundary facets
and at its vertices, scaled by rho in [0, 3], on the truck, power-4,
mass 4x4 and a one-dimensional design. Oracle tests hold the facet-indexed
cone lookup to an all-cone scan, and the projected minimum of the successor
gauge to a brute-force minimum over pairs of lines. The sampled invariance
and homogeneity oracles also run on truck designs compiled without a
section, where the LPs serve.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import _linprog_highs

from tubenet import controller as controller_mod
from tubenet import section as section_mod
from tubenet.cli import design_scenario, scenario_from_dict
from tubenet.controller import (
    InfeasibleStep,
    MpcConfig,
    design_controller,
    kappa_bar_dis_full,
    kappa_bar_full,
    step_control,
)
from tubenet.geometry import HPolytope, VAggregate, VPolytope
from tubenet.model import Subsystem
from tubenet.rci import DesignFailure, RciConfig
from tubenet.scenarios import mass_scenario
from tubenet.section import LeastMagnitude, TubeSection
from tubenet.verify import rci_certificate, run_all_checks, vertex_invariance_report

from conftest import design_truck_controllers
import util_oracles
from util_oracles import homogeneity_report
from util_geom import support_lp

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
DESIGNS = ("trucks", "power", "mass", "scalar")


@pytest.fixture(scope="module")
def designs(truck_network, truck_controllers, power_four_areas):
    with pytest.MonkeyPatch.context() as patch:  # fresh designs, compiled without a section
        patch.setattr(section_mod, "MAX_POINTS", 0)
        fallback = list(design_truck_controllers(truck_network).values())
        assert all(ctrl.compiled.section is None for ctrl in fallback)
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
        "fallback": fallback,
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
    assert abs(np.max(sec.H @ z) - mu_lp) <= tol
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
        sec = ctrl.compiled.section
        u, mu, beta = sec.law(np.zeros(ctrl.sub.n))
        assert mu == 0.0 and not np.any(u) and not np.any(beta)
        assert u.shape == (ctrl.sub.m,) and beta.shape == (ctrl.rci.k * ctrl.rci.q,)
        # a zero successor handed with its facet product, as the successor law does
        mu, beta, u = sec.decompose(np.zeros(ctrl.sub.n), np.zeros(sec.H.shape[0]))
        assert mu == 0.0 and not np.any(u) and not np.any(beta)


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
    rci, sub = ctrl.rci, ctrl.sub
    z = tube_point(data, ctrl)
    w = rci.w_set.sample(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    v = input_offset(data, ctrl.V)
    if sub.m > 1:  # read off the section for one input only
        assert ctrl.compiled.successor is None
        return
    u, mu, beta = ctrl.compiled.successor(sub.A @ z + w, v)
    _, mu_lp, _ = kappa_bar_dis_full(rci, z, v, {"w": w}, {"w": np.eye(sub.n)}, sub.U)
    assert abs(mu - mu_lp) <= 1e-9 * max(1.0, mu_lp)
    assert sub.U.contains(v + u, tol=1e-9)
    zmat, _ = mixing_matrices(rci)
    assert np.abs(zmat @ beta - (sub.A @ z + w + sub.B @ u)).max() <= 1e-9


def least_magnitude(a, b, g, cu, rhs):
    """The compiled kernel, called with the reference's arguments and
    returning its (1,) array: v = 0, so the interval is {u : cu u <= rhs}."""
    u = LeastMagnitude(b, cu, rhs)(a, g)
    return None if u is None else np.array([u])


def test_one_input_minimizer_of_least_magnitude():
    # g(u) = max(1 - u, 0, u - 2) is flat on [1, 2]; shifted, flat on [-1, 1]
    box = np.array([1.0, -1.0]), np.array([5.0, 5.0])
    flat = least_magnitude(np.array([1.0, 0.0, -2.0]), np.array([-1.0, 0.0, 1.0]), 0.0, *box)[0]
    assert flat == pytest.approx(1.0, abs=1e-11)  # within the tie tolerance
    assert least_magnitude(np.array([-1.0, 0.0, -1.0]), np.array([-1.0, 0.0, 1.0]), 0.0,
                           *box)[0] == 0.0
    # a unique kink at 0.125 (g* = 0.25), and the bound when the kink lies outside
    lines = np.array([0.5, 0.0]), np.array([-2.0, 2.0])
    assert least_magnitude(*lines, 0.25, *box)[0] == pytest.approx(0.125)
    capped = least_magnitude(*lines, 0.25, np.array([1.0, -1.0]), np.array([0.1, 5.0]))[0]
    assert capped == pytest.approx(0.1, abs=1e-11)
    assert least_magnitude(*lines, 0.25, np.array([1.0, -1.0]), np.array([-1.0, -2.0])) is None


# ------------------------------------------------------------ lookup oracles

def scan_decompose(sec, inv, z):
    """Reference lookup: test every boundary cone (inv holds their inverses),
    not only those on the facet that attains the gauge."""
    kq = sec.k * sec.q
    if not np.any(z):
        return 0.0, np.zeros(kq), np.zeros(sec.inputs.shape[1])
    lam_all = inv @ z
    j = int(np.argmax(lam_all.min(axis=1)))
    lam = lam_all[j]
    lam = np.maximum(lam + inv[j] @ (z - sec.cones[j] @ lam), 0.0)
    out = lam @ sec._mix[sec.simplices[j]]
    return float(lam.sum()), out[:kq], out[kq:]


def ridge_points(sec, rng, count=40):
    """Midpoints of boundary edges that lie in cones of two facets."""
    facet_of = np.repeat(np.arange(sec.H.shape[0]), np.diff(sec._starts))
    facets = {}
    for simplex, f in zip(sec.simplices, facet_of):
        for edge in itertools.combinations(sorted(simplex), 2):
            facets.setdefault(edge, set()).add(f)
    shared = [edge for edge, fs in facets.items() if len(fs) > 1]
    picked = rng.permutation(len(shared))[:count]
    return [sec.vertices[list(shared[e])].mean(axis=0) for e in picked]


def lookup_points(ctrl, rng):
    """Members, facet points, vertices, ridge points (each at three scales)
    and the origin."""
    sec = ctrl.compiled.section
    points = [ctrl.rci.z_set().sample(rng) for _ in range(20)]
    for simplex in sec.simplices[rng.integers(sec.simplices.shape[0], size=20)]:
        weights = rng.random(simplex.shape[0])
        points.append(weights @ sec.vertices[simplex] / weights.sum())
    points += list(sec.vertices) + ridge_points(sec, rng)
    return [rho * z for z in points for rho in (0.3, 1.0, 2.5)] + [np.zeros(sec.n)]


@pytest.mark.parametrize("name", DESIGNS)
def test_facet_lookup_matches_the_all_cone_scan(designs, name):
    """Inside a cone both lookups pick it; at vertices and ridge points, which
    several cones hold, they may pick different ones, and the coefficients
    then differ by rounding (up to 1.1e-12 on power-4, whose cones have
    condition numbers up to 2e6)."""
    rng = np.random.default_rng(11)
    for ctrl in designs[name]:
        sec = ctrl.compiled.section
        inv = np.linalg.inv(sec.cones)
        for z in lookup_points(ctrl, rng):
            mu, beta, u = sec.decompose(z)
            mu_ref, beta_ref, u_ref = scan_decompose(sec, inv, z)
            tol = 2e-12 * max(1.0, mu_ref)
            assert abs(mu - mu_ref) <= tol
            assert np.abs(beta - beta_ref).max() <= tol
            assert np.abs(u - u_ref).max(initial=0.0) <= tol
            hz = sec.H @ z  # the product a caller shares gives the same result
            assert all(np.array_equal(a, b) for a, b in zip((mu, beta, u), sec.decompose(z, hz)))


def pairwise_min_max(a, b):
    """min over u of max_i a_i + b_i u, by brute force: the envelope at every
    crossing of a falling line with a rising one (one of them is a minimizer
    when both slopes occur)."""
    rising, falling = b > 0, np.nonzero(b < 0)[0]
    best = np.inf
    for block in np.array_split(falling, max(1, falling.size // 16)):
        u = (a[block, None] - a[rising]) / (b[rising] - b[block, None])
        best = min(best, np.max(a[:, None, None] + b[:, None, None] * u, axis=0).min())
    return float(best)


def envelope(a, b, u):
    return float(np.max(a + b * u))


@pytest.mark.parametrize("seed", range(20))
def test_least_magnitude_minimizes_on_random_lines(seed):
    """Given the pairwise g*, the helper returns a minimizer over [lo, hi]
    (the brute-force minimum over the crossings inside and both bounds)
    that no step toward zero keeps."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 12))
    a, b = rng.normal(size=r), rng.normal(size=r)
    b[0], b[1] = -abs(b[0]), abs(b[1])  # bounded below
    if seed % 4 == 0:
        b[2:4] = 0.0  # flat lines
    lo, hi = np.sort(rng.normal(scale=2.0, size=2))
    u = least_magnitude(a, b, pairwise_min_max(a, b), np.array([1.0, -1.0]),
                        np.array([hi, -lo]))[0]
    assert lo - 1e-12 <= u <= hi + 1e-12
    falling, rising = np.nonzero(b < 0)[0], np.nonzero(b > 0)[0]
    cross = [(a[i] - a[j]) / (b[j] - b[i]) for i in falling for j in rising]
    g_min = min(envelope(a, b, t) for t in [lo, hi] + [c for c in cross if lo <= c <= hi])
    assert envelope(a, b, u) <= g_min + 1e-11 * (1.0 + abs(g_min))
    toward = u - np.sign(u) * 1e-6
    if u != 0.0 and lo <= toward <= hi:
        assert envelope(a, b, toward) > g_min + 1e-11 * (1.0 + abs(g_min))


def random_line_set(rng, case):
    """Lines (a, b), their minimum g and an input column (cu, d) with an
    offset v: zero slopes, lines of one sign only, zero and mixed-sign input
    coefficients, empty and narrow intervals."""
    r, p = int(rng.integers(1, 14)), int(rng.integers(1, 6))
    a, b = rng.normal(size=r), rng.normal(size=r)
    if case % 4 == 0:
        b[rng.random(r) < 0.4] = 0.0  # flat lines
    if case % 9 == 0:
        b = np.abs(b)  # no falling line: the band is unbounded below
    both = (b < 0).any() and (b > 0).any()
    g = pairwise_min_max(a, b) if both and case % 5 else float(rng.normal())
    cu, d = rng.normal(size=p), rng.normal(scale=2.0, size=p)
    if case % 3 == 0:
        cu[rng.random(p) < 0.3] = 0.0  # rows that do not bound u
    if case % 6 == 1:
        cu, d = np.array([1.0, -1.0]), np.array([0.5, 0.5])  # a box
    return a, b, g, cu, d, float(rng.normal(scale=0.5))


def test_compiled_kernel_is_bit_equal_to_the_reference():
    """`LeastMagnitude` against the uncompiled reference on 200 line sets;
    the cases cover an empty interval, a minimum at a bound, zero slopes and
    a general input column."""
    rng = np.random.default_rng(17)
    seen = {"empty": 0, "bound": 0, "interior": 0, "flat": 0, "general": 0}
    for case in range(200):
        a, b, g, cu, d, v = random_line_set(rng, case)
        ref = util_oracles.least_magnitude(a, b, g, cu, d - cu * v)
        u = LeastMagnitude(b, cu, d)(a, g, v)
        if ref is None:
            assert u is None
        else:
            assert np.array([u]).tobytes() == ref.tobytes()
        rows, rhs = cu != 0, d - cu * v
        lo = np.max(rhs[cu < 0] / cu[cu < 0], initial=-np.inf)
        hi = np.min(rhs[cu > 0] / cu[cu > 0], initial=np.inf)
        seen["empty"] += bool(lo > hi)
        seen["bound"] += ref is not None and ref[0] in (lo, hi) and ref[0] != 0.0
        seen["interior"] += ref is not None and lo < ref[0] < hi
        seen["flat"] += bool((b == 0).any())
        seen["general"] += bool(rows.sum() > 2 or not rows.all())
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("name", ("trucks", "power", "scalar"))
def test_compiled_successor_law_is_bit_equal_to_the_reference(designs, name):
    """`CompiledController.successor` against the uncompiled reference at
    successors of tube points and far outside, with input offsets inside U,
    at its bounds and beyond them, and a NaN offset, for which both return
    None."""
    rng = np.random.default_rng(23)
    for ctrl in designs[name]:
        sec, rci, U = ctrl.compiled.section, ctrl.rci, ctrl.sub.U
        law = ctrl.compiled.successor
        offsets = [np.zeros(1), U.d[:1] / U.C[:1, 0], -U.d[1:] / U.C[1:, 0],
                   3.0 * U.d[:1] / U.C[:1, 0], np.full(1, np.nan)]
        for rho in (0.0, 0.5, 1.0, 1.5, 4.0):
            for _ in range(6):
                c = rci.A @ (rho * rci.z_set().sample(rng)) + rci.w_set.sample(rng)
                for v in offsets + [0.5 * rng.uniform(-1.0, 1.0, size=1)]:
                    ref = util_oracles.successor_law(sec, c, U, v)
                    got = law(c, v)
                    if ref is None:
                        assert got is None
                        continue
                    assert got[0].tobytes() == ref[0].tobytes()
                    assert got[1] == ref[1]
                    assert got[2].tobytes() == ref[2].tobytes()


@pytest.mark.parametrize("name", ("trucks", "power", "scalar"))
def test_projected_minimum_matches_the_pairwise_oracle(designs, name):
    """g* = max(proj c, 0), the gauge of c in Z projected along B, equals
    min_u max_i (a_i + b_i u) for the section's lines a = H c, b = H B: at
    random points c, and at successors A z + w of tube points."""
    rng = np.random.default_rng(5)
    for ctrl in designs[name]:
        sec, rci = ctrl.compiled.section, ctrl.rci
        scale = np.abs(sec.vertices).max(axis=0)
        points = [scale * rng.normal(size=sec.n) for _ in range(12)]
        points += [rci.A @ (rho * rci.z_set().sample(rng)) + rci.w_set.sample(rng)
                   for rho in (0.0, 0.5, 1.0, 2.0) for _ in range(4)]
        for c in points:
            a, b = sec.H @ c, sec.HB[:, 0]
            g = float(np.max(sec._proj @ c, initial=0.0))
            assert abs(g - pairwise_min_max(a, b)) <= 1e-12 * max(1.0, g)


# ------------------------------------------------------------- LP fallback

def fresh(ctrl):
    """The same design without its compiled state."""
    return replace(ctrl)


def test_capped_section_falls_back_to_the_lps(monkeypatch, truck_network, truck_controllers):
    monkeypatch.setattr(section_mod, "MAX_POINTS", 0)
    rng = np.random.default_rng(4)
    for i in ("1", "2"):
        ctrl = fresh(truck_controllers[i])
        assert ctrl.compiled.section is None
        assert vertex_invariance_report(ctrl)["skipped"]
        for x in [ctrl.rci.z_set().sample(rng) for _ in range(5)] + [np.array([3.0, 0.0])]:
            u, diag = step_control(ctrl, x)
            assert np.array_equal(u, diag.v0 + kappa_bar_full(ctrl.rci, x - diag.xhat0)[0])
    states = {"1": np.array([0.1, 0.0]), "2": np.array([3.0, 0.0])}
    ctrl = fresh(truck_controllers["1"])
    preds = truck_network.predecessors("1")
    u, diag = step_control(ctrl, states["1"], predecessor_states=states, couplings=preds)
    assert diag.kappa_mode == "distributed"
    assert np.array_equal(u, diag.v0 + kappa_bar_dis_full(ctrl.rci, states["1"] - diag.xhat0,
                                                          diag.v0, states, preds, ctrl.sub.U)[0])

    def failing(*args):
        raise RuntimeError("LP failed")

    monkeypatch.setattr(controller_mod, "kappa_bar_full", failing)  # looked up at call time
    with pytest.raises(InfeasibleStep) as err:
        step_control(fresh(truck_controllers["1"]), np.array([3.0, 0.0]))
    assert err.value.status == "numerical-failure"


def test_section_is_built_on_first_use_only(truck_controllers):
    ctrl = fresh(truck_controllers["1"])
    assert "compiled" not in vars(ctrl)
    assert ctrl.compiled is ctrl.compiled


# -------------------------------------------------------- exact invariance

@pytest.mark.parametrize("name", DESIGNS + ("fallback",))
def test_vertex_invariance_holds(designs, name, monkeypatch):
    """The exact vertex check, and the sampled invariance and homogeneity
    oracles on the law each controller serves: the section's, or the LP when
    the section is unavailable (the vertex check is then skipped)."""
    lp_calls = []
    lp_law = controller_mod.kappa_bar_full
    monkeypatch.setattr(controller_mod, "kappa_bar_full",
                        lambda *args: lp_calls.append(args) or lp_law(*args))
    for ctrl in designs[name]:
        rep = vertex_invariance_report(ctrl)
        if name == "fallback":
            assert rep["skipped"]
        else:
            assert rep["passed"] and rep["max_gauge"] < 1.0, rep
        assert rci_certificate(ctrl, n_samples=30, seed=2)["passed"]
        assert homogeneity_report(ctrl, n_samples=10, seed=2)["passed"]
    assert bool(lp_calls) == (name == "fallback")


@pytest.mark.parametrize("name", DESIGNS + ("fallback",))
def test_exact_reports_solve_no_lp_and_containment_is_closed_form(designs, name, monkeypatch):
    """`run_all_checks` passes without an LP, and its containment slack of
    each row, d - d^ - h(c), is never above the LP's d - h_X^(c) - h(c)."""
    lps = []
    highs = _linprog_highs._highs_wrapper
    monkeypatch.setattr(_linprog_highs, "_highs_wrapper", lambda *a: lps.append(1) or highs(*a))
    for ctrl in designs[name]:
        assert all(rep["passed"] for rep in run_all_checks(ctrl))
    assert lps == []
    monkeypatch.undo()
    for ctrl in designs[name]:
        sub, rci = ctrl.sub, ctrl.rci
        for P, tight, tube in ((sub.X, ctrl.Xhat, rci.z_set()), (sub.U, ctrl.V, rci.u_set())):
            closed = P.d - tight.d - tube.support(P.C)
            for r, c in enumerate(P.C):
                assert closed[r] <= P.d[r] - support_lp(tight, c) - tube.support(c) + 1e-9


def test_sampled_certificate_checks_the_served_law(monkeypatch, truck_controllers):
    law = TubeSection.law

    def tripled(self, z, hz=None):
        u, mu, beta = law(self, z, hz)
        return 3.0 * u, mu, beta

    monkeypatch.setattr(TubeSection, "law", tripled)
    rep = rci_certificate(truck_controllers["1"], n_samples=50)
    assert rep["failures"] or rep["input_violations"], rep
