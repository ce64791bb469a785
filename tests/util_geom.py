"""Brute-force geometric oracles shared by the test modules.

Everything here is deliberately independent of the library's LP-based paths:
hulls by gift wrapping, membership by half-plane checks, erosion by direct
support subtraction.
"""

import itertools

import numpy as np

from tubenet.geometry import GeometryError, HPolytope
from tubenet.optim import LinearProgram, solve_lp


def random_2d_polytope(rng, n_points: int = 10, spread: float = 1.5) -> HPolytope:
    """Bounded random 2-D polytope with the origin in its interior."""
    from scipy.spatial import ConvexHull

    pts = rng.normal(size=(n_points, 2)) * spread
    pts -= pts.mean(axis=0)  # center the cloud so the origin is inside
    hull = ConvexHull(pts)
    C = hull.equations[:, :2]
    d = -hull.equations[:, 2]
    assert np.all(d > 0)
    return HPolytope(C, d)


def gift_wrap(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points by Jarvis march, counter-clockwise."""
    pts = np.asarray(points, dtype=float)
    start = min(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))
    hull = [start]
    while True:
        p = hull[-1]
        cand = (p + 1) % len(pts)
        for q in range(len(pts)):
            if q == p:
                continue
            u = pts[cand] - pts[p]
            w = pts[q] - pts[p]
            cross = u[0] * w[1] - u[1] * w[0]
            if cross < -1e-12 or (abs(cross) <= 1e-12
                                  and np.linalg.norm(pts[q] - pts[p]) > np.linalg.norm(pts[cand] - pts[p])):
                cand = q
        if cand == start:
            break
        hull.append(cand)
        if len(hull) > len(pts):
            raise RuntimeError("gift wrapping failed to close")
    return pts[hull]


def polygon_signed_margin(hull_ccw: np.ndarray, x: np.ndarray) -> float:
    """Smallest signed distance of x to the polygon edges (>=0 means inside)."""
    m = np.inf
    k = len(hull_ccw)
    if k == 1:
        return -float(np.linalg.norm(x - hull_ccw[0]))
    for i in range(k):
        a, b = hull_ccw[i], hull_ccw[(i + 1) % k]
        edge = b - a
        norm = np.linalg.norm(edge)
        if norm < 1e-14:
            continue
        inward = np.array([-edge[1], edge[0]]) / norm  # left normal of CCW edge
        m = min(m, float(inward @ (x - a)))
    return m


def minkowski_cloud(blocks, sigma: float) -> np.ndarray:
    """All scaled sums of one vertex per block (exponential, test-size only)."""
    combos = itertools.product(*[b.vertices for b in blocks])
    return sigma * np.array([np.sum(c, axis=0) for c in combos])


def erode_support_oracle(X: HPolytope, cloud: np.ndarray) -> HPolytope:
    """X (-) conv(cloud) via one-shot per-facet support subtraction."""
    shifts = np.max(X.C @ cloud.T, axis=1)
    return HPolytope(X.C.copy(), X.d - shifts)


def support_lp(P: HPolytope, direction) -> float:
    """sup of direction'x over {C x <= d} by one LP (inf when unbounded that
    way): the oracle for the closed-form supports."""
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    r = solve_lp(LinearProgram(-direction, A_ub=P.C, b_ub=P.d))
    if r.status == "unbounded":
        return np.inf
    if not r.optimal:
        raise GeometryError("support LP failed: " + r.status)
    return -r.objective
