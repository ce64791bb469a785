"""Explicit tube section: the hull of Z = sigma (Z_0 (+) ... (+) Z_{k-1}) and
the invariance laws read off it exactly.

The invariance LP of `controller.kappa_bar_full` minimizes the uniform block
occupancy mu; its optimum is the gauge of Z, max_i h_i'z over the facet rows
{h_i'z <= 1} (Rakovic & Baric 2010). Every hull vertex p of Z is a sum of one
vertex per block, so it carries its paired input sum u(p) and a unit
coefficient per block. On each simplicial cone of the triangulated boundary
the law is then linear, u = U_j P_j^{-1} z, and the cone's coefficients
lambda recover an optimal LP solution beta = sum_j lambda_j e(p_j), as in
explicit MPC (Bemporad, Morari, Dua & Pistikopoulos 2002). The cone holding
z lies on the facet that attains the gauge, so only that facet's cones are
tested.

For one input, the least gauge of the successor c + B u over all u is the
gauge of c in Z projected along B, max_i eta_i'N'c over the facet rows eta
of the hull of N'Z, N an orthonormal basis of the complement of B. The
predecessor-aware law takes the input of least magnitude among the
minimizers in U - v, read off the level band of that minimum. Each
controller compiles it once against its input set U (`SuccessorLaw`): the
facet rows split by the sign of (H B)_i and U's rows split by the sign of
their input coefficient are sliced at build time, so a call reads only
H c, the projected gauge and those rows' extremes before `decompose`.

`build_section` returns None when qhull fails or the build would exceed the
fixed caps below; the LPs then serve the online path. The predecessor-aware
law is read off the section for one input only; with more inputs its LP
serves.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import GeometryError, minkowski_hull

__all__ = ["TubeSection", "SuccessorLaw", "build_section"]

#: caps on the build, checked before qhull runs on each cloud. The largest
#: design measured is power-4: n = 4, clouds of up to 6,188 points, 426 hull
#: vertices, about 2,840 simplices, 60-90 ms per controller. A 4-D cloud of
#: 10,000 points all on its hull takes about 0.3 s in qhull and has about
#: 67,000 simplices. Larger designs keep the LPs.
MAX_DIMENSION = 4
MAX_POINTS = 10_000
MAX_SIMPLICES = 50_000
#: boundary simplices whose |det| is below this fraction of the product of
#: their vertex norms are flat (qhull's triangulation of coplanar facets)
FLAT_TOL = 1e-10
#: relative tolerance on equal line values in the one-input successor law
TIE_TOL = 1e-12
# the C reductions, without the Python wrappers of np.max, np.min and np.sum
_max, _min, _sum = np.maximum.reduce, np.minimum.reduce, np.add.reduce


class TubeSection:
    """Vertices, facet rows and boundary cones of one controller's Z."""

    def __init__(self, vertices, inputs, picks, facets, simplices, facet_of, k, q, B, proj):
        self.vertices = vertices      # (p, n) hull vertices of Z
        self.inputs = inputs          # (p, m) paired input sums u(p)
        self.H = facets               # (r, n): Z = {z : H z <= 1}
        order = np.argsort(facet_of, kind="stable")
        self.simplices = simplices[order]  # (s, n) vertex indices of the boundary cones
        # the cones on facet f are rows starts[f]:starts[f + 1], in facet order
        self._starts = [0, *np.cumsum(np.bincount(facet_of, minlength=facets.shape[0])).tolist()]
        self.k, self.q = k, q
        self.n = vertices.shape[1]
        self.cones = vertices[self.simplices].transpose(0, 2, 1)  # columns are vertices
        self._inv = np.linalg.inv(self.cones)
        # per vertex: its unit beta (one pick per block), then its input sum
        onehot = np.zeros((vertices.shape[0], k * q))
        np.put_along_axis(onehot, picks + q * np.arange(k), 1.0, axis=1)
        self._mix = np.hstack([onehot, inputs])
        self.B = B
        self.HB = facets @ B              # (r, m): facet rows seen by the input
        self._proj = proj                 # one input: min_u gauge(c + B u) = max(proj c, 0)

    @property
    def sizes(self) -> dict:
        return {"vertices": int(self.vertices.shape[0]),
                "simplices": int(self.simplices.shape[0]),
                "facets": int(self.H.shape[0])}

    def decompose(self, z, hz=None) -> tuple[float, np.ndarray, np.ndarray]:
        """(mu, beta, u): beta >= 0, every per-block sum equals mu,
        sigma Z beta = z, and u = sigma U beta; exact zeros at z = 0.
        hz = H z when the caller has it."""
        if hz is None:
            hz = self.H @ z
        f = int(hz.argmax())
        if not hz[f] > 0.0:  # z = 0: Z is bounded, so any other z has some h_i'z > 0
            return 0.0, np.zeros(self.k * self.q), np.zeros(self.inputs.shape[1])
        # the cones of facet f tile the cone over it, so the one containing z
        # has the largest least coefficient (>= 0 up to rounding)
        lo, hi = self._starts[f], self._starts[f + 1]
        lam = self._inv[lo:hi] @ z
        # a facet with one cone (every facet of a polygon) needs no comparison
        j = lo if hi - lo == 1 else lo + int(_min(lam, axis=1).argmax())
        lam = lam[j - lo]
        lam = np.maximum(lam + self._inv[j] @ (z - self.cones[j] @ lam), 0.0)  # one refinement
        out = lam @ self._mix[self.simplices[j]]
        kq = self.k * self.q
        return float(_sum(lam)), out[:kq], out[kq:]

    def law(self, z, hz=None) -> tuple[np.ndarray, float, np.ndarray]:
        """Decentralized invariance law: (u, mu, beta), an optimal solution of
        the invariance LP; exact zeros at z = 0. hz = H z when the caller
        has it."""
        mu, beta, u = self.decompose(z, hz)
        return u, mu, beta

    def compile_successor(self, U) -> SuccessorLaw | None:
        """The predecessor-aware law for the input set U, compiled once; None
        for more inputs or when the projected hull failed."""
        return None if self._proj is None else SuccessorLaw(self, U)


class SuccessorLaw:
    """Predecessor-aware law of one controller, for one input: at the
    successor c + B u of the error, the u in U - v minimizing its gauge
    (ties broken to the least |u|), with (mu, beta) of that successor.
    Everything that does not depend on (c, v) is compiled once, here; a call
    takes one H c, the projected gauge, the input interval and the level
    band of `LeastMagnitude`, and one `TubeSection.decompose`."""

    def __init__(self, section: TubeSection, U):
        self.section = section
        self._proj = section._proj
        self.lines = LeastMagnitude(section.HB[:, 0], U.C[:, 0], U.d)

    def __call__(self, c, v):
        """(u, mu, beta), or None when U - v or the band of minimizers is
        empty; the caller then keeps the full LP."""
        sec = self.section
        a = sec.H @ c
        g = _max(self._proj @ c, initial=0.0)
        u = self.lines(a, g, v[0])
        if u is None:
            return None
        u = np.array([u])
        mu, beta, _ = sec.decompose(c + sec.B @ u, a + self.lines.b * u)
        return u, mu, beta


class LeastMagnitude:
    """The minimizer of least |u| over {u : cu (v + u) <= d} of the upper
    envelope max_i a_i + b_i u, for fixed slopes b and a fixed input column
    (cu, d). A call gives the offsets a, the envelope's minimum g over all u
    and the offset v.

    Compiled once: the lines falling (b_i < 0) and rising (b_i > 0), which
    bound the level band from below and from above, in one index set, and
    the rows of (cu, d) as scalar pairs split the same way by the sign of
    cu; rows with cu = 0 do not bound u."""

    def __init__(self, b, cu, d):
        self.b = np.array(b, dtype=float)
        fall, rise = np.flatnonzero(self.b < 0), np.flatnonzero(self.b > 0)
        self._rows = np.concatenate([fall, rise])
        self._slopes = self.b[self._rows]
        self._n_fall = fall.size
        pairs = list(zip(np.asarray(cu, dtype=float).tolist(),
                         np.asarray(d, dtype=float).tolist()))
        self._lower = [(ci, di) for ci, di in pairs if ci < 0]
        self._upper = [(ci, di) for ci, di in pairs if ci > 0]

    def __call__(self, a, g, v=0.0) -> float | None:
        """The minimizer; None when the interval or the level band is empty."""
        if not (self._lower and self._upper):  # U - v is unbounded in u
            return None
        v = float(v)
        lo = max([(di - ci * v) / ci for ci, di in self._lower])
        hi = min([(di - ci * v) / ci for ci, di in self._upper])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            return None
        u1, u2 = self._band(a, g)
        if u2 < lo or u1 > hi:  # the minimum over [lo, hi] is at the bound next to the band
            u1, u2 = self._band(a, float(_max(a + self.b * (lo if u2 < lo else hi))))
        u1, u2 = max(u1, lo), min(u2, hi)
        return min(max(0.0, u1), u2) if u1 <= u2 else None

    def _band(self, a, g):
        """{u : max_i a_i + b_i u <= g}, within the tie tolerance, as (u1, u2)."""
        level = g + TIE_TOL * (1.0 + abs(g))
        x = (level - a[self._rows]) / self._slopes
        k = self._n_fall
        return (float(_max(x[:k], initial=-math.inf)),
                float(_min(x[k:], initial=math.inf)))


def build_section(rci) -> TubeSection | None:
    """Hull of the tube section (`geometry.minkowski_hull`), each vertex
    carrying the summand vertex it came from in every block. None when the
    design does not pin the origin in every block, the origin is not
    interior, qhull fails, or a cap is exceeded."""
    blocks = [rci.sigma * np.asarray(b, dtype=float) for b in rci.z_blocks]
    n = blocks[0].shape[1]
    if n > MAX_DIMENSION or any(np.any(b[0]) for b in blocks):
        return None
    try:
        verts, picks, hull = minkowski_hull(blocks, MAX_POINTS)
    except GeometryError:
        return None
    boundary = _facets(verts, hull)
    if boundary is None:
        return None
    B = np.asarray(rci.B, dtype=float)
    inputs = sum(rci.sigma * np.asarray(u, dtype=float)[picks[:, s]]
                 for s, u in enumerate(rci.u_blocks))
    return TubeSection(verts, inputs, picks, *boundary, len(blocks), blocks[0].shape[0],
                       B, _projected_rows(verts, B))


def _projected_rows(verts, B):
    """One input: the facet rows eta of the hull of N'Z, N an orthonormal
    basis of the complement of B, as eta N' (none for n = 1, where B spans
    the space). None for more inputs or when the projected hull fails."""
    if B.shape[1] != 1:
        return None
    N = np.linalg.qr(B, mode="complete")[0][:, 1:]
    if N.shape[1] == 0:
        return np.zeros((0, B.shape[0]))
    try:
        pverts, _, hull = minkowski_hull([verts @ N])
    except GeometryError:
        return None
    facets = _facets(pverts, hull)
    return None if facets is None else facets[0] @ N.T


def _facets(verts, hull):
    """Merged facet rows {h'z <= 1}, the non-flat boundary simplices, and the
    row each simplex lies on; None when the origin is not interior or a
    facet keeps no simplex. hull is None for n = 1: Z is the interval of
    the two vertices."""
    if hull is None:
        if not verts[0, 0] < 0 < verts[1, 0]:
            return None
        return 1.0 / verts, np.array([[0], [1]]), np.array([0, 1])
    offsets = hull.equations[:, -1]
    if np.max(offsets) >= 0 or hull.simplices.shape[0] > MAX_SIMPLICES:
        return None
    # the simplices index the cloud before its reduction; renumber to verts
    renum = np.full(hull.points.shape[0], -1)
    renum[np.sort(hull.vertices)] = np.arange(verts.shape[0])
    simplices = renum[hull.simplices]
    rows = hull.equations[:, :-1] / -offsets[:, None]
    _, first, facet_of = np.unique(np.round(rows, 9), axis=0, return_index=True,
                                   return_inverse=True)
    cone = verts[simplices]
    scale = np.prod(np.linalg.norm(cone, axis=2), axis=1)
    keep = np.abs(np.linalg.det(cone)) > FLAT_TOL * scale
    if np.bincount(facet_of[keep], minlength=first.shape[0]).min() == 0:
        return None
    return rows[first], simplices[keep], facet_of[keep]
