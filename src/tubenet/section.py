"""Explicit tube section: the hull of Z = sigma (Z_0 (+) ... (+) Z_{k-1}) and
the invariance laws read off it exactly.

The invariance LP of `controller.kappa_bar_full` minimizes the uniform block
occupancy mu; its optimum is the gauge of Z, max_i h_i'z over the facet rows
{h_i'z <= 1} (Rakovic & Baric 2010). Every hull vertex p of Z is a sum of one
vertex per block, so it carries its paired input sum u(p) and a unit
coefficient per block. On each simplicial cone of the triangulated boundary
the law is then linear, u = U_j P_j^{-1} z, and the cone's coefficients
lambda recover an optimal LP solution beta = sum_j lambda_j e(p_j), as in
explicit MPC (Bemporad, Morari, Dua & Pistikopoulos 2002).

`build_section` returns None when qhull fails or the build would exceed the
fixed caps below; the LPs then serve the online path. The predecessor-aware
law is read off the section for one input only; with more inputs its LP
serves.
"""

from __future__ import annotations

import numpy as np

from .geometry import GeometryError, minkowski_hull

__all__ = ["TubeSection", "build_section"]

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


class TubeSection:
    """Vertices, facet rows and boundary cones of one controller's Z."""

    def __init__(self, vertices, inputs, picks, facets, simplices, k, q, B):
        self.vertices = vertices      # (p, n) hull vertices of Z
        self.inputs = inputs          # (p, m) paired input sums u(p)
        self.H = facets               # (r, n): Z = {z : H z <= 1}
        self.simplices = simplices    # (s, n) vertex indices of the boundary cones
        self.k, self.q = k, q
        self.n = vertices.shape[1]
        self.cones = vertices[simplices].transpose(0, 2, 1)  # columns are vertices
        self._inv = np.linalg.inv(self.cones)
        # lambda_i = (P_j^{-1} z)_i for every cone j at once: row i * s + j
        self._inv_rows = self._inv.transpose(1, 0, 2).reshape(-1, self.n)
        # per vertex: its unit beta (one pick per block), then its input sum
        onehot = np.zeros((vertices.shape[0], k * q))
        np.put_along_axis(onehot, picks + q * np.arange(k), 1.0, axis=1)
        self._mix = np.hstack([onehot, inputs])
        self.B = B
        self.HB = facets @ B              # (r, m): facet rows seen by the input

    @property
    def sizes(self) -> dict:
        return {"vertices": int(self.vertices.shape[0]),
                "simplices": int(self.simplices.shape[0]),
                "facets": int(self.H.shape[0])}

    def gauge(self, z) -> float:
        """min {mu >= 0 : z in mu Z}, the optimal value of the invariance LP."""
        return float(np.max(self.H @ z))

    def decompose(self, z) -> tuple[float, np.ndarray, np.ndarray]:
        """(mu, beta, u): beta >= 0, every per-block sum equals mu,
        sigma Z beta = z, and u = sigma U beta."""
        # the cones tile space, so the one containing z has the largest
        # least coefficient (>= 0 up to rounding)
        lam_all = (self._inv_rows @ z).reshape(self.n, -1)
        j = int(np.argmax(lam_all.min(axis=0)))
        lam = lam_all[:, j]
        lam = np.maximum(lam + self._inv[j] @ (z - self.cones[j] @ lam), 0.0)  # one refinement
        out = lam @ self._mix[self.simplices[j]]
        kq = self.k * self.q
        return float(lam.sum()), out[:kq], out[kq:]

    def law(self, z) -> tuple[np.ndarray, float, np.ndarray]:
        """Decentralized invariance law: (u, mu, beta), an optimal solution of
        the invariance LP; exact zeros at z = 0."""
        if not np.any(z):
            return np.zeros(self.inputs.shape[1]), 0.0, np.zeros(self.k * self.q)
        mu, beta, u = self.decompose(z)
        return u, mu, beta

    def successor_law(self, c, U, v):
        """Predecessor-aware law for one input: the u in U - v minimizing
        the gauge of the successor c + B u (a convex piecewise-linear
        minimization, ties broken to the least |u|), with (mu, beta) of that
        successor. None for more inputs, or when the search fails; the
        caller then keeps the full LP."""
        if self.HB.shape[1] != 1:
            return None
        u = _min_max_lines(self.H @ c, self.HB[:, 0], U.C[:, 0], U.d - U.C @ v)
        if u is None:
            return None
        mu, beta, _ = self.decompose(c + self.B @ u)
        return u, mu, beta


def _min_max_lines(a, b, cu, rhs):
    """argmin over {u : cu u <= rhs} of g(u) = max_i a_i + b_i u, the
    minimizer of least |u|; None when the interval is empty or the kink
    search does not close."""
    lo = float(np.max(rhs[cu < 0] / cu[cu < 0], initial=-np.inf))
    hi = float(np.min(rhs[cu > 0] / cu[cu > 0], initial=np.inf))
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        return None

    def at(u):
        """The active lines at u of least and greatest slope."""
        vals = a + b * u
        g = vals.max()
        act = vals >= g - TIE_TOL * (1.0 + abs(g))
        return np.where(act, b, np.inf).argmin(), np.where(act, b, -np.inf).argmax()

    # bracket: the envelope falls to the right of lo and rises to the left of hi
    _, left = at(lo)
    if b[left] >= 0:
        best = lo
    else:
        right, _ = at(hi)
        if b[right] <= 0:
            best = hi
        else:
            for _ in range(a.shape[0] + 1):
                u = (a[left] - a[right]) / (b[right] - b[left])
                fall, rise = at(u)
                if b[fall] <= 0 <= b[rise]:
                    best = u
                    break
                if b[rise] < 0:
                    left = rise
                else:
                    right = fall
            else:
                return None
    # every minimizer within the tie tolerance, then the one nearest zero
    g = float(np.max(a + b * best))
    level = g + TIE_TOL * (1.0 + abs(g))
    neg, pos = b < 0, b > 0
    u1 = max(lo, float(np.max((level - a[neg]) / b[neg], initial=-np.inf)))
    u2 = min(hi, float(np.min((level - a[pos]) / b[pos], initial=np.inf)))
    u = min(max(0.0, u1), u2) if u1 <= u2 else best
    return np.array([u])


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
    boundary = _interval(verts) if hull is None else _boundary(verts, hull)
    if boundary is None:
        return None
    facets, simplices = boundary
    inputs = sum(rci.sigma * np.asarray(u, dtype=float)[picks[:, s]]
                 for s, u in enumerate(rci.u_blocks))
    return TubeSection(verts, inputs, picks, facets, simplices, len(blocks),
                       blocks[0].shape[0], np.asarray(rci.B, dtype=float))


def _interval(verts):
    """n = 1: Z is the interval [lo, hi] of the two vertices."""
    if not verts[0, 0] < 0 < verts[1, 0]:
        return None
    return 1.0 / verts, np.array([[0], [1]])


def _boundary(verts, hull):
    """Merged facet rows {h'z <= 1} and the non-flat boundary simplices."""
    offsets = hull.equations[:, -1]
    if np.max(offsets) >= 0 or hull.simplices.shape[0] > MAX_SIMPLICES:
        return None
    # the simplices index the cloud before its reduction; renumber to verts
    renum = np.full(hull.points.shape[0], -1)
    renum[np.sort(hull.vertices)] = np.arange(verts.shape[0])
    simplices = renum[hull.simplices]
    rows = hull.equations[:, :-1] / -offsets[:, None]
    _, first = np.unique(np.round(rows, 9), axis=0, return_index=True)
    cone = verts[simplices]
    scale = np.prod(np.linalg.norm(cone, axis=2), axis=1)
    flat = np.abs(np.linalg.det(cone)) <= FLAT_TOL * scale
    return rows[np.sort(first)], simplices[~flat]
