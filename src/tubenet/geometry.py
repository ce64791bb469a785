"""Polytope representations and the Minkowski algebra behind set tightening.

H-polytopes carry facet rows, V-polytopes carry vertices, and VAggregate keeps
a scaled Minkowski sum of vertex blocks implicit: its support is the sum of
the blocks' vertex maxima, and membership is one small LP, so the sum is
never hulled explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .optim import LinearProgram, solve_lp

__all__ = [
    "HPolytope",
    "VPolytope",
    "VAggregate",
    "MembershipCertificate",
    "GeometryError",
    "linear_image",
    "minkowski_hull",
    "erode_by_vpolytope",
    "member_aggregate",
    "box_vertices",
    "vertices_of",
]


class GeometryError(ValueError):
    """Raised for dimension mismatches and invalid set operations."""


class HPolytope:
    """Polytope {x : C x <= d} with facet normals as rows of C."""

    def __init__(self, C, d):
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        self.d = np.atleast_1d(np.asarray(d, dtype=float))
        if self.C.shape[0] != self.d.shape[0]:
            raise GeometryError(f"C has {self.C.shape[0]} rows but d has {self.d.shape[0]}")
        if not (np.all(np.isfinite(self.C)) and np.all(np.isfinite(self.d))):
            raise GeometryError("non-finite entries in polytope description")
        if np.any(np.linalg.norm(self.C, axis=1) < 1e-14):
            raise GeometryError("zero row in constraint matrix")

    @property
    def n(self) -> int:
        return self.C.shape[1]

    @property
    def n_rows(self) -> int:
        return self.C.shape[0]

    @classmethod
    def box(cls, lo, hi) -> "HPolytope":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        n = lo.shape[0]
        eye = np.eye(n)
        return cls(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))

    @classmethod
    def symmetric_box(cls, half_widths) -> "HPolytope":
        hw = np.atleast_1d(np.asarray(half_widths, dtype=float))
        return cls.box(-hw, hw)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[0] != self.n:
            raise GeometryError(f"point has dimension {x.shape[0]}, polytope {self.n}")
        return bool((self.C @ x <= self.d + tol).all())

    def is_empty(self) -> bool:
        r = solve_lp(LinearProgram(np.zeros(self.n), A_ub=self.C, b_ub=self.d))
        return r.status == "infeasible"

    def is_bounded(self) -> bool:
        """Whether the set, when nonempty, is bounded: {Cx <= 0} = {0}, i.e.
        the rows of C span R^n and have a strictly positive dependence
        C'lam = 0 with lam >= 1, which one NNLS decides (lam = 1 + y, y >= 0)."""
        if np.linalg.matrix_rank(self.C) < self.n:
            return False
        try:
            y, rnorm = nnls(self.C.T, -self.C.T @ np.ones(self.n_rows))
        except RuntimeError as e:
            raise GeometryError(f"boundedness undecided: {e}") from e
        return rnorm <= 1e-9 * np.abs(self.C).max() * (self.n_rows + y.sum())

    def has_origin_interior(self, margin: float = 1e-9) -> bool:
        return bool(np.all(self.d > margin))

    def chebyshev_center(self) -> tuple[np.ndarray, float]:
        """Center and radius of the largest inscribed ball."""
        norms = np.linalg.norm(self.C, axis=1)
        A = np.column_stack([self.C, norms])
        c = np.zeros(self.n + 1)
        c[-1] = -1.0
        lb = np.full(self.n + 1, -np.inf)
        lb[-1] = 0.0
        r = solve_lp(LinearProgram(c, A_ub=A, b_ub=self.d, lb=lb))
        if not r.optimal:
            raise GeometryError("chebyshev center LP failed: " + r.status)
        return r.x[:-1], float(r.x[-1])

    def copy(self) -> "HPolytope":
        return HPolytope(self.C.copy(), self.d.copy())

    def __repr__(self):
        return f"HPolytope(rows={self.n_rows}, n={self.n})"


class VPolytope:
    """Convex hull of a finite vertex list (duplicates are legal)."""

    def __init__(self, vertices):
        self.vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        if self.vertices.shape[0] < 1:
            raise GeometryError("VPolytope needs at least one vertex")
        if not np.all(np.isfinite(self.vertices)):
            raise GeometryError("non-finite vertex coordinates")

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @classmethod
    def origin(cls, n: int) -> "VPolytope":
        return cls(np.zeros((1, n)))

    def support(self, directions):
        """max_v d'v over the vertices: a float for one direction d, an
        array for the rows of a matrix of directions."""
        h = (np.asarray(directions, dtype=float) @ self.vertices.T).max(axis=-1)
        return float(h) if h.ndim == 0 else h

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def __repr__(self):
        return f"VPolytope(vertices={self.n_vertices}, n={self.n})"


class VAggregate:
    """sigma * (V_1 (+) V_2 (+) ... (+) V_K), kept as the list of blocks."""

    def __init__(self, blocks, sigma: float = 1.0):
        self.blocks = list(blocks)
        if len(self.blocks) < 1:
            raise GeometryError("VAggregate needs at least one block")
        n = self.blocks[0].n
        if any(b.n != n for b in self.blocks):
            raise GeometryError("aggregate blocks have mixed dimensions")
        self.sigma = float(sigma)
        if not np.isfinite(self.sigma) or self.sigma <= 0:
            raise GeometryError("scale factor must be finite and positive")

    @property
    def n(self) -> int:
        return self.blocks[0].n

    def support(self, directions):
        """sigma times the blocks' supports, summed in block order; one
        direction or the rows of a matrix, as `VPolytope.support`."""
        return self.sigma * sum(b.support(directions) for b in self.blocks)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Interval hull: per-coordinate sums of block-wise extrema."""
        lo = np.zeros(self.n)
        hi = np.zeros(self.n)
        for b in self.blocks:
            blo, bhi = b.bounds()
            lo += blo
            hi += bhi
        return self.sigma * lo, self.sigma * hi

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Random member: scaled sum of random convex combinations per block."""
        x = np.zeros(self.n)
        for b in self.blocks:
            w = rng.random(b.n_vertices)
            w /= w.sum()
            x += w @ b.vertices
        return self.sigma * x

    def __repr__(self):
        return f"VAggregate(blocks={len(self.blocks)}, sigma={self.sigma:.6g}, n={self.n})"


@dataclass
class MembershipCertificate:
    feasible: bool
    beta: list[np.ndarray] | None = None  # one coefficient vector per block
    residual: float = np.inf


def linear_image(A, P: VPolytope) -> VPolytope:
    """Vertex image {A v}; no hull reduction is performed."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[1] != P.n:
        raise GeometryError(f"matrix has {A.shape[1]} columns, polytope dimension {P.n}")
    return VPolytope(P.vertices @ A.T)


def minkowski_hull(blocks, max_points: int | None = None):
    """Hull vertices of blocks[0] (+) ... (+) blocks[-1] (vertex arrays), an
    incremental sum reduced to its hull vertices after each block.

    Returns (vertices, picks, hull): picks[i, s] is the row of block s that
    vertices[i] sums, and hull is the last qhull hull, whose point indices
    refer to the cloud before its reduction (None for n = 1, where the sum is
    the interval of the block extremes). Raises GeometryError when qhull
    fails (a flat cloud) or a cloud exceeds max_points before qhull runs.
    """
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    n = blocks[0].shape[1]
    if n == 1:
        picks = np.array([[b[:, 0].argmin() for b in blocks],
                          [b[:, 0].argmax() for b in blocks]])
        return sum(b[picks[:, s]] for s, b in enumerate(blocks)), picks, None
    from scipy.spatial import ConvexHull, QhullError

    def reduce(pts, picks):
        if max_points is not None and pts.shape[0] > max_points:
            raise GeometryError(f"{pts.shape[0]} points exceed the hull cap {max_points}")
        try:
            hull = ConvexHull(pts)
        except QhullError as e:
            raise GeometryError(f"qhull failed: {e}") from None
        keep = np.sort(hull.vertices)
        return pts[keep], picks[keep], hull

    pts, picks, hull = blocks[0], np.arange(blocks[0].shape[0])[:, None], None
    for block in blocks[1:]:
        q = block.shape[0]
        pts = (pts[:, None, :] + block[None, :, :]).reshape(-1, n)
        picks = np.column_stack([np.repeat(picks, q, axis=0),
                                 np.tile(np.arange(q), picks.shape[0])])
        pts, picks, hull = reduce(pts, picks)
    if hull is None:  # a single block
        pts, picks, hull = reduce(pts, picks)
    return pts, picks, hull


def erode_by_vpolytope(X: HPolytope, P: VPolytope, scale: float = 1.0) -> HPolytope:
    """X (-) scale*conv(P) in closed form: each facet rhs drops by the support
    scale * max_f c_r'v_f (exact for any H-polytope X). Eroding by a
    Minkowski sum is done by calling this once per summand: erosions compose.
    The result may be empty; check `is_empty()`.
    """
    if X.n != P.n:
        raise GeometryError("dimension mismatch in erosion")
    if scale <= 0:
        raise GeometryError("scale must be positive")
    return HPolytope(X.C.copy(), X.d - scale * P.support(X.C))


def member_aggregate(Z: VAggregate, x, tol: float = 0.0) -> MembershipCertificate:
    """Feasibility LP for x in sigma*(V_1 (+) ... (+) V_K).

    Searches coefficients beta >= 0 with unit sum per block whose scaled
    vertex combination reproduces x exactly; a positive tol relaxes the
    linking equality into a +-tol band (useful for boundary-tight checks).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != Z.n:
        raise GeometryError(f"point dimension {x.shape[0]} != aggregate dimension {Z.n}")
    sizes = [b.n_vertices for b in Z.blocks]
    n_var = sum(sizes)
    K = len(Z.blocks)
    n = Z.n

    A_sum = np.zeros((K, n_var))
    A_link = np.zeros((n, n_var))
    col = 0
    for s, blk in enumerate(Z.blocks):
        A_sum[s, col:col + sizes[s]] = 1.0
        A_link[:, col:col + sizes[s]] = Z.sigma * blk.vertices.T
        col += sizes[s]

    if tol > 0:
        A_ub = np.vstack([A_link, -A_link])
        b_ub = np.concatenate([x + tol, -(x - tol)])
        lp = LinearProgram(np.zeros(n_var), A_ub=A_ub, b_ub=b_ub,
                           A_eq=A_sum, b_eq=np.ones(K), lb=np.zeros(n_var))
    else:
        lp = LinearProgram(np.zeros(n_var),
                           A_eq=np.vstack([A_sum, A_link]),
                           b_eq=np.concatenate([np.ones(K), x]),
                           lb=np.zeros(n_var))
    rep = solve_lp(lp)
    if rep.status == "infeasible":
        return MembershipCertificate(feasible=False)
    if not rep.optimal:
        raise GeometryError("membership LP failed: " + rep.status)
    beta = []
    col = 0
    for size in sizes:
        beta.append(rep.x[col:col + size])
        col += size
    recon = Z.sigma * sum(b @ blk.vertices for b, blk in zip(beta, Z.blocks))
    return MembershipCertificate(feasible=True, beta=beta,
                                 residual=float(np.abs(recon - x).max(initial=0.0)))


def box_vertices(lo, hi) -> np.ndarray:
    """All corners of an axis-aligned box, in deterministic binary order."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    corners = [np.where(np.array(mask), hi, lo)
               for mask in itertools.product((False, True), repeat=lo.shape[0])]
    return np.array(corners)


def _box_bounds(X: HPolytope) -> tuple[np.ndarray, np.ndarray] | None:
    """(lo, hi) when every row of X bounds one coordinate and the box they
    make is bounded with a nonempty interior, else None."""
    rows, cols = np.nonzero(X.C)
    if rows.size != X.n_rows:
        return None
    coef = X.C[rows, cols]
    bound = X.d[rows] / coef
    lo, hi = np.full(X.n, -np.inf), np.full(X.n, np.inf)
    np.maximum.at(lo, cols[coef < 0], bound[coef < 0])
    np.minimum.at(hi, cols[coef > 0], bound[coef > 0])
    # the Chebyshev radius of a box is half its narrowest width
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(hi - lo > 2e-12)):
        return None
    return lo, hi


def vertices_of(X: HPolytope) -> VPolytope:
    """Vertex enumeration for dimensions <= 3 (scenario ingestion only): in
    closed form for a box, else by qhull from the Chebyshev center. Vertices
    come in lexicographic order either way."""
    if X.n == 1:
        ub = np.inf
        lb = -np.inf
        for c, d in zip(X.C[:, 0], X.d):
            if c > 0:
                ub = min(ub, d / c)
            else:
                lb = max(lb, d / c)
        if not (np.isfinite(lb) and np.isfinite(ub)) or lb > ub:
            raise GeometryError("unbounded or empty 1-D polytope")
        return VPolytope(np.array([[lb], [ub]]))
    if X.n > 3:
        raise GeometryError(
            "vertex enumeration is only supported up to dimension 3; "
            "supply explicit vertices for higher-dimensional sets")
    box = _box_bounds(X)
    if box is not None:
        return VPolytope(box_vertices(*box))
    from scipy.spatial import HalfspaceIntersection

    center, radius = X.chebyshev_center()
    if radius <= 1e-12:
        raise GeometryError("polytope has empty interior; cannot enumerate vertices")
    halfspaces = np.column_stack([X.C, -X.d])
    hs = HalfspaceIntersection(halfspaces, center)
    pts = hs.intersections
    # unique rows come in lexicographic order of the rounded coordinates, so
    # qhull's last-bit noise cannot reorder vertices whose coordinates tie
    _, idx = np.unique(np.round(pts, 9), axis=0, return_index=True)
    return VPolytope(pts[idx])
