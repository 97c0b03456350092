"""Work integrals along parametric paths and polygonal loops.

``line_work`` integrates F . dx with composite 5-point Gauss-Legendre
panels, doubling the panel count until the estimate stabilizes. Path
tangents come from the symbolic derivative of the parametrization (exact
edge vectors for polylines).

``stokes_work`` evaluates the same work for a closed planar simple
polygon as a surface integral of the curl's normal component: the polygon
is fan-triangulated from its centroid with signed areas (correct for any
simple polygon), each triangle integrated with the 7-point degree-5 rule
and refined by uniform 4-way subdivision.

Both evaluate each refinement round in batches: all nodes of a round, in
chunks of at most ``BATCH_POINTS`` points so that memory stays bounded at
deep refinement, each chunk in one array call (``fieldkit``'s ``values``
and ``curl_many``, ``exprlang.eval_many`` for parametric paths). When a
batch fails, the chunk is evaluated again point by point in node order
(edge, then panel, then Gauss node; ``fieldkit.per_row``), so the error
raised is the one the pointwise loop raises first: a path leaving the
domain names the same ``s=``.

Orientation: vertex order defines it; counterclockwise is positive in 2D
and the right-hand rule applies to the vertex order in 3D.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exprlang, fieldkit
from .errors import DimensionMismatchError, NumericalError, OutOfDomainError

# 5-point Gauss-Legendre rule on [-1, 1], exact through degree 9, in closed
# form (numpy.polynomial.legendre.leggauss would import a whole subpackage)
_GL_A = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_B = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL_WA = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_GL_WB = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GL_NODES = np.array([-_GL_B, -_GL_A, 0.0, _GL_A, _GL_B])
_GL_WEIGHTS = np.array([_GL_WB, _GL_WA, 128.0 / 225.0, _GL_WA, _GL_WB])

# Radon's 7-point rule: degree 5 on the triangle, barycentric points
_TRI_A1 = (6.0 - np.sqrt(15.0)) / 21.0
_TRI_A2 = (6.0 + np.sqrt(15.0)) / 21.0
_TRI_W0 = 9.0 / 40.0
_TRI_W1 = (155.0 - np.sqrt(15.0)) / 1200.0
_TRI_W2 = (155.0 + np.sqrt(15.0)) / 1200.0
_TRI_POINTS = [
    (np.array([1 / 3, 1 / 3, 1 / 3]), _TRI_W0),
    (np.array([_TRI_A1, _TRI_A1, 1 - 2 * _TRI_A1]), _TRI_W1),
    (np.array([_TRI_A1, 1 - 2 * _TRI_A1, _TRI_A1]), _TRI_W1),
    (np.array([1 - 2 * _TRI_A1, _TRI_A1, _TRI_A1]), _TRI_W1),
    (np.array([_TRI_A2, _TRI_A2, 1 - 2 * _TRI_A2]), _TRI_W2),
    (np.array([_TRI_A2, 1 - 2 * _TRI_A2, _TRI_A2]), _TRI_W2),
    (np.array([1 - 2 * _TRI_A2, _TRI_A2, _TRI_A2]), _TRI_W2),
]

_TRI_WEIGHTS = np.array([w for _, w in _TRI_POINTS])

CLOSURE_TOL = 1e-12

# Quadrature points per batch evaluation. A round is split into chunks of
# this many points, so its temporaries stay at ~16 KB per array however deep
# the refinement (round 12 of a 2,048-edge trace has 4.2e7 nodes).
BATCH_POINTS = 1 << 11

# the line rule starts from INITIAL_SEGMENTS panels (spread over a
# polyline's edges) and doubles them until two estimates agree within
# max(QUAD_ATOL, QUAD_RTOL * |value|); the surface rule uses the same test
INITIAL_SEGMENTS = 64
QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-9
MAX_REFINEMENTS = 12
SURFACE_REFINEMENTS = 7  # 4-way subdivisions: 16,384 triangles per fan triangle


@dataclass(frozen=True)
class WorkResult:
    value: float
    error_estimate: float
    segments: int


class ParamPath:
    """Path c : [0, 1] -> R^n, parametric (expression trees in s) or a
    polyline (vertex list); the closed flag must match the endpoints."""

    def __init__(self, dimension, trees=None, vertices=None, constants=None, closed=None):
        self.dimension = dimension
        self.constants = dict(constants or {})
        if (trees is None) == (vertices is None):
            raise ValueError("give either trees or vertices")
        self.trees = tuple(trees) if trees is not None else None
        self.vertices = None
        if vertices is not None:
            self.vertices = np.asarray(vertices, dtype=float)
            if self.vertices.ndim != 2 or self.vertices.shape[1] != dimension:
                raise DimensionMismatchError(
                    f"vertices must be (N, {dimension}), got {self.vertices.shape}"
                )
            if len(self.vertices) < 2:
                raise ValueError("polyline needs at least two vertices")
            if not np.isfinite(self.vertices).all():
                raise ValueError("polyline vertices must be finite")
        if self.trees is not None and len(self.trees) != dimension:
            raise DimensionMismatchError("one component expression per coordinate")

        gap = np.linalg.norm(self.point(0.0) - self.point(1.0))
        if closed is None:
            closed = gap <= CLOSURE_TOL
        elif closed and gap > CLOSURE_TOL:
            raise ValueError(f"closed path has endpoint gap {gap:.3e}")
        self.closed = bool(closed)

    @classmethod
    def polyline(cls, vertices, closed=None):
        vertices = np.asarray(vertices, dtype=float)
        return cls(vertices.shape[1], vertices=vertices, closed=closed)

    @property
    def is_polyline(self):
        return self.vertices is not None

    def point(self, s):
        if self.trees is not None:
            return np.array(exprlang.compiled(self.trees, "math")((s,), self.constants))
        verts = self.vertices
        n_edges = len(verts) - 1
        u = min(max(s, 0.0), 1.0) * n_edges
        i = min(int(u), n_edges - 1)
        frac = u - i
        return verts[i] * (1 - frac) + verts[i + 1] * frac


def line_work(F, path):
    """Work of F along the path by adaptive composite quadrature."""
    if F.dimension != path.dimension:
        raise DimensionMismatchError("field and path dimensions differ")

    order = len(_GL_NODES)
    if path.is_polyline:
        verts = path.vertices
        n_edges = len(verts) - 1
        edges = np.diff(verts, axis=0)
        panels = max(1, round(INITIAL_SEGMENTS / n_edges))
    else:
        n_edges = 1
        panels = INITIAL_SEGMENTS
        rates = [t.partials[0] for t in path.trees]

    def weighted_power(n, k):
        """Weighted F . dx summed over the flat node indices n of a round
        with k panels per edge; node order is edge, panel, Gauss node."""
        e, rest = np.divmod(n, order * k)
        j, g = np.divmod(rest, order)
        a, b = j / k, (j + 1) / k
        half = 0.5 * (b - a)
        u = 0.5 * (a + b) + half * _GL_NODES[g]
        s = (e + u) / n_edges if path.is_polyline else u

        def power(m):
            """F(c(s)) . c'(s) at the nodes m (indices into this chunk), in
            the pointwise order: the point, the field, then the tangent (a
            polyline's, its edge, is gathered with the point and cannot fail)."""
            if path.is_polyline:
                V = edges.take(e[m], axis=0)  # the tangent too
                P = verts.take(e[m], axis=0) + u[m, None] * V
            else:
                P = exprlang.eval_many(path.trees, (s[m],), path.constants).T
            try:
                f = F.values(P)
            except OutOfDomainError:
                if len(m) > 1:
                    raise
                raise OutOfDomainError(
                    f"path leaves the field domain at s={s[m[0]]:.6g}", P[0]) from None
            if not path.is_polyline:
                V = exprlang.eval_many(rates, (s[m],), path.constants).T
            return np.einsum("ij,ij->i", f, V)

        dot = fieldkit.per_row(np.arange(len(n)), power)
        return float(np.dot(_GL_WEIGHTS[g] * half, dot))

    def estimate(k):
        nodes = n_edges * k * order
        total = sum(
            weighted_power(np.arange(lo, min(lo + BATCH_POINTS, nodes)), k)
            for lo in range(0, nodes, BATCH_POINTS)
        )
        return total, n_edges * k

    return _converged((estimate(panels << i) for i in range(MAX_REFINEMENTS + 1)),
                      f"line quadrature did not converge after {MAX_REFINEMENTS} refinements")


def _converged(estimates, failure):
    """WorkResult of the first (value, segments) of ``estimates`` within max(QUAD_ATOL,
    QUAD_RTOL * |value|) of the one before it; NumericalError(failure) if none is."""
    prev, _ = next(estimates)
    for value, count in estimates:
        err = abs(value - prev)
        if err <= max(QUAD_ATOL, QUAD_RTOL * abs(value)):
            return WorkResult(value=value, error_estimate=err, segments=count)
        prev = value
    raise NumericalError(failure)


# --- surface (Stokes) form ----------------------------------------------------

def _loop_vertices(path):
    if not path.closed:
        raise NumericalError("stokes_work needs a closed path")
    if not path.is_polyline:
        raise NumericalError("stokes_work supports polygonal loops only")
    verts = path.vertices
    if np.linalg.norm(verts[0] - verts[-1]) <= CLOSURE_TOL:
        verts = verts[:-1]
    if len(verts) < 3:
        raise NumericalError("polygon needs at least three distinct vertices")
    return verts


def _newell_normal(verts):
    n = np.zeros(3)
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        n += np.cross(a, b)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise NumericalError("degenerate polygon (zero area)")
    return n / norm


def _check_planar(verts, normal):
    center = verts.mean(axis=0)
    span = max(np.linalg.norm(verts - center, axis=1).max(), 1.0)
    dev = np.max(np.abs((verts - center) @ normal))
    if dev > 1e-9 * span:
        raise NumericalError(f"non-planar loop (deviation {dev:.3e})")


def _segments_properly_intersect(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _check_simple(uv):
    n = len(uv)
    for i in range(n):
        a1, a2 = uv[i], uv[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex
            b1, b2 = uv[j], uv[(j + 1) % n]
            if _segments_properly_intersect(a1, a2, b1, b2):
                raise NumericalError("self-intersecting polygon")


def _triangle_rule(integrand, tri):
    """The 7-point rule over the triangles tri (shape (T, 3, 2)), summed."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    signed_area = 0.5 * (
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    )
    points = np.concatenate([bary[0] * a + bary[1] * b + bary[2] * c for bary, _ in _TRI_POINTS])
    values = integrand(points).reshape(len(_TRI_POINTS), len(tri))
    return float(signed_area @ (_TRI_WEIGHTS @ values))


def _subdivide(tri):
    """Uniform 4-way subdivision; the children of a triangle stay together."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3, 2)


def stokes_work(F, loop):
    """Work around a closed planar simple polygon as a surface integral of
    the curl's normal component over the enclosed region."""
    verts = _loop_vertices(loop)
    if F.dimension == 2:
        uv = verts

        def integrand(points):
            return fieldkit.curl_many(F, points)

    else:
        normal = _newell_normal(verts)
        _check_planar(verts, normal)
        origin = verts.mean(axis=0)
        seed = np.eye(3)[int(np.argmin(np.abs(normal)))]
        e1 = np.cross(seed, normal)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        uv = np.column_stack(((verts - origin) @ e1, (verts - origin) @ e2))

        def integrand(points):
            p = origin + points[:, :1] * e1 + points[:, 1:] * e2
            return fieldkit.curl_many(F, p) @ normal

    _check_simple(uv)

    centroid = uv.mean(axis=0)
    triangles = np.stack(
        [np.broadcast_to(centroid, uv.shape), uv, np.roll(uv, -1, axis=0)], axis=1
    )
    chunk = max(1, BATCH_POINTS // len(_TRI_POINTS))

    def estimate(tri):
        chunks = (tri[lo : lo + chunk] for lo in range(0, len(tri), chunk))
        return sum(_triangle_rule(integrand, c) for c in chunks), len(tri)

    rounds = itertools.accumulate(range(SURFACE_REFINEMENTS), lambda tri, _: _subdivide(tri),
                                  initial=triangles)
    return _converged(map(estimate, rounds), "surface quadrature did not converge")
