"""Work integrals along parametric paths and polygonal loops.

``line_work`` integrates F . dx with composite 5-point Gauss-Legendre
panels, doubling the panel count until the estimate stabilizes. Path
tangents come from forward-mode differentiation of the parametrization
(exact edge vectors for polylines).

``stokes_work`` evaluates the same work for a closed planar simple
polygon as a surface integral of the curl's normal component: the polygon
is fan-triangulated from its centroid with signed areas (correct for any
simple polygon), each triangle integrated with the 7-point degree-5 rule
and refined by uniform 4-way subdivision.

Orientation: vertex order defines it; counterclockwise is positive in 2D
and the right-hand rule applies to the vertex order in 3D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang, fieldkit
from .errors import DimensionMismatchError, NumericalError, OutOfDomainError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

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

CLOSURE_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureConfig:
    initial_segments: int = 64
    atol: float = 1e-10
    rtol: float = 1e-9
    max_refinements: int = 12


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
        if self.trees is not None and len(self.trees) != dimension:
            raise DimensionMismatchError("one component expression per coordinate")

        gap = np.linalg.norm(self.point(0.0) - self.point(1.0))
        if closed is None:
            closed = gap <= CLOSURE_TOL
        elif closed and gap > CLOSURE_TOL:
            raise ValueError(f"closed path has endpoint gap {gap:.3e}")
        self.closed = bool(closed)

    @classmethod
    def parametric(cls, sources, dimension, constants=None, closed=None):
        constants = dict(constants or {})
        trees = [exprlang.parse_in_variables(s, ("s",), set(constants)) for s in sources]
        return cls(dimension, trees=trees, constants=constants, closed=closed)

    @classmethod
    def polyline(cls, vertices, closed=None):
        vertices = np.asarray(vertices, dtype=float)
        return cls(vertices.shape[1], vertices=vertices, closed=closed)

    @property
    def is_polyline(self):
        return self.vertices is not None

    def point(self, s):
        if self.trees is not None:
            return np.array(
                [exprlang.eval_at(t, (s,), self.constants) for t in self.trees]
            )
        verts = self.vertices
        n_edges = len(verts) - 1
        u = min(max(s, 0.0), 1.0) * n_edges
        i = min(int(u), n_edges - 1)
        frac = u - i
        return verts[i] * (1 - frac) + verts[i + 1] * frac

    def velocity(self, s):
        """dc/ds; for polylines the edge vector scaled by the edge count."""
        if self.trees is not None:
            return np.array(
                [
                    exprlang.grad_at(t, (s,), self.constants).partials[0]
                    for t in self.trees
                ]
            )
        verts = self.vertices
        n_edges = len(verts) - 1
        i = min(int(s * n_edges), n_edges - 1)
        return (verts[i + 1] - verts[i]) * n_edges

    def reversed(self):
        """s -> c(1 - s); the closed flag is preserved."""
        if self.is_polyline:
            return ParamPath(
                self.dimension, vertices=self.vertices[::-1].copy(), closed=self.closed
            )
        one_minus_s = exprlang.parse_in_variables("1 - s", ("s",))
        trees = [exprlang.substitute(t, "s", one_minus_s) for t in self.trees]
        # substitute() rebinds to the replacement's variables, still ("s",)
        return ParamPath(
            self.dimension, trees=trees, constants=self.constants, closed=self.closed
        )


def _field_at(F, p, s):
    try:
        return F.value(p)
    except OutOfDomainError:
        raise OutOfDomainError(f"path leaves the field domain at s={s:.6g}", p) from None


def _gl_panel(F, path, a, b):
    """5-point Gauss-Legendre of F(c(s)) . c'(s) over [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        s = mid + half * node
        p = path.point(s)
        total += weight * float(np.dot(_field_at(F, p, s), path.velocity(s)))
    return total * half


def _edge_panel(F, verts_a, verts_b, a, b, s_of_u):
    edge = verts_b - verts_a
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        u = mid + half * node
        p = verts_a + u * edge
        total += weight * float(np.dot(_field_at(F, p, s_of_u(u)), edge))
    return total * half


def line_work(F, path, q=QuadratureConfig()):
    """Work of F along the path by adaptive composite quadrature."""
    if F.dimension != path.dimension:
        raise DimensionMismatchError("field and path dimensions differ")

    if path.is_polyline:
        verts = path.vertices
        n_edges = len(verts) - 1
        per_edge = max(1, round(q.initial_segments / n_edges))

        def estimate(k):
            total = 0.0
            for i in range(n_edges):
                va, vb = verts[i], verts[i + 1]
                s_of_u = lambda u, _i=i: (_i + u) / n_edges
                for j in range(k):
                    total += _edge_panel(F, va, vb, j / k, (j + 1) / k, s_of_u)
            return total, n_edges * k

        panels = per_edge
    else:

        def estimate(k):
            total = 0.0
            for j in range(k):
                total += _gl_panel(F, path, j / k, (j + 1) / k)
            return total, k

        panels = q.initial_segments

    prev, count = estimate(panels)
    for _ in range(q.max_refinements):
        panels *= 2
        value, count = estimate(panels)
        err = abs(value - prev)
        if err <= max(q.atol, q.rtol * abs(value)):
            return WorkResult(value=value, error_estimate=err, segments=count)
        prev = value
    raise NumericalError(
        f"line quadrature did not converge after {q.max_refinements} refinements"
    )


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
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
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


def stokes_work(F, loop, q=QuadratureConfig()):
    """Work around a closed planar simple polygon as a surface integral of
    the curl's normal component over the enclosed region."""
    verts = _loop_vertices(loop)
    if F.dimension == 2:
        normal = None
        uv = verts
        origin = None
        basis = None

        def integrand(u, v):
            return float(fieldkit.curl(F, np.array([u, v])))

    else:
        v3 = verts
        normal = _newell_normal(v3)
        _check_planar(v3, normal)
        origin = v3.mean(axis=0)
        seed = np.eye(3)[int(np.argmin(np.abs(normal)))]
        e1 = np.cross(seed, normal)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        uv = np.column_stack(((v3 - origin) @ e1, (v3 - origin) @ e2))
        basis = (e1, e2)

        def integrand(u, v):
            p = origin + u * basis[0] + v * basis[1]
            return float(np.dot(fieldkit.curl(F, p), normal))

    _check_simple(uv)

    centroid = uv.mean(axis=0)
    triangles = [
        (centroid, uv[i], uv[(i + 1) % len(uv)]) for i in range(len(uv))
    ]

    def rule(tri):
        (a, b, c) = tri
        signed_area = 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        total = 0.0
        for bary, weight in _TRI_POINTS:
            p = bary[0] * a + bary[1] * b + bary[2] * c
            total += weight * integrand(p[0], p[1])
        return signed_area * total

    def subdivide(tri):
        a, b, c = tri
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        return [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]

    prev = sum(rule(t) for t in triangles)
    count = len(triangles)
    for _ in range(min(q.max_refinements, 7)):
        triangles = [s for t in triangles for s in subdivide(t)]
        value = sum(rule(t) for t in triangles)
        count = len(triangles)
        err = abs(value - prev)
        if err <= max(q.atol, q.rtol * abs(value)):
            return WorkResult(value=value, error_estimate=err, segments=count)
        prev = value
    raise NumericalError("surface quadrature did not converge")
