"""Dimension-tagged scalar and vector fields over axis-aligned boxes.

Derivatives are available in two modes: ``analytic`` uses forward-mode
duals on the defining expressions, ``fd`` uses central differences with
step h = max(1, |x_i|) * 6.06e-6 per axis (cube-root-of-epsilon scaling).
Points on an open boundary are rejected; on a closed boundary the fd mode
falls back to second-order one-sided stencils.

``values(P)`` evaluates a field at every row of an (N, dim) array in one
batch (``exprlang.eval_many``), and ``curl_many`` the analytic curl from
the symbolic derivative trees. Both apply the ``Box.contains`` rule to
every row and fail as the pointwise loop would: rows before the first one
outside the box are evaluated, so their expression errors come first, and
any batch failure falls back to the pointwise path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprlang
from .errors import EVAL_ERRORS, DimensionMismatchError, EvalDomainError, OutOfDomainError

FD_STEP_FACTOR = 6.06e-6


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; per-axis closed flags for the lo/hi faces."""

    lo: tuple
    hi: tuple
    closed_lo: tuple = None
    closed_hi: tuple = None

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError("lo and hi must have equal length")
        if not all(math.isfinite(v) for v in lo + hi):
            raise ValueError(f"box bounds must be finite: lo={lo} hi={hi}")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"degenerate box: lo={lo} hi={hi}")
        if self.closed_lo is None:
            object.__setattr__(self, "closed_lo", (True,) * len(lo))
        if self.closed_hi is None:
            object.__setattr__(self, "closed_hi", (True,) * len(hi))

    @property
    def dimension(self):
        return len(self.lo)

    def diameter(self):
        return float(np.linalg.norm(np.subtract(self.hi, self.lo)))

    def contains(self, p):
        for c, lo, hi, cl, ch in zip(p, self.lo, self.hi, self.closed_lo, self.closed_hi):
            # written so that a NaN coordinate compares false and is rejected
            if not lo <= c <= hi:
                return False
            if c == lo and not cl:
                return False
            if c == hi and not ch:
                return False
        return True

    def contains_rows(self, P):
        """``contains`` of each row of the (N, dimension) array P, as a
        boolean array of shape (N,)."""
        lo, hi = np.array(self.lo), np.array(self.hi)
        # NaN compares false here too, so a row holding one is outside
        inside = (P >= lo) & (P <= hi)
        inside &= (P != lo) | np.array(self.closed_lo)
        inside &= (P != hi) | np.array(self.closed_hi)
        return inside.all(axis=1)

    def contains_box(self, other):
        return all(a >= b for a, b in zip(other.lo, self.lo)) and all(
            a <= b for a, b in zip(other.hi, self.hi)
        )


def _radical_inverse(index, base):
    inv = 0.0
    f = 1.0 / base
    while index > 0:
        inv += f * (index % base)
        index //= base
        f /= base
    return inv


_HALTON_BASES = (2, 3, 5)


@dataclass(frozen=True)
class Region:
    """Sample region: a box inside a field domain plus a sample plan.

    plan is ("grid", counts) for a regular inclusive grid or
    ("random", count, seed) for a seeded quasi-random (Halton) set; both
    are deterministic regardless of evaluation order.
    """

    box: Box
    plan: tuple

    @staticmethod
    def grid(box, counts):
        counts = tuple(int(c) for c in counts)
        if len(counts) != box.dimension or any(c < 1 for c in counts):
            raise ValueError(f"invalid grid counts {counts}")
        return Region(box, ("grid", counts))

    @staticmethod
    def random(box, count, seed=0):
        if count < 1:
            raise ValueError("sample count must be >= 1")
        return Region(box, ("random", int(count), int(seed)))

    def samples(self):
        lo = np.asarray(self.box.lo)
        hi = np.asarray(self.box.hi)
        if self.plan[0] == "grid":
            axes = [np.linspace(a, b, c) for a, b, c in zip(lo, hi, self.plan[1])]
            mesh = np.meshgrid(*axes, indexing="ij")
            return np.stack([m.ravel() for m in mesh], axis=-1)
        count, seed = self.plan[1], self.plan[2]
        dim = self.box.dimension
        shift = np.random.default_rng(seed).random(dim)
        pts = np.empty((count, dim))
        for j in range(dim):
            base = _HALTON_BASES[j]
            col = np.array([_radical_inverse(i + 1, base) for i in range(count)])
            pts[:, j] = (col + shift[j]) % 1.0
        return lo + pts * (hi - lo)


def _as_point(p, dimension):
    q = np.asarray(p, dtype=float)
    if q.shape != (dimension,):
        raise DimensionMismatchError(
            f"expected a point of dimension {dimension}, got shape {q.shape}"
        )
    return q


def _as_points(P, dimension):
    Q = np.asarray(P, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != dimension:
        raise DimensionMismatchError(
            f"expected points of dimension {dimension} as rows, got shape {Q.shape}"
        )
    return Q


def _rows_in_order(domain, P, evaluate):
    """``evaluate(Q)`` for the rows Q of P, failing as a loop of pointwise
    ``value`` calls would: the rows before the first one outside ``domain``
    are evaluated, so an expression error among them is raised first, and
    then that row raises OutOfDomainError."""
    inside = domain.contains_rows(P)
    k = len(P) if inside.all() else int(np.argmin(inside))
    out = evaluate(P[:k])
    if k < len(P):
        raise OutOfDomainError("point outside field domain", P[k])
    return out


class ScalarFieldDef:
    """Scalar field defined by an expression over a box domain."""

    def __init__(self, dimension, tree, constants, domain):
        if dimension not in (2, 3):
            raise DimensionMismatchError(f"dimension must be 2 or 3, got {dimension}")
        if domain.dimension != dimension:
            raise DimensionMismatchError("domain dimension differs from field dimension")
        expected = exprlang.COORDS_2D if dimension == 2 else exprlang.COORDS_3D
        if tuple(tree.variables) != expected:
            raise DimensionMismatchError(
                f"expression variables {tree.variables} inconsistent with dimension {dimension}"
            )
        missing = tree.referenced_constants() - set(constants)
        if missing:
            raise ValueError(f"constants not in table: {sorted(missing)}")
        self.dimension = dimension
        self.tree = tree
        self.constants = dict(constants)
        self.domain = domain

    @classmethod
    def from_source(cls, source, dimension, constants=None, domain=None):
        constants = dict(constants or {})
        tree = exprlang.parse(source, dimension, set(constants))
        if domain is None:
            domain = Box((-1e6,) * dimension, (1e6,) * dimension)
        return cls(dimension, tree, constants, domain)

    def _require_inside(self, p):
        if not self.domain.contains(p):
            raise OutOfDomainError("point outside field domain", p)

    def value(self, p):
        p = _as_point(p, self.dimension)
        self._require_inside(p)
        return exprlang.eval_at(self.tree, tuple(p), self.constants)

    def value_unchecked(self, p):
        """Evaluate without the domain-box test; expression-domain errors
        still raise. Integrators probing trial points past a wall use this."""
        return exprlang.eval_at(self.tree, tuple(p), self.constants)

    def values(self, P):
        """``value`` at each row of the (N, dimension) array P, as an array
        of shape (N,), from one batch evaluation; errors are those of the
        pointwise loop (see ``exprlang.eval_many``)."""
        P = _as_points(P, self.dimension)
        return _rows_in_order(
            self.domain, P, lambda Q: exprlang.eval_many([self.tree], Q.T, self.constants)[0]
        )

    def gradient(self, p, mode="analytic"):
        p = _as_point(p, self.dimension)
        self._require_inside(p)
        if mode == "analytic":
            return exprlang.grad_at(self.tree, tuple(p), self.constants).partials
        if mode == "fd":
            f = lambda q: exprlang.eval_at(self.tree, tuple(q), self.constants)
            return _fd_gradient(f, p, self.domain)
        raise ValueError(f"unknown mode {mode!r}")


class VectorFieldDef:
    """Vector field with one component expression per coordinate."""

    def __init__(self, dimension, trees, constants, domain):
        if dimension not in (2, 3):
            raise DimensionMismatchError(f"dimension must be 2 or 3, got {dimension}")
        if len(trees) != dimension:
            raise DimensionMismatchError(
                f"component count {len(trees)} differs from dimension {dimension}"
            )
        self.components = tuple(
            ScalarFieldDef(dimension, t, constants, domain) for t in trees
        )
        self.dimension = dimension
        self.constants = dict(constants)
        self.domain = domain

    @classmethod
    def from_source(cls, sources, dimension, constants=None, domain=None):
        constants = dict(constants or {})
        trees = [exprlang.parse(s, dimension, set(constants)) for s in sources]
        if domain is None:
            domain = Box((-1e6,) * dimension, (1e6,) * dimension)
        return cls(dimension, trees, constants, domain)

    def value(self, p):
        p = _as_point(p, self.dimension)
        if not self.domain.contains(p):
            raise OutOfDomainError("point outside field domain", p)
        coords = tuple(p)
        return np.array(
            [exprlang.eval_at(c.tree, coords, self.constants) for c in self.components]
        )

    def value_unchecked(self, p):
        coords = tuple(p)
        return np.array(
            [exprlang.eval_at(c.tree, coords, self.constants) for c in self.components]
        )

    def values(self, P):
        """``value`` at each row of the (N, dimension) array P, as an
        (N, dimension) array, from one batch evaluation of the components;
        errors are those of the pointwise loop (see ``exprlang.eval_many``)."""
        P = _as_points(P, self.dimension)
        trees = [c.tree for c in self.components]
        return _rows_in_order(
            self.domain, P, lambda Q: exprlang.eval_many(trees, Q.T, self.constants).T
        )

    def jacobian(self, p, mode="analytic"):
        p = _as_point(p, self.dimension)
        if not self.domain.contains(p):
            raise OutOfDomainError("point outside field domain", p)
        if mode == "analytic":
            coords = tuple(p)
            return np.array(
                [
                    exprlang.grad_at(c.tree, coords, self.constants).partials
                    for c in self.components
                ]
            )
        if mode == "fd":
            rows = []
            for c in self.components:
                f = lambda q, tree=c.tree: exprlang.eval_at(tree, tuple(q), self.constants)
                rows.append(_fd_gradient(f, p, self.domain))
            return np.array(rows)
        raise ValueError(f"unknown mode {mode!r}")


class CallableVectorField:
    """Vector field backed by a sampler rather than expressions.

    Used where values exist pointwise but not in closed form (the
    conservative/non-conservative split, rescaled forces). Jacobian and
    curl are finite-difference only.

    ``batch``, if given, maps an (N, dimension) array of points inside the
    domain to the (N, dimension) values of ``fn`` at its rows; ``values``
    uses it and takes ``fn`` row by row when it raises, so the error is the
    one of the pointwise loop.
    """

    def __init__(self, fn, dimension, domain, batch=None):
        self._fn = fn
        self._batch = batch
        self.dimension = dimension
        self.domain = domain

    def value(self, p):
        p = _as_point(p, self.dimension)
        if not self.domain.contains(p):
            raise OutOfDomainError("point outside field domain", p)
        return np.asarray(self._fn(p), dtype=float)

    def value_unchecked(self, p):
        return np.asarray(self._fn(np.asarray(p, dtype=float)), dtype=float)

    def values(self, P):
        """``value`` at each row of the (N, dimension) array P, from the
        batch sampler or else one sampler call per row."""
        P = _as_points(P, self.dimension)
        return _rows_in_order(self.domain, P, self._rows)

    def _rows(self, Q):
        if self._batch is not None:
            try:
                return np.asarray(self._batch(Q), dtype=float)
            except EVAL_ERRORS:
                pass
        return np.array([self._fn(q) for q in Q], dtype=float).reshape(-1, self.dimension)

    def jacobian(self, p, mode="fd"):
        if mode != "fd":
            raise ValueError("sampler-backed fields support fd mode only")
        p = _as_point(p, self.dimension)
        if not self.domain.contains(p):
            raise OutOfDomainError("point outside field domain", p)
        rows = []
        for i in range(self.dimension):
            f = lambda q, idx=i: float(self._fn(q)[idx])
            rows.append(_fd_gradient(f, p, self.domain))
        return np.array(rows)


def _fd_gradient(f, p, box):
    out = np.empty(len(p))
    for axis, xi in enumerate(p):
        h = max(1.0, abs(xi)) * FD_STEP_FACTOR
        out[axis] = _fd_partial(f, p, axis, h, box)
    return out


def _fd_partial(f, p, axis, h, box):
    def shifted(delta):
        q = np.array(p)
        q[axis] += delta
        return q

    hi_ok = box.contains(shifted(h))
    lo_ok = box.contains(shifted(-h))
    if hi_ok and lo_ok:
        return (f(shifted(h)) - f(shifted(-h))) / (2 * h)
    if hi_ok:
        # second-order forward stencil for points on the low face
        return (-3 * f(p) + 4 * f(shifted(h)) - f(shifted(2 * h))) / (2 * h)
    if lo_ok:
        return (3 * f(p) - 4 * f(shifted(-h)) + f(shifted(-2 * h))) / (2 * h)
    raise OutOfDomainError("no room for a difference stencil", p)


# --- differential operators -------------------------------------------------

def curl(F, p, mode="analytic"):
    """Curl at a point: scalar dFy/dx - dFx/dy in 2D, the usual vector in 3D."""
    J = F.jacobian(p, mode)
    if F.dimension == 2:
        return J[1, 0] - J[0, 1]
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


# Jacobian entries (component, variable) whose differences make up the
# curl: d1 - d2 per curl component, in the order of ``curl``
_CURL_TERMS = {
    2: ((1, 0), (0, 1)),
    3: ((2, 1), (1, 2), (0, 2), (2, 0), (1, 0), (0, 1)),
}


def curl_many(F, P):
    """Analytic ``curl`` at each row of the (N, dimension) array P: shape
    (N,) in 2D, (N, 3) in 3D.

    An expression field evaluates the symbolic derivative trees of its
    components in one batch. A row outside the domain, an expression-domain
    error or a sampler-backed field takes ``curl`` row by row instead, which
    raises its error and keeps its dual-number rules where the symbolic ones
    fail: at the kink of abs, d/da abs(a) = abs(a)/a divides by zero, while
    the dual numbers give 0.
    """
    P = _as_points(P, F.dimension)
    if isinstance(F, VectorFieldDef) and F.domain.contains_rows(P).all():
        trees = [
            exprlang.derivative(F.components[i].tree, F.components[i].tree.variables[j])
            for i, j in _CURL_TERMS[F.dimension]
        ]
        try:
            d = exprlang.eval_many(trees, P.T, F.constants)
        except EvalDomainError:
            pass
        else:
            c = d[0::2] - d[1::2]
            return c[0] if F.dimension == 2 else c.T
    return np.array([curl(F, p) for p in P])


def helicity(F, p, mode="analytic"):
    """F . curl F; defined in 3D only."""
    if F.dimension != 3:
        raise DimensionMismatchError("helicity is defined for 3D fields only")
    return float(np.dot(F.value(p), curl(F, p, mode)))
