"""Dimension-tagged scalar and vector fields over axis-aligned boxes.

Derivatives are available in two modes: ``analytic`` evaluates the
symbolic derivative trees of the expressions (``SyntaxTree.partials``),
``fd`` uses central differences with step h = max(1, |x_i|) * 6.06e-6 per
axis (cube-root-of-epsilon scaling). On a face of the domain box the fd
mode falls back to second-order one-sided stencils.

A pointwise method calls one function compiled from the field's trees
(``exprlang``). Each has a batch form over the rows of an (N, dim) array
(``values``, ``gradients``, ``jacobians``, ``curl_many``): one
``exprlang.eval_many`` call with each value tree ahead of its partials, or
one call for every fd stencil point. The batch forms apply the
``Box.contains`` rule to every row and fail as the pointwise loop would:
rows before the first one outside the box come first, and a failed batch
is redone point by point, as ``per_row`` does for a consumer's function.

A region's sample points are built once per process: ``Region.samples``
keeps the points of each (box, plan), the last ``SAMPLE_CACHE_SIZE`` of
them, and returns the same read-only array for the same key. The key
holds the exact bits of the box bounds, so a -0.0 bound never shares the
points of a 0.0 one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import exprlang
from .errors import EVAL_ERRORS, DimensionMismatchError, OutOfDomainError

FD_STEP_FACTOR = 6.06e-6
SAMPLE_CACHE_SIZE = 32


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box: its faces belong to it."""

    lo: tuple
    hi: tuple

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

    @property
    def dimension(self):
        return len(self.lo)

    def diameter(self):
        return float(np.linalg.norm(np.subtract(self.hi, self.lo)))

    def contains(self, p):
        for c, lo, hi in zip(p, self.lo, self.hi):
            # written so that a NaN coordinate compares false and is rejected
            if not lo <= c <= hi:
                return False
        return True

    def contains_rows(self, P):
        """``contains`` of each row of the (N, dimension) array P, as a
        boolean array of shape (N,)."""
        # NaN compares false here too, so a row holding one is outside
        return ((P >= np.array(self.lo)) & (P <= np.array(self.hi))).all(axis=1)

    def contains_box(self, other):
        return all(a >= b for a, b in zip(other.lo, self.lo)) and all(
            a <= b for a, b in zip(other.hi, self.hi)
        )


def _radical_inverse(index, base):
    """Radical inverse of each entry of the integer array ``index``."""
    inv = np.zeros(len(index))
    f = 1.0 / base
    while index.any():
        inv += f * (index % base)
        index = index // base
        f /= base
    return inv


_HALTON_BASES = (2, 3, 5)


@dataclass(frozen=True)
class Region:
    """Sample region: a box inside a field domain plus a sample plan.

    plan is ("grid", counts) for a regular inclusive grid or
    ("random", count, seed) for a seeded quasi-random set: the Halton
    points of bases 2, 3, 5 from index 1, each axis shifted mod 1 by
    ``random.Random(seed)``. Both are deterministic regardless of
    evaluation order. ``samples`` builds the points once per (box, plan)
    per process and returns them read-only; the last ``SAMPLE_CACHE_SIZE``
    point sets are kept.
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
        return _sample_points(tuple(map(float.hex, self.box.lo)),
                              tuple(map(float.hex, self.box.hi)), self.plan)


@lru_cache(maxsize=SAMPLE_CACHE_SIZE)
def _sample_points(lo, hi, plan):
    # a ValueError leaves nothing in the cache, so every call raises it
    lo = np.array([float.fromhex(h) for h in lo])
    hi = np.array([float.fromhex(h) for h in hi])
    if plan[0] == "grid":
        axes = [np.linspace(a, b, c) for a, b, c in zip(lo, hi, plan[1])]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        count, seed = plan[1], plan[2]
        if seed < 0:  # Random(-n) would silently give the stream of n
            raise ValueError("expected non-negative integer")
        dim = len(lo)
        rng = random.Random(seed)
        shift = [rng.random() for _ in range(dim)]
        pts = np.empty((count, dim))
        for j in range(dim):
            base = _HALTON_BASES[j]
            col = _radical_inverse(np.arange(1, count + 1), base)
            pts[:, j] = (col + shift[j]) % 1.0
        pts = lo + pts * (hi - lo)
    pts.setflags(write=False)  # shared by every caller of this key
    return pts


def _as_point(p, dimension):
    q = np.asarray(p, dtype=float)
    if q.shape != (dimension,):
        raise DimensionMismatchError(
            f"expected a point of dimension {dimension}, got shape {q.shape}"
        )
    return q


def _point_in(field, p):
    """``p`` as a point of the field's dimension, which must lie in its domain."""
    p = _as_point(p, field.dimension)
    if not field.domain.contains(p):
        raise OutOfDomainError("point outside field domain", p)
    return p


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


def per_row(P, evaluate):
    """``evaluate(P)`` for a function of the rows of P that raises for the
    first bad row it meets, with the error a loop over the rows meets first:
    the first row goes alone (cheap, and a function undefined everywhere
    fails there), and a failed batch is redone one row at a time."""
    if len(P) > 1:
        evaluate(P[:1])
    try:
        return evaluate(P)
    except EVAL_ERRORS:
        for i in range(1, len(P)):
            evaluate(P[i:i + 1])
        raise


def _expression_rows(trees, constants):
    """Q -> values of ``trees`` at the rows of Q, shape (len(Q), len(trees)),
    without the domain test."""
    return lambda Q: exprlang.eval_many(trees, Q.T, constants).T


def _jacobian_rows(trees, constants, domain, mode):
    """Q -> Jacobians of ``trees`` at the rows of Q, shape (len(Q),
    len(trees), dim); analytic ones come from one batch that evaluates each
    tree ahead of its partials."""
    if mode == "fd":
        return lambda Q: _fd_jacobians(_expression_rows(trees, constants), Q, domain)
    if mode != "analytic":
        raise ValueError(f"unknown mode {mode!r}")
    batch = [t for tree in trees for t in (tree, *tree.partials)]
    shape = (len(trees), len(batch) // len(trees))
    return lambda Q: exprlang.eval_many(batch, Q.T, constants).reshape(
        *shape, len(Q))[:, 1:, :].transpose(2, 0, 1)


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

    def value(self, p):
        p = _point_in(self, p)
        return exprlang.eval_at(self.tree, p, self.constants)

    def value_unchecked(self, p):
        """The integrators' raw path, for trial points past a wall: no
        domain-box test, expression errors still raise, and Python floats
        out (a float here, a tuple of them from the vector field classes)."""
        return exprlang.eval_at(self.tree, p, self.constants)

    def values(self, P):
        """``value`` at each row of the (N, dimension) array P, as an array
        of shape (N,), from one batch evaluation; errors are those of the
        pointwise loop (see ``exprlang.eval_many``)."""
        P = _as_points(P, self.dimension)
        return _rows_in_order(self.domain, P, _expression_rows([self.tree], self.constants))[:, 0]

    def gradient(self, p, mode="analytic"):
        p = _point_in(self, p)
        if mode == "analytic":
            return exprlang.grad_at(self.tree, p, self.constants).partials
        return self.gradients(p[None, :], mode)[0]

    def gradients(self, P, mode="analytic"):
        """``gradient`` at each row of the (N, dimension) array P, as an
        (N, dimension) array from one batch; errors are those of the
        pointwise loop."""
        P = _as_points(P, self.dimension)
        evaluate = _jacobian_rows([self.tree], self.constants, self.domain, mode)
        return _rows_in_order(self.domain, P, evaluate)[:, 0, :]


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
        self.trees = tuple(trees)
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

    @cached_property
    def _at(self):
        return exprlang.compiled(self.trees, "math")

    @cached_property
    def _jacobian_at(self):
        # each component's value ahead of its partials, whose errors it wins over
        return exprlang.compiled([u for t in self.trees for u in (t, *t.partials)], "math")

    def value(self, p):
        p = _point_in(self, p)
        return np.array(self._at(p, self.constants))

    def value_unchecked(self, p):
        """``value`` as a tuple of floats, without the domain-box test."""
        return self._at(p, self.constants)

    def values(self, P):
        """``value`` at each row of the (N, dimension) array P, as an
        (N, dimension) array, from one batch evaluation of the components;
        errors are those of the pointwise loop (see ``exprlang.eval_many``)."""
        P = _as_points(P, self.dimension)
        return _rows_in_order(self.domain, P, _expression_rows(self.trees, self.constants))

    def jacobian(self, p, mode="analytic"):
        p = _point_in(self, p)
        if mode == "analytic":
            return np.reshape(self._jacobian_at(p, self.constants), (self.dimension, -1))[:, 1:]
        return self.jacobians(p[None, :], mode)[0]

    def jacobians(self, P, mode="analytic"):
        """``jacobian`` at each row of the (N, dimension) array P, as an
        (N, dimension, dimension) array from one batch; errors are those of
        the pointwise loop."""
        P = _as_points(P, self.dimension)
        evaluate = _jacobian_rows(self.trees, self.constants, self.domain, mode)
        return _rows_in_order(self.domain, P, evaluate)


class CallableVectorField:
    """Vector field backed by a sampler rather than expressions.

    Used where values exist pointwise but not in closed form (rescaled
    forces). Jacobian and curl are finite-difference only.

    ``batch``, if given, maps an (N, dimension) array of points to the
    (N, dimension) values of ``fn`` at its rows; ``values`` and the fd
    stencils use it and take ``fn`` row by row when it raises, so the error
    is the one of the pointwise loop.
    """

    def __init__(self, fn, dimension, domain, batch=None):
        self._fn = fn
        self._batch = batch
        self.dimension = dimension
        self.domain = domain

    def value(self, p):
        p = _point_in(self, p)
        return np.asarray(self._fn(p), dtype=float)

    def value_unchecked(self, p):
        """``value`` as a tuple of floats, without the domain-box test; ``fn``
        gets the point as given (the integrators' list of floats)."""
        return tuple(map(float, self._fn(p)))

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
        return self.jacobians(_as_point(p, self.dimension)[None, :], mode)[0]

    def jacobians(self, P, mode="fd"):
        """``jacobian`` at each row of the (N, dimension) array P, with the
        stencil points of all rows in one sampler batch."""
        if mode != "fd":
            raise ValueError("sampler-backed fields support fd mode only")
        P = _as_points(P, self.dimension)
        return _rows_in_order(self.domain, P, lambda Q: _fd_jacobians(self._rows, Q, self.domain))


# per stencil: the shifts of its points, in steps h, and their weights
_STENCILS = (((1, -1), (1, -1)), ((0, 1, 2), (-3, 4, -1)), ((0, -1, -2), (3, -4, 1)))


def _fd_jacobians(sample, P, box):
    """Finite-difference Jacobians at the rows of P, shape (N, k, dim), where
    ``sample(Q)`` gives the k values at each row of Q without a domain test.
    Per axis a row takes the central stencil when p + h and p - h lie in
    the box, else the second-order one-sided stencil into it (from a face),
    its points in one-point loop order; a row with no room either way
    raises after the axes before it. All stencil points go through one
    ``sample`` call, redone row by row on failure (``per_row``)."""
    return per_row(P, lambda Q: _fd_stencil(sample, Q, box))


def _fd_stencil(sample, P, box):
    H = np.maximum(1.0, np.abs(P)) * FD_STEP_FACTOR
    chunks, parts, cramped = [], [], None
    for axis in range(P.shape[1]):
        step = H[:, axis, None] * np.eye(P.shape[1])[axis]
        hi_ok, lo_ok = box.contains_rows(P + step), box.contains_rows(P - step)
        if not (hi_ok | lo_ok).all():
            cramped = P[int(np.argmin(hi_ok | lo_ok))]
            break
        kinds = (hi_ok & lo_ok, hi_ok & ~lo_ok, lo_ok & ~hi_ok)  # central, forward, backward
        for rows, (shifts, weights) in zip(kinds, _STENCILS):
            if rows.any():
                parts.append((axis, rows, weights))
                chunks.extend(P[rows] + k * step[rows] for k in shifts)
    values = sample(np.concatenate(chunks) if chunks else P[:0])
    if cramped is not None:
        raise OutOfDomainError("no room for a difference stencil", cramped)
    J = np.empty((len(P), values.shape[1], P.shape[1]))
    at = 0
    for axis, rows, weights in parts:
        m = int(rows.sum())
        diff = sum(w * values[at + i * m:at + (i + 1) * m] for i, w in enumerate(weights))
        at += len(weights) * m
        J[rows, :, axis] = diff / (2 * H[rows, axis])[:, None]
    return J


# --- differential operators -------------------------------------------------

def curl_of_jacobian(J):
    """Curl from Jacobians J of shape (..., dim, dim): the scalar
    dFy/dx - dFx/dy in 2D, the usual vector in 3D."""
    if J.shape[-1] == 2:
        return J[..., 1, 0] - J[..., 0, 1]
    return np.stack([J[..., 2, 1] - J[..., 1, 2], J[..., 0, 2] - J[..., 2, 0],
                     J[..., 1, 0] - J[..., 0, 1]], axis=-1)


def _curl_3d(F, p):
    """``curl`` of a 3D field at a point p of its box, as a list of floats:
    the differences of ``curl_of_jacobian`` on the compiled Jacobian tuple,
    whose component i holds its value and partials at 4i, ..., 4i + 3. A
    field with no compiled Jacobian takes ``curl``, with its errors."""
    if not isinstance(F, VectorFieldDef):
        return curl(F, p)
    t = F._jacobian_at(p, F.constants)
    return [t[10] - t[7], t[3] - t[9], t[5] - t[2]]


def curl(F, p, mode="analytic"):
    """Curl at a point: scalar dFy/dx - dFx/dy in 2D, the usual vector in 3D."""
    return curl_of_jacobian(F.jacobian(p, mode))


def curl_many(F, P, mode="analytic"):
    """``curl`` at each row of the (N, dimension) array P: shape (N,) in 2D,
    (N, 3) in 3D, from one ``jacobians`` batch, with its errors."""
    return curl_of_jacobian(F.jacobians(P, mode))
