"""Shared explicit Runge-Kutta drivers.

Two integrators are provided for first-order systems y' = f(t, y):

``integrate_dopri45``
    Dormand-Prince 5(4) pair: seven stages, fifth-order propagation with an
    embedded fourth-order error estimate, FSAL, standard PI-free step
    controller (accept when the scaled RMS error is <= 1, step factor
    0.9 * err**(-1/5) clamped to [0.2, 5]). A fourth-order continuous
    extension (dense output) is exposed to the step callback, so callers
    can sample inside accepted steps without extra derivative evaluations.

``integrate_rk4``
    Classic fourth-order Runge-Kutta with a fixed step. Each nominal step
    is taken as two half-steps, which supplies an accurate midpoint state;
    the dense output is a piecewise cubic Hermite on the two halves, and
    ``dense(0.5)`` returns that midpoint state without evaluating either
    piece. The end slope f(t1, y1) of the Hermite is the next step's k1, so
    a step costs eight right-hand sides (plus one for the first k1).

Both drivers keep the state as a list of Python floats, and their
stages, dopri45's error norm and both dense outputs go element by element.
rk4 takes each scalar coefficient first (``(0.5*h)*k``), so every number is
the one of the array expressions it replaced. dopri45 sums its stages left
to right over the tableau's nonzero weights, which rounds unlike the matrix
products it replaced. Its error estimate cancels down to the tolerance, so
that round-off reaches the step sizes (up to about 1e-7 relative), and the
step ends and states move by about 1e-9. Both take any sequence of floats
from f, and both return ``OdeResult.y`` as an ndarray.

Both drivers support a region guard: when a step (checked at the midpoint
and the endpoint of its dense output) leaves the admissible set, the step
is bisected down to the boundary within 1e-10 and integration stops with
``exited=True``.

The step callback receives ``(t0, y0, t1, y1, dense)`` after every
accepted step, where ``dense(theta)`` evaluates the continuous extension
at t0 + theta*(t1-t0) for theta in [0, 1]. ``y0``, ``y1`` and
``dense(theta)`` are lists of floats that consumers only index, slice and
iterate. A dense output holds everything of its own step, so it stays
valid after the integrator has moved on.

A callback that evaluates many states at once hands each step to a
``Record``: ``take(dense, thetas)`` keeps, as plain floats and with no
NumPy call, ``dense.parts(thetas)`` (rk4's Hermite pieces y0, ym, y1, f0,
fm, f1 and half step, or dopri45's five Horner coefficients per element)
and the thetas on the whole step, s * dense.scale for a theta s of the
guard's truncated step ``dense.clipped(theta)``, whose theta 1 is the
crossing. rk4's parts evaluate the end slope f(t1, y1) exactly when the
scalar calls at thetas would, so field evaluations and their errors come
where they would. Once ``_BLOCK_ROWS`` states wait, ``take`` returns True,
and ``rows()`` evaluates them in the order taken with one call of
``dense.rows`` (``_rk4_rows`` or ``_dopri_rows``), the array twin of the
scalar call: the same operations element by element in the same order,
so each row is the scalar call's bits (rk4's ym at theta 1/2), under
``np.errstate(all="ignore")``, so an overflowing state is inf or NaN
without a warning, as on Python floats. ``sample_every`` and the work
quadrature of ``dynamics`` are the record's consumers.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

# Dormand-Prince 5(4) Butcher tableau: nodes, and the stage weights by row
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    # the fifth-order weights; the seventh stage (FSAL, evaluated at the new
    # point) enters only the error estimate and the dense output
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between the fifth- and embedded fourth-order weights
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# dense-output coefficients of the classic fourth-order continuous extension
_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_BOUNDARY_TOL = 1e-10
# accepted plus rejected dopri45 steps, rk4 steps, and the rows dynamics records
_MAX_STEPS = 10_000_000
# the states a Record takes before ``take`` asks for their evaluation; with
# the step that brings it there, this bounds the parts a consumer keeps
_BLOCK_ROWS = 512


@dataclass
class IntegratorStats:
    n_steps: int = 0
    n_rejected: int = 0
    n_fev: int = 0


@dataclass
class OdeResult:
    t: float
    y: np.ndarray
    exited: bool
    stats: IntegratorStats = field(default_factory=IntegratorStats)


class _Dense:
    """Continuous extension over one accepted step (see the module
    docstring); a subclass gives the scalar call, ``parts`` and the block
    evaluator ``rows``."""

    __slots__ = ("scale",)

    def clipped(self, theta):
        """This dense output with theta 1 at the step's theta ``theta``."""
        out = copy.copy(self)
        out.scale = self.scale * theta
        return out


def _dopri_rows(parts, theta):
    """The states of dopri45 dense outputs: row i at theta[i] on the step of
    parts row i (or of the one row of ``parts``), each the scalar call's
    bits; inf or NaN where the Horner sums overflow, with no warning."""
    r1, r2, r3, r4, r5 = parts.transpose(2, 0, 1)
    theta = theta[:, None]
    with np.errstate(all="ignore"):
        th1 = 1.0 - theta
        return r1 + theta * (r2 + th1 * (r3 + theta * (r4 + th1 * r5)))


class _DopriDense(_Dense):
    """Matches y0, y1 and the end slopes exactly; fourth-order accurate in
    the interior. Each element is a quartic in theta, kept as its five
    Horner coefficients; the parts are those tuples."""

    __slots__ = ("coeffs",)
    rows = staticmethod(_dopri_rows)

    def __init__(self, y0, y1, k, h):
        d1, _, d3, d4, d5, d6, d7 = _D
        coeffs = []
        for a, b, p1, p3, p4, p5, p6, p7 in zip(y0, y1, k[0], *k[2:]):
            diff = b - a
            bspl = h * p1 - diff
            r5 = h * (d1 * p1 + d3 * p3 + d4 * p4 + d5 * p5 + d6 * p6 + d7 * p7)
            coeffs.append((a, diff, bspl, diff - h * p7 - bspl, r5))
        self.coeffs = coeffs
        self.scale = 1.0

    def __call__(self, theta):
        theta *= self.scale
        th1 = 1.0 - theta
        return [r1 + theta * (r2 + th1 * (r3 + theta * (r4 + th1 * r5)))
                for r1, r2, r3, r4, r5 in self.coeffs]

    def parts(self, thetas):
        return self.coeffs


class Record:
    """The states of many steps' dense outputs, taken a step at a time and
    evaluated a block at a time (see the module docstring)."""

    __slots__ = ("parts", "thetas", "counts", "evaluate")

    def __init__(self):
        self.parts, self.thetas, self.counts, self.evaluate = [], [], [], None

    def __len__(self):
        return len(self.thetas)

    def take(self, dense, thetas):
        """Keep the states of ``dense`` at ``thetas``; True once
        ``_BLOCK_ROWS`` or more wait. Raises, keeping nothing, where rk4's
        end slope fails."""
        self.parts.append(dense.parts(thetas))
        scale = dense.scale
        self.thetas.extend(thetas if scale == 1.0 else [theta * scale for theta in thetas])
        self.counts.append(len(thetas))
        self.evaluate = dense.rows
        return len(self.thetas) >= _BLOCK_ROWS

    def rows(self):
        """The waiting states in the order taken, as the rows of an array
        ((0, 0) when none wait); the record is empty after."""
        if not self.counts:
            return np.empty((0, 0))
        owner = np.repeat(np.arange(len(self.counts)), self.counts)
        rows = self.evaluate(np.array(self.parts)[owner], np.array(self.thetas))
        self.parts, self.thetas, self.counts = [], [], []
        return rows


def sample_every(ds, count):
    """(on_step, rows): a step callback taking the sample times t = ds,
    2*ds, ..., count*ds, and ``rows()``, the states at the times taken so
    far as the rows of a (k, n) array, k <= count.

    Each sample time is taken once, by the first accepted step whose end
    reaches it (within 1e-15), at its theta on that step, through a
    ``Record``; each row is the scalar call at the sample's theta.
    """
    record, blocks = Record(), []
    next_t, taken = ds, 0

    def on_step(t0, y0, t1, y1, dense):
        nonlocal next_t, taken
        t, n, end, width, thetas = next_t, taken, t1 + 1e-15, t1 - t0, []
        while n < count and t <= end:
            # t is past t0; one past t1, within the 1e-15 reach, takes theta 1
            thetas.append((t - t0) / width if t < t1 else 1.0)
            t += ds
            n += 1
        next_t, taken = t, n
        if thetas and record.take(dense, thetas):
            blocks.append(record.rows())

    def rows():
        if len(record):
            blocks.append(record.rows())
        return np.concatenate(blocks) if blocks else np.empty((0, 0))

    return on_step, rows


def _locate_boundary(dense, inside, theta_lo, theta_hi):
    """Bisect theta in [lo, hi] with dense(lo) inside and dense(hi) outside
    until the two bracket states agree within 1e-10; returns the inside
    theta."""
    y_lo = dense(theta_lo)
    y_hi = dense(theta_hi)
    for _ in range(200):
        # as np.max(np.abs(y_hi - y_lo)) < tol, NaN included
        if all(abs(a - b) < _BOUNDARY_TOL for a, b in zip(y_hi, y_lo)):
            break
        mid = 0.5 * (theta_lo + theta_hi)
        y_mid = dense(mid)
        if inside(y_mid):
            theta_lo, y_lo = mid, y_mid
        else:
            theta_hi, y_hi = mid, y_mid
    return theta_lo


def _guard_step(t0, h, y0, y1, dense, inside, on_step):
    """Handle a step that may cross the admissible boundary.

    Returns (handled, t, y). When the boundary is crossed the truncated
    step is reported to the callback and (True, t_exit, y_exit) returned.
    """
    mid_inside = inside(dense(0.5))
    end_inside = inside(y1)
    if mid_inside and end_inside:
        return False, t0 + h, y1
    hi = 0.5 if not mid_inside else 1.0
    theta = _locate_boundary(dense, inside, 0.0, hi)
    y_exit = dense(theta)
    t_exit = t0 + theta * h
    if on_step is not None and theta > 0.0:
        on_step(t0, y0, t_exit, y_exit, dense.clipped(theta))
    return True, t_exit, y_exit


def _dopri_stages(f, t, y, h, k1):
    """Stages 2-7 of one step from (t, y) with first stage k1.

    Returns the fifth-order state y1 and the seven stages; the seventh is
    f(t + h, y1). Each stage sum goes element by element, left to right.
    """
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65),
     (b1, _, b3, b4, b5, b6)) = _A[1:]
    c2, c3, c4, c5 = _C[1:5]
    k2 = f(t + c2 * h, [yi + h * (a21 * p1) for yi, p1 in zip(y, k1)])
    k3 = f(t + c3 * h, [yi + h * (a31 * p1 + a32 * p2) for yi, p1, p2 in zip(y, k1, k2)])
    k4 = f(t + c4 * h, [yi + h * (a41 * p1 + a42 * p2 + a43 * p3)
                        for yi, p1, p2, p3 in zip(y, k1, k2, k3)])
    k5 = f(t + c5 * h, [yi + h * (a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
                        for yi, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
    k6 = f(t + h, [yi + h * (a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
                   for yi, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
    y1 = [yi + h * (b1 * p1 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6)
          for yi, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
    return y1, (k1, k2, k3, k4, k5, k6, f(t + h, y1))


def _error_norm(y, y1, k, h, atol, rtol):
    """RMS over the elements of the embedded error estimate, each scaled by
    atol + rtol * max(|y|, |y1|); a NaN in y1 makes it NaN.

    A scaled element too large to square (a tiny tolerance) gives inf, which
    rejects the step: each element is a Python float, whose q * q overflows
    to inf without the warning of a NumPy scalar (stages from an f that
    returns arrays) and without the OverflowError of q ** 2. A zero scale
    (atol 0 on a zero element) divides as IEEE does, to inf or NaN.
    """
    e1, _, e3, e4, e5, e6, e7 = _E
    total = 0.0
    for a, b, p1, p3, p4, p5, p6, p7 in zip(y, y1, k[0], *k[2:]):
        a, b = abs(a), abs(b)
        e = float(h * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7))
        scale = float(atol + rtol * (a if a > b else b))
        q = e / scale if scale else e * math.inf
        total += q * q
    return math.sqrt(total / len(y))


def integrate_dopri45(f, t0, y0, t_end, atol=1e-9, rtol=1e-9, h_max=None, inside=None,
                      on_step=None):
    """Integrate y' = f(t, y) from t0 to t_end adaptively.

    The state is a list of Python floats and every stage, the error norm
    and the dense output go element by element; ``OdeResult.y`` is an
    ndarray. Raises NumericalError on step-size underflow, step-count
    overflow or a NaN error estimate; returns early with ``exited=True``
    if the guard reports a boundary crossing.
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    stats = IntegratorStats()
    y = np.asarray(y0, dtype=float).tolist()
    t = float(t0)
    span = t_end - t0
    if h_max is None:
        h_max = span / 10.0
    h = min(h_max, span / 100.0)

    k1 = f(t, y)
    stats.n_fev += 1

    while t < t_end:
        h = min(h, t_end - t, h_max)
        # relative to a span below 1, so that a tiny span can start
        if h < 1e-14 * max(min(1.0, span), abs(t)):
            raise NumericalError(f"step size underflow at t={t!r}")
        if stats.n_steps + stats.n_rejected > _MAX_STEPS:
            raise NumericalError("step count exceeded")

        y1, k = _dopri_stages(f, t, y, h, k1)
        stats.n_fev += 6
        err = _error_norm(y, y1, k, h, atol, rtol)
        if math.isnan(err):
            # NaN compares false against the acceptance test below; an
            # infinite estimate is rejected there and the step shrinks
            raise NumericalError(f"error estimate is NaN at t={t!r}")

        if err > 1.0:
            stats.n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            continue

        dense = _DopriDense(y, y1, k, h)
        stats.n_steps += 1
        if inside is not None:
            crossed, t_new, y_new = _guard_step(t, h, y, y1, dense, inside, on_step)
            if crossed:
                return OdeResult(t_new, np.array(y_new), True, stats)
        if on_step is not None:
            on_step(t, y, t + h, y1, dense)

        t = t + h
        y = y1
        k1 = k[6]  # FSAL
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** (-0.2))
        h *= max(_MIN_FACTOR, factor)

    return OdeResult(t, np.array(y), False, stats)


def _rk4_step(f, t, y, h, k1):
    # the elements of y + 0.5 * h * k1, ..., y + (h / 6.0) * (k1 + ...), in their order
    a = 0.5 * h
    k2 = f(t + a, [yi + a * ki for yi, ki in zip(y, k1)])
    k3 = f(t + a, [yi + a * ki for yi, ki in zip(y, k2)])
    k4 = f(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
    c = h / 6.0
    return [yi + c * (a1 + 2 * a2 + 2 * a3 + a4) for yi, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)]


def _hermite_basis(h, theta):
    # cubic Hermite basis on [0, 1] with the slope terms scaled by h, on
    # floats or arrays alike
    t2 = theta * theta
    t3 = t2 * theta
    return 2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + theta) * h, -2 * t3 + 3 * t2, (t3 - t2) * h


def _hermite(y0, y1, f0, f1, h, theta):
    # element by element
    a, b, c, d = _hermite_basis(h, theta)
    return [a * p + b * q + c * r + d * s for p, q, r, s in zip(y0, f0, y1, f1)]


def integrate_rk4(f, t0, y0, t_end, h, inside=None, on_step=None):
    """Fixed-step RK4 from t0 to t_end; each nominal step is two half-steps.
    Step n ends on t0 + n h, off which a running sum of h would drift, and
    the last one, clipped, on t_end itself.

    Raises ValueError when (t_end - t0) / h exceeds the step cap.

    The dense output is a piecewise cubic Hermite over the two halves, so
    dense(0.5) is the half-step state itself. Its end slope f(t1, y1) is
    evaluated once, by the first dense or parts call past the midpoint or
    else as the next step's k1, and serves both.
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    if h <= 0:
        raise ValueError("step must be positive")
    if (t_end - t0) / h > _MAX_STEPS:
        # a step below the spacing of the floats near t would never advance it
        raise ValueError(f"step {h!r} needs more than {_MAX_STEPS} steps to reach t_end")
    stats = IntegratorStats()
    y = np.asarray(y0, dtype=float).tolist()
    t = t0 = float(t0)
    end_slope = _rk4_end_slope(f, t, y, stats)
    # a step ending this close to t_end ends on it; scaled to a span below 1
    tol = 1e-12 * max(min(1.0, t_end - t0), abs(t_end))
    n = 0

    while t < t_end:
        n += 1
        t1 = t0 + n * h
        step = h
        if t1 > t_end - tol:
            t1, step = t_end, t_end - t
        half = 0.5 * step
        f0 = end_slope()
        ym = _rk4_step(f, t, y, half, f0)
        fm = f(t + half, ym)
        y1 = _rk4_step(f, t + half, ym, half, fm)
        stats.n_fev += 7
        stats.n_steps += 1
        end_slope = _rk4_end_slope(f, t1, y1, stats)
        dense = _Rk4Dense(y, ym, y1, f0, fm, end_slope, step)

        if inside is not None:
            crossed, t_new, y_new = _guard_step(t, step, y, y1, dense, inside, on_step)
            if crossed:
                return OdeResult(t_new, np.array(y_new), True, stats)
        if on_step is not None:
            on_step(t, y, t1, y1, dense)
        t = t1
        y = y1

    return OdeResult(t, np.array(y), False, stats)


def _rk4_end_slope(f, t, y, stats):
    """f(t, y), evaluated on the first call and cached for the rest."""
    cache = []

    def slope():
        if not cache:
            cache.append(f(t, y))
            stats.n_fev += 1
        return cache[0]

    return slope


def _rk4_rows(parts, theta):
    """The states of rk4 dense outputs: row i at theta[i] on the step of
    parts row i (or of the one row of ``parts``), each the scalar call's
    bits; inf or NaN where a Hermite overflows, with no warning."""
    n = (parts.shape[1] - 1) // 6
    y0, ym, y1, f0, fm, f1 = (parts[:, j * n : (j + 1) * n] for j in range(6))
    theta = theta[:, None]
    lower = theta < 0.5
    with np.errstate(all="ignore"):
        a, b, c, d = _hermite_basis(parts[:, -1:], np.where(lower, theta * 2.0,
                                                            (theta - 0.5) * 2.0))
        rows = (a * np.where(lower, y0, ym) + b * np.where(lower, f0, fm)
                + c * np.where(lower, ym, y1) + d * np.where(lower, fm, f1))
    return np.where(theta == 0.5, ym, rows)  # the Hermites' common knot


class _Rk4Dense(_Dense):
    """Piecewise cubic Hermite over the two half-steps of one rk4 step."""

    __slots__ = ("y0", "ym", "y1", "f0", "fm", "end_slope", "half")
    rows = staticmethod(_rk4_rows)

    def __init__(self, y0, ym, y1, f0, fm, end_slope, step):
        self.y0, self.ym, self.y1, self.f0, self.fm = y0, ym, y1, f0, fm
        self.end_slope = end_slope
        self.half = 0.5 * step
        self.scale = 1.0

    def __call__(self, theta):
        theta *= self.scale
        if theta == 0.5:
            return self.ym  # the Hermites' common knot
        if theta < 0.5:
            return _hermite(self.y0, self.ym, self.f0, self.fm, self.half, theta * 2.0)
        return _hermite(self.ym, self.y1, self.fm, self.end_slope(), self.half,
                        (theta - 0.5) * 2.0)

    def parts(self, thetas):
        # the end slope only when a theta needs it, as the scalar calls at
        # ``thetas`` would; else fm holds its place
        f1 = self.end_slope() if max(thetas, default=0.0) * self.scale > 0.5 else self.fm
        return [*self.y0, *self.ym, *self.y1, *self.f0, *self.fm, *f1, self.half]
