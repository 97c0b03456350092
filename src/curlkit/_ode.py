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

The rk4 state is a list of Python floats; its stages and Hermite go
element by element, each scalar coefficient first (``(0.5*h)*k``), so every
number is the one of the array expressions. dopri45 keeps an ndarray state:
its ``@`` stage sums round unlike a left-to-right float sum. Both take any
sequence of floats from f, and both return ``OdeResult.y`` as an ndarray.

Both drivers support a region guard: when a step (checked at the midpoint
and the endpoint of its dense output) leaves the admissible set, the step
is bisected down to the boundary within 1e-10 and integration stops with
``exited=True``.

The step callback receives ``(t0, y0, t1, y1, dense)`` after every
accepted step, where ``dense(theta)`` evaluates the continuous extension
at t0 + theta*(t1-t0) for theta in [0, 1]. ``y0``, ``y1`` and
``dense(theta)`` are sequences of floats (lists from rk4, arrays from
dopri45) that consumers only index, slice and iterate. Given a 1-D array of
k thetas ``dense`` returns the k states as rows of a (k, n) array, each
bit-identical to the scalar call. A dense callable holds everything of its
own step, so it stays valid after the integrator has moved on, and callers
may keep it to evaluate later.

``sample_every(ds, visit)`` builds such a callback: it calls ``visit(y)``
at t = ds, 2*ds, ... from the dense output of the step that contains each sample time, so
sampling costs no extra derivative evaluations. Each consumer passes the
callback to the integrator itself, wrapping it when it needs more per
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

# Dormand-Prince 5(4) Butcher tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# fifth-order weights; the seventh stage (FSAL, evaluated at the new point)
# enters only the error estimate and the dense output
_B = np.append(_A[6], 0.0)
# difference between the fifth- and embedded fourth-order weights
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# dense-output coefficients of the classic fourth-order continuous extension
_D = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_BOUNDARY_TOL = 1e-10
# accepted plus rejected dopri45 steps, rk4 steps, and the rows dynamics records
_MAX_STEPS = 10_000_000


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


def _dopri_dense(y0, y1, k, h):
    """Continuous extension over one accepted step.

    Matches y0, y1 and the end slopes exactly; fourth-order accurate in
    the interior.
    """
    ydiff = y1 - y0
    bspl = h * k[0] - ydiff
    r1 = y0
    r2 = ydiff
    r3 = bspl
    r4 = ydiff - h * k[6] - bspl
    r5 = h * (_D @ k)

    def dense(theta):
        if isinstance(theta, np.ndarray):
            theta = theta[:, None]
        th1 = 1.0 - theta
        return r1 + theta * (r2 + th1 * (r3 + theta * (r4 + th1 * r5)))

    return dense


def sample_every(ds, visit):
    """Step callback calling ``visit(y)`` at t = ds, 2*ds, ...

    Each sample time is visited once, from the first accepted step whose
    end reaches it (within 1e-15).
    """
    next_t = ds

    def on_step(t0, y0, t1, y1, dense):
        nonlocal next_t
        while next_t <= t1 + 1e-15:
            theta = (next_t - t0) / (t1 - t0) if t1 > t0 else 1.0
            visit(dense(min(max(theta, 0.0), 1.0)))
            next_t += ds

    return on_step


def _locate_boundary(dense, inside, theta_lo, theta_hi):
    """Bisect theta in [lo, hi] with dense(lo) inside and dense(hi) outside
    until the two bracket states agree within 1e-10; returns the inside
    theta."""
    y_lo = dense(theta_lo)
    y_hi = dense(theta_hi)
    for _ in range(200):
        # as np.max(np.abs(y_hi - y_lo)) < tol, NaN included, on either state type
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
        trunc = theta

        def clipped(s, _dense=dense, _trunc=trunc):
            return _dense(s * _trunc)

        on_step(t0, y0, t_exit, y_exit, clipped)
    return True, t_exit, y_exit


def integrate_dopri45(f, t0, y0, t_end, atol=1e-9, rtol=1e-9, h_max=None, inside=None,
                      on_step=None):
    """Integrate y' = f(t, y) from t0 to t_end adaptively.

    Raises NumericalError on step-size underflow or step-count overflow;
    returns early with ``exited=True`` if the guard reports a boundary
    crossing.
    """
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    stats = IntegratorStats()
    y = np.asarray(y0, dtype=float)
    t = float(t0)
    span = t_end - t0
    if h_max is None:
        h_max = span / 10.0
    h = min(h_max, span / 100.0)

    k = np.empty((7, y.size))
    k[0] = f(t, y)
    stats.n_fev += 1

    while t < t_end:
        h = min(h, t_end - t, h_max)
        if h < 1e-14 * max(1.0, abs(t)):
            raise NumericalError(f"step size underflow at t={t!r}")
        if stats.n_steps + stats.n_rejected > _MAX_STEPS:
            raise NumericalError("step count exceeded")

        for i in range(1, 7):
            yi = y + h * (_A[i][: i] @ k[:i])
            k[i] = f(t + _C[i] * h, yi)
        stats.n_fev += 6
        y1 = y + h * (_B @ k)  # stage 7 already evaluated at (t+h, y1)

        err_vec = h * (_E @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y1))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if math.isnan(err):
            # NaN compares false against the acceptance test below; an
            # infinite estimate is rejected there and the step shrinks
            raise NumericalError(f"error estimate is NaN at t={t!r}")

        if err > 1.0:
            stats.n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            continue

        dense = _dopri_dense(y, y1, k.copy(), h)
        stats.n_steps += 1
        if inside is not None:
            crossed, t_new, y_new = _guard_step(t, h, y, y1, dense, inside, on_step)
            if crossed:
                return OdeResult(t_new, y_new, True, stats)
        if on_step is not None:
            on_step(t, y, t + h, y1, dense)

        t = t + h
        y = y1
        k[0] = k[6]  # FSAL
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** (-0.2))
        h *= max(_MIN_FACTOR, factor)

    return OdeResult(t, y, False, stats)


def _rk4_step(f, t, y, h, k1):
    # the elements of y + 0.5 * h * k1, ..., y + (h / 6.0) * (k1 + ...), in their order
    a = 0.5 * h
    k2 = f(t + a, [yi + a * ki for yi, ki in zip(y, k1)])
    k3 = f(t + a, [yi + a * ki for yi, ki in zip(y, k2)])
    k4 = f(t + h, [yi + h * ki for yi, ki in zip(y, k3)])
    c = h / 6.0
    return [yi + c * (a1 + 2 * a2 + 2 * a3 + a4) for yi, a1, a2, a3, a4 in zip(y, k1, k2, k3, k4)]


def _hermite(y0, y1, f0, f1, h, theta):
    # cubic Hermite basis on [0, 1] with slopes scaled by h, element by element
    t2 = theta * theta
    t3 = t2 * theta
    a = 2 * t3 - 3 * t2 + 1
    b = (t3 - 2 * t2 + theta) * h
    c = -2 * t3 + 3 * t2
    d = (t3 - t2) * h
    return [a * p + b * q + c * r + d * s for p, q, r, s in zip(y0, f0, y1, f1)]


def integrate_rk4(f, t0, y0, t_end, h, inside=None, on_step=None):
    """Fixed-step RK4 from t0 to t_end; each nominal step is two half-steps.
    Step n ends on t0 + n h, off which a running sum of h would drift, and
    the last one, clipped, on t_end itself.

    Raises ValueError when (t_end - t0) / h exceeds the step cap.

    The dense output is a piecewise cubic Hermite over the two halves, so
    dense(0.5) is the half-step state itself. Its end slope f(t1, y1) is
    evaluated once, by the first dense call past the midpoint or else as
    the next step's k1, and serves both.
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
    tol = 1e-12 * max(1.0, abs(t_end))
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
        dense = _rk4_dense(y, ym, y1, f0, fm, end_slope, step)

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


def _rk4_dense(y0, ym, y1, f0, fm, end_slope, step):
    """Piecewise cubic Hermite over the two half-steps of one rk4 step."""
    half = 0.5 * step

    def at(theta):
        if theta == 0.5:
            return ym  # the Hermites' common knot
        if theta < 0.5:
            return _hermite(y0, ym, f0, fm, half, theta * 2.0)
        return _hermite(ym, y1, fm, end_slope(), half, (theta - 0.5) * 2.0)

    def dense(theta):
        if isinstance(theta, np.ndarray):
            # one theta at a time: with the few thetas of a call this beats
            # evaluating both pieces under masks
            return np.array([at(th) for th in theta.tolist()]).reshape(-1, len(y0))
        return at(theta)

    return dense
