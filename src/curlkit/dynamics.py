"""Newtonian particle motion under a position-dependent force field.

The second-order system m x'' = F(x) is reduced to first order on (x, v).
Cumulative work along the numerical path is accumulated with Simpson's
rule on dense-output samples, one panel per recorded interval, keeping
the work-energy diagnostic at the integrator's own order: for every
produced trajectory max |K(t) - K(0) - W_cum(t)| stays at the tolerance
of the solver (fourth-order step scaling for fixed-step RK4).

A step that lands outside the field's domain box is bisected to the
boundary (within 1e-10) and the trajectory is returned truncated with
``exited=True``; the example fields are singular on the coordinate axes,
so running into a wall is an expected outcome, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._ode import IntegratorStats, integrate_dopri45, integrate_rk4
from .errors import DimensionMismatchError, EvalDomainError, OutOfDomainError


@dataclass(frozen=True)
class SimConfig:
    mass: float = 1.0
    integrator: str = "dopri45"  # dopri45 | rk4
    t_end: float = 1.0
    atol: float = 1e-9
    rtol: float = 1e-9
    h_max: Optional[float] = None  # defaults to t_end / 10
    h: float = 1e-3  # rk4 fixed step
    record_dt: Optional[float] = None  # subdivide steps to at most this spacing

    def __post_init__(self):
        for name in ("mass", "t_end", "atol", "rtol", "h", "h_max", "record_dt"):
            value = getattr(self, name)
            # written so that NaN compares false and is rejected with inf
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.integrator not in ("dopri45", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass
class Trajectory:
    t: np.ndarray        # (N,)
    x: np.ndarray        # (N, dim)
    v: np.ndarray        # (N, dim)
    kinetic: np.ndarray  # (N,)  K = m |v|^2 / 2
    work: np.ndarray     # (N,)  cumulative integral of F . dx, work[0] = 0
    mass: float
    exited: bool
    exit_state: Optional[tuple]
    stats: IntegratorStats

    def __len__(self):
        return len(self.t)


def integrate(F, x0, v0, cfg):
    """Integrate m x'' = F(x) from (x0, v0) until t_end or domain exit."""
    dim = F.dimension
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != (dim,) or v0.shape != (dim,):
        raise DimensionMismatchError(
            f"x0/v0 must have dimension {dim}, got {x0.shape} and {v0.shape}"
        )
    if not F.domain.contains(x0):
        raise OutOfDomainError("initial position outside field domain", x0)

    m = cfg.mass
    lo = np.asarray(F.domain.lo)
    hi = np.asarray(F.domain.hi)

    def force(x):
        # trial stages probe past the wall before the guard truncates the
        # step; evaluate the smooth field there, and only if the expression
        # itself fails (singular just beyond the wall) fall back to the
        # box-clamped point
        try:
            return F.value_unchecked(x)
        except EvalDomainError:
            return F.value(np.clip(x, lo, hi))

    def rhs(t, y):
        return np.concatenate((y[dim:], force(y[:dim]) / m))

    def power(y):
        return float(np.dot(force(y[:dim]), y[dim:]))

    ts = [0.0]
    xs = [x0.copy()]
    vs = [v0.copy()]
    work = [0.0]

    def interval_work(dense, ta, tb, tha, thb, g_left, g_right):
        # Simpson on dense-output samples. For rk4 the panel width is tied
        # to the half-step, so the quadrature order matches the scheme and
        # the work-energy defect scales as h^4. For dopri45 panels are
        # doubled until the increment stabilizes below the controller's
        # own error budget (wide accepted steps would otherwise dominate).
        values = {0.0: g_left, 1.0: g_right}

        def g(u):
            if u not in values:
                values[u] = power(dense(tha + u * (thb - tha)))
            return values[u]

        def composite(n):
            total = 0.0
            w = 1.0 / n
            for j in range(n):
                a = j * w
                total += g(a) + 4.0 * g(a + 0.5 * w) + g(a + w)
            return total * (tb - ta) * w / 6.0

        if cfg.integrator == "rk4":
            return composite(2)
        tol = max(1e-16, cfg.atol * (tb - ta) / cfg.t_end)
        prev = None
        n = 1
        while True:
            total = composite(n)
            if prev is not None and (abs(total - prev) <= tol or n >= 512):
                return total
            prev = total
            n *= 2

    def on_step(t0, y0, t1, y1, dense):
        span = t1 - t0
        pieces = 1
        if cfg.record_dt is not None and span > cfg.record_dt:
            # tolerate float fuzz so a step of nominally record_dt width
            # does not get split in two
            pieces = max(1, int(math.ceil(span / cfg.record_dt - 1e-9)))
        g_left = power(y0)
        for i in range(1, pieces + 1):
            ta = t0 + span * (i - 1) / pieces
            tb = t0 + span * i / pieces
            tha, thb = (i - 1) / pieces, i / pieces
            yb = y1 if i == pieces else dense(thb)
            g_right = power(yb)
            work.append(
                work[-1] + interval_work(dense, ta, tb, tha, thb, g_left, g_right)
            )
            ts.append(tb)
            xs.append(yb[:dim].copy())
            vs.append(yb[dim:].copy())
            g_left = g_right

    inside = lambda y: F.domain.contains(y[:dim])
    y0 = np.concatenate((x0, v0))
    if cfg.integrator == "dopri45":
        res = integrate_dopri45(
            rhs,
            0.0,
            y0,
            cfg.t_end,
            atol=cfg.atol,
            rtol=cfg.rtol,
            h_max=cfg.h_max,
            inside=inside,
            on_step=on_step,
        )
    else:
        res = integrate_rk4(
            rhs, 0.0, y0, cfg.t_end, cfg.h, inside=inside, on_step=on_step
        )

    t_arr = np.array(ts)
    v_arr = np.array(vs)
    kinetic = 0.5 * m * np.sum(v_arr * v_arr, axis=1)
    exit_state = None
    if res.exited:
        exit_state = (res.t, res.y[:dim].copy())
    return Trajectory(
        t=t_arr,
        x=np.array(xs),
        v=v_arr,
        kinetic=kinetic,
        work=np.array(work),
        mass=m,
        exited=res.exited,
        exit_state=exit_state,
        stats=res.stats,
    )


def work_energy_residual(traj):
    """max over samples of |K(t) - K(0) - W_cum(t)|."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    return float(np.max(np.abs(traj.kinetic - traj.kinetic[0] - traj.work)))
