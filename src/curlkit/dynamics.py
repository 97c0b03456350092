"""Newtonian particle motion under a position-dependent force field.

The second-order system m x'' = F(x) is reduced to first order on (x, v).
Cumulative work along the numerical path is accumulated with Simpson's
rule on dense-output samples, one panel per recorded interval, keeping
the work-energy diagnostic at the integrator's own order: for every
produced trajectory max |K(t) - K(0) - W_cum(t)| stays at the tolerance
of the solver (fourth-order step scaling for fixed-step RK4).

The quadrature is deferred and batched. The step callback records each
interval (its ends in t and in the step's dense-output theta, the dense
output itself and the two boundary states); once ``QUAD_BLOCK``
intervals are pending, and at the end, the block is integrated at once.
Each doubling round evaluates the new nodes of every interval still
refining through one dense(theta-array) call per step and one batch
``F.values`` call, with the node thetas, composite sums, per-interval
convergence test and running work total of a per-node loop. Errors are
those of that loop: if anything in a block fails, the block is redone one
interval at a time with the pointwise force, and if the integrator raises,
the pending intervals are integrated first, so a node error from an
earlier step is the one raised.

The right-hand side and the step callback, run per stage and per step,
stay on Python floats: the force's ``value_unchecked`` tuple and the
integrator's state (see ``_ode``). States become arrays in the quadrature.

A step that lands outside the field's domain box is bisected to the
boundary (within 1e-10) and the trajectory is returned truncated with
``exited=True``; the example fields are singular on the coordinate axes,
so running into a wall is an expected outcome, not an exception.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._ode import IntegratorStats, integrate_dopri45, integrate_rk4
from .errors import EVAL_ERRORS, DimensionMismatchError, EvalDomainError, OutOfDomainError

# recorded intervals whose work is computed together; bounds the pending
# dense outputs and node values
QUAD_BLOCK = 128


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

    def force(x):
        # trial stages probe past the wall before the guard truncates the
        # step; evaluate the smooth field there, and only if the expression
        # itself fails (singular just beyond the wall) fall back to the
        # box-clamped point
        try:
            return F.value_unchecked(x)
        except EvalDomainError:
            return F.value(np.clip(x, F.domain.lo, F.domain.hi)).tolist()

    def rhs(t, y):
        return [*y[dim:], *[c / m for c in force(y[:dim])]]

    def pointwise_powers(Y):
        return np.array([float(np.dot(force(y[:dim]), y[dim:])) for y in Y])

    def batch_powers(Y):
        # matmul takes the kernel of np.dot, so each row rounds as in pointwise_powers
        return np.matmul(F.values(Y[:, :dim])[:, None, :], Y[:, dim:, None])[:, 0, 0]

    def block_work(block, powers):
        # Simpson on dense-output samples, one composite rule per recorded
        # interval of the block. For rk4 the panel width is tied to the
        # half-step, so the quadrature order matches the scheme and the
        # work-energy defect scales as h^4. For dopri45 panels are doubled
        # until the increment stabilizes below the controller's own error
        # budget (wide accepted steps would otherwise dominate). The
        # intervals still refining share one level, so a doubling round
        # makes one dense call per step and one ``powers`` call.
        ta, tb, tha, thb, denses, ya, yb = zip(*block)
        ta, tb, tha, thb = (np.array(c) for c in (ta, tb, tha, thb))
        tol = np.maximum(1e-16, cfg.atol * (tb - ta) / cfg.t_end)
        # g[i, j] is F.v at u = j / k on the i-th refining interval, that
        # is at the state dense(tha + u * (thb - tha))
        g = powers(np.array([y for pair in zip(ya, yb) for y in pair])).reshape(-1, 2)
        k = 1
        active = np.arange(len(block))
        out = np.empty(len(block))
        prev = None
        while active.size:
            u = np.arange(1, 2 * k, 2) / (2 * k)  # the new nodes, exact dyadics
            theta = tha[active, None] + u * (thb - tha)[active, None]
            states, pos = [], 0
            # the intervals cut from one step are adjacent and share its dense
            for dense, group in itertools.groupby(active, key=denses.__getitem__):
                size = len(list(group))
                states.append(dense(theta[pos : pos + size].ravel()))
                pos += size
            finer = np.empty((active.size, 2 * k + 1))
            finer[:, ::2] = g
            finer[:, 1::2] = powers(np.concatenate(states)).reshape(-1, k)
            g, k = finer, 2 * k
            n = k // 2  # Simpson panels
            if cfg.integrator == "rk4" and n < 2:
                continue
            # cumsum adds left to right, as a running total does
            panels = g[:, :-1:2] + 4.0 * g[:, 1::2] + g[:, 2::2]
            total = np.cumsum(panels, axis=1)[:, -1] * (tb - ta)[active] * (1.0 / n) / 6.0
            if prev is None:
                done = np.full(active.size, cfg.integrator == "rk4")
            else:
                done = (np.abs(total - prev) <= tol[active]) | (n >= 512)
            out[active[done]] = total[done]
            keep = ~done
            active, g, prev = active[keep], g[keep], total[keep]
        return out

    ts = [0.0]
    xs = [x0.copy()]
    vs = [v0.copy()]
    work = [0.0]
    pending = []  # (ta, tb, tha, thb, dense, y(ta), y(tb)) of each recorded interval

    def flush():
        block = pending.copy()
        pending.clear()  # a block that raises is not integrated again
        if not block:
            return
        try:
            increments = block_work(block, batch_powers)
        except EVAL_ERRORS:
            # redo the block one interval at a time with the pointwise force,
            # which meets the nodes in the order of a per-node loop and so
            # raises that loop's first error (or finishes, when the batch
            # only failed on a node past the domain box)
            increments = [block_work([iv], pointwise_powers)[0] for iv in block]
        for inc in increments:
            work.append(work[-1] + float(inc))

    def on_step(t0, y0, t1, y1, dense):
        span = t1 - t0
        pieces = 1
        if cfg.record_dt is not None and span > cfg.record_dt:
            # tolerate float fuzz so a step of nominally record_dt width
            # does not get split in two
            pieces = max(1, int(math.ceil(span / cfg.record_dt - 1e-9)))
        t = [t0 + span * j / pieces for j in range(pieces + 1)]
        theta = [j / pieces for j in range(pieces + 1)]
        try:
            inner = dense(np.array(theta[1:-1])) if pieces > 1 else None
        except EVAL_ERRORS:
            # only the rk4 end slope can fail here: take the pieces one at
            # a time, so that the ones before its first use are pending
            # when it raises, as their nodes came first in a per-node loop
            inner = None
        ya = y0
        for i in range(1, pieces + 1):
            if i == pieces:
                yb = y1
            else:
                yb = dense(theta[i]) if inner is None else inner[i - 1]
            pending.append((t[i - 1], t[i], theta[i - 1], theta[i], dense, ya, yb))
            ts.append(t[i])
            xs.append(yb[:dim])
            vs.append(yb[dim:])
            ya = yb
            if len(pending) == QUAD_BLOCK:
                flush()

    inside = lambda y: F.domain.contains(y[:dim])
    y0 = np.concatenate((x0, v0))
    try:
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
    except Exception:
        # a per-node loop would have met the pending nodes before this
        # failure, so an error among them comes first
        flush()
        raise
    flush()

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
