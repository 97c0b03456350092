"""Newtonian particle motion under a position-dependent force field.

The second-order system m x'' = F(x) is reduced to first order on (x, v).
Cumulative work along the numerical path is the integral of the work
1-form F . dx, taken on each recorded interval with the 3-node
Gauss-Legendre rule on the dense output. The rule is exact for quintic
integrands, so the work-energy diagnostic keeps the integrator's own
order: for every produced trajectory max |K(t) - K(0) - W_cum(t)| stays at
the tolerance of the solver (fourth-order step scaling for fixed-step
RK4). The nodes are interior, so the ends of an interval need no
evaluation.

A second vector field G may be given as ``form``. Its cumulative integral
of G . v dt is taken on the same nodes, from the same dense-output states,
as a second column next to F . v, and returned as ``form_work``; it costs
one batch ``G.values`` per block and no further step. The auxiliary
Hamiltonian of ``auxiliary`` accumulates its kinetic part this way.

The quadrature is batched, and so is the evaluation of its states. The
step callback makes no dense call and no NumPy call. It keeps, as plain
floats, its k intervals' times and widths and its end state, and hands
its dense output to an ``_ode.Record`` with each interval's three node
thetas and then its end theta (see ``_ode``). Once the record holds
``_ode._BLOCK_ROWS`` states (128 intervals), and at the end, the waiting
intervals are evaluated and integrated at once: one ``Record.rows`` for
the states at every waiting node and interval end, each the scalar dense
call's bits, of which each step's last end gives way to the step's exact
end state; one batch ``F.values`` (and ``G.values``); and one
``np.cumsum``, which adds an increment at a time. Errors are those of a
per-node loop that evaluates F, then G, at each node. rk4's end slope is
taken inside the callback, where a dense call at the step's nodes would
take it: the last node is past theta 1/2, and the guard has taken it for
a clipped step whose end theta alone is past 1/2. If anything in a block
fails, the block is redone one node at a time with the pointwise fields
on the evaluated states, and if the integrator raises, the waiting
intervals are integrated first, so a node error from an earlier step is
the one raised.

The right-hand side, run per stage, stays on Python floats with either
integrator: the force's ``value_unchecked`` tuple, bound once per
``integrate`` call, and the integrator's list state (see ``_ode``). States
become arrays in the block evaluator.

A step that lands outside the field's domain box is bisected to the
boundary (within 1e-10) and the trajectory is returned truncated with
``exited=True``; the example fields are singular on the coordinate axes,
so running into a wall is an expected outcome, not an exception. Trial
stages past the wall take ``value_unchecked``; where the field fails there
(an expression singular beyond the wall, or a sampler that tests the box,
as ``auxiliary``'s W gradient does), they take the box-clamped point.

Each piece of a step (one, or as many as ``record_dt`` asks) is recorded
as ``refine`` equal intervals, each with its own Gauss rule; an integrand
that varies faster than the motion (1/V near a wall) needs the finer
nodes on long steps. The recorded rows are capped at the integrators'
step cap: a step that would take them past it raises ``NumericalError``
before its rows are allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._ode import _MAX_STEPS, IntegratorStats, Record, integrate_dopri45, integrate_rk4
from .errors import (EVAL_ERRORS, DimensionMismatchError, EvalDomainError, NumericalError,
                     OutOfDomainError, require_positive)

# the 3-node Gauss-Legendre rule on [0, 1]: nodes and weights
_GAUSS_NODES = (0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15))
_GAUSS_WEIGHTS = np.array([5 / 18, 8 / 18, 5 / 18])


@dataclass(frozen=True)
class SimConfig:
    mass: float = 1.0
    integrator: str = "dopri45"  # dopri45 | rk4
    t_end: float = 1.0
    # atol, rtol and h_max are read by dopri45 only, h by rk4 only; the
    # integrator that does not read a field may leave it None
    atol: Optional[float] = 1e-9
    rtol: Optional[float] = 1e-9
    h_max: Optional[float] = None  # defaults to t_end / 10
    h: Optional[float] = 1e-3  # rk4 fixed step
    record_dt: Optional[float] = None  # subdivide steps to at most this spacing
    refine: int = 1  # record each piece of a step as this many equal intervals

    def __post_init__(self):
        for name in ("mass", "t_end", "atol", "rtol", "h", "h_max", "record_dt"):
            value = getattr(self, name)
            if value is not None:
                require_positive(name, value)
        if not math.isfinite(1.0 / self.mass):  # x'' = F / m
            raise ValueError(f"mass must have a finite reciprocal, got {self.mass!r}")
        if self.integrator not in ("dopri45", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        for name in ("h",) if self.integrator == "rk4" else ("atol", "rtol"):
            if getattr(self, name) is None:
                raise ValueError(f"{name} is required with integrator {self.integrator}")
        if not isinstance(self.refine, int) or self.refine < 1:
            raise ValueError(f"refine must be >= 1, got {self.refine!r}")


@dataclass
class Trajectory:
    t: np.ndarray        # (N,)
    x: np.ndarray        # (N, dim)
    v: np.ndarray        # (N, dim)
    kinetic: np.ndarray  # (N,)  K = m |v|^2 / 2
    work: np.ndarray     # (N,)  cumulative integral of F . dx, work[0] = 0
    form_work: Optional[np.ndarray]  # (N,) cumulative integral of G . dx, or None
    exited: bool
    exit_state: Optional[tuple]
    stats: IntegratorStats

    def __len__(self):
        return len(self.t)


def integrate(F, x0, v0, cfg, form=None):
    """Integrate m x'' = F(x) from (x0, v0) until t_end or domain exit.

    ``form``, a vector field G, adds the cumulative integral of G . v dt
    as ``Trajectory.form_work``; it is None without one.
    """
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
    fields = (F,) if form is None else (F, form)

    def clamped(field, x):
        # trial stages probe past the wall before the guard truncates the
        # step; they take the smooth field there, and only where it fails
        # (see the module docstring) the box-clamped point
        return field.value(np.clip(x, field.domain.lo, field.domain.hi)).tolist()

    force = F.value_unchecked  # bound once: the right-hand side runs per stage

    def rhs(t, y):
        x = y[:dim]
        try:
            f = force(x)
        except (EvalDomainError, OutOfDomainError):
            f = clamped(F, x)
        return [*y[dim:], *[c / m for c in f]]

    def power(field, y):
        try:
            f = field.value_unchecked(y[:dim])
        except (EvalDomainError, OutOfDomainError):
            f = clamped(field, y[:dim])
        return float(np.dot(f, y[dim:]))

    def node_powers(states):
        # node by node, each field in turn, in the order of a per-node loop;
        # one contiguous row per field, so the Gauss sums round as on a batch
        return np.array([[power(field, y) for field in fields] for y in states]).T.copy()

    def batch_powers(states):
        X, V = states[:, :dim], states[:, dim:, None]
        # matmul takes the kernel of np.dot, so each row rounds as in node_powers
        return np.array([np.matmul(field.values(X)[:, None, :], V)[:, 0, 0] for field in fields])

    y0 = np.concatenate((x0, v0))
    ts = [0.0]
    rows = [y0[None]]  # (x, v) rows, a block per flush
    sums = [[np.zeros(1)] for _ in fields]  # cumulative work, then form work
    # the waiting intervals' widths; per waiting step the index of its last
    # interval and its end state; their node and end states wait in ``record``
    widths, lasts, ends = [], [], []
    record = Record()
    grids = {}  # piece count -> the thetas recorded on a step

    def flush():
        if not widths:
            return
        # per interval its three nodes, then its end
        states = record.rows().reshape(len(widths), 4, 2 * dim)
        block = states[:, 3].copy()  # the state at each interval's end
        block[lasts] = ends
        rows.append(block)
        width = np.array(widths)
        for waiting in (widths, lasts, ends):
            waiting.clear()  # a block that raises is not integrated again
        states = states[:, :3].reshape(-1, 2 * dim)
        try:
            powers = batch_powers(states)
        except EVAL_ERRORS:
            # redo the block one node at a time with the pointwise fields,
            # which meet the nodes in the order of a per-node loop and so
            # raise that loop's first error (or finish, when the batch
            # only failed on a node past the domain box)
            powers = node_powers(states)
        # one 3-node Gauss-Legendre rule per recorded interval, with no
        # refinement. On an rk4 step it spans the joint of the two Hermite
        # pieces at theta = 1/2, its middle node, and the work-energy defect
        # keeps the scheme's h^4 slope (16.1 per halving of h, measured on
        # Berry's field); on a dopri45 step, whose dense output is a quartic,
        # the defect stays at the controller's tolerance
        for column, p in zip(sums, powers):
            increments = (p.reshape(-1, 3) @ _GAUSS_WEIGHTS) * width
            column.append(np.cumsum(np.concatenate((column[-1][-1:], increments)))[1:])

    def grid(pieces):
        # per interval its three nodes, then its end
        theta = [j / pieces for j in range(pieces + 1)]
        g1, g2, g3 = _GAUSS_NODES
        return [th for a, b in zip(theta, theta[1:])
                for th in (a + g1 * (b - a), a + g2 * (b - a), a + g3 * (b - a), b)]

    def on_step(t0, y0, t1, y1, dense):
        span = t1 - t0
        pieces = cfg.refine
        if cfg.record_dt is not None and span > cfg.record_dt:
            # tolerate float fuzz so a step of nominally record_dt width
            # does not get split in two; np.ceil, unlike math.ceil, passes
            # the infinite ratio of a subnormal record_dt on to the cap
            pieces *= max(1.0, np.ceil(span / cfg.record_dt - 1e-9))
        if len(ts) + pieces > _MAX_STEPS:
            raise NumericalError(
                f"more than {_MAX_STEPS} recorded rows by t={t1!r}; "
                "raise record_dt or lower refine"
            )
        pieces = int(pieces)
        if pieces not in grids:
            grids[pieces] = grid(pieces)
        thetas = grids[pieces]
        try:
            # takes rk4's end slope if a theta of the step needs it
            full = record.take(dense, thetas)
        except EVAL_ERRORS:
            # only the rk4 end slope can fail here: meet this step's points
            # as a per-node loop does, each piece's inner end before its
            # nodes, so that loop's first error is the one raised (on the way
            # out, the waiting intervals are integrated first)
            for i in range(pieces):
                if i + 1 < pieces:
                    dense(thetas[4 * i + 3])
                node_powers(map(dense, thetas[4 * i : 4 * i + 3]))
            raise
        t = [t0 + span * j / pieces for j in range(pieces + 1)]
        ts.extend(t[1:])
        widths.extend([b - a for a, b in zip(t, t[1:])])
        lasts.append(len(widths) - 1)
        ends.append(y1)
        if full:
            flush()

    # the guard's test: Box.contains reads the first dim elements of a state
    inside = F.domain.contains
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

    states = np.concatenate(rows)
    v = states[:, dim:]
    return Trajectory(
        t=np.array(ts),
        x=states[:, :dim],
        v=v,
        kinetic=0.5 * m * np.sum(v * v, axis=1),
        work=np.concatenate(sums[0]),
        form_work=None if form is None else np.concatenate(sums[1]),
        exited=res.exited,
        exit_state=(res.t, res.y[:dim].copy()) if res.exited else None,
        stats=res.stats,
    )


def work_energy_residual(traj):
    """max over samples of |K(t) - K(0) - W_cum(t)|."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    return float(np.max(np.abs(traj.kinetic - traj.kinetic[0] - traj.work)))
