"""Zero-work reachability of force fields.

The constraint F . dx = 0 picks out the directions along which the field
does no work: a line field in 2D, a plane field in 3D. In 2D its integral
curves foliate the plane (for F = -V grad U they are level curves of U),
so nearby points off the local curve are unreachable without work. In 3D,
when the helicity F . curl F is nonzero, the plane field is
non-integrable and bracket maneuvers escape transversally: every nearby
point becomes reachable along zero-work paths.

``zero_work_trace_2d`` integrates the unit rotated field; a returned
trace is a dense polyline whose quadrature work is zero to discretization
order. ``bracket_maneuver_3d`` executes the flow square
exp(eps X) exp(eps Y) exp(-eps X) exp(-eps Y) of the kernel frame fields;
its transverse displacement scales as eps^2 times the normalized
helicity. That is the frame identity F . [X, Y] = -(curl F) . (X x Y):
with X x Y = F / |F|, the bracket's component along the normal is
-F . curl F / |F|^2.

Both right-hand sides return Python floats, so the dopri45 stages stay
on them (see ``_ode``). One helper, ``_frame``, builds the kernel frame
on floats from F's ``value_unchecked`` tuple; a leg's right-hand side and
each node of its Simpson work pass it the F they evaluated, and
``kernel_frame_3d`` returns its frame as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _ode
from ._ode import integrate_dopri45, sample_every
from .errors import DimensionMismatchError, NumericalError, OutOfDomainError, require_positive
from .pathwork import ParamPath

FIELD_FLOOR = 1e-12
FLOW_TOL = 1e-10           # atol and rtol of every zero-work flow
SAMPLES_PER_LEG = 32       # recorded points per leg of a bracket maneuver


@dataclass(frozen=True)
class KernelFrame:
    """Orthonormal basis (X, Y) of the zero-work plane at a point, with
    normal n = F / |F| completing the right-handed triple X x Y = n."""

    X: np.ndarray
    Y: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class ManeuverResult:
    endpoint: np.ndarray
    net_displacement: np.ndarray
    transverse: float      # displacement along the initial normal
    work: float            # quadrature along the executed flows
    eps: float
    path: np.ndarray       # sampled points of the four legs


@dataclass(frozen=True)
class ReachabilityVerdict:
    target: tuple
    distance: float
    reachable: bool


def _unit_perp_2d(F, x, floor):
    f = F.value_unchecked(x)
    norm = float(np.hypot(f[0], f[1]))
    if norm < floor:
        raise NumericalError(
            f"equilibrium point reached (|F| = {norm:.3e}) at {tuple(x)}"
        )
    return -f[1] / norm, f[0] / norm


def zero_work_trace_2d(F, x0, arclength, steps=4096, truncate_on_exit=False):
    """Trace the zero-work curve through x0 for +/- arclength.

    Returns a polyline ParamPath with roughly ``steps`` recorded points
    per direction. The work of F along it vanishes by construction; the
    returned discretization keeps the quadrature value at the chord
    sampling order (finer traces give smaller residual work).
    """
    if F.dimension != 2:
        raise DimensionMismatchError("zero-work tracing is the 2D construction")
    require_positive("arclength", arclength)
    if not 1 <= steps <= _ode._MAX_STEPS:
        # sample_every keeps a state row per sample: refuse more samples than the step cap
        raise ValueError(f"steps must be >= 1 and at most {_ode._MAX_STEPS}, got {steps!r}")
    x0 = np.asarray(x0, dtype=float)
    if not F.domain.contains(x0):
        raise OutOfDomainError("start point outside domain", x0)
    floor = FIELD_FLOOR * max(1.0, float(np.linalg.norm(F.value(x0))))

    def trace(sign):
        def rhs(s, x):
            a, b = _unit_perp_2d(F, x, floor)
            return sign * a, sign * b

        sample, rows = sample_every(arclength / steps, steps)
        res = integrate_dopri45(
            rhs,
            0.0,
            x0,
            arclength,
            atol=FLOW_TOL,
            rtol=FLOW_TOL,
            inside=F.domain.contains,
            on_step=sample,
        )
        if res.exited and not truncate_on_exit:
            raise OutOfDomainError(
                f"zero-work curve left the domain after arclength {res.t:.6g}", res.y
            )
        points = rows()  # (0, 0) when the trace took no sample
        if not len(points) or np.linalg.norm(points[-1] - res.y) > 1e-15:
            points = np.concatenate((points.reshape(-1, 2), res.y[None]))
        return points

    backward = trace(-1.0)
    forward = trace(+1.0)
    vertices = np.concatenate([backward[::-1], x0[None], forward])
    return ParamPath(2, vertices=vertices)


def distance_to_polyline(p, vertices):
    """Euclidean distance from p to the nearest segment of the polyline."""
    p = np.asarray(p, dtype=float)
    a = vertices[:-1]
    ab = np.diff(vertices, axis=0)
    denom = np.einsum("ij,ij->i", ab, ab)
    along = np.einsum("ij,ij->i", p - a, ab)
    # a zero-length segment projects onto its start point
    t = np.clip(np.divide(along, denom, out=np.zeros_like(along), where=denom != 0.0), 0.0, 1.0)
    return float(np.min(np.linalg.norm(p - (a + t[:, None] * ab), axis=1)))


# reachability_report_2d's default delta, as a fraction of the domain diameter
REACH_DELTA_FRACTION = 1e-4


def reachability_report_2d(F, x0, targets, delta=None, arclength=None, steps=4096):
    """Zero-work reachability verdicts: a target is reachable iff it lies
    within delta of the traced curve through x0 (both directions)."""
    diam = F.domain.diameter()
    if delta is None:
        delta = REACH_DELTA_FRACTION * diam
    require_positive("delta", delta)
    if arclength is None:
        arclength = 2.0 * diam
    trace = zero_work_trace_2d(F, x0, arclength, steps=steps, truncate_on_exit=True)
    verts = trace.vertices
    out = []
    for target in targets:
        target = tuple(float(c) for c in target)
        with np.errstate(over="ignore", invalid="ignore"):
            d = distance_to_polyline(target, verts)
        if not math.isfinite(d):  # a target too far out for the squared distances
            raise NumericalError(f"distance from target {target} to the trace is not finite")
        out.append(
            ReachabilityVerdict(
                target=target,
                distance=d,
                reachable=d <= delta,
            )
        )
    return out


def _least_aligned_axis(normal):
    # the first index of the smallest |component|, as np.argmin breaks ties
    return min(range(3), key=lambda i: abs(normal[i]))


def _frame(f, q, axis):
    """(n, X, Y) of the plane f . w = 0, f = F(q), as float tuples.

    X = normalize(e_k x n) and Y = n x X, with k = ``axis`` or, when it is
    None, the axis least aligned with n. A frozen ``axis`` that is no longer
    within 0.25 of least aligned is refused: the chart has changed (ties at
    the base point may resolve either way without harming smoothness).
    """
    f0, f1, f2 = f
    norm = math.sqrt(f0 * f0 + f1 * f1 + f2 * f2)
    if norm < FIELD_FLOOR:
        raise NumericalError(f"|F| below floor at {tuple(float(c) for c in q)}")
    n = (f0 / norm, f1 / norm, f2 / norm)
    if axis is None:
        axis = _least_aligned_axis(n)
    elif abs(n[axis]) > min(abs(c) for c in n) + 0.25:
        raise NumericalError("kernel frame axis flipped during the flow; reduce eps")
    # e_k x n has n_j at i and -n_i at j for (k, i, j) cyclic, and 0 at k
    i, j = (axis + 1) % 3, (axis + 2) % 3
    r = math.sqrt(n[i] * n[i] + n[j] * n[j])
    X = [0.0, 0.0, 0.0]
    X[i], X[j] = -n[j] / r, n[i] / r
    n0, n1, n2 = n
    a0, a1, a2 = X
    return n, tuple(X), (n1 * a2 - n2 * a1, n2 * a0 - n0 * a2, n0 * a1 - n1 * a0)


def kernel_frame_3d(F, x, axis=None):
    """Deterministic orthonormal frame of the plane F . w = 0.

    X = normalize(e_k x n) with e_k the standard axis least aligned with
    n = F/|F| (ties resolved to the smallest index), Y = n x X. A given
    ``axis`` is refused once it is 0.25 more aligned than the least, as on
    a maneuver's legs, whose float frame this returns as arrays.
    """
    if F.dimension != 3:
        raise DimensionMismatchError("kernel frames are the 3D construction")
    n, X, Y = _frame(F.value_unchecked(x), x, axis)
    return KernelFrame(X=np.array(X), Y=np.array(Y), normal=np.array(n))


def bracket_maneuver_3d(F, x0, eps):
    """Execute the four kernel flows (+X, +Y, -X, -Y), each for time eps.

    The frame is recomputed pointwise along each leg with the axis choice
    frozen at the leg start; if the least-aligned axis flips mid-leg the
    maneuver aborts (reduce eps). Work along each leg is accumulated by
    Simpson panels on the flow's steps, with one F per node shared with its
    frame, and stays at round-off: the instantaneous power F . dx/ds
    vanishes identically on the kernel.
    """
    if F.dimension != 3:
        raise DimensionMismatchError("bracket maneuvers are the 3D construction")
    require_positive("eps", eps)
    x0 = np.asarray(x0, dtype=float)
    if not F.domain.contains(x0):
        raise OutOfDomainError("start point outside domain", x0)
    n0 = kernel_frame_3d(F, x0).normal
    # one chart for the whole maneuver: X and Y must be the same two vector
    # fields on every leg or the commutator structure is lost
    k0 = _least_aligned_axis(n0)

    work_total = 0.0
    path_pts = [x0.copy()]
    x = x0
    # (index into the frame (n, X, Y), sign) of each leg
    for index, sign in ((1, 1.0), (2, 1.0), (1, -1.0), (2, -1.0)):

        def leg(q, _index=index, _sign=sign):
            # F at q, and the leg's direction there
            f = F.value_unchecked(q)
            return f, [_sign * c for c in _frame(f, q, k0)[_index]]

        def rhs(s, q):
            return leg(q)[1]

        def power(q):
            (f0, f1, f2), (d0, d1, d2) = leg(q)
            return f0 * d0 + f1 * d1 + f2 * d2

        leg_work = 0.0
        sample, rows = sample_every(eps / SAMPLES_PER_LEG, SAMPLES_PER_LEG)

        def on_step(s0, qa, s1, qb, dense):
            nonlocal leg_work
            leg_work += (s1 - s0) / 6.0 * (power(qa) + 4.0 * power(dense(0.5)) + power(qb))
            sample(s0, qa, s1, qb, dense)

        res = integrate_dopri45(
            rhs,
            0.0,
            x,
            eps,
            atol=FLOW_TOL,
            rtol=FLOW_TOL,
            inside=F.domain.contains,
            on_step=on_step,
        )
        if res.exited:
            raise OutOfDomainError("maneuver left the domain", res.y)
        x = res.y
        work_total += leg_work
        path_pts.extend(rows())
        path_pts.append(x.copy())

    displacement = x - x0
    return ManeuverResult(
        endpoint=x,
        net_displacement=displacement,
        transverse=float(np.dot(displacement, n0)),
        work=float(work_total),
        eps=eps,
        path=np.array(path_pts),
    )

