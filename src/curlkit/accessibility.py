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
helicity, which the frame identity F . [X, Y] = -(curl F) . (X x Y)
makes exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fieldkit
from ._ode import integrate_dopri45, sample_every
from .errors import DimensionMismatchError, NumericalError, OutOfDomainError
from .pathwork import ParamPath, _cross3

FIELD_FLOOR = 1e-12
FLOW_TOL = 1e-10           # atol and rtol of every zero-work flow
SAMPLES_PER_LEG = 32       # recorded points per leg of a bracket maneuver
BRACKET_FD_STEP = 1e-5     # central-difference step of frame_bracket_defect


@dataclass(frozen=True)
class KernelFrame:
    """Orthonormal basis (X, Y) of the zero-work plane at a point, with
    normal n = F / |F| completing the right-handed triple X x Y = n."""

    point: tuple
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
    return np.array([-f[1], f[0]]) / norm


def zero_work_trace_2d(F, x0, arclength, steps=4096, truncate_on_exit=False):
    """Trace the zero-work curve through x0 for +/- arclength.

    Returns a polyline ParamPath with roughly ``steps`` recorded points
    per direction. The work of F along it vanishes by construction; the
    returned discretization keeps the quadrature value at the chord
    sampling order (finer traces give smaller residual work).
    """
    if F.dimension != 2:
        raise DimensionMismatchError("zero-work tracing is the 2D construction")
    x0 = np.asarray(x0, dtype=float)
    if not F.domain.contains(x0):
        raise OutOfDomainError("start point outside domain", x0)
    floor = FIELD_FLOOR * max(1.0, float(np.linalg.norm(F.value(x0))))

    def trace(sign):
        def rhs(s, x):
            return sign * _unit_perp_2d(F, x, floor)

        pts = []
        res = integrate_dopri45(
            rhs,
            0.0,
            x0,
            arclength,
            atol=FLOW_TOL,
            rtol=FLOW_TOL,
            inside=lambda x: F.domain.contains(x),
            on_step=sample_every(arclength / max(1, int(steps)), pts.append),
        )
        if res.exited and not truncate_on_exit:
            raise OutOfDomainError(
                f"zero-work curve left the domain after arclength {res.t:.6g}", res.y
            )
        if not pts or np.linalg.norm(pts[-1] - res.y) > 1e-15:
            pts.append(res.y)
        return pts

    backward = trace(-1.0)
    forward = trace(+1.0)
    vertices = np.array(backward[::-1] + [x0] + forward)
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


def reachability_report_2d(F, x0, targets, delta=None, arclength=None, steps=4096):
    """Zero-work reachability verdicts: a target is reachable iff it lies
    within delta of the traced curve through x0 (both directions)."""
    diam = F.domain.diameter()
    if delta is None:
        delta = 1e-4 * diam
    if arclength is None:
        arclength = 2.0 * diam
    trace = zero_work_trace_2d(F, x0, arclength, steps=steps, truncate_on_exit=True)
    verts = trace.vertices
    out = []
    for target in targets:
        d = distance_to_polyline(target, verts)
        out.append(
            ReachabilityVerdict(
                target=tuple(float(c) for c in target),
                distance=d,
                reachable=d <= delta,
            )
        )
    return out


def _least_aligned_axis(normal):
    return int(np.argmin(np.abs(normal)))


def kernel_frame_3d(F, x, axis=None):
    """Deterministic orthonormal frame of the plane F . w = 0.

    X = normalize(e_k x n) with e_k the standard axis least aligned with
    n = F/|F| (ties resolved to the smallest index), Y = n x X.
    """
    if F.dimension != 3:
        raise DimensionMismatchError("kernel frames are the 3D construction")
    x = np.asarray(x, dtype=float)
    f = np.array(F.value_unchecked(x))
    norm = float(np.linalg.norm(f))
    if norm < FIELD_FLOOR:
        raise NumericalError(f"|F| below floor at {tuple(x)}")
    n = f / norm
    k = _least_aligned_axis(n) if axis is None else axis
    e = np.zeros(3)
    e[k] = 1.0
    X = _cross3(e, n)
    X /= np.linalg.norm(X)
    Y = _cross3(n, X)
    return KernelFrame(point=tuple(float(c) for c in x), X=X, Y=Y, normal=n)


def bracket_maneuver_3d(F, x0, eps):
    """Execute the four kernel flows (+X, +Y, -X, -Y), each for time eps.

    The frame is recomputed pointwise along each leg with the axis choice
    frozen at the leg start; if the least-aligned axis flips mid-leg the
    maneuver aborts (reduce eps). Work along each leg is accumulated by
    Simpson panels on the flow samples and stays at round-off: the
    instantaneous power F . dx/ds vanishes identically on the kernel.
    """
    if F.dimension != 3:
        raise DimensionMismatchError("bracket maneuvers are the 3D construction")
    x0 = np.asarray(x0, dtype=float)
    if not F.domain.contains(x0):
        raise OutOfDomainError("start point outside domain", x0)
    base = kernel_frame_3d(F, x0)
    n0 = base.normal
    # one chart for the whole maneuver: X and Y must be the same two vector
    # fields on every leg or the commutator structure is lost
    k0 = _least_aligned_axis(n0)

    def leg_field(q, name):
        frame = kernel_frame_3d(F, q, axis=k0)
        n = np.abs(frame.normal)
        # ties at the base point may resolve either way without harming
        # frame smoothness; abort only when the frozen axis is no longer
        # close to least aligned (the chart has genuinely changed)
        if n[k0] > n.min() + 0.25:
            raise NumericalError(
                "kernel frame axis flipped during the flow; reduce eps"
            )
        return frame.X if name == "X" else frame.Y

    work_total = 0.0
    path_pts = [x0.copy()]
    x = x0.copy()
    legs = [("X", +1.0), ("Y", +1.0), ("X", -1.0), ("Y", -1.0)]
    for name, sign in legs:

        def rhs(s, q, _name=name, _sign=sign):
            return _sign * leg_field(q, _name)

        leg_work = 0.0
        leg_pts = []
        sample = sample_every(eps / SAMPLES_PER_LEG, leg_pts.append)

        def on_step(s0, qa, s1, qb, dense, _name=name, _sign=sign):
            nonlocal leg_work
            qm = dense(0.5)
            ga = float(np.dot(F.value_unchecked(qa), _sign * leg_field(qa, _name)))
            gm = float(np.dot(F.value_unchecked(qm), _sign * leg_field(qm, _name)))
            gb = float(np.dot(F.value_unchecked(qb), _sign * leg_field(qb, _name)))
            leg_work += (s1 - s0) / 6.0 * (ga + 4.0 * gm + gb)
            sample(s0, qa, s1, qb, dense)

        res = integrate_dopri45(
            rhs,
            0.0,
            x,
            eps,
            atol=FLOW_TOL,
            rtol=FLOW_TOL,
            inside=lambda q: F.domain.contains(q),
            on_step=on_step,
        )
        if res.exited:
            raise OutOfDomainError("maneuver left the domain", res.y)
        x = res.y
        work_total += leg_work
        leg_pts.append(x.copy())
        path_pts.extend(leg_pts)

    displacement = x - x0
    return ManeuverResult(
        endpoint=x,
        net_displacement=displacement,
        transverse=float(np.dot(displacement, n0)),
        work=float(work_total),
        eps=eps,
        path=np.array(path_pts),
    )


def frame_bracket_defect(F, x):
    """Numerical check of F . [X, Y] = -(curl F) . (X x Y).

    The Lie bracket of the frame fields is finite-differenced with the
    axis choice frozen at the base point (the frame is smooth there);
    returns (lhs, rhs, defect).
    """
    x = np.asarray(x, dtype=float)
    base = kernel_frame_3d(F, x)
    k = _least_aligned_axis(base.normal)

    def frame_at(q):
        fr = kernel_frame_3d(F, q, axis=k)
        return fr.X, fr.Y

    JX = np.empty((3, 3))
    JY = np.empty((3, 3))
    for j in range(3):
        dq = np.zeros(3)
        dq[j] = BRACKET_FD_STEP
        Xp, Yp = frame_at(x + dq)
        Xm, Ym = frame_at(x - dq)
        JX[:, j] = (Xp - Xm) / (2 * BRACKET_FD_STEP)
        JY[:, j] = (Yp - Ym) / (2 * BRACKET_FD_STEP)

    bracket = JY @ base.X - JX @ base.Y
    lhs = float(np.dot(F.value_unchecked(x), bracket))
    rhs = -float(np.dot(fieldkit.curl(F, x), _cross3(base.X, base.Y)))
    return lhs, rhs, abs(lhs - rhs)
