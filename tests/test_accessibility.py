import numpy as np
import pytest

from curlkit import accessibility
from curlkit._ode import integrate_dopri45, sample_every
from curlkit.accessibility import (
    FIELD_FLOOR,
    FLOW_TOL,
    SAMPLES_PER_LEG,
    KernelFrame,
    ManeuverResult,
    _frame,
    bracket_maneuver_3d,
    distance_to_polyline,
    kernel_frame_3d,
    reachability_report_2d,
    zero_work_trace_2d,
)
from curlkit.errors import DimensionMismatchError, NumericalError, OutOfDomainError
from curlkit.fieldkit import Box, ScalarFieldDef, VectorFieldDef, curl
from curlkit.pathwork import line_work

DOM2 = Box((0.05, 0.05), (5.0, 5.0))


def berry_field():
    return VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=DOM2)


def chiral_field():
    return VectorFieldDef.from_source(["y", "0", "1"], 3, domain=Box((-2,) * 3, (2,) * 3))


def triple_field():
    return VectorFieldDef.from_source(
        ["-(y*z)", "-(2*x*z)", "-(x*y)"], 3, domain=Box((0.05,) * 3, (10,) * 3)
    )


# --- zero-work traces -------------------------------------------------------

def test_trace_stays_on_potential_level_set():
    # zero-work directions are F-orthogonal; for F = -V grad U they follow
    # level curves of U, here U(1,1) = -2
    F = berry_field()
    U = ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=DOM2)
    trace = zero_work_trace_2d(F, (1.0, 1.0), 0.5, steps=2000)
    u_dev = max(abs(U.value(p) + 2.0) for p in trace.vertices)
    assert u_dev <= 1e-6


def test_trace_work_vanishes_by_quadrature():
    F = berry_field()
    trace = zero_work_trace_2d(F, (1.0, 1.0), 0.5, steps=2000)
    assert abs(line_work(F, trace).value) <= 1e-8


def test_trace_on_circle_for_radial_field():
    F = VectorFieldDef.from_source(["2*x", "2*y"], 2, domain=Box((-2, -2), (2, 2)))
    trace = zero_work_trace_2d(F, (1.0, 0.0), 0.8, steps=1500)
    radii = np.linalg.norm(trace.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-6


def test_trace_covers_both_directions():
    F = VectorFieldDef.from_source(["2*x", "2*y"], 2, domain=Box((-2, -2), (2, 2)))
    trace = zero_work_trace_2d(F, (1.0, 0.0), 0.3, steps=500)
    angles = np.arctan2(trace.vertices[:, 1], trace.vertices[:, 0])
    assert angles.min() < -0.29 and angles.max() > 0.29


def test_trace_records_steps_points_per_direction():
    # a spacing of 1e-16, below the 1e-15 by which a step end reaches a
    # sample time, took 10 points past the arclength in each direction
    trace = zero_work_trace_2d(berry_field(), (1.0, 1.0), 1e-12, steps=10000)
    assert len(trace.vertices) == 2 * 10000 + 1


def test_trace_equilibrium_rejected():
    F = VectorFieldDef.from_source(["2*x", "2*y"], 2, domain=Box((-2, -2), (2, 2)))
    with pytest.raises(NumericalError):
        zero_work_trace_2d(F, (0.0, 0.0), 0.5)


def test_trace_domain_exit_raises_unless_truncating():
    F = VectorFieldDef.from_source(["0", "1"], 2, domain=Box((0, 0), (1, 1)))
    # zero-work curve of (0,1) is horizontal, leaves the unit box quickly
    with pytest.raises(OutOfDomainError):
        zero_work_trace_2d(F, (0.5, 0.5), 2.0)
    trace = zero_work_trace_2d(F, (0.5, 0.5), 2.0, truncate_on_exit=True)
    assert 0.0 <= trace.vertices[:, 0].min() <= 1e-8
    assert 1.0 - 1e-8 <= trace.vertices[:, 0].max() <= 1.0


# --- reachability ------------------------------------------------------------

def level_point(x):
    # solve -(1/x + 1/y) = -2 for y
    return x / (2.0 * x - 1.0)


def test_reachability_on_and_off_level():
    F = berry_field()
    targets = [
        (1.2, level_point(1.2)),   # on the curve through (1,1)
        (0.8, level_point(0.8)),
        (1.1, 1.1),                # off the curve: U = -2/1.1
        (1.5, 1.5),
    ]
    verdicts = reachability_report_2d(F, (1.0, 1.0), targets, arclength=3.0, steps=6000)
    assert verdicts[0].reachable
    assert verdicts[1].reachable
    assert not verdicts[2].reachable
    assert not verdicts[3].reachable
    assert verdicts[2].distance > 0.05


def test_reachability_conservative_circle():
    F = VectorFieldDef.from_source(["2*x", "2*y"], 2, domain=Box((-2, -2), (2, 2)))
    verdicts = reachability_report_2d(
        F, (1.0, 0.0), [(0.0, 1.0), (1.5, 0.0)], arclength=7.0, steps=6000
    )
    assert verdicts[0].reachable        # same circle
    assert not verdicts[1].reachable    # different radius


def test_distance_to_polyline():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    assert distance_to_polyline((0.5, 0.3), verts) == pytest.approx(0.3)
    assert distance_to_polyline((2.0, 1.0), verts) == pytest.approx(1.0)


def test_distance_to_polyline_matches_segment_loop():
    def segment_loop(p, vertices):
        best = np.inf
        for a, b in zip(vertices[:-1], vertices[1:]):
            ab = b - a
            denom = float(np.dot(ab, ab))
            t = 0.0 if denom == 0.0 else float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
            best = min(best, float(np.linalg.norm(p - (a + t * ab))))
        return best

    rng = np.random.default_rng(11)
    verts = np.cumsum(rng.normal(size=(300, 2)), axis=0)
    verts[40] = verts[41]  # a zero-length segment
    for p in rng.normal(scale=5.0, size=(50, 2)):
        assert abs(distance_to_polyline(p, verts) - segment_loop(p, verts)) <= 1e-15 * max(
            1.0, segment_loop(p, verts)
        )


# --- kernel frames -------------------------------------------------------------

def check_frame(frame, f_value):
    assert abs(np.dot(f_value, frame.X)) <= 1e-12 * max(1, np.linalg.norm(f_value))
    assert abs(np.dot(f_value, frame.Y)) <= 1e-12 * max(1, np.linalg.norm(f_value))
    assert np.linalg.norm(frame.X) == pytest.approx(1.0, abs=1e-13)
    assert np.linalg.norm(frame.Y) == pytest.approx(1.0, abs=1e-13)
    assert abs(np.dot(frame.X, frame.Y)) <= 1e-13
    assert np.cross(frame.X, frame.Y) == pytest.approx(frame.normal, abs=1e-13)


def test_frame_vertical_field():
    F = VectorFieldDef.from_source(["0", "0", "1"], 3, domain=Box((-1,) * 3, (1,) * 3))
    frame = kernel_frame_3d(F, (0.1, 0.1, 0.1))
    check_frame(frame, np.array([0.0, 0.0, 1.0]))
    assert abs(frame.X[2]) <= 1e-15  # frame lies in the xy-plane
    assert abs(frame.Y[2]) <= 1e-15


def test_frame_chiral_at_x_axis():
    F = chiral_field()
    frame = kernel_frame_3d(F, (1.0, 0.0, 0.0))  # F = (0,0,1) here
    check_frame(frame, np.array([0.0, 0.0, 1.0]))


def test_frame_invariants_at_random_points():
    F = triple_field()
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = rng.uniform(0.5, 2.0, 3)
        frame = kernel_frame_3d(F, p)
        check_frame(frame, F.value(p))


def test_frame_rejects_equilibrium():
    F = VectorFieldDef.from_source(["x", "y", "z"], 3, domain=Box((-1,) * 3, (1,) * 3))
    with pytest.raises(NumericalError):
        kernel_frame_3d(F, (0.0, 0.0, 0.0))


def test_frame_rejects_2d():
    with pytest.raises(DimensionMismatchError):
        kernel_frame_3d(berry_field(), (1.0, 1.0))


# --- bracket maneuvers -----------------------------------------------------------

def test_maneuver_transverse_quadratic_scaling():
    F = chiral_field()
    r1 = bracket_maneuver_3d(F, (0.0, 0.0, 0.0), 0.1)
    r2 = bracket_maneuver_3d(F, (0.0, 0.0, 0.0), 0.05)
    assert abs(r1.transverse) / abs(r2.transverse) == pytest.approx(4.0, abs=0.4)
    # helicity -1, |F| = 1: the leading term is +eps^2 along the normal
    assert r1.transverse == pytest.approx(0.01, rel=0.02)


def test_maneuver_work_negligible():
    F = chiral_field()
    res = bracket_maneuver_3d(F, (0.0, 0.0, 0.0), 0.1)
    assert abs(res.work) <= 1e-8
    res = bracket_maneuver_3d(triple_field(), (1.0, 1.0, 1.0), 0.1)
    assert abs(res.work) <= 1e-8


def test_maneuver_conservative_stays_on_plane():
    # F = grad(x+y+z): the kernel planes integrate to level planes
    F = VectorFieldDef.from_source(["1", "1", "1"], 3, domain=Box((-2,) * 3, (2,) * 3))
    res = bracket_maneuver_3d(F, (0.0, 0.0, 0.0), 0.1)
    plane_dev = abs(np.sum(res.endpoint)) / np.sqrt(3.0)
    assert plane_dev <= 1e-8
    assert abs(res.transverse) <= 1e-10


def test_maneuver_zero_helicity_higher_order():
    # complex-lamellar field: transverse displacement falls at third order
    # or better under eps halving (or is numerically zero)
    F = triple_field()
    r1 = bracket_maneuver_3d(F, (1.0, 1.0, 1.0), 0.1)
    r2 = bracket_maneuver_3d(F, (1.0, 1.0, 1.0), 0.05)
    if abs(r1.transverse) > 1e-10 or abs(r2.transverse) > 1e-10:
        assert abs(r1.transverse) / abs(r2.transverse) >= 7.0


def test_maneuver_path_sampled():
    res = bracket_maneuver_3d(chiral_field(), (0.0, 0.0, 0.0), 0.1)
    assert res.path.shape[1] == 3
    assert len(res.path) >= 4 * 32
    assert res.path[0] == pytest.approx([0.0, 0.0, 0.0])
    assert res.path[-1] == pytest.approx(res.endpoint)


# --- frame identity ---------------------------------------------------------------

def frame_bracket_defect(F, x, step=1e-5):
    """(lhs, rhs, |lhs - rhs|) of F . [X, Y] = -(curl F) . (X x Y), with the
    Lie bracket of the frame fields central-differenced and the frame's axis
    frozen at x (the frame is smooth there)."""
    x = np.asarray(x, dtype=float)
    base = kernel_frame_3d(F, x)
    k = int(np.argmin(np.abs(base.normal)))
    JX, JY = np.empty((3, 3)), np.empty((3, 3))
    for j in range(3):
        dq = np.eye(3)[j] * step
        plus, minus = kernel_frame_3d(F, x + dq, axis=k), kernel_frame_3d(F, x - dq, axis=k)
        JX[:, j] = (plus.X - minus.X) / (2 * step)
        JY[:, j] = (plus.Y - minus.Y) / (2 * step)
    lhs = float(np.dot(F.value(x), JY @ base.X - JX @ base.Y))
    rhs = -float(np.dot(curl(F, x), np.cross(base.X, base.Y)))
    return lhs, rhs, abs(lhs - rhs)


def test_frame_identity_ties_bracket_to_helicity():
    # F . [X, Y] = -(curl F) . (X x Y); with X x Y = F/|F| this reads
    # F . [X, Y] * |F| = -F . curl F
    for F, box in [
        (chiral_field(), (0.5, 1.5)),
        (triple_field(), (0.5, 2.0)),
    ]:
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.uniform(box[0], box[1], 3)
            lhs, rhs, defect = frame_bracket_defect(F, p)
            assert defect <= 1e-5
            norm = np.linalg.norm(F.value(p))
            helicity = float(np.dot(F.value(p), curl(F, p)))
            assert lhs * norm == pytest.approx(-helicity, abs=1e-5 * max(1, norm))


# --- the float maneuver against the NumPy one ----------------------------------------

def np_kernel_frame_3d(F, x, axis=None):
    """The kernel frame as built on NumPy arrays before the maneuver moved to
    Python floats: the reference of the float frame."""
    x = np.asarray(x, dtype=float)
    f = np.array(F.value_unchecked(x))
    norm = float(np.linalg.norm(f))
    if norm < FIELD_FLOOR:
        raise NumericalError(f"|F| below floor at {tuple(x)}")
    n = f / norm
    k = int(np.argmin(np.abs(n))) if axis is None else axis
    e = np.zeros(3)
    e[k] = 1.0
    X = np.cross(e, n)
    X /= np.linalg.norm(X)
    Y = np.cross(n, X)
    return KernelFrame(X=X, Y=Y, normal=n)


def np_bracket_maneuver_3d(F, x0, eps, integrate=integrate_dopri45):
    """``bracket_maneuver_3d`` with the array ``leg_field`` and the array
    Simpson it had before it moved to Python floats."""
    x0 = np.asarray(x0, dtype=float)
    n0 = np_kernel_frame_3d(F, x0).normal
    k0 = int(np.argmin(np.abs(n0)))

    def leg_field(q, name):
        frame = np_kernel_frame_3d(F, q, axis=k0)
        n = np.abs(frame.normal)
        if n[k0] > n.min() + 0.25:
            raise NumericalError("kernel frame axis flipped during the flow; reduce eps")
        return frame.X if name == "X" else frame.Y

    work_total = 0.0
    path_pts = [x0.copy()]
    x = x0.copy()
    for name, sign in [("X", +1.0), ("Y", +1.0), ("X", -1.0), ("Y", -1.0)]:

        def rhs(s, q, _name=name, _sign=sign):
            return _sign * leg_field(q, _name)

        leg_work = 0.0
        sample, rows = sample_every(eps / SAMPLES_PER_LEG, SAMPLES_PER_LEG)

        def on_step(s0, qa, s1, qb, dense, _name=name, _sign=sign):
            nonlocal leg_work
            qm = dense(0.5)
            ga = float(np.dot(F.value_unchecked(qa), _sign * leg_field(qa, _name)))
            gm = float(np.dot(F.value_unchecked(qm), _sign * leg_field(qm, _name)))
            gb = float(np.dot(F.value_unchecked(qb), _sign * leg_field(qb, _name)))
            leg_work += (s1 - s0) / 6.0 * (ga + 4.0 * gm + gb)
            sample(s0, qa, s1, qb, dense)

        res = integrate(rhs, 0.0, x, eps, atol=FLOW_TOL, rtol=FLOW_TOL,
                        inside=F.domain.contains, on_step=on_step)
        x = res.y
        work_total += leg_work
        path_pts.extend(rows())
        path_pts.append(x.copy())

    displacement = x - x0
    return ManeuverResult(endpoint=x, net_displacement=displacement,
                          transverse=float(np.dot(displacement, n0)), work=work_total,
                          eps=eps, path=np.array(path_pts))


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.025])
@pytest.mark.parametrize("make,x0", [
    (triple_field, (1.0, 1.0, 1.0)),
    (triple_field, (1.0, 2.0, 1.5)),
    (chiral_field, (0.5, 0.5, 0.5)),
    (chiral_field, (1.0, -0.3, 0.2)),
], ids=["triple-111", "triple-121.5", "chiral-half", "chiral-off"])
def test_float_maneuver_is_the_numpy_maneuver_to_round_off(make, x0, eps):
    F = make()
    got, want = bracket_maneuver_3d(F, x0, eps), np_bracket_maneuver_3d(F, x0, eps)
    assert np.max(np.abs(got.endpoint - want.endpoint)) <= 1e-15
    assert abs(got.transverse - want.transverse) <= 1e-15
    assert got.path.shape == want.path.shape
    assert np.max(np.abs(got.path - want.path)) <= 1e-15
    assert abs(got.work) <= 1e-16


def tilting_field():
    # n = (x, 1, 1)/|F|: least aligned along x at x = 0.1; a Y leg runs along
    # x, and past x of about 1.5 the frozen x axis is 0.25 more aligned
    return VectorFieldDef.from_source(["x", "1", "1"], 3, domain=Box((-5,) * 3, (5,) * 3))


def test_axis_flip_is_refused_on_the_numpy_maneuver_s_leg(monkeypatch):
    F = tilting_field()
    legs = []

    def counting(*args, **kwargs):
        legs.append(len(legs) + 1)
        return integrate_dopri45(*args, **kwargs)

    with pytest.raises(NumericalError, match="kernel frame axis flipped") as want:
        np_bracket_maneuver_3d(F, (0.1, 0.0, 0.0), 2.0, integrate=counting)
    want_leg = legs[-1]
    legs.clear()
    monkeypatch.setattr(accessibility, "integrate_dopri45", counting)
    with pytest.raises(NumericalError) as got:
        bracket_maneuver_3d(F, (0.1, 0.0, 0.0), 2.0)
    assert str(got.value) == str(want.value)
    assert legs[-1] == want_leg == 2  # the first Y leg
    # a shorter maneuver keeps the chart
    bracket_maneuver_3d(F, (0.1, 0.0, 0.0), 0.2)


@pytest.mark.parametrize("make", [triple_field, chiral_field, tilting_field])
def test_kernel_frame_3d_is_the_float_frame(make):
    F = make()
    rng = np.random.default_rng(5)
    for p in rng.uniform(0.2, 1.8, (50, 3)):
        frame = kernel_frame_3d(F, p)
        n, X, Y = _frame(F.value_unchecked(p), p, None)
        assert frame.normal.tolist() == list(n)
        assert frame.X.tolist() == list(X)
        assert frame.Y.tolist() == list(Y)
        # |F| and |X| are summed in another order than NumPy's: a few ulps
        want = np_kernel_frame_3d(F, p)
        for a, b in ((frame.normal, want.normal), (frame.X, want.X), (frame.Y, want.Y)):
            assert np.max(np.abs(a - b)) <= 4 * np.finfo(float).eps


# --- the paper's 3D dichotomy --------------------------------------------------------

def test_chiral_bracket_escapes_at_the_normalized_helicity():
    # (y, 0, 1) at (0.5, 0.5, 0.5): -F . curl F / |F|^2 = 1 / 1.25 = 0.8, and
    # transverse / eps^2 tends to it at first order in eps
    F = chiral_field()
    epss = [0.2, 0.1, 0.05, 0.025, 0.0125]
    defects = [abs(bracket_maneuver_3d(F, (0.5, 0.5, 0.5), eps).transverse / eps**2 - 0.8)
               for eps in epss]
    ratios = [a / b for a, b in zip(defects, defects[1:])]
    assert all(1.8 <= r <= 2.2 for r in ratios), ratios


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_two_potential_bracket_keeps_u_constant(eps):
    # the triple field is -(1/y) grad(x y^2 z): its kernel planes are tangent
    # to the level sets of U = x y^2 z, so every zero-work path keeps U
    res = bracket_maneuver_3d(triple_field(), (1.0, 1.0, 1.0), eps)
    x, y, z = res.path.T
    assert np.max(np.abs(x * y * y * z - 1.0)) <= 1e-11
