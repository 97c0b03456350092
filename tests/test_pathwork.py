import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from curlkit.errors import (
    DimensionMismatchError,
    EvalDomainError,
    NumericalError,
    OutOfDomainError,
)
from curlkit import exprlang, pathwork
from curlkit.fieldkit import Box, VectorFieldDef
from curlkit.pathwork import (
    ParamPath,
    WorkResult,
    line_work,
    stokes_work,
)

REPEATABLE = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def berry_field(lo=-1.0, hi=6.0):
    return VectorFieldDef.from_source(
        ["-x*y^2", "-x^3"], 2, domain=Box((lo, lo), (hi, hi))
    )


def unit_square():
    return ParamPath.polyline([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])


def param_path(sources, constants=None, closed=None):
    """The 2D path of the expressions in s, as a problem file declares one."""
    constants = dict(constants or {})
    trees = [exprlang.parse_in_variables(src, ("s",), set(constants)) for src in sources]
    return ParamPath(2, trees=trees, constants=constants, closed=closed)


def reverse(path):
    """s -> c(1 - s), with the closed flag kept."""
    if path.is_polyline:
        return ParamPath(path.dimension, vertices=path.vertices[::-1], closed=path.closed)
    one_minus_s = exprlang.parse_in_variables("1 - s", ("s",))
    trees = [exprlang.substitute(t, "s", one_minus_s) for t in path.trees]
    return ParamPath(path.dimension, trees=trees, constants=path.constants, closed=path.closed)


def tangent(path, s):
    """dc/ds of a parametric path, from the partials line_work reads."""
    return np.array([exprlang.eval_at(t.partials[0], (s,), path.constants) for t in path.trees])


# --- the 7-point triangle rule is degree 5 -------------------------------------

def test_triangle_rule_exact_through_degree_5():
    from curlkit.pathwork import _TRI_POINTS

    import math as m

    def exact(p, q):
        # integral of x^p y^q over the unit triangle x,y >= 0, x + y <= 1
        return m.factorial(p) * m.factorial(q) / m.factorial(p + q + 2)

    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])
    c = np.array([0.0, 1.0])
    for p in range(6):
        for q in range(6 - p):
            total = 0.0
            for bary, w in _TRI_POINTS:
                pt = bary[0] * a + bary[1] * b + bary[2] * c
                total += w * pt[0] ** p * pt[1] ** q
            total *= 0.5  # triangle area
            assert total == pytest.approx(exact(p, q), abs=1e-15), (p, q)


def test_gauss_rule_exact_through_degree_9():
    from curlkit.pathwork import _GL_NODES, _GL_WEIGHTS

    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert _GL_NODES == pytest.approx(nodes, abs=1e-15)
    assert _GL_WEIGHTS == pytest.approx(weights, abs=1e-15)
    for p in range(10):
        exact = (1 - (-1) ** (p + 1)) / (p + 1)  # integral of x^p over [-1, 1]
        assert float(np.dot(_GL_WEIGHTS, _GL_NODES**p)) == pytest.approx(exact, abs=1e-15), p


# --- paths ----------------------------------------------------------------------

def test_polyline_point_and_velocity():
    p = ParamPath.polyline([[0, 0], [1, 0], [1, 1]])
    assert p.point(0.25) == pytest.approx([0.5, 0.0])
    assert p.point(0.75) == pytest.approx([1.0, 0.5])
    assert not p.closed


def test_parametric_point_and_velocity():
    tau = 2 * math.pi
    p = param_path(["cos(tau*s)", "sin(tau*s)"], constants={"tau": tau}, closed=True)
    assert p.closed
    assert p.point(0.25) == pytest.approx([0.0, 1.0], abs=1e-15)
    assert tangent(p, 0.0) == pytest.approx([0.0, tau], abs=1e-12)


def test_closed_flag_validated():
    with pytest.raises(ValueError):
        ParamPath.polyline([[0, 0], [1, 1]], closed=True)


# --- line work ------------------------------------------------------------------

def test_segment_along_x_axis_zero_work():
    seg = ParamPath.polyline([[0, 0], [1, 0]])
    res = line_work(berry_field(), seg)
    assert res.value == pytest.approx(0.0, abs=1e-14)


def test_vertical_segment_hand_integral():
    seg = ParamPath.polyline([[1, 0], [1, 1]])
    res = line_work(berry_field(), seg)
    assert res.value == pytest.approx(-1.0, abs=1e-12)


def test_unit_square_loop_green_oracle():
    # double integral of the scalar curl -(3x^2 - 2xy) over [0,1]^2 is -0.5
    res = line_work(berry_field(), unit_square())
    assert res.value == pytest.approx(-0.5, abs=1e-9)
    assert res.error_estimate <= 1e-9


def test_reverse_negates_loop_value():
    res = line_work(berry_field(), reverse(unit_square()))
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_antisymmetry_tight():
    fwd = line_work(berry_field(), unit_square()).value
    back = line_work(berry_field(), reverse(unit_square())).value
    assert abs(fwd + back) <= 1e-12


def test_roundtrip_nets_zero():
    fwd = line_work(berry_field(), unit_square()).value
    back = line_work(berry_field(), reverse(unit_square())).value
    assert abs(fwd + back) <= 1e-12  # work of Gamma then -Gamma


def test_reverse_involution_pointwise():
    p = param_path(["s^2", "1 - s"])
    q = reverse(reverse(p))
    for s in np.linspace(0, 1, 10):
        assert q.point(s) == pytest.approx(p.point(s), abs=1e-15)


def test_reverse_parametric_path():
    p = param_path(["s", "s^2"])
    r = reverse(p)
    assert r.point(0.0) == pytest.approx(p.point(1.0), abs=1e-15)
    assert r.point(0.3) == pytest.approx(p.point(0.7), abs=1e-15)


def test_reparametrization_invariance():
    seg_poly = ParamPath.polyline([[1, 0], [1, 1]])
    seg_para = param_path(["1", "s"])
    seg_curved = param_path(["1", "s^2"])  # same image, new speed
    F = berry_field()
    a = line_work(F, seg_poly).value
    b = line_work(F, seg_para).value
    c = line_work(F, seg_curved).value
    assert a == pytest.approx(b, abs=1e-12)
    assert a == pytest.approx(c, abs=1e-9)


def test_conservative_field_closed_loop_zero():
    F = VectorFieldDef.from_source(["2*x", "2*y"], 2, domain=Box((-2, -2), (3, 3)))
    res = line_work(F, unit_square())
    assert abs(res.value) <= 1e-8


def test_parametric_circle_rotational_field():
    # F = (-y, x) around the unit circle: work = 2 * enclosed area = 2 pi
    F = VectorFieldDef.from_source(["-y", "x"], 2, domain=Box((-2, -2), (2, 2)))
    tau = 2 * math.pi
    circle = param_path(["cos(tau*s)", "sin(tau*s)"], constants={"tau": tau}, closed=True)
    res = line_work(F, circle)
    assert res.value == pytest.approx(tau, rel=1e-9)


def test_path_leaving_domain_reports_s():
    F = berry_field(lo=0.0, hi=2.0)
    seg = ParamPath.polyline([[1, 1], [1, 3]])  # leaves at y = 2
    with pytest.raises(OutOfDomainError) as err:
        line_work(F, seg)
    assert "s=" in str(err.value)


def test_dimension_mismatch():
    F = VectorFieldDef.from_source(["x", "y", "z"], 3, domain=Box((0,) * 3, (1,) * 3))
    with pytest.raises(DimensionMismatchError):
        line_work(F, unit_square())


# --- stokes ---------------------------------------------------------------------

def test_stokes_matches_line_on_unit_square():
    F = berry_field()
    line = line_work(F, unit_square()).value
    surf = stokes_work(F, unit_square()).value
    assert surf == pytest.approx(-0.5, abs=1e-6)
    assert abs(line - surf) <= 1e-6


def test_stokes_triangle_cross_check():
    F = berry_field()
    tri = ParamPath.polyline([[1, 1], [2, 1], [1, 2], [1, 1]])
    line = line_work(F, tri).value
    surf = stokes_work(F, tri).value
    assert abs(line - surf) <= 1e-6


def test_stokes_conservative_zero():
    F = VectorFieldDef.from_source(["2*x", "2*y"], 2, domain=Box((-2, -2), (3, 3)))
    assert abs(stokes_work(F, unit_square()).value) <= 1e-8


def test_stokes_reversed_loop_negates():
    F = berry_field()
    a = stokes_work(F, unit_square()).value
    b = stokes_work(F, reverse(unit_square())).value
    assert a == pytest.approx(-b, abs=1e-9)


def test_stokes_nonconvex_polygon():
    # L-shaped hexagon; fan triangulation with signed areas must handle it
    F = berry_field()
    hexagon = ParamPath.polyline(
        [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2], [0, 0]]
    )
    line = line_work(F, hexagon).value
    surf = stokes_work(F, hexagon).value
    assert abs(line - surf) <= 1e-6


def test_stokes_3d_planar_triangle():
    F = VectorFieldDef.from_source(
        ["-(y*z)", "-(2*x*z)", "-(x*y)"], 3, domain=Box((0.05,) * 3, (5,) * 3)
    )
    tri = ParamPath.polyline([[1, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 1]])
    line = line_work(F, tri).value
    surf = stokes_work(F, tri).value
    assert abs(line - surf) <= 1e-6


def test_stokes_3d_tilted_plane():
    F = VectorFieldDef.from_source(
        ["y", "0", "1"], 3, domain=Box((-3,) * 3, (3,) * 3)
    )
    # triangle in the plane x + y + z = 1
    tri = ParamPath.polyline([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]])
    line = line_work(F, tri).value
    surf = stokes_work(F, tri).value
    assert abs(line - surf) <= 1e-8


def test_stokes_rejects_open_path():
    F = berry_field()
    with pytest.raises(NumericalError):
        stokes_work(F, ParamPath.polyline([[0, 0], [1, 0], [1, 1]]))


def test_stokes_rejects_nonplanar():
    F = VectorFieldDef.from_source(
        ["y", "0", "1"], 3, domain=Box((-3,) * 3, (3,) * 3)
    )
    loop = ParamPath.polyline(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0.5], [0, 1, 0], [0, 0, 0]]
    )
    with pytest.raises(NumericalError):
        stokes_work(F, loop)


def test_stokes_rejects_self_intersection():
    F = berry_field()
    bowtie = ParamPath.polyline([[0, 0], [1, 1], [1, 0], [0, 1], [0, 0]])
    with pytest.raises(NumericalError):
        stokes_work(F, bowtie)


def test_quadrature_nonconvergence_raises():
    # the jump at x = 0.3 is no panel boundary of any round, so each
    # doubling only halves the difference of two estimates
    F = VectorFieldDef.from_source(["sign(x - 0.3)", "0"], 2, domain=Box((-1, -1), (2, 2)))
    path = ParamPath.polyline([[0, 0.5], [1, 0.5]])
    with pytest.raises(NumericalError, match="did not converge after 12 refinements"):
        line_work(F, path)


def test_polyline_rejects_non_finite_vertices():
    with pytest.raises(ValueError, match="finite"):
        ParamPath.polyline([[0, 0], [float("nan"), 1]])


# --- batch quadrature against the pointwise reference ----------------------------

def pointwise_line_work(F, path):
    """line_work one node at a time: the reference the batch rounds must
    reproduce (same node order, panels, doubling and errors)."""
    nodes, weights = np.polynomial.legendre.leggauss(5)

    def field_at(p, s):
        try:
            return F.value(p)
        except OutOfDomainError:
            raise OutOfDomainError(f"path leaves the field domain at s={s:.6g}", p) from None

    if path.is_polyline:
        verts = path.vertices
        n_edges = len(verts) - 1

        def estimate(k):
            total = 0.0
            for i in range(n_edges):
                edge = verts[i + 1] - verts[i]
                for j in range(k):
                    a, b = j / k, (j + 1) / k
                    mid, half = 0.5 * (a + b), 0.5 * (b - a)
                    panel = 0.0
                    for node, weight in zip(nodes, weights):
                        u = mid + half * node
                        f = field_at(verts[i] + u * edge, (i + u) / n_edges)
                        panel += weight * float(np.dot(f, edge))
                    total += panel * half
            return total, n_edges * k

        panels = max(1, round(pathwork.INITIAL_SEGMENTS / n_edges))
    else:

        def estimate(k):
            total = 0.0
            for j in range(k):
                a, b = j / k, (j + 1) / k
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                panel = 0.0
                for node, weight in zip(nodes, weights):
                    s = mid + half * node
                    f = field_at(path.point(s), s)
                    panel += weight * float(np.dot(f, tangent(path, s)))
                total += panel * half
            return total, k

        panels = pathwork.INITIAL_SEGMENTS

    prev, count = estimate(panels)
    for _ in range(pathwork.MAX_REFINEMENTS):
        panels *= 2
        value, count = estimate(panels)
        err = abs(value - prev)
        if err <= max(pathwork.QUAD_ATOL, pathwork.QUAD_RTOL * abs(value)):
            return WorkResult(value=value, error_estimate=err, segments=count)
        prev = value
    raise NumericalError("line quadrature did not converge")


def outcome(work, F, path):
    try:
        return work(F, path)
    except (EvalDomainError, OutOfDomainError, NumericalError) as e:
        return e


def assert_same_outcome(F, path):
    want = outcome(pointwise_line_work, F, path)
    got = outcome(line_work, F, path)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
    else:
        assert isinstance(got, WorkResult), got
        assert got.segments == want.segments
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-14)


def test_line_work_matches_pointwise_reference():
    F = VectorFieldDef.from_source(
        ["-x*y^2 + sin(y)", "exp(x/3) - x^3"], 2, domain=Box((-1, -1), (3, 3))
    )
    for path in [
        unit_square(),
        ParamPath.polyline([[0, 0], [2, 0.5], [1.5, 2], [0, 0]]),
        param_path(["1 + cos(6.28*s)", "1 + sin(6.28*s)"]),
        param_path(["s", "s^3 + 0.2*sin(9*s)"]),
        param_path(["s", "sqrt((s - 0.1)*(s - 0.9))"]),  # fails for 0.1 < s < 0.9
        param_path(["s", "4*s^2"]),  # leaves the domain at y = 3
    ]:
        assert_same_outcome(F, path)
    # the field divides by zero along the second edge, which also leaves the domain
    G = VectorFieldDef.from_source(["1/(y - 1)", "x"], 2, domain=Box((-1, -1), (3, 3)))
    assert_same_outcome(G, ParamPath.polyline([[0, 0], [1, 1], [4, 1]]))
    # the middle Gauss node of panel 32 of 64 lies at s = 0.5078125, where the
    # field (1/y) and the tangent (1/sqrt) both divide by zero: the field's
    # error wins, as it does pointwise
    H = VectorFieldDef.from_source(["1/y", "x"], 2, domain=Box((-1, -1), (3, 3)))
    path = param_path(["s", "sqrt(abs(s - 0.5078125))"])
    with pytest.raises(EvalDomainError) as rate:
        tangent(path, 0.5078125)
    with pytest.raises(EvalDomainError) as field:
        H.value(path.point(0.5078125))
    assert str(rate.value) != str(field.value)
    assert str(outcome(line_work, H, path)) == str(field.value)
    assert_same_outcome(H, path)


def test_line_work_velocity_at_a_kink_uses_dual_numbers():
    # panel 32 of the first round's 64 puts its middle Gauss node at
    # s = 0.5078125, on the kink, where d/ds abs(s - 0.5078125) is sign(0)
    F = VectorFieldDef.from_source(["y", "x"], 2, domain=Box((-1, -1), (2, 2)))
    path = param_path(["s", "abs(s - 0.5078125)"])
    assert_same_outcome(F, path)
    assert line_work(F, path).value == pytest.approx(0.4921875, abs=1e-12)


_CORNER = st.tuples(st.floats(-1.0, 3.0), st.floats(-1.0, 3.0))


@REPEATABLE
@given(st.lists(_CORNER, min_size=2, max_size=5), st.booleans())
def test_line_work_leaving_the_domain_names_the_same_s(corners, parametric):
    F = berry_field(lo=0.0, hi=2.0)
    if parametric:
        (x0, y0), (x1, y1) = corners[:2]
        path = param_path([f"{x0!r} + {x1 - x0!r}*s", f"{y0!r} + {y1 - y0!r}*s"])
    else:
        path = ParamPath.polyline(corners)
    assert_same_outcome(F, path)


@st.composite
def _star_polygon(draw):
    n = draw(st.integers(3, 7))
    gaps = [draw(st.floats(0.2, 1.0)) for _ in range(n)]
    angles = np.cumsum(gaps) * (2 * math.pi / sum(gaps))
    radii = [draw(st.floats(0.3, 1.0)) for _ in range(n)]
    cx, cy = draw(st.floats(1.2, 1.8)), draw(st.floats(1.2, 1.8))
    pts = [[cx + r * math.cos(a), cy + r * math.sin(a)] for r, a in zip(radii, angles)]
    return ParamPath.polyline(pts + pts[:1])


@REPEATABLE
@given(_star_polygon())
def test_stokes_equals_line_work_on_star_polygons(loop):
    F = VectorFieldDef.from_source(
        ["-x*y^2 + sin(y)", "exp(x/3) - x^3"], 2, domain=Box((0.05, 0.05), (3, 3))
    )
    line = line_work(F, loop).value
    surf = stokes_work(F, loop).value
    assert surf == pytest.approx(line, rel=1e-8, abs=1e-9)
