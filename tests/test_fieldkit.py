import numpy as np
import pytest

from curlkit import exprlang
from curlkit.errors import DimensionMismatchError, EvalDomainError, OutOfDomainError
from curlkit.fieldkit import (
    Box,
    CallableVectorField,
    Region,
    ScalarFieldDef,
    VectorFieldDef,
    curl,
    curl_many,
    helicity,
)


def box2(lo=0.05, hi=5.0):
    return Box((lo, lo), (hi, hi))


def box3(lo=0.05, hi=5.0):
    return Box((lo, lo, lo), (hi, hi, hi))


@pytest.fixture
def berry():
    return VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=box2())


@pytest.fixture
def triple():
    return VectorFieldDef.from_source(["-(y*z)", "-(2*x*z)", "-(x*y)"], 3, domain=box3())


# --- boxes and regions --------------------------------------------------------

def test_box_validation():
    with pytest.raises(ValueError):
        Box((0, 0), (0, 1))
    with pytest.raises(ValueError):
        Box((0,), (1, 2))


def test_box_rejects_non_finite_bounds():
    for lo, hi in [((0.0, float("nan")), (1.0, 1.0)), ((0.0, 0.0), (float("inf"), 1.0))]:
        with pytest.raises(ValueError, match="finite"):
            Box(lo, hi)


def test_box_rejects_non_finite_points():
    box = Box((-5, -5), (5, 5))
    for p in [(float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0)]:
        assert not box.contains(p)
        assert not box.contains(np.array(p))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_pointwise_derivatives_refuse_non_finite_coordinates(berry, triple, bad, mode):
    sampler = CallableVectorField(triple.value_unchecked, 3, triple.domain)
    calls = [
        lambda: berry.components[0].gradient((1.0, bad), mode),
        lambda: berry.jacobian((bad, 1.0), mode),
        lambda: curl(berry, (1.0, bad), mode),
        lambda: curl(triple, (1.0, 1.0, bad), mode),
        lambda: helicity(triple, (bad, 1.0, 1.0), mode),
    ]
    if mode == "fd":  # a sampler-backed field has fd Jacobians only
        calls.append(lambda: sampler.jacobian((1.0, bad, 1.0)))
    for call in calls:
        with pytest.raises(OutOfDomainError):
            call()


def test_grid_region_samples():
    r = Region.grid(Box((0, 0), (1, 2)), (3, 5))
    pts = r.samples()
    assert pts.shape == (15, 2)
    assert pts[0] == pytest.approx([0, 0])
    assert pts[-1] == pytest.approx([1, 2])


def test_random_region_deterministic():
    r = Region.random(Box((0.5, 0.5), (2, 2)), 100, seed=42)
    a, b = r.samples(), r.samples()
    assert np.array_equal(a, b)
    assert a.shape == (100, 2)
    assert np.all((a > 0.5) & (a < 2.0))
    c = Region.random(Box((0.5, 0.5), (2, 2)), 100, seed=43).samples()
    assert not np.array_equal(a, c)


def test_region_sample_spread():
    # quasi-random points should not collapse onto a subregion
    pts = Region.random(Box((0, 0), (1, 1)), 200, seed=1).samples()
    assert pts[:, 0].min() < 0.1 and pts[:, 0].max() > 0.9
    assert pts[:, 1].min() < 0.1 and pts[:, 1].max() > 0.9


# --- field construction -------------------------------------------------------

def test_component_count_must_match_dimension():
    with pytest.raises(DimensionMismatchError):
        VectorFieldDef.from_source(["x", "y", "x"], 2, domain=box2())


def test_constants_must_be_in_table():
    tree = exprlang.parse("F0*x", 2, {"F0"})
    with pytest.raises(ValueError):
        ScalarFieldDef(2, tree, {}, box2())


def test_out_of_domain_point_rejected(berry):
    with pytest.raises(OutOfDomainError):
        berry.value((10.0, 1.0))


# --- gradient -----------------------------------------------------------------

def test_gradient_paper_potential():
    u = ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=box2())
    assert u.gradient((1.0, 1.0)) == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gradient_constant_field():
    c = ScalarFieldDef.from_source("3.5", 2, domain=box2())
    assert c.gradient((1.2, 2.3)) == pytest.approx([0.0, 0.0], abs=0)
    assert c.gradient((1.2, 2.3), mode="fd") == pytest.approx([0.0, 0.0], abs=1e-12)


def test_gradient_analytic_vs_fd_100_points():
    u = ScalarFieldDef.from_source("x^3*y^2 - 1/(x*y)", 2, domain=box2())
    pts = Region.random(Box((0.5, 0.5), (2, 2)), 100, seed=5).samples()
    worst = 0.0
    for p in pts:
        a = u.gradient(p, "analytic")
        f = u.gradient(p, "fd")
        worst = max(worst, np.max(np.abs(a - f) / np.maximum(1.0, np.abs(a))))
    assert worst <= 1e-6


def test_fd_one_sided_at_closed_boundary():
    u = ScalarFieldDef.from_source("x^2 + y", 2, domain=Box((0, 0), (1, 1)))
    g = u.gradient((0.0, 0.5), mode="fd")
    assert g == pytest.approx([0.0, 1.0], abs=1e-8)
    g = u.gradient((1.0, 0.5), mode="fd")
    assert g == pytest.approx([2.0, 1.0], abs=1e-8)


# --- jacobian -----------------------------------------------------------------

def test_jacobian_identity():
    F = VectorFieldDef.from_source(["x", "y"], 2, domain=box2())
    assert F.jacobian((1.3, 2.2)) == pytest.approx(np.eye(2), abs=0)


def test_jacobian_berry_hand_oracle(berry):
    # rows: d(-xy^2) = (-y^2, -2xy), d(-x^3) = (-3x^2, 0)
    J = berry.jacobian((1.0, 1.0))
    assert J == pytest.approx(np.array([[-1.0, -2.0], [-3.0, 0.0]]), abs=1e-15)


def test_linear_field_reproduces_matrix_exactly():
    A = np.array([[2.0, -1.0], [0.5, 3.0]])
    F = VectorFieldDef.from_source(["2*x - y", "0.5*x + 3*y"], 2, domain=box2())
    assert np.array_equal(F.jacobian((1.0, 2.0)), A)


def test_jacobian_fd_close_to_analytic(berry):
    p = (1.3, 0.8)
    assert berry.jacobian(p, "fd") == pytest.approx(berry.jacobian(p), abs=1e-7)


# --- curl and helicity ----------------------------------------------------------

def test_curl_2d_paper_formula(berry):
    # scalar curl is -(3x^2 - 2xy)
    for p in [(1.0, 1.0), (1.5, 0.7), (2.0, 2.0)]:
        expected = -(3 * p[0] ** 2 - 2 * p[0] * p[1])
        assert curl(berry, p) == pytest.approx(expected, abs=1e-12)


def test_curl_3d_triple_field(triple):
    assert curl(triple, (1.0, 2.0, 3.0)) == pytest.approx([1.0, 0.0, -3.0], abs=1e-13)


def test_curl_of_gradient_is_zero():
    F = VectorFieldDef.from_source(["2*x", "2*y"], 2, domain=box2())
    pts = Region.random(Box((0.5, 0.5), (2, 2)), 50, seed=3).samples()
    for p in pts:
        assert abs(curl(F, p)) <= 1e-8
        assert abs(curl(F, p, "fd")) <= 1e-5


def test_curl_of_gradient_zero_3d():
    # F = grad(x^2 y + y z^2)
    F = VectorFieldDef.from_source(
        ["2*x*y", "x^2 + z^2", "2*y*z"], 3, domain=box3()
    )
    pts = Region.random(Box((0.5,) * 3, (2,) * 3), 50, seed=4).samples()
    for p in pts:
        assert np.linalg.norm(curl(F, p)) <= 1e-8
        assert np.linalg.norm(curl(F, p, "fd")) <= 1e-5


def test_helicity_triple_field_is_zero(triple):
    pts = Region.random(Box((0.5,) * 3, (2,) * 3), 50, seed=8).samples()
    for p in pts:
        assert abs(helicity(triple, p)) <= 1e-12


def test_helicity_chiral_example():
    F = VectorFieldDef.from_source(["y", "0", "1"], 3, domain=Box((-2,) * 3, (2,) * 3))
    for p in [(0.0, 0.0, 0.0), (1.0, -1.0, 0.5)]:
        assert helicity(F, p) == pytest.approx(-1.0, abs=1e-13)


def test_helicity_conservative_field_zero():
    F = VectorFieldDef.from_source(["y*z", "x*z", "x*y"], 3, domain=box3())  # grad(xyz)
    assert helicity(F, (1.0, 2.0, 0.5)) == pytest.approx(0.0, abs=1e-12)


def test_helicity_rejects_2d(berry):
    with pytest.raises(DimensionMismatchError):
        helicity(berry, (1.0, 1.0))


# --- structural invariants -------------------------------------------------------

def test_jacobian_antisymmetric_part_is_curl(triple):
    p = (1.1, 0.9, 1.7)
    J = triple.jacobian(p)
    A = J - J.T
    c = curl(triple, p)
    assert A[2, 1] == pytest.approx(c[0], abs=0)
    assert A[0, 2] == pytest.approx(c[1], abs=0)
    assert A[1, 0] == pytest.approx(c[2], abs=0)


def test_two_potential_fields_have_zero_helicity():
    # F = -V grad(U) built symbolically for several (U, V) pairs
    pairs = [
        ("x + y^2 + z", "exp(x)*y"),
        ("x*y*z", "x^2 + z^2 + 1"),
        ("sin(x) + cos(y) + z^2", "2 + x"),
    ]
    dom = Box((0.5,) * 3, (2,) * 3)
    pts = Region.random(dom, 30, seed=11).samples()
    for u_src, v_src in pairs:
        u = exprlang.parse(u_src, 3, set())
        v = exprlang.parse(v_src, 3, set())
        comps = []
        for var in ("x", "y", "z"):
            du = exprlang.derivative(u, var)
            comps.append(exprlang.SyntaxTree(
                exprlang.Neg((0, 0), exprlang._mul(v.root, du.root)),
                u.variables, frozenset(), ""))
        F = VectorFieldDef(3, comps, {}, dom)
        for p in pts:
            assert abs(helicity(F, p)) <= 1e-8 * max(1.0, np.linalg.norm(F.value(p)))


def test_callable_field_jacobian_fd():
    base = VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=box2())
    sampler = CallableVectorField(lambda p: base.value(p), 2, base.domain)
    p = (1.2, 0.7)
    assert sampler.jacobian(p) == pytest.approx(base.jacobian(p), abs=1e-7)
    with pytest.raises(ValueError):
        sampler.jacobian(p, mode="analytic")


# --- batch evaluation -----------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

REPEATABLE = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def _box_and_rows(draw):
    dim = draw(st.sampled_from([2, 3]))
    lo = [draw(st.floats(-3.0, 0.0)) for _ in range(dim)]
    hi = [a + draw(st.floats(0.5, 3.0)) for a in lo]
    box = Box(lo, hi)

    def coord(axis):
        a, b = box.lo[axis], box.hi[axis]
        return draw(st.one_of(
            st.sampled_from([a, b, 0.5 * (a + b), a - 1.0, b + 1.0, float("nan"), float("inf")]),
            st.floats(a, b),
        ))

    n = draw(st.integers(1, 6))
    return box, np.array([[coord(i) for i in range(dim)] for _ in range(n)])


@REPEATABLE
@given(_box_and_rows())
def test_values_apply_the_box_rule_row_by_row(case):
    box, P = case
    inside = [box.contains(p) for p in P]
    assert list(box.contains_rows(P)) == inside
    sources = ["x + y", "x*y"] if box.dimension == 2 else ["x + z", "y*z", "x - y"]
    F = VectorFieldDef.from_source(sources, box.dimension, domain=box)
    U = ScalarFieldDef.from_source(sources[1], box.dimension, domain=box)
    for field, pointwise in ((F, F.value), (U, U.value)):
        if all(inside):
            got = field.values(P)
            assert np.array_equal(got, np.array([pointwise(p) for p in P]))
        else:
            with pytest.raises(OutOfDomainError) as err:
                field.values(P)
            first = P[inside.index(False)]
            assert str(err.value) == str(OutOfDomainError("point outside field domain", first))


def test_values_raise_in_row_order():
    F = VectorFieldDef.from_source(["1/x", "y"], 2, domain=Box((-1, -1), (1, 1)))
    # row 1 divides by zero before row 2 leaves the domain: value() order
    with pytest.raises(EvalDomainError, match="division by zero"):
        F.values([[0.5, 0.0], [0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(OutOfDomainError):
        F.values([[0.5, 0.0], [2.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        F.values([0.5, 0.0])


def test_callable_field_values_per_row():
    base = VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=box2())
    sampler = CallableVectorField(lambda p: base.value(p), 2, base.domain)
    P = np.array([[1.0, 2.0], [0.3, 4.0]])
    assert np.array_equal(sampler.values(P), base.values(P))
    assert sampler.values(P[:0]).shape == (0, 2)
    with pytest.raises(OutOfDomainError):
        sampler.values([[1.0, 2.0], [9.0, 1.0]])


def test_curl_many_matches_curl(berry, triple):
    rng = np.random.default_rng(3)
    for F in (berry, triple):
        P = rng.uniform(0.1, 4.9, size=(50, F.dimension))
        want = np.array([curl(F, p) for p in P])
        assert curl_many(F, P) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_curl_many_keeps_dual_rules_at_a_kink():
    # d/dy abs(y) is abs(y)/y symbolically, which divides by zero at y = 0;
    # the dual numbers give 0 there, as curl() does
    F = VectorFieldDef.from_source(["abs(y)", "x*abs(x)"], 2, domain=Box((-1, -1), (1, 1)))
    P = np.array([[0.5, 0.5], [0.25, 0.0], [0.0, -0.5]])
    assert np.array_equal(curl_many(F, P), np.array([curl(F, p) for p in P]))
    assert curl_many(F, P)[1] == 0.5


def test_curl_many_outside_domain_raises_like_curl(berry):
    with pytest.raises(OutOfDomainError):
        curl_many(berry, [[1.0, 1.0], [9.0, 1.0]])


# --- the sample plan's random shift without numpy.random --------------------------

import os
import subprocess
import sys
from pathlib import Path

from curlkit.fieldkit import _random_doubles

_SEEDS = list(range(2200)) + [2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 3,
                              2**128 + 7, 3**126, 2**199 + 12345, 2**200 - 1]


def test_random_doubles_match_numpy_default_rng():
    for seed in _SEEDS:
        for n in range(1, 6):
            want = np.random.default_rng(seed).random(n)
            assert _random_doubles(seed, n) == list(want), (seed, n)


def test_random_plan_is_the_numpy_shifted_halton_set():
    def radical_inverse(index, base):
        inv, f = 0.0, 1.0 / base
        while index > 0:
            inv += f * (index % base)
            index //= base
            f /= base
        return inv

    for dim, seed, count in [(2, 0, 1), (2, 977, 300), (3, 2**40 + 1, 64)]:
        box = Box((0.05,) * dim, (5.0,) * dim)
        shift = np.random.default_rng(seed).random(dim)
        unit = np.array([[(radical_inverse(i + 1, b) + shift[j]) % 1.0
                          for j, b in enumerate((2, 3, 5)[:dim])] for i in range(count)])
        want = np.asarray(box.lo) + unit * (np.asarray(box.hi) - np.asarray(box.lo))
        assert np.array_equal(Region.random(box, count, seed).samples(), want)


def test_random_plan_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        Region.random(box2(), 5, seed=-1).samples()
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)


def test_classify_on_a_random_plan_does_not_import_numpy_random(tmp_path):
    problem = tmp_path / "berry.json"
    problem.write_text(
        '{"dimension": 2, "force": ["-x*y^2", "-x^3"], "domain": [[0.05, 5], [0.05, 5]]}'
    )
    code = (
        "import sys\n"
        "from curlkit import cli\n"
        f"code = cli.main(['classify', {str(problem)!r}, '--samples', '50', '--seed', '7',"
        f" '--out', {str(tmp_path / 'out.json')!r}])\n"
        "assert code == 0, code\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


# --- batch derivatives against the pointwise ones --------------------------------

_SCALARS = {
    2: ["x*y^2 - 3*x", "sin(x)*exp(y/3)", "log(x + 3.5)*y", "1/(x - 0.25) + y", "abs(x*y)"],
    3: ["x*y*z", "cos(x - z)*y", "sqrt(x + 3.5) - z^2", "1/(y + 0.75)", "x^2*abs(z)"],
}


def _outcome(f):
    try:
        return f()
    except (EvalDomainError, OutOfDomainError) as e:
        return e


def _assert_same(got, want, exact):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert not isinstance(got, Exception), got
    if exact:
        assert np.array_equal(got, want)
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@st.composite
def _field_case(draw):
    dim = draw(st.sampled_from([2, 3]))
    lo = [draw(st.sampled_from([-3.0, -1.0, 0.0, 0.5])) for _ in range(dim)]
    hi = [a + draw(st.sampled_from([0.5, 1.0, 3.0])) for a in lo]
    box = Box(lo, hi)
    sources = draw(st.lists(st.sampled_from(_SCALARS[dim]), min_size=dim, max_size=dim))
    counts = [draw(st.integers(1, 4)) for _ in range(dim)]
    # a grid touching every face, and points near and on the faces inside
    P = Region.grid(box, counts).samples()
    extra = [[draw(st.one_of(st.sampled_from([a, b, a + 1e-6, b - 1e-6]), st.floats(a, b)))
              for a, b in zip(lo, hi)] for _ in range(draw(st.integers(0, 3)))]
    if extra:
        P = np.vstack([P, extra])
    if draw(st.booleans()):
        P = P[draw(st.permutations(range(len(P))))]
    return box, sources, P


@REPEATABLE
@given(_field_case(), st.sampled_from(["analytic", "fd"]))
def test_batch_derivatives_match_pointwise_rows(case, mode):
    box, sources, P = case
    dim = box.dimension
    F = VectorFieldDef.from_source(sources, dim, domain=box)
    U = F.components[0]
    cases = [
        (lambda: F.jacobians(P, mode), lambda: np.array([F.jacobian(p, mode) for p in P])),
        (lambda: U.gradients(P, mode), lambda: np.array([U.gradient(p, mode) for p in P])),
        (lambda: curl_many(F, P, mode), lambda: np.array([curl(F, p, mode) for p in P])),
    ]
    if mode == "fd":
        G = CallableVectorField(F.value_unchecked, dim, box, batch=lambda Q: F.values(Q))
        cases.append(
            (lambda: G.jacobians(P), lambda: np.array([G.jacobian(p) for p in P]))
        )
    for batch, pointwise in cases:
        # fd rows share the stencil code, analytic ones differ from eval_at by
        # NumPy's rounding of exp, log, sin and cos
        _assert_same(_outcome(batch), _outcome(pointwise), exact=mode == "fd")


def test_fd_one_sided_rows_in_a_batch():
    # every grid point of the closed unit square lies on a face or corner
    box = Box((0.0, 0.0), (1.0, 1.0))
    F = VectorFieldDef.from_source(["x^3*y", "exp(x)*y^2"], 2, domain=box)
    P = Region.grid(box, (2, 2)).samples()
    J = F.jacobians(P, "fd")
    assert np.array_equal(J, np.array([F.jacobian(p, "fd") for p in P]))
    assert J == pytest.approx(F.jacobians(P), rel=1e-8, abs=1e-8)


def test_fd_no_room_raises_after_the_earlier_rows():
    # the y stencil fits nowhere in a box 1e-6 high; the x stencil of the
    # first row is evaluated before, and fails first
    box = Box((0.0, 0.0), (1.0, 1e-6))
    F = VectorFieldDef.from_source(["sqrt(x - 0.5)", "y"], 2, domain=box)
    P = np.array([[0.5, 0.0], [0.75, 0.0]])
    with pytest.raises(EvalDomainError) as want:
        [F.jacobian(p, "fd") for p in P]
    with pytest.raises(EvalDomainError) as got:
        F.jacobians(P, "fd")
    assert str(got.value) == str(want.value)
    with pytest.raises(OutOfDomainError, match="no room"):
        F.jacobians(P[1:], "fd")


def test_curl_many_reads_the_cached_partials(berry, monkeypatch):
    P = np.array([[1.0, 2.0], [0.5, 0.7]])
    curl_many(berry, P)
    calls = []
    real = exprlang.derivative
    monkeypatch.setattr(exprlang, "derivative", lambda t, v: calls.append(v) or real(t, v))
    assert curl_many(berry, P) == pytest.approx([-3.0 + 4.0, -0.75 + 0.7], rel=1e-15)
    assert calls == []


# --- analytic against finite-difference Jacobians -----------------------------------

# smooth trees only: no abs or sign, and every quotient, square root and log
# takes an argument of at least 1, so no kink or singularity lies in a box
_SMOOTH = st.recursive(
    st.sampled_from(["x", "y", "0.5", "1.5", "2"]),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"),
        st.tuples(children, children).map(lambda t: f"({t[0]}/(1 + {t[1]}^2))"),
        st.tuples(st.sampled_from(["sin", "cos"]), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["exp(sin({}))", "sqrt(1 + {}^2)", "log(1 + {}^2)",
                                   "pow(1 + {}^2, 1.5)", "({})^3"]), children).map(
            lambda t: t[0].format(t[1])),
    ),
    max_leaves=6,
)


@st.composite
def _smooth_field_and_points(draw):
    lo = [draw(st.floats(-2.0, 2.0)) for _ in range(2)]
    box = Box(lo, [a + draw(st.floats(0.5, 2.0)) for a in lo])
    F = VectorFieldDef.from_source([draw(_SMOOTH), draw(_SMOOTH)], 2, domain=box)
    # interior points, where every axis takes the central stencil
    pad = 1e-3
    points = draw(st.lists(st.tuples(*(st.floats(a + pad, b - pad) for a, b in zip(box.lo, box.hi))),
                           min_size=1, max_size=5))
    return F, np.array(points)


@REPEATABLE
@given(_smooth_field_and_points())
def test_analytic_jacobians_match_finite_differences_away_from_kinks(case):
    # the bound of test_jacobian_fd_close_to_analytic (1e-7 at unit scale),
    # relative to the size of the values and derivatives around each point
    F, P = case
    analytic, fd = F.jacobians(P), F.jacobians(P, "fd")
    for p, a, d in zip(P, analytic, fd):
        scale = max(1.0, np.abs(a).max(), np.abs(F.value(p)).max())
        assert np.abs(a - d).max() <= 1e-7 * scale, (F.trees, p)
        assert np.abs(F.jacobian(p) - d).max() <= 1e-7 * scale, (F.trees, p)
