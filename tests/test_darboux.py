import numpy as np
import pytest

from curlkit import _ode, exprlang, fieldkit
from curlkit._ode import integrate_dopri45
from curlkit.darboux import (
    CHARACTERISTIC_TOL,
    PotentialSet,
    characteristic_deviation,
    classify,
    decompose3d,
    gauge_transform,
    verify_representation,
    vpde_residual,
)
from curlkit.errors import (DimensionMismatchError, EvalDomainError, NumericalError,
                            OutOfDomainError, require_positive)
from curlkit.fieldkit import (FD_STEP_FACTOR, Box, CallableVectorField, Region, ScalarFieldDef,
                              VectorFieldDef)


DOM2 = Box((0.05, 0.05), (5.0, 5.0))
DOM3 = Box((0.05, 0.05, 0.05), (10.0, 10.0, 10.0))
R2 = Region.random(Box((0.5, 0.5), (2.0, 2.0)), 200, seed=42)
R3 = Region.random(Box((0.5,) * 3, (2.0,) * 3), 120, seed=42)


def berry_field():
    return VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=DOM2)


def berry_potentials():
    return PotentialSet(
        U=ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=DOM2),
        V=ScalarFieldDef.from_source("x^3*y^2", 2, domain=DOM2),
    )


def triple_field():
    return VectorFieldDef.from_source(["-(y*z)", "-(2*x*z)", "-(x*y)"], 3, domain=DOM3)


# --- classify ---------------------------------------------------------------

def test_classify_berry_two_potential():
    assert classify(berry_field(), R2).canonical_class == "two-potential"


def test_classify_conservative():
    F = VectorFieldDef.from_source(["2*x", "2*y"], 2, domain=DOM2)
    rep = classify(F, R2)
    assert rep.canonical_class == "conservative"
    assert rep.curl_statistic <= 1e-8


def test_classify_chiral():
    F = VectorFieldDef.from_source(["y", "0", "1"], 3, domain=Box((0,) * 3, (1,) * 3))
    rep = classify(F, Region.random(Box((0,) * 3, (1,) * 3), 100, seed=1))
    assert rep.canonical_class == "chiral three-potential"
    assert rep.helicity_statistic > 1e-8


def test_classify_triple_field_two_potential():
    # helicity vanishes identically although curl does not
    rep = classify(triple_field(), R3)
    assert rep.canonical_class == "two-potential"
    assert rep.helicity_statistic <= 1e-8


def test_classify_zero_field_conservative():
    F = VectorFieldDef.from_source(["0", "0"], 2, domain=DOM2)
    assert classify(F, R2).canonical_class == "conservative"


def test_classify_scale_equivariant():
    base = classify(berry_field(), R2).canonical_class
    for c in (0.5, 2.0, 10.0):
        F = VectorFieldDef.from_source(
            [f"{c}*(-x*y^2)", f"{c}*(-x^3)"], 2, domain=DOM2
        )
        assert classify(F, R2).canonical_class == base


def test_classify_2d_never_chiral():
    # strongly rotational 2D fields stay in the two-potential class
    F = VectorFieldDef.from_source(["-y", "x"], 2, domain=Box((-2, -2), (2, 2)))
    rep = classify(F, Region.random(Box((0.1, 0.1), (1, 1)), 50, seed=2))
    assert rep.canonical_class == "two-potential"
    assert rep.helicity_statistic is None


def test_classify_region_must_be_inside_domain():
    with pytest.raises(OutOfDomainError):
        classify(berry_field(), Region.random(Box((0, 0), (9, 9)), 10, seed=0))


# --- verify_representation ---------------------------------------------------

def test_verify_paper_pair():
    rep = verify_representation(berry_field(), berry_potentials(), R2)
    assert rep.max <= 1e-10


def test_verify_trivial_conservative():
    F = VectorFieldDef.from_source(["-2*x", "-2*y"], 2, domain=DOM2)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("x^2 + y^2", 2, domain=DOM2),
        V=ScalarFieldDef.from_source("1", 2, domain=DOM2),
    )
    assert verify_representation(F, P, R2).max == 0.0


def test_verify_detects_perturbation():
    P = PotentialSet(
        U=ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=DOM2),
        V=ScalarFieldDef.from_source("1.01*x^3*y^2", 2, domain=DOM2),
    )
    assert verify_representation(berry_field(), P, R2).max >= 1e-3


def test_verify_with_w_term():
    # F = -V grad U - grad W in 3D with known closed forms
    F = VectorFieldDef.from_source(
        ["-y - 2*x", "-x - 2*y", "-2*z"], 3, domain=DOM3
    )  # -1*grad(xy) - grad(x^2+y^2+z^2)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("x*y", 3, domain=DOM3),
        V=ScalarFieldDef.from_source("1", 3, domain=DOM3),
        W=ScalarFieldDef.from_source("x^2 + y^2 + z^2", 3, domain=DOM3),
    )
    assert verify_representation(F, P, R3).max <= 1e-12


def test_verify_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        verify_representation(triple_field(), berry_potentials(), R3)


# --- V-PDE --------------------------------------------------------------------

def test_vpde_paper_solution():
    V = ScalarFieldDef.from_source("x^3*y^2", 2, domain=DOM2)
    assert vpde_residual(berry_field(), V, R2).max <= 1e-9


def test_vpde_constant_v_reduces_to_curl():
    V = ScalarFieldDef.from_source("1", 2, domain=DOM2)
    F = berry_field()
    rep = vpde_residual(F, V, R2)
    # residual magnitude equals |curl F| = |3x^2 - 2xy| at each sample
    pts = R2.samples()
    expected = max(abs(3 * x * x - 2 * x * y) for x, y in pts)
    assert rep.max == pytest.approx(expected, rel=1e-12)


def test_vpde_solution_family_phi_identity():
    # V = x^3 y^2 * Phi((x+y)/(x y)) with Phi(s) = s
    V = ScalarFieldDef.from_source("x^3*y^2*((x + y)/(x*y))", 2, domain=DOM2)
    assert vpde_residual(berry_field(), V, R2).max <= 1e-8


def test_vpde_3d_pure_two_potential():
    # the PDE applies to fields of the pure form -V grad U; here
    # F = -(x z) grad(y), the non-conservative part of the triple field
    F = VectorFieldDef.from_source(["0", "-(x*z)", "0"], 3, domain=DOM3)
    V = ScalarFieldDef.from_source("x*z", 3, domain=DOM3)
    assert vpde_residual(F, V, R3).max <= 1e-9


def test_vpde_rejects_wrong_v():
    V = ScalarFieldDef.from_source("x", 2, domain=DOM2)
    assert vpde_residual(berry_field(), V, R2).max > 1e-2


# --- gauge ---------------------------------------------------------------------

def recompose_max_diff(P1, P2, pts):
    worst = 0.0
    for p in pts:
        a = -P1.V.value(p) * P1.U.gradient(p)
        b = -P2.V.value(p) * P2.U.gradient(p)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def test_gauge_identity():
    P = berry_potentials()
    f = exprlang.parse_in_variables("u", ("u",))
    P2 = gauge_transform(P, f, region=R2)
    assert P2.U.tree.root == P.U.tree.root
    assert P2.V.tree.root == P.V.tree.root


def test_gauge_scaling():
    P = berry_potentials()
    f = exprlang.parse_in_variables("2*u", ("u",))
    P2 = gauge_transform(P, f, region=R2)
    assert recompose_max_diff(P, P2, R2.samples()) <= 1e-12


def test_gauge_cubic():
    P = berry_potentials()
    f = exprlang.parse_in_variables("u + u^3", ("u",))
    P2 = gauge_transform(P, f, region=R2)
    assert recompose_max_diff(P, P2, R2.samples()) <= 1e-9
    # and the transformed set still represents the force
    rep = verify_representation(berry_field(), P2, R2)
    assert rep.max <= 1e-9


def test_gauge_representation_residual_invariance():
    F = berry_field()
    P = berry_potentials()
    base = verify_representation(F, P, R2).max
    for src in ["2*u", "u + u^3", "exp(u)"]:
        f = exprlang.parse_in_variables(src, ("u",))
        P2 = gauge_transform(P, f, region=R2)
        after = verify_representation(F, P2, R2).max
        assert abs(after - base) <= 1e-9


def test_gauge_trees_come_from_the_parse_cache():
    # so a second gauge of the same potentials reuses their partials and
    # compiled functions, and an error cites the printed u_prime/v_prime
    P = berry_potentials()
    f = exprlang.parse_in_variables("u + u^3", ("u",))
    P2 = gauge_transform(P, f, region=R2)
    for t in (P2.U.tree, P2.V.tree):
        assert exprlang.parse_in_variables(exprlang.to_source(t), t.variables, t.constants) is t
        assert t.source == exprlang.to_source(t)


def test_gauge_vanishing_derivative_rejected():
    P = berry_potentials()
    # f(u) = (u + 2)^2 has f' = 0 at u = -2 = U(1, 1); the grid corner
    # hits (1, 1) exactly
    f = exprlang.parse_in_variables("(u + 2)^2", ("u",))
    with pytest.raises(NumericalError) as err:
        gauge_transform(P, f, region=Region.grid(Box((1.0, 1.0), (1.5, 1.5)), (2, 2)))
    # the point reads as plain floats, not as NumPy scalars
    assert str(err.value) == "gauge derivative f'(U) vanishes at sample (1.0, 1.0)"


# --- decompose3d ------------------------------------------------------------------

def test_decompose_v_y():
    F = triple_field()
    V = ScalarFieldDef.from_source("y", 3, domain=DOM3)
    dec = decompose3d(F, V, R3)
    assert np.array_equal(dec.points, R3.samples())
    x, y, z = dec.points.T
    zero = np.zeros_like(x)
    assert dec.grad_u == pytest.approx(np.stack([-z, zero, -x], axis=1), abs=1e-13)
    assert dec.f_nc == pytest.approx(np.stack([y * z, zero, x * y], axis=1), abs=1e-13)
    assert dec.f_c == pytest.approx(
        np.stack([-2 * y * z, -2 * x * z, -2 * x * y], axis=1), abs=1e-13
    )
    assert dec.diagnostics["curl_f_c"].max <= 1e-6
    assert dec.diagnostics["sum_identity"].max <= 1e-13
    assert dec.diagnostics["gauge_orthogonality"].max <= 1e-9
    assert dec.diagnostics["curl_f_nc_agreement"].max <= 1e-6


def test_decompose_v_xz():
    F = triple_field()
    V = ScalarFieldDef.from_source("x*z", 3, domain=DOM3)
    dec = decompose3d(F, V, R3)
    x, y, z = dec.points.T
    zero, one = np.zeros_like(x), np.ones_like(x)
    assert dec.grad_u == pytest.approx(np.stack([zero, one, zero], axis=1), abs=1e-13)
    assert dec.f_nc == pytest.approx(np.stack([zero, -x * z, zero], axis=1), abs=1e-13)
    assert dec.f_c == pytest.approx(np.stack([-y * z, -x * z, -x * y], axis=1), abs=1e-13)
    assert dec.diagnostics["curl_f_c"].max <= 1e-6


def test_decompositions_differ_by_conservative_field():
    # F_nc(y) - F_nc(xz) = grad(xyz), and the fd curl of the difference is
    # the difference of the two fd curls of F_c
    F = triple_field()
    d1 = decompose3d(F, ScalarFieldDef.from_source("y", 3, domain=DOM3), R3)
    d2 = decompose3d(F, ScalarFieldDef.from_source("x*z", 3, domain=DOM3), R3)
    assert np.array_equal(d1.points, d2.points)
    x, y, z = d1.points.T
    assert d1.f_nc - d2.f_nc == pytest.approx(np.stack([y * z, x * z, x * y], axis=1),
                                              abs=1e-13)
    assert d1.diagnostics["curl_f_c"].max <= 1e-6
    assert d2.diagnostics["curl_f_c"].max <= 1e-6


def test_decompose_rejects_bad_v():
    # V = x is not constant along the characteristics of curl F = (x, 0, -z)
    F = triple_field()
    V = ScalarFieldDef.from_source("x", 3, domain=DOM3)
    with pytest.raises(NumericalError):
        decompose3d(F, V, R3)


def test_decompose_rejects_vanishing_grad_v():
    F = triple_field()
    V = ScalarFieldDef.from_source("1", 3, domain=DOM3)
    with pytest.raises(NumericalError) as err:
        decompose3d(F, V, R3)
    # the first sample, as plain floats
    x, y, z = (float(c) for c in R3.samples()[0])
    assert str(err.value) == f"||grad V|| below floor at sample ({x!r}, {y!r}, {z!r})"


# --- characteristics ----------------------------------------------------------------

def test_characteristic_invariants_conserved():
    F = triple_field()
    for src in ["x*z", "y"]:
        V = ScalarFieldDef.from_source(src, 3, domain=DOM3)
        dev = characteristic_deviation(F, V, (1.0, 1.0, 1.0), 2.0)
        assert dev <= 1e-8, src


def test_characteristic_non_invariant_grows():
    F = triple_field()
    V = ScalarFieldDef.from_source("x", 3, domain=DOM3)
    dev = characteristic_deviation(F, V, (1.0, 1.0, 1.0), 1.0)
    # x(s) = e^s along the characteristic, so the drift approaches e - 1
    assert dev >= 0.5
    assert dev == pytest.approx(np.e - 1.0, rel=1e-6)


def test_characteristic_domain_exit_reported():
    F = triple_field()
    V = ScalarFieldDef.from_source("y", 3, domain=DOM3)
    with pytest.raises(OutOfDomainError):
        characteristic_deviation(F, V, (1.0, 1.0, 1.0), 4.0)  # x = e^4 > 10


def test_characteristic_domain_exit_names_the_exit_point():
    # curl F = (x, 0, -z), so x = e^s reaches the wall x = 10 at s = ln 10;
    # the trial stages past it must not raise before the guard places the exit
    F = triple_field()
    V = ScalarFieldDef.from_source("y", 3, domain=DOM3)
    with pytest.raises(OutOfDomainError, match=r"^characteristic left the domain at s=2\.30259: ") as err:
        characteristic_deviation(F, V, (1.0, 1.0, 1.0), 50.0)
    x, y, z = err.value.point
    assert 10.0 - 1e-10 <= x <= 10.0
    assert y == 1.0
    assert z == pytest.approx(0.1, abs=1e-9)


# --- the float curl lines against the NumPy ones ------------------------------------
# (characteristic_deviation as it was, with an np_ prefix: its right-hand side
# takes fieldkit.curl at every stage and returns an ndarray, and each step
# takes V at its samples, one scalar dense call each)

def np_characteristic_deviation(F, V, x0, s_max, steps=200):
    if F.dimension != 3:
        raise DimensionMismatchError("characteristics are traced for 3D fields")
    require_positive("s_max", s_max)
    if not 1 <= steps <= _ode._MAX_STEPS:
        raise ValueError(f"steps must be >= 1 and at most {_ode._MAX_STEPS}, got {steps!r}")
    x0 = np.asarray(x0, dtype=float)
    if not F.domain.contains(x0):
        raise OutOfDomainError("start point outside domain", x0)
    v0 = V.value(x0)
    deviation = 0.0

    def rhs(s, x):
        try:
            return fieldkit.curl(F, x)
        except OutOfDomainError:
            return fieldkit.curl(F, np.clip(x, F.domain.lo, F.domain.hi))

    def visit(x):
        nonlocal deviation
        deviation = max(deviation, abs(V.value(x) - v0))

    ds, next_s, taken = s_max / steps, s_max / steps, 0

    def on_step(s0, xa, s1, xb, dense):
        nonlocal next_s, taken
        while taken < steps and next_s <= s1 + 1e-15:
            theta = (next_s - s0) / (s1 - s0) if s1 > s0 else 1.0
            visit(np.array(dense(min(max(theta, 0.0), 1.0))))
            next_s += ds
            taken += 1

    res = integrate_dopri45(
        rhs,
        0.0,
        x0,
        s_max,
        atol=CHARACTERISTIC_TOL,
        rtol=CHARACTERISTIC_TOL,
        inside=F.domain.contains,
        on_step=on_step,
    )
    if res.exited:
        raise OutOfDomainError(
            f"characteristic left the domain at s={res.t:.6g}", res.y
        )
    visit(res.y)
    return float(deviation)


CHIRAL_DOM = Box((-2.0,) * 3, (2.0,) * 3)


def chiral_field():
    return VectorFieldDef.from_source(["y", "0", "1"], 3, domain=CHIRAL_DOM)


def full_curl_field():
    # curl F = (x + 2y, 2z, 2x - z): every difference of the curl is nonzero
    return VectorFieldDef.from_source(["-(y*z) + z^2", "-(2*x*z) + x^2", "-(x*y) + y^2"], 3,
                                      domain=DOM3)


@pytest.mark.parametrize("field, v, x0, s_max, steps", [
    (triple_field, "y", (1.0, 1.0, 1.0), 1.0, 200),
    (triple_field, "x", (1.0, 1.0, 1.0), 1.0, 200),
    (triple_field, "x*z", (1.0, 1.0, 1.0), 1.0, 200),
    (triple_field, "x*z", (0.6, 0.7, 0.8), 2.0, 37),
    (triple_field, "log(x - 0.99)", (1.0, 1.0, 1.0), 1.0, 200),
    (chiral_field, "z", (0.5, 0.5, 0.5), 1.0, 200),
    (chiral_field, "x + y*z", (0.5, -0.3, 1.5), 3.0, 37),
    (full_curl_field, "x*y + z", (1.0, 1.0, 1.0), 0.5, 200),
])
def test_float_characteristics_are_the_numpy_characteristics(field, v, x0, s_max, steps):
    F = field()
    V = ScalarFieldDef.from_source(v, 3, domain=F.domain)
    got = characteristic_deviation(F, V, x0, s_max, steps)
    assert got == np_characteristic_deviation(F, V, x0, s_max, steps)


def test_float_characteristic_leaves_the_domain_where_the_numpy_one_does():
    F = triple_field()
    V = ScalarFieldDef.from_source("y", 3, domain=DOM3)
    with pytest.raises(OutOfDomainError) as want:
        np_characteristic_deviation(F, V, (1.0, 1.0, 1.0), 50.0)
    with pytest.raises(OutOfDomainError) as got:
        characteristic_deviation(F, V, (1.0, 1.0, 1.0), 50.0)
    assert str(got.value) == str(want.value)
    assert np.array_equal(got.value.point, want.value.point)


def test_characteristic_expression_error_is_the_numpy_one():
    # log(3 - x) enters F's Jacobian tuple but not its curl, (x, 0, -z), so
    # x = e^s reaches 3 inside the box and a stage there fails
    sources = ["-(y*z) - log(3 - x)", "-(2*x*z)", "-(x*y)"]
    F = VectorFieldDef.from_source(sources, 3, domain=DOM3)
    V = ScalarFieldDef.from_source("y", 3, domain=DOM3)
    with pytest.raises(EvalDomainError) as want:
        np_characteristic_deviation(F, V, (1.0, 1.0, 1.0), 2.0)
    with pytest.raises(EvalDomainError) as got:
        characteristic_deviation(F, V, (1.0, 1.0, 1.0), 2.0)
    assert str(got.value) == str(want.value)
    assert "log of non-positive value" in str(got.value)


def test_characteristic_v_error_comes_before_a_later_step_s():
    # V = sqrt(2 - x) fails at the first sample past x = 2 (s = ln 2), and
    # the stage at x = 3 (s = ln 3) later fails in F's Jacobian: V's error
    # is raised, as it is by the NumPy characteristic's per-step samples
    sources = ["-(y*z) - log(3 - x)", "-(2*x*z)", "-(x*y)"]
    F = VectorFieldDef.from_source(sources, 3, domain=DOM3)
    V = ScalarFieldDef.from_source("sqrt(2 - x)", 3, domain=DOM3)
    with pytest.raises(EvalDomainError) as want:
        np_characteristic_deviation(F, V, (1.0, 1.0, 1.0), 2.0)
    with pytest.raises(EvalDomainError) as got:
        characteristic_deviation(F, V, (1.0, 1.0, 1.0), 2.0)
    assert str(got.value) == str(want.value)
    assert "sqrt of negative value" in str(got.value)


def test_characteristic_takes_at_most_steps_samples(monkeypatch):
    # a spacing of 1e-16, below the 1e-15 by which a step end reaches a
    # sample time, took 10 samples past s_max
    F = triple_field()
    V = ScalarFieldDef.from_source("y", 3, domain=DOM3)
    visited = []
    value = ScalarFieldDef.value_unchecked
    monkeypatch.setattr(ScalarFieldDef, "value_unchecked",
                        lambda self, x: visited.append(x) or value(self, x))
    characteristic_deviation(F, V, (1.0, 1.0, 1.0), 1e-12, steps=10000)
    assert len(visited) == 10000 + 1  # the samples and the end


def test_characteristic_of_a_sampled_force_fails_as_the_numpy_one():
    base = triple_field()
    F = CallableVectorField(base.value, 3, DOM3)
    V = ScalarFieldDef.from_source("y", 3, domain=DOM3)
    with pytest.raises(ValueError) as want:
        np_characteristic_deviation(F, V, (1.0, 1.0, 1.0), 1.0)
    with pytest.raises(ValueError) as got:
        characteristic_deviation(F, V, (1.0, 1.0, 1.0), 1.0)
    assert str(got.value) == str(want.value) == "sampler-backed fields support fd mode only"


# --- batch consumers -------------------------------------------------------------

from hypothesis import assume, given, settings
from hypothesis import strategies as st


REPEATABLE = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@REPEATABLE
@given(
    st.sampled_from(["{a}*u + {b}", "{a}*u + {b}*u^3", "exp({k}*u)", "{a}*u - {b}*exp(u)"]),
    st.floats(0.5, 3.0),
    st.floats(0.0, 2.0),
    st.sampled_from([-1.0, -0.5, 0.25, 1.0]),
)
def test_verify_residual_is_gauge_invariant(template, a, b, k):
    # every f here has f' != 0 on U(R2) = [-4, -1]
    F, P = berry_field(), berry_potentials()
    f = exprlang.parse_in_variables(template.format(a=repr(a), b=repr(b), k=repr(k)), ("u",))
    base = verify_representation(F, P, R2)
    after = verify_representation(F, gauge_transform(P, f, region=R2), R2)
    assert base.max <= 1e-12 and after.max <= 1e-12
    assert after.sample_count == base.sample_count


def two_potential_field(u_src, v_src):
    """F = -V grad U, from the derivative trees of U."""
    U = exprlang.parse(u_src, 3)
    return VectorFieldDef.from_source(
        [f"-({v_src})*({exprlang.to_source(exprlang.derivative(U, v))})" for v in U.variables],
        3, domain=DOM3)


@REPEATABLE
@given(
    st.sampled_from(["{a}*x*y + {b}*z", "x*y^2*z + {a}*y", "exp({k}*x)*y + {b}*z^2",
                     "{a}*x^2 + y*z"]),
    st.sampled_from(["{a} + x*z", "exp({k}*y) + {b}", "{a}*x + {b}*y + z^2",
                     "2 + {a}*sin(x*y)"]),
    st.floats(0.5, 3.0),
    st.floats(0.0, 2.0),
    st.sampled_from([-1.0, -0.5, 0.25, 1.0]),
)
def test_v_is_constant_along_the_curl_lines_of_minus_v_grad_u(u_template, v_template, a, b, k):
    # curl(-V grad U) = grad U x grad V, so V keeps its value along the lines
    # of curl F, and V + x does not where the line moves x
    u_src, v_src = (t.format(a=repr(a), b=repr(b), k=repr(k)) for t in (u_template, v_template))
    F = two_potential_field(u_src, v_src)
    x0 = (1.0, 1.0, 1.0)
    assume(abs(fieldkit.curl(F, x0)[0]) >= 0.1)
    V = ScalarFieldDef.from_source(v_src, 3, domain=DOM3)
    off = ScalarFieldDef.from_source(f"{v_src} + x", 3, domain=DOM3)
    try:
        dev = characteristic_deviation(F, V, x0, 0.5)
        off_dev = characteristic_deviation(F, off, x0, 0.5)
    except OutOfDomainError:
        assume(False)
    # the largest dev / max(1, |V(x0)|) measured was 9e-11, the least off_dev 0.044
    assert dev <= 100 * CHARACTERISTIC_TOL * max(1.0, abs(V.value(x0)))
    assert off_dev >= 1e-3


def reference_verify(F, potentials, pts):
    """The per-sample loop of verify_representation: the first error raised."""
    mags = []
    for p in pts:
        r = F.value(p) + potentials.V.value(p) * potentials.U.gradient(p)
        if potentials.W is not None:
            r = r + potentials.W.gradient(p)
        mags.append(np.linalg.norm(r))
    return np.array(mags)


def test_verify_fails_at_the_first_sample_a_loop_fails_at():
    # samples run x-major: U's gradient fails at the second one (y = 1.5),
    # F's value only from the seventh (x = 1.5), so the loop meets U's error
    # first while a batch of F's values fails first
    F = VectorFieldDef.from_source(["-x*y^2 + 1/(x - 1.5)", "-x^3"], 2, domain=DOM2)
    U = ScalarFieldDef.from_source("-(1/x + 1/y) + abs(y - 1.5)^0.5", 2, domain=DOM2)
    P = PotentialSet(U=U, V=berry_potentials().V)
    region = Region.grid(Box((0.5, 1.0), (1.5, 2.0)), (3, 3))
    pts = region.samples()
    with pytest.raises(EvalDomainError) as want:
        reference_verify(F, P, pts)
    with pytest.raises(EvalDomainError) as got:
        verify_representation(F, P, region)
    assert str(got.value) == str(want.value)
    assert "zero raised to a negative power" in str(got.value)


def test_verify_matches_the_pointwise_loop():
    F, P = berry_field(), berry_potentials()
    rep = verify_representation(F, P, R2)
    want = reference_verify(F, P, R2.samples())
    assert rep.max == pytest.approx(want.max(), abs=4e-15)
    assert rep.sample_count == len(want)


def test_classify_takes_the_jacobians_once(monkeypatch):
    F = berry_field()
    calls = []
    real = VectorFieldDef.jacobians
    monkeypatch.setattr(VectorFieldDef, "jacobians",
                        lambda self, P, mode="analytic": calls.append(len(P)) or real(self, P, mode))
    assert classify(F, R2).canonical_class == "two-potential"
    assert calls == [len(R2.samples())]


def test_decompose_refuses_a_split_that_is_not_conservative():
    # V = y + z is a valid first integral of curl F here, but the gauge
    # grad V . grad U = 0 admits no potential: curl F_c is O(1)
    F = VectorFieldDef.from_source(["-(y + z)", "-(y + z)*2*y", "0"], 3, domain=DOM3)
    V = ScalarFieldDef.from_source("y + z", 3, domain=DOM3)
    region = Region.random(Box((0.5,) * 3, (2.0,) * 3), 40, seed=3)
    with pytest.raises(NumericalError, match="not conservative"):
        decompose3d(F, V, region)


@pytest.mark.parametrize("count", [20, 40])
def test_decompose_evaluates_each_sample_and_stencil_point_once(monkeypatch, count):
    # F's Jacobian on the samples for the scale, on the first sample and on
    # all samples for the split, then on the first row's stencil points and
    # on all of them for both fd curls: N + (1 + N) + (6 + 6N) rows
    rows = {"F": 0, "V": 0}
    jacobians, gradients = VectorFieldDef.jacobians, ScalarFieldDef.gradients

    def count_rows(name, real):
        def counted(self, P, mode="analytic"):
            rows[name] += len(P)
            return real(self, P, mode)
        return counted

    monkeypatch.setattr(VectorFieldDef, "jacobians", count_rows("F", jacobians))
    monkeypatch.setattr(ScalarFieldDef, "gradients", count_rows("V", gradients))
    V = ScalarFieldDef.from_source("y", 3, domain=DOM3)
    decompose3d(triple_field(), V, Region.random(R3.box, count, seed=42))
    assert rows == {"F": 8 * count + 7, "V": 7 * count + 7}


def test_decompose_stencil_error_comes_after_the_admissibility_checks():
    # V = log(y - c) is admissible at every sample, but its log fails at
    # the y - h stencil point of the sample with the smallest y
    c = float(R3.samples()[:, 1].min()) - 3e-6
    V = ScalarFieldDef.from_source("log(y - c)", 3, {"c": c}, DOM3)
    with pytest.raises(EvalDomainError, match=r"log of non-positive value -3\.06"):
        decompose3d(triple_field(), V, R3)


def test_decompose_stencil_error_is_the_one_of_the_pointwise_loop():
    # at the sample r with the largest x, F fails at its first stencil point
    # x + h, and grad V vanishes at a later one, y - h: a loop over the
    # stencil points meets F's error first, though a batch of them meets
    # V's floor first. F's sqrt terms cancel exactly, so curl F is unchanged
    pts = R3.samples()
    x, y, _ = pts[int(np.argmax(pts[:, 0]))]
    hx, hy = (max(1.0, abs(c)) * FD_STEP_FACTOR for c in (x, y))
    sources = ["-(y*z) + sqrt(c - x) - sqrt(c - x)", "-(2*x*z)", "-(x*y)"]
    F = VectorFieldDef.from_source(sources, 3, {"c": float(x + hx / 2)}, DOM3)
    V = ScalarFieldDef.from_source("(y - c)^2", 3, {"c": float(y - hy)}, DOM3)
    with pytest.raises(EvalDomainError, match="sqrt of negative value"):
        decompose3d(F, V, R3)
    with pytest.raises(NumericalError, match=r"below floor at \("):
        decompose3d(triple_field(), V, R3)
