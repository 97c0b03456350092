import math
from types import SimpleNamespace

import numpy as np
import pytest

from curlkit.auxiliary import (
    AuxiliaryProblem,
    _cumtrapz,
    auxiliary_force,
    auxiliary_hamiltonian,
    auxiliary_trajectory,
    nonlocal_hamiltonian_series,
)
from curlkit.darboux import PotentialSet
from curlkit.dynamics import SimConfig, integrate
from curlkit.errors import NumericalError
from curlkit.fieldkit import Box, Region, ScalarFieldDef, VectorFieldDef

DOM = Box((0.05, 0.05), (5.0, 5.0))
REGION = Region.random(Box((0.5, 0.5), (2.0, 2.0)), 100, seed=9)


def berry_problem():
    F = VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=DOM)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=DOM),
        V=ScalarFieldDef.from_source("x^3*y^2", 2, domain=DOM),
    )
    return AuxiliaryProblem(F=F, potentials=P, mass=1.0, region=REGION)


def harmonic_problem():
    dom = Box((-5, -5), (5, 5))
    F = VectorFieldDef.from_source(["-x", "-y"], 2, domain=dom)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("(x^2 + y^2)/2", 2, domain=dom),
        V=ScalarFieldDef.from_source("1", 2, domain=dom),
    )
    region = Region.random(Box((-2, -2), (2, 2)), 50, seed=3)
    return AuxiliaryProblem(F=F, potentials=P, mass=1.0, region=region)


def test_problem_rejects_wrong_potentials():
    F = VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=DOM)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=DOM),
        V=ScalarFieldDef.from_source("1.1*x^3*y^2", 2, domain=DOM),
    )
    with pytest.raises(NumericalError):
        AuxiliaryProblem(F=F, potentials=P, mass=1.0, region=REGION)


def test_rescaled_force_closed_form():
    # (F / V)(p) = -(1/x^2, 1/y^2) for the worked 2D pair
    fbar = auxiliary_force(berry_problem())
    for p in [(1.0, 1.0), (0.7, 1.8), (2.0, 0.6)]:
        expected = -np.array([1.0 / p[0] ** 2, 1.0 / p[1] ** 2])
        assert fbar.value(p) == pytest.approx(expected, rel=1e-12)


def test_rescaled_force_equals_minus_grad_u():
    prob = berry_problem()
    fbar = auxiliary_force(prob)
    for p in REGION.samples()[:50]:
        assert np.linalg.norm(fbar.value(p) + prob.potentials.U.gradient(p)) <= 1e-9


def test_conservative_field_untouched_by_unit_v():
    prob = harmonic_problem()
    fbar = auxiliary_force(prob)
    for p in [(1.0, 0.0), (0.3, -1.2)]:
        assert fbar.value(p) == pytest.approx(prob.F.value(np.asarray(p)), abs=1e-15)


def test_hamiltonian_values():
    U0 = ScalarFieldDef.from_source("0", 2, domain=Box((-2, -2), (2, 2)))
    assert auxiliary_hamiltonian((0, 0), (1, 0), U0, 1.0) == 0.5
    U = ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=DOM)
    assert auxiliary_hamiltonian((1, 1), (0, 0), U, 1.0) == -2.0
    assert auxiliary_hamiltonian((1, 1), (0, 0), U, 7.0) == -2.0  # p = 0: H = U


def test_auxiliary_trajectory_conserves_h():
    prob = berry_problem()
    cfg = SimConfig(mass=1.0, t_end=1.0, atol=1e-10, rtol=1e-10)
    traj, drift = auxiliary_trajectory(prob, (1.0, 1.0), (0.2, 0.0), cfg)
    assert not traj.exited
    assert drift <= 1e-6


def test_auxiliary_trajectory_harmonic_ten_periods():
    prob = harmonic_problem()
    cfg = SimConfig(mass=1.0, t_end=20 * math.pi, atol=1e-11, rtol=1e-11)
    traj, drift = auxiliary_trajectory(prob, (1.0, 0.0), (0.0, 1.0), cfg)
    assert drift <= 1e-8


def test_stationary_point_zero_drift():
    # grad U = 0 at the minimum of U = ((x-1)^2 + (y-1)^2)/2
    dom = Box((-5, -5), (5, 5))
    F = VectorFieldDef.from_source(["1 - x", "1 - y"], 2, domain=dom)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("((x - 1)^2 + (y - 1)^2)/2", 2, domain=dom),
        V=ScalarFieldDef.from_source("1", 2, domain=dom),
    )
    region = Region.random(Box((-2, -2), (2, 2)), 40, seed=4)
    prob = AuxiliaryProblem(F=F, potentials=P, mass=1.0, region=region)
    cfg = SimConfig(mass=1.0, t_end=1.0)
    traj, drift = auxiliary_trajectory(prob, (1.0, 1.0), (0.0, 0.0), cfg)
    assert drift == 0.0
    assert np.allclose(traj.x, 1.0)


def test_v_floor_violation_raises():
    F = VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=DOM)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=DOM),
        V=ScalarFieldDef.from_source("x^3*y^2", 2, domain=DOM),
    )
    prob = AuxiliaryProblem(F=F, potentials=P, mass=1.0, region=REGION, v_floor_rel=1e-3)
    fbar = auxiliary_force(prob)
    with pytest.raises(NumericalError) as err:
        fbar.value((0.05, 0.05))  # V = x^3 y^2 = 3e-7, below 1e-3 * max V
    assert "floor" in str(err.value)


# --- nonlocal series -----------------------------------------------------------

def test_nonlocal_initial_conditions_exact():
    prob = berry_problem()
    cfg = SimConfig(mass=1.0, t_end=1.0, record_dt=1e-3)
    traj = integrate(prob.F, (1.0, 1.0), (0.2, -0.1), cfg)
    series = nonlocal_hamiltonian_series(traj, prob)
    assert np.array_equal(series.pbar[0], prob.mass * traj.v[0])
    assert np.array_equal(series.xbar[0], traj.x[0])
    assert series.H[0] == auxiliary_hamiltonian(
        traj.x[0], prob.mass * traj.v[0], prob.potentials.U, prob.mass
    )


def test_nonlocal_conservative_reduction_matches_physical_energy():
    prob = harmonic_problem()
    cfg = SimConfig(mass=1.0, t_end=1.0, atol=1e-11, rtol=1e-11, record_dt=2.5e-4)
    traj = integrate(prob.F, (1.0, 0.0), (0.0, 1.0), cfg)
    series = nonlocal_hamiltonian_series(traj, prob)
    physical = traj.kinetic + 0.5 * np.sum(traj.x**2, axis=1)
    assert np.max(np.abs(series.H - physical)) <= 1e-8
    assert series.drift <= 1e-7
    # with V = 1 the auxiliary motion reproduces the physical one
    assert np.max(np.abs(series.xbar - traj.x)) <= 1e-7


def test_nonlocal_pbar_derivative_matches_integrand():
    # d(pbar)/dt = -grad U along the trajectory, to trapezoid order:
    # halving the grid quarters the defect
    prob = harmonic_problem()

    def defect(dt):
        cfg = SimConfig(mass=1.0, t_end=1.0, integrator="rk4", h=dt)
        traj = integrate(prob.F, (1.0, 0.0), (0.0, 1.0), cfg)
        series = nonlocal_hamiltonian_series(traj, prob)
        t, pbar = series.t, series.pbar
        worst = 0.0
        for k in range(1, len(t) - 1):
            dp = (pbar[k + 1] - pbar[k - 1]) / (t[k + 1] - t[k - 1])
            g = prob.potentials.U.gradient(traj.x[k])
            worst = max(worst, float(np.max(np.abs(dp + g))))
        return worst

    d1, d2 = defect(0.02), defect(0.01)
    assert d1 / d2 == pytest.approx(4.0, rel=0.3)


def test_nonlocal_berry_series_emitted_with_drift():
    prob = berry_problem()
    cfg = SimConfig(mass=1.0, t_end=1.0, atol=1e-10, rtol=1e-10, record_dt=1e-3)
    traj = integrate(prob.F, (1.0, 1.0), (0.2, -0.1), cfg)
    series = nonlocal_hamiltonian_series(traj, prob)
    # diagnostic: the drift is recorded, not asserted against a target
    assert series.drift >= 0.0
    assert len(series.t) == len(series.H)
    assert series.H[0] == pytest.approx((0.2**2 + 0.1**2) / 2 - 2.0, abs=1e-12)


def test_nonlocal_refine_subdivides_grid():
    prob = harmonic_problem()
    cfg = SimConfig(mass=1.0, t_end=0.5)
    traj = integrate(prob.F, (1.0, 0.0), (0.0, 1.0), cfg)
    s1 = nonlocal_hamiltonian_series(traj, prob)
    s4 = nonlocal_hamiltonian_series(traj, prob, refine=4)
    assert len(s4.t) == 4 * (len(s1.t) - 1) + 1
    # refinement improves the conservative-reduction drift
    assert s4.drift <= s1.drift


def test_nonlocal_3d_with_w_term():
    # F = -V grad U - grad W with V = 2 + x (nonconstant), U, W polynomial
    dom = Box((-3, -3, -3), (3, 3, 3))
    F = VectorFieldDef.from_source(
        ["-(2 + x)*y - 2*x", "-(2 + x)*x - 2*y", "-2*z"], 3, domain=dom
    )  # V grad U with U = x y, plus grad(x^2+y^2+z^2)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("x*y", 3, domain=dom),
        V=ScalarFieldDef.from_source("2 + x", 3, domain=dom),
        W=ScalarFieldDef.from_source("x^2 + y^2 + z^2", 3, domain=dom),
    )
    region = Region.random(Box((-1, -1, -1), (1, 1, 1)), 60, seed=5)
    prob = AuxiliaryProblem(F=F, potentials=P, mass=1.0, region=region)
    fbar = auxiliary_force(prob)
    for p in region.samples()[:20]:
        assert np.linalg.norm(fbar.value(p) + P.U.gradient(p)) <= 1e-10
    cfg = SimConfig(mass=1.0, t_end=0.5, record_dt=1e-3)
    traj = integrate(F, (0.5, 0.2, 0.1), (0.1, 0.0, -0.2), cfg)
    series = nonlocal_hamiltonian_series(traj, prob)
    assert len(series.t) == len(traj.t) or series.truncated


# --- batched evaluation against the per-point loops ------------------------------

def w_term_problem():
    # the problem of test_nonlocal_3d_with_w_term; V = 2 + x reaches 0 at x = -2
    dom = Box((-3, -3, -3), (3, 3, 3))
    F = VectorFieldDef.from_source(
        ["-(2 + x)*y - 2*x", "-(2 + x)*x - 2*y", "-2*z"], 3, domain=dom
    )
    P = PotentialSet(
        U=ScalarFieldDef.from_source("x*y", 3, domain=dom),
        V=ScalarFieldDef.from_source("2 + x", 3, domain=dom),
        W=ScalarFieldDef.from_source("x^2 + y^2 + z^2", 3, domain=dom),
    )
    region = Region.random(Box((-1, -1, -1), (1, 1, 1)), 60, seed=5)
    return AuxiliaryProblem(F=F, potentials=P, mass=1.0, region=region)


@pytest.mark.parametrize("make", [berry_problem, w_term_problem])
def test_auxiliary_force_batch_matches_sampler(make):
    prob = make()
    fbar = auxiliary_force(prob)
    P = prob.region.samples()
    want = np.array([fbar.value(p) for p in P])
    got = fbar.values(P)
    assert np.allclose(got, want, rtol=8 * np.finfo(float).eps, atol=0)


def test_auxiliary_force_batch_floor_error_is_the_pointwise_one():
    prob = w_term_problem()
    fbar = auxiliary_force(prob)
    # V = 2 + x is below its floor at the last two rows; the first of them
    # is named, as by the pointwise loop
    P = np.array([[0.5, 0.1, 0.2], [-2.0, 0.3, 0.0], [-2.0 + 1e-12, 0.0, 0.0]])
    with pytest.raises(NumericalError) as want:
        [fbar.value(p) for p in P]
    with pytest.raises(NumericalError) as got:
        fbar.values(P)
    assert str(got.value) == str(want.value)


def test_region_floor_check_batched():
    V = berry_problem().potentials.V
    v_max = max(abs(V.value(p)) for p in REGION.samples())
    assert berry_problem().v_floor == pytest.approx(1e-9 * v_max, rel=4 * np.finfo(float).eps)
    # V spans 3e-7 .. 3125 over the whole domain: below 1e-9 of its maximum
    prob = berry_problem()
    with pytest.raises(NumericalError, match="falls below its floor"):
        AuxiliaryProblem(F=prob.F, potentials=prob.potentials, mass=1.0,
                         region=Region.grid(DOM, (5, 5)))


def reference_h_series(series_t, pbar, xbar, U, m):
    """The per-point H loop: stop at the first auxiliary position outside
    U's domain. Returns (n_valid, truncated, H)."""
    H = []
    for i, xb in enumerate(xbar):
        if not U.domain.contains(xb):
            return i, True, np.array(H)
        H.append(float(np.dot(pbar[i], pbar[i]) / (2.0 * m) + U.value(xb)))
    return len(series_t), False, np.array(H)


@pytest.mark.parametrize("v0", [(-0.5, 0.3), (0.2, -0.1)])
def test_nonlocal_h_batched_matches_pointwise_loop(v0):
    prob = berry_problem()
    traj = integrate(prob.F, (1.0, 1.0), v0, SimConfig(t_end=1.0, record_dt=1e-2))
    series = nonlocal_hamiltonian_series(traj, prob)
    # the whole series before truncation (W is None: the integrand is grad U)
    U, m = prob.potentials.U, prob.mass
    first = _cumtrapz(np.array([U.gradient(x) for x in traj.x]), traj.t)
    pbar = m * traj.v[0] - first
    xbar = traj.x[0] + np.outer(traj.t, traj.v[0]) - _cumtrapz(first, traj.t) / m
    n_valid, truncated, H = reference_h_series(traj.t, pbar, xbar, U, m)
    assert (len(series.t), series.truncated) == (n_valid, truncated)
    assert truncated == (v0 == (-0.5, 0.3))
    assert np.array_equal(series.H, H)


def test_auxiliary_trajectory_h_matches_pointwise():
    prob = berry_problem()
    cfg = SimConfig(t_end=1.0)
    traj, drift = auxiliary_trajectory(prob, (1.0, 1.0), (0.2, -0.1), cfg)
    U = prob.potentials.U
    H = traj.kinetic + np.array([U.value(x) for x in traj.x])
    assert drift == float(np.max(np.abs(H - H[0])))


def reference_integrand(x, prob):
    """The per-point integrand loop of nonlocal_hamiltonian_series before it
    was batched: grad U + grad W / V, with the floor check on V."""
    U, V, W = prob.potentials.U, prob.potentials.V, prob.potentials.W
    floor = prob.v_floor
    g = np.empty_like(x)
    for i, xi in enumerate(x):
        gi = U.gradient(xi)
        if W is not None:
            v = V.value(xi)
            if abs(v) < floor:
                raise NumericalError(
                    f"V={v:.3e} below the rescaling floor {floor:.3e} along "
                    "the trajectory; the 1/V factor in the momentum "
                    "rescaling is no longer usable"
                )
            gi = gi + W.gradient(xi) / v
        g[i] = gi
    return g


@pytest.mark.parametrize("make", [berry_problem, w_term_problem])
def test_nonlocal_integrand_matches_the_pointwise_loop(make):
    prob = make()
    x0 = (1.0, 1.0) if make is berry_problem else (0.5, 0.2, 0.1)
    v0 = (0.2, -0.1) if make is berry_problem else (0.1, 0.0, -0.2)
    traj = integrate(prob.F, x0, v0, SimConfig(t_end=0.5, record_dt=1e-2))
    series = nonlocal_hamiltonian_series(traj, prob)
    g = reference_integrand(traj.x, prob)
    pbar = prob.mass * traj.v[0] - _cumtrapz(g, traj.t)
    n = len(series.t)
    assert series.pbar == pytest.approx(pbar[:n], rel=1e-14, abs=1e-14)


def test_nonlocal_floor_error_names_the_first_row():
    prob = w_term_problem()
    # a path through V = 2 + x = 0 at x = -2: rows 3 and 4 are below the floor
    x = np.array([[-1.0, 0.0, 0.0], [-1.5, 0.1, 0.0], [-1.9, 0.2, 0.0],
                  [-2.0, 0.3, 0.0], [-2.0 + 1e-12, 0.4, 0.0], [-1.8, 0.5, 0.0]])
    traj = SimpleNamespace(t=np.linspace(0.0, 0.5, len(x)), x=x, v=np.zeros_like(x))
    with pytest.raises(NumericalError) as want:
        reference_integrand(x, prob)
    with pytest.raises(NumericalError) as got:
        nonlocal_hamiltonian_series(traj, prob)
    assert str(got.value) == str(want.value)
    assert "V=0.000e+00" in str(got.value)
