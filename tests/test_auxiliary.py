import dataclasses
import math
import warnings

import numpy as np
import pytest
from test_dynamics import raised, reference_integrate

from curlkit import auxiliary
from curlkit.auxiliary import (
    AuxiliaryProblem,
    auxiliary_force,
    auxiliary_hamiltonian,
    auxiliary_trajectory,
    nonlocal_hamiltonian_series,
)
from curlkit.darboux import PotentialSet
from curlkit.dynamics import SimConfig, integrate
from curlkit.errors import NumericalError
from curlkit.fieldkit import Box, CallableVectorField, Region, ScalarFieldDef, VectorFieldDef

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


def test_hamiltonian_is_finite_where_only_p_dot_p_overflows():
    # p = m v0 with m = 1e300 and v0 = (0.1, -0.1): p . p = 2e598 overflowed
    # with a RuntimeWarning, though the kinetic term m |v0|^2 / 2 is 1e298
    U0 = ScalarFieldDef.from_source("0", 2, domain=Box((-2, -2), (2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = auxiliary_hamiltonian((0, 0), 1e300 * np.array([0.1, -0.1]), U0, 1e300)
    assert h == pytest.approx(1e298, rel=1e-15)
    # a finite p . p keeps its bits
    p = np.array([3e150, -4e150])
    assert auxiliary_hamiltonian((0, 0), p, U0, 2.0) == float(np.dot(p, p) / 4.0)


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


def test_v_floor_violation_raises(monkeypatch):
    monkeypatch.setattr(auxiliary, "V_FLOOR_REL", 1e-3)
    F = VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=DOM)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=DOM),
        V=ScalarFieldDef.from_source("x^3*y^2", 2, domain=DOM),
    )
    prob = AuxiliaryProblem(F=F, potentials=P, mass=1.0, region=REGION)
    fbar = auxiliary_force(prob)
    with pytest.raises(NumericalError) as err:
        fbar.value((0.05, 0.05))  # V = x^3 y^2 = 3e-7, below 1e-3 * max V
    assert "floor" in str(err.value)


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


def test_auxiliary_trajectory_h_matches_pointwise():
    prob = berry_problem()
    cfg = SimConfig(t_end=1.0)
    traj, drift = auxiliary_trajectory(prob, (1.0, 1.0), (0.2, -0.1), cfg)
    U = prob.potentials.U
    H = traj.kinetic + np.array([U.value(x) for x in traj.x])
    assert drift == float(np.max(np.abs(H - H[0])))


# --- the auxiliary Hamiltonian along the curl-force motion ----------------------


def reference_integrand(prob):
    """(F + grad W) / V from the potentials, one point at a time, with the
    floor check on V: the integrand of the auxiliary Hamiltonian's kinetic
    part, written apart from ``auxiliary_force``."""
    F, V, W = prob.F, prob.potentials.V, prob.potentials.W
    floor = prob.v_floor

    def fn(p):
        v = V.value(p)
        if abs(v) < floor:
            raise NumericalError(
                f"V={v:.3e} below the rescaling floor {floor:.3e} at "
                f"{tuple(float(c) for c in p)}"
            )
        f = F.value(p) if W is None else F.value(p) + W.gradient(p)
        return f / v

    return CallableVectorField(fn, F.dimension, F.domain)


def reference_series(prob, x0, v0, cfg, integrand):
    """H at each row of the per-node loop: K(0) + the loop's form work of
    ``integrand`` + U, with U evaluated point by point."""
    cfg = dataclasses.replace(cfg, mass=prob.mass)
    t, x, v, _, form_work = reference_integrate(prob.F, x0, v0, cfg, form=integrand)
    U = prob.potentials.U
    k0 = 0.5 * prob.mass * float(np.dot(v[0], v[0]))
    return t, x, np.array([k0 + fw + U.value(xi) for fw, xi in zip(form_work, x)])


def test_nonlocal_initial_conditions_exact():
    prob = berry_problem()
    x0, v0 = (1.0, 1.0), (0.2, -0.1)
    series = nonlocal_hamiltonian_series(prob, x0, v0, SimConfig(t_end=1.0, record_dt=1e-3))
    assert series.t[0] == 0.0
    assert np.array_equal(series.x[0], x0)
    assert series.H[0] == auxiliary_hamiltonian(
        x0, prob.mass * np.array(v0), prob.potentials.U, prob.mass
    )


def test_nonlocal_conservative_reduction_matches_physical_energy():
    # V = 1, no W: the form is the force itself, so H is K(0) + work + U,
    # the energy up to the work-energy residual
    prob = harmonic_problem()
    cfg = SimConfig(mass=1.0, t_end=1.0, atol=1e-11, rtol=1e-11, record_dt=2.5e-4)
    series = nonlocal_hamiltonian_series(prob, (1.0, 0.0), (0.0, 1.0), cfg)
    traj = integrate(prob.F, (1.0, 0.0), (0.0, 1.0), cfg)
    U = prob.potentials.U.values(traj.x)
    assert np.array_equal(series.x, traj.x)
    assert np.array_equal(series.H, traj.kinetic[0] + traj.work + U)
    assert np.max(np.abs(series.H - (traj.kinetic + U))) <= 1e-10
    assert series.drift <= 1e-10


def test_nonlocal_berry_rk4_drift_falls_16x_per_halving():
    prob = berry_problem()

    def drift(h):
        cfg = SimConfig(t_end=0.5, integrator="rk4", h=h)
        return nonlocal_hamiltonian_series(prob, (1.0, 1.0), (0.3, -0.2), cfg).drift

    d1, d2 = drift(1e-2), drift(5e-3)
    assert d1 / d2 == pytest.approx(16.0, rel=0.3)
    assert d2 <= 1e-12


def test_nonlocal_berry_series_emitted_with_drift():
    prob = berry_problem()
    cfg = SimConfig(mass=1.0, t_end=1.0, atol=1e-10, rtol=1e-10, record_dt=1e-3)
    series = nonlocal_hamiltonian_series(prob, (1.0, 1.0), (0.2, -0.1), cfg)
    assert len(series.t) == len(series.x) == len(series.H)
    assert series.H[0] == pytest.approx((0.2**2 + 0.1**2) / 2 - 2.0, abs=1e-12)
    assert series.drift <= 1e-9


def test_nonlocal_refine_subdivides_grid():
    # t_end 2 runs into the wall; the long steps of dopri45 on the way need
    # finer nodes for the 1/V integrand
    prob = berry_problem()
    x0, v0 = (1.01, 0.99), (0.1, -0.1)
    cfg = SimConfig(t_end=2.0)
    s1 = nonlocal_hamiltonian_series(prob, x0, v0, cfg)
    s4 = nonlocal_hamiltonian_series(prob, x0, v0, dataclasses.replace(cfg, refine=4))
    assert s1.exited and s4.exited
    assert len(s4.t) == 4 * (len(s1.t) - 1) + 1
    assert s4.t[::4] == pytest.approx(s1.t, rel=1e-15, abs=0)
    assert s4.drift <= 1e-5 < s1.drift


def test_nonlocal_3d_with_w_term():
    # F = -V grad U - grad W with V = 2 + x (nonconstant), U, W polynomial
    prob = w_term_problem()
    fbar = auxiliary_force(prob)
    for p in prob.region.samples()[:20]:
        assert np.linalg.norm(fbar.value(p) + prob.potentials.U.gradient(p)) <= 1e-10
    cfg = SimConfig(mass=1.0, t_end=0.5, record_dt=1e-3)
    series = nonlocal_hamiltonian_series(prob, (0.5, 0.2, 0.1), (0.1, 0.0, -0.2), cfg)
    traj = integrate(prob.F, (0.5, 0.2, 0.1), (0.1, 0.0, -0.2), cfg)
    assert np.array_equal(series.t, traj.t) and not series.exited
    assert series.drift <= cfg.atol  # measured 1.6e-10


@pytest.mark.parametrize("v0", [(-0.5, 0.3), (0.2, -0.1)])
def test_nonlocal_h_batched_matches_pointwise_loop(v0):
    prob = berry_problem()
    cfg = SimConfig(t_end=1.0, record_dt=1e-2)
    series = nonlocal_hamiltonian_series(prob, (1.0, 1.0), v0, cfg)
    t, x, H = reference_series(prob, (1.0, 1.0), v0, cfg, auxiliary_force(prob))
    assert np.array_equal(series.t, t) and np.array_equal(series.x, x)
    assert np.max(np.abs(series.H - H)) <= 4 * len(t) * np.spacing(np.max(np.abs(H)))


@pytest.mark.parametrize("make", [berry_problem, w_term_problem])
def test_nonlocal_integrand_matches_the_pointwise_loop(make):
    prob = make()
    x0 = (1.0, 1.0) if make is berry_problem else (0.5, 0.2, 0.1)
    v0 = (0.2, -0.1) if make is berry_problem else (0.1, 0.0, -0.2)
    cfg = SimConfig(t_end=0.5, record_dt=1e-2)
    series = nonlocal_hamiltonian_series(prob, x0, v0, cfg)
    _, _, H = reference_series(prob, x0, v0, cfg, reference_integrand(prob))
    assert series.H == pytest.approx(H, rel=1e-14, abs=1e-14)


def test_nonlocal_floor_error_names_the_first_row(monkeypatch):
    # falling towards the corner, V = x^3 y^2 drops below the raised floor
    # (1e-3 of its maximum over the region) before the wall
    monkeypatch.setattr(auxiliary, "V_FLOOR_REL", 1e-3)
    prob = berry_problem()
    x0, v0 = (1.0, 1.0), (-0.5, -0.5)
    for cfg in (SimConfig(t_end=2.0), SimConfig(integrator="rk4", h=0.01, t_end=2.0)):
        want = raised(lambda: reference_series(prob, x0, v0, cfg, reference_integrand(prob)))
        assert want[0] is NumericalError and "below the rescaling floor" in want[1]
        assert want[1].endswith(")") and " at (0." in want[1]
        assert raised(lambda: nonlocal_hamiltonian_series(prob, x0, v0, cfg)) == want


# --- the domain wall with a W potential ---------------------------------------------

@pytest.mark.parametrize("integrator", ["dopri45", "rk4"])
def test_auxiliary_with_w_stops_at_the_wall(integrator):
    # W's gradient tests the box, so the sampler refuses the trial stages past
    # z = 3; they take the box-clamped point and the guard truncates the run
    prob = w_term_problem()
    cfg = SimConfig(t_end=1.0, integrator=integrator)
    traj, drift = auxiliary_trajectory(prob, (0.5, 0.5, 2.9), (0.0, 0.0, 3.0), cfg)
    assert traj.exited
    t_exit, x_exit = traj.exit_state
    assert abs(x_exit[2] - 3.0) <= 1e-10
    assert t_exit == pytest.approx(0.1 / 3.0, abs=1e-9)  # v_z = 3 stays constant
    assert drift <= 1e-9
