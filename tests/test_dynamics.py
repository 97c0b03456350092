import math

import numpy as np
import pytest

from curlkit.dynamics import SimConfig, integrate, work_energy_residual
from curlkit.errors import OutOfDomainError
from curlkit.fieldkit import Box, VectorFieldDef


def free_field():
    return VectorFieldDef.from_source(["0", "0"], 2, domain=Box((-10, -10), (10, 10)))


def harmonic_field():
    return VectorFieldDef.from_source(["-x", "-y"], 2, domain=Box((-5, -5), (5, 5)))


def berry_field():
    return VectorFieldDef.from_source(
        ["-x*y^2", "-x^3"], 2, domain=Box((0.05, 0.05), (5, 5))
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mass=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        SimConfig(integrator="euler")


@pytest.mark.parametrize("name", ["t_end", "atol", "rtol", "h", "h_max", "record_dt"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError):
        SimConfig(integrator="rk4", **{name: value})
    with pytest.raises(ValueError):
        SimConfig(**{name: value})


def test_free_particle():
    traj = integrate(free_field(), (0, 0), (1, 2), SimConfig(t_end=3.0))
    assert not traj.exited
    assert traj.x[-1] == pytest.approx([3.0, 6.0], abs=1e-12)
    assert np.allclose(traj.kinetic, traj.kinetic[0], atol=1e-14)
    assert work_energy_residual(traj) <= 1e-14


def test_harmonic_circular_orbit():
    cfg = SimConfig(t_end=2 * math.pi)
    traj = integrate(harmonic_field(), (1, 0), (0, 1), cfg)
    radii = np.linalg.norm(traj.x, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-6
    # period: the state returns to the start after 2 pi
    assert traj.x[-1] == pytest.approx([1.0, 0.0], abs=1e-5)
    assert traj.v[-1] == pytest.approx([0.0, 1.0], abs=1e-5)


def test_trajectory_monotone_time_and_invariants():
    traj = integrate(harmonic_field(), (1, 0), (0, 1), SimConfig(t_end=2.0))
    assert np.all(np.diff(traj.t) > 0)
    assert np.all(traj.kinetic >= 0)
    assert traj.work[0] == 0.0


def test_work_energy_curl_force():
    cfg = SimConfig(t_end=2.0)
    traj = integrate(berry_field(), (1, 1), (0.1, -0.1), cfg)
    assert work_energy_residual(traj) <= 1e-8


def test_work_energy_harmonic_tight_tolerance():
    cfg = SimConfig(t_end=2.0, atol=1e-9, rtol=1e-9)
    traj = integrate(harmonic_field(), (1, 0), (0, 1), cfg)
    assert work_energy_residual(traj) <= 1e-7


def test_rk4_residual_shrinks_16x_on_halving():
    # radial fall: K and W both vary so the h^4 quadrature term dominates
    # (a circular orbit has F.v = 0 and degenerates the check)
    base = SimConfig(t_end=2.0, integrator="rk4", h=0.02)
    half = SimConfig(t_end=2.0, integrator="rk4", h=0.01)
    r1 = work_energy_residual(integrate(harmonic_field(), (1, 0), (0, 0), base))
    r2 = work_energy_residual(integrate(harmonic_field(), (1, 0), (0, 0), half))
    assert r1 / r2 == pytest.approx(16.0, rel=0.3)


def test_time_reversal():
    cfg = SimConfig(t_end=1.0, atol=1e-10, rtol=1e-10)
    fwd = integrate(berry_field(), (1, 1), (0.1, -0.1), cfg)
    assert not fwd.exited
    back = integrate(berry_field(), fwd.x[-1], -fwd.v[-1], cfg)
    assert np.max(np.abs(back.x[-1] - np.array([1.0, 1.0]))) <= 1e-8


def test_dopri_and_rk4_agree():
    x0, v0 = (1.0, 1.0), (0.1, -0.1)
    a = integrate(berry_field(), x0, v0, SimConfig(t_end=2.0, atol=1e-9, rtol=1e-9))
    b = integrate(berry_field(), x0, v0, SimConfig(t_end=2.0, integrator="rk4", h=1e-4))
    assert a.x[-1] == pytest.approx(b.x[-1], abs=1e-6)
    assert a.v[-1] == pytest.approx(b.v[-1], abs=1e-6)


def test_domain_exit_partial_trajectory():
    # shoot the particle straight at the x = 0.05 wall
    traj = integrate(berry_field(), (1, 1), (-2.0, 0.0), SimConfig(t_end=5.0))
    assert traj.exited
    assert traj.exit_state is not None
    t_exit, x_exit = traj.exit_state
    assert x_exit[0] == pytest.approx(0.05, abs=1e-8)
    assert traj.t[-1] == pytest.approx(t_exit, abs=1e-12)
    # work-energy still holds on the partial trajectory
    assert work_energy_residual(traj) <= 1e-8


def test_initial_point_must_be_inside():
    with pytest.raises(OutOfDomainError):
        integrate(berry_field(), (10, 1), (0, 0), SimConfig(t_end=1.0))


def test_record_dt_produces_dense_grid():
    cfg = SimConfig(t_end=1.0, record_dt=1e-3)
    traj = integrate(harmonic_field(), (1, 0), (0, 1), cfg)
    assert np.max(np.diff(traj.t)) <= 1e-3 + 1e-12
    assert work_energy_residual(traj) <= 1e-9


def test_kinetic_values():
    traj = integrate(free_field(), (0, 0), (1, 1), SimConfig(t_end=1.0, mass=2.0))
    assert traj.kinetic.shape == traj.t.shape
    # m = 2, |v|^2 = 2 -> K = 2 everywhere
    assert np.allclose(traj.kinetic, 2.0, atol=1e-14)


def test_kinetic_zero_velocity():
    traj = integrate(free_field(), (1, 1), (0, 0), SimConfig(t_end=1.0))
    assert np.all(traj.kinetic == 0.0)


def test_kinetic_monotone_on_harmonic_quarter_period():
    # from rest at (1, 0): U = (x^2+y^2)/2 decreases along the fall, K rises
    traj = integrate(harmonic_field(), (1, 0), (0, 0), SimConfig(t_end=math.pi / 2))
    K = traj.kinetic
    assert np.all(np.diff(K) >= -1e-12)
    assert K[-1] > K[0]


def test_stats_populated():
    traj = integrate(harmonic_field(), (1, 0), (0, 1), SimConfig(t_end=2.0))
    assert traj.stats.n_steps == len(traj) - 1
    assert traj.stats.n_fev > 0
