import math

import numpy as np
import pytest

from curlkit._ode import integrate_dopri45, integrate_rk4, sample_every
from curlkit.errors import NumericalError


def harmonic(t, y):
    # y = (x, v), x'' = -x
    return np.array([y[1], -y[0]])


def test_dopri_harmonic_closed_form():
    res = integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 2 * math.pi,
                            atol=1e-10, rtol=1e-10)
    assert not res.exited
    assert res.y == pytest.approx([1.0, 0.0], abs=1e-8)
    assert res.stats.n_steps > 10
    assert res.stats.n_fev >= 6 * res.stats.n_steps


def test_dopri_tolerance_controls_error():
    loose = integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 2 * math.pi,
                              atol=1e-5, rtol=1e-5)
    tight = integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 2 * math.pi,
                              atol=1e-11, rtol=1e-11)
    err_loose = abs(loose.y[0] - 1.0)
    err_tight = abs(tight.y[0] - 1.0)
    assert err_tight < err_loose
    assert err_tight < 1e-9


def test_dense_output_endpoints_and_interior():
    records = []

    def on_step(t0, y0, t1, y1, dense):
        records.append((t0, y0.copy(), t1, y1.copy(), dense))

    integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 1.0,
                      atol=1e-9, rtol=1e-9, on_step=on_step)
    assert records
    for t0, y0, t1, y1, dense in records:
        assert dense(0.0) == pytest.approx(y0, abs=1e-14)
        assert dense(1.0) == pytest.approx(y1, abs=1e-14)
        # interior against the closed-form solution cos/sin
        for theta in (0.25, 0.5, 0.75):
            tm = t0 + theta * (t1 - t0)
            exact = np.array([math.cos(tm), -math.sin(tm)])
            assert dense(theta) == pytest.approx(exact, abs=1e-9)


def test_dense_output_matches_scipy_rk45():
    scipy = pytest.importorskip("scipy.integrate")
    sol = scipy.solve_ivp(harmonic, (0.0, 1.0), [1.0, 0.0], method="RK45",
                          rtol=1e-9, atol=1e-9, dense_output=True)
    captured = []

    def on_step(t0, y0, t1, y1, dense):
        captured.append((t0, t1, dense))

    integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 1.0,
                      atol=1e-9, rtol=1e-9, on_step=on_step)
    for t0, t1, dense in captured:
        for theta in (0.3, 0.6, 0.9):
            tm = t0 + theta * (t1 - t0)
            assert dense(theta) == pytest.approx(sol.sol(tm), abs=5e-10)


def test_rk4_fourth_order_convergence():
    def run(h):
        res = integrate_rk4(harmonic, 0.0, np.array([1.0, 0.0]), 1.0, h)
        return abs(res.y[0] - math.cos(1.0))

    e1, e2 = run(0.02), run(0.01)
    assert e1 / e2 == pytest.approx(16.0, rel=0.3)


def test_rk4_dense_midpoint_is_half_step_state():
    seen = []

    def on_step(t0, y0, t1, y1, dense):
        seen.append((t0, t1, dense))

    integrate_rk4(harmonic, 0.0, np.array([1.0, 0.0]), 0.5, 0.1, on_step=on_step)
    for t0, t1, dense in seen:
        tm = 0.5 * (t0 + t1)
        exact = np.array([math.cos(tm), -math.sin(tm)])
        # accurate to the scheme's own truncation error, not just the
        # Hermite interpolation error of a full step
        assert dense(0.5) == pytest.approx(exact, abs=1e-7)


def test_guard_bisects_to_boundary():
    # free motion moving right; wall at x = 1
    def f(t, y):
        return np.array([1.0, 0.0])

    res = integrate_dopri45(f, 0.0, np.array([0.0, 0.0]), 10.0,
                            atol=1e-9, rtol=1e-9,
                            inside=lambda y: y[0] <= 1.0)
    assert res.exited
    assert res.y[0] == pytest.approx(1.0, abs=1e-9)
    assert res.t == pytest.approx(1.0, abs=1e-9)


def test_guard_rk4():
    def f(t, y):
        return np.array([y[0]])  # x' = x, x = e^t crosses 2 at t = ln 2

    res = integrate_rk4(f, 0.0, np.array([1.0]), 5.0, 0.05,
                        inside=lambda y: y[0] <= 2.0)
    assert res.exited
    assert res.t == pytest.approx(math.log(2.0), abs=1e-6)


def test_guard_reports_truncated_step_to_callback():
    spans = []

    def on_step(t0, y0, t1, y1, dense):
        spans.append((t0, t1))
        assert dense(1.0) == pytest.approx(y1, abs=1e-12)

    def f(t, y):
        return np.array([1.0])

    res = integrate_dopri45(f, 0.0, np.array([0.0]), 10.0,
                            atol=1e-9, rtol=1e-9,
                            inside=lambda y: y[0] <= 0.35,
                            on_step=on_step)
    assert res.exited
    # the recorded spans tile [0, exit time] without gaps
    assert spans[0][0] == 0.0
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 == pytest.approx(b0, abs=1e-12)
    assert spans[-1][1] == pytest.approx(res.t, abs=1e-12)


def test_step_count_guard():
    with pytest.raises(NumericalError):
        integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 1.0,
                          atol=1e-9, rtol=1e-9, max_steps=3)


def test_invalid_spans():
    with pytest.raises(ValueError):
        integrate_dopri45(harmonic, 1.0, np.array([1.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        integrate_rk4(harmonic, 0.0, np.array([1.0, 0.0]), 1.0, -0.1)


def test_stiff_rejections_counted():
    # the default first step (span / 100) is far outside the stability
    # region of this fast transient, so the controller must reject it
    def f(t, y):
        return np.array([-5000.0 * (y[0] - math.cos(t))])

    res = integrate_dopri45(f, 0.0, np.array([2.0]), 1.0,
                            atol=1e-8, rtol=1e-8)
    assert res.stats.n_rejected > 0


def test_dopri_nan_error_estimate_raises():
    def f(t, y):
        return np.array([math.nan if t > 0.5 else 1.0])

    with pytest.raises(NumericalError):
        integrate_dopri45(f, 0.0, np.array([0.0]), 1.0)


def test_sample_every_hits_each_sample_time_once():
    ds = 0.0137
    samples, step_ends = [], []
    sample = sample_every(ds, samples.append)

    def on_step(t0, y0, t1, y1, dense):
        step_ends.append(t1)
        sample(t0, y0, t1, y1, dense)

    integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 1.0,
                      atol=1e-10, rtol=1e-10, on_step=on_step)
    # many steps, each holding several samples or none
    assert len(step_ends) > 5
    assert len(samples) == int(1.0 / ds)
    # a dropped or repeated sample would shift every later one off its time
    for k, y in enumerate(samples, start=1):
        t = k * ds
        assert y == pytest.approx([math.cos(t), -math.sin(t)], abs=1e-9)


def test_rk4_dense_stays_valid_after_its_step():
    # each step's dense output uses its own end slope f(t1, y1), also when
    # evaluated after later steps have computed theirs
    kept, during = [], []

    def on_step(t0, y0, t1, y1, dense):
        kept.append(dense)
        during.append(dense(0.75))

    integrate_rk4(harmonic, 0.0, np.array([1.0, 0.0]), 1.0, 0.1, on_step=on_step)
    late = kept[0](0.75)
    assert np.array_equal(late, during[0])
    assert late == pytest.approx([math.cos(0.075), -math.sin(0.075)], abs=1e-7)


def classic_rk4(f, t, y, t_end, h):
    """Two classic RK4 half-steps per step, each computing its own k1."""

    def half_step(t, y, h):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    states = []
    while t < t_end - 1e-12 * max(1.0, abs(t_end)):
        step = min(h, t_end - t)
        y = half_step(t + 0.5 * step, half_step(t, y, 0.5 * step), 0.5 * step)
        t += step
        states.append(y)
    return states


def test_rk4_reuses_the_end_slope_as_next_k1():
    calls = []

    def f(t, y):
        calls.append(t)
        return harmonic(t, y)

    states = []
    res = integrate_rk4(f, 0.0, np.array([1.0, 0.0]), 1.0, 0.1,
                        on_step=lambda t0, y0, t1, y1, dense: states.append(y1))
    assert res.stats.n_steps == 10
    assert res.stats.n_fev == len(calls) == 8 * 10
    for got, want in zip(states, classic_rk4(harmonic, 0.0, np.array([1.0, 0.0]), 1.0, 0.1)):
        assert np.array_equal(got, want)
    # the last step's end slope is evaluated only when its dense output needs it
    res = integrate_rk4(f, 0.0, np.array([1.0, 0.0]), 1.0, 0.1,
                        on_step=lambda t0, y0, t1, y1, dense: dense(0.75))
    assert res.stats.n_fev == 8 * 10 + 1


@pytest.mark.parametrize("integrator", ["dopri45", "rk4"])
def test_dense_accepts_theta_array(integrator):
    records = []
    on_step = lambda t0, y0, t1, y1, dense: records.append(dense)
    if integrator == "dopri45":
        integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 1.0, on_step=on_step)
    else:
        integrate_rk4(harmonic, 0.0, np.array([1.0, 0.0]), 1.0, 0.1, on_step=on_step)
    thetas = np.array([0.0, 0.1, 0.5, 0.6, 0.75, 1.0])
    for dense in records:
        rows = dense(thetas)
        assert rows.shape == (len(thetas), 2)
        for theta, row in zip(thetas, rows):
            assert np.array_equal(row, dense(float(theta)))
        assert dense(np.array([])).shape == (0, 2)
