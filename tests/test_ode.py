import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curlkit import _ode, accessibility, darboux, fieldkit
from curlkit._ode import IntegratorStats, OdeResult, integrate_dopri45, integrate_rk4, sample_every
from curlkit.errors import NumericalError
from curlkit.fieldkit import Box, ScalarFieldDef, VectorFieldDef


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


def test_step_count_guard(monkeypatch):
    monkeypatch.setattr(_ode, "_MAX_STEPS", 3)
    with pytest.raises(NumericalError, match="step count exceeded"):
        integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 1.0,
                          atol=1e-9, rtol=1e-9)


@pytest.mark.parametrize("h,cap", [(1e-17, 10_000_000), (0.1, 9)])
def test_rk4_refuses_more_steps_than_the_cap_before_its_first_step(monkeypatch, h, cap):
    # a step below the float spacing near t never advanced it: the loop ran on
    monkeypatch.setattr(_ode, "_MAX_STEPS", cap)
    calls = []
    f = lambda t, y: calls.append(t) or harmonic(t, y)
    with pytest.raises(ValueError, match=f"needs more than {cap} steps"):
        integrate_rk4(f, 0.0, np.array([1.0, 0.0]), 1.0, h)
    assert calls == []


def test_rk4_takes_as_many_steps_as_the_cap(monkeypatch):
    monkeypatch.setattr(_ode, "_MAX_STEPS", 10)
    res = integrate_rk4(harmonic, 0.0, np.array([1.0, 0.0]), 1.0, 0.1)
    assert res.stats.n_steps == 10


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


@pytest.mark.parametrize("span", [1e-13, 1e-20])
def test_dopri_integrates_a_tiny_span(span):
    # the underflow floor scales with a span below 1; an absolute 1e-14
    # refused the first step, span / 100, at t = 0
    res = integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), span)
    assert res.t == span and not res.exited and res.stats.n_steps >= 10
    assert res.y == pytest.approx([math.cos(span), -math.sin(span)], abs=1e-15)


def test_rk4_takes_each_step_of_a_tiny_span():
    # the end snap scales with a span below 1; an absolute 1e-12 exceeded
    # the whole span and took it in one step of t_end, ignoring h
    ends = []
    res = integrate_rk4(harmonic, 0.0, np.array([1.0, 0.0]), 1e-13, 1e-14,
                        on_step=lambda ta, ya, tb, yb, dense: ends.append(tb))
    assert res.stats.n_steps == len(ends) == 10
    assert ends[:-1] == [n * 1e-14 for n in range(1, 10)] and ends[-1] == res.t == 1e-13


def test_sample_every_hits_each_sample_time_once():
    ds = 0.0137
    step_ends = []
    sample, rows = sample_every(ds, 100)

    def on_step(t0, y0, t1, y1, dense):
        step_ends.append(t1)
        sample(t0, y0, t1, y1, dense)

    integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 1.0,
                      atol=1e-10, rtol=1e-10, on_step=on_step)
    samples = rows()
    # fewer times than the count reach the end of the span
    assert len(samples) == int(1.0 / ds) < 100
    # many steps, each holding several samples or none
    held = np.bincount(np.searchsorted(step_ends, ds * np.arange(1, len(samples) + 1)))
    assert len(step_ends) > 5 and held.max() > 1 and (held == 0).any()
    # a dropped or repeated sample would shift every later one off its time
    for k, y in enumerate(samples, start=1):
        t = k * ds
        assert y == pytest.approx([math.cos(t), -math.sin(t)], abs=1e-9)


def test_sample_every_takes_at_most_its_count():
    # a spacing below the 1e-15 reach of a step end would take times past
    # the span's end; the count stops the sampler at the last time asked for
    for ds, count, taken in ((1e-16, 10000, 10000), (0.0137, 10, 10), (0.0137, 0, 0)):
        sample, rows = sample_every(ds, count)
        integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), ds * count if count else 1.0,
                          on_step=sample)
        assert rows().shape == ((taken, 2) if taken else (0, 0))


@pytest.mark.parametrize("integrator", ["dopri45", "rk4", "clipped"])
def test_sample_every_block_rows_are_the_scalar_dense_states(monkeypatch, integrator):
    # no dense call and one parts call per step that takes a sample; each row
    # is the scalar call of the per-sample reference, bit for bit, with the
    # same field evaluations, also when the rows take several evaluator
    # calls. "clipped" ends on the guard's truncated step, whose dense
    # output is the clipped one.
    monkeypatch.setattr(_ode, "_BLOCK_ROWS", 7)

    class Spy:
        """A dense output that refuses the scalar call and logs ``parts``."""

        def __init__(self, dense, t1):
            self.dense, self.t1 = dense, t1
            self.scale, self.rows = dense.scale, dense.rows

        def __call__(self, theta):
            raise AssertionError("the sampler made a dense call")

        def parts(self, thetas):
            takers.append(self.t1)
            return self.dense.parts(thetas)

    def run(sampler, spy):
        sample, rows = sampler(0.0137, 100)
        on_step = lambda t0, y0, t1, y1, dense: sample(t0, y0, t1, y1, spy(dense, t1))
        y0 = np.array([1.0, 0.0])
        if integrator == "rk4":
            res = integrate_rk4(harmonic, 0.0, y0, 1.0, 0.05, on_step=on_step)
        else:
            inside = (lambda y: y[0] > 0.8) if integrator == "clipped" else None
            res = integrate_dopri45(harmonic, 0.0, y0, 1.0, atol=1e-10, rtol=1e-10,
                                    inside=inside, on_step=on_step)
        return res, rows()

    takers = []
    res, got = run(sample_every, Spy)
    ref, want = run(per_sample_every, lambda dense, t1: dense)
    assert res.exited is ref.exited is (integrator == "clipped")
    assert res.stats == ref.stats  # rk4's end slopes where the scalar calls take them
    # the last step, the truncated one when clipped, holds samples
    assert takers[-1] == res.t
    assert len(set(takers)) == len(takers) > 5
    assert len(got) == len(want) > len(takers)
    assert got.tobytes() == want.tobytes()


def per_sample_every(ds, count):
    """The sampler as it was before blocks, kept as the reference: one
    scalar dense call per sample time, at most ``count`` of them, each kept
    as a row until ``rows``."""
    samples = []
    next_t = ds

    def on_step(t0, y0, t1, y1, dense):
        nonlocal next_t
        while len(samples) < count and next_t <= t1 + 1e-15:
            theta = (next_t - t0) / (t1 - t0) if t1 > t0 else 1.0
            samples.append(dense(min(max(theta, 0.0), 1.0)))
            next_t += ds

    return on_step, lambda: np.array(samples, dtype=float) if samples else np.empty((0, 0))


def _trace_vertices(**kw):
    F = VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=Box((0.05, 0.05), (5.0, 5.0)))
    return (accessibility.zero_work_trace_2d(F, (1.0, 1.0), **kw).vertices,)


def _triple_field():
    return VectorFieldDef.from_source(["-(y*z)", "-(2*x*z)", "-(x*y)"], 3,
                                      domain=Box((0.05,) * 3, (10.0,) * 3))


def _deviation():
    F = _triple_field()
    # x = e^s along the characteristic, so the largest deviation is inside
    V = ScalarFieldDef.from_source("sin(4*x) + y", 3, domain=F.domain)
    return (darboux.characteristic_deviation(F, V, (1.0, 1.0, 1.0), 1.5),)


def _maneuver():
    res = accessibility.bracket_maneuver_3d(_triple_field(), (1.0, 2.0, 1.5), 0.1)
    return res.path, res.work


@pytest.mark.parametrize("module,consumer", [
    # the sample times sum exactly, so the last one is the end of the trace
    (accessibility, lambda: _trace_vertices(arclength=0.5, steps=256)),
    # a spacing below the reach of a step end: the count stops the samples
    (accessibility, lambda: _trace_vertices(arclength=1e-12, steps=10000)),
    # leaves the domain: the last samples come from the guard's clipped step
    (accessibility, lambda: _trace_vertices(arclength=20.0, steps=300, truncate_on_exit=True)),
    (darboux, _deviation),
    (accessibility, _maneuver),
], ids=["trace2d", "trace2d-tiny", "trace2d-exit", "characteristics", "maneuver3d"])
def test_block_sampling_consumers_match_the_per_sample_reference(monkeypatch, module,
                                                                  consumer):
    blocked = consumer()
    monkeypatch.setattr(module, "sample_every", per_sample_every)
    reference = consumer()
    # the vertices, the deviation, or the path and the work
    for got, want in zip(blocked, reference, strict=True):
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("h, t_end", [(0.1, 1.0), (2.5e-3, 2.0), (0.3, 1.0), (0.1, 1e-13)])
def test_rk4_steps_end_on_multiples_of_h_and_the_last_on_t_end(h, t_end):
    # a running sum t += h ends at 0.9999999999999999 for (0.1, 1) and at
    # 1.9999999999999685 for (2.5e-3, 2); a span below the end tolerance
    # still takes its one step
    t0 = 0.25
    ends = []
    res = integrate_rk4(harmonic, t0, np.array([1.0, 0.0]), t0 + t_end, h,
                        on_step=lambda ta, ya, tb, yb, dense: ends.append((ta, tb)))
    assert res.t == ends[-1][1] == t0 + t_end
    assert [tb for _, tb in ends[:-1]] == [t0 + n * h for n in range(1, len(ends))]
    assert [ta for ta, _ in ends[1:]] == [tb for _, tb in ends[:-1]]
    assert len(ends) == max(1, math.ceil(t_end / h - 1e-9))
    res = integrate_rk4(harmonic, 0.0, np.array([1.0, 0.0]), t_end, h)
    assert res.t == t_end


def classic_rk4(f, t, y, t_end, h):
    """Two classic RK4 half-steps per step, each computing its own k1."""

    def half_step(t, y, h):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    states = []
    t0, tol, n = t, 1e-12 * max(1.0, abs(t_end)), 0
    while t < t_end:
        n += 1
        t1, step = t0 + n * h, h
        if t1 > t_end - tol:
            t1, step = t_end, t_end - t
        y = half_step(t + 0.5 * step, half_step(t, y, 0.5 * step), 0.5 * step)
        t = t1
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


def block(dense, thetas):
    """The states of one step's dense output at ``thetas`` as the rows of an
    array: its parts through the block evaluator, each theta on the whole step."""
    parts = np.array([dense.parts(thetas)])
    return dense.rows(parts, np.array(thetas, dtype=float) * dense.scale)


@pytest.mark.parametrize("integrator", ["dopri45", "rk4"])
def test_rows_of_one_step_s_parts_are_its_scalar_states(integrator):
    records = []
    on_step = lambda t0, y0, t1, y1, dense: records.append(dense)
    if integrator == "dopri45":
        integrate_dopri45(harmonic, 0.0, np.array([1.0, 0.0]), 1.0, on_step=on_step)
    else:
        integrate_rk4(harmonic, 0.0, np.array([1.0, 0.0]), 1.0, 0.1, on_step=on_step)
    thetas = [0.0, 0.1, 0.5, 0.6, 0.75, 1.0]
    for dense in records:
        rows = block(dense, thetas)
        assert rows.shape == (len(thetas), 2)
        for theta, row in zip(thetas, rows):
            assert np.array_equal(row, dense(theta))
        assert block(dense, []).shape == (0, 2)


# per run: rk4's step (None for dopri45) and the wall crossed at y[0] = wall.
# "rk4-late-wall" crosses it at 0.53 of a step, where of the Gauss nodes and
# theta 1 only theta 1 is past 1/2
RUNS = {"dopri45": (None, 0.3), "rk4": (0.1, 0.3), "rk4-late-wall": (0.005, math.cos(1.25265))}
GAUSS_NODES = (0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15))


def dense_outputs(run):
    """Every dense output of a run that ends on the guard's clipped step,
    and the list of its right-hand side calls."""
    kept, calls = [], []
    on_step = lambda t0, y0, t1, y1, dense: kept.append(dense)
    f = lambda t, y: calls.append(t) or harmonic(t, y)
    h, wall = RUNS[run]
    inside = lambda y: y[0] > wall
    y0 = np.array([1.0, 0.0])
    if h is None:
        res = integrate_dopri45(f, 0.0, y0, 2.0, inside=inside, on_step=on_step)
    else:
        res = integrate_rk4(f, 0.0, y0, 2.0, h, inside=inside, on_step=on_step)
    assert res.exited and kept[-1].scale < 1.0 and len(calls) == res.stats.n_fev
    return kept, calls


@pytest.mark.parametrize("run", ["dopri45", "rk4", "rk4-late-wall"])
def test_block_rows_are_the_scalar_dense_states(run):
    # the thetas of every step, the clipped last one included, as a step
    # callback may evaluate them later from the parts it kept: by one
    # evaluator call, and by a Record, which takes them a step at a time,
    # more than _BLOCK_ROWS in all, and evaluates them a block at a time
    kept, calls = dense_outputs(run)
    scale = kept[-1].scale
    if run == "rk4-late-wall":
        # the work quadrature's thetas; the guard took the end slope that
        # theta 1 of the clipped step needs
        thetas = [*GAUSS_NODES, 1.0]
        assert max(GAUSS_NODES) * scale <= 0.5 < scale
    else:
        thetas = [0.0, 0.5, 1.0, 0.1, *GAUSS_NODES, 0.75, *(j / 64 for j in range(65))]
    evaluated = len(calls)
    parts = np.array([dense.parts(thetas) for dense in kept])
    owner = np.repeat(np.arange(len(kept)), len(thetas))
    # theta s of the clipped step is s * scale on the whole step
    whole = [theta * kept[step].scale for step, theta in zip(owner, thetas * len(kept))]
    record, blocks, full = _ode.Record(), [], []
    for dense in kept:
        full.append(record.take(dense, thetas))
        if full[-1]:
            blocks.append(record.rows())
    if len(record):
        blocks.append(record.rows())
    assert True in full and len(owner) > _ode._BLOCK_ROWS
    assert len(record) == 0 and record.rows().shape == (0, 0)
    assert len(calls) == evaluated  # no right-hand side call
    for rows in (type(kept[0]).rows(parts[owner], np.array(whole)), np.concatenate(blocks)):
        assert rows.shape == (len(owner), 2)
        for row, step, theta in zip(rows, owner, thetas * len(kept)):
            want = kept[step](theta)
            assert row.tobytes() == np.array(want).tobytes()  # bit for bit
            if run != "dopri45" and theta * kept[step].scale == 0.5:
                assert want is kept[step].ym  # the Hermites' common knot


def overflowing_dense(integrator):
    big, flip = [1e308, -1e308], [-1e308, 1e308]
    if integrator == "dopri45":
        return _ode._DopriDense(big, flip, [[1e300, -1e300]] * 7, 1.0)
    return _ode._Rk4Dense(big, flip, big, big, flip, lambda: big, 400.0)


@pytest.mark.parametrize("integrator", ["dopri45", "rk4"])
def test_block_rows_overflow_as_python_floats_do(integrator):
    # inf or NaN where the scalar call's floats give them, and no warning
    dense = overflowing_dense(integrator)
    thetas = [0.1, 0.3, 0.5, 0.75, 0.9]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = block(dense, thetas)
    want = np.array([dense(theta) for theta in thetas])
    assert not np.isfinite(want).all()
    assert np.array_equal(rows, want, equal_nan=True)


def test_rk4_parts_take_the_end_slope_only_past_the_midpoint():
    # as the scalar calls at the thetas would; on the clipped step a theta
    # counts at its place on the whole step
    calls = []
    dense = _ode._Rk4Dense([0.0], [1.0], [2.0], [1.0], [1.0],
                           lambda: calls.append(1) or [3.0], 1.0)
    dense.parts([])
    dense.parts([0.1, 0.5])
    dense.clipped(0.5).parts([0.3, 1.0])
    assert calls == []
    parts = dense.parts([0.1, 0.75, 0.3])
    assert calls == [1] and parts[5] == 3.0


# --- the NumPy rk4 that the float rk4 replaced, kept as its reference ---------
# (integrate_rk4 and its helpers as they were, with an np_ prefix; the state
# is an ndarray and every stage is an array expression)

def np_locate_boundary(dense, inside, theta_lo, theta_hi):
    y_lo = dense(theta_lo)
    y_hi = dense(theta_hi)
    for _ in range(200):
        if np.max(np.abs(y_hi - y_lo)) < _ode._BOUNDARY_TOL:
            break
        mid = 0.5 * (theta_lo + theta_hi)
        y_mid = dense(mid)
        if inside(y_mid):
            theta_lo, y_lo = mid, y_mid
        else:
            theta_hi, y_hi = mid, y_mid
    return theta_lo


def np_guard_step(t0, h, y0, y1, dense, inside, on_step):
    mid_inside = inside(dense(0.5))
    end_inside = inside(y1)
    if mid_inside and end_inside:
        return False, t0 + h, y1
    hi = 0.5 if not mid_inside else 1.0
    theta = np_locate_boundary(dense, inside, 0.0, hi)
    y_exit = dense(theta)
    t_exit = t0 + theta * h
    if on_step is not None and theta > 0.0:
        trunc = theta

        def clipped(s, _dense=dense, _trunc=trunc):
            return _dense(s * _trunc)

        on_step(t0, y0, t_exit, y_exit, clipped)
    return True, t_exit, y_exit


def np_rk4_step(f, t, y, h, k1):
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def np_hermite(y0, y1, f0, f1, h, theta):
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2 * t3 - 3 * t2 + 1) * y0
        + (t3 - 2 * t2 + theta) * h * f0
        + (-2 * t3 + 3 * t2) * y1
        + (t3 - t2) * h * f1
    )


def np_integrate_rk4(f, t0, y0, t_end, h, inside=None, on_step=None):
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    if h <= 0:
        raise ValueError("step must be positive")
    stats = IntegratorStats()
    y = np.asarray(y0, dtype=float)
    t = t0 = float(t0)
    end_slope = np_rk4_end_slope(f, t, y, stats)
    tol, n = 1e-12 * max(1.0, abs(t_end)), 0

    while t < t_end:
        n += 1
        t1, step = t0 + n * h, h
        if t1 > t_end - tol:
            t1, step = t_end, t_end - t
        half = 0.5 * step
        f0 = end_slope()
        ym = np_rk4_step(f, t, y, half, f0)
        fm = f(t + half, ym)
        y1 = np_rk4_step(f, t + half, ym, half, fm)
        stats.n_fev += 7
        stats.n_steps += 1
        end_slope = np_rk4_end_slope(f, t1, y1, stats)
        dense = np_rk4_dense(y, ym, y1, f0, fm, end_slope, step)

        if inside is not None:
            crossed, t_new, y_new = np_guard_step(t, step, y, y1, dense, inside, on_step)
            if crossed:
                return OdeResult(t_new, y_new, True, stats)
        if on_step is not None:
            on_step(t, y, t1, y1, dense)
        t = t1
        y = y1

    return OdeResult(t, y, False, stats)


def np_rk4_end_slope(f, t, y, stats):
    cache = []

    def slope():
        if not cache:
            cache.append(f(t, y))
            stats.n_fev += 1
        return cache[0]

    return slope


def np_rk4_dense(y0, ym, y1, f0, fm, end_slope, step):
    half = 0.5 * step

    def at(theta):
        if theta <= 0.5:
            return np_hermite(y0, ym, f0, fm, half, theta * 2.0)
        return np_hermite(ym, y1, fm, end_slope(), half, (theta - 0.5) * 2.0)

    def dense(theta):
        if isinstance(theta, np.ndarray):
            return np.array([at(th) for th in theta.tolist()]).reshape(-1, y0.size)
        return at(theta)

    return dense


def same(a, b):
    """Equal bit for bit (so -0.0 differs from 0.0), whatever the sequence type."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
UNIT = st.integers(-100, 100).map(lambda c: c / 100)
THETAS = [0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0]


@st.composite
def systems(draw):
    """y' = b + A y + e t, plus one product term per row when polynomial;
    the rows of A sum to at most 1 in magnitude, so that states stay small
    up to t = 1."""
    n = draw(st.integers(2, 6))
    A = [[draw(UNIT) / n for _ in range(n)] for _ in range(n)]
    b = [draw(UNIT) for _ in range(n)]
    e = [draw(UNIT) for _ in range(n)]
    quad = draw(st.booleans())
    c = [draw(UNIT) * 0.5 if quad else 0.0 for _ in range(n)]
    pairs = [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(n)]
    y0 = [draw(UNIT) for _ in range(n)]

    def f(t, y):
        out = []
        for i in range(n):
            v = b[i]
            for j in range(n):
                v += A[i][j] * y[j]
            v += e[i] * t
            if quad:
                v += c[i] * y[pairs[i][0]] * y[pairs[i][1]]
            out.append(v)
        return out

    return f, y0


def array_call(dense, thetas):
    # a NumPy reference's dense output takes the array of thetas itself
    return dense(np.array(thetas))


def run_logged(driver, f, wrap, y0, t_end, h, inside, extra_theta, rows):
    """Run ``driver`` with a right-hand side that logs its arguments and a
    callback that logs its states and its dense output at scalar thetas and
    as ``rows(dense, thetas)``; ``wrap`` turns the system's list into the
    driver's slope type."""
    calls, steps = [], []

    def rhs(t, y):
        calls.append((t, np.array(y, dtype=float)))
        return wrap(f(t, y))

    def on_step(t0, ya, t1, yb, dense):
        thetas = THETAS + [extra_theta]
        steps.append((t0, ya, t1, yb, [dense(th) for th in thetas], rows(dense, thetas),
                      rows(dense, [])))

    res = driver(rhs, 0.0, np.array(y0), t_end, h, inside=inside, on_step=on_step)
    return res, calls, steps


@PROPERTY
@given(systems(), st.integers(1, 25).map(lambda k: k / 100), st.integers(5, 100).map(lambda k: k / 100),
       st.floats(0.0, 1.0), st.one_of(st.none(), st.tuples(st.integers(0, 5), st.floats(0.05, 0.95))))
def test_float_rk4_is_the_numpy_rk4_bit_for_bit(system, h, t_end, extra_theta, guard):
    f, y0 = system
    inside = None
    if guard is not None:
        # a wall on one component between its start and the largest value it
        # reaches without the wall, so that the run must stop at it
        k, frac = guard[0] % len(y0), guard[1]
        free = np_integrate_rk4(lambda t, y: np.array(f(t, y)), 0.0, np.array(y0), t_end, h)
        peak = max(y0[k], free.y[k])
        assume(peak > y0[k])
        wall = y0[k] + frac * (peak - y0[k])
        inside = lambda y: y[k] <= wall

    res, calls, steps = run_logged(integrate_rk4, f, lambda v: v, y0, t_end, h, inside, extra_theta,
                                   block)
    ref, ref_calls, ref_steps = run_logged(np_integrate_rk4, f, np.array, y0, t_end, h, inside,
                                           extra_theta, array_call)
    assert isinstance(res.y, np.ndarray)
    assert res.t == ref.t and same(res.y, ref.y) and res.exited == ref.exited
    assert res.stats == ref.stats
    assert res.exited == (guard is not None)
    assert len(calls) == len(ref_calls)
    for (t, y), (rt, ry) in zip(calls, ref_calls):
        assert t == rt and same(y, ry)
    assert len(steps) == len(ref_steps)
    for got, want in zip(steps, ref_steps):
        t0, ya, t1, yb, at_scalars, at_array, at_none = got
        assert t0 == want[0] and same(ya, want[1]) and t1 == want[2] and same(yb, want[3])
        assert all(isinstance(y, list) for y in (ya, yb, *at_scalars))
        assert all(same(a, b) for a, b in zip(at_scalars, want[4]))
        assert isinstance(at_array, np.ndarray) and same(at_array, want[5])
        assert same(at_none, want[6])


# --- the NumPy dopri45 that the float dopri45 replaced, kept as its reference -
# (integrate_dopri45 and its dense output as they were, with an np_ prefix;
# the state is an ndarray, each stage sum a matrix product, and the guard is
# the NumPy rk4's above)

NP_C = np.array(_ode._C)
NP_A = [np.array(row) for row in _ode._A]
NP_B = np.append(NP_A[6], 0.0)
NP_E = np.array(_ode._E)
NP_D = np.array(_ode._D)


def np_dopri_dense(y0, y1, k, h):
    ydiff = y1 - y0
    bspl = h * k[0] - ydiff
    r1 = y0
    r2 = ydiff
    r3 = bspl
    r4 = ydiff - h * k[6] - bspl
    r5 = h * (NP_D @ k)

    def dense(theta):
        if isinstance(theta, np.ndarray):
            theta = theta[:, None]
        th1 = 1.0 - theta
        return r1 + theta * (r2 + th1 * (r3 + theta * (r4 + th1 * r5)))

    return dense


def np_integrate_dopri45(f, t0, y0, t_end, atol=1e-9, rtol=1e-9, h_max=None, inside=None,
                         on_step=None):
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    stats = IntegratorStats()
    y = np.asarray(y0, dtype=float)
    t = float(t0)
    span = t_end - t0
    if h_max is None:
        h_max = span / 10.0
    h = min(h_max, span / 100.0)

    k = np.empty((7, y.size))
    k[0] = f(t, y)
    stats.n_fev += 1

    while t < t_end:
        h = min(h, t_end - t, h_max)
        if h < 1e-14 * max(1.0, abs(t)):
            raise NumericalError(f"step size underflow at t={t!r}")
        if stats.n_steps + stats.n_rejected > _ode._MAX_STEPS:
            raise NumericalError("step count exceeded")

        for i in range(1, 7):
            yi = y + h * (NP_A[i][:i] @ k[:i])
            k[i] = f(t + NP_C[i] * h, yi)
        stats.n_fev += 6
        y1 = y + h * (NP_B @ k)

        err_vec = h * (NP_E @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y1))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if math.isnan(err):
            raise NumericalError(f"error estimate is NaN at t={t!r}")

        if err > 1.0:
            stats.n_rejected += 1
            h *= max(_ode._MIN_FACTOR, _ode._SAFETY * err ** (-0.2))
            continue

        dense = np_dopri_dense(y, y1, k, h)
        stats.n_steps += 1
        if inside is not None:
            crossed, t_new, y_new = np_guard_step(t, h, y, y1, dense, inside, on_step)
            if crossed:
                return OdeResult(t_new, y_new, True, stats)
        if on_step is not None:
            on_step(t, y, t + h, y1, dense)

        t = t + h
        y = y1
        k[0] = k[6]
        factor = (_ode._MAX_FACTOR if err == 0.0
                  else min(_ode._MAX_FACTOR, _ode._SAFETY * err ** (-0.2)))
        h *= max(_ode._MIN_FACTOR, factor)

    return OdeResult(t, y, False, stats)


def berry_particle(t, y):
    # (x, y, vx, vy) under Berry's F = (-x y^2, -x^3)
    return [y[2], y[3], -y[0] * y[1] ** 2, -y[0] ** 3]


def in_berry_box(y):
    return 0.05 <= y[0] <= 5.0 and 0.05 <= y[1] <= 5.0


def triple_curl_line(s, x):
    return fieldkit.curl(_triple_field(), x)


DOPRI_CASES = {
    # (f, y0, t_end, tolerance, guard)
    "harmonic": (harmonic, [1.0, 0.0], 2 * math.pi, 1e-10, None),
    # runs into the wall y = 0.05 near t = 1.45
    "berry-wall": (berry_particle, [1.0, 1.0, 0.1, -0.1], 2.0, 1e-11, in_berry_box),
    # x = e^s, z = e^-s along curl F = (x, 0, -z)
    "curl-line": (triple_curl_line, [1.0, 1.0, 1.0], 1.5, 1e-11, None),
}
# The error norm scales a difference of stage sums that cancel down to about
# the tolerance, so the round-off of those sums, whose order differs between
# a matrix product and a left-to-right float sum, reaches each new step size
# at up to about 1e-7 relative. The accepted steps then end up to about 1e-9
# apart, and their states differ by that shift times the slope. Measured on
# these cases: step ends 7.8e-10, states and dense rows 1.6e-9, exit point
# 5.7e-11.
DOPRI_ROUND_OFF = 1e-8


def run_dopri_logged(driver, f, y0, t_end, tol, inside, rows):
    steps = []

    def on_step(t0, ya, t1, yb, dense):
        steps.append((t0, t1, np.array(yb, dtype=float), rows(dense, THETAS)))

    res = driver(f, 0.0, np.array(y0), t_end, atol=tol, rtol=tol, inside=inside, on_step=on_step)
    return res, steps


@pytest.mark.parametrize("case", list(DOPRI_CASES))
def test_float_dopri45_is_the_numpy_dopri45_to_round_off(case):
    f, y0, t_end, tol, inside = DOPRI_CASES[case]
    res, steps = run_dopri_logged(integrate_dopri45, f, y0, t_end, tol, inside, block)
    ref, ref_steps = run_dopri_logged(np_integrate_dopri45, f, y0, t_end, tol, inside, array_call)
    assert isinstance(res.y, np.ndarray)
    # the same accepted and rejected steps and right-hand sides
    assert res.stats == ref.stats
    assert res.exited == ref.exited == (inside is not None)
    assert len(steps) == len(ref_steps) > 10
    for (t0, t1, y1, rows), (r0, r1, ry1, ref_rows) in zip(steps, ref_steps):
        assert abs(t0 - r0) <= DOPRI_ROUND_OFF and abs(t1 - r1) <= DOPRI_ROUND_OFF
        assert np.max(np.abs(y1 - ry1)) <= DOPRI_ROUND_OFF
        assert np.max(np.abs(rows - ref_rows)) <= DOPRI_ROUND_OFF
    # the end of the span, or the exit point at the wall
    assert abs(res.t - ref.t) <= DOPRI_ROUND_OFF
    assert np.max(np.abs(res.y - ref.y)) <= DOPRI_ROUND_OFF


@pytest.mark.parametrize("f, y0, atol, rtol, message", [
    # a scaled error estimate near 1e290 overflows when squared: NumPy warns
    # (an error in this suite), and a float ** 2 raises OverflowError; q * q is
    # inf, so every step is rejected until the step size underflows
    (harmonic, [1.0, 0.0], 1e-300, 1e-300, "step size underflow"),
    # a second element that stays 0 has a zero scale and a zero error: 0 / 0,
    # which a float division raises as ZeroDivisionError
    (lambda t, y: [1.0, 0.0], [0.0, 0.0], 0.0, 1e-9, "error estimate is NaN"),
], ids=["overflow", "zero-scale"])
def test_dopri_error_norm_ends_as_the_numpy_one(f, y0, atol, rtol, message):
    with pytest.raises(NumericalError, match=message):
        integrate_dopri45(f, 0.0, np.array(y0), 1.0, atol=atol, rtol=rtol)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match=message):
        np_integrate_dopri45(f, 0.0, np.array(y0), 1.0, atol=atol, rtol=rtol)
