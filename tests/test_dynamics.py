import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curlkit import _ode, auxiliary, dynamics
from curlkit._ode import integrate_dopri45, integrate_rk4
from curlkit.auxiliary import AuxiliaryProblem, auxiliary_force, auxiliary_trajectory
from curlkit.darboux import PotentialSet
from curlkit.dynamics import QUAD_BLOCK, SimConfig, integrate, work_energy_residual
from curlkit.errors import EvalDomainError, NumericalError, OutOfDomainError
from curlkit.fieldkit import Box, CallableVectorField, Region, ScalarFieldDef, VectorFieldDef


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


@pytest.mark.parametrize("refine", [0, -2, 1.5])
def test_config_rejects_refine_below_one(refine):
    with pytest.raises(ValueError, match="refine must be >= 1"):
        SimConfig(refine=refine)


@pytest.mark.parametrize("name", ["t_end", "atol", "rtol", "h", "h_max", "record_dt"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError):
        SimConfig(integrator="rk4", **{name: value})
    with pytest.raises(ValueError):
        SimConfig(**{name: value})


def test_config_takes_none_only_for_a_field_its_integrator_does_not_read():
    SimConfig(integrator="rk4", atol=None, rtol=None, h_max=None)
    SimConfig(integrator="dopri45", h=None)
    with pytest.raises(ValueError, match="h is required with integrator rk4"):
        SimConfig(integrator="rk4", h=None)
    for name in ("atol", "rtol"):
        with pytest.raises(ValueError, match=f"{name} is required with integrator dopri45"):
            SimConfig(**{name: None})


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


# Berry and Shukla's fixed-field invariant: F = (-x^2, -2xy) = -(dU/dy, dU/dx)
# with U = x^2 y has curl F = -2y, yet m x'' = F conserves H = m v_x v_y + U
BERRY_SHUKLA = dict(x0=(0.3, 0.5), v0=(0.2, -0.1))


def berry_shukla_drift(cfg):
    F = VectorFieldDef.from_source(["-x^2", "-2*x*y"], 2, domain=Box((-5, -5), (5, 5)))
    traj = integrate(F, BERRY_SHUKLA["x0"], BERRY_SHUKLA["v0"], cfg)
    assert not traj.exited and traj.t[-1] == cfg.t_end
    H = cfg.mass * traj.v[:, 0] * traj.v[:, 1] + traj.x[:, 0] ** 2 * traj.x[:, 1]
    return float(np.max(np.abs(H - H[0])))


def test_berry_shukla_invariant_drift_falls_16x_per_halving_under_rk4():
    # measured 4.0e-11, 2.5e-12, 1.5e-13: ratios 16.3 and 16.1; the bounds
    # take 2x on the coarsest drift and 12.5% on each ratio
    drifts = [berry_shukla_drift(SimConfig(integrator="rk4", h=h, t_end=2.0))
              for h in (0.04, 0.02, 0.01)]
    assert drifts[0] <= 8e-11
    for coarse, fine in zip(drifts, drifts[1:]):
        assert 14.0 <= coarse / fine <= 18.0


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_berry_shukla_invariant_holds_to_the_dopri45_tolerance(tol):
    # measured 1.0e-8, 1.6e-9, 1.5e-11: at most 0.16 of the tolerance
    assert berry_shukla_drift(SimConfig(atol=tol, rtol=tol, t_end=2.0)) <= tol


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


# --- the batched work quadrature against the per-node loop ---------------------

# (node, weight) of the 3-node Gauss-Legendre rule on [0, 1]
GAUSS_RULE = ((0.5 - math.sqrt(0.15), 5 / 18), (0.5, 8 / 18), (0.5 + math.sqrt(0.15), 5 / 18))


def reference_integrate(F, x0, v0, cfg, rule="gauss", form=None):
    """``integrate`` as a per-node loop: every quadrature node is evaluated
    with the pointwise force inside the step callback. ``rule`` is "gauss",
    the 3-node Gauss-Legendre rule on each recorded interval that
    ``integrate`` batches, or "simpson", the rule it replaced: composite
    Simpson on the interval's ends and inner nodes, two panels per rk4 step
    and, for dopri45, panels doubled until the increment changes by at most
    atol * (interval / t_end). With ``form`` (Gauss only) each node
    evaluates G after F and accumulates G . v as well. Kept as the
    reference for the batched quadrature; returns (t, x, v, work,
    form_work), form_work None without ``form``."""
    dim = F.dimension
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    m = cfg.mass

    def sampler(field):
        lo = np.asarray(field.domain.lo)
        hi = np.asarray(field.domain.hi)

        def value(x):
            try:
                return field.value_unchecked(x)
            except EvalDomainError:
                return field.value(np.clip(x, lo, hi))

        return value

    force = sampler(F)
    samplers = [force] if form is None else [force, sampler(form)]

    def rhs(t, y):
        return np.concatenate((y[dim:], np.asarray(force(y[:dim])) / m))

    def power(y):
        return float(np.dot(force(y[:dim]), y[dim:]))

    ts, xs, vs = [0.0], [x0.copy()], [v0.copy()]
    sums = [[0.0] for _ in samplers]  # work, then form work

    def gauss_work(dense, ta, tb, tha, thb):
        totals = [0.0] * len(samplers)
        for u, w in GAUSS_RULE:
            y = dense(tha + u * (thb - tha))
            for j, sample in enumerate(samplers):
                totals[j] += w * float(np.dot(sample(y[:dim]), y[dim:]))
        return [total * (tb - ta) for total in totals]

    def simpson_work(dense, ta, tb, tha, thb, g_left, g_right):
        values = {0.0: g_left, 1.0: g_right}

        def g(u):
            if u not in values:
                values[u] = power(dense(tha + u * (thb - tha)))
            return values[u]

        def composite(n):
            total = 0.0
            w = 1.0 / n
            for j in range(n):
                a = j * w
                total += g(a) + 4.0 * g(a + 0.5 * w) + g(a + w)
            return total * (tb - ta) * w / 6.0

        if cfg.integrator == "rk4":
            return composite(2)
        tol = max(1e-16, cfg.atol * (tb - ta) / cfg.t_end)
        prev = None
        n = 1
        while True:
            total = composite(n)
            if prev is not None and (abs(total - prev) <= tol or n >= 512):
                return total
            prev = total
            n *= 2

    def on_step(t0, y0, t1, y1, dense):
        span = t1 - t0
        pieces = 1
        if cfg.record_dt is not None and span > cfg.record_dt:
            pieces = max(1, int(math.ceil(span / cfg.record_dt - 1e-9)))
        pieces *= cfg.refine
        g_left = power(y0) if rule == "simpson" else None
        for i in range(1, pieces + 1):
            ta = t0 + span * (i - 1) / pieces
            tb = t0 + span * i / pieces
            tha, thb = (i - 1) / pieces, i / pieces
            yb = y1 if i == pieces else dense(thb)
            if rule == "simpson":
                g_right = power(yb)
                increments = [simpson_work(dense, ta, tb, tha, thb, g_left, g_right)]
                g_left = g_right
            else:
                increments = gauss_work(dense, ta, tb, tha, thb)
            for column, inc in zip(sums, increments):
                column.append(column[-1] + inc)
            ts.append(tb)
            xs.append(yb[:dim].copy())
            vs.append(yb[dim:].copy())

    inside = lambda y: F.domain.contains(y[:dim])
    y0 = np.concatenate((x0, v0))
    if cfg.integrator == "dopri45":
        integrate_dopri45(rhs, 0.0, y0, cfg.t_end, atol=cfg.atol, rtol=cfg.rtol,
                          h_max=cfg.h_max, inside=inside, on_step=on_step)
    else:
        integrate_rk4(rhs, 0.0, y0, cfg.t_end, cfg.h, inside=inside, on_step=on_step)
    form_work = None if form is None else np.array(sums[1])
    return np.array(ts), np.array(xs), np.array(vs), np.array(sums[0]), form_work


def assert_matches_reference(F, x0, v0, cfg, form=None):
    traj = integrate(F, x0, v0, cfg, form=form)
    t, x, v, work, form_work = reference_integrate(F, x0, v0, cfg, form=form)
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.x, x)
    assert np.array_equal(traj.v, v)
    # F.values may round a node's force differently from the pointwise
    # evaluation in the last bit; each interval adds at most a few ulps
    for got, want in ((traj.work, work), (traj.form_work, form_work)):
        if want is None:
            assert got is None
            continue
        bound = 4 * len(t) * np.spacing(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= bound
    return traj


BERRY_START = ((1.0, 1.0), (0.3, -0.2))
RULE_RUNS = [
    *(dict(integrator="rk4", h=h) for h in (1e-2, 5e-3, 2.5e-3)),
    *(dict(atol=tol, rtol=tol, record_dt=dt) for tol in (1e-9, 1e-11) for dt in (None, 1e-3)),
]


@pytest.mark.parametrize("t_end", [0.5, 2.0])
@pytest.mark.parametrize("options", RULE_RUNS, ids=lambda o: "-".join(map(str, o.values())))
def test_gauss_residual_is_within_the_simpson_reference(options, t_end):
    # the fixed rule measured 0.70-0.91 of Simpson's residual on rk4 and
    # 0.94-1.001 on dopri45; t_end 2 runs into the wall at t = 1.16
    cfg = SimConfig(t_end=t_end, **options)
    gauss = work_energy_residual(integrate(berry_field(), *BERRY_START, cfg))
    _, _, v, work, _ = reference_integrate(berry_field(), *BERRY_START, cfg, rule="simpson")
    kinetic = 0.5 * cfg.mass * np.sum(v * v, axis=1)
    assert gauss <= 1.1 * np.max(np.abs(kinetic - kinetic[0] - work))


REPEATABLE = settings(derandomize=True, database=None, deadline=None, max_examples=15)
COEF = st.integers(-200, 200).map(lambda c: c / 100)


@st.composite
def linear_curl_fields(draw, box):
    """F = (a x + b y, c x + d y) with curl c - b != 0."""
    a, b, c, d = (draw(COEF) for _ in range(4))
    assume(b != c)
    sources = [f"{a!r}*x + {b!r}*y", f"{c!r}*x + {d!r}*y"]
    return VectorFieldDef.from_source(sources, 2, domain=box)


POINT = st.tuples(COEF, COEF)
WIDE = Box((-50, -50), (50, 50))


@REPEATABLE
@given(F=linear_curl_fields(WIDE), x0=POINT, v0=POINT)
def test_batched_work_matches_pointwise_rk4(F, x0, v0):
    assert_matches_reference(F, x0, v0, SimConfig(integrator="rk4", h=0.05, t_end=1.0))


@REPEATABLE
@given(F=linear_curl_fields(WIDE), x0=POINT, v0=POINT)
def test_batched_work_matches_pointwise_dopri45(F, x0, v0):
    assert_matches_reference(F, x0, v0, SimConfig(t_end=1.0))


@REPEATABLE
@given(F=linear_curl_fields(WIDE), x0=POINT, v0=POINT)
def test_batched_work_matches_pointwise_record_dt(F, x0, v0):
    # 250 recorded intervals: more than one block of QUAD_BLOCK
    cfg = SimConfig(t_end=1.0, record_dt=0.004)
    traj = assert_matches_reference(F, x0, v0, cfg)
    assert len(traj) - 1 > QUAD_BLOCK


@REPEATABLE
@given(
    F=linear_curl_fields(Box((-3, -3), (3, 3))),
    x0=POINT,
    angle=st.integers(0, 359),
    integrator=st.sampled_from(["dopri45", "rk4"]),
)
def test_batched_work_matches_pointwise_through_the_wall(F, x0, angle, integrator):
    # |F| <= 4 |x| < 17 in the box, so a speed of 40 crosses it in well
    # under a second: the last step is the clipped dense output
    v0 = (40 * math.cos(math.radians(angle)), 40 * math.sin(math.radians(angle)))
    cfg = SimConfig(integrator=integrator, h=0.01, t_end=2.0)
    traj = assert_matches_reference(F, x0, v0, cfg)
    assert traj.exited


@REPEATABLE
@given(
    F=linear_curl_fields(WIDE),
    G=linear_curl_fields(WIDE),
    x0=POINT,
    v0=POINT,
    options=st.sampled_from([
        dict(integrator="rk4", h=0.05),
        dict(integrator="rk4", h=0.05, refine=3),
        dict(record_dt=0.004),
        dict(refine=4),
    ]),
)
def test_batched_form_work_matches_pointwise(F, G, x0, v0, options):
    assert_matches_reference(F, x0, v0, SimConfig(t_end=1.0, **options), form=G)


@pytest.mark.parametrize("options", [dict(integrator="rk4", h=0.05, record_dt=0.02),
                                     dict(record_dt=0.05)])
def test_steps_that_straddle_a_block_are_recorded_as_one_loop(monkeypatch, options):
    # a block of 4 intervals and steps of 3 or more: each flush comes after
    # a step that takes the waiting intervals past the block, so the rows,
    # times and cumulative sums of several steps join across flushes; t_end
    # 2 runs into the wall, so the clipped last step is recorded too
    monkeypatch.setattr(dynamics, "QUAD_BLOCK", 4)
    cfg = SimConfig(t_end=2.0, refine=3, **options)
    traj = assert_matches_reference(berry_field(), *BERRY_START, cfg)
    assert traj.exited
    assert len(traj) - 1 > 3 * traj.stats.n_steps  # some step is cut into pieces


@pytest.mark.parametrize("options", [dict(integrator="rk4", h=1e-2), dict(record_dt=1e-3),
                                     dict(refine=4)])
def test_form_leaves_the_trajectory_and_the_work_unchanged(options):
    # t_end 2 runs into the wall, so the clipped last step is compared too
    cfg = SimConfig(t_end=2.0, **options)
    G = harmonic_field()
    plain = integrate(berry_field(), *BERRY_START, cfg)
    traj = integrate(berry_field(), *BERRY_START, cfg, form=G)
    assert plain.form_work is None and traj.exited
    for name in ("t", "x", "v", "kinetic", "work"):
        assert np.array_equal(getattr(traj, name), getattr(plain, name))
    assert traj.form_work.shape == traj.t.shape and traj.form_work[0] == 0.0


@pytest.mark.parametrize("refine", [1, 3])
def test_recorded_rows_are_capped_before_they_are_allocated(monkeypatch, refine):
    # rk4 h 0.1 over [0, 1] records 10 * refine intervals, 10 * refine + 1 rows
    cfg = SimConfig(integrator="rk4", h=0.1, t_end=1.0, refine=refine)
    rows = 10 * refine + 1
    monkeypatch.setattr(dynamics, "_MAX_STEPS", rows)
    assert len(integrate(harmonic_field(), (1, 0), (0, 1), cfg)) == rows
    monkeypatch.setattr(dynamics, "_MAX_STEPS", rows - 1)
    with pytest.raises(NumericalError, match=f"more than {rows - 1} recorded rows by t=1.0;"):
        integrate(harmonic_field(), (1, 0), (0, 1), cfg)


@pytest.mark.parametrize("record_dt", [1e-12, 1e-310])
def test_a_tiny_record_dt_raises_at_the_first_step(record_dt):
    # the first step would record some 1e10 rows (an infinite count at
    # 1e-310); the cap refuses it before building any
    with pytest.raises(NumericalError, match="recorded rows by t=0.01;"):
        integrate(harmonic_field(), (1, 0), (0, 1), SimConfig(t_end=1.0, record_dt=record_dt))


def failing_field(bad):
    """F = (-y, x) as a sampler that raises at the points in ``bad``, a
    dict from point tuples to messages."""

    def fn(p):
        key = tuple(float(c) for c in p)
        if key in bad:
            raise NumericalError(bad[key])
        return np.array([-p[1], p[0]])

    return CallableVectorField(fn, 2, Box((-5, -5), (5, 5)))


def evaluated_points(integrator, cfg, x0, v0):
    """The points the per-node loop evaluates, in the order of their first
    evaluation, and the set of those the integrator alone evaluates (its
    stages), for the field of ``failing_field``."""
    seen = []

    def fn(p):
        seen.append(tuple(float(c) for c in p))
        return np.array([-p[1], p[0]])

    F = CallableVectorField(fn, 2, Box((-5, -5), (5, 5)))
    reference_integrate(F, x0, v0, cfg)
    ordered = list(dict.fromkeys(seen))
    seen.clear()
    rhs = lambda t, y: np.concatenate((y[2:], fn(y[:2])))
    y0 = np.concatenate((x0, v0))
    if integrator == "dopri45":
        integrate_dopri45(rhs, 0.0, y0, cfg.t_end, atol=cfg.atol, rtol=cfg.rtol)
    else:
        integrate_rk4(rhs, 0.0, y0, cfg.t_end, cfg.h)
    return ordered, set(seen)


def raised(run):
    with pytest.raises(Exception) as err:
        run()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("integrator", ["dopri45", "rk4"])
@pytest.mark.parametrize("stage_fails_later", [False, True])
def test_node_error_is_the_per_node_loop_error(integrator, stage_fails_later):
    cfg = SimConfig(integrator=integrator, h=0.05, t_end=3.0)
    x0, v0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ordered, stages = evaluated_points(integrator, cfg, x0, v0)
    nodes = [p for p in ordered if p not in stages]
    # a node that only the quadrature evaluates, a few steps into the run,
    # and all the nodes the per-node loop meets after it, of which a batch
    # in another order would meet one first
    bad = dict.fromkeys(nodes[41:], "later node fails")
    bad[nodes[40]] = "node fails"
    if stage_fails_later:
        # a stage first evaluated a step or two later: the integrator fails
        # there while the node is still pending
        later = ordered[ordered.index(nodes[40]):]
        bad[[p for p in later if p in stages][10]] = "stage fails"
    F = failing_field(bad)
    want = raised(lambda: reference_integrate(F, x0, v0, cfg))
    assert want == (NumericalError, "node fails")
    assert raised(lambda: integrate(F, x0, v0, cfg)) == want


@pytest.mark.parametrize("integrator", ["dopri45", "rk4"])
@pytest.mark.parametrize("stage_fails_later", [False, True])
def test_form_node_error_is_the_per_node_loop_error(integrator, stage_fails_later):
    # G fails at a node; the per-node loop evaluates F there first, and G
    # at no stage, so a later failing stage of F comes after it
    cfg = SimConfig(integrator=integrator, h=0.05, t_end=3.0)
    x0, v0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ordered, stages = evaluated_points(integrator, cfg, x0, v0)
    nodes = [p for p in ordered if p not in stages]
    bad = dict.fromkeys(nodes[41:], "later node fails")
    bad[nodes[40]] = "node fails"
    stage_bad = {}
    if stage_fails_later:
        later = ordered[ordered.index(nodes[40]):]
        stage_bad[[p for p in later if p in stages][10]] = "stage fails"
    F, G = failing_field(stage_bad), failing_field(bad)
    want = raised(lambda: reference_integrate(F, x0, v0, cfg, form=G))
    assert want == (NumericalError, "node fails")
    assert raised(lambda: integrate(F, x0, v0, cfg, form=G)) == want


def test_v_floor_crossed_mid_run_raises_the_per_node_loop_error(monkeypatch):
    monkeypatch.setattr(auxiliary, "V_FLOOR_REL", 1e-3)
    dom = Box((0.05, 0.05), (5.0, 5.0))
    F = VectorFieldDef.from_source(["-x*y^2", "-x^3"], 2, domain=dom)
    P = PotentialSet(
        U=ScalarFieldDef.from_source("-(1/x + 1/y)", 2, domain=dom),
        V=ScalarFieldDef.from_source("x^3*y^2", 2, domain=dom),
    )
    region = Region.random(Box((0.5, 0.5), (2.0, 2.0)), 100, seed=9)
    prob = AuxiliaryProblem(F=F, potentials=P, mass=1.0, region=region)
    fbar = auxiliary_force(prob)
    x0, v0 = (1.0, 1.0), (-0.5, -0.5)
    for cfg in (SimConfig(t_end=2.0), SimConfig(integrator="rk4", h=0.01, t_end=2.0)):
        want = raised(lambda: reference_integrate(fbar, x0, v0, cfg))
        assert want[0] is NumericalError and "floor" in want[1]
        assert raised(lambda: integrate(fbar, x0, v0, cfg)) == want
        assert raised(lambda: auxiliary_trajectory(prob, x0, v0, cfg)) == want


@pytest.mark.parametrize("integrator", ["dopri45", "rk4"])
def test_node_error_comes_before_the_end_slope_of_its_step(integrator):
    # for rk4 the first stage evaluated after a step's first node is that
    # step's end slope f(t1, y1), which its last node needs; a per-node loop
    # meets the failing node first, though the integrator's next step asks
    # for the end slope before the pending block is integrated
    cfg = SimConfig(integrator=integrator, h=0.05, t_end=3.0)
    x0, v0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ordered, stages = evaluated_points(integrator, cfg, x0, v0)
    nodes = [p for p in ordered if p not in stages]
    bad = dict.fromkeys(nodes[41:], "later node fails")
    bad[nodes[40]] = "node fails"
    later = ordered[ordered.index(nodes[40]):]
    bad[[p for p in later if p in stages][0]] = "stage fails"
    F = failing_field(bad)
    want = raised(lambda: reference_integrate(F, x0, v0, cfg))
    assert want == (NumericalError, "node fails")
    assert raised(lambda: integrate(F, x0, v0, cfg)) == want


def cut_step_points(integrator, refine):
    """``evaluated_points`` on a step cut into ``refine`` pieces, with its
    nodes in order: (config, start, points, stages, nodes)."""
    cfg = SimConfig(integrator=integrator, h=0.05, t_end=3.0, refine=refine)
    x0, v0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ordered, stages = evaluated_points(integrator, cfg, x0, v0)
    return cfg, (x0, v0), ordered, stages, [p for p in ordered if p not in stages]


def nodes_after_a_stage():
    """(integrator, refine, k) for the nodes k in 30-59 that the per-node
    loop evaluates just after a stage of the integrator."""
    cases = []
    for integrator in ("dopri45", "rk4"):
        for refine in (1, 2, 3):
            _, _, ordered, stages, nodes = cut_step_points(integrator, refine)
            cases += [(integrator, refine, k) for k in range(30, 60)
                      if ordered[ordered.index(nodes[k]) - 1] in stages]
    return cases


@pytest.mark.parametrize("integrator, refine, k", nodes_after_a_stage())
def test_error_order_on_steps_cut_into_pieces(integrator, refine, k):
    # node k fails, every later node with its own message, and the stage
    # evaluated just before node k fails too: with rk4 and refine > 1 that
    # stage is the end slope, which the per-node loop meets at an inner end
    # or a node of the step, after the nodes of its earlier pieces
    cfg, (x0, v0), ordered, stages, nodes = cut_step_points(integrator, refine)
    before = ordered[ordered.index(nodes[k]) - 1]
    bad = {p: f"node {j} fails" for j, p in enumerate(nodes[k + 1 :], k + 1)}
    bad[nodes[k]] = "node fails"
    bad[before] = "stage fails"
    F = failing_field(bad)
    want = raised(lambda: reference_integrate(F, x0, v0, cfg))
    assert raised(lambda: integrate(F, x0, v0, cfg)) == want


def end_slope_case():
    """The first (integrator, refine, k) of ``nodes_after_a_stage`` for rk4 cut
    into three pieces whose stage is its step's end slope: a node comes
    before that stage, where an integrator stage would come before a step's
    first node."""
    _, _, ordered, stages, nodes = cut_step_points("rk4", 3)
    return next(c for c in nodes_after_a_stage() if c[:2] == ("rk4", 3)
                and ordered[ordered.index(nodes[c[2]]) - 2] not in stages)


@pytest.mark.parametrize("block", [QUAD_BLOCK, 4])
@pytest.mark.parametrize("back", [0, 3, 4])
def test_error_order_when_the_end_slope_fails(monkeypatch, block, back):
    # the end slope case of the test above, with node k - back and every
    # later node failing: node k itself (back 0), the first node of its step
    # (3), which the step meets after its dense call raised, or the last node
    # of the step before (4), which may still wait then. A block of 4
    # intervals ends blocks inside the steps, which record 3 each
    monkeypatch.setattr(dynamics, "QUAD_BLOCK", block)
    integrator, refine, k = end_slope_case()
    cfg, (x0, v0), ordered, stages, nodes = cut_step_points(integrator, refine)
    before = ordered[ordered.index(nodes[k]) - 1]
    bad = {p: f"node {j} fails" for j, p in enumerate(nodes[k - back + 1 :], k - back + 1)}
    bad[nodes[k - back]] = "node fails"
    bad[before] = "stage fails"
    F = failing_field(bad)
    want = raised(lambda: reference_integrate(F, x0, v0, cfg))
    assert want == (NumericalError, "node fails" if back else "stage fails")
    assert raised(lambda: integrate(F, x0, v0, cfg)) == want


# --- the cost of the quadrature -------------------------------------------------


def counting_berry():
    """Berry's field as a sampler whose batch function counts the rows it
    is given; returns (field, counter)."""
    rows = [0]

    def batch(Q):
        rows[0] += len(Q)
        return np.stack((-Q[:, 0] * Q[:, 1] ** 2, -Q[:, 0] ** 3), axis=1)

    fn = lambda p: np.array([-p[0] * p[1] ** 2, -p[0] ** 3])
    return CallableVectorField(fn, 2, Box((0.05, 0.05), (5, 5)), batch=batch), rows


@pytest.mark.parametrize("options", [dict(integrator="rk4", h=1e-2), dict(record_dt=1e-3)])
def test_quadrature_evaluates_three_rows_per_recorded_interval(options):
    # the stages go through the pointwise sampler, the quadrature's nodes
    # through the batch one; t_end 2 runs into the wall, so the clipped last
    # step is counted too
    F, rows = counting_berry()
    traj = integrate(F, *BERRY_START, SimConfig(t_end=2.0, **options))
    assert traj.exited
    assert rows[0] == 3 * (len(traj) - 1)


def test_rk4_midpoint_is_the_stored_half_step_state(monkeypatch):
    # the guard's dense(0.5) and the middle Gauss node both take it, so a
    # step inside the box evaluates only the two outer nodes' Hermites
    calls = []
    hermite = _ode._hermite

    def counted(*args):
        calls.append(args[-1])
        return hermite(*args)

    monkeypatch.setattr(_ode, "_hermite", counted)
    traj = integrate(berry_field(), *BERRY_START, SimConfig(t_end=0.5, integrator="rk4", h=1e-2))
    assert not traj.exited
    assert len(calls) == 2 * traj.stats.n_steps
