"""The conservative companion system of a curl force.

Rescaling a force with its potential V (and removing the exact part W)
yields a conservative field (F + grad W) / V = -grad U whose Hamiltonian
H = |p|^2 / 2m + U(x) is conserved along the *auxiliary* dynamics; that
conservation is asserted here because it is ordinary energy conservation.

The same functional can be accumulated along the original curl-force
trajectory through the momentum identity dp_aux/dt = (dp/dt) / V(x(t)),
giving a nonlocal series p_aux(t) = p0 - int[grad U + grad W / V] and a
double integral for x_aux(t). Whether that series is constant along the
original motion is an open interpretive question: the two trajectories
differ, and dH/dt picks up grad U(x_aux) - grad U(x). The series is
therefore *measured* and its drift reported, never asserted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import darboux, dynamics, fieldkit
from ._ode import _hermite
from .errors import NumericalError, OutOfDomainError


@dataclass(frozen=True)
class AuxiliaryProblem:
    """A force field with verified potentials, a working region, and mass.

    Construction checks that the potentials actually represent the force
    on the region and that |V| stays above its floor (a relative fraction
    of max |V| over the region) so the 1/V rescaling is well defined.
    """

    F: object
    potentials: darboux.PotentialSet
    mass: float
    region: fieldkit.Region
    rep_tol: float = 1e-8
    v_floor_rel: float = 1e-9

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        rep = darboux.verify_representation(self.F, self.potentials, self.region)
        if rep.max > self.rep_tol:
            raise NumericalError(
                f"potentials do not represent the force on the region: "
                f"max residual {rep.max:.3e} > {self.rep_tol:.1e}"
            )
        v_vals = np.abs(self.potentials.V.values(self.region.samples()))
        v_max = float(np.max(v_vals))
        floor = self.v_floor_rel * v_max
        if np.min(v_vals) < floor:
            raise NumericalError(
                f"|V| falls below its floor {floor:.3e} on the region; "
                "the 1/V momentum rescaling would blow up"
            )
        object.__setattr__(self, "_v_floor", floor)

    @property
    def v_floor(self):
        return self._v_floor


@dataclass
class AuxiliarySeries:
    t: np.ndarray      # (N,)
    pbar: np.ndarray   # (N, dim) rescaled momentum series
    xbar: np.ndarray   # (N, dim) auxiliary position series
    H: np.ndarray      # (N,)
    drift: float       # max |H(t) - H(0)|
    truncated: bool    # True if xbar left the potential's domain


def auxiliary_force(prob):
    """Sampler p -> (F(p) + grad W(p)) / V(p); equals -grad U within the
    representation tolerance."""
    F = prob.F
    V = prob.potentials.V
    W = prob.potentials.W
    floor = prob.v_floor

    def fn(p):
        v = V.value_unchecked(p)
        if abs(v) < floor:
            raise NumericalError(
                f"V={v:.3e} below the rescaling floor {floor:.3e} at "
                f"{tuple(float(c) for c in p)}"
            )
        f = F.value_unchecked(p)
        if W is not None:
            f = f + W.gradient(p)
        return f / v

    def batch(P):
        v = V.values(P)
        if np.any(np.abs(v) < floor):
            # ``values`` then takes fn row by row, which names the point
            raise NumericalError("V below the rescaling floor")
        f = F.values(P)
        if W is not None:
            f = f + W.gradients(P)
        return f / v[:, None]

    return fieldkit.CallableVectorField(fn, F.dimension, F.domain, batch)


def auxiliary_hamiltonian(x, p, U, mass):
    """H = p . p / 2m + U(x)."""
    p = np.asarray(p, dtype=float)
    return float(np.dot(p, p) / (2.0 * mass) + U.value(x))


def auxiliary_trajectory(prob, x0, v0, cfg):
    """Integrate the auxiliary dynamics m x'' = (F + grad W)/V and report
    the drift of H along it (conserved up to integrator error)."""
    cfg = dataclasses.replace(cfg, mass=prob.mass)
    traj = dynamics.integrate(auxiliary_force(prob), x0, v0, cfg)
    U = prob.potentials.U
    H = traj.kinetic + U.values(traj.x)
    drift = float(np.max(np.abs(H - H[0])))
    return traj, drift


def _cumtrapz(values, t):
    """Cumulative trapezoid along axis 0; result[0] = 0."""
    values = np.asarray(values)
    dt = np.diff(t)
    increments = 0.5 * (values[1:] + values[:-1]) * dt[:, None]
    out = np.zeros_like(values)
    out[1:] = np.cumsum(increments, axis=0)
    return out


def _hermite_refine(traj, refine):
    """Subdivide the trajectory grid with cubic Hermite interpolation of
    x(t), using the stored velocities as exact slopes."""
    t, x, v = traj.t, traj.x, traj.v
    ts, xs = [t[0]], [x[0]]
    for i in range(len(t) - 1):
        h = t[i + 1] - t[i]
        for j in range(1, refine + 1):
            u = j / refine
            ts.append(t[i] + u * h)
            xs.append(_hermite(x[i], x[i + 1], v[i], v[i + 1], h, u))
    return np.array(ts), np.array(xs)


def nonlocal_hamiltonian_series(traj, prob, refine=1):
    """Accumulate the auxiliary Hamiltonian along an existing curl-force
    trajectory; the drift is reported, not asserted.

    The integrand grad U + grad W / V is evaluated on the trajectory's own
    grid (optionally Hermite-subdivided ``refine`` times) and accumulated
    by cumulative trapezoids; the series is truncated with a flag if the
    reconstructed auxiliary position leaves the potential's domain.
    """
    if refine < 1:
        raise ValueError("refine must be >= 1")
    U = prob.potentials.U
    V = prob.potentials.V
    W = prob.potentials.W
    m = prob.mass
    floor = prob.v_floor

    if refine == 1:
        t, x = traj.t, traj.x
    else:
        t, x = _hermite_refine(traj, refine)

    def integrand(Q):
        g = U.gradients(Q)
        if W is None:
            return g
        v = V.values(Q)
        low = np.abs(v) < floor
        if low.any():
            raise NumericalError(
                f"V={v[np.argmax(low)]:.3e} below the rescaling floor {floor:.3e} along "
                "the trajectory; the 1/V factor in the momentum "
                "rescaling is no longer usable"
            )
        return g + W.gradients(Q) / v[:, None]

    g = fieldkit.per_row(x, integrand)

    x0 = x[0]
    v0 = traj.v[0]
    p0 = m * v0

    first = _cumtrapz(g, t)                 # int_0^t g
    second = _cumtrapz(first, t)            # int_0^t int_0^tau g
    pbar = p0[None, :] - first
    xbar = x0[None, :] + np.outer(t, v0) - second / m

    inside = U.domain.contains_rows(xbar)
    truncated = not inside.all()
    n_valid = int(np.argmin(inside)) if truncated else len(t)
    if n_valid == 0:
        raise OutOfDomainError("auxiliary position starts outside the domain", x0)
    t, pbar, xbar = t[:n_valid], pbar[:n_valid], xbar[:n_valid]
    # matmul takes the kernel of np.dot, so each p . p rounds as np.dot's
    H = np.matmul(pbar[:, None, :], pbar[:, :, None])[:, 0, 0] / (2.0 * m) + U.values(xbar)
    drift = float(np.max(np.abs(H - H[0])))
    return AuxiliarySeries(t=t, pbar=pbar, xbar=xbar, H=H, drift=drift, truncated=truncated)
