"""The conservative companion system of a curl force.

Rescaling a force with its potential V (and removing the exact part W)
yields a conservative field (F + grad W) / V = -grad U whose Hamiltonian
H = |p|^2 / 2m + U(x) is conserved along the *auxiliary* dynamics; that
conservation is asserted here because it is ordinary energy conservation.

The paper also says this Hamiltonian is conserved along the original
curl-force motion. It is read here through the paper's work 1-form
w = F . dx: with F = -V grad U - grad W, w + dW = -V dU, so 1/V is an
integrating factor and (w + dW) / V = -dU. Accumulating the kinetic part
as dK' = (dK + dW) / V along the physical trajectory gives

    H(t) = K(0) + int_0^t (F + grad W) . v / V dt + U(x(t)),

which is constant; ``nonlocal_hamiltonian_series`` takes the integral on
the nodes of the work quadrature, so its drift measures conservation to
the integrator's order (h^4 for rk4). This is a reading of the paper, not
a statement of it. Another reading rescaled the momentum, dp' = dp / V,
and rebuilt a second position from it by cumulative trapezoids; on
Berry's field its H did not converge to a constant (the drift approached
7e-4 at t_end 0.5 as the grid was refined, and read 12.1 at t_end 2, where
the rebuilt position had left the domain), so it was dropped.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import darboux, dynamics, fieldkit
from .errors import NumericalError, require_positive

V_FLOOR_REL = 1e-9  # the floor of |V|, relative to max |V| over the region


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

    def __post_init__(self):
        require_positive("mass", self.mass)
        require_positive("rep_tol", self.rep_tol)
        rep = darboux.verify_representation(self.F, self.potentials, self.region)
        if rep.max > self.rep_tol:
            raise NumericalError(
                f"potentials do not represent the force on the region: "
                f"max residual {rep.max:.3e} > {self.rep_tol:.1e}"
            )
        v_vals = np.abs(self.potentials.V.values(self.region.samples()))
        v_max = float(np.max(v_vals))
        floor = V_FLOOR_REL * v_max
        # <=, so that a V that is 0 on the whole region (a floor of 0) fails
        if np.min(v_vals) <= floor:
            raise NumericalError(
                f"|V| falls below its floor {floor:.3e} on the region; "
                "the 1/V rescaling would blow up"
            )
        object.__setattr__(self, "_v_floor", floor)

    @property
    def v_floor(self):
        return self._v_floor


@dataclass
class AuxiliarySeries:
    t: np.ndarray  # (N,)
    x: np.ndarray  # (N, dim) curl-force trajectory
    H: np.ndarray  # (N,) auxiliary Hamiltonian along it
    drift: float   # max |H(t) - H(0)|
    exited: bool   # the trajectory ran into the domain wall


def auxiliary_force(prob):
    """Sampler p -> (F(p) + grad W(p)) / V(p); equals -grad U within the
    representation tolerance."""
    F = prob.F
    V = prob.potentials.V
    W = prob.potentials.W
    floor = prob.v_floor

    def fn(p):
        # on Python floats; W's gradient refuses a point past the wall, where
        # ``dynamics.integrate`` then takes the box-clamped point
        v = V.value_unchecked(p)
        if abs(v) < floor:
            raise NumericalError(
                f"V={v:.3e} below the rescaling floor {floor:.3e} at "
                f"{tuple(float(c) for c in p)}"
            )
        f = F.value_unchecked(p)
        if W is not None:
            f = [a + b for a, b in zip(f, W.gradient(p).tolist())]
        return [c / v for c in f]

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
    """H = p . p / 2m + U(x). Where p . p overflows, the kinetic term is
    taken as (s / m) s (q . q) / 2 with q = p / s and s = max |p_i|, so H is
    finite whenever that term is."""
    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore"):
        pp = float(np.dot(p, p))
    if math.isfinite(pp):
        kinetic = pp / (2.0 * mass)
    else:
        s = float(np.max(np.abs(p)))
        q = p / s
        kinetic = s / mass * s * (float(np.dot(q, q)) / 2.0)
    return float(kinetic + U.value(x))


def auxiliary_trajectory(prob, x0, v0, cfg):
    """Integrate the auxiliary dynamics m x'' = (F + grad W)/V and report
    the drift of H along it (conserved up to integrator error)."""
    cfg = dataclasses.replace(cfg, mass=prob.mass)
    traj = dynamics.integrate(auxiliary_force(prob), x0, v0, cfg)
    U = prob.potentials.U
    H = traj.kinetic + U.values(traj.x)
    drift = float(np.max(np.abs(H - H[0])))
    return traj, drift


def nonlocal_hamiltonian_series(prob, x0, v0, cfg):
    """Integrate the curl-force motion m x'' = F from (x0, v0) and
    accumulate the auxiliary Hamiltonian along it:

        H(t) = K(0) + int_0^t (F + grad W) . v / V dt + U(x(t)).

    The integral is the trajectory's ``form_work`` of ``auxiliary_force``,
    taken with the work quadrature, so the drift max |H(t) - H(0)| measures
    conservation to the integrator's order. A V below its floor on the way
    raises the sampler's ``NumericalError``, which names the point.
    """
    cfg = dataclasses.replace(cfg, mass=prob.mass)
    traj = dynamics.integrate(prob.F, x0, v0, cfg, form=auxiliary_force(prob))
    H = traj.kinetic[0] + traj.form_work + prob.potentials.U.values(traj.x)
    drift = float(np.max(np.abs(H - H[0])))
    return AuxiliarySeries(t=traj.t, x=traj.x, H=H, drift=drift, exited=traj.exited)
