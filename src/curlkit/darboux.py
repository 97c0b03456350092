"""Canonical classification of force fields and their generalized potentials.

A force field's work 1-form falls into one of three canonical classes:

``conservative``
    exact; a single potential (F = -grad W).
``two-potential``
    integrable rank one (F = -V grad U); curl is nonzero but the helicity
    F . curl F vanishes (complex-lamellar field).
``chiral three-potential``
    3D only; nonzero helicity forces a third potential
    (F = -V grad U - grad W).

Classification is numerical over a sampled region with unit-independent
thresholds: statistics are normalized by max ||J||_inf * diam(region).
The module also verifies candidate potential sets against a field, checks
the first-order compatibility PDE grad(V) x F - V curl F = 0, applies
gauge transformations (U, V) -> (f(U), V / f'(U)), and performs the
gauge-fixed conservative/non-conservative split in 3D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exprlang, fieldkit
from ._ode import integrate_dopri45, sample_every
from .errors import DimensionMismatchError, NumericalError, OutOfDomainError

GRAD_V_FLOOR = 1e-12
SCALE_FLOOR = 1e-30


@dataclass(frozen=True)
class ClassifyThresholds:
    conservative: float = 1e-8  # max ||curl|| / scale at or below => exact
    chiral: float = 1e-8        # max |helicity| / (scale * max ||F||) above => chiral


@dataclass(frozen=True)
class ClassificationReport:
    canonical_class: str  # conservative | two-potential | chiral three-potential
    curl_statistic: float
    helicity_statistic: Optional[float]
    sample_count: int
    region: fieldkit.Region
    thresholds: ClassifyThresholds


@dataclass(frozen=True)
class ResidualReport:
    """Norm summary of a pointwise residual over region samples."""

    max: float
    rms: float
    min: float
    worst_point: tuple
    definition: str
    sample_count: int

    def to_dict(self):
        return {
            "max": self.max,
            "rms": self.rms,
            "min": self.min,
            "worst_point": list(self.worst_point),
            "definition": self.definition,
            "sample_count": self.sample_count,
        }


@dataclass(frozen=True)
class PotentialSet:
    """Candidate generalized potentials for a force field."""

    U: fieldkit.ScalarFieldDef
    V: fieldkit.ScalarFieldDef
    W: Optional[fieldkit.ScalarFieldDef] = None

    def __post_init__(self):
        dims = {self.U.dimension, self.V.dimension}
        if self.W is not None:
            dims.add(self.W.dimension)
        if len(dims) != 1:
            raise DimensionMismatchError("potentials must share one dimension")

    @property
    def dimension(self):
        return self.U.dimension


def _residual_report(values, points, definition, worst="max"):
    """Summarize per-sample scalar magnitudes; worst point tracks the max
    for residual-style checks and the min for independence-style checks."""
    values = np.asarray(values, dtype=float)
    idx = int(np.argmin(values)) if worst == "min" else int(np.argmax(values))
    return ResidualReport(
        max=float(values.max()),
        rms=float(np.sqrt(np.mean(values**2))),
        min=float(values.min()),
        worst_point=tuple(float(c) for c in points[idx]),
        definition=definition,
        sample_count=len(values),
    )


def _check_region(F, region):
    if not F.domain.contains_box(region.box):
        raise OutOfDomainError("region box not contained in the field domain")
    pts = region.samples()
    if len(pts) == 0:
        raise NumericalError("empty sample set")
    return pts


def sampled_scale(F, region, points=None, mode="analytic"):
    """max over samples of ||jacobian||_inf times the region diameter,
    floored to avoid dividing by zero for the zero field."""
    pts = _check_region(F, region) if points is None else points
    jmax = 0.0
    for p in pts:
        J = F.jacobian(p, mode)
        jmax = max(jmax, float(np.max(np.sum(np.abs(J), axis=1))))
    return max(jmax * region.box.diameter(), SCALE_FLOOR)


def classify(F, region, thresholds=ClassifyThresholds(), mode="analytic"):
    """Assign the minimal canonical class consistent with sampled statistics.

    In 2D the chiral class is unreachable: the obstruction is a 3-form,
    identically zero in the plane.
    """
    pts = _check_region(F, region)
    scale = sampled_scale(F, region, points=pts, mode=mode)

    curl_max = 0.0
    hel_max = 0.0
    fmag_max = 0.0
    for p in pts:
        c = fieldkit.curl(F, p, mode)
        curl_max = max(curl_max, float(np.linalg.norm(np.atleast_1d(c))))
        fmag_max = max(fmag_max, float(np.linalg.norm(F.value(p))))
        if F.dimension == 3:
            hel_max = max(hel_max, abs(float(np.dot(F.value(p), c))))

    curl_stat = curl_max / scale
    hel_stat = None
    label = "two-potential"
    if curl_stat <= thresholds.conservative:
        label = "conservative"
    if F.dimension == 3:
        hel_stat = hel_max / max(scale * fmag_max, SCALE_FLOOR)
        if label != "conservative" and hel_stat > thresholds.chiral:
            label = "chiral three-potential"
    return ClassificationReport(
        canonical_class=label,
        curl_statistic=float(curl_stat),
        helicity_statistic=None if hel_stat is None else float(hel_stat),
        sample_count=len(pts),
        region=region,
        thresholds=thresholds,
    )


def verify_representation(F, potentials, region, mode="analytic"):
    """Residual of F + V grad U (+ grad W when present) over the region."""
    if potentials.dimension != F.dimension:
        raise DimensionMismatchError("potential set dimension differs from field")
    pts = _check_region(F, region)
    mags = []
    for p in pts:
        r = F.value(p) + potentials.V.value(p) * potentials.U.gradient(p, mode)
        if potentials.W is not None:
            r = r + potentials.W.gradient(p, mode)
        mags.append(np.linalg.norm(r))
    tag = "F + V*grad(U)" + (" + grad(W)" if potentials.W is not None else "")
    return _residual_report(mags, pts, tag)


def vpde_residual(F, V, region, mode="analytic"):
    """Residual of the compatibility PDE grad(V) x F - V * curl F.

    Scalar in 2D, vector in 3D; any admissible rescaling potential V must
    annihilate it.
    """
    if V.dimension != F.dimension:
        raise DimensionMismatchError("V dimension differs from field")
    pts = _check_region(F, region)
    mags = []
    for p in pts:
        gv = V.gradient(p, mode)
        f = F.value(p)
        c = fieldkit.curl(F, p, mode)
        v = V.value(p)
        if F.dimension == 2:
            res = gv[0] * f[1] - gv[1] * f[0] - v * c
            mags.append(abs(res))
        else:
            mags.append(np.linalg.norm(np.cross(gv, f) - v * c))
    return _residual_report(mags, pts, "grad(V) x F - V*curl(F)")


def gauge_transform(potentials, f_tree, region=None):
    """Apply the gauge (U, V) -> (f(U), V / f'(U)); W is untouched.

    ``f_tree`` is a one-variable expression in ``u``. When a region is
    given, f'(U) is probed at its samples and a vanishing value rejected.
    """
    if tuple(f_tree.variables) != ("u",):
        raise ValueError("gauge function must be an expression in the variable u")
    U, V = potentials.U, potentials.V
    fprime = exprlang.derivative(f_tree, "u")

    u_new_tree = exprlang.substitute(f_tree, "u", U.tree)
    fprime_of_u = exprlang.substitute(fprime, "u", U.tree)
    v_new_tree = exprlang.SyntaxTree(
        exprlang._div(V.tree.root, fprime_of_u.root),
        U.tree.variables,
        V.tree.constants | U.tree.constants,
        "",
    )

    constants = {**U.constants, **V.constants}
    U_new = fieldkit.ScalarFieldDef(U.dimension, u_new_tree, constants, U.domain)
    V_new = fieldkit.ScalarFieldDef(V.dimension, v_new_tree, constants, V.domain)

    if region is not None:
        for p in region.samples():
            u_val = U.value(p)
            d = exprlang.eval_at(fprime, (u_val,), constants)
            if abs(d) < GRAD_V_FLOOR:
                raise NumericalError(
                    f"gauge derivative f'(U) vanishes at sample {tuple(p)}"
                )
    return PotentialSet(U=U_new, V=V_new, W=potentials.W)


def independence_metric(U, V, region, mode="analytic"):
    """Magnitude of grad(V) x grad(U) over samples; zero means V = f(U)
    (functional dependence), which degenerates the two-potential form."""
    if U.dimension != V.dimension:
        raise DimensionMismatchError("U and V dimensions differ")
    pts = region.samples()
    mags = []
    for p in pts:
        gu = U.gradient(p, mode)
        gv = V.gradient(p, mode)
        if U.dimension == 2:
            mags.append(abs(gv[0] * gu[1] - gv[1] * gu[0]))
        else:
            mags.append(np.linalg.norm(np.cross(gv, gu)))
    return _residual_report(mags, pts, "|grad(V) x grad(U)|", worst="min")


@dataclass(frozen=True)
class Decomposition3D:
    """Gauge-fixed split F = F_c + F_nc with pointwise samplers.

    grad_u is generally not a closed-form expression of the inputs, hence
    samplers rather than expression trees.
    """

    grad_u: object   # point -> vector
    f_c: object      # point -> vector (conservative part)
    f_nc: object     # point -> vector (non-conservative part)
    diagnostics: dict


def decompose3d(F, V, region, admissibility_rtol=1e-6):
    """Split a 3D field into conservative and non-conservative parts.

    With the gauge grad(V) . grad(U) = 0, the non-conservative direction
    is recovered from grad U = (grad V x curl F) / ||grad V||^2, then
    F_nc = -V grad U and F_c = F - F_nc. Preconditions: grad V bounded
    away from zero on the region and V constant along the curl
    characteristics (grad V . curl F ~ 0).
    """
    if F.dimension != 3 or V.dimension != 3:
        raise DimensionMismatchError("decompose3d requires 3D fields")
    pts = _check_region(F, region)
    scale = sampled_scale(F, region, points=pts)

    worst_dot = 0.0
    for p in pts:
        gv = V.gradient(p)
        ngv = np.linalg.norm(gv)
        if ngv < GRAD_V_FLOOR:
            raise NumericalError(f"||grad V|| below floor at sample {tuple(p)}")
        worst_dot = max(worst_dot, abs(float(np.dot(gv, fieldkit.curl(F, p)))))
    if worst_dot > admissibility_rtol * scale:
        raise NumericalError(
            "V is not constant along the curl characteristics: "
            f"max |grad V . curl F| = {worst_dot:.3e} exceeds "
            f"{admissibility_rtol:.1e} * scale = {admissibility_rtol * scale:.3e}"
        )

    def grad_u(p):
        gv = V.gradient(p)
        ngv2 = float(np.dot(gv, gv))
        if ngv2 < GRAD_V_FLOOR**2:
            raise NumericalError(f"||grad V|| below floor at {tuple(p)}")
        return np.cross(gv, fieldkit.curl(F, p)) / ngv2

    def f_nc(p):
        return -V.value(p) * grad_u(p)

    def f_c(p):
        return F.value(p) - f_nc(p)

    # diagnostics over the same samples
    sum_resid, gauge_dot, curl_fc, curl_agree = [], [], [], []
    fc_field = fieldkit.CallableVectorField(f_c, 3, F.domain)
    fnc_field = fieldkit.CallableVectorField(f_nc, 3, F.domain)
    for p in pts:
        sum_resid.append(np.linalg.norm(F.value(p) - f_c(p) - f_nc(p)))
        gauge_dot.append(abs(float(np.dot(V.gradient(p), grad_u(p)))))
        curl_fc.append(np.linalg.norm(fieldkit.curl(fc_field, p, "fd")))
        cn = fieldkit.curl(fnc_field, p, "fd")
        curl_agree.append(np.linalg.norm(cn - fieldkit.curl(F, p)))

    diagnostics = {
        "sum_identity": _residual_report(sum_resid, pts, "F - F_c - F_nc"),
        "gauge_orthogonality": _residual_report(gauge_dot, pts, "grad(V) . grad(U)"),
        "curl_f_c": _residual_report(curl_fc, pts, "||curl F_c|| (fd)"),
        "curl_f_nc_agreement": _residual_report(
            curl_agree, pts, "||curl F_nc - curl F|| (fd vs analytic)"
        ),
    }
    return Decomposition3D(grad_u=grad_u, f_c=f_c, f_nc=f_nc, diagnostics=diagnostics)


def characteristic_deviation(F, V, x0, s_max, steps=200, atol=1e-11, rtol=1e-11):
    """Trace dx/ds = curl F from x0 and report max |V(x(s)) - V(x0)|.

    A valid rescaling potential is constant along these characteristics.
    Raises OutOfDomainError (with the exit point) if the curve leaves the
    field domain before s_max.
    """
    if F.dimension != 3:
        raise DimensionMismatchError("characteristics are traced for 3D fields")
    x0 = np.asarray(x0, dtype=float)
    if not F.domain.contains(x0):
        raise OutOfDomainError("start point outside domain", x0)
    v0 = V.value(x0)
    deviation = 0.0

    def rhs(s, x):
        return fieldkit.curl(F, x)

    def visit(x):
        nonlocal deviation
        deviation = max(deviation, abs(V.value(x) - v0))

    res = integrate_dopri45(
        rhs,
        0.0,
        x0,
        s_max,
        atol=atol,
        rtol=rtol,
        inside=lambda x: F.domain.contains(x),
        on_step=sample_every(s_max / max(1, int(steps)), visit),
    )
    if res.exited:
        raise OutOfDomainError(
            f"characteristic left the domain at s={res.t:.6g}", res.y
        )
    visit(res.y)
    return float(deviation)
