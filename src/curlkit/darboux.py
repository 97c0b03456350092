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

from . import _ode, exprlang, fieldkit
from ._ode import integrate_dopri45, sample_every
from .errors import EVAL_ERRORS, DimensionMismatchError, NumericalError, OutOfDomainError
from .errors import require_positive

GRAD_V_FLOOR = 1e-12
SCALE_FLOOR = 1e-30
CONSERVATIVE_THRESHOLD = 1e-8  # max ||curl|| / scale at or below => exact
CHIRAL_THRESHOLD = 1e-8        # max |helicity| / (scale * max ||F||) above => chiral
ADMISSIBILITY_RTOL = 1e-6      # decompose3d's bound on its residuals, relative to scale
CHARACTERISTIC_TOL = 1e-11     # atol and rtol of the curl characteristics


@dataclass(frozen=True)
class ClassificationReport:
    canonical_class: str  # conservative | two-potential | chiral three-potential
    curl_statistic: float
    helicity_statistic: Optional[float]
    sample_count: int


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


def _residual_report(values, points, definition):
    """Summarize per-sample residual magnitudes; the worst point is where
    the residual is largest."""
    values = np.asarray(values, dtype=float)
    idx = int(np.argmax(values))
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


def _scale(J, region):
    """``sampled_scale`` from the (N, dim, dim) Jacobians J."""
    jmax = float(np.max(np.sum(np.abs(J), axis=2), initial=0.0))
    return max(jmax * region.box.diameter(), SCALE_FLOOR)


def _refuse_first(bad, Q, message):
    """NumericalError naming the first row of Q flagged in ``bad``, in plain floats."""
    if bad.any():
        raise NumericalError(message.format(tuple(Q[int(np.argmax(bad))].tolist())))


def sampled_scale(F, region, points):
    """max over the points of ||jacobian||_inf times the region diameter,
    floored to avoid dividing by zero for the zero field."""
    return _scale(F.jacobians(points), region)


def classify(F, region, mode="analytic"):
    """Assign the minimal canonical class consistent with sampled statistics.

    In 2D the chiral class is unreachable: the obstruction is a 3-form,
    identically zero in the plane.
    """
    pts = _check_region(F, region)
    J = F.jacobians(pts, mode)
    scale = _scale(J, region)
    f = F.values(pts)
    c = fieldkit.curl_of_jacobian(J).reshape(len(pts), -1)

    curl_stat = float(np.max(np.linalg.norm(c, axis=1))) / scale
    hel_stat = None
    label = "two-potential"
    if curl_stat <= CONSERVATIVE_THRESHOLD:
        label = "conservative"
    if F.dimension == 3:
        hel_max = float(np.max(np.abs(np.einsum("ij,ij->i", f, c))))
        fmag_max = float(np.max(np.linalg.norm(f, axis=1)))
        hel_stat = hel_max / max(scale * fmag_max, SCALE_FLOOR)
        if label != "conservative" and hel_stat > CHIRAL_THRESHOLD:
            label = "chiral three-potential"
    return ClassificationReport(
        canonical_class=label,
        curl_statistic=float(curl_stat),
        helicity_statistic=None if hel_stat is None else float(hel_stat),
        sample_count=len(pts),
    )


def verify_representation(F, potentials, region, mode="analytic"):
    """Residual of F + V grad U (+ grad W when present) over the region."""
    if potentials.dimension != F.dimension:
        raise DimensionMismatchError("potential set dimension differs from field")
    pts = _check_region(F, region)
    U, V, W = potentials.U, potentials.V, potentials.W

    def residuals(Q):
        r = F.values(Q) + V.values(Q)[:, None] * U.gradients(Q, mode)
        if W is not None:
            r = r + W.gradients(Q, mode)
        return np.linalg.norm(r, axis=1)

    tag = "F + V*grad(U)" + (" + grad(W)" if W is not None else "")
    return _residual_report(fieldkit.per_row(pts, residuals), pts, tag)


def vpde_residual(F, V, region, mode="analytic"):
    """Residual of the compatibility PDE grad(V) x F - V * curl F.

    Scalar in 2D, vector in 3D; any admissible rescaling potential V must
    annihilate it.
    """
    if V.dimension != F.dimension:
        raise DimensionMismatchError("V dimension differs from field")
    pts = _check_region(F, region)

    def residuals(Q):
        gv = V.gradients(Q, mode)
        f = F.values(Q)
        c = fieldkit.curl_many(F, Q, mode)
        v = V.values(Q)
        if F.dimension == 2:
            return np.abs(gv[:, 0] * f[:, 1] - gv[:, 1] * f[:, 0] - v * c)
        return np.linalg.norm(np.cross(gv, f) - v[:, None] * c, axis=1)

    return _residual_report(fieldkit.per_row(pts, residuals), pts, "grad(V) x F - V*curl(F)")


def gauge_transform(potentials, f_tree, region=None):
    """Apply the gauge (U, V) -> (f(U), V / f'(U)); W is untouched.

    ``f_tree`` is a one-variable expression in ``u``. When a region is
    given, f'(U) is probed at its samples and a vanishing value rejected.
    The trees of f(U) and V / f'(U) are printed and parsed again, so they
    come from the parse cache with their partials and compiled functions,
    and an evaluation error in them cites spans of the printed text, the
    ``u_prime``/``v_prime`` of a report.
    """
    if tuple(f_tree.variables) != ("u",):
        raise ValueError("gauge function must be an expression in the variable u")
    U, V = potentials.U, potentials.V
    (fprime,) = f_tree.partials
    fprime_of_u = exprlang.substitute(fprime, "u", U.tree)
    built = (
        exprlang.substitute(f_tree, "u", U.tree),
        exprlang.SyntaxTree(exprlang._div(V.tree.root, fprime_of_u.root),
                            U.tree.variables, V.tree.constants | U.tree.constants, ""),
    )
    u_new_tree, v_new_tree = (
        exprlang.parse_in_variables(exprlang.to_source(t), t.variables, t.constants)
        for t in built
    )

    constants = {**U.constants, **V.constants}
    U_new = fieldkit.ScalarFieldDef(U.dimension, u_new_tree, constants, U.domain)
    V_new = fieldkit.ScalarFieldDef(V.dimension, v_new_tree, constants, V.domain)

    if region is not None:

        def probe(Q):
            d = exprlang.eval_many([fprime], (U.values(Q),), constants)[0]
            message = "gauge derivative f'(U) vanishes at sample {}"
            _refuse_first(np.abs(d) < GRAD_V_FLOOR, Q, message)

        fieldkit.per_row(region.samples(), probe)
    return PotentialSet(U=U_new, V=V_new, W=potentials.W)


@dataclass(frozen=True)
class Decomposition3D:
    """Gauge-fixed split F = F_c + F_nc at the rows of ``points``, the region's
    samples: grad U (rarely a closed form of the inputs), the conservative part
    F_c and the non-conservative part F_nc, each (N, 3), and a ResidualReport
    per check of the split in ``diagnostics``."""

    points: np.ndarray
    grad_u: np.ndarray
    f_c: np.ndarray
    f_nc: np.ndarray
    diagnostics: dict


def decompose3d(F, V, region):
    """Split a 3D field into conservative and non-conservative parts.

    With the gauge grad(V) . grad(U) = 0, the non-conservative direction
    is recovered from grad U = (grad V x curl F) / ||grad V||^2, then
    F_nc = -V grad U and F_c = F - F_nc. Preconditions: grad V bounded
    away from zero on the region and V constant along the curl
    characteristics (grad V . curl F ~ 0). A split whose F_c has a curl
    above ``ADMISSIBILITY_RTOL * scale`` is refused: no U in this gauge
    has the gradient it needs.
    """
    if F.dimension != 3 or V.dimension != 3:
        raise DimensionMismatchError("decompose3d requires 3D fields")
    pts = _check_region(F, region)
    bound = ADMISSIBILITY_RTOL * sampled_scale(F, region, pts)

    def require_below(worst, quantity, reason):
        if worst > bound:
            raise NumericalError(f"{reason}: max {quantity} = {worst:.3e} exceeds "
                                 f"{ADMISSIBILITY_RTOL:.1e} * scale = {bound:.3e}")

    def split(Q, gv):
        """curl F, F, grad U, F_c and F_nc at the rows of Q, where grad V is gv."""
        ngv2 = np.einsum("ij,ij->i", gv, gv)
        _refuse_first(ngv2 < GRAD_V_FLOOR**2, Q, "||grad V|| below floor at {}")
        c = fieldkit.curl_many(F, Q)
        grad_u = np.cross(gv, c) / ngv2[:, None]
        f, f_nc = F.values(Q), -V.values(Q)[:, None] * grad_u
        return c, f, grad_u, f - f_nc, f_nc

    def at_samples(Q):
        gv = V.gradients(Q)
        _refuse_first(np.linalg.norm(gv, axis=1) < GRAD_V_FLOOR, Q,
                      "||grad V|| below floor at sample {}")
        return (gv, *split(Q, gv))

    gv, c, f, grad_u, f_c, f_nc = fieldkit.per_row(pts, at_samples)
    require_below(float(np.max(np.abs(np.einsum("ij,ij->i", gv, c)))), "|grad V . curl F|",
                  "V is not constant along the curl characteristics")

    def at_stencil(Q):
        """[F_c | F_nc] at the rows of Q, raising the error of a loop over them."""
        try:
            return np.hstack(split(Q, V.gradients(Q))[3:])
        except EVAL_ERRORS:
            for q in Q[:, None]:
                split(q, V.gradients(q))
            raise

    J = fieldkit._fd_jacobians(at_stencil, pts, F.domain).reshape(len(pts), 2, 3, 3)
    curl_f_c, curl_f_nc = np.moveaxis(fieldkit.curl_of_jacobian(J), 1, 0)
    diagnostics = {name: _residual_report(r, pts, definition) for name, definition, r in (
        ("sum_identity", "F - F_c - F_nc", np.linalg.norm(f - f_c - f_nc, axis=1)),
        ("gauge_orthogonality", "grad(V) . grad(U)", np.abs(np.einsum("ij,ij->i", gv, grad_u))),
        ("curl_f_c", "||curl F_c|| (fd)", np.linalg.norm(curl_f_c, axis=1)),
        ("curl_f_nc_agreement", "||curl F_nc - curl F|| (fd vs analytic)",
         np.linalg.norm(curl_f_nc - c, axis=1)),
    )}
    require_below(diagnostics["curl_f_c"].max, "||curl F_c||",
                  "the split is not conservative (no U in the gauge grad V . grad U = 0)")
    return Decomposition3D(points=pts, grad_u=grad_u, f_c=f_c, f_nc=f_nc, diagnostics=diagnostics)


def characteristic_deviation(F, V, x0, s_max, steps=200):
    """Trace dx/ds = curl F from x0 and report max |V(x(s)) - V(x0)|.

    A valid rescaling potential is constant along these characteristics.
    Raises OutOfDomainError (with the exit point) if the curve leaves the
    field domain before s_max.

    The right-hand side returns the curl as a list of floats
    (``fieldkit._curl_3d``), bit for bit the one of ``fieldkit.curl``, so
    the dopri45 stages stay on floats; a trial stage past the wall takes it
    at the box-clamped point.
    """
    if F.dimension != 3:
        raise DimensionMismatchError("characteristics are traced for 3D fields")
    require_positive("s_max", s_max)
    if not 1 <= steps <= _ode._MAX_STEPS:
        # sample_every holds a time per sample: refuse more samples than the step cap
        raise ValueError(f"steps must be >= 1 and at most {_ode._MAX_STEPS}, got {steps!r}")
    x0 = np.asarray(x0, dtype=float)
    if not F.domain.contains(x0):
        raise OutOfDomainError("start point outside domain", x0)
    v0 = V.value(x0)
    deviation = 0.0

    def rhs(s, x):
        # a trial stage past the wall takes the curl at the box-clamped
        # point, as ``dynamics`` does, and the guard places the exit
        return fieldkit._curl_3d(F, x if F.domain.contains(x)
                                 else np.clip(x, F.domain.lo, F.domain.hi))

    def visit(block):
        # the rows are states of guarded steps: V takes their floats without the box test
        nonlocal deviation
        for x in block.tolist():
            deviation = max(deviation, abs(V.value_unchecked(x) - v0))

    sample, rows = sample_every(s_max / steps, steps)
    try:
        res = integrate_dopri45(
            rhs,
            0.0,
            x0,
            s_max,
            atol=CHARACTERISTIC_TOL,
            rtol=CHARACTERISTIC_TOL,
            inside=F.domain.contains,
            on_step=sample,
        )
    except Exception:
        # V at each sample before the failing step, so V's error comes first
        visit(rows())
        raise
    visit(rows())
    if res.exited:
        raise OutOfDomainError(
            f"characteristic left the domain at s={res.t:.6g}", res.y
        )
    visit(res.y[None])
    return float(deviation)
