"""Problem file ingestion and validation.

A problem is a JSON document with the exact top-level fields

    dimension   the integer 2 or 3
    constants   name -> number table (optional)
    force       list of component expression strings, one per coordinate
    potentials  optional {"U": expr, "V": expr, "W": expr}, each optional
    domain      per-axis [lo, hi]
    mass        positive number (optional, default 1)
    paths       optional named paths: {"type": "polyline", "vertices":
                [...], "closed": bool?} or {"type": "parametric",
                "components": [expr-in-s, ...], "closed": bool?}
    regions     optional named sample regions: {"box": [[lo,hi],...],
                "plan": {"type": "grid", "counts": [...]} or
                {"type": "random", "count": N, "seed": S}}; counts, N
                and S are integers, S non-negative

Everything is parsed and bound before any command runs; failures raise
ProblemFileError carrying one diagnostic per offending field. Numbers must
be finite: the JSON literals NaN, Infinity and -Infinity, which Python's
JSON reader accepts, and literals beyond the double range are rejected in
mass, constants, domain, region boxes and polyline vertices. A probe
evaluation guards against declared-singular domains: force components are
evaluated at the domain corners and center, potentials at the center only
(potentials are consumed on user-chosen analysis regions, while the force
is evaluated along arbitrary paths and trajectories in the domain).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from . import exprlang
from .darboux import PotentialSet
from .errors import EVAL_ERRORS, CurlkitError, ParseError, ProblemFileError
from .fieldkit import Box, Region, ScalarFieldDef, VectorFieldDef
from .pathwork import ParamPath

_TOP_LEVEL_KEYS = {
    "dimension",
    "constants",
    "force",
    "potentials",
    "domain",
    "mass",
    "paths",
    "regions",
}


@dataclass
class ProblemFile:
    dimension: int
    constants: dict
    force: VectorFieldDef
    potentials: dict          # subset of {"U", "V", "W"} -> ScalarFieldDef
    domain: Box
    mass: float
    paths: dict               # name -> ParamPath
    regions: dict             # name -> Region
    path: str = ""
    raw: bytes = b""

    def potential_set(self):
        missing = [k for k in ("U", "V") if k not in self.potentials]
        if missing:
            raise ProblemFileError(
                f"problem declares no potential {'/'.join(missing)}; "
                "add a 'potentials' entry"
            )
        return PotentialSet(
            U=self.potentials["U"],
            V=self.potentials["V"],
            W=self.potentials.get("W"),
        )

    def scalar_v(self):
        if "V" not in self.potentials:
            raise ProblemFileError("problem declares no potential V")
        return self.potentials["V"]


def _is_finite_number(value):
    # json.loads reads the literals NaN, Infinity and -Infinity, and a float
    # literal beyond the double range, as non-finite floats
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the double range
        return False


def _is_int(value):
    # JSON true and false read as bools, which are ints to Python
    return isinstance(value, int) and not isinstance(value, bool)


def _probe_points(box):
    corners = list(itertools.product(*zip(box.lo, box.hi)))
    center = tuple(0.5 * (a + b) for a, b in zip(box.lo, box.hi))
    return corners, center


def load_problem(path):
    """Read, parse, and fully validate a problem file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ProblemFileError(f"cannot read problem file: {e}")
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProblemFileError(f"problem file is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ProblemFileError("problem file must be a JSON object")

    diags = []
    unknown = sorted(set(doc) - _TOP_LEVEL_KEYS)
    if unknown:
        diags.append(f"unknown top-level fields: {unknown}")

    dimension = doc.get("dimension")
    if not _is_int(dimension) or dimension not in (2, 3):
        diags.append(f"dimension: must be 2 or 3, got {dimension!r}")
        raise ProblemFileError("invalid problem file", diags)

    constants = doc.get("constants", {})
    if not isinstance(constants, dict):
        diags.append("constants: must be a name -> number object")
        constants = {}
    else:
        coords = exprlang.COORDS_2D if dimension == 2 else exprlang.COORDS_3D
        clean = {}
        for name, value in constants.items():
            if name in coords or name in exprlang.FUNCTION_ARITY:
                diags.append(f"constants.{name}: collides with a coordinate or function")
            elif not _is_finite_number(value):
                diags.append(f"constants.{name}: value must be a finite number, got {value!r}")
            else:
                clean[name] = float(value)
        constants = clean

    domain_spec = doc.get("domain")
    box = None
    if (
        not isinstance(domain_spec, list)
        or len(domain_spec) != dimension
        or not all(isinstance(ax, list) and len(ax) == 2 for ax in domain_spec)
    ):
        diags.append(f"domain: must be {dimension} [lo, hi] pairs")
    else:
        try:
            box = Box(tuple(ax[0] for ax in domain_spec), tuple(ax[1] for ax in domain_spec))
        except (TypeError, ValueError, OverflowError) as e:
            diags.append(f"domain: {e}")

    mass = doc.get("mass", 1.0)
    if not _is_finite_number(mass) or mass <= 0:
        diags.append(f"mass: must be a positive finite number, got {mass!r}")
        mass = 1.0

    def parse_expr(source, where, variables=None):
        if not isinstance(source, str):
            diags.append(f"{where}: expected an expression string")
            return None
        try:
            if variables is None:
                return exprlang.parse(source, dimension, set(constants))
            return exprlang.parse_in_variables(source, variables, set(constants))
        except ParseError as e:
            diags.append(f"{where}: {e}")
            return None

    force_spec = doc.get("force")
    force_trees = []
    if not isinstance(force_spec, list) or len(force_spec) != dimension:
        got = len(force_spec) if isinstance(force_spec, list) else force_spec
        diags.append(
            f"force: needs exactly {dimension} component expressions, got {got!r}"
        )
    else:
        for i, src in enumerate(force_spec):
            tree = parse_expr(src, f"force[{i}]")
            if tree is not None:
                force_trees.append(tree)

    potentials_spec = doc.get("potentials", {}) or {}
    potentials = {}
    if not isinstance(potentials_spec, dict):
        diags.append("potentials: must be an object with keys U, V, W")
    else:
        for key in potentials_spec:
            if key not in ("U", "V", "W"):
                diags.append(f"potentials.{key}: unknown key (use U, V, W)")
        for key in ("U", "V", "W"):
            if key in potentials_spec and potentials_spec[key] is not None:
                tree = parse_expr(potentials_spec[key], f"potentials.{key}")
                if tree is not None:
                    potentials[key] = tree

    paths = {}
    for name, spec in (doc.get("paths", {}) or {}).items():
        where = f"paths.{name}"
        if not isinstance(spec, dict) or "type" not in spec:
            diags.append(f"{where}: must be an object with a 'type' field")
            continue
        closed = spec.get("closed")
        if closed is not None and not isinstance(closed, bool):
            diags.append(f"{where}.closed: must be true or false, got {closed!r}")
            continue
        try:
            if spec["type"] == "polyline":
                vertices = spec.get("vertices")
                paths[name] = ParamPath.polyline(vertices, closed=closed)
            elif spec["type"] == "parametric":
                comps = spec.get("components")
                if not isinstance(comps, list) or len(comps) != dimension:
                    diags.append(f"{where}.components: needs {dimension} expressions")
                    continue
                trees = [parse_expr(c, f"{where}.components[{i}]", ("s",)) for i, c in enumerate(comps)]
                if any(t is None for t in trees):
                    continue
                paths[name] = ParamPath(
                    dimension, trees=trees, constants=constants, closed=closed
                )
            else:
                diags.append(f"{where}.type: unknown path type {spec['type']!r}")
        except (CurlkitError, ValueError, TypeError, OverflowError) as e:
            diags.append(f"{where}: {e}")

    regions = {}
    for name, spec in (doc.get("regions", {}) or {}).items():
        where = f"regions.{name}"
        if not isinstance(spec, dict):
            diags.append(f"{where}: must be an object")
            continue
        rbox_spec = spec.get("box")
        plan = spec.get("plan")
        try:
            rbox = Box(
                tuple(ax[0] for ax in rbox_spec), tuple(ax[1] for ax in rbox_spec)
            )
        except (TypeError, ValueError, IndexError, OverflowError) as e:
            diags.append(f"{where}.box: {e}")
            continue
        if box is not None and not box.contains_box(rbox):
            diags.append(f"{where}.box: not contained in the problem domain")
            continue
        if not isinstance(plan, dict) or "type" not in plan:
            diags.append(f"{where}.plan: must be an object with a 'type'")
            continue
        try:
            if plan["type"] == "grid":
                counts = plan.get("counts", [])
                if isinstance(counts, list) and all(map(_is_int, counts)):
                    regions[name] = Region.grid(rbox, counts)
                else:
                    diags.append(f"{where}.plan.counts: must be a list of integers, got {counts!r}")
            elif plan["type"] == "random":
                count, seed = plan.get("count", 0), plan.get("seed", 0)
                count_ok, seed_ok = _is_int(count), _is_int(seed) and seed >= 0
                if not count_ok:
                    diags.append(f"{where}.plan.count: must be an integer, got {count!r}")
                if not seed_ok:
                    diags.append(f"{where}.plan.seed: must be a non-negative integer, got {seed!r}")
                if count_ok and seed_ok:
                    regions[name] = Region.random(rbox, count, seed)
            else:
                diags.append(f"{where}.plan.type: unknown plan {plan['type']!r}")
        except (ValueError, TypeError) as e:
            diags.append(f"{where}.plan: {e}")

    if diags or box is None or len(force_trees) != dimension:
        raise ProblemFileError("invalid problem file", diags)

    force = VectorFieldDef(dimension, force_trees, constants, box)
    potential_fields = {
        k: ScalarFieldDef(dimension, t, constants, box) for k, t in potentials.items()
    }

    # probe evaluation: force at corners and center, potentials at center;
    # the components one by one only if the force fails, for their diagnostics
    corners, center = _probe_points(box)
    try:
        for p in corners + [center]:
            force.value(p)
    except EVAL_ERRORS:
        for i, comp in enumerate(force.components):
            for p in corners + [center]:
                try:
                    comp.value(p)
                except CurlkitError as e:
                    diags.append(f"force[{i}]: probe at {p} failed: {e}")
                    break
    for key, f in potential_fields.items():
        try:
            f.value(center)
        except CurlkitError as e:
            diags.append(f"potentials.{key}: probe at domain center failed: {e}")
    if diags:
        raise ProblemFileError("problem file failed probe validation", diags)

    return ProblemFile(
        dimension=dimension,
        constants=constants,
        force=force,
        potentials=potential_fields,
        domain=box,
        mass=float(mass),
        paths=paths,
        regions=regions,
        path=str(path),
        raw=raw,
    )
