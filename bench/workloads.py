"""Workloads: problem files generated from a seed, the command list of one
pass, and a closed-form reference check for every command.

The seed only jitters inputs inside narrow ranges (start points, the
circle's centre and radius, the rectangle's corners, the triangle, the
sample-plan seeds), so the work of a pass changes by a few percent between
seeds while every reference stays exact. curlkit sees nothing but the
problem files and the argv of each command.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("region-sweep", "trajectory", "path-work")

# Sizes of one pass; see README.md for how they were chosen.
SWEEP_SAMPLES = 1000       # Berry-field region for classify/verify/vpde/gauge
SWEEP_SAMPLES_3D = 200     # chiral and triple-product classify
DECOMPOSE_SAMPLES = 40
RK4_STEP = 2.5e-3
TRACE_STEPS = 1024         # recorded points per direction of trace2d
REACH_STEPS = 1024

# Reference tolerances. Residual bounds come from the round-off of the
# closed forms at the sampled magnitudes; integration bounds from the
# integrator tolerances each command runs with.
TOL_VERIFY = 1e-12
TOL_VPDE = 1e-10
TOL_CURL_FC = 1e-6
TOL_CHARACTERISTIC = 1e-8
TOL_WORK = 1e-9
TOL_TRACE = 1e-6
TOL_MANEUVER_WORK = 1e-10
TOL_ENERGY_RK4 = 1e-8
TOL_ENERGY_DOPRI = 1e-8
TOL_AUX_DRIFT = 1e-6
TOL_H0 = 1e-12

BERRY_FORCE = ["-x*y^2", "-x^3"]
BERRY_U = "-(1/x + 1/y)"
BERRY_V = "x^3*y^2"
BERRY_DOMAIN = [[0.05, 5.0], [0.05, 5.0]]
TRIPLE_FORCE = ["-(y*z)", "-(2*x*z)", "-(x*y)"]
TRIPLE_DOMAIN = [[0.05, 10.0]] * 3
CHIRAL_FORCE = ["y", "0", "1"]
CHIRAL_DOMAIN = [[-2.0, 2.0]] * 3
V0 = (0.1, -0.1)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its report.

    ``check(report, earlier)`` returns failure messages; ``earlier`` maps
    the labels of commands already run in the same pass to their reports.
    """

    label: str
    argv: tuple
    check: Callable[[dict, dict], list]

    @property
    def out(self):
        return Path(self.argv[self.argv.index("--out") + 1])


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict      # file name -> bytes
    commands: tuple  # of Command

    def write_files(self, workdir):
        for name, data in self.files.items():
            (Path(workdir) / name).write_bytes(data)

    @property
    def problem_files(self):
        return sorted(self.files)


# --- closed-form references ---------------------------------------------------

def berry_u(x, y):
    return -(1.0 / x + 1.0 / y)


def berry_circle_work(cx, cy, r):
    """Counterclockwise work of (-x y^2, -x^3) around a circle: the integral
    of curl = -3x^2 + 2xy over the disc."""
    return math.pi * r * r * (2.0 * cx * cy - 3.0 * cx * cx) - 0.75 * math.pi * r**4


def berry_rectangle_work(a, b, c, d):
    """Counterclockwise work around [a, b] x [c, d]."""
    return -(b**3 - a**3) * (d - c) + (b * b - a * a) * (d * d - c * c) / 2.0


def _triple_force(p):
    x, y, z = p
    return (-y * z, -2.0 * x * z, -x * y)


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def _cross(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def triple_loop_work(verts):
    """Line work of -(yz, 2xz, xy) around a closed polygon; Simpson's rule
    is exact on each edge because the integrand is quadratic."""
    total = 0.0
    for p, q in zip(verts, verts[1:] + verts[:1]):
        mid = tuple(0.5 * (a + b) for a, b in zip(p, q))
        edge = _sub(q, p)
        fp, fm, fq = _triple_force(p), _triple_force(mid), _triple_force(q)
        total += sum((a + 4.0 * b + c) / 6.0 * e for a, b, c, e in zip(fp, fm, fq, edge))
    return total


def triple_triangle_stokes(a, b, c):
    """Flux of curl F = (x, 0, -z) through the triangle: the curl is linear,
    so it is its centroid value dotted with the area vector."""
    area = tuple(0.5 * v for v in _cross(_sub(b, a), _sub(c, a)))
    g = tuple((u + v + w) / 3.0 for u, v, w in zip(a, b, c))
    return _dot((g[0], 0.0, -g[2]), area)


# --- check helpers --------------------------------------------------------------

def _at_most(name, value, bound):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and abs(value) <= bound):
        return [f"{name} = {value!r} exceeds {bound:g}"]
    return []


def _close(name, value, target, tol):
    if not (isinstance(value, (int, float)) and abs(value - target) <= tol):
        return [f"{name} = {value!r}, reference {target!r} (tol {tol:g})"]
    return []


def _equals(name, value, expected):
    return [] if value == expected else [f"{name} = {value!r}, expected {expected!r}"]


def _finite(name, value):
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return [f"{name} = {value!r} is not finite"]
    return []


# --- problem documents --------------------------------------------------------------

def _dump(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _berry_doc(**extra):
    doc = {
        "dimension": 2,
        "force": BERRY_FORCE,
        "potentials": {"U": BERRY_U, "V": BERRY_V},
        "domain": BERRY_DOMAIN,
    }
    doc.update(extra)
    return doc


def _triple_doc(**extra):
    doc = {
        "dimension": 3,
        "force": TRIPLE_FORCE,
        "potentials": {"V": "y"},
        "domain": TRIPLE_DOMAIN,
    }
    doc.update(extra)
    return doc


def _jitter(rng, centre, half_width, digits=6):
    return round(centre + rng.uniform(-half_width, half_width), digits)


def _pt(values):
    return ",".join(repr(float(v)) for v in values)


class _Builder:
    def __init__(self, name, seed, workdir):
        self.rng = random.Random(f"curlkit-bench:{name}:{seed}")
        self.workdir = Path(workdir)
        self.files = {}
        self.commands = []

    def file(self, name, doc):
        self.files[name] = _dump(doc)
        return str(self.workdir / name)

    def add(self, label, command, problem, *args, check):
        out = str(self.workdir / f"{label}.json")
        argv = (command, problem, "--out", out) + tuple(str(a) for a in args)
        self.commands.append(Command(label, argv, check))


def _region_sweep(b):
    seed = b.rng.randrange(1, 10**6)
    gauge_seed = b.rng.randrange(1, 10**6)
    berry = b.file("berry.json", _berry_doc(regions={
        "sweep": {"box": BERRY_DOMAIN,
                  "plan": {"type": "random", "count": SWEEP_SAMPLES, "seed": seed}},
        # exp(U) stays above the gauge floor (1e-12) only away from the axes
        "gauge": {"box": [[0.2, 5.0], [0.2, 5.0]],
                  "plan": {"type": "random", "count": SWEEP_SAMPLES, "seed": gauge_seed}},
    }))
    chiral = b.file("chiral.json", {"dimension": 3, "force": CHIRAL_FORCE, "domain": CHIRAL_DOMAIN})
    triple = b.file("triple.json", _triple_doc())
    s3 = ("--samples", SWEEP_SAMPLES_3D)

    b.add("classify", "classify", berry, "--region", "sweep",
          check=lambda r, e: _equals("class", r["results"]["class"], "two-potential"))
    b.add("verify", "verify", berry, "--region", "sweep",
          check=lambda r, e: _at_most("max residual", r["results"]["max"], TOL_VERIFY))
    b.add("vpde", "vpde", berry, "--region", "sweep",
          check=lambda r, e: _at_most("max residual", r["results"]["max"], TOL_VPDE))
    b.add("gauge", "gauge", berry, "--region", "gauge", "--f", "exp(u)",
          check=lambda r, e: _at_most("max residual after gauge",
                                      r["results"]["residual_after"]["max"], TOL_VERIFY))
    b.add("classify-chiral", "classify", chiral, *s3, "--seed", b.rng.randrange(1, 10**6),
          check=lambda r, e: _equals("class", r["results"]["class"], "chiral three-potential"))
    b.add("classify-fd", "classify", triple, "--mode", "fd", *s3,
          "--seed", b.rng.randrange(1, 10**6),
          check=lambda r, e: _equals("class", r["results"]["class"], "two-potential"))
    b.add("decompose3d", "decompose3d", triple, "--v", "y", "--samples", DECOMPOSE_SAMPLES,
          "--seed", b.rng.randrange(1, 10**6),
          check=lambda r, e: _at_most("curl_f_c", r["results"]["curl_f_c"]["max"], TOL_CURL_FC))


def _trajectory(b):
    x0 = (_jitter(b.rng, 1.0, 0.02), _jitter(b.rng, 1.0, 0.02))
    h0 = 0.5 * (V0[0] ** 2 + V0[1] ** 2) + berry_u(*x0)
    berry = b.file("berry.json", _berry_doc(regions={
        "aux": {"box": [[0.1, 4.0], [0.1, 4.0]], "plan": {"type": "grid", "counts": [12, 12]}},
    }))
    sim = ("--x0", _pt(x0), "--v0", _pt(V0), "--t-end", 2)

    def energy(bound):
        return lambda r, e: _at_most(
            "work-energy residual", r["results"]["work_energy_residual"], bound
        )

    def aux_check(r, e):
        res = r["results"]
        return _close("H0", res["H0"], h0, TOL_H0) + _at_most("drift", res["drift"], TOL_AUX_DRIFT)

    def nonlocal_check(r, e):
        res = r["results"]
        return _close("H0", res["H0"], h0, TOL_H0) + _finite("drift", res["drift"])

    b.add("simulate-rk4", "simulate", berry, *sim, "--integrator", "rk4", "--h", RK4_STEP,
          check=energy(TOL_ENERGY_RK4))
    b.add("simulate-dopri45", "simulate", berry, *sim, "--rtol", 1e-11, "--atol", 1e-11,
          "--record-dt", 1e-3, check=energy(TOL_ENERGY_DOPRI))
    b.add("auxiliary", "auxiliary", berry, *sim, "--region", "aux", check=aux_check)
    b.add("nonlocal-h", "nonlocal-h", berry, *sim, "--region", "aux", "--refine", 4,
          check=nonlocal_check)


def _path_work(b):
    rng = b.rng
    cx, cy, r = _jitter(rng, 2.0, 0.05), _jitter(rng, 2.0, 0.05), _jitter(rng, 0.8, 0.05)
    a, bb = _jitter(rng, 1.0, 0.05), _jitter(rng, 2.0, 0.05)
    c, d = _jitter(rng, 1.0, 0.05), _jitter(rng, 2.5, 0.05)
    rect = [[a, c], [bb, c], [bb, d], [a, d], [a, c]]
    tri = [
        tuple(_jitter(rng, v, 0.05) for v in corner)
        for corner in ((1.0, 1.0, 1.0), (2.0, 1.2, 1.5), (1.3, 2.1, 1.8))
    ]
    berry = b.file("berry.json", _berry_doc(
        constants={"cx": cx, "cy": cy, "r": r, "tau": 2.0 * math.pi},
        paths={
            "circle": {"type": "parametric", "closed": True,
                       "components": ["cx + r*cos(tau*s)", "cy + r*sin(tau*s)"]},
            "rect": {"type": "polyline", "closed": True, "vertices": rect},
        },
    ))
    triple = b.file("triple.json", _triple_doc(paths={
        "tri": {"type": "polyline", "closed": True,
                "vertices": [list(v) for v in tri + tri[:1]]},
    }))

    # the zero-work curve through x0 is the level set 1/x + 1/y = k of U
    x0 = (_jitter(rng, 1.0, 0.05), _jitter(rng, 1.0, 0.05))
    k = -berry_u(*x0)
    on_curve = [(xt, 1.0 / (k - 1.0 / xt)) for xt in (1.3, 0.8)]
    off_curve = [(x0[0] + 0.3, x0[1] + 0.3)]
    targets = ";".join(_pt(t) for t in on_curve + off_curve)
    expected = [True] * len(on_curve) + [False] * len(off_curve)
    x3 = tuple(_jitter(rng, 1.0, 0.05) for _ in range(3))
    circle_ref = berry_circle_work(cx, cy, r)
    rect_ref = berry_rectangle_work(a, bb, c, d)
    tri_ref = triple_triangle_stokes(*tri)
    tri_line = triple_loop_work(tri)
    if abs(tri_ref - tri_line) > 1e-12 * max(1.0, abs(tri_ref)):
        raise AssertionError("closed-form Stokes and line work of the triangle disagree")

    def trace_check(rep, e):
        res = rep["results"]
        return _at_most("|work|", res["work"], TOL_TRACE) + _at_most(
            "U deviation", res["u_deviation"], TOL_TRACE
        )

    def reach_check(rep, e):
        got = [v["reachable"] for v in rep["results"]["verdicts"]]
        return _equals("verdicts", got, expected)

    def tri_work_check(rep, e):
        value = rep["results"]["value"]
        fails = _close("triangle line work", value, tri_ref, TOL_WORK)
        if "stokes-tri" in e:
            fails += _close("line work - Stokes work", value,
                            e["stokes-tri"]["results"]["value"], TOL_WORK)
        return fails

    b.add("trace2d", "trace2d", berry, "--x0", _pt(x0), "--arclength", 1,
          "--steps", TRACE_STEPS, check=trace_check)
    b.add("reach2d", "reach2d", berry, "--x0", _pt(x0), "--targets", targets,
          "--steps", REACH_STEPS, check=reach_check)
    b.add("work-circle", "work", berry, "--path", "circle",
          check=lambda rep, e: _close("circle work", rep["results"]["value"], circle_ref, TOL_WORK))
    b.add("stokes-rect", "stokes", berry, "--path", "rect",
          check=lambda rep, e: _close("rectangle work", rep["results"]["value"], rect_ref, TOL_WORK))
    b.add("characteristics", "characteristics", triple, "--v", "y", "--x0", _pt(x3),
          "--s-max", 2,
          check=lambda rep, e: _at_most("deviation", rep["results"]["deviation"], TOL_CHARACTERISTIC))
    b.add("maneuver3d", "maneuver3d", triple, "--x0", _pt(x3), "--eps", 0.1,
          check=lambda rep, e: _at_most("|work|", rep["results"]["work"], TOL_MANEUVER_WORK))
    b.add("stokes-tri", "stokes", triple, "--path", "tri",
          check=lambda rep, e: _close("triangle Stokes work", rep["results"]["value"], tri_ref, TOL_WORK))
    b.add("work-tri", "work", triple, "--path", "tri", check=tri_work_check)


_BUILDERS = {"region-sweep": _region_sweep, "trajectory": _trajectory, "path-work": _path_work}


def build(name, seed, workdir):
    """The workload ``name`` for ``seed``; its files belong in ``workdir``."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r} (have: {', '.join(WORKLOADS)})")
    b = _Builder(name, seed, workdir)
    _BUILDERS[name](b)
    return Workload(name, dict(b.files), tuple(b.commands))
