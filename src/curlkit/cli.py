"""Command-line interface: problem ingestion, dispatch, report emission.

Every command reads one problem file, runs one analysis, writes a JSON
run report to --out, and writes any series as CSV files next to the
report (same stem, suffixed).

The problem file and --out are the only options all commands share. The
region commands (classify, verify, vpde, gauge, decompose3d) also share
--region, --seed and --samples: without --region they sample --samples
random points of the domain from --seed. classify, verify and vpde take
--mode; auxiliary and nonlocal-h require --region. simulate, auxiliary
and nonlocal-h share the integrator options; nonlocal-h also takes
--refine, the number of equal intervals each recorded piece of a step is
cut into, on which it accumulates the auxiliary Hamiltonian. A command
accepts no option it does not read.

Exit codes: 0 success, 1 usage error (including an option the command
does not take and a parameter the analysis rejects, such as an rk4 --h
that would need more steps than the step cap), 2 input error, 3
numerical failure (domain exit, rescaling floor, non-convergence, more
recorded rows than the step cap, a non-finite number in the report), 4
assertion failure.

Reports are deterministic for fixed inputs and seeds: the inputs digest
is a SHA-256 over the problem file bytes and the canonicalized command
parameters; the timestamp field is informational and not part of the
digest. CSV numbers carry 17 significant digits and round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, accessibility, auxiliary, darboux, dynamics, exprlang, fieldkit, pathwork
from .errors import (
    DimensionMismatchError,
    EvalDomainError,
    NumericalError,
    OutOfDomainError,
    ParseError,
    ProblemFileError,
)
from .problemfile import load_problem

try:
    # the builtin SHA-256 spares every run the OpenSSL library that hashlib
    # loads (about 3.6 MB resident), as the standard random module does
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # its name from Python 3.12 on
    except ImportError:  # not built
        from hashlib import sha256

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_ASSERTION = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# --- serialization helpers ---------------------------------------------------

def write_csv(path, header, rows):
    """CSV with a header row, comma separator, '.' decimals, LF endings,
    17 significant digits; an empty series yields a header-only file. A
    float prints as f"{v:.17g}", anything else as str(v): an int keeps every digit."""
    lines = [",".join(header)]
    formats = {}  # the line format of each tuple of value types met
    for row in map(tuple, rows):
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = ",".join("%.17g" if issubclass(k, float) else "%s" for k in kinds)
        lines.append(formats[kinds] % row)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _axis_names(dim):
    return ["x", "y", "z"][:dim]


def emit_series(series, path):
    """Write a known series type as CSV; columns are documented per type.
    Rows are built from ``tolist()``: Python floats format faster than
    NumPy scalars, and ``%.17g`` prints both alike."""
    if isinstance(series, dynamics.Trajectory):
        dim = series.x.shape[1]
        header = (
            ["t"]
            + _axis_names(dim)
            + [f"v{a}" for a in _axis_names(dim)]
            + ["K", "Wcum"]
        )
        rows = (
            [t, *x, *v, k, w]
            for t, x, v, k, w in zip(
                series.t.tolist(), series.x.tolist(), series.v.tolist(),
                series.kinetic.tolist(), series.work.tolist()
            )
        )
        write_csv(path, header, rows)
    elif isinstance(series, auxiliary.AuxiliarySeries):
        header = ["t"] + _axis_names(series.x.shape[1]) + ["H"]
        rows = ([t, *x, h] for t, x, h in zip(series.t.tolist(), series.x.tolist(),
                                             series.H.tolist()))
        write_csv(path, header, rows)
    elif isinstance(series, pathwork.ParamPath) and series.is_polyline:
        verts = series.vertices
        dim = verts.shape[1]
        s = np.zeros(len(verts))
        if len(verts) > 1:
            s[1:] = np.cumsum(np.linalg.norm(np.diff(verts, axis=0), axis=1))
        rows = ([si, *v] for si, v in zip(s.tolist(), verts.tolist()))
        write_csv(path, ["s"] + _axis_names(dim), rows)
    elif isinstance(series, np.ndarray) and series.ndim == 2:
        write_csv(path, ["i"] + _axis_names(series.shape[1]),
                  ([i, *row] for i, row in enumerate(series.tolist())))
    else:
        raise TypeError(f"no CSV emitter for {type(series).__name__}")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# --- report assembly ----------------------------------------------------------

def _digest(problem, command, parameters):
    canon = json.dumps(
        {"command": command, "parameters": _json_ready(parameters)},
        sort_keys=True,
        separators=(",", ":"),
    )
    h = sha256()
    h.update(problem.raw)
    h.update(b"\x00")
    h.update(canon.encode("utf-8"))
    return h.hexdigest()


class Run:
    """Collects results, artifacts, and assertion outcomes for one command."""

    def __init__(self, args, problem):
        self.command = args.command
        self.problem = problem
        self.out = Path(args.out if args.out else f"{args.command}.json")
        skip = {"command", "out", "problem", "handler"}
        self.parameters = {
            k: v for k, v in sorted(vars(args).items()) if k not in skip
        }
        self.results = {}
        self.artifacts = {}
        self.assertions = []
        self._writes = []

    def artifact_path(self, kind):
        return self.out.with_name(f"{self.out.stem}_{kind}.csv")

    def emit(self, kind, series):
        self.emit_with(kind, lambda path: emit_series(series, path))

    def emit_with(self, kind, write):
        """Queue ``write(path)`` for the artifact; finish calls it only once
        the report is known to serialize, so a refused run writes nothing."""
        path = self.artifact_path(kind)
        self._writes.append(lambda: write(path))
        self.artifacts[kind] = str(path)

    def check(self, name, value, threshold, kind="max"):
        """kind 'max': pass iff value <= threshold; 'abs-diff': threshold is
        (target, tol) and pass iff |value - target| <= tol."""
        if threshold is None:
            return
        if kind == "abs-diff":
            target, tol = threshold
            passed = abs(value - target) <= tol
            self.assertions.append(
                {
                    "name": name,
                    "value": value,
                    "target": target,
                    "tolerance": tol,
                    "passed": bool(passed),
                }
            )
        elif kind == "equals":
            passed = value == threshold
            self.assertions.append(
                {"name": name, "value": value, "expected": threshold, "passed": bool(passed)}
            )
        else:
            passed = value <= threshold
            self.assertions.append(
                {"name": name, "value": value, "threshold": threshold, "passed": bool(passed)}
            )

    def finish(self):
        passed = all(a["passed"] for a in self.assertions)
        report = {
            "command": self.command,
            "tool": {"name": "curlkit", "version": __version__},
            "problem": self.problem.path,
            "inputs_digest": _digest(self.problem, self.command, self.parameters),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "parameters": _json_ready(self.parameters),
            "results": _json_ready(self.results),
            "artifacts": self.artifacts,
            "assertions": _json_ready(self.assertions),
            "passed": bool(passed),
        }
        try:
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:
            raise NumericalError("run report holds a non-finite number") from None
        self.out.parent.mkdir(parents=True, exist_ok=True)
        for write in self._writes:
            write()
        with open(self.out, "w") as fh:
            fh.write(text + "\n")
        return EXIT_OK if passed else EXIT_ASSERTION


# --- argument helpers -----------------------------------------------------------

def _vector(text, dim, what):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"{what}: expected comma-separated numbers, got {text!r}")
    if len(parts) != dim:
        raise UsageError(f"{what}: expected {dim} components, got {len(parts)}")
    return np.array(parts)


def _region(args, problem):
    if args.region:
        try:
            return problem.regions[args.region]
        except KeyError:
            raise ProblemFileError(
                f"region {args.region!r} not declared (have: {sorted(problem.regions)})"
            )
    return fieldkit.Region.random(problem.domain, args.samples, args.seed)


def _path(args, problem):
    try:
        return problem.paths[args.path]
    except KeyError:
        raise ProblemFileError(
            f"path {args.path!r} not declared (have: {sorted(problem.paths)})"
        )


def _scalar_field(problem, source, what):
    try:
        tree = exprlang.parse(source, problem.dimension, set(problem.constants))
    except ParseError as e:
        raise ProblemFileError(f"{what}: {e}")
    return fieldkit.ScalarFieldDef(
        problem.dimension, tree, problem.constants, problem.domain
    )


def _v_field(args, problem):
    if args.v:
        return _scalar_field(problem, args.v, "--v")
    return problem.scalar_v()


def _sim_config(args, problem, refine=1):
    t_end = args.t_end
    return dynamics.SimConfig(
        mass=args.mass if args.mass is not None else problem.mass,
        integrator=args.integrator,
        t_end=t_end,
        atol=args.atol,
        rtol=args.rtol,
        h_max=args.h_max,
        h=args.h,
        record_dt=args.record_dt,
        refine=refine,
    )


# --- command handlers -------------------------------------------------------------

def cmd_classify(args, problem):
    run = Run(args, problem)
    region = _region(args, problem)
    rep = darboux.classify(problem.force, region, mode=args.mode)
    run.results = {
        "class": rep.canonical_class,
        "curl_statistic": rep.curl_statistic,
        "helicity_statistic": rep.helicity_statistic,
        "sample_count": rep.sample_count,
        "thresholds": {
            "conservative": darboux.CONSERVATIVE_THRESHOLD,
            "chiral": darboux.CHIRAL_THRESHOLD,
        },
    }
    run.check("class", rep.canonical_class, args.assert_class, kind="equals")
    return run.finish()


def cmd_verify(args, problem):
    run = Run(args, problem)
    region = _region(args, problem)
    rep = darboux.verify_representation(
        problem.force, problem.potential_set(), region, mode=args.mode
    )
    run.results = rep.to_dict()
    run.check("max_residual", rep.max, args.assert_residual)
    return run.finish()


def cmd_vpde(args, problem):
    run = Run(args, problem)
    region = _region(args, problem)
    rep = darboux.vpde_residual(problem.force, _v_field(args, problem), region, mode=args.mode)
    run.results = rep.to_dict()
    run.check("max_residual", rep.max, args.assert_residual)
    return run.finish()


def cmd_gauge(args, problem):
    run = Run(args, problem)
    region = _region(args, problem)
    try:
        f_tree = exprlang.parse_in_variables(args.f, ("u",))
    except ParseError as e:
        raise ProblemFileError(f"--f: {e}")
    pots = problem.potential_set()
    before = darboux.verify_representation(problem.force, pots, region)
    transformed = darboux.gauge_transform(pots, f_tree, region=region)
    after = darboux.verify_representation(problem.force, transformed, region)
    run.results = {
        "gauge": args.f,
        "u_prime": exprlang.to_source(transformed.U.tree),
        "v_prime": exprlang.to_source(transformed.V.tree),
        "residual_before": before.to_dict(),
        "residual_after": after.to_dict(),
    }
    run.check("max_residual_after", after.max, args.assert_residual)
    return run.finish()


def cmd_decompose3d(args, problem):
    if problem.dimension != 3:
        raise ProblemFileError("decompose3d needs a 3D problem")
    run = Run(args, problem)
    region = _region(args, problem)
    V = _v_field(args, problem)
    dec = darboux.decompose3d(problem.force, V, region)
    run.results = {
        name: rep.to_dict() for name, rep in dec.diagnostics.items()
    }
    pts = region.samples()
    header = (
        ["x", "y", "z"]
        + [f"gradU_{a}" for a in "xyz"]
        + [f"Fc_{a}" for a in "xyz"]
        + [f"Fnc_{a}" for a in "xyz"]
    )
    rows = np.hstack([pts, dec.grad_u(pts), dec.f_c(pts), dec.f_nc(pts)])
    run.emit_with("samples", lambda path: write_csv(path, header, rows))
    run.check("curl_f_c", dec.diagnostics["curl_f_c"].max, args.assert_curl_fc)
    return run.finish()


def cmd_characteristics(args, problem):
    if problem.dimension != 3:
        raise ProblemFileError("characteristics are traced for 3D problems")
    run = Run(args, problem)
    x0 = _vector(args.x0, 3, "--x0")
    V = _v_field(args, problem)
    dev = darboux.characteristic_deviation(
        problem.force, V, x0, args.s_max, steps=args.steps
    )
    run.results = {"deviation": dev, "s_max": args.s_max, "x0": list(x0)}
    run.check("deviation", dev, args.assert_deviation)
    if args.assert_deviation_min is not None:
        run.check("deviation_at_least", -dev, -args.assert_deviation_min)
    return run.finish()


def cmd_simulate(args, problem):
    run = Run(args, problem)
    dim = problem.dimension
    x0 = _vector(args.x0, dim, "--x0")
    v0 = _vector(args.v0, dim, "--v0")
    traj = dynamics.integrate(problem.force, x0, v0, _sim_config(args, problem))
    resid = dynamics.work_energy_residual(traj)
    run.results = {
        "t_final": traj.t[-1],
        "samples": len(traj),
        "exited": traj.exited,
        "exit_state": None
        if traj.exit_state is None
        else {"t": traj.exit_state[0], "x": list(traj.exit_state[1])},
        "work_energy_residual": resid,
        "stats": {
            "steps": traj.stats.n_steps,
            "rejected": traj.stats.n_rejected,
            "field_evaluations": traj.stats.n_fev,
        },
    }
    run.emit("trajectory", traj)
    run.check("work_energy_residual", resid, args.assert_energy_residual)
    return run.finish()


def cmd_work(args, problem):
    run = Run(args, problem)
    res = pathwork.line_work(problem.force, _path(args, problem))
    run.results = {
        "value": res.value,
        "error_estimate": res.error_estimate,
        "segments": res.segments,
    }
    if args.assert_value is not None:
        run.check("value", res.value, (args.assert_value, args.tol), kind="abs-diff")
    return run.finish()


def cmd_stokes(args, problem):
    run = Run(args, problem)
    res = pathwork.stokes_work(problem.force, _path(args, problem))
    run.results = {
        "value": res.value,
        "error_estimate": res.error_estimate,
        "triangles": res.segments,
    }
    if args.assert_value is not None:
        run.check("value", res.value, (args.assert_value, args.tol), kind="abs-diff")
    return run.finish()


def _auxiliary_problem(args, problem):
    return auxiliary.AuxiliaryProblem(
        F=problem.force,
        potentials=problem.potential_set(),
        mass=args.mass if args.mass is not None else problem.mass,
        region=_region(args, problem),
        rep_tol=args.rep_tol,
    )


def cmd_auxiliary(args, problem):
    run = Run(args, problem)
    prob = _auxiliary_problem(args, problem)
    dim = problem.dimension
    x0 = _vector(args.x0, dim, "--x0")
    v0 = _vector(args.v0, dim, "--v0")
    traj, drift = auxiliary.auxiliary_trajectory(prob, x0, v0, _sim_config(args, problem))
    h0 = auxiliary.auxiliary_hamiltonian(x0, prob.mass * v0, prob.potentials.U, prob.mass)
    run.results = {"H0": h0, "drift": drift, "exited": traj.exited, "samples": len(traj)}
    run.emit("trajectory", traj)
    run.check("drift", drift, args.assert_drift)
    return run.finish()


def cmd_nonlocal_h(args, problem):
    run = Run(args, problem)
    prob = _auxiliary_problem(args, problem)
    dim = problem.dimension
    x0 = _vector(args.x0, dim, "--x0")
    v0 = _vector(args.v0, dim, "--v0")
    cfg = _sim_config(args, problem, refine=args.refine)
    series = auxiliary.nonlocal_hamiltonian_series(prob, x0, v0, cfg)
    run.results = {
        "H0": series.H[0],
        "drift": series.drift,
        "samples": len(series.t),
        "trajectory_exited": series.exited,
    }
    run.emit("series", series)
    run.check("drift", series.drift, args.assert_drift)
    return run.finish()


def cmd_trace2d(args, problem):
    if problem.dimension != 2:
        raise ProblemFileError("trace2d needs a 2D problem")
    run = Run(args, problem)
    x0 = _vector(args.x0, 2, "--x0")
    trace = accessibility.zero_work_trace_2d(
        problem.force, x0, args.arclength, steps=args.steps
    )
    work = pathwork.line_work(problem.force, trace)
    run.results = {
        "points": len(trace.vertices),
        "work": work.value,
        "work_error_estimate": work.error_estimate,
    }
    if "U" in problem.potentials:
        U = problem.potentials["U"]
        u0 = U.value(x0)
        run.results["u_deviation"] = float(np.max(np.abs(U.values(trace.vertices) - u0)))
    run.emit("trace", trace)
    run.check("work", abs(work.value), args.assert_work)
    return run.finish()


def cmd_reach2d(args, problem):
    if problem.dimension != 2:
        raise ProblemFileError("reach2d needs a 2D problem")
    run = Run(args, problem)
    x0 = _vector(args.x0, 2, "--x0")
    targets = [
        _vector(part, 2, "--targets") for part in args.targets.split(";") if part
    ]
    verdicts = accessibility.reachability_report_2d(
        problem.force,
        x0,
        targets,
        delta=args.delta,
        arclength=args.arclength,
        steps=args.steps,
    )
    run.results = {
        "delta": args.delta
        if args.delta is not None
        else 1e-4 * problem.domain.diameter(),
        "verdicts": [
            {
                "target": list(v.target),
                "distance": v.distance,
                "reachable": v.reachable,
            }
            for v in verdicts
        ],
    }
    return run.finish()


def cmd_maneuver3d(args, problem):
    if problem.dimension != 3:
        raise ProblemFileError("maneuver3d needs a 3D problem")
    run = Run(args, problem)
    x0 = _vector(args.x0, 3, "--x0")
    res = accessibility.bracket_maneuver_3d(problem.force, x0, args.eps)
    run.results = {
        "endpoint": list(res.endpoint),
        "net_displacement": list(res.net_displacement),
        "transverse": res.transverse,
        "work": res.work,
        "eps": res.eps,
    }
    run.emit("path", res.path)
    run.check("work", abs(res.work), args.assert_work)
    return run.finish()


# --- parser ------------------------------------------------------------------------

def build_parser():
    parser = _Parser(
        prog="curlkit",
        description="Force-field classification, dynamics, and work analysis.",
    )
    parser.add_argument("--version", action="version", version=f"curlkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("problem", help="problem file (JSON)")
    common.add_argument("--out", help="report path (default <command>.json)")

    sampled = _Parser(add_help=False)
    sampled.add_argument("--region", help="named region from the problem file")
    sampled.add_argument("--seed", type=int, default=0, help="seed for default sampling")
    sampled.add_argument("--samples", type=int, default=200, help="default sample count")

    mode = _Parser(add_help=False)
    mode.add_argument("--mode", choices=("analytic", "fd"), default="analytic",
                      help="derivative mode for field operators")

    aux = _Parser(add_help=False)
    aux.add_argument("--region", required=True,
                     help="named region from the problem file: the working region "
                          "that validates the potentials and calibrates the V floor")
    aux.add_argument("--rep-tol", type=float, default=1e-8, dest="rep_tol")

    sim = _Parser(add_help=False)
    sim.add_argument("--x0", required=True, help="initial position, comma-separated")
    sim.add_argument("--v0", required=True, help="initial velocity, comma-separated")
    sim.add_argument("--t-end", type=float, required=True, dest="t_end")
    sim.add_argument("--mass", type=float, default=None, help="override problem mass")
    sim.add_argument("--integrator", choices=("dopri45", "rk4"), default="dopri45")
    sim.add_argument("--h", type=float, default=1e-3, help="rk4 step")
    sim.add_argument("--atol", type=float, default=1e-9)
    sim.add_argument("--rtol", type=float, default=1e-9)
    sim.add_argument("--h-max", type=float, default=None, dest="h_max")
    sim.add_argument("--record-dt", type=float, default=None, dest="record_dt",
                     help="subdivide steps to at most this output spacing")

    p = sub.add_parser("classify", parents=[common, sampled, mode],
                       help="canonical class of the force field")
    p.add_argument("--assert-class", dest="assert_class",
                   choices=("conservative", "two-potential", "chiral three-potential"))
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify", parents=[common, sampled, mode],
                       help="residual of F + V grad U (+ grad W)")
    p.add_argument("--assert-residual", type=float, dest="assert_residual")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("vpde", parents=[common, sampled, mode],
                       help="residual of grad(V) x F - V curl F")
    p.add_argument("--v", help="candidate V expression (default: problem potential V)")
    p.add_argument("--assert-residual", type=float, dest="assert_residual")
    p.set_defaults(handler=cmd_vpde)

    p = sub.add_parser("gauge", parents=[common, sampled],
                       help="apply (U,V) -> (f(U), V/f'(U)) and re-verify")
    p.add_argument("--f", required=True, help="gauge function, expression in u")
    p.add_argument("--assert-residual", type=float, dest="assert_residual")
    p.set_defaults(handler=cmd_gauge)

    p = sub.add_parser("decompose3d", parents=[common, sampled],
                       help="conservative/non-conservative split (3D)")
    p.add_argument("--v", help="characteristic invariant V (default: problem V)")
    p.add_argument("--assert-curl-fc", type=float, dest="assert_curl_fc")
    p.set_defaults(handler=cmd_decompose3d)

    p = sub.add_parser("characteristics", parents=[common],
                       help="deviation of V along curl characteristics (3D)")
    p.add_argument("--v", help="candidate V expression (default: problem V)")
    p.add_argument("--x0", required=True)
    p.add_argument("--s-max", type=float, required=True, dest="s_max")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--assert-deviation", type=float, dest="assert_deviation")
    p.add_argument("--assert-deviation-min", type=float, dest="assert_deviation_min")
    p.set_defaults(handler=cmd_characteristics)

    p = sub.add_parser("simulate", parents=[common, sim],
                       help="integrate m x'' = F(x) and emit the trajectory")
    p.add_argument("--assert-energy-residual", type=float, dest="assert_energy_residual")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("work", parents=[common], help="line work along a declared path")
    p.add_argument("--path", required=True)
    p.add_argument("--assert-value", type=float, dest="assert_value")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=cmd_work)

    p = sub.add_parser("stokes", parents=[common],
                       help="surface-form work for a closed planar polygon")
    p.add_argument("--path", required=True)
    p.add_argument("--assert-value", type=float, dest="assert_value")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=cmd_stokes)

    p = sub.add_parser("auxiliary", parents=[common, sim, aux],
                       help="integrate the rescaled conservative system")
    p.add_argument("--assert-drift", type=float, dest="assert_drift")
    p.set_defaults(handler=cmd_auxiliary)

    p = sub.add_parser("nonlocal-h", parents=[common, sim, aux],
                       help="accumulate the auxiliary Hamiltonian along the "
                            "curl-force trajectory; its drift measures conservation")
    p.add_argument("--refine", type=int, default=1,
                   help="record each piece of a step as this many equal intervals")
    p.add_argument("--assert-drift", type=float, dest="assert_drift")
    p.set_defaults(handler=cmd_nonlocal_h)

    p = sub.add_parser("trace2d", parents=[common],
                       help="trace the zero-work curve through a point (2D)")
    p.add_argument("--x0", required=True)
    p.add_argument("--arclength", type=float, required=True)
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--assert-work", type=float, dest="assert_work")
    p.set_defaults(handler=cmd_trace2d)

    p = sub.add_parser("reach2d", parents=[common],
                       help="zero-work reachability verdicts (2D)")
    p.add_argument("--x0", required=True)
    p.add_argument("--targets", required=True,
                   help="semicolon-separated points, e.g. '1.2,0.857;1.1,1.1'")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--arclength", type=float, default=None)
    p.add_argument("--steps", type=int, default=4096)
    p.set_defaults(handler=cmd_reach2d)

    p = sub.add_parser("maneuver3d", parents=[common],
                       help="zero-work bracket maneuver (3D)")
    p.add_argument("--x0", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--assert-work", type=float, dest="assert_work")
    p.set_defaults(handler=cmd_maneuver3d)

    return parser


@lru_cache(maxsize=1)
def _parser():
    # built once per process: building costs some twenty parses, which leave it unchanged
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        problem = load_problem(args.problem)
        return args.handler(args, problem)
    # library ValueErrors report parameters the parser cannot check: a
    # SimConfig field, a non-positive span (--arclength, --s-max, --eps),
    # --samples, --refine or --steps below 1, an rk4 --h beyond the step cap,
    # a gauge --f not in u, a bad --path
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ProblemFileError, ParseError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, OutOfDomainError, EvalDomainError, DimensionMismatchError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
