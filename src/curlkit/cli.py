"""Command-line interface: problem ingestion, dispatch, report emission.

Every command reads one problem file, runs one analysis, writes a JSON
run report to --out, and writes any series as CSV files next to the
report (same stem, suffixed).

``main`` owns each run. It parses the arguments, loads the problem,
refuses a problem of a dimension the command does not take, builds the
``Run``, calls the command's handler and writes the report with
``Run.finish``. A handler (``cmd_*``) only computes: it fills
``run.results``, queues its series with ``run.emit`` and records its
assertions with ``run.check``. A command bound to one dimension declares
it in ``build_parser`` with ``set_defaults(dimension=2)`` or ``3``:
trace2d and reach2d take 2D problems; decompose3d, characteristics and
maneuver3d 3D ones. The declaration is not a report parameter.

The problem file and --out are the only options all commands share. The
region commands (classify, verify, vpde, gauge, decompose3d) also share
--region, --seed and --samples: without --region they sample --samples
random points of the domain from --seed. classify, verify and vpde take
--mode; auxiliary and nonlocal-h require --region. simulate, auxiliary
and nonlocal-h share the integrator options; nonlocal-h also takes
--refine, the number of equal intervals each recorded piece of a step is
cut into, on which it accumulates the auxiliary Hamiltonian. A command
accepts no option it does not read, and some options are read only under
another's value: --h only with --integrator rk4; --atol, --rtol and
--h-max only with dopri45; --tol only with --assert-value; --seed and
--samples only without --region. Given anywhere else, each is a usage
error; not given there, it is not a parameter of the report.

A process imports only the modules its command uses. Importing this
module loads the problem reader, exprlang and fieldkit, which every
command needs; each handler imports its analysis modules itself. The
region commands and characteristics load darboux; simulate loads
dynamics; work and stokes load pathwork; trace2d, reach2d and maneuver3d
load accessibility, which loads pathwork; auxiliary and nonlocal-h load
auxiliary, which loads darboux and dynamics. darboux, dynamics and
accessibility bring the integrator core, _ode. A problem file that
declares paths loads pathwork.

Exit codes: 0 success, 1 usage error (including an option the command
does not take, a non-finite component of --x0, --v0 or --targets, a
non-finite --assert-* threshold, a --tol not finite and >= 0, and a
parameter the analysis rejects, such as an rk4 --h that would need more
steps than the step cap or a --steps above it), 2 input error, 3
numerical failure (domain exit, rescaling floor, non-convergence, a step
that cannot advance t, more recorded rows than the step cap, a kinetic
energy that overflows, a non-finite number in the report), 4 assertion
failure.

Reports are deterministic for fixed inputs and seeds: the inputs digest
is a SHA-256 over the problem file bytes and the canonicalized command
parameters; the timestamp field is informational and not part of the
digest. CSV numbers carry 17 significant digits and round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, exprlang, fieldkit
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

# the rows of a CSV formatted by one ``%``, which bounds the text held at once
CSV_BLOCK_ROWS = 256


def write_csv(path, header, columns):
    """CSV of ``header`` and ``columns``, the series' arrays of N rows, each
    of shape (N,) or (N, k), side by side: comma separator, '.' decimals, LF
    endings, every cell a float with 17 significant digits, each block of
    ``CSV_BLOCK_ROWS`` rows formatted by one ``%`` of the row template and
    written. An empty series gives the header."""
    cells = np.column_stack(columns)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(cells), CSV_BLOCK_ROWS):
            block = cells[start:start + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _axis_names(dim):
    return ["x", "y", "z"][:dim]


def trajectory_table(traj):
    """The header and the columns (t, x, v, K, Wcum) of a ``dynamics.Trajectory``."""
    axes = _axis_names(traj.x.shape[1])
    header = ["t"] + axes + [f"v{a}" for a in axes] + ["K", "Wcum"]
    return header, (traj.t, traj.x, traj.v, traj.kinetic, traj.work)


def _json_default(obj):
    """``json.dumps`` hook: a NumPy array as a list, a NumPy scalar as its number."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# --- report assembly ----------------------------------------------------------

def _digest(problem, command, parameters):
    canon = json.dumps(
        {"command": command, "parameters": parameters},
        sort_keys=True,
        separators=(",", ":"),
        default=_json_default,
    )
    h = sha256()
    h.update(problem.raw)
    h.update(b"\x00")
    h.update(canon.encode("utf-8"))
    return h.hexdigest()


class Run:
    """Collects results, artifacts, and assertion outcomes for one command.

    ``main`` builds it and calls ``finish``; a handler fills ``results`` and
    calls ``emit`` and ``check``."""

    def __init__(self, args, problem):
        self.command = args.command
        self.problem = problem
        if args.out == "":
            raise UsageError("--out: expected a path, got ''")
        self.out = Path(args.out if args.out is not None else f"{args.command}.json")
        skip = {"command", "out", "problem", "handler", "dimension"}
        self.parameters = {
            k: v for k, v in sorted(vars(args).items()) if k not in skip
        }
        self.results = {}
        self.artifacts = {}
        self.assertions = []
        self._writes = []

    def artifact_path(self, kind):
        return self.out.with_name(f"{self.out.stem}_{kind}.csv")

    def emit(self, kind, header, columns):
        """Queue the CSV artifact ``kind``, passing ``header`` and ``columns``
        unchanged to ``write_csv``; ``finish`` writes it only once the report
        is known to serialize, so a refused run writes nothing."""
        path = self.artifact_path(kind)
        self._writes.append(lambda: write_csv(path, header, columns))
        self.artifacts[kind] = str(path)

    def check(self, name, value, threshold, kind="max"):
        """Record an assertion, unless ``threshold`` is None. The record is
        ``name``, ``value``, the bound fields of ``kind``, then ``passed``:
        'max' and 'min' hold ``threshold`` and pass iff value <= or >= it;
        'equals' holds ``expected`` and passes iff value == threshold;
        'abs-diff' takes threshold = (target, tol), holds ``target`` and
        ``tolerance`` and passes iff |value - target| <= tol."""
        if threshold is None:
            return
        record = {"name": name, "value": value}
        if kind == "abs-diff":
            target, tol = threshold
            record.update(target=target, tolerance=tol)
            passed = abs(value - target) <= tol
        elif kind == "equals":
            record["expected"] = threshold
            passed = value == threshold
        else:
            record["threshold"] = threshold
            passed = value >= threshold if kind == "min" else value <= threshold
        record["passed"] = bool(passed)
        self.assertions.append(record)

    def finish(self):
        passed = all(a["passed"] for a in self.assertions)
        report = {
            "command": self.command,
            "tool": {"name": "curlkit", "version": __version__},
            "problem": self.problem.path,
            "inputs_digest": _digest(self.problem, self.command, self.parameters),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "parameters": self.parameters,
            "results": self.results,
            "artifacts": self.artifacts,
            "assertions": self.assertions,
            "passed": bool(passed),
        }
        try:
            text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                              default=_json_default)
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
    if not all(map(math.isfinite, parts)):
        raise UsageError(f"{what}: expected finite numbers, got {text!r}")
    return np.array(parts)


def _start(args, dim):
    """The initial position and velocity of --x0 and --v0."""
    return _vector(args.x0, dim, "--x0"), _vector(args.v0, dim, "--v0")


def _region(args, problem):
    if args.region is not None:
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
        return fieldkit.ScalarFieldDef.from_source(
            source, problem.dimension, problem.constants, problem.domain
        )
    except ParseError as e:
        raise ProblemFileError(f"{what}: {e}")


def _v_field(args, problem):
    if args.v is not None:
        return _scalar_field(problem, args.v, "--v")
    return problem.scalar_v()


def _sim_config(args, problem, refine=1):
    from . import dynamics
    return dynamics.SimConfig(
        mass=args.mass if args.mass is not None else problem.mass,
        integrator=args.integrator,
        t_end=args.t_end,
        # the integrator's own options; _resolve_conditional removed the others
        atol=getattr(args, "atol", None),
        rtol=getattr(args, "rtol", None),
        h_max=getattr(args, "h_max", None),
        h=getattr(args, "h", None),
        record_dt=args.record_dt,
        refine=refine,
    )


# --- command handlers -------------------------------------------------------------

def cmd_classify(run, args, problem):
    from . import darboux
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


def cmd_verify(run, args, problem):
    from . import darboux
    region = _region(args, problem)
    rep = darboux.verify_representation(
        problem.force, problem.potential_set(), region, mode=args.mode
    )
    run.results = rep.to_dict()
    run.check("max_residual", rep.max, args.assert_residual)


def cmd_vpde(run, args, problem):
    from . import darboux
    region = _region(args, problem)
    rep = darboux.vpde_residual(problem.force, _v_field(args, problem), region, mode=args.mode)
    run.results = rep.to_dict()
    run.check("max_residual", rep.max, args.assert_residual)


def cmd_gauge(run, args, problem):
    from . import darboux
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


def cmd_decompose3d(run, args, problem):
    from . import darboux
    region = _region(args, problem)
    dec = darboux.decompose3d(problem.force, _v_field(args, problem), region)
    run.results = {name: rep.to_dict() for name, rep in dec.diagnostics.items()}
    header = ["x", "y", "z"] + [f"{q}_{a}" for q in ("gradU", "Fc", "Fnc") for a in "xyz"]
    run.emit("samples", header, (dec.points, dec.grad_u, dec.f_c, dec.f_nc))
    run.check("curl_f_c", dec.diagnostics["curl_f_c"].max, args.assert_curl_fc)


def cmd_characteristics(run, args, problem):
    from . import darboux
    x0 = _vector(args.x0, 3, "--x0")
    V = _v_field(args, problem)
    dev = darboux.characteristic_deviation(
        problem.force, V, x0, args.s_max, steps=args.steps
    )
    run.results = {"deviation": dev, "s_max": args.s_max, "x0": list(x0)}
    run.check("deviation", dev, args.assert_deviation)
    run.check("deviation_at_least", dev, args.assert_deviation_min, kind="min")


def cmd_simulate(run, args, problem):
    from . import dynamics
    x0, v0 = _start(args, problem.dimension)
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
    run.emit("trajectory", *trajectory_table(traj))
    run.check("work_energy_residual", resid, args.assert_energy_residual)


def cmd_work(run, args, problem):
    """work (line work) and stokes (surface-form work), by the command's name."""
    from . import pathwork
    path = _path(args, problem)
    if args.command == "work":
        res, pieces = pathwork.line_work(problem.force, path), "segments"
    else:
        res, pieces = pathwork.stokes_work(problem.force, path), "triangles"
    run.results = {
        "value": res.value,
        "error_estimate": res.error_estimate,
        pieces: res.segments,
    }
    if args.assert_value is not None:
        run.check("value", res.value, (args.assert_value, args.tol), kind="abs-diff")


def _auxiliary_problem(args, problem):
    from . import auxiliary
    return auxiliary.AuxiliaryProblem(
        F=problem.force,
        potentials=problem.potential_set(),
        mass=args.mass if args.mass is not None else problem.mass,
        region=_region(args, problem),
        rep_tol=args.rep_tol,
    )


def cmd_auxiliary(run, args, problem):
    from . import auxiliary
    prob = _auxiliary_problem(args, problem)
    x0, v0 = _start(args, problem.dimension)
    traj, drift = auxiliary.auxiliary_trajectory(prob, x0, v0, _sim_config(args, problem))
    h0 = auxiliary.auxiliary_hamiltonian(x0, prob.mass * v0, prob.potentials.U, prob.mass)
    run.results = {"H0": h0, "drift": drift, "exited": traj.exited, "samples": len(traj)}
    run.emit("trajectory", *trajectory_table(traj))
    run.check("drift", drift, args.assert_drift)


def cmd_nonlocal_h(run, args, problem):
    from . import auxiliary
    prob = _auxiliary_problem(args, problem)
    x0, v0 = _start(args, problem.dimension)
    cfg = _sim_config(args, problem, refine=args.refine)
    series = auxiliary.nonlocal_hamiltonian_series(prob, x0, v0, cfg)
    run.results = {
        "H0": series.H[0],
        "drift": series.drift,
        "samples": len(series.t),
        "trajectory_exited": series.exited,
    }
    run.emit("series", ["t", *_axis_names(problem.dimension), "H"],
             (series.t, series.x, series.H))
    run.check("drift", series.drift, args.assert_drift)


def cmd_trace2d(run, args, problem):
    from . import accessibility, pathwork
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
    verts = trace.vertices
    s = np.zeros(len(verts))
    s[1:] = np.cumsum(np.linalg.norm(np.diff(verts, axis=0), axis=1))
    run.emit("trace", ["s", "x", "y"], (s, verts))
    run.check("work", abs(work.value), args.assert_work)


def cmd_reach2d(run, args, problem):
    from . import accessibility
    x0 = _vector(args.x0, 2, "--x0")
    targets = [
        _vector(part, 2, "--targets") for part in args.targets.split(";") if part
    ]
    if not targets:
        raise UsageError("--targets: expected at least one point")
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
        else accessibility.REACH_DELTA_FRACTION * problem.domain.diameter(),
        "verdicts": [
            {
                "target": list(v.target),
                "distance": v.distance,
                "reachable": v.reachable,
            }
            for v in verdicts
        ],
    }


def cmd_maneuver3d(run, args, problem):
    from . import accessibility
    x0 = _vector(args.x0, 3, "--x0")
    res = accessibility.bracket_maneuver_3d(problem.force, x0, args.eps)
    run.results = {
        "endpoint": list(res.endpoint),
        "net_displacement": list(res.net_displacement),
        "transverse": res.transverse,
        "work": res.work,
        "eps": res.eps,
    }
    run.emit("path", ["i", "x", "y", "z"], (np.arange(len(res.path)), res.path))
    run.check("work", abs(res.work), args.assert_work)


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
    common.set_defaults(dimension=None)  # a command bound to 2D or 3D sets its own

    sampled = _Parser(add_help=False)
    sampled.add_argument("--region", help="named region from the problem file")
    sampled.add_argument("--seed", type=int, help="seed for default sampling")
    sampled.add_argument("--samples", type=int, help="default sample count")

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
    sim.add_argument("--h", type=float, help="rk4 step")
    sim.add_argument("--atol", type=float)
    sim.add_argument("--rtol", type=float)
    sim.add_argument("--h-max", type=float, dest="h_max")
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
    p.set_defaults(handler=cmd_decompose3d, dimension=3)

    p = sub.add_parser("characteristics", parents=[common],
                       help="deviation of V along curl characteristics (3D)")
    p.add_argument("--v", help="candidate V expression (default: problem V)")
    p.add_argument("--x0", required=True)
    p.add_argument("--s-max", type=float, required=True, dest="s_max")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--assert-deviation", type=float, dest="assert_deviation")
    p.add_argument("--assert-deviation-min", type=float, dest="assert_deviation_min")
    p.set_defaults(handler=cmd_characteristics, dimension=3)

    p = sub.add_parser("simulate", parents=[common, sim],
                       help="integrate m x'' = F(x) and emit the trajectory")
    p.add_argument("--assert-energy-residual", type=float, dest="assert_energy_residual")
    p.set_defaults(handler=cmd_simulate)

    for name, summary in (("work", "line work along a declared path"),
                          ("stokes", "surface-form work for a closed planar polygon")):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("--path", required=True)
        p.add_argument("--assert-value", type=float, dest="assert_value")
        p.add_argument("--tol", type=float)
        p.set_defaults(handler=cmd_work)

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
    p.set_defaults(handler=cmd_trace2d, dimension=2)

    p = sub.add_parser("reach2d", parents=[common],
                       help="zero-work reachability verdicts (2D)")
    p.add_argument("--x0", required=True)
    p.add_argument("--targets", required=True,
                   help="semicolon-separated points, e.g. '1.2,0.857;1.1,1.1'")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--arclength", type=float, default=None)
    p.add_argument("--steps", type=int, default=4096)
    p.set_defaults(handler=cmd_reach2d, dimension=2)

    p = sub.add_parser("maneuver3d", parents=[common],
                       help="zero-work bracket maneuver (3D)")
    p.add_argument("--x0", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--assert-work", type=float, dest="assert_work")
    p.set_defaults(handler=cmd_maneuver3d, dimension=3)

    return parser


# Options read only under another option's value: (dest, default, whether
# the command reads it, where it is read). Their parser default is None, so
# one given where it is not read is refused, and one not read is removed
# from the arguments, so that the report's parameters do not list it. Where
# it is read, the default is filled in before the run takes its parameters,
# so the report and the digest of a command line are the same whether or
# not it spells a default out.
_CONDITIONAL = (
    ("h", 1e-3, lambda a: a.integrator == "rk4", "with --integrator rk4"),
    ("atol", 1e-9, lambda a: a.integrator == "dopri45", "with --integrator dopri45"),
    ("rtol", 1e-9, lambda a: a.integrator == "dopri45", "with --integrator dopri45"),
    ("h_max", None, lambda a: a.integrator == "dopri45", "with --integrator dopri45"),
    ("tol", 1e-9, lambda a: a.assert_value is not None, "with --assert-value"),
    ("seed", 0, lambda a: a.region is None, "without --region"),
    ("samples", 200, lambda a: a.region is None, "without --region"),
)


def _resolve_conditional(args):
    for dest, default, read, where in _CONDITIONAL:
        if not hasattr(args, dest):
            continue
        if read(args):
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        elif getattr(args, dest) is None:
            delattr(args, dest)
        else:
            raise UsageError(f"--{dest.replace('_', '-')} is read only {where}")


def _check_thresholds(args):
    """Refuse a non-finite --assert-* threshold or --tol, and a negative --tol."""
    for dest, value in vars(args).items():
        if dest == "tol" and not value >= 0.0:
            raise UsageError(f"--tol: expected a number >= 0, got {value!r}")
        if ((dest == "tol" or dest.startswith("assert_")) and isinstance(value, float)
                and not math.isfinite(value)):
            raise UsageError(f"--{dest.replace('_', '-')}: expected a finite number, got {value!r}")


@lru_cache(maxsize=1)
def _parser():
    # built once per process: building costs some twenty parses, which leave it unchanged
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        _resolve_conditional(args)
        _check_thresholds(args)
        problem = load_problem(args.problem)
        if args.dimension not in (None, problem.dimension):
            raise ProblemFileError(f"{args.command} needs a {args.dimension}D problem")
        run = Run(args, problem)
        args.handler(run, args, problem)
        return run.finish()
    # library ValueErrors report parameters the parser cannot check: a
    # SimConfig field, a span (--arclength, --s-max, --eps), --delta or
    # --rep-tol not positive and finite, --samples, --refine or --steps
    # below 1, a --steps or an rk4 --h beyond the step cap, a gauge --f not
    # in u, a bad --path
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
