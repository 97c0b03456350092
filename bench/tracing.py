"""Spans around curlkit's layer boundaries, recorded from outside the program.

Each traced name is replaced where its caller looks it up: module
attributes for module-level functions (``cli.load_problem`` is patched in
``cli``, which imported it by name; each integrator is patched in every
module that imported it), class attributes for methods. The callables
handed to an integrator (right-hand side, region guard, step callback) are
wrapped as well, so the driver's own time separates from theirs.

A span is ``[name, start_ns, end_ns, parent, extra]``; ``parent`` indexes
the same list (-1 for a root) and ``extra`` holds numbers read from the
return value (integrator steps, quadrature panels, sample counts). Spans
stay in memory until :meth:`Tracer.take` hands them over.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from dataclasses import dataclass


DARBOUX_API = ("classify", "sampled_scale", "verify_representation", "vpde_residual",
               "gauge_transform", "decompose3d", "characteristic_deviation")
ACCESSIBILITY_API = ("zero_work_trace_2d", "reachability_report_2d", "bracket_maneuver_3d",
                     "kernel_frame_3d")
AUXILIARY_API = ("auxiliary_trajectory", "auxiliary_hamiltonian", "auxiliary_force",
                 "nonlocal_hamiltonian_series")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, extra=None):
        """``fn`` recording one span per call; ``extra(result)`` may return a
        tuple of numbers stored with the span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, extra=None, wrapper=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        inner = wrapper(original) if wrapper is not None else original
        setattr(owner, attr, self.wrap(name, inner, extra))
        self._patches.append((owner, attr, original))

    def patch_driver(self, module, attr, consumer):
        """Trace an integrator as imported by ``module``, with its
        right-hand side, guard and step callback as child spans. Those
        callables are the consumer's code, so their spans carry its layer."""

        def wrapper(driver):
            sig = inspect.signature(driver)

            def traced_driver(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                a = bound.arguments
                a["f"] = self.wrap(f"{consumer}.ode_rhs", a["f"])
                if a.get("inside") is not None:
                    a["inside"] = self.wrap(f"{consumer}.ode_guard", a["inside"])
                if a.get("on_step") is not None:
                    a["on_step"] = self.wrap(f"{consumer}.ode_callback", a["on_step"])
                return driver(*bound.args, **bound.kwargs)

            return traced_driver

        self.patch(module, attr, "ode.driver", wrapper=wrapper,
                   extra=lambda r: (r.stats.n_steps, r.stats.n_rejected))

    def install(self, curlkit):
        """Patch every traced name of the ``curlkit`` package."""
        cli, exprlang, fieldkit = curlkit.cli, curlkit.exprlang, curlkit.fieldkit
        darboux, dynamics, pathwork = curlkit.darboux, curlkit.dynamics, curlkit.pathwork
        accessibility, auxiliary = curlkit.accessibility, curlkit.auxiliary

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "load_problem", "problemfile.load_problem")
        self.patch(cli, "write_csv", "cli.emit")
        self.patch(cli.Run, "finish", "cli.finish")

        for attr in ("eval_at", "grad_at", "parse", "parse_in_variables", "derivative",
                     "substitute"):
            self.patch(exprlang, attr, f"exprlang.{attr}")

        for cls in (fieldkit.ScalarFieldDef, fieldkit.VectorFieldDef, fieldkit.CallableVectorField):
            self.patch(cls, "value", "fieldkit.value")
            self.patch(cls, "value_unchecked", "fieldkit.value_unchecked")
        for cls in (fieldkit.VectorFieldDef, fieldkit.CallableVectorField):
            self.patch(cls, "jacobian", "fieldkit.jacobian")
        self.patch(fieldkit.ScalarFieldDef, "gradient", "fieldkit.gradient")
        self.patch(fieldkit, "curl", "fieldkit.curl")
        self.patch(fieldkit.Region, "samples", "fieldkit.samples", extra=lambda r: (len(r),))

        for attr in DARBOUX_API:
            self.patch(darboux, attr, f"darboux.{attr}")
        self.patch(dynamics, "integrate", "dynamics.integrate")
        self.patch(dynamics, "work_energy_residual", "dynamics.work_energy_residual")
        self.patch(pathwork, "line_work", "pathwork.line_work", extra=lambda r: (r.segments,))
        self.patch(pathwork, "stokes_work", "pathwork.stokes_work")
        for attr in ACCESSIBILITY_API:
            self.patch(accessibility, attr, f"accessibility.{attr}")
        for attr in AUXILIARY_API:
            self.patch(auxiliary, attr, f"auxiliary.{attr}")

        self.patch_driver(dynamics, "integrate_dopri45", "dynamics")
        self.patch_driver(dynamics, "integrate_rk4", "dynamics")
        self.patch_driver(darboux, "integrate_dopri45", "darboux")
        self.patch_driver(accessibility, "integrate_dopri45", "accessibility")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """The spans recorded since the last call; recording continues."""
        if self._stack:
            raise RuntimeError("spans are still open")
        out = list(self.spans)
        self.spans.clear()
        return out


# --- aggregation ------------------------------------------------------------------

EVAL = {"exprlang.eval_at"}
GRAD = {"exprlang.grad_at"}
VALUE = {"fieldkit.value", "fieldkit.value_unchecked"}
FIELDKIT = VALUE | {"fieldkit.jacobian", "fieldkit.gradient", "fieldkit.curl", "fieldkit.samples"}
CONSUMERS = ("dynamics", "darboux", "accessibility")
RHS = {f"{c}.ode_rhs" for c in CONSUMERS}
GUARD = {f"{c}.ode_guard" for c in CONSUMERS}
CALLBACK = {f"{c}.ode_callback" for c in CONSUMERS}
LINE = {"pathwork.line_work"}
STOKES = {"pathwork.stokes_work"}
INTEGRATE = {"dynamics.integrate"}
DARBOUX = {f"darboux.{a}" for a in DARBOUX_API}


@dataclass(frozen=True)
class Rule:
    """Adds to ``metric`` for each span named in ``names``.

    ``value`` is "count", "dur" (inclusive time), "self" (time minus child
    spans) or an index into the span's extra numbers. ``outermost`` skips
    spans nested inside another span of ``names``; ``under`` requires an
    ancestor span in that set; ``top`` skips spans with an ancestor in that
    set (so a consumer's field evaluations count once, not again for the
    evaluations a sampler-backed field makes inside them).
    """

    metric: str
    names: frozenset
    value: object = "count"
    outermost: bool = False
    under: frozenset = frozenset()
    top: frozenset = frozenset()


def _rule(metric, names, value="count", outermost=False, under=(), top=()):
    return Rule(metric, frozenset(names), value, outermost, frozenset(under), frozenset(top))


RULES = [
    _rule("exprlang.eval_calls", EVAL),
    _rule("exprlang.eval_s", EVAL, "dur"),
    _rule("exprlang.grad_calls", GRAD),
    _rule("exprlang.grad_s", GRAD, "dur"),
    _rule("fieldkit.value_calls", VALUE),
    _rule("fieldkit.value_s", VALUE, "dur", outermost=True),
    _rule("fieldkit.jacobian_calls", {"fieldkit.jacobian"}),
    _rule("fieldkit.jacobian_s", {"fieldkit.jacobian"}, "dur", outermost=True),
    _rule("fieldkit.gradient_calls", {"fieldkit.gradient"}),
    _rule("fieldkit.gradient_s", {"fieldkit.gradient"}, "dur", outermost=True),
    _rule("fieldkit.curl_calls", {"fieldkit.curl"}),
    _rule("ode.steps", {"ode.driver"}, 0),
    _rule("ode.rejected", {"ode.driver"}, 1),
    _rule("ode.rhs_calls", RHS),
    _rule("ode.driver_s", {"ode.driver"}, "self"),
    _rule("ode.guard_calls", GUARD),
    _rule("ode.guard_s", GUARD, "dur"),
    _rule("ode.callback_s", CALLBACK, "dur", outermost=True),
    _rule("dynamics.integrate_s", INTEGRATE, "dur", outermost=True),
    _rule("dynamics.force_calls", VALUE, under=INTEGRATE, top=FIELDKIT),
    _rule("pathwork.line_work_s", LINE, "dur", outermost=True),
    _rule("pathwork.line_work_evals", VALUE, under=LINE, top=FIELDKIT),
    _rule("pathwork.line_work_panels", LINE, 0, outermost=True),
    _rule("pathwork.stokes_s", STOKES, "dur", outermost=True),
    _rule("pathwork.stokes_curl_calls", {"fieldkit.curl"}, under=STOKES),
    _rule("darboux.s", DARBOUX, "dur", outermost=True),
    _rule("darboux.samples", {"fieldkit.samples"}, 0, under=DARBOUX),
    _rule("darboux.evals", EVAL | GRAD, under=DARBOUX),
    _rule("accessibility.s", {f"accessibility.{a}" for a in ACCESSIBILITY_API}, "dur",
          outermost=True),
    _rule("auxiliary.s", {f"auxiliary.{a}" for a in AUXILIARY_API}, "dur", outermost=True),
    _rule("problemfile.load_s", {"problemfile.load_problem"}, "dur"),
    _rule("problemfile.load_calls", {"problemfile.load_problem"}),
    _rule("cli.emit_s", {"cli.emit"}, "dur", outermost=True),
    _rule("cli.finish_s", {"cli.finish"}, "dur"),
    ] + [_rule(f"ode.rhs_calls.{c}", {f"{c}.ode_rhs"}) for c in CONSUMERS]


LAYERS = ("cli", "problemfile", "darboux", "dynamics", "pathwork", "accessibility",
          "auxiliary", "ode", "fieldkit", "exprlang")


def command_of(spans):
    """Index of the command (root span) each span belongs to."""
    command = []
    root = -1
    for _, _, _, parent, _ in spans:
        if parent < 0:
            root += 1
        command.append(root if parent < 0 else command[parent])
    return command


def aggregate(spans, n_commands):
    """Per-command totals of every rule metric plus ``<layer>.self_s``.

    Root spans are the ``cli.main`` calls, one per command in pass order.
    Times are in seconds.
    """
    command = command_of(spans)
    roots = command[-1] + 1 if spans else 0
    if roots != n_commands:
        raise RuntimeError(f"expected {n_commands} root spans, found {roots}")
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = [defaultdict(float) for _ in range(n_commands)]
    ancestors = []
    interned = {}
    memo = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        anc = frozenset() if parent < 0 else ancestors[parent] | {spans[parent][0]}
        anc = interned.setdefault(anc, anc)
        ancestors.append(anc)
        key = (name, anc)
        matches = memo.get(key)
        if matches is None:
            matches = [
                r for r in RULES
                if name in r.names
                and not (r.outermost and anc & r.names)
                and (not r.under or anc & r.under)
                and not (r.top and anc & r.top)
            ]
            memo[key] = matches
        dur = end - start
        acc = totals[command[i]]
        acc[name.split(".", 1)[0] + ".self_s"] += (dur - child[i]) * 1e-9
        for r in matches:
            if r.value == "count":
                acc[r.metric] += 1
            elif r.value == "dur":
                acc[r.metric] += dur * 1e-9
            elif r.value == "self":
                acc[r.metric] += (dur - child[i]) * 1e-9
            else:
                acc[r.metric] += extra[r.value]
    return totals


def ratio(num, den):
    """num / den, or 0 where the layer did no work in this workload."""
    return num / den if den else 0.0


def derived(t):
    """Ratios of one pass from its summed totals ``t``."""
    return {
        "exprlang.eval_us_per_call": 1e6 * ratio(t["exprlang.eval_s"], t["exprlang.eval_calls"]),
        "ode.rhs_per_step": ratio(t["ode.rhs_calls"], t["ode.steps"]),
        "pathwork.evals_per_panel": ratio(t["pathwork.line_work_evals"], t["pathwork.line_work_panels"]),
        "darboux.evals_per_sample": ratio(t["darboux.evals"], t["darboux.samples"]),
    }


def fev_ratios(per_command, commands, reports):
    """``field_evaluations`` reported by each ``simulate`` command divided by
    the force calls measured under it, overall and per integrator."""
    sums = defaultdict(lambda: [0, 0])
    for cmd, tot in zip(commands, per_command):
        if cmd.argv[0] != "simulate" or cmd.label not in reports:
            continue
        integrator = "rk4" if "rk4" in cmd.argv else "dopri45"
        reported = reports[cmd.label]["results"]["stats"]["field_evaluations"]
        for key in ("", "." + integrator):
            sums[key][0] += reported
            sums[key][1] += tot["dynamics.force_calls"]
    return {
        f"dynamics.fev_reported_ratio{key}": ratio(*sums[key])
        for key in ("", ".rk4", ".dopri45")
    }


def write_spans(path, spans, labels):
    """Spans of one pass as CSV: name, start/end (ns), parent index, command."""
    command = command_of(spans)
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent,command\n")
        for i, (name, start, end, parent, _) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent},{labels[command[i]]}\n")
