#!/usr/bin/env python3
"""curlkit benchmark: closed-loop passes over one workload through cli.main.

    python3 bench/run.py --workload region-sweep --seed 1 --seconds 30 --trace 0

Run from any directory; the program is imported from ``src/`` next to
``bench/`` and from nowhere else. One process and one thread run the
workload's commands one after another, each starting when the previous
one has returned, and check every report against a closed-form
reference. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced phase (see README.md). The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS_OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

# The CPU of a shared machine runs in speed states up to ~2x apart that last
# from milliseconds to tens of seconds. A short fixed kernel, timed before
# and after every measured command, reads the current speed; command and
# pass times are reported in seconds at the reference speed ("ref_s"), at
# which the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.005
TAIL_BEYOND = 10      # samples above the reported tail percentile

# Fresh-interpreter set-up: import the CLI and load each problem file once.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import curlkit.cli
t1 = time.perf_counter()
for path in sys.argv[2:]:
    curlkit.cli.load_problem(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "file": curlkit.__file__}))
"""

# A fresh interpreter's import does not track the kernel, so each set-up
# sample is paired with a reference process that imports what curlkit
# imports from outside itself, and set-up is reported in seconds at the
# reference speed, at which the reference import takes SETUP_REF_S. The
# samples are spread over the measured phase so that they see the same speed
# states as the passes.
SETUP_REF_CODE = """
import json, time
t0 = time.perf_counter()
import argparse, dataclasses, datetime, hashlib, itertools, json, math, pathlib, re, typing
import numpy
print(json.dumps({"import_s": time.perf_counter() - t0}))
"""
SETUP_REF_S = 0.090
SETUP_SAMPLES = 15


class Fatal(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def import_program():
    if not (SRC / "curlkit" / "cli.py").is_file():
        raise Fatal(f"no curlkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import curlkit
    import curlkit.cli

    if SRC.resolve() not in Path(curlkit.__file__).resolve().parents:
        raise Fatal(f"curlkit was imported from {curlkit.__file__}, not {SRC}")
    return curlkit


def calibration_kernel():
    """Wall time of fixed interpreter-bound work of the kind curlkit does:
    float arithmetic, small NumPy arrays, dict traffic."""
    t0 = time.perf_counter()
    a = np.array([1.0, 2.0, 3.0])
    acc = 0.0
    table = {}
    for i in range(1000):
        b = a * 1.0001 + i
        acc += float(np.dot(b, a)) + math.sqrt(i + 1.0)
        table[i & 63] = acc
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc + table[0]):
        raise RuntimeError("calibration kernel diverged")
    return elapsed


@dataclass
class Pass:
    times: dict         # wall seconds per command label
    ref_times: dict     # the same in ref_s (wall seconds if not calibrated)
    reports: dict       # label -> report of the commands that ran
    written: int        # bytes of reports and CSV files

    @property
    def seconds(self):
        return sum(self.times.values())

    @property
    def ref_seconds(self):
        return sum(self.ref_times.values())

    @property
    def scale(self):
        """Reference seconds per wall second over the pass."""
        return self.ref_seconds / self.seconds


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class Loop:
    """Closed loop over a workload's commands, checking every report."""

    def __init__(self, workload, curlkit):
        self.workload = workload
        self.cli = curlkit.cli
        self.attempted = 0
        self.failed = 0
        self.first_failure = {}

    def _verify(self, cmd, code, earlier):
        if code != 0:
            return None, [f"exit code {code}"]
        try:
            report = strict_json(cmd.out.read_text())
        except (OSError, ValueError) as e:
            return None, [f"report is not strict JSON: {e}"]
        try:
            return report, cmd.check(report, earlier)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            return report, [f"report lacks the checked field: {e!r}"]

    def run_pass(self, calibrate=False):
        """One pass; with ``calibrate``, each command runs between two runs of
        the calibration kernel, which scale its time to ``ref_times``."""
        times, reports = {}, {}
        ref_times = {} if calibrate else times
        kernel = calibration_kernel() if calibrate else None
        written = 0
        for cmd in self.workload.commands:
            cmd.out.unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(cmd.argv))
            except Exception:  # a crash is a failed command, not a failed run
                code = "exception: " + traceback.format_exc(limit=3)
            times[cmd.label] = time.perf_counter() - t0
            if calibrate:
                before, kernel = kernel, calibration_kernel()
                ref_times[cmd.label] = times[cmd.label] * CALIBRATION_REF_S / (0.5 * (before + kernel))
            report, problems = self._verify(cmd, code, reports)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.first_failure.setdefault(cmd.label, "; ".join(problems))
            if report is not None:
                reports[cmd.label] = report
                files = [cmd.out] + [Path(p) for p in report.get("artifacts", {}).values()]
                written += sum(p.stat().st_size for p in files if p.exists())
        return Pass(times, ref_times, reports, written)


def run_for(seconds, setup, step):
    """Call ``step`` until ``seconds`` have gone by (a started step
    completes), with the set-up samples spread evenly in between."""
    start = time.perf_counter()
    steps = 0
    while True:
        progress = (time.perf_counter() - start) / seconds
        if steps and progress >= 1.0:
            return
        setup.sample_if_due(progress)
        step()
        steps += 1


def _fresh_process(argv):
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise Fatal(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Setup:
    """Calibrated fresh-interpreter set-up samples, taken between passes."""

    def __init__(self, workload, workdir):
        files = [str(Path(workdir) / f) for f in workload.problem_files]
        self.argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *files]
        self.ref_argv = [sys.executable, "-c", SETUP_REF_CODE]
        self.samples = []  # (set-up, import, reference) seconds
        self.sample()      # fills the bytecode cache; not counted
        self.samples.clear()

    def sample(self):
        if len(self.samples) % 2:  # alternate which process starts first
            out, ref = _fresh_process(self.argv), _fresh_process(self.ref_argv)
        else:
            ref, out = _fresh_process(self.ref_argv), _fresh_process(self.argv)
        if SRC.resolve() not in Path(out["file"]).resolve().parents:
            raise Fatal(f"set-up process imported curlkit from {out['file']}")
        self.samples.append((out["import_s"] + out["load_s"], out["import_s"], ref["import_s"]))

    def sample_if_due(self, progress):
        """One sample when fewer than ``progress`` (0..1) of them are taken."""
        if len(self.samples) < SETUP_SAMPLES * progress:
            self.sample()

    def summary(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return {
            "setup_s": SETUP_REF_S * statistics.median(s / r for s, _, r in self.samples),
            "import_s": SETUP_REF_S * statistics.median(i / r for _, i, r in self.samples),
            "raw_setup_s": statistics.median(s for s, _, _ in self.samples),
            "ref_s": statistics.median(r for _, _, r in self.samples),
        }


def metric(value, unit):
    return {"value": value, "unit": unit}


END_TO_END = {
    "setup_s": "s",
    "pass_s": "ref_s",
    "pass_tail_s": "ref_s",
    "cmd_geomean_s": "ref_s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def end_to_end(loop, passes, setup):
    labels = [c.label for c in loop.workload.commands]
    pass_times = sorted(p.ref_seconds for p in passes)
    n = len(pass_times)
    tail_rank = max(0, n - TAIL_BEYOND - 1)
    per_cmd = {label: statistics.median(p.ref_times[label] for p in passes)
               for label in labels}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"passes measured: {n}; pass_tail_s is the p{100.0 * (tail_rank + 1) / n:.1f} "
          f"pass time ({n - tail_rank - 1} passes above it)")
    print(f"uncalibrated pass median {statistics.median(p.seconds for p in passes):.4f} s; "
          f"calibration kernel median "
          f"{statistics.median(CALIBRATION_REF_S / p.scale for p in passes) * 1e3:.3f} ms "
          f"(reference {CALIBRATION_REF_S * 1e3:.3f} ms)")
    for label in labels:
        print(f"  {label:18s} median {per_cmd[label] * 1e3:9.2f} ref_ms")
    print(f"set-up: {SETUP_SAMPLES} samples, import {setup['import_s']:.4f} s at reference "
          f"speed; raw median {setup['raw_setup_s']:.4f} s, reference import "
          f"{setup['ref_s']:.4f} s (reference {SETUP_REF_S:.3f} s)")
    print(f"failed_frac: {loop.failed}/{loop.attempted}")
    values = {
        "setup_s": setup["setup_s"],
        "pass_s": statistics.median(pass_times),
        "pass_tail_s": pass_times[tail_rank],
        "cmd_geomean_s": statistics.geometric_mean(per_cmd.values()),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - loop.failed / loop.attempted,
    }
    return {k: metric(values[k], unit) for k, unit in END_TO_END.items()}


def _names(unit, *names):
    return {n: unit for n in names}


# Every per-layer metric and its unit. Counts are taken from the first
# traced pass and must repeat exactly on every other one.
PER_LAYER = {
    **_names("ref_s", *(f"{layer}.self_s" for layer in tracing.LAYERS)),
    **_names("count", "exprlang.eval_calls", "exprlang.grad_calls", "fieldkit.value_calls",
             "fieldkit.jacobian_calls", "fieldkit.gradient_calls", "fieldkit.curl_calls",
             "ode.steps", "ode.rejected", "ode.rhs_calls",
             *(f"ode.rhs_calls.{c}" for c in tracing.CONSUMERS),
             "ode.guard_calls", "dynamics.force_calls", "pathwork.line_work_evals",
             "pathwork.line_work_panels", "pathwork.stokes_curl_calls", "darboux.samples",
             "problemfile.load_calls"),
    **_names("bytes", "cli.bytes_written"),
    **_names("ref_s", "exprlang.eval_s", "exprlang.grad_s", "fieldkit.value_s",
             "fieldkit.jacobian_s", "fieldkit.gradient_s", "ode.driver_s", "ode.guard_s",
             "ode.callback_s", "dynamics.integrate_s", "pathwork.line_work_s",
             "pathwork.stokes_s", "darboux.s", "accessibility.s", "auxiliary.s",
             "problemfile.load_s", "cli.emit_s", "cli.finish_s", "import.cli_s",
             "trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s"),
    **_names("ref_us", "exprlang.eval_us_per_call"),
    **_names("ratio", "ode.rhs_per_step", "dynamics.fev_reported_ratio",
             "dynamics.fev_reported_ratio.rk4", "dynamics.fev_reported_ratio.dopri45",
             "pathwork.evals_per_panel", "darboux.evals_per_sample", "trace.overhead_frac",
             "trace.self_coverage"),
    **_names("lines", "code.src_lines"),
    **_names("flag", "trace.counts_repeat"),
    **_names("passes", "trace.passes"),
}
REPEATING = {k for k, unit in PER_LAYER.items() if unit in ("count", "bytes")}
CALIBRATED = {k for k, unit in PER_LAYER.items() if unit in ("ref_s", "ref_us")}


def per_layer(loop, curlkit, seconds, setup, workload_name):
    """Untraced and traced passes alternate, so both see the same machine
    speed and their difference is the tracing overhead. Times are
    calibrated like the end-to-end pass times."""
    labels = [c.label for c in loop.workload.commands]
    tracer = tracing.Tracer()
    untraced, traced, counts, first_spans = [], [], None, None
    repeat = 1.0

    def step():
        nonlocal counts, first_spans, repeat
        untraced.append(loop.run_pass(calibrate=True))
        tracer.install(curlkit)
        try:
            p = loop.run_pass(calibrate=True)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        per_cmd = tracing.aggregate(spans, len(labels))
        total = dict.fromkeys(PER_LAYER, 0.0)
        for tot in per_cmd:
            for k, v in tot.items():
                total[k] = total.get(k, 0.0) + v
        total.update(tracing.derived(total))
        total.update(tracing.fev_ratios(per_cmd, loop.workload.commands, p.reports))
        total["cli.bytes_written"] = p.written
        total["trace.pass_s"] = p.seconds
        total["trace.self_coverage"] = sum(
            total[f"{layer}.self_s"] for layer in tracing.LAYERS) / total["trace.pass_s"]
        for k in CALIBRATED:
            total[k] *= p.scale
        pass_counts = {k: total[k] for k in REPEATING}
        if counts is None:
            counts, first_spans = pass_counts, spans
        elif pass_counts != counts:
            repeat = 0.0
        traced.append(total)

    run_for(seconds, setup, step)
    setup = setup.summary()

    SPANS_OUT.mkdir(exist_ok=True)
    tracing.write_spans(SPANS_OUT / f"spans-{workload_name}.csv", first_spans, labels)

    out = {k: statistics.median(p[k] for p in traced) for k in PER_LAYER}
    out.update({k: int(v) for k, v in counts.items()})
    untraced_s = statistics.median(p.ref_seconds for p in untraced)
    out["trace.untraced_pass_s"] = untraced_s
    out["trace.overhead_s"] = out["trace.pass_s"] - untraced_s
    out["trace.overhead_frac"] = out["trace.overhead_s"] / untraced_s
    out["trace.counts_repeat"] = repeat
    out["trace.passes"] = len(traced)
    out["import.cli_s"] = setup["import_s"]
    out["code.src_lines"] = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "curlkit").glob("*.py")))
    print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}; "
          f"tracing overhead {out['trace.overhead_s']:.4f} ref_s per pass "
          f"({100 * out['trace.overhead_frac']:.1f}%); self times cover "
          f"{100 * out['trace.self_coverage']:.2f}% of the traced pass")
    return {k: metric(out[k], unit) for k, unit in PER_LAYER.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def run(args):
    curlkit = import_program()
    # Paths handed to curlkit are relative to the checkout and of fixed
    # width, so the bytes of its reports repeat for a seed wherever the
    # checkout lies and whatever the process id.
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    workdir = WORK.relative_to(ROOT) / f"{args.workload}-{args.seed}-{os.getpid():07d}"
    workdir.mkdir()
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        workload.write_files(workdir)
        setup = Setup(workload, workdir)
        loop = Loop(workload, curlkit)
        loop.run_pass()  # warm-up: checked, not timed
        if args.trace:
            metrics = per_layer(loop, curlkit, args.seconds, setup, args.workload)
        else:
            passes = []
            run_for(args.seconds, setup, lambda: passes.append(loop.run_pass(calibrate=True)))
            metrics = end_to_end(loop, passes, setup.summary())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for label, message in loop.first_failure.items():
        print(f"FAILED {label}: {message}", file=sys.stderr)
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except Fatal as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
