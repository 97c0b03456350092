#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Exits 0 when every test passes. The tests check that tracing changes no
result, that a seed always generates the same inputs, that a failed
reference check is counted without stopping the run, and that the metric
names agree with BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _workdir(tag):
    path = run.WORK / f"selftest-{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def _results(workload, cli):
    """(results, inputs_digest) of every command, run once in order."""
    out = {}
    for cmd in workload.commands:
        if cli.main(list(cmd.argv)) != 0:
            raise AssertionError(f"{cmd.label} failed")
        report = run.strict_json(cmd.out.read_text())
        out[cmd.label] = (json.dumps(report["results"], sort_keys=True), report["inputs_digest"])
    return out


def test_inputs_repeat_for_a_seed(curlkit):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, "w")
        b = workloads.build(name, 7, "w")
        other = workloads.build(name, 8, "w")
        assert a.files == b.files, name
        assert [c.argv for c in a.commands] == [c.argv for c in b.commands], name
        assert a.files != other.files or (
            [c.argv for c in a.commands] != [c.argv for c in other.commands]
        ), f"{name}: seeds 7 and 8 give the same inputs"


def test_tracing_changes_no_result(curlkit):
    for name in workloads.WORKLOADS:
        workdir = _workdir(name)
        try:
            workload = workloads.build(name, 3, workdir)
            workload.write_files(workdir)
            plain = _results(workload, curlkit.cli)
            tracer = tracing.Tracer()
            tracer.install(curlkit)
            try:
                traced = _results(workload, curlkit.cli)
            finally:
                tracer.uninstall()
            spans = tracer.take()
        finally:
            shutil.rmtree(workdir)
        assert traced == plain, f"{name}: traced results differ"
        # self times partition the root spans exactly
        per_cmd = tracing.aggregate(spans, len(workload.commands))
        self_s = sum(t[f"{layer}.self_s"] for t in per_cmd for layer in tracing.LAYERS)
        roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0) * 1e-9
        assert abs(self_s - roots) <= 1e-9 * len(spans), (name, self_s, roots)
        assert not hasattr(curlkit.cli.main, "__wrapped__"), "cli.main still traced"


def test_wrong_reference_is_counted(curlkit):
    workdir = _workdir("wrong")
    try:
        workload = workloads.build("path-work", 5, workdir)
        workload.write_files(workdir)

        def wrong(report, earlier):
            return workloads._close("circle work", report["results"]["value"], 1e6, 1e-9)

        commands = tuple(
            dataclasses.replace(c, check=wrong) if c.label == "work-circle" else c
            for c in workload.commands
        )
        loop = run.Loop(dataclasses.replace(workload, commands=commands), curlkit)
        loop.run_pass()
        loop.run_pass()
    finally:
        shutil.rmtree(workdir)
    assert loop.attempted == 2 * len(commands), loop.attempted
    assert loop.failed == 2, loop.failed
    assert list(loop.first_failure) == ["work-circle"], loop.first_failure


def test_metric_names_match_benchmark_json(curlkit):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


TESTS = [
    test_inputs_repeat_for_a_seed,
    test_tracing_changes_no_result,
    test_wrong_reference_is_counted,
    test_metric_names_match_benchmark_json,
]


def main():
    curlkit = run.import_program()
    failed = 0
    for test in TESTS:
        try:
            test(curlkit)
            print(f"ok   {test.__name__}")
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    print(f"{len(TESTS) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
