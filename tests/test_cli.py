import argparse
import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curlkit import auxiliary, cli, darboux, dynamics, exprlang, pathwork
from curlkit._ode import IntegratorStats
from curlkit.problemfile import load_problem

BERRY = {
    "dimension": 2,
    "force": ["-x*y^2", "-x^3"],
    "potentials": {"U": "-(1/x + 1/y)", "V": "x^3*y^2"},
    "domain": [[0.05, 5.0], [0.05, 5.0]],
}
HARMONIC = {"dimension": 2, "force": ["-x", "-y"], "domain": [[-5.0, 5.0], [-5.0, 5.0]]}
TRIPLE = {
    "dimension": 3,
    "force": ["-(y*z)", "-(2*x*z)", "-(x*y)"],
    "potentials": {"V": "y"},
    "domain": [[0.05, 10.0]] * 3,
}


@pytest.fixture
def problem(tmp_path):
    def write(doc, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(tmp_path, *argv):
    """cli.main on argv with --out in tmp_path; returns (code, report or None)."""
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = cli.main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


SIM = ("--x0", "1,0", "--v0", "0,1")


# --- exit codes -------------------------------------------------------------------

def test_exit_ok(tmp_path, problem):
    code, report = run(tmp_path, "classify", problem(BERRY), "--samples", "20")
    assert code == cli.EXIT_OK
    assert report["results"]["class"] == "two-potential"
    assert report["passed"] is True


def test_exit_usage_from_parser(tmp_path, problem):
    code, report = run(tmp_path, "simulate", problem(HARMONIC), "--x0", "1,0")
    assert code == cli.EXIT_USAGE
    assert report is None


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", *SIM, "--t-end", "-1"),
        ("simulate", *SIM, "--t-end", "inf"),
        ("simulate", *SIM, "--t-end", "1", "--atol", "nan"),
        ("trace2d", "--x0", "1,0", "--arclength", "0"),
        # a step this small never advanced t, and the run did not return
        ("simulate", *SIM, "--t-end", "2", "--integrator", "rk4", "--h", "1e-17"),
    ],
)
def test_exit_usage_for_rejected_parameter(tmp_path, problem, capsys, argv):
    code, report = run(tmp_path, argv[0], problem(HARMONIC), *argv[1:])
    assert code == cli.EXIT_USAGE
    assert report is None
    assert "error:" in capsys.readouterr().err


def test_exit_input(tmp_path, problem):
    bad = dict(HARMONIC, force=["-x*", "-y"])
    code, report = run(tmp_path, "classify", problem(bad))
    assert code == cli.EXIT_INPUT
    assert report is None


def test_exit_input_for_a_float_dimension(tmp_path, problem, capsys):
    # 2.0 == 2 passed the check, and simulate died slicing the state by it
    code, report = run(tmp_path, "simulate", problem(dict(HARMONIC, dimension=2.0)), *SIM,
                       "--t-end", "1")
    assert code == cli.EXIT_INPUT
    assert report is None
    assert "dimension: must be 2 or 3, got 2.0" in capsys.readouterr().err


def test_exit_input_for_literal_beyond_double_range(tmp_path, problem, capsys):
    bad = dict(HARMONIC, force=["pow(x - 10, 1e400)", "0"])
    code, report = run(tmp_path, "classify", problem(bad))
    assert code == cli.EXIT_INPUT
    assert report is None
    assert "force[0]: number '1e400' is beyond the double range" in capsys.readouterr().err


def test_overflowing_sum_at_a_probe_point_is_an_input_error(tmp_path, problem, capsys):
    # the sum overflows at every point of [1, 5]^2, the load probe included
    bad = {"dimension": 2, "force": ["sin(x*1e308 + x*1e308)", "y"],
           "domain": [[1.0, 5.0], [1.0, 5.0]]}
    code, report = run(tmp_path, "classify", problem(bad), "--samples", "20")
    assert code == cli.EXIT_INPUT
    assert report is None
    assert "force[0]: probe at (1.0, 1.0) failed: non-finite result" in capsys.readouterr().err


def test_overflowing_sum_inside_the_domain_exits_numerical(tmp_path, problem, capsys):
    # a = 0.5 + 0.45 sin(pi x) is 0.5 at the probe points (integer x) and
    # above 0.9 near x = 1.5, where a*1e308 + a*1e308 overflows
    a = "(0.5 + 0.45*sin(3.141592653589793*x))"
    bad = {"dimension": 2, "force": [f"sin({a}*1e308 + {a}*1e308)", "y"],
           "domain": [[1.0, 5.0], [1.0, 5.0]]}
    code, report = run(tmp_path, "classify", problem(bad), "--samples", "50")
    assert code == cli.EXIT_NUMERICAL
    assert report is None
    assert "non-finite result" in capsys.readouterr().err


def test_decompose3d_exits_numerical_when_the_split_is_not_conservative(
    tmp_path, problem, capsys
):
    probe = {"dimension": 3, "force": ["-(y + z)", "-(y + z)*2*y", "0"],
             "domain": [[0.5, 2.0]] * 3}
    code, report = run(tmp_path, "decompose3d", problem(probe), "--v", "y + z",
                       "--samples", "40")
    assert code == cli.EXIT_NUMERICAL
    assert report is None
    assert "not conservative" in capsys.readouterr().err


def test_exit_numerical_for_nan_start(tmp_path, problem):
    code, report = run(tmp_path, "simulate", problem(HARMONIC), "--x0", "nan,0",
                       "--v0", "0,1", "--t-end", "1")
    assert code == cli.EXIT_NUMERICAL
    assert report is None


def test_exit_numerical_for_non_finite_report(tmp_path, problem, capsys):
    # a NaN delta reaches the report; strict JSON refuses it and no
    # report file is left behind
    code, report = run(tmp_path, "reach2d", problem(BERRY), "--x0", "1,1",
                       "--targets", "2,2", "--delta", "nan", "--steps", "64")
    assert code == cli.EXIT_NUMERICAL
    assert report is None
    assert "non-finite" in capsys.readouterr().err


def test_refused_run_writes_no_artifact(tmp_path, problem):
    # rk4 carries the NaN velocity to the end; the report is refused, and
    # so is the trajectory CSV that would have gone with it
    code, report = run(tmp_path, "simulate", problem(HARMONIC), "--x0", "1,0",
                       "--v0", "nan,1", "--t-end", "1", "--integrator", "rk4")
    assert code == cli.EXIT_NUMERICAL
    assert report is None
    assert list(tmp_path.glob("*.csv")) == []


def test_exit_numerical_for_more_recorded_rows_than_the_cap(tmp_path, problem, capsys):
    # the first step alone would record some 1e10 rows; they were built
    # one by one without a bound
    code, report = run(tmp_path, "simulate", problem(HARMONIC), *SIM, "--t-end", "2",
                       "--record-dt", "1e-12")
    assert code == cli.EXIT_NUMERICAL
    assert report is None
    assert "recorded rows" in capsys.readouterr().err


def test_exit_assertion(tmp_path, problem):
    code, report = run(tmp_path, "classify", problem(BERRY), "--samples", "20",
                       "--assert-class", "conservative")
    assert code == cli.EXIT_ASSERTION
    assert report["passed"] is False
    assert report["assertions"][0]["passed"] is False


# --- report contracts ---------------------------------------------------------------

def test_inputs_digest_is_deterministic(tmp_path, problem):
    path = problem(HARMONIC)
    argv = ("simulate", path, *SIM, "--t-end", "0.5")
    _, first = run(tmp_path, *argv)
    _, second = run(tmp_path, *argv)
    assert first["inputs_digest"] == second["inputs_digest"]
    assert first["timestamp"] != second["timestamp"]
    _, other = run(tmp_path, "simulate", path, *SIM, "--t-end", "0.25")
    assert other["inputs_digest"] != first["inputs_digest"]


def test_trajectory_csv_round_trips_exactly(tmp_path, problem):
    path = problem(BERRY)
    argv = ("simulate", path, "--x0", "1,1", "--v0", "0.3,-0.2", "--t-end", "1",
            "--record-dt", "0.05")
    code, report = run(tmp_path, *argv)
    assert code == cli.EXIT_OK
    cfg = dynamics.SimConfig(t_end=1.0, record_dt=0.05)
    traj = dynamics.integrate(load_problem(path).force, (1, 1), (0.3, -0.2), cfg)
    expected = np.column_stack((traj.t, traj.x, traj.v, traj.kinetic, traj.work))

    with open(report["artifacts"]["trajectory"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "vx", "vy", "K", "Wcum"]
    parsed = np.array([[float(v) for v in row] for row in rows[1:]])
    assert parsed.shape == expected.shape
    assert np.array_equal(parsed, expected)


# the trajectory workload's Berry start, aimed so that t_end 2 runs into the wall
BERRY_AUX = dict(BERRY, regions={"aux": {"box": [[0.1, 4.0], [0.1, 4.0]],
                                         "plan": {"type": "grid", "counts": [12, 12]}}})
NONLOCAL = ("nonlocal-h", "--x0", "1.01,0.99", "--v0", "0.1,-0.1", "--t-end", "2",
            "--region", "aux")


def test_nonlocal_h_series_csv_and_refine(tmp_path, problem):
    path = problem(BERRY_AUX)
    reports, series = {}, {}
    for refine in (1, 4):
        code, reports[refine] = run(tmp_path, NONLOCAL[0], path, *NONLOCAL[1:],
                                    "--refine", str(refine))
        assert code == cli.EXIT_OK
        with open(reports[refine]["artifacts"]["series"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "y", "H"]
        series[refine] = np.array([[float(v) for v in row] for row in rows[1:]])
    one, four = reports[1]["results"], reports[4]["results"]
    assert one["trajectory_exited"] and four["trajectory_exited"]
    assert [len(series[1]), len(series[4])] == [one["samples"], four["samples"]]
    assert four["samples"] == 4 * (one["samples"] - 1) + 1
    assert series[4][0, 3] == four["H0"] == one["H0"]
    assert four["H0"] == pytest.approx(0.5 * (0.1**2 + 0.1**2) - (1 / 1.01 + 1 / 0.99), abs=1e-12)
    # measured 4.8e-3 and 3.5e-6: the 1/V integrand needs finer nodes on long steps
    assert four["drift"] <= 1e-5 < one["drift"]


def test_nonlocal_h_asserts_conservation_on_rk4(tmp_path, problem):
    code, report = run(tmp_path, "nonlocal-h", problem(BERRY_AUX), "--x0", "1,1",
                       "--v0", "0.3,-0.2", "--t-end", "0.5", "--integrator", "rk4",
                       "--h", "2.5e-3", "--region", "aux", "--assert-drift", "1e-12")
    assert code == cli.EXIT_OK
    assert report["assertions"] == [
        {"name": "drift", "value": report["results"]["drift"], "threshold": 1e-12, "passed": True}
    ]


def reference_csv(header, rows):
    """The CSV bytes of the per-value writer: a float as f"{v:.17g}",
    anything else as str(v), one join per row."""

    def fmt(value):
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    lines = [",".join(header) + "\n"] + [",".join(fmt(v) for v in row) + "\n" for row in rows]
    return "".join(lines).encode()


CSV_VALUES = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
              1 / 3, 2.0**53 + 2, float("inf"), float("nan"), np.float64(0.1),
              np.float64(-0.0), np.float64(1 / 3), np.float32(0.1), np.int64(2**62),
              0, 7, -123456789012345678, 2**53 + 1, 10**18, True]


def test_write_csv_matches_the_per_value_writer(tmp_path):
    # rows of mixed and of uniform value types, each type in every column
    rng = np.random.default_rng(5)
    rows = [rng.choice(len(CSV_VALUES), 3).tolist() for _ in range(200)]
    rows = [[CSV_VALUES[i] for i in row] for row in rows]
    rows += [[v, v, v] for v in CSV_VALUES] + [list(r) for r in rng.normal(size=(20, 3))]
    header = ["a", "b", "c"]
    path = tmp_path / "out.csv"
    cli.write_csv(path, header, iter(rows))
    assert path.read_bytes() == reference_csv(header, rows)
    # an ndarray of rows, as decompose3d writes, and an empty series
    rows = np.column_stack([np.arange(5.0), np.linspace(-1, 1, 5) / 3])
    cli.write_csv(path, ["i", "v"], rows)
    assert path.read_bytes() == reference_csv(["i", "v"], rows)
    cli.write_csv(path, ["i", "v"], [])
    assert path.read_bytes() == b"i,v\n"


def numpy_rows(series):
    """The rows of ``series`` as ``cli.emit_series`` built them from NumPy
    rows, before it read them from ``tolist()``."""
    if isinstance(series, dynamics.Trajectory):
        return ([t, *x, *v, k, w] for t, x, v, k, w in
                zip(series.t, series.x, series.v, series.kinetic, series.work))
    if isinstance(series, auxiliary.AuxiliarySeries):
        return ([t, *x, h] for t, x, h in zip(series.t, series.x, series.H))
    if isinstance(series, pathwork.ParamPath):
        verts = series.vertices
        s = np.zeros(len(verts))
        s[1:] = np.cumsum(np.linalg.norm(np.diff(verts, axis=0), axis=1))
        return ([si, *v] for si, v in zip(s, verts))
    return ([i, *row] for i, row in enumerate(series))


def test_emit_series_writes_the_bytes_of_numpy_rows(tmp_path):
    rng = np.random.default_rng(11)
    special = [-0.0, 0.0, 5e-324, 1e150, 0.1, 1 / 3, 2.0**53 + 2]

    def column(n=40):
        scale = 10.0 ** rng.integers(-9, 9, n - len(special))
        return np.concatenate([special, rng.normal(size=n - len(special)) * scale])

    t, x, v = column(), np.column_stack([column(), column()]), np.column_stack([column(), column()])
    series = [
        dynamics.Trajectory(t, x, v, column(), column(), None, 1.0, False, None,
                            IntegratorStats()),
        auxiliary.AuxiliarySeries(t, x, column(), 0.0, False),
        pathwork.ParamPath.polyline(np.column_stack([column(), column(), column()])),
        np.column_stack([column(), column(), column()]),
    ]
    for one in series:
        path = tmp_path / "series.csv"
        cli.emit_series(one, path)
        header = path.read_text().split("\n", 1)[0].split(",")
        cli.write_csv(tmp_path / "rows.csv", header, numpy_rows(one))
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert path.read_bytes() == reference_csv(header, numpy_rows(one))


RESIDUAL_KEYS = {"max", "rms", "min", "worst_point", "definition", "sample_count"}


def test_verify_results_keys(tmp_path, problem):
    code, report = run(tmp_path, "verify", problem(BERRY), "--samples", "20")
    assert code == cli.EXIT_OK
    assert set(report["results"]) == RESIDUAL_KEYS


def test_gauge_results_keys(tmp_path, problem):
    code, report = run(tmp_path, "gauge", problem(BERRY), "--samples", "20",
                       "--f", "exp(u)")
    assert code == cli.EXIT_OK
    results = report["results"]
    assert set(results) == {"gauge", "u_prime", "v_prime", "residual_before", "residual_after"}
    assert set(results["residual_before"]) == RESIDUAL_KEYS
    assert set(results["residual_after"]) == RESIDUAL_KEYS


def test_decompose3d_results_keys(tmp_path, problem):
    code, report = run(tmp_path, "decompose3d", problem(TRIPLE), "--samples", "10")
    assert code == cli.EXIT_OK
    results = report["results"]
    assert set(results) == {"sum_identity", "gauge_orthogonality", "curl_f_c",
                            "curl_f_nc_agreement"}
    for rep in results.values():
        assert set(rep) == RESIDUAL_KEYS
    with open(report["artifacts"]["samples"], newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 10


def test_gauge_prints_derivative_trees_that_parse_back(tmp_path, problem):
    # f'(u) = abs(u) + u*sign(u) holds the sign builtin
    code, report = run(tmp_path, "gauge", problem(BERRY), "--samples", "20",
                       "--f", "u*abs(u)")
    assert code == cli.EXIT_OK
    v_prime = report["results"]["v_prime"]
    assert "sign(" in v_prime
    assert exprlang.to_source(exprlang.parse(v_prime, 2)) == v_prime


# --- the options of each command ------------------------------------------------------

# BERRY with a closed square path and a 3 x 3 grid region inside the domain
BERRY_DECLARED = dict(
    BERRY,
    paths={"square": {"type": "polyline", "vertices": [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]],
                      "closed": True}},
    regions={"box": {"box": [[1, 2], [1, 2]], "plan": {"type": "grid", "counts": [3, 3]}}},
)
AUX = ("--x0", "1,1", "--v0", "0.1,-0.1", "--t-end", "0.1")
SIM_KEYS = {"x0", "v0", "t_end", "mass", "integrator", "h", "atol", "rtol", "h_max",
            "record_dt"}
SAMPLED_KEYS = {"region", "seed", "samples"}

# each command's argv after the problem, and the keys of its report's parameters
COMMAND_PARAMETERS = [
    (BERRY_DECLARED, ("classify", "--samples", "20"),
     SAMPLED_KEYS | {"mode", "assert_class"}),
    (BERRY_DECLARED, ("verify", "--samples", "20"), SAMPLED_KEYS | {"mode", "assert_residual"}),
    (BERRY_DECLARED, ("vpde", "--samples", "20"),
     SAMPLED_KEYS | {"mode", "v", "assert_residual"}),
    (BERRY_DECLARED, ("gauge", "--samples", "20", "--f", "exp(u)"),
     SAMPLED_KEYS | {"f", "assert_residual"}),
    (TRIPLE, ("decompose3d", "--samples", "10"), SAMPLED_KEYS | {"v", "assert_curl_fc"}),
    (TRIPLE, ("characteristics", "--x0", "1,1,1", "--s-max", "0.1", "--steps", "20"),
     {"v", "x0", "s_max", "steps", "assert_deviation", "assert_deviation_min"}),
    (HARMONIC, ("simulate", *SIM, "--t-end", "0.1"), SIM_KEYS | {"assert_energy_residual"}),
    (BERRY_DECLARED, ("work", "--path", "square"), {"path", "assert_value", "tol"}),
    (BERRY_DECLARED, ("stokes", "--path", "square"), {"path", "assert_value", "tol"}),
    (BERRY_DECLARED, ("auxiliary", *AUX, "--region", "box"),
     SIM_KEYS | {"region", "rep_tol", "assert_drift"}),
    (BERRY_DECLARED, ("nonlocal-h", *AUX, "--region", "box"),
     SIM_KEYS | {"region", "rep_tol", "refine", "assert_drift"}),
    (BERRY, ("trace2d", "--x0", "1,1", "--arclength", "0.1", "--steps", "16"),
     {"x0", "arclength", "steps", "assert_work"}),
    (BERRY, ("reach2d", "--x0", "1,1", "--targets", "1.1,1.1", "--arclength", "0.1",
             "--steps", "16"),
     {"x0", "targets", "delta", "arclength", "steps"}),
    (TRIPLE, ("maneuver3d", "--x0", "1,1,1", "--eps", "0.05"), {"x0", "eps", "assert_work"}),
]


def test_every_command_is_pinned():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(argv[0] for _, argv, _ in COMMAND_PARAMETERS)


@pytest.mark.parametrize("doc,argv,keys", COMMAND_PARAMETERS,
                         ids=[argv[0] for _, argv, _ in COMMAND_PARAMETERS])
def test_report_parameters_are_the_options_the_command_reads(tmp_path, problem, doc, argv,
                                                             keys):
    code, report = run(tmp_path, argv[0], problem(doc), *argv[1:])
    assert code == cli.EXIT_OK
    assert set(report["parameters"]) == keys


@pytest.mark.parametrize("argv", [
    ("simulate", *SIM, "--t-end", "0.1", "--seed", "1"),
    ("work", "--path", "square", "--mode", "fd"),
    ("gauge", "--f", "exp(u)", "--mode", "fd"),
])
def test_an_option_the_command_does_not_read_is_a_usage_error(tmp_path, problem, capsys,
                                                              argv):
    code, report = run(tmp_path, argv[0], problem(BERRY_DECLARED), *argv[1:])
    assert code == cli.EXIT_USAGE
    assert report is None
    assert "unrecognized arguments" in capsys.readouterr().err


def test_classify_samples_the_named_region(tmp_path, problem):
    code, report = run(tmp_path, "classify", problem(BERRY_DECLARED), "--region", "box")
    assert code == cli.EXIT_OK
    assert report["results"]["sample_count"] == 9
    assert report["results"]["class"] == "two-potential"


def test_undeclared_region_is_an_input_error(tmp_path, problem, capsys):
    code, report = run(tmp_path, "classify", problem(BERRY_DECLARED), "--region", "nowhere")
    assert code == cli.EXIT_INPUT
    assert report is None
    assert "region 'nowhere' not declared (have: ['box'])" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["auxiliary", "nonlocal-h"])
def test_auxiliary_commands_require_a_region(tmp_path, problem, capsys, command):
    code, report = run(tmp_path, command, problem(BERRY_DECLARED), *AUX)
    assert code == cli.EXIT_USAGE
    assert report is None
    assert "--region" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-3"])
@pytest.mark.parametrize("doc,argv", [
    (BERRY, ("trace2d", "--x0", "1,1", "--arclength", "0.5", "--steps")),
    (BERRY, ("reach2d", "--x0", "1,1", "--targets", "1.1,1.1", "--arclength", "0.5",
             "--steps")),
    (TRIPLE, ("characteristics", "--x0", "1,1,1", "--s-max", "0.5", "--steps")),
    (BERRY_DECLARED, ("nonlocal-h", *AUX, "--region", "box", "--refine")),
], ids=["trace2d", "reach2d", "characteristics", "nonlocal-h"])
def test_steps_below_one_is_a_usage_error(tmp_path, problem, capsys, doc, argv, steps):
    # argv ends with the option that takes the count
    code, report = run(tmp_path, argv[0], problem(doc), *argv[1:], steps)
    assert code == cli.EXIT_USAGE
    assert report is None
    assert f"{argv[-1][2:]} must be >= 1" in capsys.readouterr().err


def test_string_domain_bound_is_an_input_error(tmp_path, problem, capsys):
    # it loaded as the number -5, and work on it exited 0
    bad = dict(BERRY_DECLARED, domain=[["0.05", 5.0], [0.05, 5.0]])
    code, report = run(tmp_path, "work", problem(bad), "--path", "square")
    assert code == cli.EXIT_INPUT
    assert report is None
    assert "domain: box bounds must be finite numbers, got '0.05'" in capsys.readouterr().err


def test_vertex_dimension_unlike_the_problem_is_an_input_error(tmp_path, problem, capsys):
    # it loaded, and work exited 3 with "field and path dimensions differ"
    bad = dict(BERRY_DECLARED, paths={"square": {"type": "polyline",
                                                 "vertices": [[1, 1, 1], [2, 2, 2]]}})
    code, report = run(tmp_path, "work", problem(bad), "--path", "square")
    assert code == cli.EXIT_INPUT
    assert report is None
    assert "paths.square: polyline vertices must have 2 coordinates each" in capsys.readouterr().err


# --- one parser per process, builtin SHA-256 -----------------------------------------


def _fresh_process(argv, cwd):
    """cli.main on argv in a new interpreter; returns its exit code."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys; from curlkit import cli; sys.exit(cli.main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True).returncode


def test_one_parser_serves_every_command_of_a_process(tmp_path, problem, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: builds.append(1) or real())
    path = problem(BERRY)
    commands = [
        ("classify", path, "--samples", "20"),
        ("simulate", path, "--x0", "1,1"),  # no --v0: a usage error
        ("verify", path, "--samples", "20", "--seed", "3"),
        ("classify", path, "--samples", "20"),
    ]
    in_process = [run(tmp_path, *argv) for argv in commands]
    assert len(builds) <= 1 and cli._parser() is cli._parser()
    assert [code for code, _ in in_process] == [cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_OK]
    for argv, (code, report) in zip(commands, in_process):
        out = tmp_path / "fresh.json"
        out.unlink(missing_ok=True)
        assert _fresh_process([*argv, "--out", str(out)], tmp_path) == code
        fresh = json.loads(out.read_text()) if out.exists() else None
        assert (fresh is None) == (report is None)
        if report is not None:
            assert fresh["results"] == report["results"]
            assert fresh["inputs_digest"] == report["inputs_digest"]


def test_digest_takes_the_builtin_sha256():
    data = bytes(range(256)) * 300
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    h = cli.sha256()
    h.update(b"curl")
    h.update(b"kit")
    assert h.hexdigest() == hashlib.sha256(b"curlkit").hexdigest()
    if importlib.util.find_spec("_sha256") or importlib.util.find_spec("_sha2"):
        assert cli.sha256 is not hashlib.sha256


# --- the process-wide parse cache ------------------------------------------------------


def test_a_second_gauge_run_emits_nothing(tmp_path, problem, monkeypatch):
    built = []
    function = exprlang._Emitter.function
    monkeypatch.setattr(exprlang._Emitter, "function",
                        lambda self, roots: built.append(roots) or function(self, roots))
    argv = ("gauge", problem(BERRY), "--samples", "50", "--f", "exp(u)")
    first = run(tmp_path, *argv)
    assert first[0] == cli.EXIT_OK
    built.clear()
    second = run(tmp_path, *argv)
    assert built == []
    assert second[1]["results"] == first[1]["results"]


def _run_workloads(workloads):
    """The report (timestamp aside) and the artifact bytes of every command."""
    out = {}
    for workload in workloads:
        for command in workload.commands:
            assert cli.main(list(command.argv)) == cli.EXIT_OK, command.label
            report = json.loads(command.out.read_text())
            del report["timestamp"]
            artifacts = {k: Path(p).read_bytes() for k, p in report["artifacts"].items()}
            out[workload.name, command.label] = report, artifacts
    return out


def test_every_workload_command_repeats_its_report_and_csv(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    built = []
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        built.append(workloads.build(name, 101, tmp_path / name))
        built[-1].write_files(tmp_path / name)
    first = _run_workloads(built)
    emitted = []
    function = exprlang._Emitter.function
    monkeypatch.setattr(exprlang._Emitter, "function",
                        lambda self, roots: emitted.append(roots) or function(self, roots))
    assert _run_workloads(built) == first  # every tree from the cache
    assert emitted == []
    exprlang._parsed.cache_clear()
    darboux._GAUGE_TREES.clear()
    assert _run_workloads(built) == first  # every tree parsed again
    assert {label for _, label in first} >= {"gauge", "simulate-rk4", "nonlocal-h", "maneuver3d"}


# --- the names the benchmark's tracer patches -----------------------------------------


def test_every_traced_name_exists_and_is_restored(monkeypatch):
    # the benchmark's timed runs are untraced, so a renamed or deleted name
    # would otherwise fail only the traced run
    import curlkit

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(curlkit)
        patched = list(tracer._patches)
        for owner, attr, _ in patched:
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
    finally:
        tracer.uninstall()
    assert {attr for _, attr, _ in patched} >= set(tracing.AUXILIARY_API)
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
