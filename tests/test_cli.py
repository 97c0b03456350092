import argparse
import csv
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curlkit import _ode, auxiliary, cli, dynamics, exprlang, pathwork
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


REACH = ("reach2d", "--x0", "1,1", "--targets", "1.1,1.1")


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize("doc,argv,name", [
    (BERRY, ("trace2d", "--x0", "1,1", "--arclength"), "arclength"),
    (BERRY, (*REACH, "--arclength"), "arclength"),
    (BERRY, (*REACH, "--delta"), "delta"),
    (TRIPLE, ("characteristics", "--x0", "1,1,1", "--s-max"), "s_max"),
    (TRIPLE, ("maneuver3d", "--x0", "1,1,1", "--eps"), "eps"),
], ids=["trace2d", "reach2d-arclength", "reach2d-delta", "characteristics", "maneuver3d"])
def test_a_span_or_delta_not_positive_and_finite_is_a_usage_error(tmp_path, problem, capsys,
                                                                  doc, argv, name, value):
    # inf ended in a NumPy warning and exit 3, nan took no step, and a
    # negative --delta exited 0 with every target unreachable
    code, report = run(tmp_path, argv[0], problem(doc), *argv[1:], value)
    assert code == cli.EXIT_USAGE
    assert report is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]
    assert capsys.readouterr().err == (
        f"error: {name} must be positive and finite, got {float(value)!r}\n")


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("doc,argv,option", [
    (HARMONIC, ("simulate", "--x0", "1,{}", "--v0", "0,1", "--t-end", "1"), "--x0"),
    (HARMONIC, ("simulate", "--x0", "1,0", "--v0", "0,{}", "--t-end", "1",
                "--integrator", "rk4"), "--v0"),
    (BERRY, ("reach2d", "--x0", "1,1", "--targets", "1.1,1.1;2,{}", "--steps", "64"),
     "--targets"),
], ids=["x0", "v0", "targets"])
def test_a_non_finite_vector_component_is_a_usage_error(tmp_path, problem, capsys, doc, argv,
                                                        option, value):
    # each exited 3: a start outside the domain, or a non-finite number in the report
    argv = [a.format(value) for a in argv]
    code, report = run(tmp_path, argv[0], problem(doc), *argv[1:])
    assert code == cli.EXIT_USAGE
    assert report is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]
    text = argv[argv.index(option) + 1].split(";")[-1]
    assert capsys.readouterr().err == f"error: {option}: expected finite numbers, got {text!r}\n"


def test_exit_numerical_for_a_start_outside_the_domain(tmp_path, problem, capsys):
    code, report = run(tmp_path, "simulate", problem(HARMONIC), "--x0", "9,0",
                       "--v0", "0,1", "--t-end", "1")
    assert code == cli.EXIT_NUMERICAL
    assert report is None
    assert "initial position outside field domain" in capsys.readouterr().err


def test_a_tolerance_too_small_for_the_error_norm_is_a_numerical_failure(tmp_path, problem):
    # the scaled error estimate overflowed in NumPy's square: a RuntimeWarning,
    # and a traceback under error::RuntimeWarning; its square is now inf, and
    # the step shrinks to underflow
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "curlkit.cli", "simulate", problem(BERRY), "--x0", "1,1",
         "--v0", "0.1,-0.1", "--t-end", "0.5", "--atol", "1e-300", "--rtol", "1e-300",
         "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="error::RuntimeWarning"))
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert not out.exists()
    assert proc.stderr == "numerical failure: step size underflow at t=0.0\n"


@pytest.mark.parametrize("integrator", ["rk4", "dopri45"])
def test_a_mass_with_no_finite_reciprocal_is_a_usage_error(tmp_path, problem, capsys,
                                                           integrator):
    # 1 / 1e-320 is inf: rk4 ran into the report's non-finite guard and dopri45
    # into a NaN error estimate, each exit 3
    code, report = run(tmp_path, "simulate", problem(HARMONIC), *SIM, "--t-end", "1",
                       "--mass", "1e-320", "--integrator", integrator)
    assert code == cli.EXIT_USAGE
    assert report is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]
    assert capsys.readouterr().err == "error: mass must have a finite reciprocal, got 1e-320\n"


def test_a_target_too_far_for_its_distance_is_a_numerical_failure(tmp_path, problem):
    # the squared distance overflowed with two RuntimeWarnings, and the run
    # ended in the report's non-finite guard; the target is named now
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "curlkit.cli", "reach2d", problem(BERRY), "--x0", "1,1",
         "--targets", "1e308,1e308", "--steps", "64", "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="error::RuntimeWarning"))
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]
    assert proc.stderr == ("numerical failure: distance from target (1e+308, 1e+308) "
                           "to the trace is not finite\n")


def test_exit_numerical_for_non_finite_report(tmp_path, problem, capsys, monkeypatch):
    # strict JSON refuses the NaN residual, and no report file is left behind
    monkeypatch.setattr(dynamics, "work_energy_residual", lambda traj: float("nan"))
    code, report = run(tmp_path, "simulate", problem(HARMONIC), *SIM, "--t-end", "1")
    assert code == cli.EXIT_NUMERICAL
    assert report is None
    assert "non-finite" in capsys.readouterr().err


def test_refused_run_writes_no_artifact(tmp_path, problem, monkeypatch):
    # simulate queues its trajectory CSV before the report is refused; the
    # CSV is refused with it
    monkeypatch.setattr(dynamics, "work_energy_residual", lambda traj: float("nan"))
    code, report = run(tmp_path, "simulate", problem(HARMONIC), *SIM, "--t-end", "1",
                       "--integrator", "rk4")
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


def test_inputs_digest_and_results_do_not_depend_on_the_hash_seed(tmp_path, problem):
    # a random plan, classify's statistics and the digest are the same in
    # processes whose str hashes, and so set and dict orders, differ
    path = problem(BERRY)
    reports = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"report-{hash_seed}.json"
        argv = ["classify", path, "--samples", "50", "--seed", "7", "--out", str(out)]
        assert _fresh_process(argv, tmp_path, PYTHONHASHSEED=hash_seed) == cli.EXIT_OK
        reports.append(json.loads(out.read_text()))
    first, second = reports
    assert first["results"] == second["results"]
    assert first["inputs_digest"] == second["inputs_digest"]


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


@pytest.mark.parametrize("v,bound,code", [("x", "1e-6", cli.EXIT_OK),
                                          ("y", "1e-20", cli.EXIT_ASSERTION)])
def test_assert_deviation_min_records_the_deviation_and_its_bound(tmp_path, problem, v, bound,
                                                                  code):
    # y is invariant along the characteristics, x is not; the record held
    # the negated deviation and bound
    got, report = run(tmp_path, "characteristics", problem(TRIPLE), "--v", v, "--x0", "1,1,1",
                      "--s-max", "1", "--steps", "50", "--assert-deviation-min", bound)
    assert got == code
    assert report["assertions"] == [
        {"name": "deviation_at_least", "value": report["results"]["deviation"],
         "threshold": float(bound), "passed": code == cli.EXIT_OK}
    ]


def reference_csv(header, rows):
    """The CSV bytes of the per-value writer: a float as f"{v:.17g}",
    anything else as str(v), one join per row."""

    def fmt(value):
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    lines = [",".join(header) + "\n"] + [",".join(fmt(v) for v in row) + "\n" for row in rows]
    return "".join(lines).encode()


# signed zeros, subnormals, the largest finite values, infinities, NaN, and
# values whose shortest round trip takes all 17 significant digits (0.1 + 0.2,
# 1 / 3)
CSV_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1e308, -1e308,
              1.7976931348623157e308, -1.7976931348623157e308, float("inf"), float("-inf"),
              float("nan"), 0.1, 0.1 + 0.2, 1 / 3, -2 / 3, 2.0**53 + 2, np.float64(0.1),
              np.float64(-0.0), np.float64(1 / 3)]


def test_write_csv_matches_the_per_value_writer(tmp_path):
    # 1,000 rows of mixed values, rows of one value in every column, and
    # normal draws over 40 decades, many of which need 17 digits
    rng = np.random.default_rng(5)
    rows = [[CSV_VALUES[i] for i in rng.choice(len(CSV_VALUES), 4)] for _ in range(1000)]
    rows += [[v] * 4 for v in CSV_VALUES]
    rows += (rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-20, 20, (200, 4))).tolist()
    header = ["a", "b", "c", "d"]
    path = tmp_path / "out.csv"
    table = np.array(rows)
    # the series as one (N, 4) column, as (N,) and (N, k) columns, and as (N,) columns
    splits = ((table,), (table[:, 0], table[:, 1:]), (table[:, :2], table[:, 2], table[:, 3:]),
              tuple(table.T))
    for columns in splits:
        cli.write_csv(path, header, columns)
        assert path.read_bytes() == reference_csv(header, rows)
    cli.write_csv(path, ["i", "v"], (np.zeros(0), np.zeros((0, 1))))
    assert path.read_bytes() == b"i,v\n"


def numpy_rows(series):
    """The rows of ``series`` built from NumPy rows, as the CSV tables were
    before they read them from ``tolist()``."""
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


def test_each_series_table_writes_the_bytes_of_numpy_rows(tmp_path):
    rng = np.random.default_rng(11)
    special = [-0.0, 0.0, 5e-324, 1e150, 0.1, 1 / 3, 2.0**53 + 2]

    def column(n=40, k=None):
        if k is not None:
            return np.column_stack([column(n) for _ in range(k)])
        scale = 10.0 ** rng.integers(-9, 9, n - len(special))
        return np.concatenate([special, rng.normal(size=n - len(special)) * scale])

    t, x, v = column(), column(k=2), column(k=2)
    traj = dynamics.Trajectory(t, x, v, column(), column(), None, False, None,
                               IntegratorStats())
    aux = auxiliary.AuxiliarySeries(t, x, column(), 0.0, False)
    trace = pathwork.ParamPath.polyline(column(k=2))
    arclength = [row[0] for row in numpy_rows(trace)]
    points = column(k=3)
    split = (column(k=3), column(k=3), column(k=3), column(k=3))
    # each series' header and columns as its command passes them to emit, and
    # the rows the per-row tables wrote
    series = [
        (*cli.trajectory_table(traj), numpy_rows(traj)),
        (["t", "x", "y", "H"], (aux.t, aux.x, aux.H), numpy_rows(aux)),
        (["s", "x", "y"], (np.array(arclength), trace.vertices), numpy_rows(trace)),
        (["i", "x", "y", "z"], (np.arange(len(points)), points), numpy_rows(points)),
        ([f"c{j}" for j in range(12)], split, np.hstack(split)),
    ]
    path = tmp_path / "series.csv"
    for header, columns, rows in series:
        cli.write_csv(path, header, columns)
        assert path.read_bytes() == reference_csv(header, rows)


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
# an option read only under another option's value is a parameter only there
SIM_KEYS = {"x0", "v0", "t_end", "mass", "integrator", "atol", "rtol", "h_max", "record_dt"}
RK4_KEYS = {"x0", "v0", "t_end", "mass", "integrator", "h", "record_dt"}
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
    (BERRY_DECLARED, ("work", "--path", "square"), {"path", "assert_value"}),
    (BERRY_DECLARED, ("stokes", "--path", "square"), {"path", "assert_value"}),
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

# the same for the other side of each condition that drops an option
CONDITIONAL_PARAMETERS = [
    (BERRY_DECLARED, ("classify", "--region", "box"), {"region", "mode", "assert_class"}),
    (HARMONIC, ("simulate", *SIM, "--t-end", "0.1", "--integrator", "rk4"),
     RK4_KEYS | {"assert_energy_residual"}),
    (BERRY_DECLARED, ("work", "--path", "square", "--assert-value", "-2.5"),
     {"path", "assert_value", "tol"}),
]


# each command that writes a series: its argv after the problem, the artifact
# and its CSV header
SERIES_HEADERS = [
    (HARMONIC, ("simulate", *SIM, "--t-end", "0.1"), "trajectory", "t,x,y,vx,vy,K,Wcum"),
    (BERRY_DECLARED, ("auxiliary", *AUX, "--region", "box"), "trajectory",
     "t,x,y,vx,vy,K,Wcum"),
    (BERRY_DECLARED, ("nonlocal-h", *AUX, "--region", "box"), "series", "t,x,y,H"),
    (BERRY, ("trace2d", "--x0", "1,1", "--arclength", "0.1", "--steps", "16"), "trace",
     "s,x,y"),
    (TRIPLE, ("maneuver3d", "--x0", "1,1,1", "--eps", "0.05"), "path", "i,x,y,z"),
    (TRIPLE, ("decompose3d", "--samples", "10"), "samples",
     "x,y,z,gradU_x,gradU_y,gradU_z,Fc_x,Fc_y,Fc_z,Fnc_x,Fnc_y,Fnc_z"),
]


@pytest.mark.parametrize("doc,argv,kind,header", SERIES_HEADERS,
                         ids=[argv[0] for _, argv, _, _ in SERIES_HEADERS])
def test_each_series_csv_has_its_header(tmp_path, problem, doc, argv, kind, header):
    code, report = run(tmp_path, argv[0], problem(doc), *argv[1:])
    assert code == cli.EXIT_OK
    assert list(report["artifacts"]) == [kind]
    with open(report["artifacts"][kind], newline="") as fh:
        rows = list(csv.reader(fh))
    assert ",".join(rows[0]) == header
    body = np.array(rows[1:], dtype=float)
    assert body.shape[0] > 1 and body.shape[1] == len(rows[0])
    # a trace's first column is the arclength along its vertices, a path's the row index
    if kind == "trace":
        steps = np.linalg.norm(np.diff(body[:, 1:], axis=0), axis=1)
        assert np.array_equal(body[:, 0], np.concatenate([[0.0], np.cumsum(steps)]))
    if kind == "path":
        assert np.array_equal(body[:, 0], np.arange(len(body)))


def test_every_command_is_pinned():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(argv[0] for _, argv, _ in COMMAND_PARAMETERS)


@pytest.mark.parametrize("doc,argv,keys", COMMAND_PARAMETERS + CONDITIONAL_PARAMETERS,
                         ids=[argv[0] for _, argv, _ in COMMAND_PARAMETERS]
                         + ["classify-region", "simulate-rk4", "work-assert-value"])
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


@pytest.mark.parametrize("doc,argv,message", [
    (HARMONIC, ("simulate", *SIM, "--t-end", "0.1", "--h", "0.5"),
     "--h is read only with --integrator rk4"),
    (HARMONIC, ("simulate", *SIM, "--t-end", "0.1", "--integrator", "rk4", "--atol", "5"),
     "--atol is read only with --integrator dopri45"),
    (HARMONIC, ("simulate", *SIM, "--t-end", "0.1", "--integrator", "rk4", "--rtol", "1e-6"),
     "--rtol is read only with --integrator dopri45"),
    (HARMONIC, ("simulate", *SIM, "--t-end", "0.1", "--integrator", "rk4", "--h-max", "0.01"),
     "--h-max is read only with --integrator dopri45"),
    (BERRY_DECLARED, ("auxiliary", *AUX, "--region", "box", "--h", "0.01"),
     "--h is read only with --integrator rk4"),
    (BERRY_DECLARED, ("work", "--path", "square", "--tol", "1e-3"),
     "--tol is read only with --assert-value"),
    (BERRY_DECLARED, ("stokes", "--path", "square", "--tol", "1e-3"),
     "--tol is read only with --assert-value"),
    (BERRY_DECLARED, ("classify", "--region", "box", "--seed", "3"),
     "--seed is read only without --region"),
    (BERRY_DECLARED, ("verify", "--region", "box", "--samples", "30"),
     "--samples is read only without --region"),
], ids=["h-dopri45", "atol-rk4", "rtol-rk4", "h-max-rk4", "h-auxiliary", "tol-work",
        "tol-stokes", "seed-region", "samples-region"])
def test_an_option_read_only_under_another_value_is_a_usage_error(tmp_path, problem, capsys,
                                                                   doc, argv, message):
    # each was accepted and then ignored
    code, report = run(tmp_path, argv[0], problem(doc), *argv[1:])
    assert code == cli.EXIT_USAGE
    assert report is None
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("doc,default,given", [
    (HARMONIC, ("simulate", *SIM, "--t-end", "0.1"),
     ("--atol", "1e-9", "--rtol", "1e-9")),
    (HARMONIC, ("simulate", *SIM, "--t-end", "0.1", "--integrator", "rk4"), ("--h", "0.001")),
    (BERRY_DECLARED, ("classify",), ("--seed", "0", "--samples", "200")),
    (BERRY_DECLARED, ("work", "--path", "square", "--assert-value", "0"), ("--tol", "1e-9")),
], ids=["dopri45", "rk4", "classify", "work"])
def test_a_default_reads_as_the_option_given(tmp_path, problem, doc, default, given):
    # defaults are filled in before the report takes the parameters, so the
    # digest of a command line does not depend on whether a default is spelled out
    path = problem(doc)
    code, implied = run(tmp_path, default[0], path, *default[1:])
    assert code in (cli.EXIT_OK, cli.EXIT_ASSERTION)
    code, spelled = run(tmp_path, default[0], path, *default[1:], *given)
    assert code in (cli.EXIT_OK, cli.EXIT_ASSERTION)
    assert implied["parameters"] == spelled["parameters"]
    assert implied["inputs_digest"] == spelled["inputs_digest"]
    for name, value in zip(given[::2], given[1::2]):
        assert implied["parameters"][name[2:]] == float(value)


@pytest.mark.parametrize("targets", ["", ";", ";;"])
def test_reach2d_without_a_target_is_a_usage_error(tmp_path, problem, capsys, targets):
    # it exited 0 with "verdicts": []
    code, report = run(tmp_path, "reach2d", problem(BERRY), "--x0", "1,1", "--targets", targets,
                       "--arclength", "0.1", "--steps", "16")
    assert code == cli.EXIT_USAGE
    assert report is None
    assert "--targets: expected at least one point" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ("classify",),
    ("auxiliary", *AUX),
    ("nonlocal-h", *AUX),
], ids=["classify", "auxiliary", "nonlocal-h"])
def test_an_empty_region_is_an_undeclared_region(tmp_path, problem, capsys, argv):
    # classify sampled the domain and exited 0; auxiliary and nonlocal-h
    # crashed looking for the --samples they do not take
    code, report = run(tmp_path, argv[0], problem(BERRY_DECLARED), *argv[1:], "--region", "")
    assert code == cli.EXIT_INPUT
    assert report is None
    assert "region '' not declared (have: ['box'])" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("classify", "--samples", "5"),
    ("simulate", *SIM, "--t-end", "0.1"),
], ids=["classify", "simulate"])
def test_an_empty_out_is_a_usage_error(tmp_path, problem, capsys, monkeypatch, argv):
    # classify wrote classify.json into the working directory and exited 0
    path = problem(HARMONIC)
    monkeypatch.chdir(tmp_path)
    code = cli.main([argv[0], path, *argv[1:], "--out", ""])
    assert code == cli.EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]
    assert capsys.readouterr().err == "error: --out: expected a path, got ''\n"


@pytest.mark.parametrize("v", ["", "   "])
@pytest.mark.parametrize("doc,argv", [
    (BERRY, ("vpde", "--samples", "20")),
    (TRIPLE, ("decompose3d", "--samples", "10")),
    (TRIPLE, ("characteristics", "--x0", "1,1,1", "--s-max", "0.1")),
], ids=["vpde", "decompose3d", "characteristics"])
def test_an_empty_v_is_a_parse_error(tmp_path, problem, capsys, doc, argv, v):
    # an empty --v fell back to the problem's V and exited 0
    code, report = run(tmp_path, argv[0], problem(doc), *argv[1:], "--v", v)
    assert code == cli.EXIT_INPUT
    assert report is None
    assert "input error: --v:" in capsys.readouterr().err


@pytest.mark.parametrize("box", [[[1, 2], [1, 2], [1, 2]], [[1, 2]]], ids=["3-axes", "1-axis"])
def test_a_region_box_of_another_dimension_is_an_input_error(tmp_path, problem, capsys, box):
    # it loaded, and the sampled rows failed the force's shape check: exit 3
    doc = dict(BERRY, regions={"r": {"box": box, "plan": {"type": "random", "count": 4}}})
    code, report = run(tmp_path, "classify", problem(doc), "--region", "r")
    assert code == cli.EXIT_INPUT
    assert report is None
    assert "regions.r.box: must be 2 [lo, hi] pairs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["auxiliary", "nonlocal-h"])
def test_auxiliary_commands_require_a_region(tmp_path, problem, capsys, command):
    code, report = run(tmp_path, command, problem(BERRY_DECLARED), *AUX)
    assert code == cli.EXIT_USAGE
    assert report is None
    assert "--region" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["auxiliary", "nonlocal-h"])
def test_a_rep_tol_not_positive_and_finite_is_a_usage_error(tmp_path, problem, capsys, command,
                                                            value):
    # nan and inf ran the whole integration into the report's non-finite
    # guard; 0 and -1 claimed the potentials fail to represent the force
    code, report = run(tmp_path, command, problem(BERRY_DECLARED), *AUX, "--region", "box",
                       "--rep-tol", value)
    assert code == cli.EXIT_USAGE
    assert report is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]
    want = f"error: rep_tol must be positive and finite, got {float(value)!r}\n"
    assert capsys.readouterr().err == want


ZERO_V = {"dimension": 2, "force": ["0", "0"], "potentials": {"U": "x", "V": "0"},
          "domain": [[-1.0, 1.0], [-1.0, 1.0]],
          "regions": {"r": {"box": [[-0.5, 0.5], [-0.5, 0.5]],
                            "plan": {"type": "grid", "counts": [3, 3]}}}}


@pytest.mark.parametrize("command", ["auxiliary", "nonlocal-h"])
def test_a_v_that_is_zero_on_the_region_is_below_its_floor(tmp_path, problem, capsys, command):
    # max |V| = 0 made the floor 0, which min |V| = 0 passed: the 1/V
    # rescaling divided by zero
    code, report = run(tmp_path, command, problem(ZERO_V), "--x0", "0,0", "--v0", "0.1,0",
                       "--t-end", "0.1", "--region", "r")
    assert code == cli.EXIT_NUMERICAL
    assert report is None
    assert "|V| falls below its floor 0.000e+00 on the region" in capsys.readouterr().err


@pytest.mark.parametrize("doc,argv,dim", [
    (TRIPLE, ("trace2d", "--x0", "1,1", "--arclength", "0.1"), 2),
    (TRIPLE, ("reach2d", "--x0", "1,1", "--targets", "1.1,1.1"), 2),
    (BERRY, ("decompose3d", "--samples", "10"), 3),
    (BERRY, ("characteristics", "--x0", "1,1,1", "--s-max", "0.1"), 3),
    (BERRY, ("maneuver3d", "--x0", "1,1,1", "--eps", "0.05"), 3),
], ids=["trace2d", "reach2d", "decompose3d", "characteristics", "maneuver3d"])
def test_a_command_on_the_wrong_dimension_is_an_input_error(tmp_path, problem, capsys, doc,
                                                            argv, dim):
    code, report = run(tmp_path, argv[0], problem(doc), *argv[1:])
    assert code == cli.EXIT_INPUT
    assert report is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]  # no CSV either
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"{dim}D" in err


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


@pytest.mark.parametrize("doc,argv", [
    (BERRY, ("trace2d", "--x0", "1,1", "--arclength", "0.5")),
    (BERRY, ("reach2d", "--x0", "1,1", "--targets", "1.1,1.1", "--arclength", "0.5")),
    (TRIPLE, ("characteristics", "--x0", "1,1,1", "--s-max", "0.5")),
], ids=["trace2d", "reach2d", "characteristics"])
def test_steps_above_the_step_cap_is_a_usage_error(tmp_path, problem, capsys, monkeypatch,
                                                   doc, argv):
    # the sampler takes one theta per sample, so a huge --steps ran out of memory
    monkeypatch.setattr(_ode, "_MAX_STEPS", 100)
    path = problem(doc)
    code, report = run(tmp_path, argv[0], path, *argv[1:], "--steps", "101")
    assert code == cli.EXIT_USAGE
    assert report is None
    assert capsys.readouterr().err == "error: steps must be >= 1 and at most 100, got 101\n"
    code, report = run(tmp_path, argv[0], path, *argv[1:], "--steps", "100")
    assert code == cli.EXIT_OK
    assert report["parameters"]["steps"] == 100


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


def _fresh_process(argv, cwd, **env):
    """cli.main on argv in a new interpreter with ``env`` added to its
    environment; returns its exit code."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys; from curlkit import cli; sys.exit(cli.main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=src, **env)
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


# --- the modules each command imports ---------------------------------------------------
#
# Earlier tests of this process have imported every module, so these run in
# fresh interpreters.

SRC = str(Path(cli.__file__).resolve().parents[1])
BENCH = Path(__file__).resolve().parents[1] / "bench"
DEFERRED = {"_ode", "pathwork", "darboux", "dynamics", "accessibility", "auxiliary"}
COMMAND_MODULES = {
    **dict.fromkeys(["classify", "verify", "vpde", "gauge", "decompose3d", "characteristics"],
                    {"darboux", "_ode"}),
    "simulate": {"dynamics", "_ode"},
    "work": {"pathwork"},
    "stokes": {"pathwork"},
    **dict.fromkeys(["auxiliary", "nonlocal-h"], {"auxiliary", "darboux", "dynamics", "_ode"}),
    **dict.fromkeys(["trace2d", "reach2d", "maneuver3d"], {"accessibility", "pathwork", "_ode"}),
}


def _python(*argv, cwd):
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)


def test_set_up_imports_no_analysis_module(tmp_path, problem):
    # what the benchmark's set-up sample does: import the CLI, load a problem
    doc = dict(BERRY, regions=BERRY_DECLARED["regions"])
    code = ("import json, sys; import curlkit.cli; curlkit.cli.load_problem(sys.argv[1]); "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('curlkit'))))")
    proc = _python("-c", code, problem(doc), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["curlkit", "curlkit.cli", "curlkit.errors",
                                       "curlkit.exprlang", "curlkit.fieldkit",
                                       "curlkit.problemfile"]


@pytest.mark.parametrize("doc,argv", [(doc, argv) for doc, argv, _ in COMMAND_PARAMETERS],
                         ids=[argv[0] for _, argv, _ in COMMAND_PARAMETERS])
def test_each_command_imports_only_its_own_modules(tmp_path, problem, doc, argv):
    # a handler that misses an import of its own fails here, not in a process
    # where an earlier command imported the module
    if argv[0] not in ("work", "stokes"):
        doc = {k: v for k, v in doc.items() if k != "paths"}  # paths load pathwork
    proc = _python("-v", "-m", "curlkit.cli", argv[0], problem(doc), *argv[1:],
                   "--out", str(tmp_path / "report.json"), cwd=tmp_path)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    # -v writes "import 'name' # loader" for each module loaded; -X importtime
    # misses the submodules of a "from . import name"
    imported = re.findall(r"^import '([\w.]+)' #", proc.stderr, re.MULTILINE)
    loaded = {name.split(".", 1)[1] for name in imported if name.startswith("curlkit.")}
    assert loaded & DEFERRED == COMMAND_MODULES[argv[0]]


def test_the_package_imports_a_submodule_on_first_read(tmp_path):
    code = """
import sys
import curlkit
assert "curlkit.accessibility" not in sys.modules
module = curlkit.accessibility
assert module is sys.modules["curlkit.accessibility"]
assert module.zero_work_trace_2d
try:
    curlkit.nope
except AttributeError as e:
    assert str(e) == "module 'curlkit' has no attribute 'nope'", e
else:
    raise AssertionError("curlkit.nope did not raise")
print("ok")
"""
    proc = _python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_the_tracer_installs_after_region_sweep_commands_only(tmp_path):
    # the tracer reads curlkit.dynamics, .accessibility and .auxiliary, which
    # no region-sweep command imports
    code = """
import importlib.util, json, sys
from pathlib import Path
import curlkit
from curlkit import cli

bench, work = Path(sys.argv[1]), Path(sys.argv[2])

def load(name):
    spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module

workloads, tracing = load("workloads"), load("tracing")
sweep = workloads.build("region-sweep", 101, work)
sweep.write_files(work)
codes = [cli.main(list(command.argv)) for command in sweep.commands]
before = sorted(m for m in sys.modules if m.startswith("curlkit."))
tracer = tracing.Tracer()
tracer.install(curlkit)
patched = [(owner, attr) for owner, attr, _ in tracer._patches]
wrapped = all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in patched)
tracer.uninstall()
restored = not any(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in patched)
print(json.dumps({"codes": codes, "before": before, "wrapped": wrapped,
                  "restored": restored, "patched": sorted({attr for _, attr in patched})}))
"""
    proc = _python("-c", code, str(BENCH), str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] and set(out["codes"]) == {cli.EXIT_OK}
    assert {"curlkit.dynamics", "curlkit.accessibility", "curlkit.auxiliary"}.isdisjoint(
        out["before"])
    assert out["wrapped"] and out["restored"]
    assert {"integrate", "zero_work_trace_2d", "auxiliary_trajectory"} <= set(out["patched"])


# --- a run that reaches the domain wall ---------------------------------------------

W_TERM = {
    "dimension": 3,
    "force": ["-(2 + x)*y - 2*x", "-(2 + x)*x - 2*y", "-2*z"],
    "potentials": {"U": "x*y", "V": "2 + x", "W": "x^2 + y^2 + z^2"},
    "domain": [[-3, 3]] * 3,
    "regions": {"aux": {"box": [[-1, 1]] * 3, "plan": {"type": "random", "count": 60, "seed": 5}}},
}


@pytest.mark.parametrize("integrator", ["dopri45", "rk4"])
def test_auxiliary_with_w_truncates_at_the_wall(tmp_path, problem, integrator):
    # the sampler's W gradient refused the trial stages past z = 3, which
    # exited 3 with "point outside field domain"
    code, report = run(tmp_path, "auxiliary", problem(W_TERM), "--region", "aux",
                       "--x0", "0.5,0.5,2.9", "--v0", "0,0,3", "--t-end", "1",
                       "--integrator", integrator)
    assert code == cli.EXIT_OK
    assert report["results"]["exited"] is True
    with open(report["artifacts"]["trajectory"]) as f:
        last = list(csv.DictReader(f))[-1]
    assert abs(float(last["z"]) - 3.0) <= 1e-10


def test_characteristic_leaving_the_domain_names_its_exit(tmp_path, problem, capsys):
    code, report = run(tmp_path, "characteristics", problem(TRIPLE), "--x0", "1,1,1",
                       "--s-max", "50")
    assert code == cli.EXIT_NUMERICAL
    assert report is None
    err = capsys.readouterr().err
    match = re.search(r"characteristic left the domain at s=2\.30259: \((\S+), (\S+), (\S+)\)", err)
    assert match, err
    assert 10.0 - 1e-10 <= float(match.group(1)) <= 10.0
