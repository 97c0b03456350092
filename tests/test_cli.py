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

from curlkit import cli, dynamics, exprlang
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
