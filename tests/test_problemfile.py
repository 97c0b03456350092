"""Problem-file validation: JSON's non-finite literals are refused field by
field, and through the CLI they exit with the input-error code."""

import json

import pytest

from curlkit import cli
from curlkit.errors import ProblemFileError
from curlkit.problemfile import load_problem

# text templates, since json.dumps would not write the bare literals
BASE = {
    "dimension": 2,
    "force": ["-x", "-y"],
    "domain": [[-5.0, 5.0], [-5.0, 5.0]],
}

NON_FINITE = [
    ('"mass": NaN', "mass: must be a positive finite number, got nan"),
    ('"mass": Infinity', "mass: must be a positive finite number, got inf"),
    ('"constants": {"k": -Infinity}', "constants.k: value must be a finite number, got -inf"),
    ('"constants": {"k": NaN}', "constants.k: value must be a finite number, got nan"),
    ('"domain": [[-5, NaN], [-5, 5]]', "domain: box bounds must be finite"),
    ('"domain": [[-Infinity, 5], [-5, 5]]', "domain: box bounds must be finite"),
    (
        '"paths": {"p": {"type": "polyline", "vertices": [[0, 0], [NaN, 1]]}}',
        "paths.p: polyline vertices must be finite",
    ),
    (
        '"regions": {"r": {"box": [[-1, Infinity], [0, 1]], '
        '"plan": {"type": "grid", "counts": [2, 2]}}}',
        "regions.r.box: box bounds must be finite",
    ),
    # beyond the double range: a float literal reads as inf, an integer fails float()
    ('"mass": 1e400', "mass: must be a positive finite number, got inf"),
    ('"constants": {"k": 1' + "0" * 400 + "}", "constants.k: value must be a finite number"),
    ('"domain": [[-5, 1' + "0" * 400 + "], [-5, 5]]", "domain: "),
    (
        '"paths": {"p": {"type": "polyline", "vertices": [[0, 0], [1' + "0" * 400 + ", 1]]}}",
        "paths.p: ",
    ),
]

IDS = [f"{text.split(':')[0].strip(chr(34))}-{i}" for i, (text, _) in enumerate(NON_FINITE)]


def write(tmp_path, *fields):
    """A problem file: BASE with each ``"key": value`` text put in place."""
    doc = {k: json.dumps(v) for k, v in BASE.items()}
    for text in fields:
        key, value = text.split(":", 1)
        doc[json.loads(key)] = value
    path = tmp_path / "problem.json"
    path.write_text("{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in doc.items()) + "}")
    return str(path)


@pytest.mark.parametrize("field,diagnostic", NON_FINITE, ids=IDS)
def test_non_finite_number_rejected(tmp_path, field, diagnostic):
    with pytest.raises(ProblemFileError) as err:
        load_problem(write(tmp_path, field))
    assert len(err.value.diagnostics) == 1
    assert err.value.diagnostics[0].startswith(diagnostic)


@pytest.mark.parametrize("field,diagnostic", NON_FINITE, ids=IDS)
def test_non_finite_number_exits_with_input_error(tmp_path, capsys, field, diagnostic):
    out = tmp_path / "report.json"
    code = cli.main(["classify", write(tmp_path, field), "--samples", "5", "--out", str(out)])
    assert code == cli.EXIT_INPUT
    assert diagnostic in capsys.readouterr().err
    assert not out.exists()


def test_nan_mass_no_longer_reaches_simulate(tmp_path):
    # it passed validation, then failed in SimConfig with the usage exit 1
    argv = ["simulate", write(tmp_path, '"mass": NaN'), "--x0", "1,0", "--v0", "0,1",
            "--t-end", "1", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == cli.EXIT_INPUT


def test_one_diagnostic_per_bad_field(tmp_path):
    fields = [text for text, _ in NON_FINITE[:8:2]]
    with pytest.raises(ProblemFileError) as err:
        load_problem(write(tmp_path, *fields))
    assert sorted(d.split(":")[0] for d in err.value.diagnostics) == [
        "constants.k", "domain", "mass", "paths.p"
    ]


def test_finite_problem_loads(tmp_path):
    problem = load_problem(write(tmp_path, '"mass": 2.5', '"constants": {"k": 1e300}'))
    assert problem.mass == 2.5
    assert problem.constants == {"k": 1e300}
