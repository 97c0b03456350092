"""Problem-file validation: JSON's non-finite literals are refused field by
field, and through the CLI they exit with the input-error code."""

import json

import pytest

from curlkit import cli, exprlang
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


def test_a_mass_with_no_finite_reciprocal_is_an_input_error(tmp_path, capsys):
    # 1 / 1e-320 is inf: the run ended in exit 3 with a message about its numbers
    out = tmp_path / "report.json"
    argv = ["simulate", write(tmp_path, '"mass": 1e-320'), "--x0", "1,0", "--v0", "0,1",
            "--t-end", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "mass" in line] == [
        "  - mass: must have a finite reciprocal, got 1e-320"]
    assert not out.exists()


def test_one_diagnostic_per_bad_field(tmp_path):
    fields = [text for text, _ in NON_FINITE[:8:2]]
    with pytest.raises(ProblemFileError) as err:
        load_problem(write(tmp_path, *fields))
    assert sorted(d.split(":")[0] for d in err.value.diagnostics) == [
        "constants.k", "domain", "mass", "paths.p"
    ]


def _region(plan):
    return '"regions": {"r": {"box": [[0, 1], [0, 1]], "plan": ' + plan + "}}"


# integers and booleans given as other JSON types: each loaded silently before
NOT_INTEGER = [
    ('"dimension": 2.0', "dimension: must be 2 or 3, got 2.0"),
    ('"dimension": true', "dimension: must be 2 or 3, got True"),
    (_region('{"type": "random", "count": 10.7}'),
     "regions.r.plan.count: must be an integer, got 10.7"),
    (_region('{"type": "random", "count": 10, "seed": 2.9}'),
     "regions.r.plan.seed: must be a non-negative integer, got 2.9"),
    (_region('{"type": "random", "count": 10, "seed": -1}'),
     "regions.r.plan.seed: must be a non-negative integer, got -1"),
    (_region('{"type": "random", "count": true}'),
     "regions.r.plan.count: must be an integer, got True"),
    (_region('{"type": "grid", "counts": [2.5, true]}'),
     "regions.r.plan.counts: must be a list of integers, got [2.5, True]"),
    (_region('{"type": "grid", "counts": 4}'),
     "regions.r.plan.counts: must be a list of integers, got 4"),
    ('"paths": {"p": {"type": "polyline", "vertices": [[0, 0], [1, 1]], "closed": 0}}',
     "paths.p.closed: must be true or false, got 0"),
    ('"paths": {"p": {"type": "parametric", "components": ["s", "s"], "closed": "no"}}',
     "paths.p.closed: must be true or false, got 'no'"),
]


@pytest.mark.parametrize("field,diagnostic", NOT_INTEGER,
                         ids=[f"{d.split(':')[0]}-{i}" for i, (_, d) in enumerate(NOT_INTEGER)])
def test_integer_and_boolean_fields_refuse_other_types(tmp_path, field, diagnostic):
    with pytest.raises(ProblemFileError) as err:
        load_problem(write(tmp_path, field))
    assert err.value.diagnostics == [diagnostic]


# numbers given as strings and booleans: float() took both before
NOT_NUMBER = [
    ('"domain": [["-5", "5"], [-5, 5]]', "domain: box bounds must be finite numbers, got '-5'"),
    ('"domain": [[false, true], [-5, 5]]', "domain: box bounds must be finite numbers, got False"),
    ('"regions": {"r": {"box": [["0", "1"], [0, 1]], "plan": {"type": "grid", "counts": [2, 2]}}}',
     "regions.r.box: box bounds must be finite numbers, got '0'"),
    ('"regions": {"r": {"box": [[0, true], [0, 1]], "plan": {"type": "grid", "counts": [2, 2]}}}',
     "regions.r.box: box bounds must be finite numbers, got True"),
    ('"paths": {"p": {"type": "polyline", "vertices": [[0, 0], ["1e0", 0]]}}',
     "paths.p: polyline vertices must be finite numbers, got '1e0'"),
    ('"paths": {"p": {"type": "polyline", "vertices": [[0, 0], [true, 0]]}}',
     "paths.p: polyline vertices must be finite numbers, got True"),
]


@pytest.mark.parametrize("field,diagnostic", NOT_NUMBER,
                         ids=[f"{d.split(':')[0]}-{i}" for i, (_, d) in enumerate(NOT_NUMBER)])
def test_number_fields_refuse_strings_and_booleans(tmp_path, field, diagnostic):
    with pytest.raises(ProblemFileError) as err:
        load_problem(write(tmp_path, field))
    assert err.value.diagnostics == [diagnostic]


@pytest.mark.parametrize("field,diagnostic", [
    ('"paths": [1]', "paths: must be a name -> path object"),
    ('"paths": "p"', "paths: must be a name -> path object"),
    ('"regions": ["a"]', "regions: must be a name -> region object"),
    ('"regions": 3', "regions: must be a name -> region object"),
], ids=["paths-list", "paths-string", "regions-list", "regions-number"])
def test_paths_and_regions_must_be_objects(tmp_path, capsys, field, diagnostic):
    # .items() on each ended classify in an AttributeError traceback
    path = write(tmp_path, field)
    with pytest.raises(ProblemFileError) as err:
        load_problem(path)
    assert err.value.diagnostics == [diagnostic]
    out = tmp_path / "report.json"
    assert cli.main(["classify", path, "--samples", "5", "--out", str(out)]) == cli.EXIT_INPUT
    assert diagnostic in capsys.readouterr().err
    assert not out.exists()


INVALID = "invalid problem file\n  - "
_BOX = '"box": [[0, 1], [0, 1]]'

# one fault each: the problem file (its bytes, none, or BASE with a "key":
# value text put in place), the command that reads it, and its input error
FAULTS = [(file, "classify", message) for file, message in [
    (None, "cannot read problem file: [Errno 2] No such file or directory: 'problem.json'"),
    (b"\xff{}", "problem file is not valid JSON: 'utf-8' codec can't decode byte 0xff in "
               "position 0: invalid start byte"),
    (b"[1, 2]", "problem file must be a JSON object"),
    ('"extra": 1', INVALID + "unknown top-level fields: ['extra']"),
    ('"constants": [1]', INVALID + "constants: must be a name -> number object"),
    ('"constants": {"x": 1}', INVALID + "constants.x: collides with a coordinate or function"),
    ('"force": [1, "-y"]', INVALID + "force[0]: expected an expression string"),
    ('"potentials": {"Q": "x"}', INVALID + "potentials.Q: unknown key (use U, V, W)"),
    ('"paths": {"p": {}}', INVALID + "paths.p: must be an object with a 'type' field"),
    ('"paths": {"p": {"type": "spline"}}', INVALID + "paths.p.type: unknown path type 'spline'"),
    ('"paths": {"p": {"type": "parametric", "components": ["s"]}}',
     INVALID + "paths.p.components: needs 2 expressions"),
    ('"regions": {"r": 1}', INVALID + "regions.r: must be an object"),
    ('"regions": {"r": {"box": [[0, 9], [0, 1]], "plan": {"type": "grid", "counts": [2, 2]}}}',
     INVALID + "regions.r.box: not contained in the problem domain"),
    ('"regions": {"r": {' + _BOX + ', "plan": {}}}',
     INVALID + "regions.r.plan: must be an object with a 'type'"),
    ('"regions": {"r": {' + _BOX + ', "plan": {"type": "sobol"}}}',
     INVALID + "regions.r.plan.type: unknown plan 'sobol'"),
    ('"potentials": {"U": "log(x)"}', "problem file failed probe validation\n  - potentials.U: "
     "probe at domain center failed: log of non-positive value 0.0 (expression bytes 0..6)"),
]] + [
    ('"potentials": {}', "verify", "problem declares no potential U/V; add a 'potentials' entry"),
    ('"potentials": {}', "vpde", "problem declares no potential V"),
]


@pytest.mark.parametrize("file,command,message", FAULTS,
                         ids=[m.split("- ")[-1].split(":")[0] for _, _, m in FAULTS])
def test_each_fault_of_a_problem_file_is_its_one_diagnostic(tmp_path, capsys, monkeypatch, file,
                                                            command, message):
    monkeypatch.chdir(tmp_path)
    if isinstance(file, bytes):
        (tmp_path / "problem.json").write_bytes(file)
    elif file is not None:
        write(tmp_path, file)
    code = cli.main([command, "problem.json", "--samples", "5", "--out", "report.json"])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("box", ["[[0, 1], [0, 1], [0, 1]]", "[[0, 1]]"], ids=["3-axes", "1-axis"])
def test_a_region_box_must_have_the_problem_dimension(tmp_path, box):
    # zip in Box.contains_box compared the common axes only, so both loaded
    field = '"regions": {"r": {"box": ' + box + ', "plan": {"type": "random", "count": 4}}}'
    with pytest.raises(ProblemFileError) as err:
        load_problem(write(tmp_path, field))
    assert err.value.diagnostics == ["regions.r.box: must be 2 [lo, hi] pairs"]


@pytest.mark.parametrize("vertices", ["null", "[1, 2]"])
def test_vertices_not_a_list_of_points_get_one_diagnostic(tmp_path, vertices):
    # np.asarray took both, and the loader died with an IndexError
    field = '"paths": {"p": {"type": "polyline", "vertices": ' + vertices + "}}"
    with pytest.raises(ProblemFileError) as err:
        load_problem(write(tmp_path, field))
    assert len(err.value.diagnostics) == 1
    assert err.value.diagnostics[0].startswith("paths.p: ")


@pytest.mark.parametrize("vertices", ["[[1, 1, 1], [2, 2, 2]]", "[[0, 0], [1, 1, 1]]", "[[0], [1]]"])
def test_vertex_dimension_must_be_the_problem_dimension(tmp_path, vertices):
    # the path took its dimension from the vertices, and work on it exited 3
    field = '"paths": {"p": {"type": "polyline", "vertices": ' + vertices + "}}"
    with pytest.raises(ProblemFileError) as err:
        load_problem(write(tmp_path, field))
    assert err.value.diagnostics == ["paths.p: polyline vertices must have 2 coordinates each"]


def test_bad_count_and_seed_get_one_diagnostic_each(tmp_path):
    field = _region('{"type": "random", "count": 10.7, "seed": 2.9}')
    with pytest.raises(ProblemFileError) as err:
        load_problem(write(tmp_path, field))
    assert err.value.diagnostics == [
        "regions.r.plan.count: must be an integer, got 10.7",
        "regions.r.plan.seed: must be a non-negative integer, got 2.9",
    ]


def test_integer_fields_load(tmp_path):
    problem = load_problem(write(
        tmp_path, '"dimension": 2',
        '"paths": {"p": {"type": "polyline", "vertices": [[0, 0], [1, 1]], "closed": null}}',
        '"regions": {"g": {"box": [[0, 1], [0, 1]], "plan": {"type": "grid", "counts": [2, 3]}},'
        ' "r": {"box": [[0, 1], [0, 1]], "plan": {"type": "random", "count": 7, "seed": 0}}}',
    ))
    assert problem.regions["g"].plan == ("grid", (2, 3))
    assert problem.regions["r"].plan == ("random", 7, 0)
    assert problem.paths["p"].closed is False


def test_finite_problem_loads(tmp_path):
    problem = load_problem(write(tmp_path, '"mass": 2.5', '"constants": {"k": 1e300}'))
    assert problem.mass == 2.5
    assert problem.constants == {"k": 1e300}


# the diagnostics of the component-by-component probe, one per bad component
PROBE_FAILURES = [
    (
        {"dimension": 2, "force": ["log(x)", "-y"], "domain": [[-5, 5], [-5, 5]]},
        ["force[0]: probe at (-5.0, -5.0) failed: log of non-positive value -5.0 "
         "(expression bytes 0..6)"],
    ),
    (
        {"dimension": 2, "force": ["-x", "1/(x - 2.5)"], "domain": [[0, 5], [0, 5]]},
        ["force[1]: probe at (2.5, 2.5) failed: division by zero (expression bytes 0..10)"],
    ),
    (
        {"dimension": 2, "force": ["log(x)", "1/y"], "domain": [[0, 5], [0, 5]]},
        ["force[0]: probe at (0.0, 0.0) failed: log of non-positive value 0.0 "
         "(expression bytes 0..6)",
         "force[1]: probe at (0.0, 0.0) failed: division by zero (expression bytes 0..3)"],
    ),
    (
        {"dimension": 3, "force": ["sqrt(z - 1)", "x", "1/(y - 5)"],
         "domain": [[0, 5], [0, 5], [0, 5]]},
        ["force[0]: probe at (0.0, 0.0, 0.0) failed: sqrt of negative value -1.0 "
         "(expression bytes 0..11)",
         "force[2]: probe at (0.0, 5.0, 0.0) failed: division by zero (expression bytes 0..8)"],
    ),
]


@pytest.mark.parametrize("doc,diagnostics", PROBE_FAILURES)
def test_probe_names_each_bad_force_component(tmp_path, doc, diagnostics):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError) as err:
        load_problem(str(path))
    assert err.value.diagnostics == diagnostics


BERRY = {
    "dimension": 2, "force": ["-x*y^2", "-x^3"], "domain": [[0.05, 5], [0.05, 5]],
    "potentials": {"U": "-(1/x + 1/y)", "V": "x^3*y^2"},
}


@pytest.fixture
def built(monkeypatch):
    """The root counts of the functions ``exprlang`` emits, in order."""
    built = []
    function = exprlang._Emitter.function

    def spy(self, roots):
        built.append(len(roots))
        return function(self, roots)

    monkeypatch.setattr(exprlang._Emitter, "function", spy)
    return built


def test_load_and_first_force_value_build_one_function_per_field(tmp_path, built):
    # earlier tests may have parsed the same text, whose trees keep their functions
    exprlang._parsed.cache_clear()
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(BERRY))
    problem = load_problem(str(path))
    problem.force.value((1.0, 2.0))
    problem.force.value_unchecked((1.0, 2.0))
    # the force's function of both components probes it, then U and V
    assert built == [2, 1, 1]


def test_a_second_load_of_a_file_builds_no_function(tmp_path, built):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(BERRY))
    first = load_problem(str(path))
    built.clear()
    second = load_problem(str(path))
    assert built == []  # its probe evaluated the functions the first load built
    assert all(a is b for a, b in zip(second.force.trees, first.force.trees))
    assert second.potentials["V"].tree is first.potentials["V"].tree


def test_the_same_text_evaluates_with_each_files_constants(tmp_path):
    problems = []
    for k in (2.0, 3.0):
        path = tmp_path / f"k{k}.json"
        path.write_text(json.dumps({
            "dimension": 2, "force": ["-k*x", "-k*y"], "domain": [[-5, 5], [-5, 5]],
            "constants": {"k": k},
        }))
        problems.append(load_problem(str(path)))
    assert problems[0].force.trees[0] is problems[1].force.trees[0]
    assert [p.force.value((1.0, 2.0)).tolist() for p in problems] == [[-2.0, -4.0], [-3.0, -6.0]]
