import math
import random
import struct

import numpy as np
import pytest

from curlkit.errors import EvalDomainError, ParseError
from curlkit import exprlang
from curlkit.exprlang import (
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    Var,
    derivative,
    eval_at,
    grad_at,
    parse,
    parse_in_variables,
    substitute,
    to_source,
)

FD_STEP_FACTOR = 6.06e-6


def ev(source, coords, dimension=2, constants=None):
    constants = constants or {}
    tree = parse(source, dimension, set(constants))
    return eval_at(tree, tuple(coords), constants)


def grad(source, coords, dimension=2, constants=None):
    constants = constants or {}
    tree = parse(source, dimension, set(constants))
    return grad_at(tree, tuple(coords), constants)


def fd_gradient(tree, coords, constants):
    coords = list(coords)
    out = []
    for i, xi in enumerate(coords):
        h = max(1.0, abs(xi)) * FD_STEP_FACTOR
        hi, lo = list(coords), list(coords)
        hi[i] += h
        lo[i] -= h
        fp = eval_at(tree, tuple(hi), constants)
        fm = eval_at(tree, tuple(lo), constants)
        out.append((fp - fm) / (2 * h))
    return np.array(out)


# --- golden trees -----------------------------------------------------------

def test_paper_force_tree_structure():
    tree = parse("-F0/a^3 * x*y^2", 2, {"F0", "a"})
    # ((((-F0) / (a^3)) * x) * (y^2)) under the documented precedence
    root = tree.root
    assert isinstance(root, BinOp) and root.op == "*"
    assert isinstance(root.right, BinOp) and root.right.op == "^"
    assert root.right == BinOp((0, 0), "^", Var((0, 0), "y", 1), Num((0, 0), 2.0))
    inner = root.left
    assert isinstance(inner, BinOp) and inner.op == "*"
    assert inner.right == Var((0, 0), "x", 0)
    div = inner.left
    assert div == BinOp(
        (0, 0),
        "/",
        Neg((0, 0), Const((0, 0), "F0")),
        BinOp((0, 0), "^", Const((0, 0), "a"), Num((0, 0), 3.0)),
    )


GOLDEN = [
    # (source, canonical print)
    ("-F0/a^3 * x*y^2", "-F0/a^3*x*y^2"),
    ("-F0/a^3 * x^3", "-F0/a^3*x^3"),
    ("-(y*z)", "-(y*z)"),
    ("-(2*x*z)", "-(2*x*z)"),
    ("-(x*y)", "-(x*y)"),
    ("x", "x"),
    ("-x^2", "-x^2"),
    ("2^3^2", "2^3^2"),
    ("(2^3)^2", "(2^3)^2"),
    ("1/x + 1/y", "1/x + 1/y"),
    ("-F0*a^2*(1/x + 1/y)", "-F0*a^2*(1/x + 1/y)"),
    ("x^3*y^2", "x^3*y^2"),
    ("sin(x)*cos(y)", "sin(x)*cos(y)"),
    ("exp(-x^2 - y^2)", "exp(-x^2 - y^2)"),
    ("pow(x, 2) + pow(y, 3)", "pow(x, 2) + pow(y, 3)"),
    ("sqrt(x^2 + y^2)", "sqrt(x^2 + y^2)"),
    ("log(x/y)", "log(x/y)"),
    ("x - y - z", "x - y - z"),
    ("x - (y - z)", "x - (y - z)"),
    ("1e-3*x + 2.5E+2", "0.001*x + 250"),
    ("abs(x) + tan(y)", "abs(x) + tan(y)"),
    ("x^-2", "x^-2"),
]


@pytest.mark.parametrize("source,printed", GOLDEN)
def test_golden_print(source, printed):
    dim = 3 if "z" in source else 2
    tree = parse(source, dim, {"F0", "a"})
    assert to_source(tree) == printed


@pytest.mark.parametrize("source,_", GOLDEN)
def test_roundtrip_golden(source, _):
    dim = 3 if "z" in source else 2
    tree = parse(source, dim, {"F0", "a"})
    again = parse(to_source(tree), dim, {"F0", "a"})
    assert again.root == tree.root


# --- precedence and values --------------------------------------------------

def test_unary_minus_vs_power():
    assert ev("-x^2", (2.0, 0.0)) == -4.0


def test_power_right_associative():
    assert ev("2^3^2", (0.0, 0.0)) == 512.0


def test_negative_exponent():
    assert ev("x^-2", (2.0, 0.0)) == 0.25


def test_direct_arithmetic():
    assert ev("-(x*y^2)", (2.0, 3.0)) == -18.0
    assert ev("1/x + 1/y", (2.0, 2.0)) == 1.0


def test_paper_second_component_value():
    consts = {"F0": 1.0, "a": 1.0}
    assert ev("-F0/a^3 * x^3", (1.0, 0.5), constants=consts) == -1.0


def test_unary_minus_binds_tighter_than_mul():
    # -2^2*3 = (-(2^2))*3
    assert ev("-x^2*y", (2.0, 3.0)) == -12.0


def test_scientific_notation():
    assert ev("1e-3 + 2.5e2", (0.0, 0.0)) == pytest.approx(250.001, abs=0)


def test_literal_beyond_double_range_is_a_parse_error():
    with pytest.raises(ParseError, match="beyond the double range") as err:
        parse("pow(x - 10, 1e400)", 2, set())
    assert err.value.span == (12, 17)
    assert ev("1e-400 + x", (1.0, 0.0)) == 1.0  # underflow to zero is still a number


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2x", 2, set())


def test_unknown_identifier_with_span():
    with pytest.raises(ParseError) as err:
        parse("x + qq*y", 2, set())
    assert err.value.span == (4, 6)


def test_z_forbidden_in_2d():
    with pytest.raises(ParseError):
        parse("x + z", 2, set())
    parse("x + z", 3, set())  # fine in 3D


def test_function_arity_error():
    with pytest.raises(ParseError):
        parse("sin(x, y)", 2, set())
    with pytest.raises(ParseError):
        parse("pow(x)", 2, set())


def test_unknown_function():
    with pytest.raises(ParseError):
        parse("sinh(x)", 2, set())


def test_syntax_errors():
    for bad in ["", "x +", "(x", "x)*2", "*x", "x^", "1..2"]:
        with pytest.raises(ParseError):
            parse(bad, 2, set())


# --- evaluation errors ------------------------------------------------------

def test_division_by_zero_is_error():
    with pytest.raises(EvalDomainError):
        ev("1/x", (0.0, 1.0))


def test_log_domain_error_carries_span():
    tree = parse("y + log(x)", 2, set())
    with pytest.raises(EvalDomainError) as err:
        eval_at(tree, (-1.0, 0.0), {})
    assert err.value.span == (4, 10)


def test_sqrt_negative():
    with pytest.raises(EvalDomainError):
        ev("sqrt(x)", (-2.0, 0.0))


def test_negative_base_fractional_power():
    with pytest.raises(EvalDomainError):
        ev("x^0.5", (-1.0, 0.0))


_UNCHECKED_SUMS = ["x*1e308 + x*1e308", "(x*1e308 + x*1e308) - (x*1e308 + x*1e308)"]


@pytest.mark.parametrize(
    "exponent,unchecked",
    # an unchecked sum overflows to inf, and inf - inf is NaN
    list(zip(_UNCHECKED_SUMS, [math.inf, math.nan])),
    ids=_UNCHECKED_SUMS,
)
def test_negative_base_non_finite_exponent(exponent, unchecked):
    cols = [np.array([1.0]), np.array([0.0])]
    # the checked sum refuses the overflow at its own span
    tree = parse(f"pow(-0.5, {exponent})", 2)
    first_sum = (exponent.index("x"), exponent.index("x") + len("x*1e308 + x*1e308"))
    for evaluate in (lambda: eval_at(tree, (1.0, 0.0), {}),
                     lambda: exprlang.eval_many([tree], cols, {})):
        with np.errstate(over="ignore"), pytest.raises(
            EvalDomainError, match="non-finite result"
        ) as err:
            evaluate()
        assert err.value.span == (10 + first_sum[0], 10 + first_sum[1])
    # the value it would have had still meets the power's own check
    tree = parse("pow(-0.5, c)", 2, {"c"})
    with pytest.raises(EvalDomainError, match="non-finite exponent"):
        eval_at(tree, (1.0, 0.0), {"c": unchecked})
    with pytest.raises(EvalDomainError, match="non-finite exponent"):
        exprlang.eval_many([tree], cols, {"c": unchecked})


def test_missing_constant_rejected():
    tree = parse("F0*x", 2, {"F0"})
    with pytest.raises(EvalDomainError):
        eval_at(tree, (1.0, 1.0), {})


# --- gradients --------------------------------------------------------------

def test_power_rule():
    d = grad("x^3", (2.0, 0.0))
    assert d.value == 8.0
    assert d.partials[0] == 12.0


def test_paper_gradient_at_unit_point():
    consts = {"F0": 1.0, "a": 1.0}
    d = grad("-F0*a^2*(1/x + 1/y)", (1.0, 1.0), constants=consts)
    assert d.value == -2.0
    assert np.allclose(d.partials, [1.0, 1.0], rtol=0, atol=1e-15)


def test_dual_product_and_chain_rule_exact():
    # (x^2 * y^3)' checked against hand differentiation at several points
    tree = parse("x^2*y^3", 2, set())
    for x, y in [(1.0, 2.0), (0.5, -1.5), (-2.0, 3.0)]:
        d = grad_at(tree, (x, y), {})
        assert d.partials[0] == pytest.approx(2 * x * y**3, rel=1e-15)
        assert d.partials[1] == pytest.approx(3 * x**2 * y**2, rel=1e-15)


POLYS = [
    "x^3*y^2 - 2*x*y + 7",
    "x^4 - y^4 + x*y",
    "(x + y)^3",
    "x*y*(x - y)",
]


@pytest.mark.parametrize("source", POLYS)
def test_polynomial_ad_matches_fd(source):
    tree = parse(source, 2, set())
    rng = random.Random(7)
    for _ in range(50):
        coords = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        d = grad_at(tree, coords, {})
        fd = fd_gradient(tree, coords, {})
        denom = np.maximum(1.0, np.abs(d.partials))
        assert np.all(np.abs(d.partials - fd) / denom <= 1e-6)


@pytest.mark.parametrize(
    "source", ["sin(x)", "cos(x)", "tan(x)", "exp(x)", "log(x)", "sqrt(x)", "abs(x)", "pow(x, 3)"]
)
def test_builtins_ad_matches_fd(source):
    tree = parse(source, 2, set())
    rng = random.Random(3)
    for _ in range(40):
        coords = (rng.uniform(0.3, 1.2), 0.0)  # away from domain boundaries
        d = grad_at(tree, coords, {})
        fd = fd_gradient(tree, coords, {})
        denom = max(1.0, abs(d.partials[0]))
        assert abs(d.partials[0] - fd[0]) / denom <= 1e-6


def test_varying_exponent_gradient():
    # d/dx x^x = x^x (log x + 1)
    tree = parse("x^x", 2, set())
    d = grad_at(tree, (1.7, 0.0), {})
    expected = 1.7**1.7 * (math.log(1.7) + 1)
    assert d.partials[0] == pytest.approx(expected, rel=1e-14)


# --- round-trip property over random trees ----------------------------------

def random_tree(rng, depth, variables):
    if depth == 0 or rng.random() < 0.25:
        choice = rng.randrange(3)
        if choice == 0:
            return Num((0, 0), float(rng.randint(0, 9)))
        if choice == 1:
            return Num((0, 0), round(rng.uniform(0.1, 9.9), 3))
        return Var((0, 0), *rng.choice(list(enumerate(variables)))[::-1])
    kind = rng.random()
    if kind < 0.15:
        return Neg((0, 0), random_tree(rng, depth - 1, variables))
    if kind < 0.85:
        op = rng.choice("+-*/^")
        left = random_tree(rng, depth - 1, variables)
        right = random_tree(rng, depth - 1, variables)
        return BinOp((0, 0), op, left, right)
    func = rng.choice(["sin", "cos", "exp", "sqrt", "abs"])
    return Call((0, 0), func, (random_tree(rng, depth - 1, variables),))


def test_print_parse_roundtrip_random_trees():
    rng = random.Random(2024)
    variables = ("x", "y")
    for _ in range(300):
        root = random_tree(rng, 4, variables)
        tree = exprlang.SyntaxTree(root, variables, frozenset(), "")
        printed = to_source(tree)
        reparsed = parse_in_variables(printed, variables)
        assert reparsed.root == root, printed


def test_evaluation_deterministic():
    tree = parse("sin(x)*exp(y) - x/y", 2, set())
    assert eval_at(tree, (0.7, 1.3), {}) == eval_at(tree, (0.7, 1.3), {})


# --- substitution and symbolic derivative ------------------------------------

def test_substitute_gauge_parameter():
    f = parse_in_variables("u + u^3", ("u",))
    u_expr = parse("x*y", 2, set())
    composed = substitute(f, "u", u_expr)
    val = eval_at(composed, (2.0, 3.0), {})
    assert val == 6.0 + 6.0**3


def test_derivative_polynomial():
    f = parse_in_variables("u + u^3", ("u",))
    df = derivative(f, "u")
    for u in [-1.5, 0.0, 0.3, 2.0]:
        got = eval_at(df, (u,), {})
        assert got == pytest.approx(1 + 3 * u * u, rel=1e-14)


def test_derivative_matches_dual_on_mixed_expression():
    f = parse_in_variables("sin(u)*exp(u) + u/(1 + u^2)", ("u",))
    df = derivative(f, "u")
    for u in [0.1, 0.9, 2.2]:
        sym = eval_at(df, (u,), {})
        dual = grad_at(f, (u,), {})
        assert sym == pytest.approx(dual.partials[0], rel=1e-12)


def test_derivative_of_general_power():
    f = parse_in_variables("u^u", ("u",))
    df = derivative(f, "u")
    u = 1.3
    assert eval_at(df, (u,), {}) == pytest.approx(
        u**u * (math.log(u) + 1), rel=1e-12
    )


# --- batch evaluation against the pointwise reference --------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from curlkit.exprlang import eval_many

REPEATABLE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

_EPS = 2.0**-52


def _propagated(deriv, err):
    """|deriv| * err, with no error in meaning no error even where deriv is
    infinite."""
    return 0.0 if err == 0.0 else abs(deriv) * err


def _value_and_bound(node, coords, constants):
    """The pointwise value of ``node`` and a first-order bound on how far the
    batch value may drift from it: each node may round its result by a few
    ulps differently (NumPy's exp, log, tan and power against libm), and
    each drift propagates through the derivatives of the nodes above."""
    sub = lambda n: _value_and_bound(n, coords, constants)  # noqa: E731
    tree = exprlang.SyntaxTree(node, ("x", "y"), frozenset(constants))
    value = float(eval_at(tree, coords, constants))
    if isinstance(node, (Num, Var, Const)):
        return value, 0.0
    if isinstance(node, Neg):
        return value, sub(node.operand)[1]
    if isinstance(node, BinOp) or (isinstance(node, Call) and node.func == "pow"):
        (a, ea), (b, eb) = sub(node.left if isinstance(node, BinOp) else node.args[0]), sub(
            node.right if isinstance(node, BinOp) else node.args[1]
        )
        op = node.op if isinstance(node, BinOp) else "^"
        if op in "+-":
            drift = ea + eb
        elif op == "*":
            drift = _propagated(b, ea) + _propagated(a, eb) + ea * eb
        elif op == "/":
            drift = math.inf if abs(b) <= eb else (ea + _propagated(value, eb)) / (abs(b) - eb)
        else:
            d_base = b * value / a if a != 0.0 else math.inf
            d_exp = value * math.log(abs(a)) if a != 0.0 else 0.0
            drift = _propagated(d_base, ea) + _propagated(d_exp, eb)
        return value, drift + 4 * _EPS * abs(value)
    (x, ex) = sub(node.args[0])
    slope = {
        "sin": lambda: math.cos(x),
        "cos": lambda: math.sin(x),
        "tan": lambda: 1.0 + value * value,
        "exp": lambda: value,
        "log": lambda: 1.0 / x,
        "sqrt": lambda: 0.5 / value if value > 0.0 else math.inf,
        "abs": lambda: 1.0,
        "sign": lambda: 0.0,
    }[node.func]()
    return value, _propagated(slope, ex) + 4 * _EPS * abs(value)


_LITERALS = st.sampled_from(["0", "1", "2", "0.5", "3", "1e-3", "709", "1.5"])
_LEAVES = st.one_of(st.sampled_from(["x", "y", "c"]), _LITERALS)


def _extender(functions):
    def extend(children):
        binary = st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"
        )
        unary = st.tuples(st.sampled_from(functions + ["-"]), children).map(
            lambda t: f"{t[0]}({t[1]})"
        )
        power = st.tuples(children, children).map(lambda t: f"pow({t[0]}, {t[1]})")
        return st.one_of(binary, unary, power)

    return extend


_DUAL_FUNCTIONS = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]
# sign is not in the dual-number reference's language
_SOURCES = st.recursive(_LEAVES, _extender(_DUAL_FUNCTIONS + ["sign"]), max_leaves=8)
_DUAL_SOURCES = st.recursive(_LEAVES, _extender(_DUAL_FUNCTIONS), max_leaves=8)
_COORD = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]), st.floats(-4.0, 4.0))
_POINTS = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=6)


def _pointwise(trees, cols, constants):
    """Loop of eval_at, point-major as a field's value() does it: the values,
    or the first error raised."""
    try:
        return np.array(
            [[eval_at(t, tuple(c[i] for c in cols), constants) for t in trees]
             for i in range(len(cols[0]))]
        ).T
    except EvalDomainError as e:
        return e


@REPEATABLE
@given(st.lists(_SOURCES, min_size=1, max_size=2), _POINTS, st.floats(-3.0, 3.0))
def test_eval_many_matches_eval_at(sources, points, c):
    constants = {"c": c}
    trees = [parse(s, 2, {"c"}) for s in sources]
    cols = list(np.array(points).T)
    expected = _pointwise(trees, cols, constants)
    if isinstance(expected, EvalDomainError):
        with pytest.raises(EvalDomainError) as err:
            eval_many(trees, cols, constants)
        assert str(err.value) == str(expected)
        assert err.value.span == expected.span
        return
    got = eval_many(trees, cols, constants)
    assert got.shape == expected.shape
    for t, tree in enumerate(trees):
        for i in range(len(points)):
            want, drift = _value_and_bound(tree.root, tuple(col[i] for col in cols), constants)
            assert want == expected[t, i] or (math.isnan(want) and math.isnan(expected[t, i]))
            have = got[t, i]
            if math.isnan(want):
                assert math.isnan(have), (sources[t], points[i])
            else:
                assert have == want or abs(have - want) <= 2 * drift, (sources[t], points[i])


def test_eval_many_first_failing_point_names_the_error():
    tree = parse("log(x) + 1/y", 2)
    cols = [np.array([1.0, 2.0, -1.0, 3.0]), np.array([1.0, 0.0, 1.0, 1.0])]
    with pytest.raises(EvalDomainError) as err:
        eval_many([tree], cols, {})
    assert "division by zero" in str(err.value)  # point 1 fails before point 2
    assert err.value.span == (9, 12)


def test_eval_many_fails_point_major():
    # as a field's value() loop: every tree at point 0 before any at point 1
    trees = [parse("log(x)", 2), parse("1/y", 2)]
    cols = [np.array([1.0, -1.0]), np.array([0.0, 1.0])]
    with pytest.raises(EvalDomainError, match="division by zero"):
        eval_many(trees, cols, {})
    cols = [np.array([-1.0, 1.0]), np.array([0.0, 1.0])]
    with pytest.raises(EvalDomainError, match="log of non-positive"):
        eval_many(trees, cols, {})


def test_eval_many_batches_subtrees_without_variables(monkeypatch):
    # a constant subtree yields plain floats, which must pass the checks too
    tree = parse("x*exp(2) + log(3) - sqrt(4)/tan(1) + pow(2, 0.5)", 2)
    cols = [np.array([1.0, 2.0]), np.array([0.0, 0.0])]
    want = [eval_at(tree, (x, 0.0), {}) for x in cols[0]]

    def pointwise(*args):
        raise AssertionError("batch fell back to eval_at")

    monkeypatch.setattr(exprlang, "eval_at", pointwise)
    assert eval_many([tree], cols, {})[0] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize(
    "source",
    # x*1e308 + x*1e308 overflows to inf in an unchecked sum
    ["sin(x*1e308 + x*1e308)", "pow(0.5, x*1e308 + x*1e308)", "pow(-0.5, x*1e308 + x*1e308)"],
)
def test_eval_many_non_finite_operand_matches_eval_at(source):
    tree = parse(source, 2)
    cols = [np.array([1.0]), np.array([0.0])]

    def outcome(f):
        try:
            return f()
        except (EvalDomainError, ValueError, OverflowError) as e:
            return type(e), str(e)

    with np.errstate(over="ignore"):  # the pointwise sum overflows in np.float64
        want = outcome(lambda: [eval_at(tree, (cols[0][0], cols[1][0]), {})])
        got = outcome(lambda: list(eval_many([tree], cols, {})[0]))
    assert got == want


@pytest.mark.parametrize("source", ["sign(x)", "abs(x)", "sin(x)", "exp(x)", "log(x)", "sqrt(x)", "x^2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eval_many_non_finite_coordinates_match_eval_at(source, bad):
    # NumPy's sign, sin, exp, ... answer at NaN and infinities where the
    # pointwise functions may answer otherwise or raise, so the batch hands
    # such points to the pointwise rerun
    tree = parse(source, 2)
    cols = [np.array([0.5, bad]), np.array([0.0, 0.0])]

    def outcome(f):
        try:
            return [struct.pack("d", v) for v in f()]
        except (EvalDomainError, ValueError) as e:
            return type(e), str(e)

    want = outcome(lambda: [eval_at(tree, (x, 0.0), {}) for x in cols[0]])
    assert outcome(lambda: eval_many([tree], cols, {})[0]) == want


def test_eval_many_unbound_constant():
    tree = parse("x*k", 2, {"k"})
    with pytest.raises(EvalDomainError) as err:
        eval_many([tree], [np.array([1.0]), np.array([2.0])], {})
    assert "'k' not bound" in str(err.value)


def test_eval_many_exp_threshold_is_pointwise():
    # NumPy's exp is finite up to ~709.78, the pointwise rule rejects x >= 709
    tree = parse("exp(x)", 2)
    with pytest.raises(EvalDomainError, match="non-finite"):
        eval_many([tree], [np.array([1.0, 709.5]), np.array([0.0, 0.0])], {})


# --- symbolic partials against the dual numbers they replaced ----------------------


# The parent's recursive pointwise walker, which the emitted functions
# replaced; the dual-number reference below uses its node rules too.

def _check_finite(value, span):
    if not math.isfinite(value):
        raise EvalDomainError("non-finite result", span)
    return value


def _apply_function(name, x, span):
    if name == "sin":
        return math.sin(x)
    if name == "cos":
        return math.cos(x)
    if name == "tan":
        return _check_finite(math.tan(x), span)
    if name == "exp":
        return _check_finite(math.exp(x) if x < 709.0 else math.inf, span)
    if name == "log":
        if x <= 0.0:
            raise EvalDomainError(f"log of non-positive value {x!r}", span)
        return math.log(x)
    if name == "sqrt":
        if x < 0.0:
            raise EvalDomainError(f"sqrt of negative value {x!r}", span)
        return math.sqrt(x)
    if name == "abs":
        return abs(x)
    if name == "sign":
        return math.copysign(1.0, x) if x != 0.0 else 0.0
    raise EvalDomainError(f"unknown function {name!r}", span)


def _pow_value(a, b, span):
    if a == 0.0 and b < 0.0:
        raise EvalDomainError("zero raised to a negative power", span)
    if a < 0.0 and not math.isfinite(b):
        # int() of an infinite or NaN exponent would raise outside the
        # package's errors
        raise EvalDomainError("negative base with non-finite exponent", span)
    if a < 0.0 and b != int(b):
        raise EvalDomainError("negative base with non-integer exponent", span)
    try:
        return _check_finite(math.pow(a, b), span)
    except OverflowError:
        raise EvalDomainError("overflow in power", span) from None


def _eval_float(node, coords, constants):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return coords[node.index]
    if isinstance(node, Const):
        try:
            return constants[node.name]
        except KeyError:
            raise EvalDomainError(f"constant {node.name!r} not bound", node.span) from None
    if isinstance(node, Neg):
        return -_eval_float(node.operand, coords, constants)
    if isinstance(node, BinOp):
        a = _eval_float(node.left, coords, constants)
        b = _eval_float(node.right, coords, constants)
        if node.op == "+":
            return _check_finite(a + b, node.span)
        if node.op == "-":
            return _check_finite(a - b, node.span)
        if node.op == "*":
            return _check_finite(a * b, node.span)
        if node.op == "/":
            if b == 0.0:
                raise EvalDomainError("division by zero", node.span)
            return _check_finite(a / b, node.span)
        return _pow_value(a, b, node.span)
    if isinstance(node, Call):
        if node.func == "pow":
            a = _eval_float(node.args[0], coords, constants)
            b = _eval_float(node.args[1], coords, constants)
            return _pow_value(a, b, node.span)
        x = _eval_float(node.args[0], coords, constants)
        return _apply_function(node.func, x, node.span)
    raise TypeError(f"unknown node {node!r}")



class DualValue:
    """The parent's forward-mode dual number, kept as the reference for the
    symbolic partials: a value with its partials, obeying the product,
    quotient and chain rules exactly."""

    def __init__(self, value, partials):
        self.value = value
        self.partials = partials

    def __add__(self, other):
        if isinstance(other, DualValue):
            return DualValue(self.value + other.value, self.partials + other.partials)
        return DualValue(self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualValue):
            return DualValue(self.value - other.value, self.partials - other.partials)
        return DualValue(self.value - other, self.partials)

    def __rsub__(self, other):
        return DualValue(other - self.value, -self.partials)

    def __mul__(self, other):
        if isinstance(other, DualValue):
            return DualValue(
                self.value * other.value,
                self.value * other.partials + self.partials * other.value,
            )
        return DualValue(self.value * other, self.partials * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualValue):
            return DualValue(
                self.value / other.value,
                (self.partials * other.value - self.value * other.partials)
                / (other.value * other.value),
            )
        return DualValue(self.value / other, self.partials / other)

    def __neg__(self):
        return DualValue(-self.value, -self.partials)


def _dual_pow(a, b, span):
    value = _pow_value(a.value, b.value, span)
    if not b.partials.any():
        # constant exponent: plain power rule, valid for negative bases too
        if b.value == 0.0:
            return DualValue(value, np.zeros_like(a.partials))
        grad = b.value * _pow_value(a.value, b.value - 1.0, span) * a.partials
        return DualValue(value, grad)
    if a.value <= 0.0:
        raise EvalDomainError(
            "derivative of power needs a positive base for a varying exponent", span
        )
    grad = value * (b.partials * math.log(a.value) + b.value * a.partials / a.value)
    return DualValue(value, grad)


def _dual_function(name, arg, span):
    x = arg.value
    value = _apply_function(name, x, span)
    if name == "sin":
        d = math.cos(x)
    elif name == "cos":
        d = -math.sin(x)
    elif name == "tan":
        c = math.cos(x)
        d = 1.0 / (c * c)
    elif name == "exp":
        d = value
    elif name == "log":
        d = 1.0 / x
    elif name == "sqrt":
        if x == 0.0:
            raise EvalDomainError("derivative of sqrt at zero", span)
        d = 0.5 / value
    else:  # abs; subgradient 0 at the kink
        d = math.copysign(1.0, x) if x != 0.0 else 0.0
    return DualValue(value, d * arg.partials)


def _eval_dual(node, coords, constants, n):
    if isinstance(node, Num):
        return DualValue(node.value, np.zeros(n))
    if isinstance(node, Var):
        partials = np.zeros(n)
        partials[node.index] = 1.0
        return DualValue(coords[node.index], partials)
    if isinstance(node, Const):
        try:
            return DualValue(constants[node.name], np.zeros(n))
        except KeyError:
            raise EvalDomainError(f"constant {node.name!r} not bound", node.span) from None
    if isinstance(node, Neg):
        return -_eval_dual(node.operand, coords, constants, n)
    if isinstance(node, BinOp):
        a = _eval_dual(node.left, coords, constants, n)
        b = _eval_dual(node.right, coords, constants, n)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            out = a * b
            _check_finite(out.value, node.span)
            return out
        if node.op == "/":
            if b.value == 0.0:
                raise EvalDomainError("division by zero", node.span)
            out = a / b
            _check_finite(out.value, node.span)
            return out
        return _dual_pow(a, b, node.span)
    if isinstance(node, Call):
        if node.func == "pow":
            a = _eval_dual(node.args[0], coords, constants, n)
            b = _eval_dual(node.args[1], coords, constants, n)
            return _dual_pow(a, b, node.span)
        arg = _eval_dual(node.args[0], coords, constants, n)
        return _dual_function(node.func, arg, node.span)
    raise TypeError(f"unknown node {node!r}")


def dual_grad_at(tree, coords, constants):
    return _eval_dual(tree.root, coords, constants, len(tree.variables))


def _outcome(f):
    try:
        with np.errstate(all="ignore"):  # the dual partials are unchecked
            return f()
    # the reference's unchecked sums can reach math.sin(inf) (ValueError)
    except (EvalDomainError, ValueError, OverflowError) as e:
        return e


def _same_error(a, b):
    return (isinstance(a, EvalDomainError) and isinstance(b, EvalDomainError)
            and str(a) == str(b) and a.span == b.span)


def _node_at(node, span):
    """The node of a parsed tree with this source span (spans are unique)."""
    if node.span == span:
        return node
    children = {Neg: lambda n: (n.operand,), BinOp: lambda n: (n.left, n.right),
                Call: lambda n: n.args}.get(type(node), lambda n: ())(node)
    for child in children:
        found = _node_at(child, span)
        if found is not None:
            return found
    return None


def _value_defined(tree, node, coords, constants):
    sub = exprlang.SyntaxTree(node, tree.variables, tree.constants)
    return not isinstance(_outcome(lambda: eval_at(sub, coords, constants)), EvalDomainError)


@REPEATABLE
@given(_DUAL_SOURCES, st.tuples(_COORD, _COORD), st.floats(-3.0, 3.0))
def test_grad_at_matches_the_dual_numbers(source, coords, c):
    constants = {"c": c}
    tree = parse(source, 2, {"c"})
    value = _outcome(lambda: eval_at(tree, coords, constants))
    got = _outcome(lambda: grad_at(tree, coords, constants))
    ref = _outcome(lambda: dual_grad_at(tree, coords, constants))
    if isinstance(value, EvalDomainError):
        # the value is evaluated first, so its error wins
        assert _same_error(got, value), (got, value)
        # the dual numbers raise it too, unless their walk met a derivative
        # rule first (at a node whose value is defined) or the value error is
        # a sum overflowing, which they did not check
        ref_node = _node_at(tree.root, ref.span) if isinstance(ref, EvalDomainError) else None
        overflowing_sum = isinstance(_node_at(tree.root, value.span), BinOp) and (
            _node_at(tree.root, value.span).op in "+-"
        )
        if not overflowing_sum and not (
            ref_node is not None and _value_defined(tree, ref_node, coords, constants)
        ):
            assert _same_error(ref, value), (ref, value)
        return
    if isinstance(ref, EvalDomainError) or not np.all(np.isfinite(ref.partials)):
        return
    if isinstance(got, EvalDomainError):
        # the symbolic power rules need a^(b-1) for a constant exponent and
        # log(a), a > 0, for a varying one; the dual numbers branch on the
        # point instead (b = 0, or exponent partials that vanish there)
        node = _node_at(tree.root, got.span)
        assert (isinstance(node, BinOp) and node.op == "^") or (
            isinstance(node, Call) and node.func == "pow"
        ), (source, coords, got)
        return
    assert got.value == value == ref.value
    for i, dtree in enumerate(tree.partials):
        want, drift = _value_and_bound(dtree.root, coords, constants)
        assert got.partials[i] == want
        assert abs(ref.partials[i] - want) <= 2 * drift, (source, coords, i)


@REPEATABLE
@given(_SOURCES)
def test_print_parse_roundtrip_with_derivative_trees(source):
    tree = parse(source, 2, {"c"})
    for t in (tree, *tree.partials, *tree.partials[0].partials):
        again = parse_in_variables(to_source(t), ("x", "y"), {"c"})
        assert again.root == t.root, to_source(t)


def test_partials_are_built_once(monkeypatch):
    tree = parse("x^2*sin(y)", 2)
    calls = []
    real = exprlang.derivative
    monkeypatch.setattr(exprlang, "derivative", lambda t, v: calls.append(v) or real(t, v))
    first = tree.partials
    assert tree.partials is first and calls == ["x", "y"]
    grad_at(tree, (1.0, 2.0), {})
    assert calls == ["x", "y"]


def test_sign_is_a_builtin_with_zero_derivative():
    tree = parse("sign(x)*y", 2)
    assert [eval_at(tree, (x, 2.0), {}) for x in (-3.0, 0.0, -0.0, 0.5)] == [-2.0, 0.0, 0.0, 2.0]
    assert to_source(tree.partials[0]) == "0"
    with pytest.raises(ParseError):
        parse("sign(x, y)", 2)


def test_abs_derivative_is_zero_at_the_kink():
    tree = parse("abs(x - 1)*y", 2)
    assert to_source(tree.partials[0]) == "sign(x - 1)*y"
    assert list(grad_at(tree, (1.0, 3.0), {}).partials) == [0.0, 0.0]
    assert list(grad_at(tree, (0.5, 3.0), {}).partials) == [-3.0, 0.5]


def test_value_error_wins_over_the_partials():
    # d log(x) = 1/x is defined at x = -1, log(x) is not
    tree = parse("y + log(x)", 2)
    with pytest.raises(EvalDomainError, match="log of non-positive") as err:
        grad_at(tree, (-1.0, 0.0), {})
    assert err.value.span == (4, 10)


@pytest.mark.parametrize(
    "source,coords,message,span",
    [
        # sqrt' at 0, where the value sqrt(0) = 0 is defined
        ("y + sqrt(x*x)", (0.0, 1.0), "division by zero", (4, 13)),
        # a varying exponent needs a positive base, even where the power is
        # defined
        ("1 + x^y", (-2.0, 2.0), "log of non-positive", (4, 7)),
        ("1 + pow(x, y)", (0.0, 2.0), "division by zero", (4, 13)),
    ],
)
def test_derivative_errors_name_the_source_node(source, coords, message, span):
    tree = parse(source, 2)
    eval_at(tree, coords, {})
    with pytest.raises(EvalDomainError, match=message) as err:
        grad_at(tree, coords, {})
    assert err.value.span == span


def test_constant_exponent_power_rule_takes_negative_bases():
    tree = parse("x^c + pow(x, -(2))", 2, {"c"})
    g = grad_at(tree, (-2.0, 0.0), {"c": 3.0})
    assert list(g.partials) == [3.0 * 4.0 + 2.0 / 8.0, 0.0]
    # and a zero base, where a varying exponent's b da / a would divide by 0
    assert list(grad_at(parse("x^c", 2, {"c"}), (0.0, 1.0), {"c": 2.0}).partials) == [0.0, 0.0]


@pytest.mark.parametrize("source", ["x*1e308 + x*1e308", "x*1e308 - (0 - x)*1e308"])
@pytest.mark.parametrize("wrap", ["{}", "sin({})"])
def test_sum_overflow_is_a_domain_error(source, wrap):
    tree = parse(wrap.format(source), 2)
    cols = [np.array([0.5, 1.0]), np.array([0.0, 0.0])]
    start = wrap.index("{")
    for evaluate in (lambda: eval_at(tree, (1.0, 0.0), {}), lambda: eval_many([tree], cols, {})):
        with np.errstate(over="ignore"), pytest.raises(
            EvalDomainError, match="non-finite result"
        ) as err:
            evaluate()
        assert err.value.span == (start, start + len(source))


# --- the emitted functions against the parent's walker ---------------------------

_WALKER_COORD = st.one_of(_COORD, st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))


def _walk(root, coords, constants):
    """The parent's walker at a point, on Python floats: the value or the
    exception it raised."""
    try:
        return _eval_float(root, tuple(float(c) for c in coords), constants)
    except (EvalDomainError, ValueError, OverflowError) as e:
        return e


def _same_outcome(got, want):
    """Bit-identical values, or exceptions of one type with one message
    (and one span, for EvalDomainError)."""
    if isinstance(want, Exception):
        return (type(got) is type(want) and str(got) == str(want)
                and getattr(got, "span", None) == getattr(want, "span", None))
    return not isinstance(got, Exception) and struct.pack("d", got) == struct.pack("d", want)


@REPEATABLE
@given(_SOURCES, st.tuples(_WALKER_COORD, _WALKER_COORD), st.one_of(st.none(), st.floats(-3.0, 3.0)),
       st.booleans())
def test_eval_at_matches_the_parent_walker(source, coords, c, numpy_scalars):
    # c None leaves the constant unbound; NumPy scalar coordinates give the
    # values and messages of Python floats
    constants = {} if c is None else {"c": c}
    tree = parse(source, 2, {"c"})
    point = tuple(np.float64(v) for v in coords) if numpy_scalars else coords
    got = _outcome(lambda: eval_at(tree, point, constants))
    assert _same_outcome(got, _walk(tree.root, coords, constants)), (source, coords, got)


@REPEATABLE
@given(_SOURCES, st.tuples(_WALKER_COORD, _WALKER_COORD), st.one_of(st.none(), st.floats(-3.0, 3.0)))
def test_grad_at_matches_the_parent_walker_tree_by_tree(source, coords, c):
    # one function of the tree and its partials, which share subtrees,
    # gives what walking each tree in turn gives
    constants = {} if c is None else {"c": c}
    tree = parse(source, 2, {"c"})
    got = _outcome(lambda: grad_at(tree, coords, constants))
    for t in (tree, *tree.partials):
        want = _walk(t.root, coords, constants)
        if isinstance(want, Exception):
            assert _same_outcome(got, want), (source, coords, got, want)
            return
    assert _same_outcome(got.value, _walk(tree.root, coords, constants))
    for d, partial in zip(tree.partials, got.partials):
        assert _same_outcome(float(partial), _walk(d.root, coords, constants)), (source, coords)


def test_messages_print_python_floats_from_numpy_scalars():
    tree = parse("y + log(x)", 2)
    cols = [np.array([1.0, -1.0]), np.array([0.0, 0.0])]
    for evaluate in (lambda: eval_at(tree, (np.float64(-1.0), np.float64(0.0)), {}),
                     lambda: eval_many([tree], cols, {})):
        with pytest.raises(EvalDomainError) as err:
            evaluate()
        assert str(err.value).startswith("log of non-positive value -1.0 ")


def test_compiled_functions_are_kept_on_the_first_tree():
    tree = parse("x*y + sin(x)", 2)
    f = exprlang.compiled((tree,), "math")
    assert exprlang.compiled([tree], "math") is f
    both = exprlang.compiled((tree, *tree.partials), "math")
    assert both is not f and exprlang.compiled((tree, *tree.partials), "math") is both
    assert both((0.5, 2.0), {}) == (1.0 + math.sin(0.5), 2.0 + math.cos(0.5), 0.5)
    # a structurally equal tree has other spans, so it gets its own function
    other = parse(" x*y + sin(x)", 2)
    assert other.root == tree.root and exprlang.compiled((other,), "math") is not f


def test_emission_quotes_constant_names_and_binds_non_finite_literals():
    # the emitter reads node fields only, so text in the tree's source
    # never reaches exec
    tree = exprlang.SyntaxTree(
        BinOp((0, 1), "+", Const((0, 1), "__import__('os')"), Num((2, 3), math.inf)),
        ("x", "y"), frozenset({"__import__('os')"}), "__import__('os').system('false')",
    )
    with pytest.raises(EvalDomainError, match="non-finite result"):
        eval_at(tree, (0.0, 0.0), {"__import__('os')": -1.0})
    with pytest.raises(EvalDomainError, match="not bound"):
        eval_at(tree, (0.0, 0.0), {})
