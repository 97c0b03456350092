import math
import random

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


@pytest.mark.parametrize(
    "exponent",
    # an unchecked sum overflows to inf, and inf - inf is NaN
    ["x*1e308 + x*1e308", "(x*1e308 + x*1e308) - (x*1e308 + x*1e308)"],
)
def test_negative_base_non_finite_exponent(exponent):
    tree = parse(f"pow(-0.5, {exponent})", 2)
    with pytest.raises(EvalDomainError, match="non-finite exponent"):
        eval_at(tree, (1.0, 0.0), {})
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        EvalDomainError, match="non-finite exponent"
    ):
        exprlang.eval_many([tree], [np.array([1.0]), np.array([0.0])], {})


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
    }[node.func]()
    return value, _propagated(slope, ex) + 4 * _EPS * abs(value)


_LITERALS = st.sampled_from(["0", "1", "2", "0.5", "3", "1e-3", "709", "1.5"])
_LEAVES = st.one_of(st.sampled_from(["x", "y", "c"]), _LITERALS)


def _extend(children):
    binary = st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children).map(
        lambda t: f"({t[1]} {t[0]} {t[2]})"
    )
    unary = st.tuples(
        st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "-"]), children
    ).map(lambda t: f"{t[0]}({t[1]})")
    power = st.tuples(children, children).map(lambda t: f"pow({t[0]}, {t[1]})")
    return st.one_of(binary, unary, power)


_SOURCES = st.recursive(_LEAVES, _extend, max_leaves=8)
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
