"""Arithmetic expression language for field and potential definitions.

Grammar (tightest binding first):

    function call, parentheses
    ^                   right-associative; binds tighter than unary minus,
                        so ``-x^2`` means ``-(x^2)``; the exponent may
                        itself start with a unary minus (``x^-2``)
    unary minus
    * /                 left-associative
    + -                 left-associative

Literals are decimal (scientific notation accepted, e.g. ``1e-3``); there
is no implicit multiplication (``2x`` is a syntax error). Identifiers are
coordinates, declared constants, or the builtin functions ``sin cos tan
exp log sqrt abs sign pow``; ``sign`` is -1, 0 or 1, the derivative of
``abs`` (0 at the kink). Every node carries the byte span of its source
text, which error messages reference.

Evaluation is IEEE double precision, and every node's result is checked:
a domain error or a non-finite result raises EvalDomainError at that
node's span. One emitter (``compiled``) writes a tuple of trees as one
Python function, compiled on first use and kept on the first tree, with
each node rule (``_RULES``) written once for two backends: ``math`` on
Python floats for one point (``eval_at``, ``grad_at``, the fields' points),
which raises the error a recursive walk meets first, and ``numpy`` over
columns of N points (``eval_many``), whose tests are supersets of the
checks. If any point of a batch fails one, the points are evaluated again
with ``eval_at`` in order, so a batch raises exactly the error (type,
message and span) that the pointwise loop raises first.

Derivatives are symbolic: ``derivative(tree, var)``, cached per tree and
variable in ``tree.partials``. Their nodes carry the span of the source
node they differentiate, which raises where no derivative exists: sqrt'
at 0 divides by zero, a varying exponent needs the log of its base.
``grad_at`` evaluates the value and then each partial tree at one point;
the value comes first, so d log(x) = 1/x gives no answer at x < 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import EvalDomainError, ParseError

COORDS_2D = ("x", "y")
COORDS_3D = ("x", "y", "z")

FUNCTION_ARITY = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "sign": 1,
    "pow": 2,
}


# --- syntax tree -----------------------------------------------------------

@dataclass(frozen=True)
class Node:
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    name: str = ""
    index: int = 0


@dataclass(frozen=True)
class Const(Node):
    name: str = ""


@dataclass(frozen=True)
class Neg(Node):
    operand: Node = None


@dataclass(frozen=True)
class BinOp(Node):
    op: str = "+"
    left: Node = None
    right: Node = None


@dataclass(frozen=True)
class Call(Node):
    func: str = ""
    args: tuple = ()


@dataclass(frozen=True)
class SyntaxTree:
    """Parsed expression bound to an ordered variable tuple and a set of
    admissible constant names."""

    root: Node
    variables: tuple
    constants: frozenset
    source: str = ""
    # the functions ``compiled`` built for this tree, alone or first of several
    functions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def referenced_constants(self):
        return _leaf_names(self.root, Const)

    @cached_property
    def partials(self):
        """The derivative tree for each variable, in variable order."""
        return tuple(derivative(self, v) for v in self.variables)


def _leaf_names(node, kind, found=None):
    """Names of the leaves of type ``kind`` (Var or Const) under ``node``."""
    found = set() if found is None else found
    if isinstance(node, kind):
        found.add(node.name)
    for child in ((node.operand,) if isinstance(node, Neg) else (node.left, node.right)
                  if isinstance(node, BinOp) else getattr(node, "args", ())):
        _leaf_names(child, kind, found)
    return found


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == m.start():
            # nothing matched: either trailing whitespace or a bad character
            rest = source[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            at = pos + (len(rest) - len(stripped))
            raise ParseError(
                f"unexpected character {stripped[0]!r}", (at, at + 1), source
            )
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num"), m.end("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident"), m.end("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op"), m.end("op")))
        pos = m.end()
    tokens.append(("end", "", n, n))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, source, variables, constants):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.variables = tuple(variables)
        self.var_index = {name: i for i, name in enumerate(self.variables)}
        self.constants = frozenset(constants)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, text, start, end = self.peek()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", (start, end), self.source)
        return self.advance()

    def parse(self):
        node = self.additive()
        kind, text, start, end = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", (start, end), self.source)
        return node

    def additive(self):
        node = self.term()
        while True:
            kind, text, start, end = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right = self.term()
                node = BinOp((node.span[0], right.span[1]), text, node, right)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, start, end = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right = self.unary()
                node = BinOp((node.span[0], right.span[1]), text, node, right)
            else:
                return node

    def unary(self):
        kind, text, start, end = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            operand = self.unary()
            return Neg((start, operand.span[1]), operand)
        return self.power()

    def power(self):
        base = self.primary()
        kind, text, start, end = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; exponent may start with unary minus
            exponent = self.unary()
            return BinOp((base.span[0], exponent.span[1]), "^", base, exponent)
        return base

    def primary(self):
        kind, text, start, end = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(
                    f"number {text!r} is beyond the double range", (start, end), self.source
                )
            return Num((start, end), value)
        if kind == "ident":
            nkind, ntext, nstart, nend = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in FUNCTION_ARITY:
                    raise ParseError(f"unknown function {text!r}", (start, end), self.source)
                self.advance()
                args = [self.additive()]
                while True:
                    pkind, ptext, pstart, pend = self.peek()
                    if pkind == "op" and ptext == ",":
                        self.advance()
                        args.append(self.additive())
                    else:
                        break
                close = self.expect_op(")")
                if len(args) != FUNCTION_ARITY[text]:
                    raise ParseError(
                        f"{text} takes {FUNCTION_ARITY[text]} argument(s), got {len(args)}",
                        (start, close[3]),
                        self.source,
                    )
                return Call((start, close[3]), text, tuple(args))
            if text in self.var_index:
                return Var((start, end), text, self.var_index[text])
            if text in self.constants:
                return Const((start, end), text)
            admissible = ", ".join(self.variables) or "(none)"
            raise ParseError(
                f"unknown identifier {text!r} (coordinates: {admissible})",
                (start, end),
                self.source,
            )
        if kind == "op" and text == "(":
            node = self.additive()
            self.expect_op(")")
            return node
        raise ParseError(f"expected an operand, got {text!r}", (start, end), self.source)


def parse_in_variables(source, variables, constants=()):
    """Parse ``source`` against an explicit ordered variable tuple."""
    parser = _Parser(source, variables, constants)
    root = parser.parse()
    return SyntaxTree(root, tuple(variables), frozenset(constants), source)


def parse(source, dimension, constants=()):
    """Parse an expression over the coordinates of a 2D or 3D problem.

    ``z`` is rejected when dimension is 2. Unknown identifiers that are
    neither coordinates, declared constants, nor builtin functions raise
    :class:`ParseError` with the offending span.
    """
    if dimension == 2:
        variables = COORDS_2D
    elif dimension == 3:
        variables = COORDS_3D
    else:
        raise ValueError(f"dimension must be 2 or 3, got {dimension!r}")
    return parse_in_variables(source, variables, constants)


# --- pretty printer --------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _precedence(node):
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_UNARY
    if isinstance(node, Num) and node.value < 0:
        return _PREC_UNARY  # synthetic negative literal prints like a negation
    return _PREC_ATOM


def _format_number(value):
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _print_node(node):
    if isinstance(node, Num):
        return _format_number(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Neg):
        inner = _print_node(node.operand)
        if _precedence(node.operand) < _PREC_UNARY or isinstance(node.operand, Neg):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        lp, rp = _precedence(node.left), _precedence(node.right)
        left, right = _print_node(node.left), _print_node(node.right)
        if node.op in "+-":
            if lp < _PREC_ADD:
                left = f"({left})"
            if rp <= _PREC_ADD:
                right = f"({right})"
            return f"{left} {node.op} {right}"
        if node.op in "*/":
            if lp < _PREC_MUL:
                left = f"({left})"
            if rp <= _PREC_MUL:
                right = f"({right})"
            return f"{left}{node.op}{right}"
        # '^': left operand must be an atom; right may be unary or tighter
        if lp <= _PREC_POW:
            left = f"({left})"
        if rp < _PREC_UNARY:
            right = f"({right})"
        return f"{left}^{right}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_print_node(a) for a in node.args)})"
    raise TypeError(f"unknown node {node!r}")


def to_source(tree):
    """Render a tree back to source text; reparsing the result yields a
    structurally identical tree."""
    return _print_node(tree.root)


# --- evaluation ------------------------------------------------------------

class _PointFailed(Exception):
    """Some point of a batch may fail a check of the math backend."""


# the names an emitted function sees, per backend
_FUNCTIONS = ("isfinite", "exp", "log", "sqrt", "sin", "cos", "tan")
_NAMESPACES = {
    "math": {"E": EvalDomainError, "pow": math.pow,
             "sign": lambda x: math.copysign(1.0, x) if x != 0.0 else 0.0,
             **{name: getattr(math, name) for name in _FUNCTIONS}},
    "numpy": {"PF": _PointFailed, "all_": np.all, "pow": np.power, "sign": np.sign, "abs": np.abs,
              **{name: getattr(np, name) for name in _FUNCTIONS}},
}

# A check is (the math backend's failure test and message, the NumPy
# backend's pass test, which NaN fails too), None where a backend has none;
# {0} and {1} are the operands. math.sin/cos/tan reject infinities, so the
# NumPy backend reruns every non-finite argument of theirs pointwise.
_FINITE_ARG = (None, None, "isfinite({0})")
_POW_CHECKS = (
    ("{0} == 0.0 and {1} < 0.0", "'zero raised to a negative power'", None),
    # int() of an infinite or NaN exponent would raise outside the package's errors
    ("{0} < 0.0 and not isfinite({1})", "'negative base with non-finite exponent'", None),
    ("{0} < 0.0 and {1} != int({1})", "'negative base with non-integer exponent'", None),
    # np.power gives inf or NaN for the others, but may not for an infinite exponent
    _FINITE_ARG,
    (None, None, "isfinite({1})"),
)
# operator or function -> (checks, operation, whether the result must be finite)
_RULES = {
    **{op: ((), f"{{0}} {op} {{1}}", True) for op in "+-*"},
    "/": ((("{1} == 0.0", "'division by zero'", "{1} != 0.0"),), "{0} / {1}", True),
    "pow": (_POW_CHECKS, "pow({0}, {1})", True),  # the operator ^ too
    # math.exp is finite below 709; the test also turns NaN away
    "exp": ((("not {0} < 709.0", "'non-finite result'", "{0} < 709.0"),), "exp({0})", False),
    "log": ((("{0} <= 0.0", "f'log of non-positive value {{{0}!r}}'", "{0} > 0.0"),),
            "log({0})", False),
    "sqrt": ((("{0} < 0.0", "f'sqrt of negative value {{{0}!r}}'", "{0} >= 0.0"),),
             "sqrt({0})", False),
    "abs": ((), "abs({0})", False),
    "sign": ((_FINITE_ARG,), "sign({0})", False),
    "sin": ((_FINITE_ARG,), "sin({0})", False),
    "cos": ((_FINITE_ARG,), "cos({0})", False),
    "tan": ((_FINITE_ARG,), "tan({0})", True),
}


class _Emitter:
    """One function of the trees under some roots, for a backend. Each node
    is evaluated after its operands, left to right, and checked at once, so
    the first failing check is the one a recursive walk meets first. A node
    object met again (derivative trees share subtrees) reuses its value.
    Only node fields reach the source: literals through ``repr`` (exact for
    doubles) or bound as names, constant names through ``repr``, spans as
    integer tuples."""

    def __init__(self, backend):
        self.numpy = backend == "numpy"
        self.namespace = dict(_NAMESPACES[backend])
        self.lines = []
        self.names = {}  # id(node) -> expression of its value
        self.known = set()  # pass tests made already, or true of literals
        self.coords = set()

    def expr(self, node):
        if id(node) not in self.names:
            self.names[id(node)] = self.value(node)
        return self.names[id(node)]

    def check(self, fail, message, ok, span):
        if self.numpy and ok is not None and ok not in self.known:
            self.known.add(ok)
            self.lines.append(f"if not all_({ok}): raise PF")
        elif not self.numpy and fail is not None:
            self.lines.append(f"if {fail}: raise E({message}, {span})")

    def assign(self, operation):
        self.lines.append(f"v{len(self.lines)} = {operation}")
        return f"v{len(self.lines) - 1}"

    def value(self, node):
        if isinstance(node, Num):
            if math.isfinite(node.value):
                self.known.add(f"isfinite({float(node.value)!r})")
                return repr(float(node.value))
            name = f"k{len(self.namespace)}"
            self.namespace[name] = node.value
            return name
        if isinstance(node, Var):
            self.coords.add(int(node.index))
            return f"x{int(node.index)}"
        span = repr(tuple(int(i) for i in node.span))
        if isinstance(node, Const):
            key = repr(str(node.name))
            self.check(f"{key} not in C", repr(f"constant {node.name!r} not bound"),
                       f"{key} in C", span)
            return self.assign(f"C[{key}]")
        if isinstance(node, Neg):
            return self.assign(f"-{self.expr(node.operand)}")
        if isinstance(node, BinOp):
            # as in a parsed tree, an operator other than + - * / is a power
            rule = node.op if node.op in ("+", "-", "*", "/") else "pow"
            args = (node.left, node.right)
        elif isinstance(node, Call) and node.func in FUNCTION_ARITY:
            rule, args = node.func, node.args[:2 if node.func == "pow" else 1]
        else:
            raise TypeError(f"unknown node {node!r}")
        operands = [self.expr(a) for a in args]
        checks, operation, finite = _RULES[rule]
        for fail, message, ok in checks:
            self.check(fail and fail.format(*operands), message and message.format(*operands),
                       ok and ok.format(*operands), span)
        out = self.assign(operation.format(*operands))
        if checks is _POW_CHECKS and not self.numpy:  # math.pow raises on overflow
            self.lines[-1:] = ["try:", f" {self.lines[-1]}", "except OverflowError:",
                               f" raise E('overflow in power', {span}) from None"]
        if finite:
            self.check(f"not isfinite({out})", "'non-finite result'", f"isfinite({out})", span)
        return out

    def function(self, roots):
        results = "".join(f"{self.expr(root)}, " for root in roots)
        convert = "X[{0}]" if self.numpy else "float(X[{0}])"
        entry = [f"x{i} = {convert.format(i)}" for i in sorted(self.coords)]
        source = "\n ".join(["def f(X, C):", *entry, *self.lines, f"return ({results})"])
        exec(_code(source), self.namespace)
        return self.namespace["f"]


@lru_cache(maxsize=256)
def _code(source):
    # trees parsed again from the same text emit the same source
    return compile(source, "<curlkit expression>", "exec")


def compiled(trees, backend):
    """``f(X, C)``: the values of ``trees`` at coordinates ``X`` (Python
    floats for ``"math"``, columns of shape (N,) for ``"numpy"``, which runs
    under ``np.errstate(all="ignore")`` and raises ``_PointFailed``) with
    constants ``C``, as a tuple; built once and kept on the first tree."""
    key = backend if len(trees) == 1 else (backend, *[id(t.root) for t in trees[1:]])
    kept = trees[0].functions.get(key)
    if kept is None:
        roots = tuple(tree.root for tree in trees)
        # the roots are kept too, so that their ids stay theirs
        kept = trees[0].functions[key] = (roots, _Emitter(backend).function(roots))
    return kept[1]


def eval_at(tree, coords, constants):
    """Value of ``tree`` at ``coords`` (ordered as ``tree.variables``) with
    ``constants`` mapping constant names to numbers, in IEEE double
    precision on Python floats. An unbound constant or a domain error
    raises EvalDomainError carrying the failing node's span."""
    return compiled((tree,), "math")(coords, constants)[0]


Gradient = NamedTuple("Gradient", [("value", float), ("partials", np.ndarray)])


def grad_at(tree, coords, constants):
    """Value of ``tree`` and its partials with respect to each declared
    variable, in declaration order, from ``tree.partials``. The arguments
    are those of ``eval_at``; the value is evaluated first, so its error
    wins over a partial's."""
    value, *partials = compiled((tree, *tree.partials), "math")(coords, constants)
    return Gradient(value, np.array(partials))


def eval_many(trees, columns, constants):
    """Values of several trees over the same variables at N points, as an
    array of shape (len(trees), N), from ``columns``, one array of shape
    (N,) per variable. They agree with ``eval_at`` to a few ulps (NumPy's
    ``exp``, ``log``, ``tan`` and ``power`` may round differently from
    libm). If any point may fail a check, all points are evaluated again
    with ``eval_at``, point by point and tree by tree within a point, so the
    error raised is exactly the one the pointwise loop raises first."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = len(cols[0])
    out = np.empty((len(trees), n))
    try:
        if n == 1:
            raise _PointFailed  # one point is cheaper pointwise, and then exact
        with np.errstate(all="ignore"):
            for row, values in zip(out, compiled(trees, "numpy")(cols, constants)):
                row[:] = values
    except _PointFailed:
        for i in range(n):
            coords = tuple(c[i] for c in cols)
            out[:, i] = [eval_at(tree, coords, constants) for tree in trees]
    return out


# --- tree surgery (substitution and differentiation) -----------------------

def _num(value):
    return Num((0, 0), float(value))


def _is_literal(node, value):
    return isinstance(node, Num) and node.value == value


def _add(a, b, span=(0, 0)):
    if _is_literal(a, 0.0):
        return b
    if _is_literal(b, 0.0):
        return a
    return BinOp(span, "+", a, b)


def _sub(a, b, span=(0, 0)):
    if _is_literal(b, 0.0):
        return a
    if _is_literal(a, 0.0):
        return Neg(span, b)
    return BinOp(span, "-", a, b)


def _mul(a, b, span=(0, 0)):
    if _is_literal(a, 0.0) or _is_literal(b, 0.0):
        return _num(0.0)
    if _is_literal(a, 1.0):
        return b
    if _is_literal(b, 1.0):
        return a
    return BinOp(span, "*", a, b)


def _div(a, b, span=(0, 0)):
    if _is_literal(b, 1.0):
        return a
    if _is_literal(a, 0.0):
        return _num(0.0)
    return BinOp(span, "/", a, b)


def _pow(a, b, span=(0, 0)):
    if _is_literal(b, 1.0):
        return a
    return BinOp(span, "^", a, b)


def substitute(tree, var_name, replacement):
    """Replace every occurrence of a variable with a subtree.

    The result is re-bound to the replacement tree's variable tuple; the
    remaining variables of ``tree`` must not survive the substitution (the
    intended use replaces the only variable, e.g. the gauge parameter).
    """
    repl_root = replacement.root

    def walk(node):
        if isinstance(node, Var):
            if node.name == var_name:
                return repl_root
            raise ValueError(
                f"variable {node.name!r} survives substitution of {var_name!r}"
            )
        if isinstance(node, Neg):
            return Neg(node.span, walk(node.operand))
        if isinstance(node, BinOp):
            return BinOp(node.span, node.op, walk(node.left), walk(node.right))
        if isinstance(node, Call):
            return Call(node.span, node.func, tuple(walk(a) for a in node.args))
        return node

    return SyntaxTree(
        walk(tree.root),
        replacement.variables,
        tree.constants | replacement.constants,
        "",
    )


def derivative(tree, var_name):
    """Symbolic derivative with respect to one variable.

    No simplification beyond dropping exact zero/one factors. Every node
    built for a source node carries that node's span, so a derivative that
    fails to evaluate names the expression it came from.
    """

    def d(node):
        if isinstance(node, (Num, Const)):
            return _num(0.0)
        if isinstance(node, Var):
            return _num(1.0) if node.name == var_name else _num(0.0)
        at = node.span
        if isinstance(node, Neg):
            inner = d(node.operand)
            return _num(0.0) if _is_literal(inner, 0.0) else Neg(at, inner)
        if isinstance(node, BinOp):
            a, b = node.left, node.right
            da, db = d(a), d(b)
            if node.op == "+":
                return _add(da, db, at)
            if node.op == "-":
                return _sub(da, db, at)
            if node.op == "*":
                return _add(_mul(da, b, at), _mul(a, db, at), at)
            if node.op == "/":
                numerator = _sub(_mul(da, b, at), _mul(a, db, at), at)
                return _div(numerator, _pow(b, _num(2.0), at), at)
            return _d_power(a, b, da, db, at)
        if isinstance(node, Call):
            if node.func == "pow":
                a, b = node.args
                return _d_power(a, b, d(a), d(b), at)
            (a,) = node.args
            da = d(a)
            if node.func == "sin":
                outer = Call(at, "cos", (a,))
            elif node.func == "cos":
                outer = Neg(at, Call(at, "sin", (a,)))
            elif node.func == "tan":
                outer = _div(_num(1.0), _pow(Call(at, "cos", (a,)), _num(2.0), at), at)
            elif node.func == "exp":
                outer = Call(at, "exp", (a,))
            elif node.func == "log":
                outer = _div(_num(1.0), a, at)
            elif node.func == "sqrt":
                # divides by zero at a = 0, where sqrt has no derivative
                outer = _div(_num(1.0), _mul(_num(2.0), Call(at, "sqrt", (a,)), at), at)
            elif node.func == "abs":
                outer = Call(at, "sign", (a,))  # 0 at the kink
            elif node.func == "sign":
                outer = _num(0.0)
            else:
                raise ValueError(f"no derivative rule for {node.func!r}")
            return _mul(outer, da, at)
        raise TypeError(f"unknown node {node!r}")

    def _d_power(a, b, da, db, at):
        if not _leaf_names(b, Var):
            # constant exponent: the power rule, valid for negative bases too
            n = b.value if isinstance(b, Num) else None
            if n == 0.0:
                return _num(0.0)
            if n is None:
                exponent = _sub(b, _num(1.0), at)
            else:
                exponent = _num(n - 1.0) if n - 1.0 >= 0.0 else Neg(at, _num(1.0 - n))
            return _mul(_mul(b, _pow(a, exponent, at), at), da, at)
        # varying exponent: a^b (db log(a) + b da / a), which needs a > 0
        logterm = _mul(db, Call(at, "log", (a,)), at)
        ratio = _div(_mul(b, da, at), a, at)
        return _mul(_pow(a, b, at), _add(logterm, ratio, at), at)

    return SyntaxTree(d(tree.root), tree.variables, tree.constants, "")
