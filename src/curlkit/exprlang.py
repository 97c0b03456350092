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
node's span. ``eval_at(tree, coords, constants)`` returns the value.

Derivatives are symbolic: ``derivative(tree, var)``, cached per tree and
variable in ``tree.partials``. Their nodes carry the span of the source
node they differentiate, which raises where no derivative exists: sqrt'
at 0 divides by zero, a varying exponent needs the log of its base.
``grad_at`` evaluates the value and then each partial tree at one point;
the value comes first, so d log(x) = 1/x gives no answer at x < 0.

``eval_at`` is the single-point path and the reference. ``eval_many``
evaluates several trees at N points in one walk per tree over NumPy
columns, making every check of ``eval_at`` over all points at each node.
If any point fails one, the batch is discarded and the points are
evaluated again with ``eval_at`` in order, so a batch raises exactly the
error (type, message and span) that the pointwise loop raises first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
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


def eval_at(tree, coords, constants):
    """Value of ``tree`` at ``coords`` (ordered as ``tree.variables``) with
    ``constants`` mapping constant names to numbers, in IEEE double
    precision. An unbound constant or a domain error raises
    EvalDomainError carrying the failing node's span."""
    return _eval_float(tree.root, coords, constants)


Gradient = NamedTuple("Gradient", [("value", float), ("partials", np.ndarray)])


def grad_at(tree, coords, constants):
    """Value of ``tree`` and its partials with respect to each declared
    variable, in declaration order, from ``tree.partials``. The arguments
    are those of ``eval_at``; the value is evaluated first, so its error
    wins over a partial's."""
    value = _eval_float(tree.root, coords, constants)
    partials = np.array([_eval_float(d.root, coords, constants) for d in tree.partials])
    return Gradient(value, partials)


class _PointFailed(Exception):
    """Some point of a batch fails a check of the pointwise evaluator."""


def _require(ok):
    # ok is a boolean array, or a plain bool for a subtree without variables
    if not np.all(ok):
        raise _PointFailed


def _eval_columns(node, cols, constants):
    """``_eval_float`` over NumPy columns; raises _PointFailed wherever a
    point may fail one of its checks. Each test is a superset of the
    pointwise one (NaN fails every comparison here), so a batch that passes
    holds no point the pointwise evaluator would reject."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return cols[node.index]
    if isinstance(node, Const):
        if node.name not in constants:
            raise _PointFailed
        return constants[node.name]
    if isinstance(node, Neg):
        return -_eval_columns(node.operand, cols, constants)
    if isinstance(node, BinOp):
        a = _eval_columns(node.left, cols, constants)
        b = _eval_columns(node.right, cols, constants)
        if node.op == "+":
            out = a + b
        elif node.op == "-":
            out = a - b
        elif node.op == "*":
            out = a * b
        elif node.op == "/":
            _require(b != 0.0)
            out = a / b
        else:
            out = _pow_columns(a, b)
        _require(np.isfinite(out))
        return out
    if isinstance(node, Call):
        if node.func == "pow":
            a = _eval_columns(node.args[0], cols, constants)
            b = _eval_columns(node.args[1], cols, constants)
            out = _pow_columns(a, b)
            _require(np.isfinite(out))
            return out
        x = _eval_columns(node.args[0], cols, constants)
        if node.func == "exp":
            _require(x < 709.0)
            return np.exp(x)
        if node.func == "log":
            _require(x > 0.0)
            return np.log(x)
        if node.func == "sqrt":
            _require(x >= 0.0)
            return np.sqrt(x)
        if node.func == "abs":
            return np.abs(x)
        # math.sin/cos/tan reject infinities, so every non-finite argument
        # goes to the pointwise evaluator
        _require(np.isfinite(x))
        if node.func == "sign":
            return np.sign(x)
        if node.func == "sin":
            return np.sin(x)
        if node.func == "cos":
            return np.cos(x)
        if node.func == "tan":
            out = np.tan(x)
            _require(np.isfinite(out))
            return out
        raise _PointFailed
    raise TypeError(f"unknown node {node!r}")


def _pow_columns(a, b):
    # a zero base with a negative exponent gives inf and a negative base with
    # a non-integer exponent NaN, both caught by the caller; an infinite
    # exponent can give a finite power where the pointwise rule fails
    _require(np.isfinite(a) & np.isfinite(b))
    return np.power(a, b)


def eval_many(trees, columns, constants):
    """Values of several trees over the same variables at N points, as an
    array of shape (len(trees), N).

    ``columns`` holds one array of shape (N,) per variable, ordered as
    ``tree.variables``. Each tree is walked once over whole columns. The
    results agree with ``eval_at`` to a few ulps: NumPy's ``exp``,
    ``log``, ``tan`` and ``power`` may round differently from libm in the
    last bit. Every check of ``eval_at`` is made at each node over all
    points; if any point fails one, all points are evaluated again with
    ``eval_at``, point by point and tree by tree within a point, so the
    error raised is exactly the one the pointwise loop raises first."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = len(cols[0])
    out = np.empty((len(trees), n))
    try:
        if n == 1:
            raise _PointFailed  # one point is cheaper pointwise, and then exact
        with np.errstate(all="ignore"):
            for row, tree in zip(out, trees):
                row[:] = _eval_columns(tree.root, cols, constants)
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
