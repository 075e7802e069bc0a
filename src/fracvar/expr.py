"""Tiny expression language for orders, warps, integrands and right-hand sides.

Grammar (highest precedence first): ``^`` (right-associative), unary minus,
``* /``, ``+ -``. Atoms are decimal literals, the constant ``pi``, the
variables ``t``, ``u``, ``alpha``, and calls of the unary functions
``sin cos exp ln sqrt abs``. Anything else is rejected at parse time with a
byte offset. Evaluation raises :class:`~fracvar.errors.DomainFault` instead of
returning NaN or infinity.

Floats and numpy arrays share one evaluation path: each operation has one
entry in a table holding its float function (``math``), its array function
(``numpy``) and its domain tests, so an array faults where the same floats
would, at the same node. Only an overflow in exp or ^ reads differently:
``math`` raises it ("overflow in exp", "overflow in power"), while numpy
returns an infinity ("expression evaluated to a non-finite value").
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisallowedVariable,
    DomainFault,
    ExprSyntaxError,
    UnboundVariable,
    UnknownIdentifier,
)

ALL_VARIABLES = frozenset({"t", "u", "alpha"})
FUNCTIONS = frozenset({"sin", "cos", "exp", "ln", "sqrt", "abs"})
_CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class Node:
    pos: int | None = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Const(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    name: str = ""


@dataclass(frozen=True)
class Unary(Node):
    op: str = ""
    operand: Node = field(default_factory=Const)


@dataclass(frozen=True)
class Binary(Node):
    op: str = ""
    left: Node = field(default_factory=Const)
    right: Node = field(default_factory=Const)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            offset = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {src[offset]!r}", offset)
        if match.lastgroup == "num":
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "ident":
            tokens.append(("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, allowed_vars: frozenset[str]):
        self.src = src
        self.tokens = _tokenize(src)
        self.index = 0
        self.allowed_vars = allowed_vars

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(op=text, left=node, right=self.term(), pos=offset)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(op=text, left=node, right=self.unary(), pos=offset)
            else:
                return node

    def unary(self) -> Node:
        kind, text, offset = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary(op="neg", operand=self.unary(), pos=offset)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # right-associative; the exponent may start with a unary minus
            node = Binary(op="^", left=node, right=self.unary(), pos=offset)
        return node

    def atom(self) -> Node:
        kind, text, offset = self.advance()
        if kind == "num":
            return Const(value=float(text), pos=offset)
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Unary(op=text, operand=inner, pos=offset)
            if text in _CONSTANTS:
                return Const(value=_CONSTANTS[text], pos=offset)
            if text in ALL_VARIABLES:
                if text not in self.allowed_vars:
                    raise DisallowedVariable(
                        f"variable {text!r} is not allowed here", offset
                    )
                return Var(name=text, pos=offset)
            raise UnknownIdentifier(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(
            "expected a number, name or parenthesized expression", offset
        )


def parse(src: str, allowed_vars: frozenset[str] | set[str] = ALL_VARIABLES) -> Node:
    """Parse expression text into a node tree.

    Raises ExprSyntaxError (with byte offset), UnknownIdentifier or
    DisallowedVariable on malformed input, and DomainFault at the literal
    when an infinite literal would be the value itself: 1e400, -1e400,
    abs(1e400). One that feeds a checked operation is left to evaluation
    (0.5^1e400 is 0, 2*1e400 faults at the product).
    """
    node = _Parser(src, frozenset(allowed_vars)).parse()
    # evaluation checks every operation but -, abs, ln and sqrt, which pass
    # an infinity through
    leaf = node
    while isinstance(leaf, Unary) and leaf.op in ("neg", "abs", "ln", "sqrt"):
        leaf = leaf.operand
    if isinstance(leaf, Const) and not math.isfinite(leaf.value):
        raise DomainFault("numeric literal is not finite", leaf.pos)
    return node


def variables(node: Node) -> set[str]:
    """The set of variable names appearing in the tree."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return variables(node.operand)
    if isinstance(node, Binary):
        return variables(node.left) | variables(node.right)
    return set()


def _fault(message: str, node: Node):
    raise DomainFault(message, node.pos)


# operation -> (float function, array function, domain tests, whether the result
# must be finite); a domain test is (predicate of the operands, fault message)
_OPS = {
    "sin": (math.sin, np.sin, (), True),
    "cos": (math.cos, np.cos, (), True),
    "exp": (math.exp, np.exp, (), True),
    "ln": (math.log, np.log, ((lambda x: x <= 0.0, "ln of a nonpositive value"),), False),
    "sqrt": (math.sqrt, np.sqrt, ((lambda x: x < 0.0, "sqrt of a negative value"),), False),
    "+": (operator.add, operator.add, (), True),
    "-": (operator.sub, operator.sub, (), True),
    "*": (operator.mul, operator.mul, (), True),
    "/": (operator.truediv, operator.truediv,
          ((lambda x, y: y == 0.0, "division by zero"),), True),
    # an infinite exponent counts as fractional: inf % 1 is nan
    "^": (math.pow, np.power,
          ((lambda x, y: (x < 0.0) & (y % 1.0 != 0.0),
            "negative base with fractional exponent"),
           (lambda x, y: (x == 0.0) & (y < 0.0), "zero base with negative exponent")),
          True),
}


def evaluate(node: Node, env: dict[str, float | np.ndarray]):
    """Evaluate the tree with the given variable bindings.

    Bindings may be scalars or numpy arrays (broadcast elementwise). Domain
    faults (log of a nonpositive value, division by zero, negative base with
    fractional exponent, overflow to infinity) raise DomainFault.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            value = env[node.name]
        except KeyError:
            raise UnboundVariable(node.name) from None
        # a numpy float64 read as the float it is: same bits, faster arithmetic
        return float(value) if isinstance(value, np.float64) else value
    if isinstance(node, Unary):
        value = evaluate(node.operand, env)
        if node.op == "neg":
            return -value
        if node.op == "abs":
            return abs(value)
        args = (value,)
    elif isinstance(node, Binary):
        args = (evaluate(node.left, env), evaluate(node.right, env))
    else:
        raise TypeError(f"not an expression node: {node!r}")
    # numpy's floating-point state matters only when an array is involved
    if isinstance(args[0], np.ndarray) or isinstance(args[-1], np.ndarray):
        with np.errstate(all="ignore"):
            return _checked(node, args, True)
    return _checked(node, args, False)


def _checked(node: Node, args: tuple, array: bool):
    """node's operation on args (math for floats, numpy for arrays), faulting
    instead of returning NaN or infinity."""
    float_fn, array_fn, domain, finite = _OPS[node.op]
    for bad, message in domain:
        mask = bad(*args)
        if np.any(mask) if array else mask:
            _fault(message, node)
    try:
        value = (array_fn if array else float_fn)(*args)
    except OverflowError:  # math.exp and math.pow
        _fault("overflow in " + ("power" if node.op == "^" else node.op), node)
    except ValueError:  # math.sin and math.cos of an infinity
        _fault("expression evaluated to a non-finite value", node)
    if finite and not (np.isfinite(value).all() if array else math.isfinite(value)):
        _fault("expression evaluated to a non-finite value", node)
    return value


# --- symbolic derivative -----------------------------------------------------

def _const(value: float) -> Const:
    return Const(value=float(value))

_ZERO = _const(0.0)
_ONE = _const(1.0)


def _is_const(node: Node, value: float | None = None) -> bool:
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


def _add(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    return Binary(op="+", left=a, right=b)


def _sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary(op="-", left=a, right=b)


def _neg(a: Node) -> Node:
    if isinstance(a, Const):
        return _const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.operand
    return Unary(op="neg", operand=a)


def _mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    return Binary(op="*", left=a, right=b)


def _div(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Binary(op="/", left=a, right=b)


def _pow(a: Node, b: Node) -> Node:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _ONE
    return Binary(op="^", left=a, right=b)


def derivative(node: Node, var: str) -> Node:
    """Symbolic derivative of the tree with respect to ``var``.

    abs differentiates to operand/abs(operand) * operand', which correctly
    faults at the kink instead of inventing a value there.
    """
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Unary):
        inner = node.operand
        dinner = derivative(inner, var)
        if node.op == "neg":
            return _neg(dinner)
        if node.op == "sin":
            return _mul(Unary(op="cos", operand=inner), dinner)
        if node.op == "cos":
            return _neg(_mul(Unary(op="sin", operand=inner), dinner))
        if node.op == "exp":
            return _mul(Unary(op="exp", operand=inner), dinner)
        if node.op == "ln":
            return _div(dinner, inner)
        if node.op == "sqrt":
            return _div(dinner, _mul(_const(2.0), Unary(op="sqrt", operand=inner)))
        if node.op == "abs":
            sign = _div(inner, Unary(op="abs", operand=inner))
            return _mul(sign, dinner)
        raise TypeError(f"unknown unary operator {node.op!r}")
    if isinstance(node, Binary):
        f, g = node.left, node.right
        df, dg = derivative(f, var), derivative(g, var)
        if node.op == "+":
            return _add(df, dg)
        if node.op == "-":
            return _sub(df, dg)
        if node.op == "*":
            return _add(_mul(df, g), _mul(f, dg))
        if node.op == "/":
            numer = _sub(_mul(df, g), _mul(f, dg))
            return _div(numer, _pow(g, _const(2.0)))
        if node.op == "^":
            if isinstance(g, Const):
                scaled = _mul(g, _pow(f, _const(g.value - 1.0)))
                return _mul(scaled, df)
            # general exponent: f^g * (g' ln f + g f'/f)
            bracket = _add(
                _mul(dg, Unary(op="ln", operand=f)),
                _mul(g, _div(df, f)),
            )
            return _mul(_pow(f, g), bracket)
        raise TypeError(f"unknown binary operator {node.op!r}")
    raise TypeError(f"not an expression node: {node!r}")


# --- printing ----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC["neg"]
    return _ATOM_PREC


def to_source(node: Node) -> str:
    """Render the tree as parseable text (minimal parentheses)."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_source(node.operand)
            if _prec(node.operand) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_source(node.operand)})"
    if isinstance(node, Binary):
        op = node.op
        left, right = to_source(node.left), to_source(node.right)
        if op == "^":
            if _prec(node.left) <= _PREC["^"] and not isinstance(node.left, (Const, Var)):
                left = f"({left})"
            elif isinstance(node.left, Const) and node.left.value < 0:
                left = f"({left})"
            if _prec(node.right) < _PREC["^"]:
                right = f"({right})"
            return f"{left}^{right}"
        if _prec(node.left) < _PREC[op]:
            left = f"({left})"
        # - and / do not associate on the right
        right_min = _PREC[op] + (1 if op in ("-", "/") else 0)
        if _prec(node.right) < right_min:
            right = f"({right})"
        return f"{left} {op} {right}"
    raise TypeError(f"not an expression node: {node!r}")
