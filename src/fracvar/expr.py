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

For float bindings called many times (the solver's right-hand side),
:func:`to_function` compiles a tree once into straight-line Python generated
from the same table, with every domain test inline and finiteness tested
where a non-finite value could be lost. When a test misses it re-runs the
walk, so fault messages, offsets and values are the walk's. Arrays walk.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable, Sequence
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
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
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
    leaf = _core(node)
    if isinstance(leaf, Const) and not math.isfinite(leaf.value):
        raise DomainFault("numeric literal is not finite", leaf.pos)
    return node


def _core(node: Node) -> Node:
    """node without its outer -, abs, ln and sqrt, the operations not checked."""
    while isinstance(node, Unary) and node.op in ("neg", "abs", "ln", "sqrt"):
        node = node.operand
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


def _domain_test(source: str, message: str, clear: str = "False"):
    """A domain test: the predicate of the operands x (and y) as a function,
    for the walk, and as source, for to_function; its fault message; and a
    predicate of y alone, true where no x makes the test fire, by which
    to_function drops the test for a Const y."""
    return (eval(f"lambda x, y=None: {source}", {}), source, message,
            eval(f"lambda y: {clear}", {}))


# operation -> (float function, array function, domain tests, whether the result
# must be finite)
_OPS = {
    "sin": (math.sin, np.sin, (), True),
    "cos": (math.cos, np.cos, (), True),
    "exp": (math.exp, np.exp, (), True),
    "ln": (math.log, np.log, (_domain_test("x <= 0.0", "ln of a nonpositive value"),),
           False),
    "sqrt": (math.sqrt, np.sqrt, (_domain_test("x < 0.0", "sqrt of a negative value"),),
             False),
    "+": (operator.add, operator.add, (), True),
    "-": (operator.sub, operator.sub, (), True),
    "*": (operator.mul, operator.mul, (), True),
    "/": (operator.truediv, operator.truediv,
          (_domain_test("y == 0.0", "division by zero"),), True),
    # an infinite exponent counts as fractional: inf % 1 is nan
    "^": (math.pow, np.power,
          (_domain_test("(x < 0.0) & (y % 1.0 != 0.0)",
                        "negative base with fractional exponent", "y % 1.0 == 0.0"),
           _domain_test("(x == 0.0) & (y < 0.0)", "zero base with negative exponent",
                        "y >= 0.0")),
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
    for bad, _, message, _ in domain:
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


# float functions that to_function writes as operators
_INFIX = {operator.add: "+", operator.sub: "-", operator.mul: "*", operator.truediv: "/"}


def to_function(node: Node, names: Sequence[str]) -> Callable[..., float]:
    """Compile the tree into a function of positional floats, one per name.

    The function is straight-line code, built once: each operation calls its
    float function from _OPS with the entry's domain tests before it. When a
    test misses or math raises, it returns evaluate(node, env) instead, so
    the walk stays the only source of DomainFault messages and offsets.
    Constants are bound by name (inf, -0.0 and pi are not safe literals),
    and folded where that is exact: the negation of a Const is bound as the
    negated constant, and a Const exponent drops each domain test it settles
    (an integer one the fractional-exponent test, one >= 0 the zero-base
    test). Array bindings go through evaluate.

    Finiteness is tested at the root and at each operand of /, ^ and exp
    whose _core is an operation, which is exact: the walk faults at the first
    checked operation whose value is not finite, and the compiled code, equal
    to it up to there, carries that value on to a test, since only 1 / inf,
    inf^0 and exp(-inf) are finite; every other operation maps a non-finite
    operand to a non-finite value or raises (inf - inf and 0 * inf are NaN,
    sin(inf) raises). Const and Var are checked by neither (0.5^1e400 is 0).
    """
    names = tuple(names)
    unbound = variables(node) - set(names)
    if unbound:
        raise UnboundVariable(min(unbound))
    params = ", ".join(f"_a{i}" for i in range(len(names)))
    namespace = {"_isfinite": math.isfinite,
                 "_walk": lambda *args: evaluate(node, dict(zip(names, args)))}
    consts = {}  # name -> value of each bound constant
    lines = []

    def emit(node: Node) -> str:
        """Append the lines computing node; return the name holding its value."""
        if isinstance(node, Unary) and node.op == "neg" and isinstance(node.operand, Const):
            node = Const(-node.operand.value)
        if isinstance(node, Const):
            name = f"_c{len(consts)}"
            consts[name] = node.value
            return name
        if isinstance(node, Var):
            return f"_a{names.index(node.name)}"
        if not isinstance(node, (Unary, Binary)):
            raise TypeError(f"not an expression node: {node!r}")
        operands = (node.operand,) if isinstance(node, Unary) else (node.left, node.right)
        args = tuple(map(emit, operands))
        result = f"_v{len(lines)}"
        if node.op in ("neg", "abs"):
            lines.append(f"{result} = {'-' if node.op == 'neg' else 'abs'}({args[0]})")
            return result
        if node.op in ("/", "^", "exp"):
            lines.extend(f"if not _isfinite({arg}): raise ArithmeticError" for arg, operand
                         in zip(args, operands) if not isinstance(_core(operand), (Const, Var)))
        float_fn, _, domain, _ = _OPS[node.op]
        tests = [source for _, source, _, clear in domain
                 if not (args[-1] in consts and clear(consts[args[-1]]))]
        if tests:
            lines.append(f"{', '.join('xy'[:len(args)])} = {', '.join(args)}")
            lines.extend(f"if {source}: raise ArithmeticError" for source in tests)
        if float_fn in _INFIX:
            lines.append(f"{result} = {args[0]} {_INFIX[float_fn]} {args[1]}")
        else:
            namespace["_" + float_fn.__name__] = float_fn
            lines.append(f"{result} = _{float_fn.__name__}({', '.join(args)})")
        return result

    value = emit(node)
    namespace.update(consts)
    body = "".join(f"        {s}\n" for s in lines + [f"if _isfinite({value}): return {value}"])
    source = (f"def compiled({params}):\n    try:\n{body}"
              f"    except (ArithmeticError, ValueError):\n        pass\n"
              f"    return _walk({params})\n")
    exec(compile(source, "<fracvar.expr>", "exec"), namespace)
    return namespace["compiled"]


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
