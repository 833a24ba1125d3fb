"""Infix expression language for metric definitions.

Expressions define F(x, y), and optionally a volume coefficient sigma(x),
over the variables ``x1..xn`` and ``y1..yn`` plus named parameters.  The
grammar, tightest binding first:

    ^  (right associative, exponent must be a signed real literal)
    unary -
    *  /
    +  -

with the functions ``sqrt``, ``exp`` and ``ln``.  Evaluation is generic over
the scalar type: plain floats, numpy arrays, and jets all work, so a single
definition drives point evaluation, exact Taylor differentiation, and the
finite-difference oracles in the tests.  Complex input keeps its dtype, with
domains tested on the real part, so a complex step x + ih gives h dF/dx.

ASTs are immutable (frozen dataclasses) and evaluation is pure, so parsed
expressions can be shared freely across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from . import InputFault
from .jets import Jet, JetDomainError

__all__ = [
    "Num",
    "Var",
    "Param",
    "Neg",
    "Binary",
    "Pow",
    "Call",
    "Node",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "parse",
    "serialize",
    "evaluate",
    "iter_nodes",
]

FUNCTIONS = ("sqrt", "exp", "ln")

_VAR_RE = re.compile(r"^([xy])([0-9]+)$")
_NUM_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class ExprError(InputFault):
    pass


class ParseError(ExprError):
    """Syntax or name error, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class EvalDomainError(ExprError):
    """An elementary function was evaluated outside its domain, or its value
    overflowed there."""

    def __init__(self, node: "Node", fn: str, value: float, overflows: bool = False):
        state = "overflows" if overflows else "undefined"
        super().__init__(
            f"{fn}() {state} at value {value!r} in subexpression {serialize(node)!r}"
        )
        self.node = node
        self.fn = fn
        self.value = value
        self.overflows = overflows


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # "x" or "y"
    index: int  # 1-based


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str  # sqrt | exp | ln
    arg: "Node"


Node = Union[Num, Var, Param, Neg, Binary, Pow, Call]


def iter_nodes(node: Node) -> Iterator[Node]:
    """Yield every node of the tree, root first."""
    yield node
    if isinstance(node, Neg):
        yield from iter_nodes(node.operand)
    elif isinstance(node, Binary):
        yield from iter_nodes(node.lhs)
        yield from iter_nodes(node.rhs)
    elif isinstance(node, Pow):
        yield from iter_nodes(node.base)
    elif isinstance(node, Call):
        yield from iter_nodes(node.arg)


# -- tokenizer ---------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM IDENT OP EOF
    text: str
    value: float
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            m = _NUM_RE.match(text, i)
            value = float(m.group())
            if math.isinf(value):
                raise ParseError(f"numeric literal {m.group()} overflows", i)
            tokens.append(_Token("NUM", m.group(), value, i))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _IDENT_RE.match(text, i)
            tokens.append(_Token("IDENT", m.group(), 0.0, i))
            i = m.end()
            continue
        if c in "+-*/^()":
            tokens.append(_Token("OP", c, 0.0, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("EOF", "", 0.0, n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int, params: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.params = params

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ops:
            return self.take()
        return None

    def expect_op(self, op: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos, what)
        return self.take()

    def expr(self) -> Node:
        node = self.term()
        while (tok := self.accept_op("+", "-")) is not None:
            node = Binary(tok.text, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while (tok := self.accept_op("*", "/")) is not None:
            rhs = self.unary()
            if tok.text == "/" and isinstance(rhs, Num) and rhs.value == 0.0:
                raise ParseError("division by literal zero", tok.pos)
            node = Binary(tok.text, node, rhs)
        return node

    def unary(self) -> Node:
        if self.accept_op("-") is not None:
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.accept_op("^") is not None:
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> float:
        # A signed real literal, optionally parenthesised; chained '^' folds
        # right-associatively into a single literal value, a finite real.
        start = self.peek().pos
        paren = self.accept_op("(") is not None
        sign = -1.0 if self.accept_op("-") is not None else 1.0
        tok = self.peek()
        if tok.kind != "NUM":
            raise ParseError(
                f"unexpected {tok.text or 'end of input'!r}", tok.pos, "numeric exponent"
            )
        self.take()
        value = sign * tok.value
        if paren:
            self.expect_op(")", "')'")
        if self.accept_op("^") is not None:
            try:
                value = value ** self.exponent()
            except (OverflowError, ZeroDivisionError):
                value = None
            if not isinstance(value, float):  # it overflowed, divided by zero or is complex
                raise ParseError("exponent chain does not fold to a finite real", start)
        return value

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            return Num(tok.value)
        if tok.kind == "OP" and tok.text == "(":
            self.take()
            node = self.expr()
            self.expect_op(")", "')'")
            return node
        if tok.kind == "IDENT":
            self.take()
            if tok.text in FUNCTIONS:
                self.expect_op("(", f"'(' after {tok.text}")
                arg = self.expr()
                self.expect_op(")", "')'")
                return Call(tok.text, arg)
            m = _VAR_RE.match(tok.text)
            if m is not None:
                index = int(m.group(2))
                if not 1 <= index <= self.dim:
                    raise ParseError(
                        f"variable index out of range: {tok.text} with dim {self.dim}",
                        tok.pos,
                    )
                return Var(m.group(1), index)
            if tok.text in self.params:
                return Param(tok.text)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}", tok.pos, "an operand"
        )


def parse(text: str, dim: int, params: Iterable[str] = ()) -> Node:
    """Parse an expression over x1..x<dim>, y1..y<dim> and the named parameters."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, "an expression")
    parser = _Parser(_tokenize(text), int(dim), frozenset(params))
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise ParseError(f"unexpected {tail.text!r}", tail.pos, "end of input")
    return node


# -- serialization -----------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Pow):
        return 4
    return 9


def serialize(node: Node) -> str:
    """Render a tree back to source text; reparsing gives a structurally
    identical tree for any tree the parser can produce."""

    def wrap(child: Node, needs: bool) -> str:
        text = serialize(child)
        return f"({text})" if needs else text

    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.kind}{node.index}"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({serialize(node.arg)})"
    if isinstance(node, Neg):
        return "-" + wrap(node.operand, _prec(node.operand) <= 3)
    if isinstance(node, Pow):
        base = wrap(node.base, not isinstance(node.base, (Num, Var, Param, Call)))
        return f"{base}^{repr(node.exponent)}"
    if isinstance(node, Binary):
        p = _PREC[node.op]
        lhs = wrap(node.lhs, _prec(node.lhs) < p)
        rhs = wrap(node.rhs, _prec(node.rhs) <= p)
        return f"{lhs} {node.op} {rhs}"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation --------------------------------------------------------------


_FLOAT_FUNCTIONS = {"sqrt": np.sqrt, "exp": np.exp, "ln": np.log}


def _float_apply(fn, name: str, node: Node, *args):
    """fn(*args) on floats or arrays, without a numpy warning: as on jets,
    finite arguments whose value overflows are a domain fault, named by the
    last argument at the first such entry of the broadcast."""
    try:
        with np.errstate(over="raise"):
            out = fn(*args)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            overflowed = ~np.isfinite(fn(*args))
        args = np.broadcast_arrays(*args)
        for arg in args:
            overflowed &= np.isfinite(arg)
        raise EvalDomainError(node, name, float(args[-1][overflowed][0].real), overflows=True) from None
    return out if np.ndim(out) else out.item()


def _as_array(v) -> np.ndarray:  # float64, or complex128 for a complex step
    return np.asarray(v, dtype=np.result_type(v, np.float64))


def _fn_apply(name: str, v, node: Node):
    if isinstance(v, Jet):
        try:
            return getattr(v, name)()
        except JetDomainError as err:
            raise EvalDomainError(node, name, err.value, err.overflows) from None
    arr = _as_array(v)
    if name in ("sqrt", "ln") and np.any(arr.real <= 0.0):
        raise EvalDomainError(node, name, float(arr.real.min()))
    return _float_apply(_FLOAT_FUNCTIONS[name], name, node, arr)


def _pow_apply(v, exponent: float, node: Node):
    name = f"pow[{exponent}]"
    if isinstance(v, Jet):
        try:
            return v ** exponent
        except JetDomainError as err:
            raise EvalDomainError(node, name, err.value, err.overflows) from None
    arr = _as_array(v)
    if exponent == int(exponent):
        if exponent < 0 and np.any(arr.real == 0.0):
            raise EvalDomainError(node, name, 0.0)
    elif np.any(arr.real <= 0.0):
        raise EvalDomainError(node, name, float(arr.real.min()))
    return _float_apply(lambda base: base ** exponent, name, node, arr)


def _div_apply(num, den, node: Node):
    if isinstance(num, Jet) or isinstance(den, Jet):
        try:
            return num / den
        except JetDomainError as err:
            raise EvalDomainError(node, "div", err.value) from None
    arr = _as_array(den)
    if np.any(arr.real == 0.0):
        raise EvalDomainError(node, "div", 0.0)
    return _float_apply(np.divide, "div", node, num, arr)


def _mul_apply(a, b, node: Node):
    if isinstance(a, Jet) or isinstance(b, Jet):
        try:
            return a * b
        except JetDomainError as err:
            raise EvalDomainError(node, "mul", err.value, err.overflows) from None
    return _float_apply(np.multiply, "mul", node, a, b)


def evaluate(node: Node, x: Sequence, y: Sequence, params: Mapping[str, float] | None = None):
    """Evaluate the tree at (x, y).

    Coordinate entries may be floats, complex numbers, numpy arrays or jets,
    as long as all entries share one kind; the result has the same kind.
    """
    return _ev(node, x, y, params or {})


def _ev(nd: Node, x: Sequence, y: Sequence, params: Mapping[str, float]):
    """The walk behind :func:`evaluate`; a module function, so no closure
    cycle keeps the coordinates alive after it returns."""
    if isinstance(nd, Num):
        return nd.value
    if isinstance(nd, Var):
        vec = x if nd.kind == "x" else y
        if nd.index > len(vec):
            raise ExprError(f"variable {nd.kind}{nd.index} outside the provided coordinates")
        return vec[nd.index - 1]
    if isinstance(nd, Param):
        try:
            return float(params[nd.name])
        except KeyError:
            raise ExprError(f"unbound parameter {nd.name!r}") from None
    if isinstance(nd, Neg):
        return -_ev(nd.operand, x, y, params)
    if isinstance(nd, Binary):
        a = _ev(nd.lhs, x, y, params)
        b = _ev(nd.rhs, x, y, params)
        if nd.op == "+":
            return a + b
        if nd.op == "-":
            return a - b
        if nd.op == "*":
            return _mul_apply(a, b, nd)
        return _div_apply(a, b, nd)
    if isinstance(nd, Pow):
        return _pow_apply(_ev(nd.base, x, y, params), nd.exponent, nd)
    if isinstance(nd, Call):
        return _fn_apply(nd.fn, _ev(nd.arg, x, y, params), nd)
    raise TypeError(f"not an expression node: {nd!r}")
