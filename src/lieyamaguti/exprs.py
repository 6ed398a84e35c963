"""Small closed-form expression language for bundle transition entries.

Grammar (EBNF):

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := "-" factor | base ("^" integer)?
    base     := rational | identifier | func "(" expr ")" | "(" expr ")"
    func     := "sin" | "cos" | "exp"
    rational := integer ("/" positive-integer)?

Precedence is ^  >  unary-  >  * /  >  + -, with + - * / left-associative.
Note two consequences of the grammar: a rational literal binds tighter than
division, so "6/2^2" reads ((6/2))^2 = 9 while "6/x^2" divides by x^2; and
unary minus binds looser than ^, so "-2^2" is -(2^2).

Exact evaluation uses Fractions, rejects sin/cos/exp away from argument 0
(where they take the exact values 0, 1, 1) and refuses a power longer than
MAX_POWER_BITS bits before computing it; float evaluation uses the math
module and raises EvalError on overflow or a non-finite result.  Identifiers
resolve at evaluation time against a chart environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EvalError, ExprSyntaxError, UnknownIdentifier
from .linalg import as_fraction

FUNCTIONS = ("sin", "cos", "exp")


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


Expr = object

_TOKEN_OPS = set("+-*/^()")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# Deepest expression the parser accepts.  Depth counts every operator node
# and every parenthesised group, so it bounds the tree the evaluators recurse
# over as well as the parser's own recursion.
MAX_DEPTH = 100

# Largest exact power evaluation computes, in bits of its numerator or
# denominator.  A power whose result would be longer is refused before it is
# computed; bases 0 and +-1 are never refused.
MAX_POWER_BITS = 1 << 16


class _Parser:
    """Recursive descent; each rule returns (node, depth)."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.open = 0  # groups, call arguments and unary minus being parsed

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def bounded(self, depth: int, off: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", off)
        return depth

    def nested(self, rule, off: int):
        """Parse one level down, refusing before the recursion gets too deep."""
        self.open = self.bounded(self.open + 1, off)
        node, depth = rule()
        self.open -= 1
        return node, self.bounded(depth + 1, off)

    def parse(self) -> Expr:
        node, _ = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self):
        node, depth = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                right, rdepth = self.term()
                node, depth = BinOp(val, node, right), self.bounded(max(depth, rdepth) + 1, off)
            else:
                return node, depth

    def term(self):
        node, depth = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                right, rdepth = self.factor()
                node, depth = BinOp(val, node, right), self.bounded(max(depth, rdepth) + 1, off)
            else:
                return node, depth

    def factor(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            arg, depth = self.nested(self.factor, off)
            return Neg(arg), depth
        node, depth = self.base()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node, depth = Pow(node, self.integer()), self.bounded(depth + 1, off)
        return node, depth

    def integer(self) -> int:
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
            kind, val, off = self.peek()
        if kind != "int":
            raise ExprSyntaxError("expected an integer exponent", off)
        self.advance()
        return sign * int(val)

    def base(self):
        kind, val, off = self.advance()
        if kind == "int":
            # greedy rational literal: integer "/" positive-integer
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                k2, v2, _ = self.tokens[self.pos + 1]
                if k2 == "int" and int(v2) > 0:
                    self.advance()
                    self.advance()
                    return Lit(Fraction(int(val), int(v2))), 1
            return Lit(Fraction(int(val))), 1
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.nested(self.expr, off)
                self.expect_op(")")
                return Call(val, arg), depth
            return Var(val), 1
        if kind == "op" and val == "(":
            node, depth = self.nested(self.expr, off)
            self.expect_op(")")
            return node, depth
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def parse_expr(src: str) -> Expr:
    return _Parser(src).parse()


def variables(node: Expr) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Neg):
        return variables(node.arg)
    if isinstance(node, Pow):
        return variables(node.base)
    if isinstance(node, Call):
        return variables(node.arg)
    return set()


def _evaluate(node: Expr, env: dict, scalar, call):
    """Value of ``node`` over the scalar type ``scalar`` (Fraction or float).

    ``call(func, a)`` evaluates sin/cos/exp at a scalar argument.
    """
    if isinstance(node, Lit):
        return scalar(node.value)
    if isinstance(node, Var):
        if node.name not in env:
            raise UnknownIdentifier(f"identifier {node.name!r} is not a chart coordinate")
        return scalar(env[node.name])
    if isinstance(node, Neg):
        return -_evaluate(node.arg, env, scalar, call)
    if isinstance(node, BinOp):
        a = _evaluate(node.left, env, scalar, call)
        b = _evaluate(node.right, env, scalar, call)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise EvalError("division by zero")
        return a / b
    if isinstance(node, Pow):
        b = _evaluate(node.base, env, scalar, call)
        if node.exponent < 0 and b == 0:
            raise EvalError("zero raised to a negative power")
        if isinstance(b, Fraction):
            # |x|**n has at least n * (bit_length(x) - 1) + 1 bits
            size = max(b.numerator.bit_length(), b.denominator.bit_length()) - 1
            if abs(node.exponent) * size >= MAX_POWER_BITS:
                raise EvalError(f"exact power with exponent {node.exponent} exceeds {MAX_POWER_BITS} bits")
        return b**node.exponent
    if isinstance(node, Call):
        return call(node.func, _evaluate(node.arg, env, scalar, call))
    raise EvalError(f"cannot evaluate node {node!r}")


def _exact_call(func: str, a: Fraction) -> Fraction:
    if a != 0:
        raise EvalError(f"{func} is only exact at argument 0 (got {a})")
    return Fraction(int(func != "sin"))


def eval_exact(node: Expr, env: dict) -> Fraction:
    return _evaluate(node, env, as_fraction, _exact_call)


def eval_float(node: Expr, env: dict) -> float:
    """Float value of ``node``; an overflow or a non-finite result raises EvalError."""
    try:
        value = _evaluate(node, env, float, lambda func, a: getattr(math, func)(a))
    except OverflowError as exc:
        raise EvalError(f"float overflow: {exc}") from None
    if not math.isfinite(value):
        raise EvalError(f"float evaluation is not finite ({value})")
    return value
