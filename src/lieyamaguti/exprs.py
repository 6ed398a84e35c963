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

There is one evaluator.  ``compile_matrix`` turns a matrix of expressions
into a straight-line ``Program``: one instruction per distinct subtree,
hash-consed in first-use postorder, so a subtree shared by several entries
(the 1 + t^2 of a Cayley rotation) is computed once per point.  A program
runs at a point in one flat loop over its instructions, on Fractions or on
floats; ``eval_exact`` and ``eval_float`` run the program of one entry.  The
first error a point raises is the one a walk of the entries in row-major
order, depth first, would raise.

Exact evaluation uses Fractions, rejects sin/cos/exp away from argument 0
(where they take the exact values 0, 1, 1) and refuses a power longer than
MAX_POWER_BITS bits before computing it; float evaluation uses the math
module and raises EvalError on overflow or a non-finite entry.  Identifiers
resolve at evaluation time against a chart environment.
"""

from __future__ import annotations

import functools
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
# and every parenthesised group, so it bounds the tree ``compile_matrix``
# recurses over as well as the parser's own recursion.
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


# Opcodes of a compiled program.  An instruction is (op, a, b): _LIT pushes
# the value a, _VAR the coordinate named a, _NEG minus register a, _POW
# register a to the power b, _CALL the function b of register a, the binary
# opcodes registers a and b combined; _FINITE pushes nothing and refuses a
# non-finite register a (float mode only).
_LIT, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _CALL, _FINITE = range(10)
_BINARY = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}


@dataclass(frozen=True)
class Program:
    """Straight-line code for a matrix of expressions, one instruction per distinct subtree.

    ``code`` lists the instructions in first-use postorder, hash-consed on
    (opcode, operands), so a subtree that occurs twice, in one entry or in
    two, is computed once per point.  ``roots`` holds each row's registers.
    ``float_code`` is ``code`` with the float functions in place of the
    exact ones and a finiteness check of each entry's root placed after the
    instructions that entry is the first to need, in entry order.  A point
    raises the first error that evaluating the entries one by one, row-major
    and depth first, would raise: every instruction before the failing one
    succeeded for an earlier entry.
    """

    code: tuple
    float_code: tuple
    roots: tuple

    def rows(self, env: dict, kind: str) -> list:
        """The value of every entry at ``env``, as rows of Fractions (``kind`` "exact") or floats ("float")."""
        if kind == "exact":
            r = _run(self.code, env, as_fraction, _exact_power)
        else:
            try:
                r = _run(self.float_code, env, float, pow)
            except OverflowError as exc:
                raise EvalError(f"float overflow: {exc}") from None
        return [[r[i] for i in row] for row in self.roots]


def compile_matrix(matrix) -> Program:
    """The program of a matrix (rows of expressions)."""
    code, float_code, registers, checked = [], [], {}, set()

    def emit(op, a, b=None) -> int:
        key = (op, a, b)
        if key not in registers:
            registers[key] = len(code)
            code.append((op, a, functools.partial(_exact_call, b)) if op == _CALL else key)
            float_code.append((op, a, getattr(math, b)) if op == _CALL else key)
        return registers[key]

    def visit(node) -> int:
        if isinstance(node, Lit):
            return emit(_LIT, node.value)
        if isinstance(node, Var):
            return emit(_VAR, node.name)
        if isinstance(node, Neg):
            return emit(_NEG, visit(node.arg))
        if isinstance(node, BinOp):
            left = visit(node.left)
            return emit(_BINARY[node.op], left, visit(node.right))
        if isinstance(node, Pow):
            return emit(_POW, visit(node.base), node.exponent)
        if isinstance(node, Call):
            return emit(_CALL, visit(node.arg), node.func)
        raise EvalError(f"cannot evaluate node {node!r}")

    def entry(node) -> int:
        root = visit(node)
        if root not in checked:
            checked.add(root)
            float_code.append((_FINITE, root, None))
        return root

    roots = tuple(tuple(map(entry, row)) for row in matrix)
    return Program(tuple(code), tuple(float_code), roots)


def _exact_call(func: str, a: Fraction) -> Fraction:
    if a != 0:
        bits = max(a.numerator.bit_length(), a.denominator.bit_length())
        shown = a if bits <= 64 else f"a rational of {bits} bits"
        raise EvalError(f"{func} is only exact at argument 0 (got {shown})")
    return Fraction(int(func != "sin"))


def _exact_power(x: Fraction, n: int) -> Fraction:
    # |x|**n has at least n * (bit_length(x) - 1) + 1 bits
    size = max(x.numerator.bit_length(), x.denominator.bit_length()) - 1
    if abs(n) * size >= MAX_POWER_BITS:
        raise EvalError(f"exact power with exponent {n} exceeds {MAX_POWER_BITS} bits")
    return x**n


def _run(code: tuple, env: dict, scalar, power) -> list:
    """The registers of ``code`` at ``env``, over ``scalar`` (``as_fraction`` or ``float``) and its ``power``."""
    r = []
    push = r.append
    for op, a, b in code:
        if op == _MUL:
            push(r[a] * r[b])
        elif op == _ADD:
            push(r[a] + r[b])
        elif op == _SUB:
            push(r[a] - r[b])
        elif op == _DIV:
            if r[b] == 0:
                raise EvalError("division by zero")
            push(r[a] / r[b])
        elif op == _POW:
            if b < 0 and r[a] == 0:
                raise EvalError("zero raised to a negative power")
            push(power(r[a], b))
        elif op == _NEG:
            push(-r[a])
        elif op == _LIT:
            push(scalar(a))
        elif op == _VAR:
            if a not in env:
                raise UnknownIdentifier(f"identifier {a!r} is not a chart coordinate")
            push(scalar(env[a]))
        elif op == _CALL:
            push(b(r[a]))
        elif not math.isfinite(r[a]):
            raise EvalError(f"float evaluation is not finite ({r[a]})")
    return r


def eval_exact(node: Expr, env: dict) -> Fraction:
    return compile_matrix(((node,),)).rows(env, "exact")[0][0]


def eval_float(node: Expr, env: dict) -> float:
    """Float value of ``node``; an overflow or a non-finite result raises EvalError."""
    return compile_matrix(((node,),)).rows(env, "float")[0][0]
