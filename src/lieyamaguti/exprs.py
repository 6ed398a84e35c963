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
runs at a point in one flat loop over its instructions: the exact loop on
reduced integer pairs (n, d), the float loop on floats.  ``Program.cleared``
gives a matrix's value as the pair (D, S) the bundle gate holds, and
``Program.rows`` as rows of Fractions or floats; ``eval_exact`` and
``eval_float`` run the program of one entry.  The first error a point raises
is the one a walk of the entries in row-major order, depth first, would
raise.

Exact evaluation keeps each register as a pair (n, d) with d > 0 and
gcd(n, d) = 1, so its sizes are those of the Fraction n/d; it rejects
sin/cos/exp away from argument 0 (where they take the exact values 0, 1, 1)
and refuses a power longer than MAX_POWER_BITS bits before computing it.
Float evaluation uses the math module and raises EvalError on overflow or a
non-finite entry.  Identifiers resolve at evaluation time against a chart
environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
# the value a (in exact code b holds it as the pair (n, d)), _VAR the
# coordinate named a, _NEG minus register a, _POW register a to the power b,
# _CALL the function b of register a, the binary opcodes registers a and b
# combined; _FINITE pushes nothing and refuses a non-finite register a (float
# mode only).
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

    def cleared(self, env: dict, kind: str) -> tuple:
        """The value s at ``env`` as the pair (D, S) with S = D s.

        In exact mode D is the LCM of the entries' denominators and S a
        matrix of ints; in float mode the pair is (1, rows of floats).
        """
        if kind != "exact":
            return 1, self.rows(env, kind)
        r = _run_exact(self.code, env)
        roots = self.roots
        big_d = math.lcm(*[r[i][1] for row in roots for i in row])
        return big_d, [[n * (big_d // d) for n, d in map(r.__getitem__, row)] for row in roots]

    def rows(self, env: dict, kind: str) -> list:
        """The value of every entry at ``env``, as rows of Fractions (``kind`` "exact") or floats ("float").

        An exact entry whose root is a literal or a coordinate is that value
        (through ``as_fraction``); any other is the Fraction of its pair.
        """
        if kind == "exact":
            r, code = _run_exact(self.code, env), self.code

            def value(i: int) -> Fraction:
                op, a, _ = code[i]
                if op == _LIT:
                    return as_fraction(a)
                if op == _VAR:
                    return as_fraction(env[a])
                return Fraction(*r[i])

            return [[value(i) for i in row] for row in self.roots]
        try:
            r = _run_float(self.float_code, env)
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
            code.append((op, a, (a.numerator, a.denominator)) if op == _LIT else key)
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


def _exact_call(func: str, n: int, d: int) -> tuple:
    """sin, cos or exp of n/d as a pair; only argument 0 has an exact value."""
    if n:
        bits = max(n.bit_length(), d.bit_length())
        shown = Fraction(n, d) if bits <= 64 else f"a rational of {bits} bits"
        raise EvalError(f"{func} is only exact at argument 0 (got {shown})")
    return int(func != "sin"), 1


def _exact_power(n: int, d: int, k: int) -> tuple:
    """(n/d)**k as a reduced pair, for a reduced pair (n, d) that is not 0 when k < 0."""
    # |n/d|**k has at least |k| * (bit_length - 1) + 1 bits
    size = max(n.bit_length(), d.bit_length()) - 1
    if abs(k) * size >= MAX_POWER_BITS:
        raise EvalError(f"exact power with exponent {k} exceeds {MAX_POWER_BITS} bits")
    if k >= 0:
        return n**k, d**k
    n, d = d ** -k, n ** -k
    return (-n, -d) if d < 0 else (n, d)


def _run_exact(code: tuple, env: dict) -> list:
    """The registers of ``code`` at ``env``, each the reduced pair (n, d) of a rational n/d with d > 0.

    A sum, difference, product or quotient is divided by one gcd; powers,
    negation and the pairs pushed as they are stay in lowest terms.  So each
    register has the size of its Fraction.
    """
    r = []
    push = r.append
    for op, a, b in code:
        if op == _MUL:
            (p, q), (u, v) = r[a], r[b]
            n, d = p * u, q * v
        elif op == _ADD:
            (p, q), (u, v) = r[a], r[b]
            n, d = p * v + u * q, q * v
        elif op == _SUB:
            (p, q), (u, v) = r[a], r[b]
            n, d = p * v - u * q, q * v
        elif op == _DIV:
            (p, q), (u, v) = r[a], r[b]
            if not u:
                raise EvalError("division by zero")
            n, d = (p * v, q * u) if u > 0 else (-p * v, -q * u)
        else:
            if op == _POW:
                n, d = r[a]
                if b < 0 and not n:
                    raise EvalError("zero raised to a negative power")
                push(_exact_power(n, d, b))
            elif op == _NEG:
                n, d = r[a]
                push((-n, d))
            elif op == _LIT:
                push(b)
            elif op == _VAR:
                if a not in env:
                    raise UnknownIdentifier(f"identifier {a!r} is not a chart coordinate")
                x = as_fraction(env[a])
                push((x.numerator, x.denominator))
            else:
                push(_exact_call(b, *r[a]))
            continue
        g = gcd(n, d)
        push((n // g, d // g))
    return r


def _run_float(code: tuple, env: dict) -> list:
    """The registers of ``code`` at ``env``, as floats."""
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
            push(pow(r[a], b))
        elif op == _NEG:
            push(-r[a])
        elif op == _LIT:
            push(float(a))
        elif op == _VAR:
            if a not in env:
                raise UnknownIdentifier(f"identifier {a!r} is not a chart coordinate")
            push(float(env[a]))
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
