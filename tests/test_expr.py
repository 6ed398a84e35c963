import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieyamaguti.errors import EvalError, ExprSyntaxError, UnknownIdentifier
from lieyamaguti.exprs import (
    MAX_POWER_BITS,
    BinOp,
    Call,
    Lit,
    Neg,
    Pow,
    Var,
    compile_matrix,
    eval_exact,
    eval_float,
    parse_expr,
    variables,
)
from lieyamaguti.linalg import as_fraction


def ev(src, **env):
    return eval_exact(parse_expr(src), {k: Fraction(v) for k, v in env.items()})


def test_rational_plus_power():
    assert ev("1/2 + t^2", t=1) == Fraction(3, 2)


def test_cos_at_zero():
    assert ev("cos(t)", t=0) == 1
    assert ev("sin(t)", t=0) == 0
    assert ev("exp(0)") == 1


def test_rational_function():
    assert ev("(1 - t^2)/(1 + t^2)", t=Fraction(1, 2)) == Fraction(3, 5)


def test_precedence_and_associativity():
    assert ev("2 - 3 - 4") == -5
    assert ev("12 / 2 / 3") == 2
    assert ev("2 + 3 * 4") == 14
    assert ev("2 * 3 ^ 2") == 18
    # unary minus binds looser than ^
    assert ev("-2^2") == -4
    assert ev("(-2)^2") == 4


def test_rational_literal_is_greedy():
    # "6/2" is a single literal, so ^ applies to 3
    assert ev("6/2^2") == 9
    # with an identifier the division is an operator and ^ binds first
    assert ev("6/x^2", x=2) == Fraction(3, 2)


def test_negative_exponent():
    assert ev("t^-2", t=2) == Fraction(1, 4)


def test_division_by_zero_raises():
    with pytest.raises(EvalError):
        ev("1/t", t=0)
    with pytest.raises(EvalError):
        ev("t^-1", t=0)


def test_exact_mode_rejects_transcendentals_off_zero():
    with pytest.raises(EvalError):
        ev("cos(t)", t=1)


def test_float_mode_transcendentals():
    import math

    node = parse_expr("sin(t) + cos(t)")
    val = eval_float(node, {"t": 0.5})
    assert abs(val - (math.sin(0.5) + math.cos(0.5))) < 1e-12


def test_unknown_identifier_at_bind_time():
    node = parse_expr("1 + q")
    assert variables(node) == {"q"}
    with pytest.raises(UnknownIdentifier):
        eval_exact(node, {"t": Fraction(0)})


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1 + * 2")
    assert err.value.offset == 4


def test_unbalanced_parenthesis():
    with pytest.raises(ExprSyntaxError):
        parse_expr("(1 + 2")


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 + 2 )")


def test_unexpected_character():
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 + $")


def test_nested_function_calls():
    assert ev("exp(sin(0) * cos(0))") == 1


def test_depth_limit_rejects_with_offset():
    from lieyamaguti.exprs import MAX_DEPTH

    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("(" * 3000 + "t" + ")" * 3000)
    assert err.value.offset == MAX_DEPTH  # the first "(" past the limit
    with pytest.raises(ExprSyntaxError):
        parse_expr("-" * 3000 + "t")
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin(" * 3000 + "0" + ")" * 3000)
    with pytest.raises(ExprSyntaxError):
        parse_expr("+".join(["1"] * 3000))


def test_depth_limit_admits_depth_max():
    from lieyamaguti.exprs import MAX_DEPTH

    # each group is one level and the leaf another
    assert ev("(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1), t=2) == 2
    assert ev("-" * (MAX_DEPTH - 1) + "t", t=2) == (-1) ** (MAX_DEPTH - 1) * 2
    assert ev("+".join(["1"] * MAX_DEPTH)) == MAX_DEPTH


@pytest.mark.parametrize(
    "src, t",
    [
        ("exp(t)", 1000),
        ("1/(1 + t^2)", 10**200),
        ("t * t", Fraction(10**200)),
        ("t", 10**400),
        ("t * t - t * t", 10**200),
    ],
    ids=["exp", "power", "infinite-product", "coordinate", "nan"],
)
def test_float_mode_refuses_overflow_and_non_finite(src, t):
    with pytest.raises(EvalError):
        eval_float(parse_expr(src), {"t": t})


def test_exact_power_bound():
    from lieyamaguti.exprs import MAX_POWER_BITS

    # bases 0 and +-1 stay exact at any exponent
    assert ev("t^99999999", t=1) == 1
    assert ev("t^99999999", t=-1) == -1
    assert ev("t^99999999", t=0) == 0
    assert ev("t^-99999999", t=-1) == -1
    # 2^n has n + 1 bits: the longest power of 2 computed, and the first refused
    assert ev(f"2^{MAX_POWER_BITS - 1}") == 2 ** (MAX_POWER_BITS - 1)
    assert ev(f"t^{-(MAX_POWER_BITS - 1)}", t=2) == Fraction(1, 2 ** (MAX_POWER_BITS - 1))
    refused = [(f"2^{MAX_POWER_BITS}", 0), ("t^99999999", 3), ("t^-99999999", Fraction(1, 3)), ("(t^60000)^60000", 3)]
    for src, t in refused:
        with pytest.raises(EvalError, match="exceeds"):
            ev(src, t=t)
    # float mode keeps refusing on overflow and is not bounded in bits
    with pytest.raises(EvalError, match="overflow"):
        eval_float(parse_expr("t^99999999"), {"t": 3.0})
    assert eval_float(parse_expr("t^99999999"), {"t": 0.5}) == 0.0


def test_exact_evaluation_keeps_fraction_values():
    half = Fraction(1, 2)
    assert eval_exact(parse_expr("t"), {"t": half}) is half
    assert ev("t + 1", t=2) == 3 and type(ev("t", t=2)) is Fraction


# The recursive walker that evaluated one expression tree before the compiled
# program, kept unchanged as the reference.


def tree_evaluate(node, env: dict, scalar, call):
    if isinstance(node, Lit):
        return scalar(node.value)
    if isinstance(node, Var):
        if node.name not in env:
            raise UnknownIdentifier(f"identifier {node.name!r} is not a chart coordinate")
        return scalar(env[node.name])
    if isinstance(node, Neg):
        return -tree_evaluate(node.arg, env, scalar, call)
    if isinstance(node, BinOp):
        a = tree_evaluate(node.left, env, scalar, call)
        b = tree_evaluate(node.right, env, scalar, call)
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
        b = tree_evaluate(node.base, env, scalar, call)
        if node.exponent < 0 and b == 0:
            raise EvalError("zero raised to a negative power")
        if isinstance(b, Fraction):
            size = max(b.numerator.bit_length(), b.denominator.bit_length()) - 1
            if abs(node.exponent) * size >= MAX_POWER_BITS:
                raise EvalError(f"exact power with exponent {node.exponent} exceeds {MAX_POWER_BITS} bits")
        return b**node.exponent
    if isinstance(node, Call):
        return call(node.func, tree_evaluate(node.arg, env, scalar, call))
    raise EvalError(f"cannot evaluate node {node!r}")


def tree_exact(node, env: dict) -> Fraction:
    def call(func, a):
        if a != 0:
            bits = max(a.numerator.bit_length(), a.denominator.bit_length())
            shown = a if bits <= 64 else f"a rational of {bits} bits"
            raise EvalError(f"{func} is only exact at argument 0 (got {shown})")
        return Fraction(int(func != "sin"))

    return tree_evaluate(node, env, as_fraction, call)


def tree_float(node, env: dict) -> float:
    try:
        value = tree_evaluate(node, env, float, lambda func, a: getattr(math, func)(a))
    except OverflowError as exc:
        raise EvalError(f"float overflow: {exc}") from None
    if not math.isfinite(value):
        raise EvalError(f"float evaluation is not finite ({value})")
    return value


def _outcome(evaluate):
    """("ok", value) or ("raise", exception type, message)."""
    try:
        return ("ok", evaluate())
    except Exception as exc:
        return ("raise", type(exc), str(exc))


def _both(matrix, env, kind):
    """The program's and the walker's outcome on a matrix of expressions, entries walked row-major."""
    tree = tree_exact if kind == "exact" else tree_float
    program = compile_matrix(matrix)
    return (
        _outcome(lambda: program.rows(env, kind)),
        _outcome(lambda: [[tree(x, env) for x in row] for row in matrix]),
    )


# A small pool of subtrees, combined into entries, so that one subtree occurs
# in several entries and several times in one.  Values reach every refusal:
# 0 divides and is raised to negative powers, sin/cos/exp see nonzero exact
# arguments, exp(t) at t = 400 overflows when squared and exp(3t) raises,
# t^70000 is over the exact power bound and overflows a float.
_LEAVES = ["exp(t) * exp(t)", "t", "exp(3*t)", "t - t", "u", "0", "1", "2", "1/3", "-1", "exp(t)", "sin(u)",
           "cos(t - u)", "t^70000", "t^-2"]
_VALUES = [400, 0, 1, -1, Fraction(1, 2), 3, Fraction(-7, 3)]


@st.composite
def _pooled_matrix(draw):
    pool = draw(st.lists(st.sampled_from(_LEAVES), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        form = draw(st.sampled_from(["({a}) + ({b})", "({a}) - ({b})", "({a}) * ({b})", "({a}) / ({b})",
                                      "-({a})", "({a})^{k}", "exp({a})", "sin({a})", "cos({a})"]))
        pool.append(form.format(a=a, b=b, k=draw(st.sampled_from([2, 3, -1, -2]))))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [[parse_expr(draw(st.sampled_from(pool))) for _ in range(cols)] for _ in range(rows)]


@given(_pooled_matrix(), st.sampled_from(_VALUES), st.sampled_from(_VALUES), st.booleans())
@settings(max_examples=400, deadline=None)
def test_program_agrees_with_the_tree_walker(matrix, t, u, bind_u):
    env = {"t": Fraction(t), "u": Fraction(u)} if bind_u else {"t": Fraction(t)}
    got, want = _both(matrix, env, "exact")
    assert got == want
    if got[0] == "ok":
        assert all(type(x) is Fraction for row in got[1] for x in row)
    got, want = _both(matrix, env, "float")
    if got[0] == "ok":
        assert want[0] == "ok"
        assert [list(map(repr, row)) for row in got[1]] == [list(map(repr, row)) for row in want[1]]
    else:
        assert got == want


@pytest.mark.parametrize(
    "row, env, kind",
    [
        (["1/(t - t)", "t^70000"], {"t": 3}, "exact"),
        (["t^70000", "1/(t - t)"], {"t": 3}, "exact"),
        (["0^-1 + t", "sin(t)"], {"t": 1}, "exact"),
        (["sin(t)", "t^-1"], {"t": 0}, "exact"),
        (["exp(t)*exp(t)", "exp(3*t)"], {"t": 400}, "float"),
        (["exp(3*t)", "exp(t)*exp(t)"], {"t": 400}, "float"),
        (["1/(exp(t)*exp(t))", "exp(t)*exp(t) + exp(3*t)"], {"t": 400}, "float"),
        (["1/(exp(t)*exp(t))", "exp(t)*exp(t)", "exp(3*t)"], {"t": 400}, "float"),
        (["exp(t)*exp(t) - exp(t)*exp(t)", "t^-1"], {"t": 400}, "float"),
        (["sin(exp(t)*exp(t))", "t"], {"t": 400}, "float"),
        (["t", "t^70000"], {"t": 2}, "float"),
    ],
)
def test_program_raises_the_first_error_in_entry_order(row, env, kind):
    matrix = [[parse_expr(x) for x in row]]
    got, want = _both(matrix, {k: Fraction(v) for k, v in env.items()}, kind)
    assert got[0] == "raise" and got == want


def test_a_float_entry_is_checked_before_a_later_entry_overflows():
    """The first entry is inf; the second overflows in exp.  Entry order decides which error is reported."""
    program = compile_matrix([[parse_expr("exp(t)*exp(t)"), parse_expr("exp(3*t)")]])
    with pytest.raises(EvalError, match=r"^float evaluation is not finite \(inf\)$"):
        program.rows({"t": Fraction(400)}, "float")


def test_shared_subtrees_compile_once():
    """The Cayley rotation's 9 entries have 13 distinct subtrees, each one instruction."""
    cayley = [
        ["(1 - t^2)/(1 + t^2)", "-2*t/(1 + t^2)", "0"],
        ["2*t/(1 + t^2)", "(1 - t^2)/(1 + t^2)", "0"],
        ["0", "0", "1"],
    ]
    program = compile_matrix([[parse_expr(x) for x in row] for row in cayley])
    assert len(program.code) == 13
    assert program.rows({"t": Fraction(1, 2)}, "exact") == [
        [Fraction(3, 5), Fraction(-4, 5), 0],
        [Fraction(4, 5), Fraction(3, 5), 0],
        [0, 0, 1],
    ]
