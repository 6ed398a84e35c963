from fractions import Fraction

import pytest

from lieyamaguti.errors import EvalError, ExprSyntaxError, UnknownIdentifier
from lieyamaguti.exprs import eval_exact, eval_float, parse_expr, variables


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
