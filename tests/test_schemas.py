from fractions import Fraction

import pytest

from lieyamaguti import adjoint, example_3dim, meson
from lieyamaguti.errors import ShapeMismatch, SizeCapExceeded
from lieyamaguti.schemas import (
    algebra_from_json,
    algebra_to_json,
    cochain_pair_from_json,
    cochain_pair_to_json,
    frac_from_json,
    frac_to_str,
    representation_from_json,
    representation_to_json,
)

from random_cochains import random_cochain_pair


def test_frac_round_trip():
    for v in (Fraction(1, 2), Fraction(-7, 3), Fraction(4)):
        assert frac_from_json(frac_to_str(v)) == v
    assert frac_from_json(3) == 3
    assert frac_to_str(Fraction(4)) == "4"


def test_frac_rejects_junk():
    for bad in (True, 1.5, "a/b", "1/0", [1]):
        with pytest.raises(ShapeMismatch):
            frac_from_json(bad)


def test_frac_refuses_huge_decimal_exponent():
    """10**|E| past exprs.MAX_POWER_BITS bits (|E| > 19728) is refused before Fraction computes it."""
    for bad in ("1e20000", "1E-20000", "2.5e+19729", "1e999999999"):
        with pytest.raises(ShapeMismatch, match="decimal exponent"):
            frac_from_json(bad)
    assert frac_from_json("1e-9") == Fraction(1, 10**9)
    assert frac_from_json("1.5") == Fraction(3, 2)
    assert frac_from_json("1/1000") == Fraction(1, 1000)
    assert frac_from_json("1e19728") == 10**19728


def test_algebra_dim_is_bounded_by_the_scan_budget():
    """d**5 <= 50000 x 7**3 admits d = 27 and refuses d = 28, before any slot is built."""
    a = algebra_from_json({"dim": 27, "ternary": [[1, 2, 27, ["1"] + ["0"] * 26]]})
    assert a.dim == 27 and a.ternary[0][1][26][0] == 1 and a.ternary[1][0][26][0] == -1
    for d in (28, 10**9, 10**4000):
        with pytest.raises(SizeCapExceeded, match="over 27 scans n\\*\\*5 tuples, over cap x 7\\*\\*3 = 17150000"):
            algebra_from_json({"dim": d})


def test_algebra_round_trip(corpus):
    for name, (a, _) in corpus.items():
        obj = algebra_to_json(a)
        back = algebra_from_json(obj)
        assert back.dim == a.dim
        assert back.binary == a.binary
        assert back.ternary == a.ternary


def test_algebra_json_rejects_upper_triangle_violation():
    obj = {"dim": 2, "binary": [[2, 1, ["1", "0"]]], "ternary": []}
    with pytest.raises(ShapeMismatch):
        algebra_from_json(obj)


def test_algebra_json_rejects_duplicates():
    obj = {"dim": 2, "binary": [[1, 2, ["1", "0"]], [1, 2, ["0", "1"]]], "ternary": []}
    with pytest.raises(ShapeMismatch, match=r"duplicate binary entry \(1, 2\)"):
        algebra_from_json(obj)


def test_algebra_json_rejects_bad_vector_length():
    obj = {"dim": 3, "binary": [[1, 2, ["1", "0"]]], "ternary": []}
    with pytest.raises(ShapeMismatch):
        algebra_from_json(obj)


def test_algebra_json_omitted_entries_are_zero():
    a = algebra_from_json({"dim": 4})
    assert all(all(x == 0 for x in a.binary[i][j]) for i in range(4) for j in range(4))


def test_representation_round_trip():
    a = meson(2)
    r = adjoint(a)
    back = representation_from_json(representation_to_json(r), a.dim)
    assert back == r


def test_representation_bad_shapes():
    a = example_3dim()
    obj = representation_to_json(adjoint(a))
    obj["rho"] = obj["rho"][:2]
    with pytest.raises(ShapeMismatch):
        representation_from_json(obj, a.dim)


def test_cochain_pair_round_trip(rng):
    c = random_cochain_pair(1, 3, 3, rng)
    obj = cochain_pair_to_json(c)
    back = cochain_pair_from_json(obj, 3, 3)
    assert back.f.coeffs == c.f.coeffs
    assert back.g.coeffs == c.g.coeffs


def test_cochain_pair_json_rejects_bad_indices():
    with pytest.raises(ShapeMismatch):
        cochain_pair_from_json({"p": 1, "f": [[2, 1, ["1", "0", "0"]]], "g": []}, 3, 3)


def test_cochain_pair_json_rejects_duplicates():
    """A repeated f or g entry is refused, as a repeated algebra entry is, naming the entry."""
    cases = [
        ({"f": [[1, 2, ["1", "0"]], [1, 2, ["0", "2"]]], "g": []}, "duplicate f entry (1, 2)"),
        ({"f": [], "g": [[1, 3, 2, ["5", "0"]], [1, 3, 2, ["0", "1"]]]}, "duplicate g entry (1, 3, 2)"),
    ]
    for obj, message in cases:
        with pytest.raises(ShapeMismatch) as exc:
            cochain_pair_from_json({"p": 1, **obj}, 3, 2)
        assert str(exc.value) == message
    c = cochain_pair_from_json({"p": 1, "f": [[1, 2, ["0", "2"]]], "g": [[1, 3, 2, ["0", "-1/3"]]]}, 3, 2)
    assert c.f.eval_basis((0, 1)) == (Fraction(0), Fraction(2))
    assert c.g.eval_basis((0, 2, 1)) == (Fraction(0), Fraction(-1, 3))
    assert sum(1 for x in c.flat() if x) == 2


def test_bundle_evaluation_work_counts_samples_and_triple_legs(monkeypatch):
    """circle-bundle reads 250 characters: 21 x 3 and 29 x 3 at the transition samples, 50 x 2 at the triple's.

    The triple (U1, U2, U1) has legs U1->U2 (21 characters), U2->U1 (29)
    and the identity U1->U1 (none declared).  At a budget of 250 the bundle
    loads; at 249 it is refused.
    """
    from lieyamaguti import schemas
    from lieyamaguti.fixtures import fixture_circle_bundle

    monkeypatch.setattr(schemas, "_EVAL_WORK", 250)
    assert schemas.bundle_from_json(fixture_circle_bundle()).fiber.dim == 3
    monkeypatch.setattr(schemas, "_EVAL_WORK", 249)
    with pytest.raises(SizeCapExceeded, match="reads 250 expression characters, over the evaluation budget 249"):
        schemas.bundle_from_json(fixture_circle_bundle())


def _sampled_bundle(u_samples, v_samples, transition_samples, triple_samples=()) -> dict:
    """A bundle over a 1-dimensional fibre with no structure constants, so the loader reads only sample literals."""
    charts = [{"name": "U", "coords": ["t"], "samples": u_samples}, {"name": "V", "coords": ["s"], "samples": v_samples}]
    transitions = [{"from": "U", "to": "V", "matrix": [["1"]], "samples": transition_samples}]
    triples = [{"i": "U", "j": "V", "k": "U", "samples": list(triple_samples)}]
    return {"fiber": {"dim": 1}, "charts": charts, "transitions": transitions, "triples": triples}


def _refusal(literal) -> str:
    with pytest.raises(ShapeMismatch) as err:
        frac_from_json(literal)
    return str(err.value)


def test_int_and_string_sample_literals_repeat_freely():
    from lieyamaguti.schemas import bundle_from_json

    samples = [[1], ["1"], [1], ["1"], ["2/2"]]
    assert bundle_from_json(_sampled_bundle(samples, [[0]], [[0]])).charts[0].samples == ((Fraction(1),),) * 5


@pytest.mark.parametrize(
    "samples, bad",
    [
        ([["1"], [1], [True]], True),
        ([[1], [True], [1]], True),
        ([[True], [1]], True),
        ([[1], [1.0]], 1.0),
        ([["1"], [1.0], [1]], 1.0),
        ([[1], [None]], None),
    ],
)
def test_true_and_float_sample_literals_are_refused_after_a_1(samples, bad):
    """``true`` and ``1.0`` equal ``1`` in Python; a repeated ``1`` before them does not let them through."""
    from lieyamaguti.schemas import bundle_from_json

    with pytest.raises(ShapeMismatch) as err:
        bundle_from_json(_sampled_bundle(samples, [[0]], [[0]]))
    assert str(err.value) == f"chart 'U': a point in 'samples': {_refusal(bad)}"


def test_a_bad_literal_is_refused_in_the_first_object_that_holds_it():
    """A failed parse is not remembered: the same bad literal in a later object would name that object."""
    from lieyamaguti.schemas import bundle_from_json

    message = f"a point in 'samples': {_refusal('1/0')}"
    obj = _sampled_bundle([["1"]], [["1/2"], ["1/0"]], [["1/0"]], [[["1/0"], ["0"], ["0"]]])
    with pytest.raises(ShapeMismatch, match="^chart 'V': " + message):
        bundle_from_json(obj)
    obj = _sampled_bundle([["1"]], [["1/2"]], [["1"], ["1/0"]], [[["1/0"], ["0"], ["0"]]])
    with pytest.raises(ShapeMismatch, match="^transition U->V: " + message):
        bundle_from_json(obj)
    obj = _sampled_bundle([["1"]], [["1/2"]], [["1"]], [[["1/2"], ["1"], ["1/0"]]])
    with pytest.raises(ShapeMismatch, match="^triple overlap 0: " + message):
        bundle_from_json(obj)


def test_each_load_parses_each_distinct_sample_literal_once(monkeypatch):
    """Three distinct (type, literal) keys among ten sample literals: three parses per load, in each of two loads."""
    from lieyamaguti import schemas

    parsed = []
    parse = schemas.frac_from_json

    def counting(v):
        parsed.append(v)
        return parse(v)

    monkeypatch.setattr(schemas, "frac_from_json", counting)
    obj = _sampled_bundle([["1"], [1], ["1/2"]], [["1/2"], ["1"]], [["1"], ["1/2"], [1]], [[["1"], [1], ["1"]]])
    first = schemas.bundle_from_json(obj)
    assert parsed == ["1", 1, "1/2"]
    second = schemas.bundle_from_json(obj)
    assert parsed == ["1", 1, "1/2"] * 2
    assert first.charts == second.charts and first.transitions[0].samples == second.transitions[0].samples
    assert first.transitions[0].samples == ((Fraction(1),), (Fraction(1, 2),), (Fraction(1),))
