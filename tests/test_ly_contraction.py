"""LY1..LY6 by contraction over the nonzero slots against the tuple scan.

``algebra._ly_defects`` contracts the defects from the nonzero slots of
``integer_tables``; ``ly_scan.ly_scan`` walks every basis tuple.  Both must
yield the same (axiom, tuple, integer defect) stream, in the same order, on:

- the corpus, its adjoint semidirect products and twisted products;
- signed-permutation and diagonal rebasings of the corpus, which change the
  sparsity pattern and the denominators;
- seeded ``from_tensors`` mutants of all of these, symmetric ones (LY1/LY2
  hold, the reduced scan) and asymmetric ones (LY1 or LY2 fails, the full
  scan).

The first-violation answers built on that stream, ``check_axioms(first_only=True)``
and the ``_require_valid`` message, are compared with the scan's first item.
"""

import random
from fractions import Fraction

import pytest
from ly_scan import ly_scan
from random_cochains import random_cochain_pair
from test_denominators import rebased
from test_operator_cache import _signed_permutation
from test_validator_parity import _perturbed

from lieyamaguti import (
    adjoint,
    check_axioms,
    example_3dim,
    meson,
    semidirect,
    twisted_semidirect,
)
from lieyamaguti.algebra import LY_WEIGHTS, _ly_defects, _require_valid, integer_tables
from lieyamaguti.errors import InvalidAlgebra
from lieyamaguti.fixtures import cross_product_lie


def _bases():
    corpus = {"3dim": example_3dim(), "meson2": meson(2), "meson3": meson(3), "crossproduct-lie": cross_product_lie()}
    out = dict(corpus)
    rng = random.Random(35)
    for name, a in corpus.items():
        r = adjoint(a)
        out[f"{name}⋉ad"] = semidirect(a, r)
        out[f"{name}-twisted"] = twisted_semidirect(a, r, random_cochain_pair(1, a.dim, r.e, rng))
        out[f"{name}-permuted"] = _signed_permutation(a, rng)
        out[f"{name}-diagonal"] = rebased(a, (Fraction(1, 3), Fraction(-5, 7), Fraction(2), Fraction(3, 4))[: a.dim])
    return out


BASES = _bases()


def _family(name):
    """The base algebra and six seeded mutants: three keep LY1/LY2, three may break them."""
    a = BASES[name]
    rng = random.Random(sorted(BASES).index(name))
    return [a] + [_perturbed(a, rng, symmetric=n < 3) for n in range(6)]


def test_the_family_holds_enough_mutants_and_both_scans():
    mutants = [x for name in BASES for x in _family(name)[1:]]
    assert len(mutants) >= 70
    first = [next(ly_scan(x.dim, *integer_tables(x)[1:]), ("ok",))[0] for x in mutants]
    assert sum(axiom in ("LY1", "LY2") for axiom in first) >= 20
    assert sum(axiom not in ("ok", "LY1", "LY2") for axiom in first) >= 20


@pytest.mark.parametrize("name", sorted(BASES))
def test_contraction_yields_the_scan_stream(name):
    for a in _family(name):
        d, B, T = a.dim, *integer_tables(a)[1:]
        assert list(_ly_defects(d, B, T)) == list(ly_scan(d, B, T)), a.name


@pytest.mark.parametrize("name", sorted(BASES))
def test_first_violation_answers_match_the_scan(name):
    for a in _family(name):
        den, B, T = integer_tables(a)
        first = next(ly_scan(a.dim, B, T), None)
        report = check_axioms(a, first_only=True)
        if first is None:
            assert report.ok and not any(report.violations.values())
            _require_valid(a)
            continue
        axiom, tup, acc = first
        scale = den ** LY_WEIGHTS[axiom]
        expect = {ax: [] for ax in report.violations}
        expect[axiom] = [(tup, tuple(Fraction(x, scale) for x in acc))]
        assert report.violations == expect
        message = f"algebra {a.name or '<unnamed>'} violates {axiom} on basis tuple {tuple(i + 1 for i in tup)}"
        with pytest.raises(InvalidAlgebra) as raised:
            _require_valid(a)
        assert str(raised.value) == message
