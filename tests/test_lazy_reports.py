"""Violation reports build their exact defects on first read, and the zero test of a cochain is exact.

``check_axioms`` and ``check_representation`` keep each violated tuple's
integer defect; ``AxiomReport.violations`` and ``RepReport.violations`` /
``rlyb7_violations`` turn them into Fractions (and Matrices) when first read.
A caller that reads only ``ok``, the violated names or the summary builds no
Fraction.  The reports read, compare, print, pickle and summarise as the eager
reports did: the summaries and repr digests below were recorded from them.

``_Operator.apply`` hands out one shared zero, which ``Cochain.is_zero``
passes over by identity; any other zero coefficient is still zero.
"""

import hashlib
import pickle
import random
from fractions import Fraction

import pytest
from random_cochains import random_cochain_pair
from test_validator_parity import _dmap_replaced, _perturbed, _theta_replaced

from lieyamaguti import (
    adjoint,
    check_axioms,
    check_representation,
    delta,
    example_3dim,
    twisted_semidirect,
)
from lieyamaguti.cohomology import Cochain, _cochain_groups, _shape
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import _ZERO


def _inputs():
    rng = random.Random(3535)
    a, cross = example_3dim(), cross_product_lie()
    r = adjoint(cross)
    perturbed = _perturbed(a, rng, symmetric=False)
    algebras = [perturbed, twisted_semidirect(a, adjoint(a), random_cochain_pair(1, 3, 3, rng))]
    modules = [(cross, _theta_replaced(r, rng)), (cross, _dmap_replaced(r, rng))]
    return algebras, modules


ALGEBRAS, MODULES = _inputs()

SUMMARIES = [
    "LY1 fails on (1, 1) (1 tuples); LY3 fails on (1, 1, 1) (1 tuples); LY4 fails on (1, 1, 1, 1) (1 tuples)",
    "LY3 fails on (1, 2, 3) (1 tuples); LY4 fails on (1, 2, 3, 1) (1 tuples); LY5 fails on (1, 2, 1, 2) (9 tuples); "
    "LY6 fails on (1, 2, 1, 2, 1) (19 tuples)",
]
AXIOM_REPRS = [
    "66124edbbe014283e0aae07e72b938d6675a0fcfb63db3bae80399a4b69e7e2e",
    "ce52bc5efdb059a647626478724be171bc3aef2f72f93a3931998512b464d237",
]
REP_REPRS = [
    (["RLYB1", "RLYB2", "RLYB3", "RLYB4", "RLYB6"], "e5370bf875b9be877c65672f06afbefd79fc4fcc1c2ab5e7a9221b08866a5d7d"),
    (["RLYB1", "RLYB4", "RLYB5", "RLYB6"], "7d881769c8546975be38abceeb5d8367a5a3d39e24f43baefada68de3fc5f680"),
]


def _digest(report):
    return hashlib.sha256(repr(report).encode()).hexdigest()


@pytest.fixture()
def fractions_built(monkeypatch):
    """A count of the Fractions built through ``Fraction(...)`` while the test runs."""
    count = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return count


def test_reports_build_no_fraction_before_violations_are_read(fractions_built):
    for a in ALGEBRAS:
        fractions_built[0] = 0
        report = check_axioms(a)
        assert not report.ok and report.violated_axioms() and report.summary()
        assert fractions_built[0] == 0
        entries = sum(len(found) for found in report.violations.values())
        assert fractions_built[0] == entries * a.dim
    for a, r in MODULES:
        fractions_built[0] = 0
        report = check_representation(a, r)
        first = check_representation(a, r, first_only=True)
        assert not report.ok and report.violated() and not first.ok
        assert fractions_built[0] == 0
        entries = sum(len(found) for found in report.violations.values()) + len(report.rlyb7_violations)
        assert fractions_built[0] == entries * r.e * r.e


def test_reports_equal_pickle_and_summarise_as_the_eager_ones():
    for a, summary, digest in zip(ALGEBRAS, SUMMARIES, AXIOM_REPRS):
        report, again = check_axioms(a), check_axioms(a)
        unread = pickle.loads(pickle.dumps(report))
        assert report.summary() == summary and report.violated_axioms() == unread.violated_axioms()
        assert report == again and report != check_axioms(ALGEBRAS[0] if a is not ALGEBRAS[0] else ALGEBRAS[1])
        assert _digest(report) == digest
        read = pickle.loads(pickle.dumps(report))
        for copy in (unread, read):
            assert copy == report and copy.summary() == summary and not copy.ok
            assert _digest(copy) == digest
    for (a, r), (violated, digest) in zip(MODULES, REP_REPRS):
        report, again = check_representation(a, r), check_representation(a, r)
        unread = pickle.loads(pickle.dumps(report))
        assert report == again and report.violated() == violated
        assert _digest(report) == digest
        for copy in (unread, pickle.loads(pickle.dumps(report))):
            assert copy == report and copy.violated() == violated and not copy.ok
    assert check_axioms(example_3dim()).summary() == "all axioms hold"
    assert check_axioms(example_3dim()) != check_representation(*MODULES[0])


def _cochain(coeffs):
    shape = _shape(_cochain_groups(2), 3, 1)
    return Cochain(shape, coeffs)


def test_cochain_zero_test_is_exact():
    n = _shape(_cochain_groups(2), 3, 1).dim
    assert _cochain([Fraction(0, 7)] * n).is_zero()
    assert _cochain([0] * n).is_zero()
    assert _cochain([_ZERO] * (n - 1) + [Fraction(0, 7)]).is_zero()
    assert not _cochain([_ZERO] * (n - 1) + [Fraction(1, 7)]).is_zero()
    assert not _cochain([0] * (n - 1) + [1]).is_zero()
    assert not _cochain([1] + [0] * (n - 1)).is_zero()


def test_applied_coboundaries_hand_out_the_shared_zero():
    a = example_3dim()
    r = adjoint(a)
    image = delta(a, r, random_cochain_pair(1, 3, 3, random.Random(7)))
    coeffs = image.f.coeffs + image.g.coeffs
    assert any(x is _ZERO for x in coeffs) and all(x is _ZERO or x for x in coeffs)
    assert not image.is_zero()
    square = delta(a, r, image)
    assert square.is_zero() and all(x is _ZERO for x in square.f.coeffs + square.g.coeffs)
