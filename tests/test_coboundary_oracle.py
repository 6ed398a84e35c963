"""The contracted coboundaries against their term generators, entry by entry.

``cohomology`` assembles delta_p and delta* by contraction over the nonzero
slots of the cleared tables.  ``coboundary_terms`` keeps the term generator
of each operator, assembled per target tuple by ``_assemble``.  Both must
give the same rows (as sets of (col, int) entries), columns and scale, on:

- the corpus x {adjoint, trivial 1, trivial 2} x p 0-3 and delta*, wherever
  C^(2p+3) is within the default cap;
- signed-permutation rebased copies of the corpus;
- the products 3dim-twisted, whose slots hold several terms, and
  crossproduct-lie ⋉ ad, and diagonal rebasings; all but the untwisted
  product have denominators (den > 1);
- structure constants and module maps that satisfy no identity at all,
  which the ``*_matrix`` functions accept.

Most of these operators are pinned by no digest.
"""

import random
from fractions import Fraction

import pytest
from test_denominators import SCALES, rebased
from test_map_defect import _twisted
from test_operator_cache import _signed_permutation

from lieyamaguti import adjoint, check_axioms, example_3dim, from_tensors, semidirect, trivial_rep
from lieyamaguti.cohomology import DEFAULT_SIZE_CAP, _delta_op, _delta_star_op, delta_matrix
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import Matrix
from lieyamaguti.representation import Representation

from coboundary_terms import reference_operator

# rows of C^(2p+3) up to which a model outside the corpus is compared, to keep the generator's run short
_EXTRA_ROWS = 12_000


def _assert_same(a, r, key):
    op = _delta_star_op(a, r) if key == "star" else _delta_op(a, r, key)
    ref = reference_operator(a, r, key)
    assert (op.cols, op.rows, op.scale) == (ref.cols, ref.rows, ref.scale), key
    for n, (line, expect) in enumerate(zip(op.lines, ref.lines)):
        assert all(type(x) is int and x for _, x in line), (key, n)
        assert len(dict(line)) == len(line), (key, n)
        assert dict(line) == dict(expect), (key, n)


def _levels(a, r, limit):
    """delta* and each p in 0..3 whose C^(2p+3) has at most ``limit`` coordinates."""
    pairs = a.dim * (a.dim - 1) // 2
    return ["star"] + [p for p in range(4) if r.e * a.dim * pairs ** (p + 1) <= limit]


def _modules(a):
    return {"adjoint": adjoint(a), "trivial1": trivial_rep(a, 1), "trivial2": trivial_rep(a, 2)}


@pytest.mark.parametrize("rep", ["adjoint", "trivial1", "trivial2"])
def test_corpus_operators_match_the_generators(corpus, rep):
    for a, _ in corpus.values():
        r = _modules(a)[rep]
        for key in _levels(a, r, DEFAULT_SIZE_CAP):
            _assert_same(a, r, key)


def test_rebased_copies_match_the_generators(corpus):
    rng = random.Random(33)
    for a, _ in corpus.values():
        copy = _signed_permutation(a, rng)
        for r in _modules(copy).values():
            for key in _levels(copy, r, _EXTRA_ROWS):
                _assert_same(copy, r, key)


def _products():
    cross = cross_product_lie()
    return {
        "3dim-twisted": _twisted(),
        "crossproduct-lie⋉ad": semidirect(cross, adjoint(cross)),
        "3dim-rebased": rebased(example_3dim(), SCALES),
        "crossproduct-lie-rebased": rebased(cross, SCALES),
    }


@pytest.mark.parametrize("name", sorted(_products()))
def test_products_and_denominators_match_the_generators(name):
    a = _products()[name]
    assert check_axioms(a).ok
    if name == "3dim-twisted":
        assert any(len(entries) > 1 for group in a._slots for _, entries in group)
    for rep, r in _modules(a).items():
        assert (_delta_op(a, r, 0).scale > 1) == (name != "crossproduct-lie⋉ad"), rep
        for key in _levels(a, r, _EXTRA_ROWS):
            _assert_same(a, r, key)


def _draw(rng):
    """A sparse tensor entry: zero half the time, else a small fraction."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0)


@pytest.mark.parametrize("d, e", [(2, 1), (3, 2), (4, 1), (4, 2)])
def test_tables_with_no_identity_match_the_generators(d, e):
    """Random brackets and module maps: no antisymmetry, no LY or RLYB identity, fractional entries."""
    rng = random.Random(100 * d + e)
    binary = [[[_draw(rng) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    ternary = [[[[_draw(rng) for _ in range(d)] for _ in range(d)] for _ in range(d)] for _ in range(d)]
    a = from_tensors(binary, ternary)
    assert not check_axioms(a).ok

    def block():
        return Matrix(e, e, [_draw(rng) for _ in range(e * e)])

    rho = tuple(block() for _ in range(d))
    dmap, theta = (tuple(tuple(block() for _ in range(d)) for _ in range(d)) for _ in range(2))
    r = Representation(e, rho, dmap, theta)
    for key in _levels(a, r, _EXTRA_ROWS):
        _assert_same(a, r, key)
    # the matrix functions accept these tables and read the same operator
    assert delta_matrix(a, r, 1) == reference_operator(a, r, 1).dense()
