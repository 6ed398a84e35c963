"""Isomorphism invariance as an oracle for the whole complex.

For an invertible P, the brackets a'(x, y) = P^-1 a(Px, Py) and
{x, y, z}' = P^-1 {Px, Py, Pz} define an algebra a' that P maps
isomorphically onto a.  So a' is valid, P is a homomorphism a' -> a, and
every group with adjoint coefficients has the same dimensions for a' as for
a.  P runs over seeded integer matrices with entries in [-2, 2] and one
rational non-diagonal matrix, so den > 1 mixes coordinates.

Scope: a wrong sign on a whole term of delta is natural in the structure
constants, so it stays covariant and this oracle misses it (delta**2 = 0 and
the twist oracle cover that case).  It guards the code that is not natural:
slot offsets and signs of the cochain shapes, den scaling, the weighted
terms and elimination.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lieyamaguti import (
    Matrix,
    adjoint,
    example_3dim,
    from_tensors,
    h1,
    h23,
    h_upper,
    is_homomorphism,
    is_valid,
    meson,
)
from lieyamaguti.algebra import structure_lcm
from lieyamaguti.fixtures import cross_product_lie

CORPUS = {"3dim": example_3dim(), "meson3": meson(3), "crossproduct-lie": cross_product_lie()}

# a rational, non-diagonal change of basis (det 19/10)
RATIONAL = Matrix.from_rows(
    [[1, Fraction(1, 2), 0], [0, Fraction(2, 3), -1], [Fraction(1, 5), 0, 3]]
)


def transported(a, p: Matrix):
    """The algebra with brackets P^-1 a(Px, Py) and P^-1 {Px, Py, Pz}, built by bracket/triple."""
    pinv, rng = p.inverse(), range(a.dim)
    cols = [p.col(i) for i in rng]
    binary = [[pinv.matvec(a.bracket(cols[i], cols[j])) for j in rng] for i in rng]
    ternary = [[[pinv.matvec(a.triple(cols[i], cols[j], cols[k])) for k in rng] for j in rng] for i in rng]
    return from_tensors(binary, ternary, a.name + "'")


def seeded_basis_change(seed: int, d: int) -> Matrix:
    """An invertible integer d x d matrix with entries in [-2, 2], drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        p = Matrix(d, d, [rng.randint(-2, 2) for _ in range(d * d)])
        if p.is_invertible():
            return p


def adjoint_dims(a) -> tuple:
    """dim H1, and (dim Z, dim B, dim H) at p = 1 and p = 2, with adjoint coefficients."""
    r = adjoint(a)
    return (h1(a, r)[0],) + tuple((g.dim_z, g.dim_b, g.dim) for g in (h23(a, r), h_upper(a, r, 2)))


DIMS = {name: adjoint_dims(a) for name, a in CORPUS.items()}


def check_invariance(name: str, p: Matrix) -> None:
    a = CORPUS[name]
    image = transported(a, p)
    assert is_homomorphism(p, image, a), name
    assert is_valid(image), name
    assert adjoint_dims(image) == DIMS[name], name


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CORPUS)), st.integers(0, 2**32))
def test_seeded_integer_basis_change_keeps_every_group(name, seed):
    check_invariance(name, seeded_basis_change(seed, CORPUS[name].dim))


def test_rational_basis_change_keeps_every_group():
    assert RATIONAL.det() == Fraction(19, 10)
    for name in CORPUS:
        check_invariance(name, RATIONAL)
        assert structure_lcm(transported(CORPUS[name], RATIONAL)) > 1, name


def test_pinned_dims():
    """The dims the oracle compares, as pinned elsewhere (H1; Z/B/H at p = 1)."""
    assert DIMS["3dim"][:2] == (4, (14, 5, 9))
    assert DIMS["crossproduct-lie"][:2] == (3, (7, 6, 1))
    assert DIMS["meson3"][:2] == (3, (7, 6, 1))
