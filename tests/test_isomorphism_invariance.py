"""Isomorphism invariance as an oracle for the whole complex.

For an invertible P, the brackets a'(x, y) = P^-1 a(Px, Py) and
{x, y, z}' = P^-1 {Px, Py, Pz} define an algebra a' that P maps
isomorphically onto a.  So a' is valid, P is a homomorphism a' -> a, and
every group with adjoint coefficients has the same dimensions for a' as for
a.  P runs over seeded integer matrices with entries in [-2, 2] and one
rational non-diagonal matrix, so den > 1 mixes coordinates.

P also carries the complex of a onto that of a': the transport
(T f)(x1, ..., xn) = P^-1 f(P x1, ..., P xn), assembled from
``cohomology._transport_terms`` on (P^-1, P), must satisfy
delta'(T f) = T(delta f) for every coboundary out of levels 0, 1 and 2
(delta* included) on random cochains, and map Z and B at each level exactly
onto those of a' (containment both ways).

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
from lieyamaguti.cohomology import _assemble, _coboundaries, _transport_terms
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import SubspaceBasis, _invert
from random_cochains import random_cochain_pair, random_fraction

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


def adjoint_groups(a) -> list:
    """(Z, B) at levels 0, 1 and 2 (H1, p = 1 and p = 2) with adjoint coefficients; B = 0 at level 0."""
    r = adjoint(a)
    z1 = h1(a, r)[1]
    return [(z1, SubspaceBasis(z1.ambient_dim))] + [(g.z_basis, g.b_basis) for g in (h23(a, r), h_upper(a, r, 2))]


def adjoint_dims(groups: list) -> tuple:
    """dim H1, and (dim Z, dim B, dim H) at p = 1 and p = 2."""
    return (groups[0][0].dim,) + tuple((z.dim, b.dim, z.dim - b.dim) for z, b in groups[1:])


GROUPS = {name: adjoint_groups(a) for name, a in CORPUS.items()}
DIMS = {name: adjoint_dims(groups) for name, groups in GROUPS.items()}


def transport(d: int, space: tuple, p: Matrix):
    """det(P) T, with T f = P^-1 f(P x1, ..., P xn) on ``space``: ``_transport_terms`` on (det(P) P^-1, P).

    The scalar det(P) changes neither side of delta'(T f) = T(delta f) nor
    a span, and for an integer P it keeps every coefficient an int.
    """
    det, inverse = _invert(p.row_list())
    value, args = [[x * det for x in row] for row in inverse], p.row_list()
    if all(x.denominator == 1 for row in value + args for x in row):
        value, args = ([[int(x) for x in row] for row in m] for m in (value, args))
    rows = [[(l, x) for l, x in enumerate(row) if x] for row in value]
    return _assemble(d, d, space, space, _transport_terms, (rows, args, space, {}))


def check_transport(name: str, image, p: Matrix, groups: list, seed: int) -> None:
    """delta'(T f) = T(delta f) on random cochains, and T Z = Z', T B = B' at every level."""
    a = CORPUS[name]
    rng, d = random.Random(seed), a.dim
    for level, ((z, b), (z2, b2)) in enumerate(zip(GROUPS[name], groups)):
        into, out = _coboundaries(a, adjoint(a), level)
        out2 = _coboundaries(image, adjoint(image), level)[1]
        t = {space: transport(d, space, p) for src, dst, _ in into + out for space in (src, dst)}
        for _ in range(2):
            if level:
                f = random_cochain_pair(level, d, d, rng).flat()
            else:
                f = [random_fraction(rng) for _ in range(d * d)]
            for (src, dst, op), (_, _, op2) in zip(out, out2):
                assert op2.apply(t[src].apply(f)) == t[dst].apply(op.apply(f)), (name, level, dst)
        here = t[out[0][0]]
        for basis, basis2 in ((z, z2), (b, b2)):
            moved = SubspaceBasis(basis.ambient_dim, [here.apply(v) for v in basis.vectors])
            assert moved.contains_basis(basis2) and basis2.contains_basis(moved), (name, level)


def check_invariance(name: str, p: Matrix, seed: int = 0) -> None:
    a = CORPUS[name]
    image = transported(a, p)
    assert is_homomorphism(p, image, a), name
    assert is_valid(image), name
    groups = adjoint_groups(image)
    assert adjoint_dims(groups) == DIMS[name], name
    check_transport(name, image, p, groups, seed)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CORPUS)), st.integers(0, 2**32))
def test_seeded_integer_basis_change_keeps_every_group(name, seed):
    check_invariance(name, seeded_basis_change(seed, CORPUS[name].dim), seed)


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
