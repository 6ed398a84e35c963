"""Random exact cochains and full multilinear evaluation for the property tests."""

import itertools
import random
from fractions import Fraction
from typing import Sequence

from lieyamaguti.cohomology import Cochain, CochainPair, _cochain_groups, _shape
from lieyamaguti.linalg import Matrix, Vector, vec_add, vec_scale, zero_vector


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def random_cochain(n: int, d: int, e: int, rng: random.Random) -> Cochain:
    shape = _shape(_cochain_groups(n), d, e)
    return Cochain(shape, [random_fraction(rng) for _ in range(shape.dim)])


def random_cochain_pair(p: int, d: int, e: int, rng: random.Random) -> CochainPair:
    return CochainPair(p, random_cochain(2 * p, d, e, rng), random_cochain(2 * p + 1, d, e, rng))


def random_c1(d: int, e: int, rng: random.Random) -> Matrix:
    return Matrix(e, d, [random_fraction(rng) for _ in range(e * d)])


def eval_vectors(c: Cochain, args: Sequence[Sequence[Fraction]]) -> Vector:
    """Full multilinear evaluation of ``c`` on arbitrary coordinate vectors."""
    assert len(args) == c.shape.n, "wrong number of arguments"
    out = zero_vector(c.shape.e)
    for tup in itertools.product(range(c.shape.d), repeat=c.shape.n):
        coeff = Fraction(1)
        for slot, l in enumerate(tup):
            coeff *= args[slot][l]
            if not coeff:
                break
        if coeff:
            out = vec_add(out, vec_scale(coeff, c.eval_basis(tup)))
    return out
