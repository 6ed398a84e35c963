"""The sparse bracket-preservation defect against the dense formula it replaced.

``algebra._map_defect`` expands k s[x, y]_a - [sx, sy]_b and
k**2 s{x, y, z}_a - {sx, sy, sz}_b from the nonzero structure constants of a
and b and the nonzero entries of s.  ``dense_map_defect`` is the body it ran
before: every basis pair and triple of a, the dense ``bracket``/``triple`` of
b on the columns of s, and a row-by-column product with the structure
constants of a.  The two must agree exactly, on Fractions, on the
integer-scaled values of the bundle gate and, bit for bit (no tolerance), on
floats, for square and rectangular maps between algebras of dimension 0 to 6.
"""

import itertools
import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from test_denominators import SCALES, rebased

from lieyamaguti import adjoint, example_3dim, meson, semidirect, twisted_semidirect, zero_algebra
from lieyamaguti.algebra import LYAlgebra, _columns, _image, _map_defect
from lieyamaguti.bundle import EXACT, EvalMode, _cleared, _fibre
from lieyamaguti.cohomology import delta_zero
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import Matrix, _distance, _matmul, _times

FLOAT = EvalMode("float")


def dense_map_defect(k, s: list, a: LYAlgebra, b: LYAlgebra) -> tuple:
    """The dense ``_map_defect`` body, kept unchanged as the reference."""
    cols = list(zip(*s)) if s else [()] * a.dim
    pairs = list(itertools.product(range(a.dim), repeat=2))
    triples = list(itertools.product(range(a.dim), repeat=3))
    binary = _distance(
        _matmul(_times(k, s), list(zip(*(a.binary[i][j] for i, j in pairs)))),
        list(zip(*(b.bracket(cols[i], cols[j]) for i, j in pairs))),
    )
    ternary = _distance(
        _matmul(_times(k * k, s), list(zip(*(a.ternary[i][j][l] for i, j, l in triples)))),
        list(zip(*(b.triple(cols[i], cols[j], cols[l]) for i, j, l in triples))),
    )
    return binary, ternary


def _twisted():
    """The adjoint semidirect product of 3dim twisted by the coboundary of a seeded map."""
    a = example_3dim()
    r = adjoint(a)
    f = Matrix.from_rows([[Fraction(1, 2), 0, -1], [0, 3, Fraction(2, 7)], [1, 0, Fraction(-5, 3)]])
    return twisted_semidirect(a, r, delta_zero(a, r, f))


ALGEBRAS = {
    "abelian0": zero_algebra(0),
    "meson1": meson(1),
    "meson3": meson(3),
    "meson4": meson(4),
    "crossproduct-lie⋉ad": semidirect(cross_product_lie(), adjoint(cross_product_lie())),
    "3dim-twisted": _twisted(),
    "3dim-rebased": rebased(example_3dim(), SCALES),
    "crossproduct-lie-rebased": rebased(cross_product_lie(), SCALES),
}
NAMES = sorted(ALGEBRAS)

# zero is drawn half the time, so maps are often sparse
_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


@st.composite
def maps(draw):
    """(a, b, s): a map s from a to b, square (a is b, s near the identity) or rectangular."""
    a = ALGEBRAS[draw(st.sampled_from(NAMES))]
    b = a if draw(st.booleans()) else ALGEBRAS[draw(st.sampled_from(NAMES))]
    s = [[draw(_ENTRIES) for _ in range(a.dim)] for _ in range(b.dim)]
    if a is b and draw(st.booleans()):
        s = [[x + int(i == j) for j, x in enumerate(row)] for i, row in enumerate(s)]
    return a, b, s


@settings(max_examples=200, deadline=None)
@given(maps(), st.sampled_from([1, 1, 2, Fraction(3, 5)]))
def test_fraction_defect_matches_dense(case, k):
    a, b, s = case
    assert _map_defect(k, s, a, b) == dense_map_defect(k, s, a, b)


@settings(max_examples=200, deadline=None)
@given(maps())
def test_integer_scaled_defect_matches_dense(case):
    """The bundle gate's (D, S) and den-scaled integer fibre, on both sides of the map."""
    a, b, s = case
    big_d, ints = _cleared(s, EXACT)
    (_, fa), (_, fb) = _fibre(a, EXACT), _fibre(b, EXACT)
    got = _map_defect(big_d, ints, fa, fb)
    assert got == dense_map_defect(big_d, ints, fa, fb)
    assert all(type(x) is int for x in got)


@settings(max_examples=200, deadline=None)
@given(maps())
def test_float_defect_is_bit_identical_to_dense(case):
    a, b, s = case
    rows = [[float(x) for x in row] for row in s]
    (_, fa), (_, fb) = _fibre(a, FLOAT), _fibre(b, FLOAT)
    # repr tells every float apart, and int 0 from 0.0
    assert list(map(repr, _map_defect(1, rows, fa, fb))) == list(map(repr, dense_map_defect(1, rows, fa, fb)))


_FLOATS = st.floats(-1e6, 1e6)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), _FLOATS), min_size=1, max_size=6),
    st.lists(st.lists(_FLOATS, min_size=4, max_size=4), max_size=5),
    st.sampled_from([1, 3]),
)
def test_image_adds_terms_in_the_row_by_column_order(entries, rows, k):
    """Each coordinate of ``_image`` is the row-by-column ``sum`` it replaced, bit for bit."""
    got = _image(_columns(k, rows, 4), entries)
    want = [sum(k * row[m] * c for m, c in entries) for row in rows]
    assert list(map(repr, got)) == list(map(repr, want))
    ints = [[int(x) for x in row] for row in rows]
    got = _image(_columns(k, ints, 4), [(m, int(c)) for m, c in entries])
    assert got == [sum(k * row[m] * int(c) for m, c in entries) for row in ints]


def test_identity_preserves_every_algebra():
    for name, a in ALGEBRAS.items():
        ident = [[Fraction(int(i == j)) for j in range(a.dim)] for i in range(a.dim)]
        assert _map_defect(1, ident, a, a) == (0, 0), name


def test_slot_table_is_built_once_and_not_pickled():
    a = meson(4)
    assert "_slots" not in vars(a)
    table = a._slots
    assert a._slots is table
    assert "_slots" not in a.__getstate__()
    _map_defect(1, [[Fraction(int(i == j)) for j in range(4)] for i in range(4)], a, a)
    assert a._slots is table
    copy = pickle.loads(pickle.dumps(a))
    assert "_slots" not in vars(copy)
    assert copy._slots == table
    binary, ternary = table
    assert binary == []
    assert ternary == [
        (idx, [(m, c) for m, c in enumerate(a.ternary[idx[0]][idx[1]][idx[2]]) if c])
        for idx in itertools.product(range(4), repeat=3)
        if any(a.ternary[idx[0]][idx[1]][idx[2]])
    ]
