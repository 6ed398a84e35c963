"""The sparse bracket-preservation defect against the dense formula it replaced.

``algebra._map_defect`` expands k s[x, y]_a - [sx, sy]_b and
k**2 s{x, y, z}_a - {sx, sy, sz}_b from the nonzero structure constants of a
and b and the nonzero entries of s.  ``dense_map_defect`` is the body it ran
before: every basis pair and triple of a, the dense ``bracket``/``triple`` of
b on the columns of s, and a row-by-column product with the structure
constants of a.  The two must agree exactly, on Fractions, on the
integer-scaled values of the bundle gate and, bit for bit (no tolerance), on
floats, for square and rectangular maps between algebras of dimension 0 to 6.
They must also agree when one dict of compiled plans serves a run of values
whose nonzero pattern changes, as it does in the bundle gate.
"""

import functools
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_denominators import SCALES, rebased

from lieyamaguti import adjoint, check_axioms, example_3dim, meson, semidirect, twisted_semidirect, zero_algebra
from lieyamaguti.algebra import LYAlgebra, _from_entries, _map_defect
from lieyamaguti.bundle import (
    EXACT,
    BundleSpec,
    Chart,
    EvalMode,
    TransitionFamily,
    _cleared,
    _fibre,
    _value,
    check_cocycle,
)
from lieyamaguti.cohomology import delta_zero
from lieyamaguti.exprs import parse_expr
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

# (algebra, group, index, entries) of every slot with several terms
SEVERAL = [
    (name, group, idx, entries)
    for name in NAMES
    for group, slots in enumerate(ALGEBRAS[name]._slots)
    for idx, entries in slots
    if len(entries) > 1
]


@st.composite
def slots(draw):
    """(d, group, index, vector): a several-term slot of ``ALGEBRAS``, or a drawn slot of a 4-dim algebra."""
    if draw(st.booleans()):
        name, group, idx, entries = draw(st.sampled_from(SEVERAL))
        d = ALGEBRAS[name].dim
        return d, group, idx, [dict(entries).get(m, 0) for m in range(d)]
    group = draw(st.integers(0, 1))
    idx = tuple(draw(st.lists(st.integers(0, 3), min_size=group + 2, max_size=group + 2)))
    return 4, group, idx, draw(st.lists(st.one_of(st.just(0), _FLOATS), min_size=4, max_size=4))


@settings(max_examples=200, deadline=None)
@given(slots(), st.data(), st.sampled_from([1, 3]))
def test_image_adds_terms_in_the_row_by_column_order(slot, data, k):
    """The lhs k s[x, y] of one coordinate is the row-by-column ``sum`` it replaced, bit for bit.

    The algebra keeps the one slot and the map is one row onto the abelian
    line, so the defect is that coordinate's lhs alone, after the int 0s of
    the dense coordinates before it.
    """
    d, group, idx, vector = slot
    row = data.draw(st.lists(_FLOATS, min_size=d, max_size=d))
    before = functools.reduce(lambda p, i: p * d + i, idx)
    scale = k ** (group + 1)
    for coerce in (float, int):
        v = [coerce(c) for c in vector]
        a = _from_entries(d, *(({}, {idx: v}) if group else ({idx: v}, {})))
        s = [[coerce(x) for x in row]]
        lhs = sum(scale * s[0][m] * c for m, c in enumerate(v) if c)
        want = max([0] * before + [abs(lhs)])
        assert repr(_map_defect(k, s, a, zero_algebra(1))[group]) == repr(want)


def test_the_first_coordinate_keeps_its_zero_type():
    """A dense scan of zeros returns its first coordinate: 0.0 where a's slot (0, 0[, 0]) meets a zero of s."""
    a = _from_entries(2, {(0, 0): [1.0, 0.0]}, {(0, 0, 0): [1.0, 0.0]})
    s = [[0.0, 1.0], [0.0, 1.0]]
    want = list(map(repr, dense_map_defect(1, s, a, zero_algebra(2))))
    assert list(map(repr, _map_defect(1, s, a, zero_algebra(2)))) == want == ["0.0", "0.0"]


def test_identity_preserves_every_algebra():
    for name, a in ALGEBRAS.items():
        ident = [[Fraction(int(i == j)) for j in range(a.dim)] for i in range(a.dim)]
        assert _map_defect(1, ident, a, a) == (0, 0), name


def test_views_are_built_on_first_read_only_once_and_not_pickled():
    a = meson(4)
    assert "binary" not in vars(a) and "ternary" not in vars(a)
    binary, ternary = a.binary, a.ternary
    assert a.binary is binary and a.ternary is ternary
    assert set(a.__getstate__()) == {"dim", "_slots", "name"}
    copy = pickle.loads(pickle.dumps(a))
    assert "binary" not in vars(copy) and "ternary" not in vars(copy)
    assert copy == a and (copy.binary, copy.ternary) == (binary, ternary)


def test_axioms_and_map_defect_build_no_view_of_a_product():
    """Both read the slots only: on fresh products, neither builds the dense views."""
    for p in (semidirect(cross_product_lie(), adjoint(cross_product_lie())), _twisted()):
        ident = [[Fraction(int(i == j)) for j in range(p.dim)] for i in range(p.dim)]
        assert check_axioms(p).ok
        assert _map_defect(1, ident, p, p) == (0, 0)
        assert "binary" not in vars(p) and "ternary" not in vars(p)


_CAYLEY = (
    ("(1 - t^2)/(1 + t^2)", "-2*t/(1 + t^2)", "0"),
    ("2*t/(1 + t^2)", "(1 - t^2)/(1 + t^2)", "0"),
    ("0", "0", "1"),
)


def cayley_atlas(a: LYAlgebra) -> BundleSpec:
    """g_UV = R(t) and g_VU = R(-t), rotations about e3, at t = 0, 1, -1, 1/2 and 3.

    R(0) is the identity, R(1) and R(-1) have a vanishing diagonal and R(1/2)
    and R(3) no zero in their 2 x 2 block: three nonzero patterns, in that
    order of first use.
    """
    samples = tuple((Fraction(t),) for t in (0, 1, -1, Fraction(1, 2), 3))

    def matrix(var: str) -> tuple:
        return tuple(tuple(parse_expr(x.replace("t", var)) for x in row) for row in _CAYLEY)

    charts = (Chart("U", ("t",), samples), Chart("V", ("t",), samples))
    forward = TransitionFamily("U", "V", matrix("t"), samples)
    reverse = TransitionFamily("V", "U", matrix("(-t)"), samples)
    return BundleSpec(a, charts, (forward, reverse))


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_plans_follow_the_nonzero_pattern_and_are_not_kept(mode):
    """One plan per pattern serves every value, each defect is the dense one, and the gate keeps none."""
    b = cayley_atlas(cross_product_lie())
    held = set(vars(b.fiber))
    report = check_cocycle(b, mode)
    assert (report.ok, report.checks) == (True, 15)
    assert set(vars(b.fiber)) == held
    assert set(vars(pickle.loads(pickle.dumps(b.fiber)))) == {"dim", "_slots", "name"}
    (_, f), plans = _fibre(b.fiber, mode), {}
    for tf in b.transitions:
        for pt in tf.samples:
            big_d, s = _value(b, tf, pt, mode)
            got = _map_defect(big_d, s, f, f, plans)
            assert list(map(repr, got)) == list(map(repr, dense_map_defect(big_d, s, f, f)))
    assert len(plans) == 3
