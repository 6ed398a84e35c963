"""``bracket``, ``triple``, ``structure_lcm`` and ``integer_tables`` against the dense bodies they replaced.

Each of them now reads the algebra's nonzero slots (``LYAlgebra._slots``)
instead of walking all d**2 + d**3 dense vectors.  The dense bodies are kept
here unchanged as the reference.  On Fraction vectors the results must be
equal, coordinate types included; on float vectors, and on the float
structure constants of the bundle gate's fibre, every coordinate must be the
same float to the bit (``float.hex``), since each output coordinate adds its
terms in slot-index order and forms the scalar as (x_i y_j) z_k, as the dense
loops did.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from test_denominators import LARGE, perturbed, rebased
from test_map_defect import ALGEBRAS as MAP_ALGEBRAS

from lieyamaguti import adjoint, example_3dim, meson, semidirect
from lieyamaguti.algebra import integer_tables, structure_lcm
from lieyamaguti.bundle import EvalMode, _fibre
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import denominator_lcm, scaled_sparse


def dense_bracket(a, x, y):
    out = [0] * a.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = a.binary[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            v = row[j]
            c = xi * yj
            for k, vk in enumerate(v):
                if vk:
                    out[k] += c * vk
    return tuple(out)


def dense_triple(a, x, y, z):
    out = [0] * a.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = a.ternary[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            tij = ti[j]
            c = xi * yj
            for k, zk in enumerate(z):
                if not zk:
                    continue
                v = tij[k]
                czk = c * zk
                for l, vl in enumerate(v):
                    if vl:
                        out[l] += czk * vl
    return tuple(out)


def dense_structure_lcm(a, extra=()):
    return denominator_lcm(
        itertools.chain(
            (x for row in a.binary for v in row for x in v),
            (x for plane in a.ternary for row in plane for v in row for x in v),
            extra,
        )
    )


def dense_integer_tables(a, extra=()):
    den = dense_structure_lcm(a, extra)
    b = [[scaled_sparse(v, den) for v in row] for row in a.binary]
    t = [[[scaled_sparse(v, den * den) for v in row] for row in plane] for plane in a.ternary]
    return den, b, t


def _algebras():
    """The map-defect algebras, the corpus, and perturbed copies with large denominators."""
    algebras = dict(MAP_ALGEBRAS)
    corpus = {"3dim": example_3dim(), "meson2": meson(2), "crossproduct-lie": cross_product_lie()}
    algebras.update(corpus)
    rng = random.Random(20261019)
    for name, a in corpus.items():
        algebras[name + "-perturbed"] = perturbed(a, rng, symmetric=False)
        algebras[name + "-perturbed-rebased"] = rebased(perturbed(a, rng, symmetric=True))
    algebras["3dim-rebased⋉ad"] = semidirect(rebased(example_3dim()), adjoint(rebased(example_3dim())))
    return algebras


ALGEBRAS = _algebras()
NAMES = sorted(ALGEBRAS)
FLOAT = EvalMode("float")

# zero is drawn half the time, so vectors are often sparse
_FRACTIONS = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)
_FLOATS = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    _FRACTIONS.map(float),
)


def _bits(v):
    """Each coordinate with its type; a float by its exact bits."""
    return [(type(x).__name__, x.hex() if isinstance(x, float) else x) for x in v]


@st.composite
def cases(draw, entries):
    name = draw(st.sampled_from(NAMES))
    d = ALGEBRAS[name].dim
    return name, [tuple(draw(entries) for _ in range(d)) for _ in range(3)]


@settings(max_examples=200, deadline=None)
@given(cases(_FRACTIONS))
def test_fraction_bracket_and_triple_match_dense(case):
    name, (x, y, z) = case
    a = ALGEBRAS[name]
    assert _bits(a.bracket(x, y)) == _bits(dense_bracket(a, x, y)), name
    assert _bits(a.triple(x, y, z)) == _bits(dense_triple(a, x, y, z)), name


@settings(max_examples=200, deadline=None)
@given(cases(_FLOATS), st.booleans())
def test_float_bracket_and_triple_are_bit_identical_to_dense(case, float_constants):
    """Float vectors on the exact constants, and on the gate's float fibre."""
    name, (x, y, z) = case
    a = _fibre(ALGEBRAS[name], FLOAT)[1] if float_constants else ALGEBRAS[name]
    assert _bits(a.bracket(x, y)) == _bits(dense_bracket(a, x, y)), name
    assert _bits(a.triple(x, y, z)) == _bits(dense_triple(a, x, y, z)), name


def test_basis_brackets_match_dense():
    for name, a in ALGEBRAS.items():
        e = [a.basis_vector(i) for i in range(a.dim)]
        for i, j in itertools.product(range(a.dim), repeat=2):
            assert _bits(a.bracket(e[i], e[j])) == _bits(dense_bracket(a, e[i], e[j])), name
        for i, j, k in itertools.product(range(a.dim), repeat=3):
            assert _bits(a.triple(e[i], e[j], e[k])) == _bits(dense_triple(a, e[i], e[j], e[k])), name


def test_structure_lcm_and_integer_tables_match_dense():
    extras = [(), (Fraction(1, 6), Fraction(0), Fraction(-5, 4)), LARGE]
    for name, a in ALGEBRAS.items():
        for extra in extras:
            assert structure_lcm(a, extra) == dense_structure_lcm(a, extra), name
            assert integer_tables(a, extra) == dense_integer_tables(a, extra), name
    assert any(structure_lcm(a) > 1 for a in ALGEBRAS.values())


def test_fibre_keeps_the_cleared_constants():
    """The gate's fibre, built over the nonzero slots only, equals the dense one coordinate for coordinate."""
    for name, a in ALGEBRAS.items():
        for mode in (EvalMode("exact"), FLOAT):
            den, fibre = _fibre(a, mode)
            assert den == (structure_lcm(a) if mode.kind == "exact" else 1)
            rng = range(a.dim)
            for i, j in itertools.product(rng, repeat=2):
                want = [x * den if mode.kind == "exact" else float(x) for x in a.binary[i][j]]
                assert list(fibre.binary[i][j]) == want, name
            for i, j, k in itertools.product(rng, repeat=3):
                want = [x * den * den if mode.kind == "exact" else float(x) for x in a.ternary[i][j][k]]
                assert list(fibre.ternary[i][j][k]) == want, name
            assert [idx for idx, _ in itertools.chain(*fibre._slots)] == [idx for idx, _ in itertools.chain(*a._slots)]
