"""The integer-scaled cocycle gate against the ``Fraction`` check it replaced.

``check_cocycle`` clears the denominators of each transition value s once,
as (D, S) with S = D * s, and of the fibre once (den * binary, den**2 *
ternary), and compares both sides of each homogeneous identity multiplied out
of those denominators.  ``oracle_defect`` is the automorphism check as it ran
before, on rows of Fractions (or floats): s[e_i, e_j] - [s e_i, s e_j] and
s{e_i, e_j, e_k} - {s e_i, s e_j, s e_k} in the values' own scalars.  The
gate's norm must equal the oracle's exactly in exact mode and within 1e-12 in
float mode,
for random, singular, automorphic and nearly automorphic 3x3 values on the
3-dimensional corpus fibres and their rebased copies with denominators.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from test_denominators import SCALES, cleared, rebased

from lieyamaguti import example_3dim, meson
from lieyamaguti.algebra import LYAlgebra
from lieyamaguti.bundle import (
    EXACT,
    BundleSpec,
    Chart,
    EvalMode,
    TransitionFamily,
    _automorphism_defect,
    _fibre,
    _singular,
    check_cocycle,
)
from lieyamaguti.exprs import parse_expr
from lieyamaguti.fixtures import cross_product_lie
from lieyamaguti.linalg import Matrix, _distance, _matmul

FLOAT = EvalMode("float")
ORIGIN = ((Fraction(0),),)


def oracle_defect(s: list, a: LYAlgebra):
    """Largest entry of s[x, y] - [sx, sy] and s{x, y, z} - {sx, sy, sz} over basis tuples.

    The automorphism check as it ran on rows of Fractions or floats before the
    gate moved to integer-scaled values, kept here unchanged.
    """
    d = a.dim
    cols = list(zip(*s))
    pairs = list(itertools.product(range(d), repeat=2))
    triples = list(itertools.product(range(d), repeat=3))
    brackets = [a.binary[i][j] for i, j in pairs] + [a.ternary[i][j][k] for i, j, k in triples]
    images = [a.bracket(cols[i], cols[j]) for i, j in pairs]
    images += [a.triple(cols[i], cols[j], cols[k]) for i, j, k in triples]
    return _distance(_matmul(s, list(zip(*brackets))), list(zip(*images)))


def as_float(a: LYAlgebra) -> LYAlgebra:
    """``a`` with every structure constant a float, built from its slots."""
    floats = (tuple((idx, tuple((m, float(c)) for m, c in entries)) for idx, entries in group) for group in a._slots)
    return LYAlgebra(a.dim, tuple(floats), a.name)


def cayley(t: Fraction) -> list:
    """Rotation about e3 with tan(angle / 2) = t: an automorphism of the cross product and of meson(3)."""
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return [[c, -s, Fraction(0)], [s, c, Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]


def stretch(t: Fraction) -> list:
    """diag(1, 1 + t^2, 1 + t^2): an automorphism of the 3dim algebra."""
    lam = 1 + t * t
    return [[Fraction(int(i == j)) * (1 if i == 0 else lam) for j in range(3)] for i in range(3)]


def in_rebased_basis(s: list) -> list:
    """The same map in the basis f_i = SCALES[i] e_i of ``rebased``."""
    return [[s[i][j] * SCALES[j] / SCALES[i] for j in range(3)] for i in range(3)]


# (fibre, family of automorphisms) pairs: three corpus fibres and two with denominators
FIBRES = {
    "3dim": (example_3dim(), stretch),
    "meson3": (meson(3), cayley),
    "crossproduct-lie": (cross_product_lie(), cayley),
    "3dim-rebased": (rebased(example_3dim()), lambda t: in_rebased_basis(stretch(t))),
    "crossproduct-lie-rebased": (rebased(cross_product_lie()), lambda t: in_rebased_basis(cayley(t))),
}

_DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 10**6))
_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), _DENOMINATORS),
)
_PARAMETERS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def values(draw, automorphisms):
    kind = draw(st.sampled_from(["random", "singular", "automorphism", "near"]))
    if kind == "random":
        return [draw(st.lists(_ENTRIES, min_size=3, max_size=3)) for _ in range(3)]
    if kind == "singular":
        rows = [draw(st.lists(_ENTRIES, min_size=3, max_size=3)) for _ in range(2)]
        a, b = draw(_ENTRIES), draw(_ENTRIES)
        rows.insert(draw(st.integers(0, 2)), [a * x + b * y for x, y in zip(*rows)])
        return rows
    s = automorphisms(draw(_PARAMETERS))
    if kind == "near":
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        s[i][j] += Fraction(draw(st.sampled_from([-1, 1])), draw(st.integers(10**3, 10**6)))
    return s


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(FIBRES)))
    a, automorphisms = FIBRES[name]
    return a, draw(values(automorphisms))


def constant_bundle(a: LYAlgebra, s: list) -> BundleSpec:
    """One transition U -> V whose value is the constant matrix s."""
    matrix = tuple(tuple(parse_expr(f"{x.numerator}/{x.denominator}") for x in row) for row in s)
    charts = (Chart("U", ("t",), ORIGIN), Chart("V", ("u",), ORIGIN))
    return BundleSpec(a, charts, (TransitionFamily("U", "V", matrix, ORIGIN),))


@settings(max_examples=150, deadline=None)
@given(cases())
def test_exact_gate_matches_fraction_oracle(case):
    a, s = case
    expected = oracle_defect(s, a)
    assert _automorphism_defect(cleared(s, EXACT), _fibre(a, EXACT), EXACT) == expected
    singular = Matrix.from_rows(s).det() == 0
    assert _singular(cleared(s, EXACT)[1], EXACT) is singular
    # end to end: the failure check_cocycle reports for the same value
    failures = [(f.kind, f.defect_norm, f.detail) for f in check_cocycle(constant_bundle(a, s)).failures]
    if singular:
        assert failures == [("automorphism", None, "matrix is singular")]
    elif expected:
        assert failures == [("automorphism", expected, "bracket preservation fails")]
        assert isinstance(failures[0][1], Fraction)
    else:
        assert failures == []


@settings(max_examples=150, deadline=None)
@given(cases())
def test_float_gate_matches_float_oracle(case):
    a, s = case
    rows = [[float(x) for x in row] for row in s]
    got = _automorphism_defect(cleared(rows, FLOAT), _fibre(a, FLOAT), FLOAT)
    expected = oracle_defect(rows, as_float(a))
    assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)


def test_automorphisms_pass_and_perturbations_fail():
    """Automorphisms pass and their perturbations fail, on every fibre."""
    for a, automorphisms in FIBRES.values():
        s = automorphisms(Fraction(3, 5))
        assert oracle_defect(s, a) == 0
        assert _automorphism_defect(cleared(s, EXACT), _fibre(a, EXACT), EXACT) == 0
        s[0][0] += Fraction(1, 10**6)
        assert _automorphism_defect(cleared(s, EXACT), _fibre(a, EXACT), EXACT) == oracle_defect(s, a) > 0
