"""Work per assembly and per elimination.

The coboundaries are contracted from the nonzero slots by index arithmetic:
they locate no argument tuple, and a zero module map adds nothing.
``_assemble``, which builds the transport maps, locates each distinct source
tuple once per call.  The elimination takes a held operator's int rows as
they are and clears only rows holding a non-int, and a level whose rank
bound is reached builds no kernel.  The operators themselves are pinned
entrywise in ``test_cohomology`` and ``test_coboundary_oracle``; these tests
count the work.
"""

import collections
from fractions import Fraction

import pytest

import lieyamaguti.cohomology
import lieyamaguti.linalg
from lieyamaguti import adjoint, example_3dim, h23, meson, trivial_rep
from lieyamaguti.cohomology import (
    _assemble,
    _delta_op,
    _delta_star_op,
    _Shape,
    _shape,
    _space,
    _transport_terms,
)
from lieyamaguti.linalg import sparse_kernel

from coboundary_terms import delta_star_terms, delta_terms, reference_operator


@pytest.fixture()
def located(monkeypatch):
    """The (shape, tuple) of every ``_Shape.offset`` call, in call order."""
    calls = []
    offset = _Shape.offset

    def counting(shape, tup):
        calls.append((shape, tup))
        return offset(shape, tup)

    monkeypatch.setattr(_Shape, "offset", counting)
    return calls


def test_each_source_tuple_is_located_once_per_assembly(located):
    """A transport map locates each tuple once per call; a coboundary locates none."""
    a = example_3dim()
    r = adjoint(a)
    # s on the module, and a dense map on the arguments, so every target tuple has many terms
    s = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
    data = ([[(l, x) for l, x in enumerate(row) if x] for row in s], [[1, 2, 0], [0, 1, 3], [1, 0, 1]], _space(2), {})
    seen = []

    def recording(data, xs):
        for term in _transport_terms(data, xs):
            seen.append(term)
            yield term

    for _ in range(2):
        located.clear()
        _assemble(a.dim, r.e, _space(2), _space(2), recording, data)
        assert located, "nothing was located"
        assert max(collections.Counter(located).values()) == 1
    # the terms name each tuple many times over
    assert len(seen) > 2 * 2 * len(located)
    assert {tup for _, _, tup in seen} == {tup for _, tup in located}
    located.clear()
    for p in range(3):
        _delta_op(a, r, p)
    _delta_star_op(a, r)
    assert located == []


@pytest.mark.parametrize("p", [0, 1, 2, "star"])
def test_zero_module_maps_never_reach_the_lookup(monkeypatch, p):
    """On a trivial module every rho, D and theta term is dropped before it reaches a row.

    The contraction adds e entries for each bracket term of the reference
    generator whose tuple is nonzero in its shape, and nothing for the terms
    of the zero module maps, which the generator still yields.
    """
    a = example_3dim()
    r = trivial_rep(a, 2)
    added = []
    scatter = lieyamaguti.cohomology._scatter

    def counting(rows, frame, row0, col0, entries):
        added.append(len(frame) * len(entries))
        return scatter(rows, frame, row0, col0, entries)

    monkeypatch.setattr(lieyamaguti.cohomology, "_scatter", counting)
    op = _delta_star_op(a, r) if p == "star" else _delta_op(a, r, p)
    terms = delta_star_terms if p == "star" else delta_terms
    zero_terms, bracket_terms = [], []

    def recording(data, xs):
        for coeff, mat, tup in terms(data, xs):
            (bracket_terms if mat is None else zero_terms).append(tup)
            yield coeff, mat, tup

    reference = reference_operator(a, r, p, recording)
    assert [dict(line) for line in op.lines] == [dict(line) for line in reference.lines]
    assert zero_terms, "the generator yields no module-map term"
    shapes = [_shape(groups, a.dim, r.e) for groups in (_space(1) if p == "star" else _space(p))]
    shapes = {shape.n: shape for shape in shapes}
    nonzero = [tup for tup in bracket_terms if shapes[len(tup)].offset(tup)[0]]
    # no call reaches the rows with nothing to add: a zero map is never visited
    assert 0 not in added
    assert sum(added) == r.e * len(nonzero)


@pytest.fixture()
def cleared(monkeypatch):
    """The entries of every row that reaches ``linalg._integer_row``, in call order."""
    calls = []
    integer_row = lieyamaguti.linalg._integer_row

    def counting(entries):
        entries = list(entries)
        calls.append(entries)
        return integer_row(entries)

    monkeypatch.setattr(lieyamaguti.linalg, "_integer_row", counting)
    return calls


def test_held_int_rows_are_not_cleared_again(cleared):
    """During h23(meson(3), adjoint), which builds a kernel, only rows holding a non-int reach ``_integer_row``."""
    a = meson(3)
    r = adjoint(a)
    res = h23(a, r)
    assert (res.dim_z, res.dim_b) == (7, 6)
    held = {line for op in a._operators[id(r)][2].values() for line in op.lines}
    assert held
    assert cleared
    assert all(any(type(x) is not int or not x for _, x in entries) for entries in cleared)
    assert not held & {tuple(entries) for entries in cleared}


def test_a_level_at_its_rank_bound_clears_no_row(cleared):
    """h23(meson(4), adjoint) has Z = B: elimination stops at the rank bound and builds no kernel."""
    a = meson(4)
    res = h23(a, adjoint(a))
    assert (res.dim_z, res.dim_b) == (10, 10)
    assert res.z_basis is res.b_basis
    assert not cleared


def test_kernel_rows_do_not_depend_on_the_entry_type():
    a = meson(3)
    op = _delta_op(a, adjoint(a), 1)
    as_fractions = [[(col, Fraction(x)) for col, x in line] for line in op.lines]
    assert sparse_kernel(op.cols, op.lines)._rows == sparse_kernel(op.cols, as_fractions)._rows
