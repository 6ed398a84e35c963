"""Work per assembly and per elimination.

``_assemble`` locates each distinct source tuple once per call and drops the
terms whose matrix is all zero before locating anything; the elimination
takes a held operator's int rows as they are and clears only rows holding a
non-int, and a level whose rank bound is reached builds no kernel.  The operators themselves are pinned entrywise in
``test_cohomology``; these tests count the work.
"""

import collections
from fractions import Fraction

import pytest

import lieyamaguti.linalg
from lieyamaguti import adjoint, example_3dim, h23, meson, trivial_rep
from lieyamaguti.cohomology import (
    _STAR_TARGET,
    _assemble,
    _delta_op,
    _delta_star_terms,
    _delta_terms,
    _Shape,
    _space,
)
from lieyamaguti.linalg import sparse_kernel
from lieyamaguti.representation import _integer_data


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


def _assemble_level(a, r, src, dst, terms):
    data = _integer_data(a, r)
    return _assemble(a.dim, r.e, src, dst, terms, data, data[0] ** 2)


def test_each_source_tuple_is_located_once_per_assembly(located):
    a = example_3dim()
    r = adjoint(a)
    seen = []

    def recording(data, xs):
        for term in _delta_terms(data, xs):
            seen.append(term)
            yield term

    for _ in range(2):
        located.clear()
        _assemble_level(a, r, _space(2), _space(3), recording)
        assert located, "nothing was located"
        assert max(collections.Counter(located).values()) == 1
    # the terms name each tuple many times over
    assert len(seen) > 2 * 2 * len(located)
    assert {tup for _, _, tup in seen} == {tup for _, tup in located}


@pytest.mark.parametrize("p", [0, 1, 2, "star"])
def test_zero_module_maps_never_reach_the_lookup(located, p):
    """On a trivial module every rho, D and theta term is dropped before its tuple is located."""
    a = example_3dim()
    r = trivial_rep(a, 2)
    zero_terms, identity_terms = set(), set()

    def recording(data, xs):
        for coeff, mat, tup in (_delta_star_terms if p == "star" else _delta_terms)(data, xs):
            (identity_terms if mat is None else zero_terms).add(tup)
            yield coeff, mat, tup

    src, dst = (_space(1), _STAR_TARGET) if p == "star" else (_space(p), _space(p + 1))
    _assemble_level(a, r, src, dst, recording)
    assert zero_terms - identity_terms, "every module-map tuple is also reached by a bracket term"
    assert {tup for _, tup in located} == identity_terms


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
