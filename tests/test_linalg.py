import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieyamaguti.errors import NotASubspace, ShapeMismatch
from lieyamaguti.linalg import Matrix, SubspaceBasis, kernel_basis, quotient_dim, rank, sparse_kernel


def test_rank_identity():
    assert rank(Matrix.identity(3)) == 3


def test_rank_zero():
    assert rank(Matrix.zero(2, 2)) == 0


def test_rank_dependent_rows():
    # second row is twice the first
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(4)).dim == 0


def test_kernel_zero_map_full():
    basis = kernel_basis(Matrix.zero(3, 3))
    assert basis.dim == 3


def test_kernel_vectors_map_to_zero():
    m = Matrix.from_rows([[1, 1, 0]])
    basis = kernel_basis(m)
    assert basis.dim == 2
    for v in basis:
        assert all(x == 0 for x in m.matvec(v))


def test_rank_nullity_random():
    rng = random.Random(99)
    for _ in range(40):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = Matrix(
            rows, cols, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows * cols)]
        )
        ker = kernel_basis(m)
        assert rank(m) + ker.dim == cols
        for v in ker:
            assert all(x == 0 for x in m.matvec(v))


def test_quotient_dim_trivial_cases():
    z = SubspaceBasis(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert quotient_dim(z, SubspaceBasis(3)) == 3
    assert quotient_dim(z, z) == 0


def test_quotient_dim_line_in_plane():
    z = SubspaceBasis(2, [[1, 0], [0, 1]])
    b = SubspaceBasis(2, [[1, 1]])
    assert quotient_dim(z, b) == 1


def test_quotient_dim_requires_containment():
    z = SubspaceBasis(2, [[1, 0]])
    b = SubspaceBasis(2, [[0, 1]])
    with pytest.raises(NotASubspace):
        quotient_dim(z, b)


def test_quotient_dim_consistency_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        vecs = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, n))]
        z = SubspaceBasis(n, vecs)
        sub = [v for v in vecs[: rng.randint(0, len(vecs))]]
        b = SubspaceBasis(n, sub)
        assert quotient_dim(z, b) + b.dim == z.dim


def test_subspace_basis_reduces_dependent_input():
    b = SubspaceBasis(2, [[1, 1], [2, 2]])
    assert b.dim == 1


def test_matrix_inverse_and_det():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.det() == -2
    inv = m.inverse()
    assert m @ inv == Matrix.identity(2)


def test_singular_inverse_raises():
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_shape_mismatch_on_bad_entries():
    with pytest.raises(ShapeMismatch):
        Matrix(2, 2, [1, 2, 3])


# ---------------------------------------------------------------------------
# the sparse fraction-free core against dense Fraction Gauss-Jordan


def _dense_rref(rows: int, cols: int, m: list) -> tuple[list, list[int]]:
    """Reference oracle: dense Gauss-Jordan over Fractions, normalizing each pivot row."""
    m = [[Fraction(x) for x in row] for row in m]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _dense_kernel(rows: int, cols: int, m: list) -> list:
    """Reference kernel: one vector per free column of the oracle's RREF, itself reduced."""
    red, pivots = _dense_rref(rows, cols, m)
    vectors = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        vectors.append(v)
    red, pivots = _dense_rref(len(vectors), cols, vectors)
    return [tuple(row) for row in red[: len(pivots)]]


# small numerators and, among the denominators, two above 10^6
_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7, 1_000_003, 998_244_353])),
)


@st.composite
def _matrices(draw):
    """(rows, cols, entries) with 0 x n and n x 0 shapes, zero rows and columns,
    duplicated rows and rows that combine earlier ones (rank deficiency)."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = [[draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        kind = draw(st.sampled_from(["free", "free", "copy", "combine", "zero"]))
        j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        if kind == "copy":
            m[i] = list(m[j])
        elif kind == "combine":
            s, t = draw(_ENTRIES), draw(_ENTRIES)
            m[i] = [s * x + t * y for x, y in zip(m[j], m[k])]
        elif kind == "zero":
            m[i] = [Fraction(0)] * cols
    if cols:
        for c in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            for row in m:
                row[c] = Fraction(0)
    if draw(st.booleans()):
        m = [[-x for x in row] for row in m]
    return rows, cols, m


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_rref_matches_dense_gauss_jordan(case):
    rows, cols, m = case
    red, pivots = Matrix(rows, cols, [x for row in m for x in row]).rref()
    expected, expected_pivots = _dense_rref(rows, cols, m)
    assert pivots == expected_pivots
    assert (red.rows, red.cols) == (rows, cols)
    assert red.row_list() == expected


@settings(max_examples=300, deadline=None)
@given(_matrices(), st.data())
def test_subspace_and_kernel_match_dense_gauss_jordan(case, data):
    rows, cols, m = case
    expected, pivots = _dense_rref(rows, cols, m)
    span = SubspaceBasis(cols, m)
    assert span.vectors == tuple(tuple(row) for row in expected[: len(pivots)])
    assert SubspaceBasis.from_sparse(cols, (enumerate(row) for row in m)).vectors == span.vectors
    kernel = Matrix(rows, cols, [x for row in m for x in row]).kernel_basis()
    assert list(kernel.vectors) == _dense_kernel(rows, cols, m)
    assert sparse_kernel(cols, (enumerate(row) for row in m)).vectors == kernel.vectors
    v = data.draw(st.lists(_ENTRIES, min_size=cols, max_size=cols))
    _, with_v = _dense_rref(rows + 1, cols, m + [v])
    assert span.contains(v) == (len(with_v) == len(pivots))
    assert span.contains_basis(SubspaceBasis(cols, m + [v])) == (len(with_v) == len(pivots))
