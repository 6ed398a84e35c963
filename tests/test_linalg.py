import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieyamaguti.errors import NotASubspace, ShapeMismatch
from lieyamaguti.linalg import (
    Matrix,
    SubspaceBasis,
    _det,
    _distance,
    _invert,
    as_fraction,
    qvec,
    quotient_dim,
    sparse_kernel,
)


def test_as_fraction_keeps_a_fraction_and_coerces_the_rest():
    """One exact coercion: the same Fraction object is kept, anything else goes through Fraction."""
    from lieyamaguti.cohomology import Cochain, _pair_space, _shape
    from lieyamaguti.exprs import eval_exact, parse_expr
    from lieyamaguti.schemas import frac_to_str

    x = Fraction(-7, 3)
    assert as_fraction(x) is x
    assert qvec([x])[0] is x
    assert Matrix(1, 1, [x]).entries[0] is x
    f = _shape(_pair_space(1)[0], 2, 1)
    assert Cochain(f, [x]).coeffs[0] is x
    assert eval_exact(parse_expr("t"), {"t": x}) is x
    for value in (3, -2, 0.5, -0.0, "5/6", "1.25", "1e-3", True, False):
        got = as_fraction(value)
        assert type(got) is Fraction and got == Fraction(value), value
        assert frac_to_str(value) == frac_to_str(Fraction(value)), value
    assert [type(v) for v in Matrix(1, 3, [1, 0.25, "2/3"]).entries] == [Fraction] * 3
    with pytest.raises(ValueError):
        as_fraction("a/b")


def test_rank_identity():
    assert Matrix.identity(3).rank() == 3


def test_rank_zero():
    assert Matrix.zero(2, 2).rank() == 0


def test_rank_dependent_rows():
    # second row is twice the first
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_identity_empty():
    assert Matrix.identity(4).kernel_basis().dim == 0


def test_kernel_zero_map_full():
    basis = Matrix.zero(3, 3).kernel_basis()
    assert basis.dim == 3


def test_kernel_vectors_map_to_zero():
    m = Matrix.from_rows([[1, 1, 0]])
    basis = m.kernel_basis()
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
        ker = m.kernel_basis()
        assert m.rank() + ker.dim == cols
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


@pytest.mark.parametrize("rows, cols", [(-1, -1), (-1, 0), (2, -3)])
def test_negative_shape_is_refused(rows, cols):
    """(-1) * (-1) = 1 entry would otherwise build a "-1 x -1" matrix."""
    with pytest.raises(ShapeMismatch, match="is negative"):
        Matrix.zero(rows, cols)
    with pytest.raises(ShapeMismatch, match="is negative"):
        Matrix(rows, cols, [0] * max(rows * cols, 0))


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


# ---------------------------------------------------------------------------
# Matrix products, det and inverse against the dense loops they replaced


def _dense_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The row-by-column Fraction loop ``Matrix.__matmul__`` ran before delegating to ``_matmul``."""
    out = []
    for i in range(a.rows):
        ri = a.row(i)
        for j in range(b.cols):
            s = Fraction(0)
            for k in range(a.cols):
                x = ri[k]
                if x:
                    s += x * b.entries[k * b.cols + j]
            out.append(s)
    return Matrix(a.rows, b.cols, out)


def _dense_matvec(m: Matrix, v) -> tuple:
    out = []
    for i in range(m.rows):
        ri = m.row(i)
        s = Fraction(0)
        for k in range(m.cols):
            if v[k]:
                s += ri[k] * v[k]
        out.append(s)
    return tuple(out)


def _dense_det(m: Matrix) -> Fraction:
    """Gaussian elimination with first-nonzero pivoting, as ``Matrix.det`` ran before."""
    rows, n, det = m.row_list(), m.rows, Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def _rref_inverse(m: Matrix) -> Matrix:
    """The inverse read off the RREF of [m | 1], as ``Matrix.inverse`` ran before."""
    n = m.rows
    aug = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = Matrix(n, 2 * n, [x for row in aug for x in row]).rref()
    if pivots != list(range(n)):
        raise ShapeMismatch("matrix is singular")
    return Matrix(n, n, [red[i, n + j] for i in range(n) for j in range(n)])


# numerators and denominators up to 10^6
_WIDE = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


def _block(draw, rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [draw(_WIDE) for _ in range(rows * cols)])


@st.composite
def _square(draw):
    """An n x n matrix, n in 0..6; about half are singular (a zero row or a combination of two rows)."""
    n = draw(st.integers(0, 6))
    rows = _block(draw, n, n).row_list()
    kind = draw(st.sampled_from(["free", "zero", "combine"])) if n else "free"
    if kind != "free":
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        s, t = (draw(_WIDE) for _ in range(2)) if kind == "combine" else (0, 0)
        rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[k])] if i not in (j, k) else [Fraction(0)] * n
    return Matrix(n, n, [x for row in rows for x in row])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
def test_matmul_and_matvec_match_dense_loops(rows, inner, cols, data):
    a = _block(data.draw, rows, inner)
    b = _block(data.draw, inner, cols)
    product = a @ b
    assert (product.rows, product.cols) == (rows, cols)
    assert product == _dense_matmul(a, b)
    if not inner:
        assert product == Matrix.zero(rows, cols)
    v = data.draw(st.lists(_WIDE, min_size=inner, max_size=inner))
    assert a.matvec(v) == _dense_matvec(a, v)
    assert all(isinstance(x, Fraction) for x in a.matvec(v))


@settings(max_examples=200, deadline=None)
@given(_square())
def test_det_and_inverse_match_dense_oracles(m):
    det = m.det()
    assert isinstance(det, Fraction)
    assert det == _dense_det(m)
    if det == 0:
        with pytest.raises(ShapeMismatch):
            _rref_inverse(m)
        with pytest.raises(ShapeMismatch):
            m.inverse()
        assert not m.is_invertible()
    else:
        inverse = m.inverse()
        assert inverse == _rref_inverse(m)
        assert m @ inverse == Matrix.identity(m.rows) == inverse @ m
        assert m.is_invertible()


def test_non_square_det_and_inverse_raise():
    m = Matrix.zero(2, 3)
    for op in (m.det, m.inverse):
        with pytest.raises(ShapeMismatch):
            op()


_FLOATS = st.one_of(
    st.just(0.0),
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _float_square(draw):
    """An n x n float matrix, n in 0..6: free, with a zero first pivot entry, a zero first column or singular."""
    n = draw(st.integers(0, 6))
    rows = [[draw(_FLOATS) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["free", "zero pivot", "zero column", "repeated row", "zero row"])) if n > 1 else "free"
    if kind == "zero pivot":
        rows[0][0] = 0.0
    elif kind == "zero column":
        for row in rows:
            row[0] = 0.0
    elif kind == "repeated row":
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    elif kind == "zero row":
        rows[draw(st.integers(0, n - 1))] = [0.0] * n
    return rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(_float_square(), _square().map(Matrix.row_list)))
def test_det_is_the_inverse_determinant_to_the_bit(rows):
    """``_det`` runs ``_invert``'s elimination below the pivots only; floats agree to the bit, signed zeros included."""
    got, expected = _det(rows), _invert(rows)[0]
    assert type(got) is type(expected)
    assert repr(got) == repr(expected)



def test_distance_keeps_a_nan_wherever_it_stands():
    """``max`` keeps a NaN only when it comes first; ``_distance`` keeps it anywhere, and is ``max`` otherwise."""
    inf = float("inf")
    for a in ([[1.0, inf]], [[inf, 1.0]], [[0.5, 2.0], [inf, 0.0]]):
        got = _distance(a, a)  # inf - inf is NaN
        assert got != got, a
    assert _distance([[1.0, 2.0]], [[1.0, 5.0]]) == 3.0
    assert repr(_distance([[1.0]], [[1.0]])) == "0.0"
    assert _distance([], []) == 0 and type(_distance([], [])) is int
    assert _distance([[Fraction(1, 2), 3]], [[0, 1]]) == 2
    assert math.isinf(_distance([[inf, 1.0]], [[0.0, 1.0]]))
