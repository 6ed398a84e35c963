"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms, positive denominator).  ``as_fraction`` is the one exact coercion:
``qvec``, ``Matrix``, cochains, expression evaluation and rational output
keep a Fraction as it is and pass anything else through ``Fraction``.
Matrices are immutable and row-major.  Everything here is a pure function of
its inputs, so values can be shared freely across threads.
``denominator_lcm`` and ``scaled_sparse`` clear the denominators of rational
data for the integer checks.

Every RREF, kernel and span (``Matrix.rref``, ``Matrix.kernel_basis``,
``SubspaceBasis``, ``sparse_kernel``) runs one fraction-free sparse core,
``_eliminate``.  A row is a ``{col: int}`` dict of its nonzero entries: a
row of nonzero ints (a held coboundary's) as it is, any other made by
clearing the row's denominators.  A row r is reduced by a pivot row s with
pivot column c as ``s[c] r - r[c] s`` (each factor divided by their gcd) and
then divided by its content, so entries stay integers, zeros are never
touched, and the cost follows the nonzeros.  The reduced rows define the
unique reduced row echelon form, so the results equal those of dense
``Fraction`` Gauss-Jordan exactly.

Dense products, distances, determinants and inverses have one
implementation, on row matrices (lists of rows) over any scalar type with
field operations: ``_matmul``, ``_distance``, ``_invert`` (Gauss-Jordan
with partial pivoting) and ``_det`` (the same elimination below the pivots
only, with the same determinant to the bit), with ``_identity`` and
``_times``.  ``Matrix``'s ``@``, ``matvec``, ``det`` and ``inverse`` run
them on ``Fraction`` rows; the bundle gate runs them on integers, Fractions
and floats.  ``_largest`` is ``max`` that keeps a NaN wherever it stands,
so a float distance or defect that went NaN is never read as finite.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotASubspace, ShapeMismatch

Vector = tuple[Fraction, ...]


def as_fraction(x) -> Fraction:
    """The one exact coercion: a Fraction is kept as it is, anything else goes through ``Fraction(x)``."""
    return x if isinstance(x, Fraction) else Fraction(x)


def qvec(values: Iterable) -> Vector:
    return tuple(map(as_fraction, values))


@functools.lru_cache(maxsize=64)
def zero_vector(n: int) -> Vector:
    """The zero vector of length n, one shared tuple per length while it is cached (every zero slot of a view)."""
    return (Fraction(0),) * n


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def denominator_lcm(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of ``values`` (1 if empty)."""
    return math.lcm(*{x.denominator for x in values})


def scaled_sparse(v: Sequence[Fraction], scale: int) -> list[tuple[int, int]]:
    """Nonzero entries of ``scale * v`` as (index, int) pairs.

    ``scale`` must be a multiple of every denominator in ``v``.
    """
    return [(k, x.numerator * (scale // x.denominator)) for k, x in enumerate(v) if x]


def _integer_row(entries: Iterable[tuple[int, object]]) -> dict[int, int]:
    """The nonzero (col, value) entries of a rational row times the LCM of their denominators."""
    row = {}
    for k, x in entries:
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        if x:
            row[k] = x
    den = math.lcm(*(x.denominator for x in row.values()))
    return {k: x.numerator * (den // x.denominator) for k, x in row.items()}


def _integer_rows(rows: Iterable[Iterable[tuple[int, object]]]):
    """Each row's (col, value) entries as a ``{col: int}`` dict for ``_eliminate``.

    A row of nonzero ints, such as a held coboundary's, is taken as it is;
    only a row holding anything else (a Fraction, a float or a 0) is cleared
    by ``_integer_row``.
    """
    for entries in rows:
        row = dict(entries)
        yield row if all(type(x) is int and x for x in row.values()) else _integer_row(row.items())


def _combine(r: dict[int, int], s: dict[int, int], c: int) -> dict[int, int]:
    """The primitive multiple of ``s[c] r - r[c] s``, whose entry in column c is zero."""
    g = math.gcd(s[c], r[c])
    a, b = s[c] // g, r[c] // g
    out = {k: a * x for k, x in r.items()} if a != 1 else dict(r)
    for k, y in s.items():
        v = out.get(k, 0) - b * y
        if v:
            out[k] = v
        else:
            del out[k]
    g = math.gcd(*out.values())
    return {k: x // g for k, x in out.items()} if g > 1 else out


def _reduce(row: dict[int, int], pivot_rows: dict[int, dict[int, int]]) -> dict[int, int]:
    """``row`` with every pivot column cleared; zero (empty) iff it lies in their span.

    Each pivot row is zero in every other pivot column, so one pass over the
    pivot columns present in ``row`` suffices.
    """
    for c in [c for c in row if c in pivot_rows]:
        row = _combine(row, pivot_rows[c], c)
    return row


def _eliminate(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free sparse Gauss-Jordan elimination of integer rows.

    Returns ``{pivot column: row}`` for the span of ``rows``: each row is
    primitive, its pivot column holds its leading entry, and it is zero in
    every other pivot column.  Dividing a row by its pivot entry gives the
    corresponding row of the reduced row echelon form.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _reduce(row, pivot_rows)
        if not row:
            continue
        q = min(row)
        g = math.gcd(*row.values())
        if g > 1:
            row = {k: x // g for k, x in row.items()}
        for p, other in pivot_rows.items():
            if q in other:
                pivot_rows[p] = _combine(other, row, q)
        pivot_rows[q] = row
    return pivot_rows


def _rational_row(row: dict[int, int], pivot: int, n: int) -> Vector:
    """The dense RREF row of an eliminated integer row (pivot entry 1)."""
    out = list(zero_vector(n))
    lead = row[pivot]
    for k, x in row.items():
        out[k] = Fraction(x, lead)
    return tuple(out)


# ---------------------------------------------------------------------------
# row matrices: lists of rows over any field-like scalar type


def _identity(d: int) -> list:
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _times(k, rows: list) -> list:
    return rows if k == 1 else [[k * x for x in row] for row in rows]


def _matmul(a: list, b: list) -> list:
    """The product of two row matrices; n x 0 times 0 x m comes out as n empty rows (b has no row to size them)."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if y) for col in cols] for row in a]


def _largest(values: Iterable):
    """``max(values, default=0)``, except that a NaN anywhere is the result.

    ``max`` keeps a NaN only when it comes first, so a float defect that is
    NaN somewhere would read as a finite one.
    """
    it = iter(values)
    worst = next(it, 0)
    if worst == worst:
        for v in it:
            if not v <= worst:
                worst = v
                if v != v:
                    break
    return worst


def _distance(a: list, b: list):
    """Largest entrywise |a - b| of two equally shaped row lists; NaN if any entry is NaN."""
    return _largest(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _invert(rows: list):
    """(det, inverse) of a square row matrix by Gauss-Jordan elimination with partial pivoting.

    Works over Fractions (exactly) and floats; the inverse is None when a
    pivot is zero, and then det is 0.
    """
    n = len(rows)
    m = [list(row) + unit for row, unit in zip(rows, _identity(n))]
    det = 1
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(m[r][c]))
        if not m[piv][c]:
            return 0, None
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        p = m[c][c]
        det *= p
        m[c] = [x / p for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det, [row[n:] for row in m]


def _det(rows: list):
    """The determinant ``_invert(rows)[0]``, to the bit, without the inverse.

    The same partial-pivot elimination as ``_invert``, run on the rows below
    each pivot and on the columns right of it only: those are the entries the
    later pivots and the determinant are read from, and each is computed as
    ``_invert`` computes it.  0 when a pivot is zero.
    """
    n = len(rows)
    m = [list(row) for row in rows]
    det = 1
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(m[r][c]))
        if not m[piv][c]:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        p = m[c][c]
        det *= p
        pivot_row = [x / p for x in m[c][c + 1 :]]
        for r in range(c + 1, n):
            if f := m[r][c]:
                m[r][c + 1 :] = [x - f * y for x, y in zip(m[r][c + 1 :], pivot_row)]
    return det


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"matrix shape {rows}x{cols} is negative")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(map(as_fraction, entries))
        if len(self.entries) != rows * cols:
            raise ShapeMismatch(
                f"matrix {rows}x{cols} needs {rows * cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeMismatch("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if not self.cols:
            return Matrix.zero(self.rows, other.cols)
        out = _matmul(self.row_list(), other.row_list())
        return Matrix(self.rows, other.cols, [x for row in out for x in row])

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ShapeMismatch(f"matvec: {self.rows}x{self.cols} with vector of length {len(v)}")
        return (self @ Matrix(self.cols, 1, v)).entries

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        pivot_rows = _eliminate(_integer_row(enumerate(self.row(i))) for i in range(self.rows))
        pivots = sorted(pivot_rows)
        entries = [x for p in pivots for x in _rational_row(pivot_rows[p], p, self.cols)]
        entries += [0] * ((self.rows - len(pivots)) * self.cols)
        return Matrix(self.rows, self.cols, entries), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "SubspaceBasis":
        """Basis of the right null space {v : self @ v = 0}."""
        return sparse_kernel(self.cols, (enumerate(self.row(i)) for i in range(self.rows)))

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        return Fraction(_det(self.row_list()))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of a non-square matrix")
        inverse = _invert(self.row_list())[1]
        if inverse is None:
            raise ShapeMismatch("matrix is singular")
        return Matrix(self.rows, self.cols, [x for row in inverse for x in row])


class SubspaceBasis:
    """A subspace of Q^n carried by its reduced-echelon basis.

    Input vectors are reduced on construction; linearly dependent inputs
    collapse, so ``dim`` is always the true dimension of the span.  The basis
    is kept as the eliminated integer rows; ``vectors`` (the dense RREF rows)
    is built on first use.
    """

    __slots__ = ("ambient_dim", "_rows", "_vectors")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        rows = []
        for v in vectors:
            v = tuple(v)
            if len(v) != ambient_dim:
                raise ShapeMismatch(f"vector of length {len(v)} in Q^{ambient_dim}")
            rows.append(enumerate(v))
        self._span(ambient_dim, rows)

    @classmethod
    def from_sparse(cls, ambient_dim: int, rows: Iterable[Iterable[tuple[int, object]]]) -> "SubspaceBasis":
        """Span of vectors given by their (index, value) entries, indices below ``ambient_dim``."""
        basis = cls.__new__(cls)
        basis._span(ambient_dim, rows)
        return basis

    def _span(self, ambient_dim: int, rows) -> None:
        self.ambient_dim = ambient_dim
        pivot_rows = _eliminate(_integer_rows(rows))
        self._rows = {p: pivot_rows[p] for p in sorted(pivot_rows)}
        self._vectors = None

    @property
    def vectors(self) -> tuple[Vector, ...]:
        if self._vectors is None:
            self._vectors = tuple(_rational_row(r, p, self.ambient_dim) for p, r in self._rows.items())
        return self._vectors

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, v: Sequence[Fraction]) -> bool:
        """Exact membership test by reduction against the echelon basis."""
        if len(v) != self.ambient_dim:
            raise ShapeMismatch("ambient dimension mismatch")
        return not _reduce(_integer_row(enumerate(v)), self._rows)

    def contains_basis(self, other: "SubspaceBasis") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ShapeMismatch("ambient dimension mismatch")
        return not any(_reduce(row, self._rows) for row in other._rows.values())

    def __iter__(self):
        return iter(self.vectors)

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim})"


def sparse_kernel(cols: int, rows: Iterable[Iterable[tuple[int, object]]]) -> SubspaceBasis:
    """Basis of {v in Q^cols : row . v = 0 for every row}; rows are (col, value) entries.

    Free column f gives the kernel vector with 1 at f and -R[f] / R[p] at
    each pivot p of the eliminated rows R.
    """
    pivot_rows = _eliminate(_integer_rows(rows))
    kernel = {f: {f: 1} for f in range(cols) if f not in pivot_rows}
    for p, row in pivot_rows.items():
        lead = row[p]
        for k, x in row.items():
            if k != p:
                kernel[k][p] = Fraction(-x, lead)
    return SubspaceBasis.from_sparse(cols, (v.items() for v in kernel.values()))


def quotient_dim(z: SubspaceBasis, b: SubspaceBasis) -> int:
    """dim(z/b); raises NotASubspace unless span(b) <= span(z)."""
    if z.ambient_dim != b.ambient_dim:
        raise ShapeMismatch("quotient of subspaces of different ambient spaces")
    if not z.contains_basis(b):
        raise NotASubspace("basis vector outside the enclosing subspace")
    return z.dim - b.dim
