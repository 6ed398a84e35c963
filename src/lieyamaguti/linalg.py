"""Dense exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` throughout (arbitrary precision, always in
lowest terms, positive denominator).  Matrices are immutable and row-major.
Everything here is a pure function of its inputs, so values can be shared
freely across threads.  ``denominator_lcm`` and ``scaled_sparse`` turn
rational data into sparse integer vectors for the axiom checkers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotASubspace, ShapeMismatch

Vector = tuple[Fraction, ...]


def qvec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def zero_vector(n: int) -> Vector:
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


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(Fraction(x) for x in entries)
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
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                s = Fraction(0)
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        s += a * other.entries[k * other.cols + j]
                out.append(s)
        return Matrix(self.rows, other.cols, out)

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ShapeMismatch(f"matvec: {self.rows}x{self.cols} with vector of length {len(v)}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            s = Fraction(0)
            for k in range(self.cols):
                if v[k]:
                    s += ri[k] * v[k]
            out.append(s)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        m = self.row_list()
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if m[i][c] != 0:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            # normalize immediately; keeps entries in lowest terms
            p = m[r][c]
            if p != 1:
                m[r] = [x / p for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix.from_rows(m) if self.rows else self, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "SubspaceBasis":
        """Basis of the right null space {v : self @ v = 0}."""
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        vectors = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red[r, fc]
            vectors.append(tuple(v))
        return SubspaceBasis(self.cols, vectors)

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        m = self.row_list()
        n = self.rows
        det = Fraction(1)
        for c in range(n):
            pr = None
            for i in range(c, n):
                if m[i][c] != 0:
                    pr = i
                    break
            if pr is None:
                return Fraction(0)
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c]:
                    f = m[i][c] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.rows
        aug = [list(self.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        red, pivots = Matrix.from_rows(aug).rref()
        if pivots != list(range(n)):
            raise ShapeMismatch("matrix is singular")
        return Matrix(n, n, [red[i, n + j] for i in range(n) for j in range(n)])


class SubspaceBasis:
    """A subspace of Q^n carried by its reduced-echelon basis.

    Input vectors are reduced on construction; linearly dependent inputs
    collapse, so ``dim`` is always the true dimension of the span.
    """

    __slots__ = ("ambient_dim", "vectors", "_pivots")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        self.ambient_dim = ambient_dim
        rows = [qvec(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ShapeMismatch(f"vector of length {len(v)} in Q^{ambient_dim}")
        if rows:
            red, pivots = Matrix.from_rows(rows).rref()
            self.vectors = tuple(red.row(i) for i in range(len(pivots)))
            self._pivots = tuple(pivots)
        else:
            self.vectors = ()
            self._pivots = ()

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, v: Sequence[Fraction]) -> bool:
        """Exact membership test by reduction against the echelon basis."""
        if len(v) != self.ambient_dim:
            raise ShapeMismatch("ambient dimension mismatch")
        w = list(Fraction(x) for x in v)
        for row, p in zip(self.vectors, self._pivots):
            if w[p]:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        return all(a == 0 for a in w)

    def contains_basis(self, other: "SubspaceBasis") -> bool:
        return all(self.contains(v) for v in other.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim})"


def rank(m: Matrix) -> int:
    return m.rank()


def kernel_basis(m: Matrix) -> SubspaceBasis:
    return m.kernel_basis()


def quotient_dim(z: SubspaceBasis, b: SubspaceBasis) -> int:
    """dim(z/b); raises NotASubspace unless span(b) <= span(z)."""
    if z.ambient_dim != b.ambient_dim:
        raise ShapeMismatch("quotient of subspaces of different ambient spaces")
    for v in b.vectors:
        if not z.contains(v):
            raise NotASubspace("basis vector outside the enclosing subspace")
    return z.dim - b.dim
