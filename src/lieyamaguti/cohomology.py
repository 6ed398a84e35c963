"""Yamaguti cochain spaces, coboundaries and cohomology groups.

Every cochain space reads its coordinates off one private *shape*: a tuple of
alternating slot groups, times e module coordinates.  A cochain alternates
within each group of consecutive argument slots, so it is stored on the basis
tuples that increase within each group (the representatives, in
lexicographic order group by group), one e-block each.  A tuple with a
repeated index inside a group is zero; any other tuple is a representative up
to the sign of sorting each group.

- C^n for n >= 2 vanishes whenever the arguments in slots (2i-1, 2i)
  coincide; over Q that is antisymmetry in each consecutive pair, so its
  shape is (2,) * floor(n/2), plus (1,) when n is odd.  C^1 = Hom(g, V) is
  (1,).  ``cochain_dim`` counts these coordinates.
- delta* has its own target.  With sums over the cyclic permutations of
  (x1, x2, x3),

      delta*_I (f, g)(x1, x2, x3)     = sum  f([x1, x2], x3) - rho(x1) f(x2, x3) + g(x1, x2, x3)
      delta*_II(f, g)(x1, x2, x3, x4) = sum  g([x1, x2], x3, x4) + theta(x1, x4) f(x2, x3)

  Both alternate in (x1, x2, x3), and delta*_II leaves x4 free, so the
  shapes are (3,) and (3, 1).  For d < 3 the target is empty.

The complex is indexed by level p: level 0 is C^1 and level p >= 1 is
C^(2p,2p+1).  delta = (delta_I, delta_II) maps level p to level p + 1 for
every p >= 0; delta_zero is delta at p = 0, one assembly for both.  The
auxiliary delta* leaves level 1.  Each operator is sparse, contracted from
the integer tables of ``representation._integer_data``: with den the LCM of
the denominators of the algebra and the module, rho and the binary bracket
(weight 1) are cleared by den and get a second factor den, D, theta and the
ternary bracket (weight 2) are cleared by den**2, and delta*'s identity term
is den**2.  Assembly walks only the nonzero bracket slots and the nonzero
rho, D and theta maps, and adds each into every row it reaches.  Rows and
columns are found by index arithmetic over the pair basis: C(d, 2)
increasing pairs per pair slot, times d for a trailing slot, times e.  So no
argument tuple is built or looked up, and a zero module map (each rho, D and
theta of a trivial module) costs nothing.  The operator is held as its
rows, the e rows of each target tuple, each a tuple of nonzero (col, int)
entries, together with the one scale den**2 that they are divided by.  It
is assembled at most once per (algebra instance, module object) and held on
the algebra (``_held``); it is shared by every caller, and its rows are
tuples, so no caller can change it.  Applying it to a cochain (integer dot
products, one division per row), densifying it (``*_matrix``, one division
per entry) and computing groups all go through that operator.  One table lists the operators into and
out of each level, and the group at level p (``h1``, ``h23``, ``h_upper``)
is Z/B with Z the kernel of the rows of the operators out, taken together,
and B the image of the one in; the scale changes neither.  Transport of
cochains is checked against the same operators.  A group refuses its level
before assembly when C^(2p+3) has more coordinates than the cap, or when the
level's work, which grows as that count times (2p+3)**3, is over the budget
derived from the cap.  Kernels and images are read off the operator's rows
(for an image, its columns) by ``linalg``'s sparse fraction-free
elimination, which takes those int rows as they are; they are never
densified.  A group computes B first and eliminates the rows out sparse
first (by entry count, ties in held order), stopping once their rank
reaches cols - dim B, the most it can be when B <= Z.  There every row out,
eliminated or not, is composed with the rows of the operator in, exactly,
each product must vanish (delta o delta = 0), and Z is B's echelon basis;
below the bound Z is the kernel of every row and B <= Z is tested against
it.  The groups, the applied coboundaries and ``transport_defects``
call the (algebra, module) guard ``representation._require_rep``; the
``*_matrix`` functions accept any algebra.

The sign convention of delta*'s rho-block, - rho(x1) f(x2, x3) summed
cyclically, is the unique one (given its cyclic f- and g-blocks) for which
delta* o delta vanishes identically on C^0; the test suite pins this with
exact randomized checks and the operators entrywise.  The same kernels
characterize twist-validity: a (2,3)-pair twists the semi-direct product into
a Lie-Yamaguti algebra exactly when delta and delta* both kill it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import LYAlgebra
from .errors import (
    CocycleContainmentFailure,
    ShapeMismatch,
    SizeCapExceeded,
)
from .linalg import _ZERO, Matrix, SubspaceBasis, Vector, _eliminate, _kernel, as_fraction, zero_vector
from .representation import Representation, _check_shapes, _integer_data, _require_rep

DEFAULT_SIZE_CAP = 50_000

Z23_READING = "Z23 = ker(delta) ∩ ker(delta_star) on pairs (f, g)"

# ---------------------------------------------------------------------------
# cochain shapes and values


@functools.lru_cache(maxsize=None)
def _alternating(k: int, d: int) -> tuple[tuple, dict]:
    """The increasing k-tuples of range(d), and each k-tuple without a repeat -> (sign, rank)."""
    reps = tuple(itertools.combinations(range(d), k))
    table = {}
    for rank, rep in enumerate(reps):
        for perm in itertools.permutations(range(k)):
            sign = (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2))
            table[tuple(rep[i] for i in perm)] = (sign, rank)
    return reps, table


class _Shape:
    """Coordinates of a cochain space: alternating slot groups of sizes ``groups``, times e.

    Build shapes with ``_shape``, which keeps one object per (groups, d, e), so
    shapes compare by identity.
    """

    __slots__ = ("groups", "d", "e", "n", "dim", "_lookup")

    def __init__(self, groups: tuple, d: int, e: int):
        self.groups, self.d, self.e, self.n = groups, d, e, sum(groups)
        self._lookup, start, self.dim = [], 0, e
        for k in groups:
            reps, table = _alternating(k, d)
            self._lookup.append((start, start + k, len(reps), table))
            start += k
            self.dim *= len(reps)

    def tuples(self):
        """Representative basis tuples, increasing within each group, in coordinate order."""
        for combo in itertools.product(*(_alternating(k, self.d)[0] for k in self.groups)):
            yield sum(combo, ())

    def offset(self, tup: tuple) -> tuple[int, int]:
        """(sign of sorting each group, flat offset of the e-block); sign 0 on a repeated index."""
        sign, idx = 1, 0
        for lo, hi, size, table in self._lookup:
            hit = table.get(tup[lo:hi])
            if hit is None:
                return 0, 0
            sign *= hit[0]
            idx = idx * size + hit[1]
        return sign, idx * self.e


_shape = functools.lru_cache(maxsize=None)(_Shape)


def _cochain_groups(n: int) -> tuple:
    """Slot groups of C^n: consecutive pairs, and a single trailing slot for odd n."""
    return (2,) * (n // 2) + (1,) * (n % 2)


def _pair_space(p: int) -> tuple:
    """Slot groups of the components of C^(2p,2p+1)."""
    return _cochain_groups(2 * p), _cochain_groups(2 * p + 1)


def _space(p: int) -> tuple:
    """Slot groups of level p of the complex: C^1 at p = 0, C^(2p,2p+1) above."""
    return _pair_space(p) if p else ((1,),)


_STAR_TARGET = ((3,), (3, 1))


def cochain_dim(n: int, d: int, e: int) -> int:
    """Number of coordinates of C^n for a d-dim algebra and e-dim module."""
    if n < 1:
        raise ShapeMismatch("cochain level must be >= 1")
    return _shape(_cochain_groups(n), d, e).dim


@dataclass(frozen=True)
class Cochain:
    """An immutable cochain value: its shape and one coefficient per coordinate."""

    shape: _Shape
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(map(as_fraction, self.coeffs))
        if len(coeffs) != self.shape.dim:
            raise ShapeMismatch(f"cochain needs {self.shape.dim} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    def eval_basis(self, tup: tuple) -> Vector:
        """Value (an e-vector) on a tuple of basis indices."""
        if len(tup) != self.shape.n:
            raise ShapeMismatch(f"{self.shape.n}-cochain evaluated on {len(tup)} arguments")
        sign, base = self.shape.offset(tup)
        if sign == 0:
            return zero_vector(self.shape.e)
        block = self.coeffs[base : base + self.shape.e]
        return block if sign == 1 else tuple(-x for x in block)

    def is_zero(self) -> bool:
        """True iff every coefficient is 0; the shared zero ``_Operator.apply`` hands out is passed over by identity."""
        for x in self.coeffs:
            if x is not _ZERO and x:
                return False
        return True


@dataclass(frozen=True)
class CochainPair:
    """A (2p, 2p+1)-cochain: f in C^{2p}, g in C^{2p+1}."""

    p: int
    f: Cochain
    g: Cochain

    def __post_init__(self):
        if self.p < 1:
            raise ShapeMismatch("cochain pairs exist for p >= 1")
        d, e = self.f.shape.d, self.f.shape.e
        if (self.f.shape, self.g.shape) != tuple(_shape(g, d, e) for g in _pair_space(self.p)):
            raise ShapeMismatch("components are not C^2p and C^(2p+1) over one (d, e)")

    @classmethod
    def zero(cls, p: int, d: int, e: int) -> "CochainPair":
        n = sum(_shape(g, d, e).dim for g in _pair_space(p))
        return cls.from_flat(p, d, e, [0] * n)

    def flat(self) -> list[Fraction]:
        return list(self.f.coeffs) + list(self.g.coeffs)

    @classmethod
    def from_flat(cls, p: int, d: int, e: int, flat: Sequence) -> "CochainPair":
        f, g = (_shape(groups, d, e) for groups in _pair_space(p))
        return cls(p, Cochain(f, flat[: f.dim]), Cochain(g, flat[f.dim :]))

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.g.is_zero()


# ---------------------------------------------------------------------------
# sparse operators: coboundaries contracted from the nonzero slots, transport from its terms


class _Operator(NamedTuple):
    """Sparse operator with ``cols`` columns, held as its rows times one ``scale``.

    ``lines[i]`` is a tuple of the (col, coeff) entries of row i, none of them
    0, and the operator is their matrix divided by ``scale``.  A coboundary's
    coefficients are ints and its scale is den**2, with den the LCM of the
    denominators of its (algebra, module); a transport map keeps its
    Fraction or float coefficients, with scale 1.  An operator is immutable:
    it is held on its algebra and shared by every caller, so its rows are
    tuples and every method that derives an operator builds a new one.
    """

    cols: int
    lines: tuple
    scale: int = 1

    @property
    def rows(self) -> int:
        return len(self.lines)

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """The image of ``vec``: integer dot products with vec times the LCM of its denominators; 0 is ``_ZERO``."""
        big_l = math.lcm(*(x.denominator for x in vec))
        ints = [x.numerator * (big_l // x.denominator) for x in vec]
        den = big_l * self.scale
        out = []
        for line in self.lines:
            acc = 0
            for col, c in line:
                if ints[col]:
                    acc += c * ints[col]
            out.append(Fraction(acc, den) if acc else _ZERO)
        return out

    def image(self) -> SubspaceBasis:
        """The column span."""
        columns = [[] for _ in range(self.cols)]
        for row, line in enumerate(self.lines):
            for col, c in line:
                columns[col].append((row, c))
        return SubspaceBasis.from_sparse(self.rows, columns)

    def dense(self) -> Matrix:
        rows = [dict(line) for line in self.lines]
        entries = [Fraction(row[col], self.scale) if col in row else 0 for row in rows for col in range(self.cols)]
        return Matrix(self.rows, self.cols, entries)

    def __matmul__(self, other: "_Operator") -> "_Operator":
        """The composite ``self`` after ``other``."""
        lines = []
        for line in self.lines:
            row: dict = {}
            for k, c in line:
                for col, x in other.lines[k]:
                    row[col] = row.get(col, 0) + c * x
            lines.append(tuple(row.items()))
        return _Operator(other.cols, tuple(lines), self.scale * other.scale)


def _assemble(d: int, e: int, src: tuple, dst: tuple, terms, data, scale: int = 1) -> _Operator:
    """Operator between the direct sums of the shapes with slot groups ``src`` and ``dst``, from a term generator.

    Transport maps are built here (``_transport_terms``); the coboundaries
    are contracted from their nonzero slots instead.

    The e rows of each representative target tuple xs hold the sum of
    coeff * mat * h(tup) over the terms (coeff, mat, tup) of ``terms(data, xs)``:
    h is the source component of arity len(tup), mat is None for the identity
    (c added to the e columns of h(tup), one per row) or else e rows of
    (col, coeff) entries, and the operator is that sum divided by ``scale``.
    A term whose mat is all zero is dropped, each
    distinct source tuple is located in its shape once per call (``located``
    maps it to its sign and first column), and an entry that cancels to 0 is
    dropped.
    """
    blocks, cols = {}, 0
    for groups in src:
        shape = _shape(groups, d, e)
        blocks[shape.n] = (shape, cols)
        cols += shape.dim
    lines, located = [], {}
    for groups in dst:
        for xs in _shape(groups, d, e).tuples():
            rows = [{} for _ in range(e)]
            for coeff, mat, tup in terms(data, xs):
                if mat is not None and not any(mat):
                    continue
                hit = located.get(tup)
                if hit is None:
                    shape, start = blocks[len(tup)]
                    sign, base = shape.offset(tup)
                    hit = located[tup] = (sign, start + base)
                sign, col = hit
                if not sign:
                    continue
                c = sign * coeff
                if mat is None:
                    for k, row in enumerate(rows, col):
                        row[k] = row.get(k, 0) + c
                    continue
                for row, entries in zip(rows, mat):
                    for l, x in entries:
                        k = col + l
                        row[k] = row.get(k, 0) + c * x
            lines += _lines(rows)
    return _Operator(cols, tuple(lines), scale)


def _frame(free: Sequence[tuple]) -> list:
    """The (row, col) offset of every combination of the free slots, each given as (count, row stride, col stride)."""
    frame = [(0, 0)]
    for count, row_stride, col_stride in free:
        frame = [(r + x * row_stride, c + x * col_stride) for r, c in frame for x in range(count)]
    return frame


def _scatter(rows: list, frame: list, row0: int, col0: int, entries: list) -> None:
    """rows[row0 + r + m][col0 + c + l] += x for each (r, c) in ``frame`` and each (m, l, x) in ``entries``."""
    for m, l, x in entries:
        m += row0
        l += col0
        for r, c in frame:
            row = rows[r + m]
            k = c + l
            row[k] = row.get(k, 0) + x


def _entries(coeff: int, mat: list) -> list:
    """(m, l, coeff * x) for each entry (l, x) of row m of a module map in row form."""
    return [(m, l, coeff * x) for m, row in enumerate(mat) for l, x in row]


@functools.lru_cache(maxsize=None)
def _pair_moves(d: int, z: int, l: int) -> tuple:
    """(pair, pair, sign) for each y != z, l: the increasing pair of {z, y}, that of {l, y} once z is replaced by l."""
    _, pair_of = _alternating(2, d)
    moves = []
    for y in range(d):
        if y != z and y != l:
            (s, q), (t, r) = pair_of[z, y], pair_of[l, y]
            moves.append((q, r, s * t))
    return tuple(moves)


def _lines(rows: list) -> tuple:
    """The accumulated rows as held lines: their nonzero entries, a row with none cancelled taken whole.

    Each dict in ``rows`` is replaced by its line as soon as that is built,
    so the dicts and the lines of a large operator are never all held at once.
    """
    for n, row in enumerate(rows):
        rows[n] = tuple(row.items()) if 0 not in row.values() else tuple((k, x) for k, x in row.items() if x)
    return tuple(rows)


def _delta_assembled(d: int, e: int, data: tuple, p: int) -> _Operator:
    """delta_p times den**2, contracted from the nonzero slots of ``data`` (``representation._integer_data``).

    Rows are delta_I's target C^(2p+2), then delta_II's C^(2p+3); columns
    are level p.  A tuple of pair slots P_1, ..., P_n (plus a trailing slot
    c) has the flat offset of its digits in the pair basis: ((P_1 * C(d, 2)
    + P_2) ... ) * d + c, times e.  With (x_a, x_b) = P_(p+1), head = P_1 ..
    P_p and sign (-1)**p, the terms are

        delta_I:  sign (rho(x_a) g(head, x_b) - rho(x_b) g(head, x_a) - g(head, [x_a, x_b]))
                  + sum_(k <= p) (-1)**(k+1) (D(P_k) f(P without P_k)
                                              - sum_z f(P without P_k, z -> {P_k, z}))
        delta_II: sign (theta(x_b, c) g(head, x_a) - theta(x_a, c) g(head, x_b))
                  + sum_(k <= p+1) the same with g, c kept and among the slots z

    where z runs over the slots after P_k, and f (g at p = 0) is the
    2p-component and g the (2p+1)-component.
    rho and the binary bracket carry one factor den and get a second here.
    Each nonzero map and slot is added into every row it reaches: the pair
    slot it fills fixes part of the row and column offset, and the other
    slots run through a frame of offsets.
    """
    den, binary, ternary, rho, dmap, theta = data
    pairs, pair_of = _alternating(2, d)
    nq, sign_p, n = len(pairs), (-1) ** p, p + 1
    # strides of the pair slots: rows of delta_I, rows of delta_II, columns of f, columns of g
    row_i = [nq ** (n - 1 - t) * e for t in range(n)]
    row_ii = [x * d for x in row_i]
    col_f = [nq ** (p - 1 - t) * e for t in range(p)]
    col_g = [x * d for x in col_f]
    start_ii = nq**n * e
    start_g = nq**p * e if p else 0
    rows = [{} for _ in range(start_ii * (d + 1))]
    unit = [[(m, 1)] for m in range(e)]  # the identity map in row form

    head = _frame([(nq, row_i[t], col_g[t]) for t in range(p)])
    for u in range(d):
        if any(rho[u]):
            for v in range(d):
                if v != u:
                    s, q = pair_of[u, v]
                    _scatter(rows, head, q * row_i[p], start_g + v * e, _entries(s * sign_p * den, rho[u]))
    for q, (u, v) in enumerate(pairs):
        for l, w in binary[u][v]:
            _scatter(rows, head, q * row_i[p], start_g + l * e, _entries(-sign_p * den * w, unit))
    head = _frame([(nq, row_ii[t], col_g[t]) for t in range(p)])
    for v, c in itertools.product(range(d), repeat=2):
        if any(theta[v][c]):
            for u in range(d):
                if u != v:
                    s, q = pair_of[u, v]
                    row0 = start_ii + q * row_ii[p] + c * e
                    _scatter(rows, head, row0, start_g + u * e, _entries(s * sign_p, theta[v][c]))

    d_maps = [(q, mat) for q, (i, j) in enumerate(pairs) if any(mat := dmap[i][j])]
    t_terms = [(q, z, l, w) for q, (i, j) in enumerate(pairs) for z in range(d) for l, w in ternary[i][j][z]]
    for row0, strides, col0, cols, trailing in ((0, row_i, 0, col_f, 0), (start_ii, row_ii, start_g, col_g, 1)):
        tail = [(d, e, e)] * trailing
        for k in range(p + trailing):
            # pair slot k goes; a later slot t of the target is slot t - 1 of the source
            sign_k = (-1) ** k
            kept = {t: (nq, strides[t], cols[t - (t > k)]) for t in range(n) if t != k}
            frame = _frame([*kept.values(), *tail])
            for q, mat in d_maps:
                _scatter(rows, frame, row0 + q * strides[k], col0, _entries(sign_k, mat))
            if not t_terms:
                continue
            for t in range(k + 1, n):
                frame = _frame([slot for u, slot in kept.items() if u != t] + tail)
                for q, z, l, w in t_terms:
                    for qt, qs, s in _pair_moves(d, z, l):
                        at = row0 + q * strides[k] + qt * strides[t]
                        _scatter(rows, frame, at, col0 + qs * kept[t][2], _entries(-sign_k * w * s, unit))
            if trailing:
                frame = _frame(list(kept.values()))
                for q, z, l, w in t_terms:
                    _scatter(rows, frame, row0 + q * strides[k] + z * e, col0 + l * e, _entries(-sign_k * w, unit))
    return _Operator(start_g + nq**p * d * e, _lines(rows), den * den)


def _delta_star_assembled(d: int, e: int, data: tuple) -> _Operator:
    """delta* times den**2, from the nonzero slots of ``data``; rows delta*_I's (3,), then delta*_II's (3, 1).

    Each cyclic order (u, v, w) of an increasing triple x1 < x2 < x3 adds
    f([u, v], w) - rho(u) f(v, w) + g(u, v, w) to the triple's rows of
    delta*_I, and g([u, v], w, x4) + theta(u, x4) f(v, w) to its rows of
    delta*_II at every x4.
    """
    den, binary, _, rho, _, theta = data
    triples, triple_of = _alternating(3, d)
    pairs, pair_of = _alternating(2, d)
    start_ii, start_g = len(triples) * e, len(pairs) * e
    rows = [{} for _ in range(start_ii * (d + 1))]
    unit = [[(m, 1)] for m in range(e)]
    point, fourth = [(0, 0)], _frame([(d, e, e)])
    for (u, v, w), (sign, t) in triple_of.items():
        if sign < 0:
            continue
        row_i, row_ii = t * e, start_ii + t * d * e
        s, q = pair_of[u, v]
        _scatter(rows, point, row_i, start_g + (q * d + w) * e, _entries(s * den * den, unit))
        for l, x in binary[u][v]:
            if l != w:
                s, q = pair_of[l, w]
                _scatter(rows, point, row_i, q * e, _entries(s * den * x, unit))
                _scatter(rows, fourth, row_ii, start_g + q * d * e, _entries(s * den * x, unit))
        s, q = pair_of[v, w]
        if any(rho[u]):
            _scatter(rows, point, row_i, q * e, _entries(-s * den, rho[u]))
        for x4 in range(d):
            if any(theta[u][x4]):
                _scatter(rows, point, row_ii + x4 * e, q * e, _entries(s, theta[u][x4]))
    return _Operator(start_g + len(pairs) * d * e, _lines(rows), den * den)


def _minor(m, rows: tuple, cols: tuple):
    """Determinant of ``m`` (rows of any scalar type) on ``rows`` x ``cols``, by the Leibniz formula."""
    total = 0
    for perm, (term, _) in _alternating(len(cols), len(cols))[1].items():
        for i, c in zip(rows, perm):
            term *= m[i][cols[c]]
        total += term
    return total


def _transport_terms(data: tuple, xs: tuple):
    """Term generator of the transport (s.h)(x1, ..., xn) = s h(s^-1 x1, ..., s^-1 xn).

    ``data`` is (rows of s as (col, coeff) entries, rows of s^-1, the slot
    groups of the space, the minors found so far).  h alternates within each
    slot group, so a group of k slots at the basis indices u contributes the
    k x k minors of s^-1 on columns u, one per increasing row tuple.
    """
    value, inverse, space, minors = data
    slots, start = [], 0
    for k in next(groups for groups in space if sum(groups) == len(xs)):
        cols = xs[start : start + k]
        if cols not in minors:
            reps = _alternating(k, len(inverse))[0]
            minors[cols] = [(rows, x) for rows in reps if (x := _minor(inverse, rows, cols))]
        slots.append(minors[cols])
        start += k
    for combo in itertools.product(*slots):
        coeff, tup = 1, ()
        for rows, x in combo:
            coeff *= x
            tup += rows
        yield coeff, value, tup


def _held(a: LYAlgebra, r: Representation, src: tuple, dst: tuple, assemble, *args) -> _Operator:
    """The operator ``assemble(d, e, data, *args)`` from ``src`` to ``dst``, assembled at most once and held on ``a``.

    The entry for ``r`` in ``a._operators`` is found by id and confirmed by
    identity, so a module equal to ``r`` but not ``r`` gets its own operators.
    It also holds ``data = _integer_data(a, r)``, the module's stored rows
    indexed once per (algebra, module) and read by every assembly, each with
    scale den**2.
    """
    entry = a._operators.get(id(r))
    if entry is None or entry[0] is not r:
        entry = a._operators[id(r)] = (r, _integer_data(a, r), {})
    _, data, ops = entry
    if (src, dst) not in ops:
        ops[src, dst] = assemble(a.dim, r.e, data, *args)
    return ops[src, dst]


def _delta_op(a: LYAlgebra, r: Representation, p: int) -> _Operator:
    return _held(a, r, _space(p), _space(p + 1), _delta_assembled, p)


def _delta_star_op(a: LYAlgebra, r: Representation) -> _Operator:
    return _held(a, r, _space(1), _STAR_TARGET, _delta_star_assembled)


def _coboundaries(a: LYAlgebra, r: Representation, p: int) -> tuple[list, list]:
    """The operators into and out of level p, each as (source, target, operator).

    Into level p: none at p = 0, else delta_(p-1) (delta_zero at p = 1).
    Out of level p: delta_p, and delta* at p = 1.
    """
    into = [(_space(p - 1), _space(p), _delta_op(a, r, p - 1))] if p else []
    out = [(_space(p), _space(p + 1), _delta_op(a, r, p))]
    if p == 1:
        out.append((_space(1), _STAR_TARGET, _delta_star_op(a, r)))
    return into, out


# ---------------------------------------------------------------------------
# coboundaries applied to one cochain


def delta_zero(a: LYAlgebra, r: Representation, f: Matrix) -> CochainPair:
    """Coboundary of the diagonal element (f, f) of C^0; lands in C^(2,3)."""
    _require_rep(a, r)
    if f.rows != r.e or f.cols != a.dim:
        raise ShapeMismatch(f"C^1 element must be {r.e} x {a.dim}")
    flat = [f[m, s] for s in range(a.dim) for m in range(r.e)]
    return CochainPair.from_flat(1, a.dim, r.e, _delta_op(a, r, 0).apply(flat))


def delta(a: LYAlgebra, r: Representation, c: CochainPair) -> CochainPair:
    """Coboundary C^(2p,2p+1) -> C^(2p+2,2p+3)."""
    _require_rep(a, r)
    if (c.f.shape.d, c.f.shape.e) != (a.dim, r.e):
        raise ShapeMismatch("cochain shaped for a different (algebra, module)")
    return CochainPair.from_flat(c.p + 1, a.dim, r.e, _delta_op(a, r, c.p).apply(c.flat()))


def delta_star(a: LYAlgebra, r: Representation, c: CochainPair) -> tuple[Cochain, Cochain]:
    """The operator C^(2,3) -> C^3 (+) C^4, on its target shapes (3,) and (3, 1); p = 1 only."""
    _require_rep(a, r)
    if c.p != 1:
        raise ShapeMismatch("delta_star is defined on C^(2,3)")
    if (c.f.shape.d, c.f.shape.e) != (a.dim, r.e):
        raise ShapeMismatch("cochain shaped for a different (algebra, module)")
    out = _delta_star_op(a, r).apply(c.flat())
    first, second = (_shape(groups, a.dim, r.e) for groups in _STAR_TARGET)
    return Cochain(first, out[: first.dim]), Cochain(second, out[first.dim :])


# ---------------------------------------------------------------------------
# operator matrices and cohomology groups


def delta_zero_matrix(a: LYAlgebra, r: Representation) -> Matrix:
    """Matrix of delta_zero; column s*e + m is the C^1 coordinate f(e_s)_m."""
    _check_shapes(a, r)
    return _delta_op(a, r, 0).dense()


def delta_matrix(a: LYAlgebra, r: Representation, p: int) -> Matrix:
    """Matrix of delta on C^(2p,2p+1), columns and rows in ``CochainPair.flat`` order."""
    _check_shapes(a, r)
    return _delta_op(a, r, p).dense()


def delta_star_matrix(a: LYAlgebra, r: Representation) -> Matrix:
    """Matrix of delta* on C^(2,3); rows are delta*_I's then delta*_II's target coordinates."""
    _check_shapes(a, r)
    return _delta_star_op(a, r).dense()


@dataclass
class CohomologyResult:
    """The group Z/B at level p of the complex."""

    p: int
    dim: int
    z_basis: SubspaceBasis
    b_basis: SubspaceBasis
    delta_squared_zero: bool

    @property
    def dim_z(self) -> int:
        return self.z_basis.dim

    @property
    def dim_b(self) -> int:
        return self.b_basis.dim


# A level whose largest space has more than 2**_HUGE_BITS coordinates is
# refused from that bound alone, whatever the cap.
_HUGE_BITS = 2048


def _check_cap(a: LYAlgebra, r: Representation, p: int, cap: int) -> int:
    """Refuse levels whose largest target space, C^(2p+3), has more than ``cap`` coordinates.

    C^(2p+3) has e * d * C(d, 2)**(p+1) coordinates, which are returned.
    With b the bit length of C(d, 2), that is at least 2**((p+1)(b-1)); past
    ``_HUGE_BITS`` the level is refused without forming the count, so a huge
    p builds no p-sized shape and formats no p-digit number.
    """
    pairs = math.comb(a.dim, 2)
    if r.e > 0 and (p + 1) * (pairs.bit_length() - 1) > _HUGE_BITS:
        raise SizeCapExceeded(
            f"target cochain space has more than 2**{_HUGE_BITS} coordinates, cap is {cap}"
        )
    largest = r.e * a.dim * pairs ** (p + 1)
    if largest > cap:
        raise SizeCapExceeded(
            f"target cochain space has {largest} coordinates, cap is {cap}"
        )
    return largest


# Arity of C^(2p+3) up to which the coordinate cap alone bounds a level (p <= 2).
_FREE_ARITY = 7

# The LY scan of an algebra of dimension n runs over n**5 tuples; its budget is
# the default cap times 7**3, as ``_check_work`` allows a level, which admits
# n <= _SCAN_DIM = 27.
_SCAN_WORK = DEFAULT_SIZE_CAP * _FREE_ARITY**3
_SCAN_DIM = math.floor(_SCAN_WORK ** (1 / 5))


def _require_scan(n: int, what: str) -> None:
    """Refuse ``what``, of dimension n, when its LY scan of n**5 tuples is over ``_SCAN_WORK``.

    The one scan guard: every algebra load, every semi-direct or twisted
    product and every ``rep-check`` module calls it before anything is
    built.  The message formats neither n nor n**5, since a dimension read
    from JSON can have thousands of digits.
    """
    if n > _SCAN_DIM:
        raise SizeCapExceeded(
            f"{what} of dimension over {_SCAN_DIM} scans n**5 tuples, over cap x 7**3 = {_SCAN_WORK}"
        )


def _check_work(largest: int, p: int, cap: int) -> None:
    """Refuse levels whose assembly work, ``largest`` * (2p+3)**3, is over ``cap`` * 7**3.

    Each coordinate of C^(2p+3) (``largest`` of them) receives O(p**2)
    contributions, one per (removed pair slot, later slot) placement of a
    ternary term, each added by index arithmetic.  Each of those O(p**2)
    placements also builds a frame of offsets over the other p slots, so
    assembly grows as largest * (2p+3)**3 even where largest stays small
    (e * d on a 2-dim algebra).  Up to p = 2 the bound follows from the
    coordinate cap; above, a level counts at least one coordinate, since it
    still builds shapes of its arity.  Nothing p-sized is built or formatted.
    """
    n = 2 * p + 3
    if n > _FREE_ARITY and max(largest, 1) * n**3 > cap * _FREE_ARITY**3:
        raise SizeCapExceeded(
            f"assembly work of {largest} coordinates x (2p+3)**3 is over cap x 7**3 = {cap * _FREE_ARITY**3}"
        )


def _cohomology(a: LYAlgebra, r: Representation, p: int, cap: int) -> CohomologyResult:
    """Z/B at level p: Z the joint kernel of the operators out, B the image of the one in.

    SizeCapExceeded is raised before assembly if C^(2p+3) has more than
    ``cap`` coordinates or the level's work is over the bound that
    ``_check_work`` derives from ``cap``.

    B comes first.  The held rows of the operators out go to elimination
    sparse first: by entry count, ties in held order (delta_p's rows, then
    delta*'s, each in target order).  If B <= Z, their rank is at most
    cols - dim B, so elimination stops there.

    - Rank bound reached: every out row, eliminated or not, is composed with
      the rows of the operator in, exactly in integers, and every product
      must vanish; that is B <= Z.  Then dim Z = dim B, and Z is B's
      echelon basis.
    - Otherwise every row was eliminated, Z is the kernel of the pivot rows,
      and B <= Z is tested by reducing B's basis against Z's.

    Either exact test is ``delta_squared_zero``; failure raises
    CocycleContainmentFailure, which signals a formula-transcription bug.
    """
    _require_rep(a, r)
    _check_work(_check_cap(a, r, p, cap), p, cap)
    into, out = _coboundaries(a, r, p)
    cols = out[0][2].cols
    b = into[0][2].image() if into else SubspaceBasis.from_sparse(cols, ())
    bound = cols - b.dim
    lines = sorted(itertools.chain.from_iterable(op.lines for _, _, op in out), key=len)
    pivot_rows = _eliminate(map(dict, lines), bound)
    if len(pivot_rows) == bound:
        z = b
        composites = (op @ op_in for _, _, op in out for _, _, op_in in into)
        contained = not any(x for composite in composites for line in composite.lines for _, x in line)
    else:
        z = _kernel(cols, pivot_rows)
        contained = z.contains_basis(b)
    if not contained:
        raise CocycleContainmentFailure(f"B is not contained in Z at level p={p}")
    return CohomologyResult(p, z.dim - b.dim, z, b, contained)


def h1(a: LYAlgebra, r: Representation, cap: int = DEFAULT_SIZE_CAP) -> tuple[int, SubspaceBasis]:
    """H^1 = ker delta_zero inside C^1 (level 0, where B = 0)."""
    res = _cohomology(a, r, 0, cap)
    return res.dim, res.z_basis


def h23(a: LYAlgebra, r: Representation, cap: int = DEFAULT_SIZE_CAP) -> CohomologyResult:
    """H^(2,3) = Z/B with Z = ker(delta) ∩ ker(delta_star), B = delta_zero(C^1)."""
    return _cohomology(a, r, 1, cap)


def h_upper(a: LYAlgebra, r: Representation, p: int, cap: int = DEFAULT_SIZE_CAP) -> CohomologyResult:
    """H^(2p,2p+1) = ker delta_p / im delta_(p-1) for p >= 2."""
    if p < 2:
        raise ShapeMismatch("h_upper is for p >= 2; use h23 for p = 1")
    return _cohomology(a, r, p, cap)


# ---------------------------------------------------------------------------
# transport of cochains along module automorphisms


def transport_defects(a: LYAlgebra, r: Representation, p: int, maps) -> list:
    """Per (s, s^-1) in ``maps``: how far transport T fails to preserve the group at level p.

    s (acting on the module) and s^-1 (on the arguments) are row lists of
    Fractions or floats.  The result is the largest entry of T o delta -
    delta o T over every operator into and out of level p, divided once by
    the coboundaries' scale.  0 means T maps cocycles and coboundaries into
    themselves.
    """
    _require_rep(a, r)
    into, out = _coboundaries(a, r, p)
    ops = into + out
    spaces = {space for op in ops for space in op[:2]}
    scale = out[0][2].scale
    defects = []
    for value, inverse in maps:
        rows, minors = [[(l, x) for l, x in enumerate(row) if x] for row in value], {}
        transport = {
            space: _assemble(a.dim, r.e, space, space, _transport_terms, (rows, inverse, space, minors))
            for space in spaces
        }
        worst = 0
        for src, dst, op in ops:
            left, right = transport[dst] @ op, op @ transport[src]
            for left_line, right_line in zip(left.lines, right.lines):
                diff = dict(left_line)
                for col, x in right_line:
                    diff[col] = diff.get(col, 0) - x
                worst = max([worst, *map(abs, diff.values())])
        defects.append(worst / scale if worst else 0)
    return defects
