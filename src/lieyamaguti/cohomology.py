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

Each coboundary -- delta_zero: C^1 -> C^(2,3), delta = (delta_I, delta_II):
C^(2p,2p+1) -> C^(2p+2,2p+3) and the auxiliary delta* above -- is one sparse
operator, defined only by a private term generator and assembled on the
representatives of its target shape.  Applying it to a cochain, densifying it
(``*_matrix``) and taking its kernel and image (``h1``, ``h23``, ``h_upper``)
all go through that operator.  Kernels and images are read off the operator's
nonzero entries by ``linalg``'s sparse fraction-free elimination; they are
never densified.  Validity of the base algebra is checked once per public
entry point, never inside an operator.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import LYAlgebra, is_valid
from .errors import (
    CocycleContainmentFailure,
    InvalidAlgebra,
    ShapeMismatch,
    SizeCapExceeded,
)
from .linalg import Matrix, SubspaceBasis, Vector, sparse_kernel, zero_vector
from .representation import Representation, _check_shapes

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


_C1_SPACE = ((1,),)
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
        coeffs = tuple(Fraction(x) for x in self.coeffs)
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
        return all(x == 0 for x in self.coeffs)


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


def _require_rep(a: LYAlgebra, r: Representation) -> None:
    if not is_valid(a):
        raise InvalidAlgebra("cohomology needs a valid base algebra")
    _check_shapes(a, r)


# ---------------------------------------------------------------------------
# coboundaries: one term generator each, assembled into a sparse operator


class _Operator(NamedTuple):
    """Sparse rows x cols operator; ``entries[row * cols + col]`` is a coefficient."""

    rows: int
    cols: int
    entries: dict

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * self.rows
        for key, c in self.entries.items():
            row, col = divmod(key, self.cols)
            if vec[col]:
                out[row] += c * vec[col]
        return out

    def _lines(self, by_column: bool) -> list:
        """The (index, coefficient) entries of each nonzero row, or of each nonzero column."""
        lines: dict[int, list] = {}
        for key, c in self.entries.items():
            row, col = divmod(key, self.cols)
            if by_column:
                row, col = col, row
            lines.setdefault(row, []).append((col, c))
        return list(lines.values())

    def kernel(self) -> SubspaceBasis:
        return sparse_kernel(self.cols, self._lines(by_column=False))

    def image(self) -> SubspaceBasis:
        """The column span."""
        return SubspaceBasis.from_sparse(self.rows, self._lines(by_column=True))

    def dense(self) -> Matrix:
        entries = [0] * (self.rows * self.cols)
        for key, c in self.entries.items():
            entries[key] = c
        return Matrix(self.rows, self.cols, entries)

    def __matmul__(self, other: "_Operator") -> "_Operator":
        """The composite ``self`` after ``other``."""
        by_row: dict[int, list] = {}
        for key, c in other.entries.items():
            by_row.setdefault(key // other.cols, []).append((key % other.cols, c))
        entries: dict = {}
        for key, c in self.entries.items():
            row, k = divmod(key, self.cols)
            for col, x in by_row.get(k, ()):
                out = row * other.cols + col
                entries[out] = entries.get(out, 0) + c * x
        return _Operator(self.rows, other.cols, entries)

    def stack(self, other: "_Operator") -> "_Operator":
        shift = self.rows * self.cols
        below = {key + shift: c for key, c in other.entries.items()}
        return _Operator(self.rows + other.rows, self.cols, {**self.entries, **below})


def _assemble(a: LYAlgebra, r: Representation, src: tuple, dst: tuple, terms) -> _Operator:
    """Operator between the direct sums of the shapes with slot groups ``src`` and ``dst``.

    The e rows of each representative target tuple xs hold the sum of
    coeff * mat * h(tup) over the terms (coeff, mat, tup) of ``terms(a, r, xs)``:
    h is the source component of arity len(tup), and mat None is the identity.
    """
    d, e = a.dim, r.e
    blocks, cols = {}, 0
    for groups in src:
        shape = _shape(groups, d, e)
        blocks[shape.n] = (shape, cols)
        cols += shape.dim
    entries, row = {}, 0
    for groups in dst:
        for xs in _shape(groups, d, e).tuples():
            for coeff, mat, tup in terms(a, r, xs):
                shape, col = blocks[len(tup)]
                sign, base = shape.offset(tup)
                if not sign:
                    continue
                for m in range(e):
                    for l, x in enumerate(mat.row(m)) if mat is not None else ((m, 1),):
                        if x:
                            key = (row + m) * cols + col + base + l
                            entries[key] = entries.get(key, 0) + sign * coeff * x
            row += e
    return _Operator(row, cols, entries)


def _weighted(coeff, tup: tuple, slot: int, weights: Sequence[Fraction]):
    """Terms of h(tup) with the argument in ``slot`` replaced by the vector ``weights``."""
    args = list(tup)
    for l, w in enumerate(weights):
        if w:
            args[slot] = l
            yield coeff * w, None, tuple(args)


def _delta_zero_terms(a: LYAlgebra, r: Representation, xs: tuple):
    """delta_zero f on (x1, x2) and (x1, x2, x3)."""
    i, j = xs[:2]
    if len(xs) == 2:
        yield 1, r.rho[i], (j,)
        yield -1, r.rho[j], (i,)
        yield from _weighted(-1, (0,), 0, a.binary[i][j])
    else:
        k = xs[2]
        yield 1, r.theta[j][k], (i,)
        yield -1, r.theta[i][k], (j,)
        yield 1, r.dmap[i][j], (k,)
        yield from _weighted(-1, (0,), 0, a.ternary[i][j][k])


def _delta_terms(a: LYAlgebra, r: Representation, xs: tuple):
    """delta_I (f, g) on 2p+2 arguments and delta_II (f, g) on 2p+3 arguments."""
    p = (len(xs) - 2) // 2
    sgn_p = (-1) ** p
    head = xs[: 2 * p]
    if len(xs) == 2 * p + 2:
        x_a, x_b = xs[2 * p :]
        yield sgn_p, r.rho[x_a], head + (x_b,)
        yield -sgn_p, r.rho[x_b], head + (x_a,)
        yield from _weighted(-sgn_p, head + (0,), 2 * p, a.binary[x_a][x_b])
        ks = range(1, p + 1)
    else:
        x_a, x_b, x_c = xs[2 * p :]
        yield sgn_p, r.theta[x_b][x_c], head + (x_a,)
        yield -sgn_p, r.theta[x_a][x_c], head + (x_b,)
        ks = range(1, p + 2)
    for k in ks:
        i, j = xs[2 * k - 2], xs[2 * k - 1]
        reduced = xs[: 2 * k - 2] + xs[2 * k :]
        yield (-1) ** (k + 1), r.dmap[i][j], reduced
        for pos in range(2 * k, len(xs)):
            yield from _weighted((-1) ** k, reduced, pos - 2, a.ternary[i][j][xs[pos]])


def _delta_star_terms(a: LYAlgebra, r: Representation, xs: tuple):
    """delta* (f, g) on (x1, x2, x3) and (x1, x2, x3, x4): cyclic sums over x1, x2, x3."""
    x0, x1, x2 = xs[:3]
    tail = xs[3:]
    for u, v, w in ((x0, x1, x2), (x1, x2, x0), (x2, x0, x1)):
        yield from _weighted(1, (0, w) + tail, 0, a.binary[u][v])
        if tail:
            yield 1, r.theta[u][tail[0]], (v, w)
        else:
            yield -1, r.rho[u], (v, w)
            yield 1, None, (u, v, w)


class _Rows(tuple):
    """A square matrix over any scalar type as a tuple of rows, read like ``Matrix.row``."""

    def row(self, m: int):
        return self[m]


def _minor(m, rows: tuple, cols: tuple):
    """Determinant of ``m`` (rows of any scalar type) on ``rows`` x ``cols``, by the Leibniz formula."""
    total = 0
    for perm, (term, _) in _alternating(len(cols), len(cols))[1].items():
        for i, c in zip(rows, perm):
            term *= m[i][cols[c]]
        total += term
    return total


def _transport_terms(value, inverse, space: tuple):
    """Term generator of the transport (s.h)(x1, ..., xn) = s h(s^-1 x1, ..., s^-1 xn) on ``space``.

    ``value`` and ``inverse`` are the rows of s and s^-1.  h alternates within
    each slot group, so a group of k slots at the basis indices u contributes
    the k x k minors of s^-1 on columns u, one per increasing row tuple.
    """
    value = _Rows(value)
    groups = {sum(g): g for g in space}
    minors = {}

    def terms(a: LYAlgebra, r: Representation, xs: tuple):
        slots, start = [], 0
        for k in groups[len(xs)]:
            cols = xs[start : start + k]
            if cols not in minors:
                reps = _alternating(k, a.dim)[0]
                minors[cols] = [(rows, x) for rows in reps if (x := _minor(inverse, rows, cols))]
            slots.append(minors[cols])
            start += k
        for combo in itertools.product(*slots):
            coeff, tup = 1, ()
            for rows, x in combo:
                coeff *= x
                tup += rows
            yield coeff, value, tup

    return terms


def _delta_zero_op(a: LYAlgebra, r: Representation) -> _Operator:
    return _assemble(a, r, _C1_SPACE, _pair_space(1), _delta_zero_terms)


def _delta_op(a: LYAlgebra, r: Representation, p: int) -> _Operator:
    return _assemble(a, r, _pair_space(p), _pair_space(p + 1), _delta_terms)


def _delta_star_op(a: LYAlgebra, r: Representation) -> _Operator:
    return _assemble(a, r, _pair_space(1), _STAR_TARGET, _delta_star_terms)


# ---------------------------------------------------------------------------
# coboundaries applied to one cochain


def delta_zero(a: LYAlgebra, r: Representation, f: Matrix) -> CochainPair:
    """Coboundary of the diagonal element (f, f) of C^0; lands in C^(2,3)."""
    _require_rep(a, r)
    if f.rows != r.e or f.cols != a.dim:
        raise ShapeMismatch(f"C^1 element must be {r.e} x {a.dim}")
    flat = [f[m, s] for s in range(a.dim) for m in range(r.e)]
    return CochainPair.from_flat(1, a.dim, r.e, _delta_zero_op(a, r).apply(flat))


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
    return _delta_zero_op(a, r).dense()


def delta_matrix(a: LYAlgebra, r: Representation, p: int) -> Matrix:
    """Matrix of delta on C^(2p,2p+1), columns and rows in ``CochainPair.flat`` order."""
    _check_shapes(a, r)
    return _delta_op(a, r, p).dense()


def delta_star_matrix(a: LYAlgebra, r: Representation) -> Matrix:
    """Matrix of delta* on C^(2,3); rows are delta*_I's then delta*_II's target coordinates."""
    _check_shapes(a, r)
    return _delta_star_op(a, r).dense()


def h1(a: LYAlgebra, r: Representation) -> tuple[int, SubspaceBasis]:
    """Joint kernel of delta_zero's two components inside C^1."""
    _require_rep(a, r)
    basis = _delta_zero_op(a, r).kernel()
    return basis.dim, basis


@dataclass
class H23Result:
    dim: int
    z_basis: SubspaceBasis
    b_basis: SubspaceBasis
    delta_squared_zero: bool
    delta_zero_op: _Operator = field(repr=False, compare=False)
    reading: str = Z23_READING

    @property
    def dim_z(self) -> int:
        return self.z_basis.dim

    @property
    def dim_b(self) -> int:
        return self.b_basis.dim

    def h1(self) -> tuple[int, SubspaceBasis]:
        """``h1`` of the same algebra and module, as the kernel of the delta_zero whose image is B."""
        basis = self.delta_zero_op.kernel()
        return basis.dim, basis


def _check_cap(a: LYAlgebra, r: Representation, p: int, cap: int) -> None:
    """Refuse levels whose largest target space, C^(2p+3), has more than ``cap`` coordinates."""
    largest = cochain_dim(2 * p + 3, a.dim, r.e)
    if largest > cap:
        raise SizeCapExceeded(
            f"target cochain space has {largest} coordinates, cap is {cap}"
        )


def h23(a: LYAlgebra, r: Representation, cap: int = DEFAULT_SIZE_CAP) -> H23Result:
    """H^(2,3) = Z/B with Z = ker(delta) ∩ ker(delta_star), B = delta(C^0).

    Containment B <= Z, i.e. delta o delta_zero = 0 and delta* o delta_zero = 0,
    is tested exactly and reported as ``delta_squared_zero``; failure raises
    CocycleContainmentFailure, which signals a formula-transcription bug.
    SizeCapExceeded is raised before assembly if C^5 has more than ``cap``
    coordinates.
    """
    _require_rep(a, r)
    _check_cap(a, r, 1, cap)
    z = _delta_op(a, r, 1).stack(_delta_star_op(a, r)).kernel()
    d0 = _delta_zero_op(a, r)
    b = d0.image()
    contained = z.contains_basis(b)
    if not contained:
        raise CocycleContainmentFailure("B^(2,3) is not contained in Z^(2,3)")
    return H23Result(z.dim - b.dim, z, b, contained, d0)


@dataclass
class HUpperResult:
    p: int
    dim: int
    dim_z: int
    dim_b: int
    delta_squared_zero: bool


def h_upper(a: LYAlgebra, r: Representation, p: int, cap: int = DEFAULT_SIZE_CAP) -> HUpperResult:
    """H^(2p,2p+1) for p >= 2 by exact kernel/image computation.

    ``delta_squared_zero`` is the exact containment test B <= Z, which is
    delta_p o delta_(p-1) = 0; failure raises CocycleContainmentFailure.
    """
    if p < 2:
        raise ShapeMismatch("h_upper is for p >= 2; use h23 for p = 1")
    _require_rep(a, r)
    _check_cap(a, r, p, cap)
    z = _delta_op(a, r, p).kernel()
    b = _delta_op(a, r, p - 1).image()
    contained = z.contains_basis(b)
    if not contained:
        raise CocycleContainmentFailure(f"B^(2p,2p+1) is not contained in Z^(2p,2p+1) at p={p}")
    return HUpperResult(p, z.dim - b.dim, z.dim, b.dim, contained)


# ---------------------------------------------------------------------------
# transport of cochains along module automorphisms


def transport_defects(a: LYAlgebra, r: Representation, which: str, p: int, maps) -> list:
    """Per (s, s^-1) in ``maps``: how far transport T fails to preserve a group.

    s (acting on the module) and s^-1 (on the arguments) are row lists of
    Fractions or floats.  The result is the largest entry of T o delta -
    delta o T over delta_zero for "h1", delta_(p-1) and delta_p for "upper",
    and delta_zero, delta and delta* for "h23".  0 means T maps cocycles and
    coboundaries into themselves.  ``a`` is not validated here: the caller
    has done so (``bundle`` validates the fibre when it loads it).
    """
    if which == "h1":
        ops = [(_C1_SPACE, _pair_space(1), _delta_zero_op(a, r))]
    elif which == "h23":
        ops = [
            (_C1_SPACE, _pair_space(1), _delta_zero_op(a, r)),
            (_pair_space(1), _pair_space(2), _delta_op(a, r, 1)),
            (_pair_space(1), _STAR_TARGET, _delta_star_op(a, r)),
        ]
    elif which == "upper":
        ops = [(_pair_space(q), _pair_space(q + 1), _delta_op(a, r, q)) for q in (p - 1, p)]
    else:
        raise ShapeMismatch(f"unknown cohomology selector {which!r}")
    spaces = {space for op in ops for space in op[:2]}
    defects = []
    for value, inverse in maps:
        transport = {
            space: _assemble(a, r, space, space, _transport_terms(value, inverse, space))
            for space in spaces
        }
        worst = 0
        for src, dst, op in ops:
            left = (transport[dst] @ op).entries
            right = (op @ transport[src]).entries
            for key in left.keys() | right.keys():
                worst = max(worst, abs(left.get(key, 0) - right.get(key, 0)))
        defects.append(worst)
    return defects
