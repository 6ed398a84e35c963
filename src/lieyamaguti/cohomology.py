"""Yamaguti cochain spaces, coboundaries and cohomology groups.

Cochains of arity n >= 2 vanish whenever two arguments in slots (2i-1, 2i)
coincide; over Q this is equivalent to antisymmetry in each such consecutive
pair, so coefficients are stored on the pair-index basis: p = floor(n/2)
unordered pairs (i < j), a trailing basis index for odd n, and a module
coordinate.  ``cochain_dim`` counts exactly these coordinates.

Each coboundary -- delta_zero: C^1 -> C^(2,3), delta = (delta_I, delta_II):
C^(2p,2p+1) -> C^(2p+2,2p+3) and the auxiliary delta*: C^(2,3) -> C^(3,4) --
is one sparse operator, defined only by a private term generator.  Applying
it to a cochain, densifying it (``*_matrix``) and taking its kernel and image
(``h1``, ``h23``, ``h_upper``) all go through that operator.  Kernels and
images are read off the operator's nonzero entries by ``linalg``'s sparse
fraction-free elimination; they are never densified.  Validity of the base
algebra is checked once per public entry point, never inside an operator.

The sign convention of delta*'s rho-block,

    - rho(x1) f(x2, x3) - rho(x2) f(x3, x1) - rho(x3) f(x1, x2),

is the unique one (given its cyclic f- and g-blocks) for which
delta* o delta vanishes identically on C^0; the test suite pins this with
exact randomized checks and the operators entrywise.  The same kernels
characterize twist-validity: a (2,3)-pair twists the semi-direct product into
a Lie-Yamaguti algebra exactly when delta and delta* both kill it.
"""

from __future__ import annotations

import itertools
import random
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
from .linalg import (
    Matrix,
    SubspaceBasis,
    Vector,
    sparse_kernel,
    vec_add,
    vec_scale,
    zero_vector,
)
from .representation import Representation, _check_shapes

DEFAULT_SIZE_CAP = 50_000

Z23_READING = "Z23 = ker(delta) ∩ ker(delta_star) on pairs (f, g)"


def cochain_dim(n: int, d: int, e: int) -> int:
    """Number of coordinates of C^n for a d-dim algebra and e-dim module."""
    if n < 1:
        raise ShapeMismatch("cochain level must be >= 1")
    if n == 1:
        return d * e
    npairs = d * (d - 1) // 2
    p, odd = divmod(n, 2)
    return npairs**p * (d if odd else 1) * e


class Cochain:
    """An element of C^n stored on the pair-index basis."""

    __slots__ = ("n", "d", "e", "coeffs", "_npairs", "_pair_index")

    def __init__(self, n: int, d: int, e: int, coeffs: Sequence | None = None):
        if n < 2:
            raise ShapeMismatch("Cochain models arities >= 2; C^1 is an e x d matrix")
        self.n = n
        self.d = d
        self.e = e
        self._npairs = d * (d - 1) // 2
        self._pair_index = {}
        q = 0
        for i in range(d):
            for j in range(i + 1, d):
                self._pair_index[(i, j)] = q
                q += 1
        size = cochain_dim(n, d, e)
        if coeffs is None:
            self.coeffs = [Fraction(0)] * size
        else:
            self.coeffs = [Fraction(x) for x in coeffs]
            if len(self.coeffs) != size:
                raise ShapeMismatch(f"C^{n} needs {size} coefficients, got {len(self.coeffs)}")

    @property
    def pairs(self) -> int:
        return self.n // 2

    @property
    def has_tail(self) -> bool:
        return self.n % 2 == 1

    def rep_tuples(self):
        """Representative basis tuples: increasing pairs, free trailing slot."""
        pair_list = [(i, j) for i in range(self.d) for j in range(i + 1, self.d)]
        tails = range(self.d) if self.has_tail else (None,)
        for combo in itertools.product(pair_list, repeat=self.pairs):
            flat = tuple(x for pr in combo for x in pr)
            for t in tails:
                yield flat if t is None else flat + (t,)

    def _base_offset(self, tup: tuple) -> tuple[int, int]:
        """(sign, flat offset of the e-block) for a full basis tuple; sign 0 if degenerate."""
        idx = 0
        sign = 1
        for a in range(self.pairs):
            i, j = tup[2 * a], tup[2 * a + 1]
            if i == j:
                return 0, 0
            if i > j:
                i, j = j, i
                sign = -sign
            idx = idx * self._npairs + self._pair_index[(i, j)]
        if self.has_tail:
            idx = idx * self.d + tup[-1]
        return sign, idx * self.e

    def eval_basis(self, tup: tuple) -> Vector:
        """Value (an e-vector) on a tuple of basis indices."""
        if len(tup) != self.n:
            raise ShapeMismatch(f"C^{self.n} evaluated on {len(tup)} arguments")
        sign, base = self._base_offset(tup)
        if sign == 0:
            return zero_vector(self.e)
        block = self.coeffs[base : base + self.e]
        return tuple(block) if sign == 1 else tuple(-x for x in block)

    def eval_vectors(self, args: Sequence[Sequence[Fraction]]) -> Vector:
        """Full multilinear evaluation on arbitrary coordinate vectors."""
        if len(args) != self.n:
            raise ShapeMismatch("wrong number of arguments")
        out = zero_vector(self.e)
        for tup in itertools.product(range(self.d), repeat=self.n):
            c = Fraction(1)
            for s, l in enumerate(tup):
                c *= args[s][l]
                if not c:
                    break
            if c:
                out = vec_add(out, vec_scale(c, self.eval_basis(tup)))
        return out

    def set_block(self, tup: tuple, vec: Sequence[Fraction]) -> None:
        sign, base = self._base_offset(tup)
        if sign == 0:
            raise ShapeMismatch("cannot assign on a degenerate tuple")
        for m, x in enumerate(vec):
            self.coeffs[base + m] = Fraction(x) if sign == 1 else -Fraction(x)

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
        if self.f.n != 2 * self.p or self.g.n != 2 * self.p + 1:
            raise ShapeMismatch("component arities do not match the level")
        if (self.f.d, self.f.e) != (self.g.d, self.g.e):
            raise ShapeMismatch("components over different (d, e)")

    @classmethod
    def zero(cls, p: int, d: int, e: int) -> "CochainPair":
        return cls(p, Cochain(2 * p, d, e), Cochain(2 * p + 1, d, e))

    def flat(self) -> list[Fraction]:
        return list(self.f.coeffs) + list(self.g.coeffs)

    @classmethod
    def from_flat(cls, p: int, d: int, e: int, flat: Sequence) -> "CochainPair":
        nf = cochain_dim(2 * p, d, e)
        return cls(p, Cochain(2 * p, d, e, flat[:nf]), Cochain(2 * p + 1, d, e, flat[nf:]))

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
    """Operator from C^src[0] (+) C^src[1] to C^dst[0] (+) C^dst[1], in flat order.

    The e rows of each representative target tuple xs hold the sum of
    coeff * mat * h(tup) over the terms (coeff, mat, tup) of ``terms(a, r, xs)``:
    h is the source component of arity len(tup), and mat None is the identity.
    C^1 = Hom(g, V) has coordinate s*e + m for f(e_s)_m, as source or target.
    """
    d, e = a.dim, r.e
    blocks, cols = {}, 0
    for n in src:
        blocks[n] = (Cochain(n, d, e) if n > 1 else None, cols)
        cols += cochain_dim(n, d, e)
    entries, row = {}, 0
    for n in dst:
        for xs in Cochain(n, d, e).rep_tuples() if n > 1 else ((x,) for x in range(d)):
            for coeff, mat, tup in terms(a, r, xs):
                shape, col = blocks[len(tup)]
                sign, base = shape._base_offset(tup) if shape else (1, tup[0] * e)
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


def _transport_terms(value, inverse):
    """Term generator of the transport (s.h)(x1, ..., xn) = s h(s^-1 x1, ..., s^-1 xn).

    ``value`` and ``inverse`` are the rows of s and s^-1.  h vanishes on equal
    pair arguments, so a pair slot (u, v) contributes the 2x2 minors of s^-1
    on columns u, v; a trailing slot (all of C^1) contributes column u.
    """
    value = _Rows(value)

    def terms(a: LYAlgebra, r: Representation, xs: tuple):
        d = a.dim
        npairs, odd = divmod(len(xs), 2)
        slots = [
            [
                ((i, j), inverse[i][u] * inverse[j][v] - inverse[j][u] * inverse[i][v])
                for i in range(d)
                for j in range(i + 1, d)
            ]
            for u, v in zip(xs[0 : 2 * npairs : 2], xs[1 : 2 * npairs : 2])
        ]
        if odd:
            slots.append([((i,), inverse[i][xs[-1]]) for i in range(d)])
        for combo in itertools.product(*([t for t in slot if t[1]] for slot in slots)):
            coeff, tup = 1, ()
            for idx, c in combo:
                coeff *= c
                tup += idx
            yield coeff, value, tup

    return terms


def _delta_zero_op(a: LYAlgebra, r: Representation) -> _Operator:
    return _assemble(a, r, (1,), (2, 3), _delta_zero_terms)


def _delta_op(a: LYAlgebra, r: Representation, p: int) -> _Operator:
    return _assemble(a, r, (2 * p, 2 * p + 1), (2 * p + 2, 2 * p + 3), _delta_terms)


def _delta_star_op(a: LYAlgebra, r: Representation) -> _Operator:
    return _assemble(a, r, (2, 3), (3, 4), _delta_star_terms)


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
    if (c.f.d, c.f.e) != (a.dim, r.e):
        raise ShapeMismatch("cochain shaped for a different (algebra, module)")
    return CochainPair.from_flat(c.p + 1, a.dim, r.e, _delta_op(a, r, c.p).apply(c.flat()))


def delta_star(a: LYAlgebra, r: Representation, c: CochainPair) -> tuple[Cochain, Cochain]:
    """The operator C^(2,3) -> C^(3,4); defined for p = 1 only."""
    _require_rep(a, r)
    if c.p != 1:
        raise ShapeMismatch("delta_star is defined on C^(2,3)")
    if (c.f.d, c.f.e) != (a.dim, r.e):
        raise ShapeMismatch("cochain shaped for a different (algebra, module)")
    d, e = a.dim, r.e
    out = _delta_star_op(a, r).apply(c.flat())
    n3 = cochain_dim(3, d, e)
    return Cochain(3, d, e, out[:n3]), Cochain(4, d, e, out[n3:])


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
    """Matrix of delta* on C^(2,3), rows in C^3-then-C^4 order."""
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
    and delta_zero and delta for "h23", together with delta* on T(Z^(2,3)):
    delta*'s C^4 block is stored on representatives x3 < x4 although it is
    not antisymmetric in (x3, x4), so its target is not closed under T.
    0 means T maps cocycles and coboundaries into themselves.
    """
    _require_rep(a, r)
    if which == "h1":
        ops = [((1,), (2, 3), _delta_zero_op(a, r))]
    elif which == "h23":
        ops = [((1,), (2, 3), _delta_zero_op(a, r)), ((2, 3), (4, 5), _delta_op(a, r, 1))]
        star = _delta_star_op(a, r)
        cycles = ops[1][2].stack(star).kernel().vectors
    elif which == "upper":
        ops = [((2 * q, 2 * q + 1), (2 * q + 2, 2 * q + 3), _delta_op(a, r, q)) for q in (p - 1, p)]
    else:
        raise ShapeMismatch(f"unknown cohomology selector {which!r}")
    defects = []
    for value, inverse in maps:
        terms = _transport_terms(value, inverse)
        transport = {space: _assemble(a, r, space, space, terms) for op in ops for space in op[:2]}
        worst = 0
        for src, dst, op in ops:
            left = (transport[dst] @ op).entries
            right = (op @ transport[src]).entries
            for key in left.keys() | right.keys():
                worst = max(worst, abs(left.get(key, 0) - right.get(key, 0)))
        if which == "h23":
            for z in cycles:
                worst = max(worst, *map(abs, star.apply(transport[(2, 3)].apply(z))))
        defects.append(worst)
    return defects


# ---------------------------------------------------------------------------
# randomized cochains for property tests


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def random_cochain(n: int, d: int, e: int, rng: random.Random) -> Cochain:
    c = Cochain(n, d, e)
    c.coeffs = [random_fraction(rng) for _ in range(len(c.coeffs))]
    return c


def random_cochain_pair(p: int, d: int, e: int, rng: random.Random) -> CochainPair:
    return CochainPair(p, random_cochain(2 * p, d, e, rng), random_cochain(2 * p + 1, d, e, rng))


def random_c1(d: int, e: int, rng: random.Random) -> Matrix:
    return Matrix(e, d, [random_fraction(rng) for _ in range(e * d)])
