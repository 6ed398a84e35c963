"""Finite-dimensional Lie-Yamaguti algebras given by structure constants.

An algebra of dimension d stores its nonzero structure constants only
(``_slots``): per slot (i, j) of the binary bracket and (i, j, k) of the
ternary one, the nonzero coordinates of [e_i, e_j] and {e_i, e_j, e_k}.
``bracket``, ``triple``, ``structure_lcm``, ``integer_tables``,
``_map_defect`` and the bundle gate read them and never visit a zero slot.
The dense tensors ``binary`` and ``ternary`` are read-only views, built on
first read, for JSON, products and constructors; the adjoint module is read
straight off the slots.
Stored constants may violate the defining identities: validity is a
predicate (``check_axioms``), not a type invariant.  An algebra is
immutable, so its validity is computed at most once per instance (the
cached first-violation report behind ``is_valid``), and every entry point
that needs a valid algebra calls one guard, ``_require_valid``.  The
instance likewise holds its views, its adjoint module and, per module
object, the coboundary operators assembled for it (``cohomology._held``).

Every constructor, and the semidirect and twisted products in
``representation``, builds through ``_from_entries``: exact vectors keyed by
(i, j) and (i, j, k), of which it keeps the nonzero coordinates.
``from_tensors`` is the entry for raw full tensors and coerces every
coordinate to a Fraction; ``from_sparse`` (and so every JSON load) takes i<j
entries and derives the antisymmetric mirrors, which makes LY1/LY2
violations impossible along that path.  ``from_lie`` decides whether its
input is a Lie algebra through the built algebra's own first-violation scan:
with {a, b, c} = [[a, b], c], LY1 is antisymmetry and LY3 is twice the
Jacobi sum, so the algebra it returns has been validated once, and every
later guard reads that answer.  ``from_leibniz`` keeps its own Leibniz loop,
because the derived algebra can pass LY1..LY6 for a product that is not
Leibniz.

Axiom checking runs over basis tuples only; multilinearity over Q makes that
equivalent to the universally quantified identities.  It works on sparse
integer structure constants (``integer_tables``): with den the LCM of every
denominator, den * binary and den**2 * ternary are integer, each identity is
homogeneous of weight w (``LY_WEIGHTS``), and its integer defect is den**w
times the exact one.  LY1 and LY2 are evaluated where a nonzero slot's
mirror does not cancel it; LY3..LY6 are contracted from the nonzero slots,
each slot adding its terms into the flat defect of every representative
tuple it reaches, and the defects are read off in the documented scan order.
The report keeps the integer defects and converts them back, to exact
Fractions, when its ``violations`` are first read.

Maps have one bracket-preservation defect, ``_map_defect``, for any scalar
type: ``is_homomorphism`` and the bundle gate's automorphism check both run
it.  It expands both sides from the nonzero structure constants of the two
algebras and the nonzero entries of the map only, adding each term in the
order ``bracket``/``triple`` would, so float defects are the same to the
bit.  The expansion is compiled once per nonzero pattern of the map
(``_defect_plan``) into lists of the distinct products and the coordinates
that have a term.  A caller that checks many maps between the same two
algebras holds the plans while it runs (the bundle gate does, per call);
nothing else keeps them.  The derivations are the cocycles of delta_zero
with adjoint coefficients, so ``derivations`` reads them off that
operator's kernel and ``is_derivation`` asks whether that operator kills a
matrix; both need a valid algebra, where delta_I and delta_II of a matrix
are exactly its binary and ternary derivation identities.  That the kernel
is closed under commutator is a theorem, asserted by the test suite and not
proved again at run time.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    InvalidAlgebra,
    NotALeibnizAlgebra,
    NotALieAlgebra,
    NotReductive,
    ShapeMismatch,
)
from .linalg import (
    Matrix,
    SubspaceBasis,
    Vector,
    _largest,
    denominator_lcm,
    qvec,
    sparse_kernel,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vector,
)

AXIOMS = ("LY1", "LY2", "LY3", "LY4", "LY5", "LY6")


@dataclass(frozen=True)
class LYAlgebra:
    """Nonzero structure constants of a (candidate) Lie-Yamaguti algebra."""

    dim: int
    _slots: tuple  # (binary, ternary): ((i, j) or (i, j, k), its nonzero coordinates (m, c)), in index order
    name: str = ""

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """Bilinear extension of the binary bracket to coordinate vectors of any scalar type.

        Each coordinate adds its terms in slot-index order, skipping a slot
        where a factor is zero, so float results are those of a dense loop.
        """
        out = [0] * self.dim
        for (i, j), entries in self._slots[0]:
            if (xi := x[i]) and (yj := y[j]):
                c = xi * yj
                for m, v in entries:
                    out[m] += c * v
        return tuple(out)

    def triple(self, x, y, z) -> Vector:
        """Trilinear extension of the ternary bracket, for any scalar type; the scalar is (x_i y_j) z_k."""
        out = [0] * self.dim
        for (i, j, k), entries in self._slots[1]:
            if (xi := x[i]) and (yj := y[j]) and (zk := z[k]):
                c = xi * yj * zk
                for m, v in entries:
                    out[m] += c * v
        return tuple(out)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(int(j == i)) for j in range(self.dim))

    @functools.cached_property
    def _first_violation(self) -> "AxiomReport":
        """``check_axioms(self, first_only=True)``, run at most once per instance."""
        return check_axioms(self, first_only=True)

    @functools.cached_property
    def _adjoint(self):
        """The adjoint module, read off the slots at most once per instance; ``representation.adjoint`` guards it."""
        from .representation import _adjoint_module

        return _adjoint_module(self)

    @functools.cached_property
    def _operators(self) -> dict:
        """Coboundary operators held per module: id(module) -> (module, {(src, dst): operator}).

        Filled by ``cohomology._held``.  An entry keeps its module alive, so
        the id is not reused while the entry lives, and a lookup checks the
        module with ``is``.  References run algebra -> module only, so the
        operators go when the algebra does.
        """
        return {}

    @functools.cached_property
    def binary(self) -> tuple:
        """binary[i][j] is the d-vector of [e_i, e_j]: a read-only dense view, built on first read."""
        return self._view(0, 2)

    @functools.cached_property
    def ternary(self) -> tuple:
        """ternary[i][j][k] is the d-vector of {e_i, e_j, e_k}, likewise."""
        return self._view(1, 3)

    def _view(self, group: int, rank: int) -> tuple:
        """``_slots[group]`` as a dense tensor of the given rank; a zero slot is the shared ``zero_vector``."""
        d, zero = self.dim, zero_vector(self.dim)
        flat = [zero] * d**rank
        for idx, entries in self._slots[group]:
            flat[functools.reduce(lambda p, i: p * d + i, idx)] = tuple(map(dict(entries).get, range(d), zero))
        for _ in range(rank - 1):
            flat = list(zip(*[iter(flat)] * d))  # consecutive runs of d
        return tuple(flat)

    def __getstate__(self) -> dict:
        """The fields only: a copied or unpickled algebra computes its views and held values again."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class AxiomReport:
    """Violations of LY1..LY6, keyed by axiom name.

    Each violation is a pair (basis index tuple, defect vector).  The report
    is empty exactly when all six identities hold on every basis tuple, which
    by multilinearity means they hold identically.

    ``check_axioms`` adds each violated tuple's integer defect, den**w times
    the exact one (``LY_WEIGHTS``), and ``violations`` turns them into exact
    Fractions on first read; ``ok`` and ``violated_axioms`` read the integer
    defects, so a caller that reads only those builds no Fraction.
    """

    def __init__(self, den: int = 1):
        self._den = den
        self._found = {ax: [] for ax in AXIOMS}

    @property
    def ok(self) -> bool:
        return not any(self._found.values())

    def violated_axioms(self) -> list[str]:
        return [ax for ax in AXIOMS if self._found[ax]]

    def add(self, axiom: str, tup: tuple, defect: list) -> None:
        """Add an integer defect, before ``violations`` is first read."""
        self._found[axiom].append((tup, defect))

    @functools.cached_property
    def violations(self) -> dict:
        """axiom -> [(basis tuple, defect as exact Fractions)], in scan order; built on first read."""
        out = {}
        for ax, found in self._found.items():
            scale = self._den ** LY_WEIGHTS[ax]
            out[ax] = [(tup, tuple(Fraction(x, scale) for x in defect)) for tup, defect in found]
        return out

    def __eq__(self, other) -> bool:
        return type(other) is AxiomReport and self.violations == other.violations

    def __repr__(self) -> str:
        return f"AxiomReport(violations={self.violations!r})"

    def summary(self) -> str:
        if self.ok:
            return "all axioms hold"
        parts = []
        for ax in self.violated_axioms():
            found = self._found[ax]
            parts.append(f"{ax} fails on {tuple(i + 1 for i in found[0][0])} ({len(found)} tuples)")
        return "; ".join(parts)


# Weight of each identity in the cleared structure constants: the integer
# defect is den**weight times the exact one.
LY_WEIGHTS = {"LY1": 1, "LY2": 2, "LY3": 2, "LY4": 3, "LY5": 3, "LY6": 4}


def structure_lcm(a: LYAlgebra, extra: Iterable[Fraction] = ()) -> int:
    """The LCM of every denominator in the structure constants of ``a`` and in ``extra``."""
    constants = (c for _, entries in itertools.chain(*a._slots) for _, c in entries)
    return denominator_lcm(itertools.chain(constants, extra))


def integer_tables(a: LYAlgebra, extra: Iterable[Fraction] = ()) -> tuple[int, list, list]:
    """Structure constants with denominators cleared, as sparse integer vectors.

    Returns ``(den, B, T)``: ``den`` is the LCM of every denominator in ``a``
    and in ``extra``; ``B[i][j]`` holds den * [e_i, e_j] and ``T[i][j][k]``
    holds den**2 * {e_i, e_j, e_k}, each as a list of nonzero (index, int)
    pairs.  Only the nonzero slots are filled; the rest stay empty.
    """
    return _tables_at(a, structure_lcm(a, extra))


def _tables_at(a: LYAlgebra, den: int) -> tuple[int, list, list]:
    """``integer_tables`` of ``a`` at a given multiple ``den`` of its denominators."""
    rng, den2 = range(a.dim), den * den
    b = [[[] for _ in rng] for _ in rng]
    t = [[[[] for _ in rng] for _ in rng] for _ in rng]
    for (i, j), entries in a._slots[0]:
        b[i][j] = [(m, c.numerator * (den // c.denominator)) for m, c in entries]
    for (i, j, k), entries in a._slots[1]:
        t[i][j][k] = [(m, c.numerator * (den2 // c.denominator)) for m, c in entries]
    return den, b, t


def _slot_index(d: int, B: list, T: list) -> tuple:
    """The nonzero slots of the tables B and T, listed and indexed by argument.

    Returns ``(bslots, tslots, b_at, t_at)``: ``bslots`` lists (i, j, row)
    and ``tslots`` (i, j, k, row) for each nonzero slot, in index order;
    ``b_at[p][m]`` lists the slots of B with m in argument p as (the other
    index, row), and ``t_at[p][m]`` those of T as (the other two, row).
    """
    rng = range(d)
    bslots = [(i, j, row) for i in rng for j, row in enumerate(B[i]) if row]
    tslots = [(i, j, k, row) for i in rng for j in rng for k, row in enumerate(T[i][j]) if row]
    b_at = [[[] for _ in rng] for _ in range(2)]
    t_at = [[[] for _ in rng] for _ in range(3)]
    for i, j, row in bslots:
        b_at[0][i].append((j, row))
        b_at[1][j].append((i, row))
    for i, j, k, row in tslots:
        t_at[0][i].append((j, k, row))
        t_at[1][j].append((i, k, row))
        t_at[2][k].append((i, j, row))
    return bslots, tslots, b_at, t_at


def _blocks(acc: list, d: int):
    """(b, acc[b*d : b*d + d]) for each run b of d entries of ``acc`` with a nonzero one, in order."""
    last = -1
    for n in itertools.compress(range(len(acc)), acc):
        if n // d != last:
            last = n // d
            yield last, acc[last * d : last * d + d]


@functools.lru_cache(maxsize=64)
def _cyclic_targets(d: int, reduced: bool) -> tuple:
    """The representative triples of LY3/LY4, and per (x, y, z) the triples whose cyclic sum has it as a term.

    Triple (i, j, k) sums over (i, j, k), (j, k, i) and (k, i, j); the
    second table is flat, (x * d + y) * d + z.
    """
    rng = range(d)
    triples = tuple(itertools.combinations(rng, 3) if reduced else itertools.product(rng, rng, rng))
    targets = [[] for _ in range(d**3)]
    for t, (i, j, k) in enumerate(triples):
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            targets[(x * d + y) * d + z].append(t)
    return triples, tuple(map(tuple, targets))


def _ly_defects(d: int, B: list, T: list):
    """Yield (axiom, basis tuple, integer defect) for each violated identity.

    Works on the tables of ``integer_tables``, in the scan order documented
    on ``check_axioms``; each defect is a list of d ints.  LY1 and LY2 are
    evaluated on the tuples where a nonzero slot's mirror does not cancel
    it, LY3..LY6 by contraction over the nonzero slots (``_cyclic_defects``,
    ``_derivation_defects``); every other tuple has a zero defect.
    """
    rng = range(d)
    slots = _slot_index(d, B, T)
    bslots, tslots = slots[:2]
    reduced = True
    # rows list their nonzero ints by index, so a defect vanishes exactly where the mirror slot holds the negated row
    bad = {t for i, j, row in bslots if B[j][i] != [(n, -x) for n, x in row] for t in ((i, j), (j, i))}
    for i, j in sorted(bad):
        acc = [0] * d
        for n, x in B[i][j] + B[j][i]:
            acc[n] += x
        reduced = False
        yield "LY1", (i, j), acc
    bad = {t for i, j, k, row in tslots if T[j][i][k] != [(n, -x) for n, x in row] for t in ((i, j, k), (j, i, k))}
    for i, j, k in sorted(bad):
        acc = [0] * d
        for n, x in T[i][j][k] + T[j][i][k]:
            acc[n] += x
        reduced = False
        yield "LY2", (i, j, k), acc
    yield from _cyclic_defects(d, reduced, slots)
    pairs = list(itertools.combinations(rng, 2) if reduced else itertools.product(rng, rng))
    yield from _derivation_defects(d, pairs, T, slots)


def _cyclic_defects(d: int, reduced: bool, slots: tuple):
    """LY3 and LY4 as ``_ly_defects`` yields them, summed from the nonzero slots into each representative triple.

    LY3 at (i, j, k) is the cyclic sum of F(x, y, z) = [[x, y], z] + {x, y,
    z}, LY4 at (i, j, k, u) that of G(x, y, z, u) = {[x, y], z, u}; each
    term of F or G is added into every representative triple that has it in
    its cyclic sum (``_cyclic_targets``), and each triple's block of the
    flat accumulator holds its defect, in scan order.
    """
    bslots, tslots, b_at, t_at = slots
    triples, targets = _cyclic_targets(d, reduced)
    acc = [0] * (len(triples) * d)
    for x, y, row in bslots:
        xy = (x * d + y) * d
        for m, c in row:
            for z, row2 in b_at[0][m]:
                for t in targets[xy + z]:
                    for n, v in row2:
                        acc[t * d + n] += c * v
    for x, y, z, row in tslots:
        for t in targets[(x * d + y) * d + z]:
            for n, v in row:
                acc[t * d + n] += v
    for t, defect in _blocks(acc, d):
        yield "LY3", triples[t], defect
    acc = [0] * (len(triples) * d * d)
    for x, y, row in bslots:
        xy = (x * d + y) * d
        for m, c in row:
            for z, u, row2 in t_at[0][m]:
                for t in targets[xy + z]:
                    base = (t * d + u) * d
                    for n, v in row2:
                        acc[base + n] += c * v
    for tu, defect in _blocks(acc, d):
        t, u = divmod(tu, d)
        yield "LY4", triples[t] + (u,), defect


def _derivation_defects(d: int, pairs: list, T: list, slots: tuple):
    """LY5 and LY6 as ``_ly_defects`` yields them: is each {i, j, .} of T a derivation of the brackets of ``slots``?

    ``slots`` is ``_slot_index`` of the tables (B, T') whose brackets are
    differentiated; ``_ly_defects`` passes T' = T.  Per representative pair
    (i, j) with a nonzero {i, j, .}, one flat accumulator over (pair q,
    then w, then n) collects

        LY5 at (i, j, u, v):    {i, j, [u, v]} - [{i, j, u}, v] - [u, {i, j, v}]
        LY6 at (i, j, u, v, w): {i, j, {u, v, w}} - {{i, j, u}, v, w}
                                - {u, {i, j, v}, w} - {u, v, {i, j, w}}

    from the nonzero slots, each indexed by the argument {i, j, .} fills;
    a term on a pair (u, v) that is not representative is skipped.
    """
    bslots, tslots, b_at, t_at = slots
    rng = range(d)
    pos = [[-1] * d for _ in rng]
    for q, (u, v) in enumerate(pairs):
        pos[u][v] = q
    maps = [((i, j), tij) for i, j in pairs if any(tij := T[i][j])]
    # per coordinate m, the (flat offset, coefficient) of m in each inner bracket on a representative (u, v)
    inner_b, inner_t = [[] for _ in rng], [[] for _ in rng]
    for u, v, row in bslots:
        if (q := pos[u][v]) >= 0:
            for m, c in row:
                inner_b[m].append((q * d, c))
    for u, v, w, row in tslots:
        if (q := pos[u][v]) >= 0:
            for m, c in row:
                inner_t[m].append(((q * d + w) * d, c))
    for ij, tij in maps if bslots else ():  # every LY5 term has a binary bracket
        acc = [0] * (len(pairs) * d)
        for u, row in enumerate(tij):
            for base, c in inner_b[u]:
                for n, x in row:
                    acc[base + n] += c * x
            for m, c in row:
                for v, row2 in b_at[0][m]:
                    if (q := pos[u][v]) >= 0:
                        for n, x in row2:
                            acc[q * d + n] -= c * x
                for w, row2 in b_at[1][m]:  # u -> {i, j, u} in the second argument
                    if (q := pos[w][u]) >= 0:
                        for n, x in row2:
                            acc[q * d + n] -= c * x
        for q, defect in _blocks(acc, d):
            yield "LY5", ij + pairs[q], defect
    for ij, tij in maps:
        acc = [0] * (len(pairs) * d * d)
        for u, row in enumerate(tij):
            for base, c in inner_t[u]:
                for n, x in row:
                    acc[base + n] += c * x
            for m, c in row:
                for v, w, row2 in t_at[0][m]:
                    if (q := pos[u][v]) >= 0:
                        base = (q * d + w) * d
                        for n, x in row2:
                            acc[base + n] -= c * x
                for v, w, row2 in t_at[1][m]:  # u -> {i, j, u} in the second argument: slot (v, m, w)
                    if (q := pos[v][u]) >= 0:
                        base = (q * d + w) * d
                        for n, x in row2:
                            acc[base + n] -= c * x
                for v, w, row2 in t_at[2][m]:  # in the third argument: slot (v, w, m)
                    if (q := pos[v][w]) >= 0:
                        base = (q * d + u) * d
                        for n, x in row2:
                            acc[base + n] -= c * x
        for qw, defect in _blocks(acc, d):
            q, w = divmod(qw, d)
            yield "LY6", ij + pairs[q] + (w,), defect


def check_axioms(a: LYAlgebra, first_only: bool = False) -> AxiomReport:
    """Evaluate LY1..LY6 on all basis tuples.

    With ``first_only`` the scan stops at the first violation found; the
    report then carries exactly one entry.

    LY1 and LY2 are always scanned in full.  When both hold, the defects of
    LY3..LY6 are alternating in their antisymmetric argument groups, so those
    identities are scanned on representative tuples only (strictly increasing
    where the defect alternates); the remaining tuples vanish identically.
    When LY1 or LY2 fails, everything is scanned in full.  The scan order is
    LY1 to LY6, and within an identity the tuples in lexicographic order.

    The identities are evaluated in integers on ``integer_tables(a)``, by
    contraction over the nonzero slots (``_ly_defects``); the report keeps
    each violated tuple's integer defect and builds its exact Fractions
    when ``violations`` is first read.
    """
    den, B, T = integer_tables(a)
    report = AxiomReport(den)
    for axiom, tup, acc in _ly_defects(a.dim, B, T):
        report.add(axiom, tup, acc)
        if first_only:
            break
    return report


def is_valid(a: LYAlgebra) -> bool:
    return a._first_violation.ok


def _require_valid(a: LYAlgebra) -> None:
    """The validity guard: InvalidAlgebra naming the first violated identity and its 1-based tuple."""
    report = a._first_violation
    if not report.ok:
        axiom = report.violated_axioms()[0]
        tup = tuple(i + 1 for i in report.violations[axiom][0][0])
        raise InvalidAlgebra(f"algebra {a.name or '<unnamed>'} violates {axiom} on basis tuple {tup}")


# ---------------------------------------------------------------------------
# constructors


def _from_entries(d: int, binary: dict, ternary: dict, name: str = "") -> LYAlgebra:
    """The algebra with [e_i, e_j] = binary[i, j] and {e_i, e_j, e_k} = ternary[i, j, k].

    Entries are vectors of d coordinates of any scalar type; the algebra keeps
    their nonzero coordinates, in index order, and no slot that has none.
    """

    def nonzero(group: dict) -> tuple:
        slots = ((idx, tuple((m, c) for m, c in enumerate(v) if c)) for idx, v in sorted(group.items()))
        return tuple(slot for slot in slots if slot[1])

    return LYAlgebra(d, (nonzero(binary), nonzero(ternary)), name)


def _exact_slots(tensor, rank: int) -> dict:
    """Every slot of a raw full tensor of the given rank, coerced to an exact vector."""
    d = len(tensor)
    out = {}
    for idx in itertools.product(range(d), repeat=rank):
        v = tensor
        for i in idx:
            v = v[i]
        out[idx] = qvec(v)
    return out


def zero_algebra(d: int, name: str = "") -> LYAlgebra:
    return _from_entries(d, {}, {}, name or f"abelian{d}")


def _is_cube(tensor, levels: int, d: int) -> bool:
    """True iff ``tensor`` nests ``levels`` levels of sequences of length d."""
    return len(tensor) == d and (levels == 1 or all(_is_cube(t, levels - 1, d) for t in tensor))


def from_tensors(binary, ternary, name: str = "") -> LYAlgebra:
    """Wrap raw full tensors (no validation; check_axioms is the arbiter).

    The entry for raw full tensors: every coordinate is coerced to a Fraction.
    With d = len(binary), binary must be d x d x d and ternary d x d x d x d.
    """
    d = len(binary)
    if not (_is_cube(binary, 3, d) and _is_cube(ternary, 4, d)):
        raise ShapeMismatch(f"from_tensors needs a {d}x{d}x{d} binary and a {d}x{d}x{d}x{d} ternary tensor")
    return _from_entries(d, _exact_slots(binary, 2), _exact_slots(ternary, 3), name)


def from_sparse(
    d: int,
    binary_entries: dict[tuple[int, int], Sequence] | None = None,
    ternary_entries: dict[tuple[int, int, int], Sequence] | None = None,
    name: str = "",
) -> LYAlgebra:
    """Build from i<j representative entries (0-based), deriving the mirrors.

    Along this path LY1 and LY2 hold by construction.
    """
    b, t = {}, {}
    for (i, j), v in (binary_entries or {}).items():
        if not 0 <= i < j < d:
            raise ShapeMismatch(f"binary entry needs 0 <= i < j < d, got ({i}, {j})")
        b[i, j] = qvec(v)
        b[j, i] = tuple(-x for x in b[i, j])
    for (i, j, k), v in (ternary_entries or {}).items():
        if not (0 <= i < j < d and 0 <= k < d):
            raise ShapeMismatch(f"ternary entry needs 0 <= i < j < d, got ({i}, {j}, {k})")
        t[i, j, k] = qvec(v)
        t[j, i, k] = tuple(-x for x in t[i, j, k])
    return _from_entries(d, b, t, name)


def from_lie(binary, name: str = "") -> LYAlgebra:
    """Lie algebra -> LY algebra with {a, b, c} = [[a, b], c].

    The input binary tensor must be antisymmetric and satisfy Jacobi.  The
    built algebra's first-violation scan decides (see the module docstring):
    NotALieAlgebra carries the 0-based pair where LY1 fails or the triple
    where LY3 fails.
    """
    d = len(binary)
    b = _exact_slots(binary, 2)
    lie = _from_entries(d, b, {}, name)
    t = {
        (i, j, k): qvec(lie.bracket(b[i, j], lie.basis_vector(k)))
        for i, j, k in itertools.product(range(d), repeat=3)
    }
    a = _from_entries(d, b, t, name)
    report = a._first_violation
    if not report.ok:
        axiom = report.violated_axioms()[0]
        message = "binary tensor is not antisymmetric" if axiom == "LY1" else "Jacobi identity fails"
        raise NotALieAlgebra(message, triple=report.violations[axiom][0][0])
    return a


def from_leibniz(product, name: str = "") -> LYAlgebra:
    """Leibniz algebra -> LY algebra: [a,b] = a.b - b.a, {a,b,c} = -(a.b).c."""
    d = len(product)
    prod = _exact_slots(product, 2)
    p = _from_entries(d, prod, {}, name)  # reuse bracket() for x.y
    for i, j, k in itertools.product(range(d), repeat=3):
        lhs = p.bracket(p.basis_vector(i), prod[j, k])
        rhs = vec_add(
            p.bracket(prod[i, j], p.basis_vector(k)),
            p.bracket(p.basis_vector(j), prod[i, k]),
        )
        if not vec_is_zero(vec_sub(lhs, rhs)):
            raise NotALeibnizAlgebra("Leibniz identity fails", triple=(i, j, k))
    pairs = list(itertools.product(range(d), repeat=2))
    b = {(i, j): vec_sub(prod[i, j], prod[j, i]) for i, j in pairs}
    t = {
        (i, j, k): vec_scale(Fraction(-1), p.bracket(prod[i, j], p.basis_vector(k)))
        for (i, j), k in itertools.product(pairs, range(d))
    }
    return _from_entries(d, b, t, name)


def from_lie_triple(ternary, name: str = "") -> LYAlgebra:
    """Ternary tensor with zero binary part; validity left to check_axioms."""
    return _from_entries(len(ternary), {}, _exact_slots(ternary, 3), name)


def meson(n: int, name: str = "") -> LYAlgebra:
    """Lie triple system with {G_i, G_j, G_k} = delta_ki G_j - delta_kj G_i."""
    if n < 1:
        raise ShapeMismatch("meson(n) needs n >= 1")
    basis = [qvec(int(m == i) for m in range(n)) for i in range(n)]
    t = {}
    for i, j in itertools.permutations(range(n), 2):
        t[i, j, i] = basis[j]
        t[i, j, j] = tuple(-x for x in basis[i])
    return _from_entries(n, {}, t, name or f"meson{n}")


def example_3dim(name: str = "3dim") -> LYAlgebra:
    """Three-dimensional algebra with [e1,e2] = e3 and {e1,e2,e1} = e3."""
    e3 = (0, 0, 1)
    return from_sparse(3, {(0, 1): e3}, {(0, 1, 0): e3}, name)


def from_reductive_pair(lie: LYAlgebra, h_idx: Sequence[int], m_idx: Sequence[int], name: str = "") -> LYAlgebra:
    """LY algebra on the m-part of a reductive decomposition of a Lie algebra.

    ``lie`` supplies the ambient binary bracket <.,.> (its ternary part is
    ignored).  Requires h_idx and m_idx to partition the basis with
    <h,h> in h and <h,m> in m.
    """
    d = lie.dim
    h_set, m_set = set(h_idx), set(m_idx)
    if h_set & m_set or h_set | m_set != set(range(d)):
        raise NotReductive("h and m index sets must partition the basis")

    def component_outside(vec: Vector, allowed: set[int]) -> bool:
        return any(vec[k] != 0 for k in range(d) if k not in allowed)

    for i in h_idx:
        for j in h_idx:
            if component_outside(lie.binary[i][j], h_set):
                raise NotReductive(f"<h,h> leaves h on basis pair ({i + 1}, {j + 1})")
    for i in h_idx:
        for j in m_idx:
            if component_outside(lie.binary[i][j], m_set):
                raise NotReductive(f"<h,m> leaves m on basis pair ({i + 1}, {j + 1})")

    m_list = list(m_idx)
    dm = len(m_list)

    def proj_m(vec: Vector) -> Vector:
        return tuple(vec[g] for g in m_list)

    def proj_h(vec: Vector) -> Vector:
        return tuple(vec[k] if k in h_set else Fraction(0) for k in range(d))

    b, t = {}, {}
    for ai, gi in enumerate(m_list):
        for aj, gj in enumerate(m_list):
            full = lie.binary[gi][gj]
            b[ai, aj] = proj_m(full)
            hpart = proj_h(full)
            for ak, gk in enumerate(m_list):
                t[ai, aj, ak] = qvec(proj_m(lie.bracket(hpart, lie.basis_vector(gk))))
    return _from_entries(dm, b, t, name or (lie.name + "/m" if lie.name else "reductive-m"))


# ---------------------------------------------------------------------------
# maps


def _defect_plan(a: LYAlgebra, b: LYAlgebra, nonzero: tuple) -> tuple:
    """``_map_defect`` compiled for the maps a -> b whose nonzero entries sit at ``nonzero``.

    A map s is read flat, s[p][i] at p * d + i.  The plan is ``(pairs,
    triples, binary, ternary)``: ``pairs`` lists each distinct product x y
    of two entries of s as their positions, and ``triples`` each distinct
    (x y) z as (its pair's index, z's position), so each is computed once
    however many coordinates, of either bracket, use it.  ``binary`` and
    ``ternary`` are the two parts of the defect (``_part``).
    """
    d, n = a.dim, b.dim
    rows = [[] for _ in range(n)]
    for f in nonzero:
        rows[f // d].append((f, f % d))
    pairs, triples, binary, ternary = {}, {}, [], []
    for (p, q), entries in b._slots[0]:
        for f, i in rows[p]:
            for g, j in rows[q]:
                t, base = pairs.setdefault((f, g), len(pairs)), (i * d + j) * n
                binary += [(base + m, t, c) for m, c in entries]
    for (p, q, r), entries in b._slots[1]:
        for f, i in rows[p]:
            for g, j in rows[q]:
                u = pairs.setdefault((f, g), len(pairs))
                for h, l in rows[r]:
                    t, base = triples.setdefault((u, h), len(triples)), ((i * d + j) * d + l) * n
                    ternary += [(base + m, t, c) for m, c in entries]
    live = set(nonzero)
    binary = _part(a._slots[0], binary, live, d, n, len(pairs))
    ternary = _part(a._slots[1], ternary, live, d, n, len(triples))
    return tuple(pairs), tuple(triples), binary, ternary


def _part(a_group: tuple, rhs: list, live: set, d: int, n: int, none: int) -> tuple:
    """One part of a defect plan: the coordinates (x, y[, z], m) that have a term, in dense scan order.

    The lhs terms are the (position in s, c) of a's slot (x, y[, z]) at row
    m whose entry of s is nonzero (``live``); ``rhs`` lists the rhs terms as
    (dense coordinate, product index, c), in b's slot order.  The part is
    ``(leads, lhs, firsts, rest, several)``: per coordinate, its lhs term
    and its first rhs term, each with the trailing 0 of s or of the
    products, times 0, where there is none; then every later rhs term as
    (coordinate, product, c) and every several-term lhs as (coordinate,
    terms).  ``leads`` is whether the first coordinate of the dense scan is
    listed.  A term on a zero of s adds a zero, so it is dropped, except at
    that first coordinate, whose type (0 or 0.0) a dense scan can return.
    """
    lhs, firsts, rest = {}, {}, []
    for idx, entries in a_group:
        base = functools.reduce(lambda p, i: p * d + i, idx) * n
        for r in range(n):
            terms = tuple((r * d + m, c) for m, c in entries)
            kept = tuple(t for t in terms if t[0] in live)
            if kept or base + r == 0:
                lhs[base + r] = kept or terms
    for key, t, c in rhs:
        if key in firsts:
            rest.append((key, t, c))
        else:
            firsts[key] = t, c
    coords = sorted(lhs.keys() | firsts.keys())
    at = {key: j for j, key in enumerate(coords)}
    terms = [lhs.get(key, ()) for key in coords]
    return (
        coords[:1] == [0],
        tuple(x[0] if len(x) == 1 else (d * n, 0) for x in terms),
        tuple(firsts.get(key, (none, 0)) for key in coords),
        tuple((at[key], t, c) for key, t, c in rest),
        tuple((j, x) for j, x in enumerate(terms) if len(x) > 1),
    )


def _fold(part: tuple, ks: list, products: list):
    """The largest |lhs - rhs| over a plan part's coordinates, as ``max`` over every dense coordinate.

    ``ks`` is s times k (k**2 for the ternary part) and ``products`` the
    plan's products, each with a trailing 0.  An lhs adds its terms (k x) c
    with ``sum`` (0 + term for one), an rhs its terms (x y) c or ((x y) z) c
    with ``+=`` from 0, as ``bracket``/``triple`` and a row-by-column
    product add them.  A coordinate that is not listed is the int 0 of a
    dense scan, which only the first one can return.
    """
    leads, lhs, firsts, rest, several = part
    lv = [0 + ks[f] * c for f, c in lhs]
    rv = [0 + products[p] * c for p, c in firsts]
    for j, p, c in rest:
        rv[j] += products[p] * c
    for j, terms in several:
        lv[j] = sum([ks[f] * c for f, c in terms])
    values = map(abs, map(operator.sub, lv, rv))
    return _largest(values if leads else itertools.chain((0,), values))


def _map_defect(k, s: list, a: LYAlgebra, b: LYAlgebra, plans: dict | None = None) -> tuple:
    """Largest entries of k s[x, y]_a - [sx, sy]_b and k**2 s{x, y, z}_a - {sx, sy, sz}_b.

    ``s`` is the rows of a map a -> b over any scalar type, and x, y, z run
    over the basis of a; (0, 0) means s carries both brackets of a to those
    of b, times k**-1 and k**-2.  A NaN anywhere is the result.

    Both sides are expanded from the nonzero slots of a and b (``_slots``)
    and the nonzero entries of s only, by the plan ``_defect_plan`` compiles
    for s's nonzero pattern.  ``plans`` holds the plans of earlier calls for
    the same a and b, keyed by pattern; the caller owns it.  Each entry adds
    its terms in the order that ``bracket``/``triple`` and a row-by-column
    product would, with one ``sum`` for the lhs, so a float defect is
    exactly the one those compute on every Python version (``sum`` of floats
    is compensated from 3.12 on).
    """
    flat = list(itertools.chain.from_iterable(s))
    nonzero = tuple(itertools.compress(range(len(flat)), flat))
    flat.append(0)
    plans = {} if plans is None else plans
    plan = plans.get(nonzero)
    if plan is None:
        plan = plans[nonzero] = _defect_plan(a, b, nonzero)
    pairs, triples, binary, ternary = plan
    xy = [flat[f] * flat[g] for f, g in pairs]
    xyz = [xy[p] * flat[g] for p, g in triples]
    xy.append(0)
    xyz.append(0)
    kk = k * k
    return (
        _fold(binary, flat if k == 1 else [k * x for x in flat], xy),
        _fold(ternary, flat if kk == 1 else [kk * x for x in flat], xyz),
    )


def is_homomorphism(phi: Matrix, a: LYAlgebra, b: LYAlgebra) -> bool:
    """True iff phi carries both brackets of a to those of b on all basis tuples."""
    if phi.cols != a.dim or phi.rows != b.dim:
        raise ShapeMismatch(f"expected a {b.dim}x{a.dim} matrix, got {phi.rows}x{phi.cols}")
    return _map_defect(1, phi.row_list(), a, b) == (0, 0)


def is_automorphism(phi: Matrix, a: LYAlgebra) -> bool:
    if phi.rows != phi.cols:
        raise ShapeMismatch("automorphism candidate must be square")
    return phi.is_invertible() and is_homomorphism(phi, a, a)


def is_derivation(m: Matrix, a: LYAlgebra) -> bool:
    """True iff delta_zero with adjoint coefficients kills m, the derivation identities on a valid algebra."""
    from .cohomology import delta_zero
    from .representation import adjoint

    if m.rows != a.dim or m.cols != a.dim:
        raise ShapeMismatch("derivation candidate has wrong shape")
    return delta_zero(a, adjoint(a), m).is_zero()


def derivations(a: LYAlgebra) -> SubspaceBasis:
    """Basis of the derivation algebra, as flattened d x d matrices.

    The derivations are the cocycles of delta_zero with adjoint coefficients,
    so the basis is the kernel of that one operator.  Unknown x[r*d + s] is
    the (r, s) entry, which is the C^1 coordinate f(e_s)_r at s*d + r.
    """
    from .cohomology import _delta_op
    from .representation import adjoint

    _require_valid(a)
    d = a.dim

    def entry(col: int) -> int:
        s, r = divmod(col, d)
        return r * d + s

    lines = _delta_op(a, adjoint(a), 0).lines
    return sparse_kernel(d * d, ([(entry(col), x) for col, x in line] for line in lines))


def inner_derivation(a: LYAlgebra, x: Sequence, y: Sequence) -> Matrix:
    """The map z -> {x, y, z} as a d x d matrix."""
    _require_valid(a)
    x, y = qvec(x), qvec(y)
    cols = [a.triple(x, y, a.basis_vector(k)) for k in range(a.dim)]
    return Matrix(a.dim, a.dim, [cols[k][r] for r in range(a.dim) for k in range(a.dim)])
