"""Finite-dimensional Lie-Yamaguti algebras given by structure constants.

An algebra of dimension d stores its nonzero structure constants only
(``_slots``): per slot (i, j) of the binary bracket and (i, j, k) of the
ternary one, the nonzero coordinates of [e_i, e_j] and {e_i, e_j, e_k}.
``bracket``, ``triple``, ``structure_lcm``, ``integer_tables``,
``_map_defect`` and the bundle gate read them and never visit a zero slot.
The dense tensors ``binary`` and ``ternary`` are read-only views, built on
first read, for JSON, the adjoint module, products and constructors.
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
times the exact one.  Only a violated tuple's defect is converted back, to
exact Fractions, for the report.

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
from dataclasses import dataclass, field, fields
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
        """The adjoint module, built at most once per instance; ``representation.adjoint`` guards it."""
        from .representation import Representation

        d = self.dim

        def columns(vectors) -> Matrix:
            return Matrix(d, d, [v[i] for i in range(d) for v in vectors])

        rng = range(d)
        rho = tuple(columns([self.binary[i][j] for j in rng]) for i in rng)
        dmap = tuple(tuple(columns([self.ternary[i][j][k] for k in rng]) for j in rng) for i in rng)
        theta = tuple(tuple(columns([self.ternary[k][i][j] for k in rng]) for j in rng) for i in rng)
        return Representation(d, rho, dmap, theta)

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


@dataclass
class AxiomReport:
    """Violations of LY1..LY6, keyed by axiom name.

    Each violation is a pair (basis index tuple, defect vector).  The report
    is empty exactly when all six identities hold on every basis tuple, which
    by multilinearity means they hold identically.
    """

    violations: dict = field(default_factory=lambda: {ax: [] for ax in AXIOMS})

    @property
    def ok(self) -> bool:
        return all(not v for v in self.violations.values())

    def violated_axioms(self) -> list[str]:
        return [ax for ax in AXIOMS if self.violations[ax]]

    def add(self, axiom: str, tup: tuple, defect: Vector) -> None:
        self.violations[axiom].append((tup, defect))

    def summary(self) -> str:
        if self.ok:
            return "all axioms hold"
        parts = []
        for ax in self.violated_axioms():
            tup, _ = self.violations[ax][0]
            parts.append(f"{ax} fails on {tuple(i + 1 for i in tup)} ({len(self.violations[ax])} tuples)")
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
    den = structure_lcm(a, extra)
    rng, den2 = range(a.dim), den * den
    b = [[[] for _ in rng] for _ in rng]
    t = [[[[] for _ in rng] for _ in rng] for _ in rng]
    for (i, j), entries in a._slots[0]:
        b[i][j] = [(m, c.numerator * (den // c.denominator)) for m, c in entries]
    for (i, j, k), entries in a._slots[1]:
        t[i][j][k] = [(m, c.numerator * (den2 // c.denominator)) for m, c in entries]
    return den, b, t


def _ly_defects(d: int, B: list, T: list):
    """Yield (axiom, basis tuple, integer defect) for each violated identity.

    Works on the tables of ``integer_tables``, in the scan order documented
    on ``check_axioms``; each defect is a dense list of d ints.
    """
    rng = range(d)
    reduced = True
    for i, j in itertools.product(rng, rng):
        acc = [0] * d
        for n, x in B[i][j] + B[j][i]:
            acc[n] += x
        if any(acc):
            reduced = False
            yield "LY1", (i, j), acc
    for i, j, k in itertools.product(rng, rng, rng):
        acc = [0] * d
        for n, x in T[i][j][k] + T[j][i][k]:
            acc[n] += x
        if any(acc):
            reduced = False
            yield "LY2", (i, j, k), acc

    triples = list(itertools.combinations(rng, 3) if reduced else itertools.product(rng, rng, rng))
    for i, j, k in triples:
        # [[x, y], z] + {x, y, z}, cyclically
        acc = [0] * d
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in B[x][y]:
                for n, v in B[m][z]:
                    acc[n] += c * v
            for n, v in T[x][y][z]:
                acc[n] += v
        if any(acc):
            yield "LY3", (i, j, k), acc
    for (i, j, k), u in itertools.product(triples, rng):
        # {[x, y], z, u}, cyclically in (x, y, z)
        acc = [0] * d
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in B[x][y]:
                for n, v in T[m][z][u]:
                    acc[n] += c * v
        if any(acc):
            yield "LY4", (i, j, k, u), acc
    pairs = list(itertools.combinations(rng, 2) if reduced else itertools.product(rng, rng))
    for (i, j), (u, v) in itertools.product(pairs, pairs):
        # {i, j, [u, v]} - [{i, j, u}, v] - [u, {i, j, v}]
        tij = T[i][j]
        acc = [0] * d
        for m, c in B[u][v]:
            for n, x in tij[m]:
                acc[n] += c * x
        for m, c in tij[u]:
            for n, x in B[m][v]:
                acc[n] -= c * x
        for m, c in tij[v]:
            for n, x in B[u][m]:
                acc[n] -= c * x
        if any(acc):
            yield "LY5", (i, j, u, v), acc
    for (i, j), (u, v), w in itertools.product(pairs, pairs, rng):
        # {i, j, {u, v, w}} - {{i, j, u}, v, w} - {u, {i, j, v}, w} - {u, v, {i, j, w}}
        tij = T[i][j]
        acc = [0] * d
        for m, c in T[u][v][w]:
            for n, x in tij[m]:
                acc[n] += c * x
        for m, c in tij[u]:
            for n, x in T[m][v][w]:
                acc[n] -= c * x
        for m, c in tij[v]:
            for n, x in T[u][m][w]:
                acc[n] -= c * x
        for m, c in tij[w]:
            for n, x in T[u][v][m]:
                acc[n] -= c * x
        if any(acc):
            yield "LY6", (i, j, u, v, w), acc


def check_axioms(a: LYAlgebra, first_only: bool = False) -> AxiomReport:
    """Evaluate LY1..LY6 on all basis tuples.

    With ``first_only`` the scan stops at the first violation found; the
    report then carries exactly one entry.

    LY1 and LY2 are always scanned in full.  When both hold, the defects of
    LY3..LY6 are alternating in their antisymmetric argument groups, so those
    identities are scanned on representative tuples only (strictly increasing
    where the defect alternates); the remaining tuples vanish identically.
    When LY1 or LY2 fails, everything is scanned in full.

    The identities are evaluated in integers on ``integer_tables(a)``; a
    violated tuple's defect is reported as exact Fractions.
    """
    den, B, T = integer_tables(a)
    report = AxiomReport()
    for axiom, tup, acc in _ly_defects(a.dim, B, T):
        scale = den ** LY_WEIGHTS[axiom]
        report.add(axiom, tup, tuple(Fraction(x, scale) for x in acc))
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
