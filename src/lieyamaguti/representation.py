"""Representations (rho, D, theta) of Lie-Yamaguti algebras.

A representation on a module of dimension e over an algebra with d basis
elements has rho(e_i), D(e_i, e_j) and theta(e_i, e_j), each an e x e map;
bilinearity extends them to arbitrary arguments.

A module stores its nonzero maps only, cleared to integers (``_maps``): with
den (``_den``) the LCM of every denominator of its entries, rho is scaled by
den and D, theta by den**2, and each nonzero map is held as its e rows, each
a tuple of nonzero (column, int) entries, keyed by i for rho and (i, j) for
D and theta, in index order.  That form is canonical, so equality, hashing
and pickling compare and keep it.  Every reader takes it as it is: the
integer checks, the coboundary assembly (both through ``_integer_data``,
which rescales only when the algebra's denominators raise den), the products
and JSON.  The adjoint module is read straight off the algebra's nonzero
structure constants, and a trivial module holds no map.  ``rho``, ``dmap``
and ``theta`` are read-only dense views of e x e Matrices, built on first
read; the public constructor takes such matrices and clears them once.

The semi-direct product carries the brackets

    [x+u, y+v]      = [x,y] + rho(x)v - rho(y)u
    {x+u, y+v, z+w} = {x,y,z} + D(x,y)w + theta(y,z)u - theta(x,z)v

on g (+) V.  The two theta terms are pinned jointly by LY2 (they must be
antisymmetric partners) and by mixed LY3, which reduces them to RLYB1; among
the completions compatible with RLYB1 this is the one whose twisted version
matches the cohomology operators: a (2,3)-pair twists it into a Lie-Yamaguti
algebra exactly when delta and delta_star both kill the pair, and shifting a
twist by a coboundary is a shear isomorphism: for h in C^1, the map
(x, u) -> (x, u - h(x)) carries the twist by tau onto the twist by
tau + delta_zero h.

RLYB1..RLYB7 are evaluated on sparse integer data: with den the LCM of every
denominator of the algebra and the representation, rho and the binary
bracket are scaled by den, and D, theta and the ternary bracket by den**2.
Each condition is homogeneous of weight w (``RLYB_WEIGHTS``), so its integer
defect is den**w times the exact one; the report keeps a violated tuple's
integer defect and turns it into a Matrix of exact Fractions when its
violations are first read.

Every entry point that needs a valid algebra and a module shaped for it,
here and in ``cohomology``, calls one guard, ``_require_rep``: the algebra's
validity guard, then the shape check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

from .algebra import LYAlgebra, _from_entries, _require_valid, _tables_at, structure_lcm
from .errors import ShapeMismatch
from .linalg import Matrix, denominator_lcm, scaled_sparse, zero_vector

RLYB_CONDITIONS = ("RLYB1", "RLYB2", "RLYB3", "RLYB4", "RLYB5", "RLYB6")

# The power of den that clears each group of maps: rho, then D and theta.
_MAP_WEIGHTS = (1, 2, 2)


@dataclass(frozen=True, init=False)
class Representation:
    """The nonzero maps of a representation on an e-dimensional module, cleared to integers.

    ``d`` is the number of basis elements the maps are indexed by, and
    ``_maps`` is (rho, D, theta), each a tuple of (index, rows) over the
    nonzero maps in index order, scaled by ``_den`` (rho) or ``_den**2``.
    """

    e: int
    d: int
    _den: int
    _maps: tuple

    def __init__(self, e: int, rho: Sequence[Matrix], dmap: Sequence, theta: Sequence):
        """The module with these e x e maps: rho has d of them, D and theta are d x d families."""
        if any(m.rows != e or m.cols != e for m in rho):
            raise ShapeMismatch("rho matrices must be e x e")
        _check_families(len(rho), dmap, theta)
        if any(m.rows != e or m.cols != e for fam in (dmap, theta) for row in fam for m in row):
            raise ShapeMismatch("D/theta matrices must be e x e")
        dmap, theta = ([[m.entries for m in row] for row in fam] for fam in (dmap, theta))
        self._fill(e, len(rho), *_cleared(e, [m.entries for m in rho], dmap, theta))

    def _fill(self, e: int, d: int, den: int, maps: tuple) -> None:
        for name, value in zip(("e", "d", "_den", "_maps"), (e, d, den, maps)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_flat(cls, e: int, rho: Sequence, dmap: Sequence, theta: Sequence) -> "Representation":
        """The module whose maps have these e*e exact entries row by row: d maps in rho, d x d families D and theta."""
        _check_families(len(rho), dmap, theta)
        return cls._stored(e, len(rho), *_cleared(e, rho, dmap, theta))

    @classmethod
    def _stored(cls, e: int, d: int, den: int, maps: tuple) -> "Representation":
        """The module of a canonical stored form: den the LCM of its entries' denominators, no zero map."""
        r = object.__new__(cls)
        r._fill(e, d, den, maps)
        return r

    @functools.cached_property
    def rho(self) -> tuple:
        """rho[i] is the e x e Matrix of rho(e_i): a read-only dense view, built on first read."""
        return self._view(0)

    @functools.cached_property
    def dmap(self) -> tuple:
        """dmap[i][j] is the Matrix of D(e_i, e_j), likewise."""
        return self._view(1)

    @functools.cached_property
    def theta(self) -> tuple:
        """theta[i][j] is the Matrix of theta(e_i, e_j), likewise."""
        return self._view(2)

    def _view(self, group: int) -> tuple:
        """``_maps[group]`` as exact Matrices indexed by basis element; a zero map is one shared zero Matrix."""
        e, scale, zero = self.e, self._den ** _MAP_WEIGHTS[group], Matrix.zero(self.e, self.e)

        def dense(rows: tuple) -> Matrix:
            return _dense(rows, e, scale) if any(rows) else zero

        table = self._indexed()[group]
        return tuple(map(dense, table)) if group == 0 else tuple(tuple(map(dense, row)) for row in table)

    def _indexed(self, k: int = 1) -> tuple:
        """(rho, D, theta) as lists indexed by basis element, every map's rows times k**weight.

        A zero map is e empty rows, one shared tuple; with k = 1 every
        other map is its stored rows.
        """
        d, zero = self.d, ((),) * self.e
        rho = [zero] * d
        dmap, theta = ([[zero] * d for _ in range(d)] for _ in range(2))
        groups = [_rescaled(group, k**w) for group, w in zip(self._maps, _MAP_WEIGHTS)]
        for i, rows in groups[0]:
            rho[i] = rows
        for table, group in ((dmap, groups[1]), (theta, groups[2])):
            for (i, j), rows in group:
                table[i][j] = rows
        return rho, dmap, theta

    def replace_theta(self, i: int, j: int, m: Matrix) -> "Representation":
        """The module with theta(e_i, e_j) = m and every other map kept, on the stored form.

        den becomes the LCM of the module's den and m's own.  When the
        module's den divides m's own, that is the new module's LCM whatever
        the replaced map held; otherwise the replaced map may have held the
        only entry over some factor of den, so den is computed again from
        the entries.
        """
        e, d = self.e, self.d
        if m.rows != e or m.cols != e:
            raise ShapeMismatch("D/theta matrices must be e x e")
        i, j = range(d)[i], range(d)[j]
        own = denominator_lcm(m.entries)
        den = math.lcm(self._den, own)
        rho, dmap, theta = (_rescaled(group, (den // self._den) ** w) for group, w in zip(self._maps, _MAP_WEIGHTS))
        theta = [slot for slot in theta if slot[0] != (i, j)]
        if any(rows := _rows(m.entries, e, den * den)):
            theta = sorted([*theta, ((i, j), rows)])
        maps = (rho, dmap, tuple(theta))
        return Representation._stored(e, d, *(_lowest(den, maps) if den != own else (den, maps)))

    def __getstate__(self) -> dict:
        """The fields only: a copied or unpickled module builds its views again."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _check_families(d: int, dmap: Sequence, theta: Sequence) -> None:
    if any(len(fam) != d or any(len(row) != d for row in fam) for fam in (dmap, theta)):
        raise ShapeMismatch("D/theta must be d x d families")


def _rows(entries: Sequence, e: int, scale: int) -> tuple:
    """The e rows of a map given by its e*e exact entries row by row: nonzero (column, int) entries times scale."""
    return tuple(tuple(scaled_sparse(entries[m * e : (m + 1) * e], scale)) for m in range(e))


def _dense(rows: tuple, e: int, scale: int) -> Matrix:
    """The e x e Matrix of a map in row form, its ints divided by scale."""
    entries = [0] * (e * e)
    for m, row in enumerate(rows):
        for c, x in row:
            entries[m * e + c] = Fraction(x, scale)
    return Matrix(e, e, entries)


def _rescaled(group: tuple, num: int, den: int = 1) -> tuple:
    """Every map of a group with its ints times num / den, which must keep them integers."""
    if num == den:
        return group
    return tuple((key, tuple(tuple((c, x * num // den) for c, x in row) for row in rows)) for key, rows in group)


def _lowest(den: int, maps: tuple) -> tuple:
    """(den, maps) with den lowered to the LCM of the entries' own denominators, the maps rescaled to it."""
    scales = [den**w for w in _MAP_WEIGHTS]
    entries = ((x, scale) for group, scale in zip(maps, scales) for _, rows in group for row in rows for _, x in row)
    low = math.lcm(*{scale // math.gcd(x, scale) for x, scale in entries})
    return low, tuple(_rescaled(group, low**w, den**w) for group, w in zip(maps, _MAP_WEIGHTS))


def _cleared(e: int, rho: Sequence, dmap: Sequence, theta: Sequence) -> tuple:
    """(den, maps) of the stored form, from each map's e*e exact entries row by row.

    ``rho`` lists d maps, ``dmap`` and ``theta`` are d x d families; den is
    the LCM of every denominator, and a map with no nonzero entry is left out.
    """
    d = len(rho)
    den = denominator_lcm(x for entries in itertools.chain(rho, *dmap, *theta) for x in entries)
    pairs = list(itertools.product(range(d), repeat=2))

    def group(items, scale: int) -> tuple:
        return tuple((key, _rows(entries, e, scale)) for key, entries in items if any(entries))

    return den, (
        group(enumerate(rho), den),
        group((((i, j), dmap[i][j]) for i, j in pairs), den * den),
        group((((i, j), theta[i][j]) for i, j in pairs), den * den),
    )


def _adjoint_module(a: LYAlgebra) -> Representation:
    """rho(e_i) = [e_i, .], D(e_i, e_j) = {e_i, e_j, .} and theta(e_i, e_j) = {., e_i, e_j}, read off a's slots.

    Row m of a map holds the m-th coordinates: the entry (m, c) of the
    binary slot (i, j) goes to column j of rho(e_i), that of the ternary
    slot (i, j, k) to column k of D(e_i, e_j) and column i of
    theta(e_j, e_k), cleared as ``integer_tables`` clears it.  The slots come
    in index order, so each row lists its columns in increasing order, and
    every constant of a is an entry, so den is the algebra's.  No Matrix is
    built.
    """
    d, den = a.dim, structure_lcm(a)
    maps = ({}, {}, {})

    def put(group: int, key, m: int, col: int, x: int) -> None:
        rows = maps[group].get(key)
        if rows is None:
            rows = maps[group][key] = [[] for _ in range(d)]
        rows[m].append((col, x))

    for (i, j), entries in a._slots[0]:
        for m, c in entries:
            put(0, i, m, j, c.numerator * (den // c.denominator))
    den2 = den * den
    for (i, j, k), entries in a._slots[1]:
        for m, c in entries:
            x = c.numerator * (den2 // c.denominator)
            put(1, (i, j), m, k, x)
            put(2, (j, k), m, i, x)
    stored = tuple(tuple((key, tuple(map(tuple, rows))) for key, rows in sorted(group.items())) for group in maps)
    return Representation._stored(d, d, den, stored)


class RepReport:
    """Defects of RLYB1..RLYB6 plus the derived RLYB7 (informational).

    ``check_representation`` adds each violated tuple's integer defect, a
    flat e*e list that is den**w times the exact one (``RLYB_WEIGHTS``);
    ``violations`` and ``rlyb7_violations`` turn them into Matrices of exact
    Fractions on first read, so a caller that reads only ``ok`` or
    ``violated`` builds none.
    """

    def __init__(self, e: int = 0, den: int = 1):
        self._e, self._den = e, den
        self._found = {c: [] for c in RLYB_CONDITIONS}
        self._rlyb7 = []

    @property
    def ok(self) -> bool:
        return not any(self._found.values())

    def violated(self) -> list[str]:
        return [c for c in RLYB_CONDITIONS if self._found[c]]

    def add(self, cond: str, tup: tuple, defect: list) -> None:
        """Add an integer defect, before ``violations`` is first read."""
        self._found[cond].append((tup, defect))

    def _exact(self, cond: str, found: list) -> list:
        scale = self._den ** RLYB_WEIGHTS[cond]
        return [(tup, Matrix(self._e, self._e, [Fraction(x, scale) for x in acc])) for tup, acc in found]

    @functools.cached_property
    def violations(self) -> dict:
        """condition -> [(basis tuple, defect Matrix)], in scan order; built on first read."""
        return {c: self._exact(c, found) for c, found in self._found.items()}

    @functools.cached_property
    def rlyb7_violations(self) -> list:
        """[(basis triple, defect Matrix)] of RLYB7, in scan order; built on first read."""
        return self._exact("RLYB7", self._rlyb7)

    def __eq__(self, other) -> bool:
        return type(other) is RepReport and (self.violations, self.rlyb7_violations) == (
            other.violations,
            other.rlyb7_violations,
        )

    def __repr__(self) -> str:
        return f"RepReport(violations={self.violations!r}, rlyb7_violations={self.rlyb7_violations!r})"


def _check_shapes(a: LYAlgebra, r: Representation) -> None:
    """The module's basis is the algebra's; the rest of its shape was checked when it was built."""
    if r.d != a.dim:
        raise ShapeMismatch("representation is indexed by a different basis size")


def _require_rep(a: LYAlgebra, r: Representation) -> None:
    """The guard for an (algebra, module) pair: a valid algebra and a module shaped for its basis."""
    _require_valid(a)
    _check_shapes(a, r)


# Weight of each condition in the cleared data (rho and the binary tensor
# scaled by den, D, theta and the ternary tensor by den**2).
RLYB_WEIGHTS = {"RLYB1": 2, "RLYB2": 3, "RLYB3": 3, "RLYB4": 4, "RLYB5": 3, "RLYB6": 4, "RLYB7": 3}


def _integer_data(a: LYAlgebra, r: Representation):
    """``integer_tables`` of a with den also clearing r, plus r's maps at that den, indexed by basis element.

    Returns ``(den, B, T, rho, dmap, theta)``; every map is its e rows, each
    a tuple of nonzero (column, int) pairs, and a zero map is e empty rows.
    The maps are the module's stored rows unless the algebra's denominators
    raise den past the module's, and then they are rescaled; nothing is
    cleared again.
    """
    den, B, T = _tables_at(a, math.lcm(structure_lcm(a), r._den))
    return (den, B, T, *r._indexed(den // r._den))


def _add_matrix(acc: list, e: int, c: int, m: list) -> None:
    """acc += c * m, with acc a flat e*e list and m in row form."""
    for i, row in enumerate(m):
        base = i * e
        for j, x in row:
            acc[base + j] += c * x


def _add_product(acc: list, e: int, c: int, m1: list, m2: list) -> None:
    """acc += c * (m1 @ m2)."""
    for i, row in enumerate(m1):
        base = i * e
        for k, x in row:
            cx = c * x
            for j, y in m2[k]:
                acc[base + j] += cx * y


def _add_combination(acc: list, e: int, c: int, coeffs: list, mats) -> None:
    """acc += c * sum of coeff * mats[m] over the (m, coeff) pairs."""
    for m, x in coeffs:
        _add_matrix(acc, e, c * x, mats[m])


def _rlyb_defects(d: int, e: int, B, T, rho, dmap, theta):
    """Yield (condition, basis tuple, integer defect) for each violated RLYB1-6.

    Works on the data of ``_integer_data``; each defect is a flat e*e list
    of ints, scanned in the order documented on ``check_representation``.
    """
    rng = range(d)
    theta_t = [[theta[m][k] for m in rng] for k in rng]  # theta_t[k][m] = theta[m][k]
    for i, j in itertools.product(rng, rng):
        # D(i,j) + theta(i,j) - theta(j,i) - [rho_i, rho_j] + rho([i,j])
        acc = [0] * (e * e)
        _add_matrix(acc, e, 1, dmap[i][j])
        _add_matrix(acc, e, 1, theta[i][j])
        _add_matrix(acc, e, -1, theta[j][i])
        _add_product(acc, e, -1, rho[i], rho[j])
        _add_product(acc, e, 1, rho[j], rho[i])
        _add_combination(acc, e, 1, B[i][j], rho)
        if any(acc):
            yield "RLYB1", (i, j), acc
    for i, j, k in itertools.product(rng, rng, rng):
        # theta(i, [j,k]) - rho_j theta(i,k) + rho_k theta(i,j)
        acc = [0] * (e * e)
        _add_combination(acc, e, 1, B[j][k], theta[i])
        _add_product(acc, e, -1, rho[j], theta[i][k])
        _add_product(acc, e, 1, rho[k], theta[i][j])
        if any(acc):
            yield "RLYB2", (i, j, k), acc
    for i, j, k in itertools.product(rng, rng, rng):
        # theta([i,j], k) - theta(i,k) rho_j + theta(j,k) rho_i
        acc = [0] * (e * e)
        _add_combination(acc, e, 1, B[i][j], theta_t[k])
        _add_product(acc, e, -1, theta[i][k], rho[j])
        _add_product(acc, e, 1, theta[j][k], rho[i])
        if any(acc):
            yield "RLYB3", (i, j, k), acc
    for i, j, k, l in itertools.product(rng, rng, rng, rng):
        # theta(k,l) theta(i,j) - theta(j,l) theta(i,k) - theta(i, {j,k,l}) + D(j,k) theta(i,l)
        acc = [0] * (e * e)
        _add_product(acc, e, 1, theta[k][l], theta[i][j])
        _add_product(acc, e, -1, theta[j][l], theta[i][k])
        _add_combination(acc, e, -1, T[j][k][l], theta[i])
        _add_product(acc, e, 1, dmap[j][k], theta[i][l])
        if any(acc):
            yield "RLYB4", (i, j, k, l), acc
    for i, j, k in itertools.product(rng, rng, rng):
        # D(i,j) rho_k - rho_k D(i,j) - rho({i,j,k})
        acc = [0] * (e * e)
        _add_product(acc, e, 1, dmap[i][j], rho[k])
        _add_product(acc, e, -1, rho[k], dmap[i][j])
        _add_combination(acc, e, -1, T[i][j][k], rho)
        if any(acc):
            yield "RLYB5", (i, j, k), acc
    for i, j, k, l in itertools.product(rng, rng, rng, rng):
        # D(i,j) theta(k,l) - theta(k,l) D(i,j) - theta({i,j,k}, l) - theta(k, {i,j,l})
        acc = [0] * (e * e)
        _add_product(acc, e, 1, dmap[i][j], theta[k][l])
        _add_product(acc, e, -1, theta[k][l], dmap[i][j])
        _add_combination(acc, e, -1, T[i][j][k], theta_t[l])
        _add_combination(acc, e, -1, T[i][j][l], theta[k])
        if any(acc):
            yield "RLYB6", (i, j, k, l), acc


def _rlyb7_defects(d: int, e: int, B, dmap):
    """Yield (basis triple, integer defect) where D([i,j],k) + D([j,k],i) + D([k,i],j) != 0."""
    rng = range(d)
    dmap_t = [[dmap[m][k] for m in rng] for k in rng]  # dmap_t[k][m] = dmap[m][k]
    for i, j, k in itertools.product(rng, rng, rng):
        acc = [0] * (e * e)
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            _add_combination(acc, e, 1, B[x][y], dmap_t[z])
        if any(acc):
            yield (i, j, k), acc


def check_representation(a: LYAlgebra, r: Representation, first_only: bool = False) -> RepReport:
    """Evaluate RLYB1-RLYB6 on all basis tuples; RLYB7 is reported as info.

    RLYB1 scans pairs, RLYB2/RLYB3/RLYB5 triples, RLYB4/RLYB6 quadruples
    (RLYB5 has only three arguments).  The conditions are evaluated in
    integers on ``_integer_data``; the report keeps a violated tuple's
    integer defect and builds its matrix of exact Fractions when the
    violations are first read.  RLYB7 is skipped with ``first_only``.
    """
    _require_rep(a, r)
    den, B, T, rho, dmap, theta = _integer_data(a, r)
    report = RepReport(r.e, den)
    for cond, tup, acc in _rlyb_defects(a.dim, r.e, B, T, rho, dmap, theta):
        report.add(cond, tup, acc)
        if first_only:
            return report
    if not first_only:
        report._rlyb7 = list(_rlyb7_defects(a.dim, r.e, B, dmap))
    return report


def is_representation(a: LYAlgebra, r: Representation) -> bool:
    return check_representation(a, r, first_only=True).ok


def check_rlyb7(a: LYAlgebra, r: Representation) -> bool:
    """Cyclic identity D([a,b],c) + D([b,c],a) + D([c,a],b) = 0 on basis triples."""
    _require_rep(a, r)
    _, B, _, _, dmap, _ = _integer_data(a, r)
    return next(_rlyb7_defects(a.dim, r.e, B, dmap), None) is None


def trivial_rep(a: LYAlgebra, e: int) -> Representation:
    """The module of dimension e on which every map is zero: it holds no map."""
    if e < 0:
        raise ShapeMismatch(f"matrix shape {e}x{e} is negative")
    return Representation._stored(e, a.dim, 1, ((), (), ()))


def adjoint(a: LYAlgebra) -> Representation:
    """rho(a) = [a, .], D(a,b) = {a, b, .}, theta(a,b) = {., a, b}.

    Built once per algebra instance and held on it, so every caller gets the
    same module, and with it the module's coboundary operators.
    """
    _require_valid(a)
    return a._adjoint


def semidirect(a: LYAlgebra, r: Representation, name: str = "") -> LYAlgebra:
    """Algebra structure on g (+) V induced by (rho, D, theta).

    Valid (passes check_axioms) exactly when r passes check_representation;
    invalid r is accepted so both directions of that equivalence are testable.
    """
    return _product_algebra(a, r, None, name or (a.name + "⋉V" if a.name else "semidirect"))


def twisted_semidirect(a: LYAlgebra, r: Representation, tau, name: str = "") -> LYAlgebra:
    """Semi-direct product twisted by a (2,3)-cochain pair tau = (f, g).

    f adds a module component to the binary bracket of two algebra elements,
    g to the ternary bracket of three algebra elements.  When tau lies in the
    cocycle space the twist preserves validity.
    """
    from .cohomology import CochainPair  # local import to avoid a cycle

    if not isinstance(tau, CochainPair) or tau.p != 1:
        raise ShapeMismatch("twist requires a (2,3)-cochain pair")
    if (tau.f.shape.d, tau.f.shape.e) != (a.dim, r.e):
        raise ShapeMismatch("twist cochain shaped for a different (algebra, module)")
    return _product_algebra(a, r, tau, name or "twisted-semidirect")


def _product_algebra(a: LYAlgebra, r: Representation, tau, name: str) -> LYAlgebra:
    """The brackets of g (+) V, handing ``_from_entries`` only the slots that can be nonzero.

    A slot of g is kept when it is nonzero in ``a`` or gets a twist
    component; the slots of g are read from the views of ``a``.  The module
    slots are the nonzero columns of the module's stored maps, so a zero map
    is never visited.
    """
    _check_shapes(a, r)
    d, e = a.dim, r.e
    zd, ze = zero_vector(d), zero_vector(e)
    nonzero = {idx for slots in a._slots for idx, _ in slots}
    b, t = {}, {}
    for i, j in itertools.product(range(d), repeat=2):
        f = tau.f.eval_basis((i, j)) if tau is not None else ze
        if (i, j) in nonzero or any(f):
            b[i, j] = a.binary[i][j] + f
        for k in range(d):
            g = tau.g.eval_basis((i, j, k)) if tau is not None else ze
            if (i, j, k) in nonzero or any(g):
                t[i, j, k] = a.ternary[i][j][k] + g
    rho, dmap, theta = r._maps
    den = r._den
    # [e_i, u] = rho(e_i) u = -[u, e_i]
    for i, rows in rho:
        for c, u in _columns(rows, e, den):
            b[i, d + c] = zd + u
            b[d + c, i] = zd + tuple(-x for x in u)
    # {e_i, e_j, u} = D(e_i, e_j) u ; {u, e_i, e_j} = theta(e_i, e_j) u ; {e_i, u, e_j} = -theta(e_i, e_j) u
    for (i, j), rows in dmap:
        for c, v in _columns(rows, e, den * den):
            t[i, j, d + c] = zd + v
    for (i, j), rows in theta:
        for c, u in _columns(rows, e, den * den):
            t[d + c, i, j] = zd + u
            t[i, d + c, j] = zd + tuple(-x for x in u)
    return _from_entries(d + e, b, t, name)


def _columns(rows: tuple, e: int, scale: int) -> list:
    """(c, column c) for each nonzero column of a map in row form, its ints divided by scale."""
    cols = {}
    for m, row in enumerate(rows):
        for c, x in row:
            cols.setdefault(c, [0] * e)[m] = Fraction(x, scale)
    return [(c, tuple(col)) for c, col in cols.items()]
