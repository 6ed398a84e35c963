"""Representations (rho, D, theta) of Lie-Yamaguti algebras.

A representation on a module of dimension e stores rho as d endomorphisms and
D, theta as d x d families of endomorphisms, all e x e matrices indexed by
basis elements; bilinearity extends them to arbitrary arguments.

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
defect is den**w times the exact one; a violated tuple's defect is reported
as a Matrix of exact Fractions.

Every entry point that needs a valid algebra and a module shaped for it,
here and in ``cohomology``, calls one guard, ``_require_rep``: the algebra's
validity guard, then the shape check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LYAlgebra, _from_entries, _require_valid, integer_tables
from .errors import ShapeMismatch
from .linalg import Matrix, scaled_sparse, zero_vector

RLYB_CONDITIONS = ("RLYB1", "RLYB2", "RLYB3", "RLYB4", "RLYB5", "RLYB6")


@dataclass(frozen=True)
class Representation:
    """Basis-indexed data of a representation on an e-dimensional module, shape-checked once, when built."""

    e: int
    rho: tuple  # rho[i]: e x e Matrix
    dmap: tuple  # dmap[i][j]: e x e Matrix for D(e_i, e_j)
    theta: tuple  # theta[i][j]: e x e Matrix for theta(e_i, e_j)

    def __post_init__(self):
        """rho has d maps, D and theta are d x d families, and every map is e x e."""
        d, e = len(self.rho), self.e
        if any(m.rows != e or m.cols != e for m in self.rho):
            raise ShapeMismatch("rho matrices must be e x e")
        if any(len(fam) != d or any(len(row) != d for row in fam) for fam in (self.dmap, self.theta)):
            raise ShapeMismatch("D/theta must be d x d families")
        if any(m.rows != e or m.cols != e for fam in (self.dmap, self.theta) for row in fam for m in row):
            raise ShapeMismatch("D/theta matrices must be e x e")

    def replace_theta(self, i: int, j: int, m: Matrix) -> "Representation":
        theta = [list(row) for row in self.theta]
        theta[i][j] = m
        return Representation(self.e, self.rho, self.dmap, tuple(tuple(r) for r in theta))


@dataclass
class RepReport:
    """Defects of RLYB1..RLYB6 plus the derived RLYB7 (informational)."""

    violations: dict = field(default_factory=lambda: {c: [] for c in RLYB_CONDITIONS})
    rlyb7_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(not v for v in self.violations.values())

    def violated(self) -> list[str]:
        return [c for c in RLYB_CONDITIONS if self.violations[c]]

    def add(self, cond: str, tup: tuple, defect: Matrix) -> None:
        self.violations[cond].append((tup, defect))


def _check_shapes(a: LYAlgebra, r: Representation) -> None:
    """The module's basis is the algebra's; the rest of its shape was checked when it was built."""
    if len(r.rho) != a.dim:
        raise ShapeMismatch("representation is indexed by a different basis size")


def _require_rep(a: LYAlgebra, r: Representation) -> None:
    """The guard for an (algebra, module) pair: a valid algebra and a module shaped for its basis."""
    _require_valid(a)
    _check_shapes(a, r)


# Weight of each condition in the cleared data (rho and the binary tensor
# scaled by den, D, theta and the ternary tensor by den**2).
RLYB_WEIGHTS = {"RLYB1": 2, "RLYB2": 3, "RLYB3": 3, "RLYB4": 4, "RLYB5": 3, "RLYB6": 4, "RLYB7": 3}


def _integer_data(a: LYAlgebra, r: Representation):
    """``integer_tables`` of a with den also clearing r, plus r cleared by den.

    Returns ``(den, B, T, rho, dmap, theta)``; every matrix becomes a list of
    its rows, each a list of nonzero (column, int) pairs.
    """
    mats = [*r.rho, *(m for row in r.dmap for m in row), *(m for row in r.theta for m in row)]
    den, B, T = integer_tables(a, (x for m in mats for x in m.entries))

    def rows(m: Matrix, scale: int) -> list:
        return [scaled_sparse(m.row(i), scale) for i in range(m.rows)]

    rho = [rows(m, den) for m in r.rho]
    dmap = [[rows(m, den * den) for m in row] for row in r.dmap]
    theta = [[rows(m, den * den) for m in row] for row in r.theta]
    return den, B, T, rho, dmap, theta


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


def _exact(acc: list, e: int, den: int, cond: str) -> Matrix:
    scale = den ** RLYB_WEIGHTS[cond]
    return Matrix(e, e, [Fraction(x, scale) for x in acc])


def check_representation(a: LYAlgebra, r: Representation, first_only: bool = False) -> RepReport:
    """Evaluate RLYB1-RLYB6 on all basis tuples; RLYB7 is reported as info.

    RLYB1 scans pairs, RLYB2/RLYB3/RLYB5 triples, RLYB4/RLYB6 quadruples
    (RLYB5 has only three arguments).  The conditions are evaluated in
    integers on ``_integer_data``; a violated tuple's defect is reported as
    a matrix of exact Fractions.  RLYB7 is skipped with ``first_only``.
    """
    _require_rep(a, r)
    den, B, T, rho, dmap, theta = _integer_data(a, r)
    report = RepReport()
    for cond, tup, acc in _rlyb_defects(a.dim, r.e, B, T, rho, dmap, theta):
        report.add(cond, tup, _exact(acc, r.e, den, cond))
        if first_only:
            return report
    if not first_only:
        report.rlyb7_violations = [
            (tup, _exact(acc, r.e, den, "RLYB7")) for tup, acc in _rlyb7_defects(a.dim, r.e, B, dmap)
        ]
    return report


def is_representation(a: LYAlgebra, r: Representation) -> bool:
    return check_representation(a, r, first_only=True).ok


def check_rlyb7(a: LYAlgebra, r: Representation) -> bool:
    """Cyclic identity D([a,b],c) + D([b,c],a) + D([c,a],b) = 0 on basis triples."""
    _require_rep(a, r)
    _, B, _, _, dmap, _ = _integer_data(a, r)
    return next(_rlyb7_defects(a.dim, r.e, B, dmap), None) is None


def trivial_rep(a: LYAlgebra, e: int) -> Representation:
    z = Matrix.zero(e, e)
    d = a.dim
    return Representation(
        e,
        tuple(z for _ in range(d)),
        tuple(tuple(z for _ in range(d)) for _ in range(d)),
        tuple(tuple(z for _ in range(d)) for _ in range(d)),
    )


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
    component, and a module column only when it is nonzero; the slots of g
    are read from the views of ``a``.
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
        for c in range(e):
            # {e_i, e_j, u} = D(e_i, e_j) u ; {u, e_i, e_j} = theta(e_i, e_j) u ;
            # {e_i, u, e_j} = -theta(e_i, e_j) u, for every (i, j) so an invalid r shows
            if any(v := r.dmap[i][j].col(c)):
                t[i, j, d + c] = zd + v
            if any(u := r.theta[i][j].col(c)):
                t[d + c, i, j] = zd + u
                t[i, d + c, j] = zd + tuple(-x for x in u)
    for i in range(d):
        for c in range(e):
            # [e_i, u] = rho(e_i) u = -[u, e_i]
            if any(u := r.rho[i].col(c)):
                b[i, d + c] = zd + u
                b[d + c, i] = zd + tuple(-x for x in u)
    return _from_entries(d + e, b, t, name)
