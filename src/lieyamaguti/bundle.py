"""Locally trivial Lie-Yamaguti algebra bundles over a sampled atlas.

A smooth base manifold is replaced by finitely many named charts, each with
rational sample points.  Overlaps are declared explicitly: a transition
family carries its sample points in from-chart coordinates, the k-th sample
of a transition and the k-th sample of its reverse denote the same base
point, and a triple overlap lists each probe point in the coordinates of all
three charts involved.  Every bundle condition in sight (cocycle identity,
fibrewise automorphism, sub-bundle invariance, morphism, fibrewise
cohomology) is pointwise, so sampling verifies exactly what can be verified
at this scale; nothing here claims smoothness.

An undeclared self transition g_ii is the identity.  In chart coordinates
the trivialization is the identity map, so every fibre is the fibre model:
``bundle_cohomology`` computes one fibre group ("der" is h1's kernel
ker delta_zero, the derivations) and lists it at every chart sample.  Its
``constant`` flag reports ``transport_failures``: transport of cochains along
each sampled transition value s, (s.f)(x1, ..., xn) = s f(s^-1 x1, ...,
s^-1 xn), must preserve the fibre's cocycles and coboundaries.

Both evaluation modes run one code path.  The cocycle gate works on pairs
(D, S) (``_cleared``): in exact mode D is the LCM of the denominators of a
transition value s and S = D s is an integer matrix, and the fibre's nonzero
structure constants are cleared likewise, den * binary and den**2 * ternary
(``_fibre``).  Each gate identity is homogeneous, so it is compared with both
sides multiplied out of the denominators; the integer defect is then one
known scale times the rational one, and dividing by that scale gives the
exact Fraction norm that a check on the rational values would report.  In
float mode the pair is (1, s) and den is 1, the same code runs on floats,
and a difference up to the tolerance counts as zero.  Transport runs on rows
of Fractions or floats.  The automorphism check is ``algebra._map_defect``,
which expands only the fibre's nonzero structure constants and the nonzero
entries of S, compiled once per nonzero pattern of S for one gate run, and
in exact mode it is skipped where the inverse check has already implied it
(``check_cocycle``).  A float defect that is not finite (an overflow, or a
NaN, which ``max`` would drop) is refused with EvalError.  Every matrix
product, distance, determinant and inverse is ``linalg``'s row toolkit, and
this module defines no matrix arithmetic of its own.
Transition values and morphism matrices are evaluated by one row evaluator,
``_eval_rows``, which runs a matrix's compiled ``exprs.Program``.  A
transition family holds its program, compiled on first use, and a morphism
check compiles each chart's matrix once.  A bundle holds its transition
values as pairs (D, S), each evaluated once per kind by ``_value``, and
every check reads them there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .algebra import LYAlgebra, _from_entries, _map_defect, _require_valid, is_homomorphism, structure_lcm
from .cohomology import DEFAULT_SIZE_CAP, h1, h23, h_upper, transport_defects
from .errors import (
    CocycleCheckFailed,
    EvalError,
    NotASubalgebra,
    ShapeMismatch,
    UnknownIdentifier,
)
from .exprs import Expr, Program, compile_matrix, variables
from .linalg import (
    Matrix,
    SubspaceBasis,
    _det,
    _distance,
    _eliminate,
    _identity,
    _invert,
    _matmul,
    _times,
    denominator_lcm,
)
from .representation import adjoint

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class EvalMode:
    kind: str = "exact"  # "exact" | "float"
    tol: float = 1e-9

    def __post_init__(self):
        if self.kind not in ("exact", "float"):
            raise ShapeMismatch(f"unknown evaluation mode {self.kind!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ShapeMismatch(f"tolerance must be a finite positive number, got {self.tol!r}")

    @property
    def bound(self):
        """Largest absolute difference that counts as zero: 0 exact, ``tol`` in float mode."""
        return 0 if self.kind == "exact" else self.tol


EXACT = EvalMode("exact")


@dataclass(frozen=True)
class Chart:
    name: str
    coords: tuple[str, ...]
    samples: tuple[Point, ...]

    def __post_init__(self):
        if not self.samples:
            raise ShapeMismatch(f"chart {self.name!r} needs at least one sample point")
        for pt in self.samples:
            if len(pt) != len(self.coords):
                raise ShapeMismatch(
                    f"chart {self.name!r}: sample arity {len(pt)} != coordinate count {len(self.coords)}"
                )


@dataclass(frozen=True)
class TransitionFamily:
    frm: str
    to: str
    matrix: tuple[tuple[Expr, ...], ...]  # d x d entries over from-chart coordinates
    samples: tuple[Point, ...]  # overlap probes, in from-chart coordinates
    coords: tuple[str, ...] = ()  # from-chart coordinate names (set by BundleSpec)

    def label(self) -> str:
        return f"{self.frm}->{self.to}"

    @functools.cached_property
    def _program(self) -> Program:
        """The matrix compiled once, run at every sample by ``eval_transition``."""
        return compile_matrix(self.matrix)

    def __getstate__(self) -> dict:
        """The fields only: a copied or unpickled family compiles its matrix again."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class TripleOverlap:
    i: str
    j: str
    k: str
    samples: tuple[tuple[Point, Point, Point], ...]  # same point in chart i/j/k coords

    def label(self) -> str:
        return f"({self.i},{self.j},{self.k})"


@dataclass(frozen=True)
class BundleSpec:
    fiber: LYAlgebra
    charts: tuple[Chart, ...]
    transitions: tuple[TransitionFamily, ...]
    triples: tuple[TripleOverlap, ...] = ()

    def __post_init__(self):
        _require_valid(self.fiber)
        names = [c.name for c in self.charts]
        if len(set(names)) != len(names):
            raise ShapeMismatch("duplicate chart names")
        by_name = {c.name: c for c in self.charts}
        d = self.fiber.dim
        seen_pairs = set()
        fixed = []
        for tf in self.transitions:
            if (tf.frm, tf.to) in seen_pairs:
                raise ShapeMismatch(f"duplicate transition {tf.label()}")
            seen_pairs.add((tf.frm, tf.to))
            for nm in (tf.frm, tf.to):
                if nm not in by_name:
                    raise ShapeMismatch(f"transition {tf.label()} references unknown chart {nm!r}")
            if len(tf.matrix) != d or any(len(row) != d for row in tf.matrix):
                raise ShapeMismatch(f"transition {tf.label()} matrix must be {d}x{d}")
            chart = by_name[tf.frm]
            allowed = set(chart.coords)
            for row in tf.matrix:
                for entry in row:
                    extra = variables(entry) - allowed
                    if extra:
                        raise UnknownIdentifier(
                            f"transition {tf.label()} uses {sorted(extra)} not in chart {tf.frm!r} coordinates"
                        )
            for pt in tf.samples:
                if len(pt) != len(chart.coords):
                    raise ShapeMismatch(f"transition {tf.label()} sample arity mismatch")
            fixed.append(
                TransitionFamily(tf.frm, tf.to, tf.matrix, tf.samples, chart.coords)
            )
        object.__setattr__(self, "transitions", tuple(fixed))
        for tr in self.triples:
            for nm in (tr.i, tr.j, tr.k):
                if nm not in by_name:
                    raise ShapeMismatch(f"triple overlap {tr.label()} references unknown chart {nm!r}")
            for s in tr.samples:
                for pt, nm in zip(s, (tr.i, tr.j, tr.k)):
                    if len(pt) != len(by_name[nm].coords):
                        raise ShapeMismatch(
                            f"triple overlap {tr.label()} sample arity mismatch in chart {nm!r}"
                        )

    def transition(self, frm: str, to: str) -> TransitionFamily | None:
        for tf in self.transitions:
            if tf.frm == frm and tf.to == to:
                return tf
        return None

    @functools.cached_property
    def _values(self) -> dict:
        """Evaluated transition values, (from, to, point, kind) -> the pair (D, S); filled by ``_value``."""
        return {}

    def __getstate__(self) -> dict:
        """The fields only: a copied or unpickled bundle evaluates its values again."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _eval_rows(program: Program, coords: tuple, pt: Point, mode: EvalMode) -> list:
    """A compiled expression matrix over ``coords``, evaluated at ``pt`` as rows of Fractions or floats."""
    if len(pt) != len(coords):
        raise ShapeMismatch(f"point arity {len(pt)} != chart arity {len(coords)}")
    return program.rows(dict(zip(coords, pt)), mode.kind)


def eval_transition(tf: TransitionFamily, pt: Point, mode: EvalMode = EXACT) -> list:
    """Entrywise evaluation at a point of the from-chart, as rows of Fractions or floats."""
    return _eval_rows(tf._program, tf.coords, pt, mode)


def _scaled(v, k: int, mode: EvalMode) -> list:
    """k * v as integers in exact mode; v as floats in float mode.

    In exact mode k must be a multiple of every denominator in v.  A
    rational too large for a float raises EvalError, as an evaluation
    overflow does.
    """
    if mode.kind == "exact":
        return [x.numerator * (k // x.denominator) for x in v]
    try:
        return [float(x) for x in v]
    except OverflowError as exc:
        raise EvalError(f"float overflow: {exc}") from None


def _cleared(rows: list, mode: EvalMode) -> tuple:
    """The pair (D, S) of a transition value s, with S = D * s.

    In exact mode D is the LCM of the denominators of s, so S is an integer
    matrix; in float mode the pair is (1, s).
    """
    den = denominator_lcm(x for row in rows for x in row) if mode.kind == "exact" else 1
    return den, [_scaled(row, den, mode) for row in rows]


def _fibre(a: LYAlgebra, mode: EvalMode) -> tuple:
    """The fibre model as (den, algebra) for the gate.

    In exact mode den is the LCM of the structure constants' denominators and
    the algebra holds the integers den * binary and den**2 * ternary; in float
    mode den is 1 and the algebra holds the constants as floats.  Each is
    scaled from a nonzero slot of ``a``; its dense views are not read.
    """
    den = structure_lcm(a) if mode.kind == "exact" else 1
    zero = [0] * a.dim

    def scaled(group: tuple, k: int) -> dict:
        return {idx: _scaled(map(dict(entries).get, range(a.dim), zero), k, mode) for idx, entries in group}

    return den, _from_entries(a.dim, scaled(a._slots[0], den), scaled(a._slots[1], den * den), a.name)


def _norm(worst, scale: int, mode: EvalMode):
    """The defect of an identity whose sides were computed ``scale`` times too large.

    Exact in exact mode; float mode never scales (every D and den is 1), and
    refuses a defect that is not finite: an overflow in the gate's float
    arithmetic proves nothing either way.
    """
    if mode.kind == "exact":
        return Fraction(worst, scale)
    if not math.isfinite(worst):
        raise EvalError("float overflow: a defect of the cocycle gate is not finite; exact mode can decide")
    return worst


_SINGULAR = {"exact": "matrix is singular", "float": "matrix is numerically singular"}


def _singular(s: list, mode: EvalMode) -> bool:
    """Rank test of the integer S in exact mode (fraction-free); |det| <= tol in float mode."""
    if mode.kind == "exact":
        return len(_eliminate({k: x for k, x in enumerate(row) if x} for row in s)) < len(s)
    return abs(_det(s)) <= mode.tol


def _automorphism_defect(value: tuple, fibre: tuple, mode: EvalMode, plans: dict | None = None):
    """Largest entry of s[x, y] - [sx, sy] and s{x, y, z} - {sx, sy, sz} over basis tuples.

    With (D, S) = ``value`` and (den, F) = ``fibre``, ``algebra._map_defect``
    compares D S F(e_i, e_j) against F(S e_i, S e_j), which is D**2 den times
    the exact binary defect, and D**2 S F(e_i, e_j, e_k) against
    F(S e_i, S e_j, S e_k), which is D**3 den**2 times the ternary one.  Both
    sides are expanded from the nonzero structure constants of F and the
    nonzero entries of S, by the plan compiled for S's nonzero pattern and
    held in ``plans``, which the caller owns for this one fibre model.
    """
    (big_d, s), (den, f) = value, fibre
    binary, ternary = _map_defect(big_d, s, f, f, plans)
    return max(_norm(binary, big_d**2 * den, mode), _norm(ternary, big_d**3 * den**2, mode))


@dataclass
class CocycleFailure:
    kind: str  # identity | triple | inverse | automorphism | structural | transport
    where: str
    point: tuple | None
    defect_norm: object
    detail: str = ""


@dataclass
class CocycleReport:
    mode: EvalMode
    failures: list[CocycleFailure] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, kind: str, where: str, point, norm, detail: str = "") -> None:
        self.failures.append(CocycleFailure(kind, where, point, norm, detail))


def _value(b: BundleSpec, tf: TransitionFamily, pt: Point, mode: EvalMode) -> tuple:
    """The pair (D, S) of ``_cleared`` for b's transition tf at pt, evaluated on first use and held on b."""
    key = (tf.frm, tf.to, pt, mode.kind)
    pair = b._values.get(key)
    if pair is None:
        pair = b._values[key] = _cleared(eval_transition(tf, pt, mode), mode)
    return pair


def check_cocycle(b: BundleSpec, mode: EvalMode = EXACT) -> CocycleReport:
    """Verify the clutching data of a sampled bundle.

    Checks, in order: declared self transitions evaluate to the identity;
    declared triple overlaps satisfy g_ij(m) g_jk(m) = g_ik(m); reverse pairs
    satisfy g_ji(m) = g_ij(m)^-1 under the positional sample correspondence;
    and every evaluated transition value is a fibrewise automorphism of the
    fibre model.  All failures are reported with their point and the largest
    entrywise defect.  Every identity is homogeneous, so each is compared
    with both sides multiplied out of the denominators, and its integer
    defect is divided by that one scale for the report.

    In exact mode the automorphism check reads what the inverse check has
    proved.  When g_ij(m) g_ji(m) = 1 exactly at the k-th sample of a pair,
    neither value is singular, so neither runs the rank test; and once one
    of the two has passed the bracket-preservation check, the other is the
    inverse of an automorphism, hence an automorphism, and is not expanded
    again.  Every other value (a failing or unpaired one, or the first of its
    pair) is checked in full, so the failures are those of checking every
    value.  Float mode implies nothing, since a pass within the tolerance
    does not carry over to the inverse.  ``checks`` counts every condition,
    implied or computed.

    The bracket-preservation defect is compiled once per nonzero pattern of
    the values (``algebra._defect_plan``), into plans this call holds and
    drops.  In float mode a defect that is not finite raises EvalError, as
    an overflow in evaluation does: it neither passes nor fails.
    """
    report = CocycleReport(mode)
    bound = mode.bound
    fibre, plans = _fibre(b.fiber, mode), {}
    ident = _identity(b.fiber.dim)

    def check(kind: str, where: str, point, worst, scale: int, detail: str) -> None:
        norm = _norm(worst, scale, mode)
        if norm > bound:
            report.add(kind, where, point, norm, detail)

    for tf in b.transitions:
        if tf.frm == tf.to:
            for pt in tf.samples:
                report.checks += 1
                d, s = _value(b, tf, pt, mode)
                worst = _distance(s, _times(d, ident))
                check("identity", tf.label(), pt, worst, d, "g_ii is not the identity")

    for tr in b.triples:
        for (pi, pj, pk) in tr.samples:
            report.checks += 1
            legs = []
            for (frm, to, pt) in ((tr.i, tr.j, pi), (tr.j, tr.k, pj), (tr.i, tr.k, pi)):
                tf = b.transition(frm, to)
                if frm == to:
                    legs.append((1, ident))
                elif tf is None:
                    report.add(
                        "structural",
                        tr.label(),
                        (pi, pj, pk),
                        None,
                        f"no declared transition {frm}->{to} for this triple overlap",
                    )
                    break
                else:
                    legs.append(_value(b, tf, pt, mode))
            else:
                (d1, s1), (d2, s2), (d3, s3) = legs
                worst = _distance(_times(d3, _matmul(s1, s2)), _times(d1 * d2, s3))
                check("triple", tr.label(), (pi, pj, pk), worst, d1 * d2 * d3, "g_ij g_jk != g_ik")

    # exact mode: (from, to, sample position) of each value whose pair passed
    # the inverse check -> its inverse's key, and the keys of paired values
    # that passed the automorphism check
    inverse, automorphic = {}, set()
    seen = set()
    for tf in b.transitions:
        if tf.frm == tf.to or (tf.to, tf.frm) in seen:
            continue
        seen.add((tf.frm, tf.to))
        rev = b.transition(tf.to, tf.frm)
        if rev is None:
            continue
        if len(tf.samples) != len(rev.samples):
            report.add(
                "structural",
                f"{tf.label()} / {rev.label()}",
                None,
                None,
                "paired transitions declare different sample counts",
            )
            continue
        for k, (pt_f, pt_r) in enumerate(zip(tf.samples, rev.samples)):
            report.checks += 1
            (df, sf), (dr, sr) = _value(b, tf, pt_f, mode), _value(b, rev, pt_r, mode)
            worst = _distance(_matmul(sf, sr), _times(df * dr, ident))
            where = f"{tf.label()} / {rev.label()}"
            check("inverse", where, (pt_f, pt_r), worst, df * dr, "g_ji != g_ij^-1")
            if mode.kind == "exact" and not worst:
                inverse[tf.frm, tf.to, k] = (tf.to, tf.frm, k)
                inverse[tf.to, tf.frm, k] = (tf.frm, tf.to, k)

    for tf in b.transitions:
        for k, pt in enumerate(tf.samples):
            report.checks += 1
            key = (tf.frm, tf.to, k)
            partner = inverse.get(key)
            if partner in automorphic:
                continue  # the inverse of an automorphism is one
            pair = _value(b, tf, pt, mode)
            if partner is None and _singular(pair[1], mode):
                report.add("automorphism", tf.label(), pt, None, _SINGULAR[mode.kind])
                continue
            norm = _automorphism_defect(pair, fibre, mode, plans)
            if norm > bound:
                report.add("automorphism", tf.label(), pt, norm, "bracket preservation fails")
            elif partner is not None:
                automorphic.add(key)
    return report


@dataclass
class SubbundleReport:
    dim_h: int
    failures: list[CocycleFailure] = field(default_factory=list)
    note: str = (
        "invariance verified only at sampled transition values; this is a "
        "necessary condition for characteristic sub-bundle data, quantified "
        "over the sampled automorphisms rather than the full automorphism group"
    )

    @property
    def ok(self) -> bool:
        return not self.failures


def check_subbundle(b: BundleSpec, h: SubspaceBasis) -> SubbundleReport:
    """Check g_ij(m) h = h for every evaluated transition value (exact mode).

    Requires h to be a subalgebra of the fibre (closure under both brackets).
    A value s is read as its pair (D, S): S v spans what s v does.
    """
    fiber = b.fiber
    if h.ambient_dim != fiber.dim:
        raise ShapeMismatch("subspace lives in a different ambient dimension")
    basis = list(h.vectors)
    for u in basis:
        for v in basis:
            if not h.contains(fiber.bracket(u, v)):
                raise NotASubalgebra("not closed under the binary bracket")
            for w in basis:
                if not h.contains(fiber.triple(u, v, w)):
                    raise NotASubalgebra("not closed under the ternary bracket")
    report = SubbundleReport(dim_h=h.dim)
    for tf in b.transitions:
        for pt in tf.samples:
            s = _value(b, tf, pt, EXACT)[1]
            images = _matmul(basis, list(zip(*s)))
            outside = any(not h.contains(img) for img in images)
            if outside or SubspaceBasis(h.ambient_dim, images).dim != h.dim:
                report.failures.append(
                    CocycleFailure("invariance", tf.label(), pt, None, "g(m)·h != h")
                )
    return report


@dataclass
class MorphismPoint:
    chart: str
    point: Point
    is_hom: bool
    invertible: bool


@dataclass
class MorphismReport:
    points: list[MorphismPoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.is_hom for p in self.points)


def check_bundle_morphism(
    ba: BundleSpec, bb: BundleSpec, chart_matrices: dict[str, tuple[tuple[Expr, ...], ...]]
) -> MorphismReport:
    """Fibrewise homomorphism check of a same-atlas bundle morphism.

    ``chart_matrices`` maps chart names to expression matrices over that
    chart's coordinates; every sample point of every chart is checked.
    """
    names_a = {c.name for c in ba.charts}
    names_b = {c.name for c in bb.charts}
    if names_a != names_b:
        raise ShapeMismatch("bundle morphisms are supported over a common atlas only")
    report = MorphismReport()
    for chart in ba.charts:
        if chart.name not in chart_matrices:
            raise ShapeMismatch(f"no morphism matrix for chart {chart.name!r}")
        rowsx = chart_matrices[chart.name]
        if len(rowsx) != bb.fiber.dim or any(len(r) != ba.fiber.dim for r in rowsx):
            raise ShapeMismatch(
                f"morphism matrix on chart {chart.name!r} must be {bb.fiber.dim}x{ba.fiber.dim}"
            )
        program = compile_matrix(rowsx)
        for pt in chart.samples:
            val = Matrix.from_rows(_eval_rows(program, chart.coords, pt, EXACT))
            hom = is_homomorphism(val, ba.fiber, bb.fiber)
            inv = val.rows == val.cols and val.is_invertible()
            report.points.append(MorphismPoint(chart.name, pt, hom, inv))
    return report


@dataclass
class FiberCohomologyPoint:
    chart: str
    point: Point
    dims: dict


@dataclass
class BundleCohomologyReport:
    which: str
    p: int | None
    points: list[FiberCohomologyPoint]
    transport_failures: list[CocycleFailure]

    @property
    def constant(self) -> bool:
        return not self.transport_failures


# --which -> (level of the complex, key of its dimension); "der" is h1's kernel
# ker delta_zero, the derivations, and "upper" is at level --p >= 2 and formats
# its key with (2p, 2p+1)
_GROUPS = {
    "h1": (0, "dimH1"),
    "der": (0, "dimDer"),
    "h23": (1, "dimH23"),
    "upper": (None, "dimH{}{}"),
}


def _group(which: str, p: int) -> tuple:
    """(level, dims key) of a --which selector."""
    if which not in _GROUPS:
        raise ShapeMismatch(f"unknown cohomology selector {which!r}")
    level, key = _GROUPS[which]
    if level is None and p < 2:
        raise ShapeMismatch("--which upper needs --p >= 2; h23 is p = 1")
    return p if level is None else level, key


def transport_failures(b: BundleSpec, which: str = "h1", p: int = 2, mode: EvalMode = EXACT) -> list[CocycleFailure]:
    """Sampled transition values whose transport does not preserve the fibre's ``which`` group.

    Adjoint coefficients; "der" is "h1", whose cocycles are the derivations,
    and transport acts on them as T -> s T s^-1.  ``cohomology.transport_defects``
    names the coboundaries checked.  Exact in exact mode, within the tolerance
    in float mode; every automorphism passes.  Each value s is inverted once,
    and the determinant of that inversion decides singularity as the cocycle
    gate does (det = 0 exactly, |det| <= tol in float mode); a singular value
    is reported in the gate's words.
    """
    level = _group(which, p)[0]
    failures, where, maps = [], [], []
    for tf in b.transitions:
        for pt in tf.samples:
            big_d, scaled = _value(b, tf, pt, mode)
            s = [[Fraction(x, big_d) for x in row] for row in scaled] if mode.kind == "exact" else scaled
            det, inverse = _invert(s)
            if abs(det) <= mode.bound:
                failures.append(CocycleFailure("transport", tf.label(), pt, None, _SINGULAR[mode.kind]))
            else:
                where.append((tf.label(), pt))
                maps.append((s, inverse))
    defects = transport_defects(b.fiber, adjoint(b.fiber), level, maps)
    for (label, pt), norm in zip(where, defects):
        if norm > mode.bound:
            failures.append(CocycleFailure("transport", label, pt, norm, "transport does not preserve the fibre group"))
    return failures


def bundle_cohomology(
    b: BundleSpec,
    which: str = "h1",
    p: int = 2,
    mode: EvalMode = EXACT,
    cap: int = DEFAULT_SIZE_CAP,
) -> BundleCohomologyReport:
    """Fibrewise cohomology dims with adjoint coefficients, listed per sample point.

    Requires a known ``which`` and a passing cocycle check.  The fibre group
    is computed once; ``constant`` reports that transport along every sampled
    transition value preserves it, that is, no ``transport_failures``.  Both
    read the one adjoint module the fibre holds, so each coboundary is
    assembled once per job, and both checks read the values the bundle
    holds, so each (transition, point) is evaluated once.
    """
    level, key = _group(which, p)
    gate = check_cocycle(b, mode)
    if not gate.ok:
        first = gate.failures[0]
        raise CocycleCheckFailed(
            f"cocycle verification failed ({first.kind} at {first.where}); "
            "fibrewise computations need a verified bundle",
            gate,
        )
    fiber = b.fiber
    module = adjoint(fiber)
    if level == 0:
        dims = {key: h1(fiber, module, cap=cap)[0]}
    else:
        res = h23(fiber, module, cap=cap) if level == 1 else h_upper(fiber, module, level, cap=cap)
        dims = {"dimZ": res.dim_z, "dimB": res.dim_b, key.format(2 * level, 2 * level + 1): res.dim}
    points = [FiberCohomologyPoint(c.name, pt, dims) for c in b.charts for pt in c.samples]
    failures = transport_failures(b, which, p, mode)
    return BundleCohomologyReport(which, p if which == "upper" else None, points, failures)


def der_bundle_dims(b: BundleSpec, mode: EvalMode = EXACT) -> BundleCohomologyReport:
    """``bundle_cohomology(b, "der")``.

    Kept only because the benchmark tracer wraps this name; it goes once
    ROADMAP item 1 drops that trace point.
    """
    return bundle_cohomology(b, "der", mode=mode)
