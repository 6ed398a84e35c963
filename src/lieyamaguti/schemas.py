"""JSON serialization for algebras, representations, cochains and bundles.

All rationals travel as strings "p/q" (or "p" when the denominator is 1) so
that no JSON consumer can lose precision; integers are accepted on input.
Basis indices are 1-based in every schema.  Binary entries are restricted to
i < j and ternary entries to i < j in the antisymmetric slot pair; loaders
derive the mirrored entries, so files cannot express LY1/LY2 violations.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LYAlgebra, from_sparse
from .bundle import BundleSpec, Chart, TransitionFamily, TripleOverlap
from .cohomology import CochainPair, _pair_space, _shape
from .errors import ShapeMismatch
from .exprs import parse_expr
from .linalg import Matrix, vec_is_zero
from .representation import Representation


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_json(v) -> Fraction:
    if isinstance(v, bool):
        raise ShapeMismatch("booleans are not rationals")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ShapeMismatch(f"bad rational literal {v!r}") from exc
    raise ShapeMismatch(f"bad rational value {v!r} (use ints or 'p/q' strings)")


def vec_to_json(v) -> list[str]:
    return [frac_to_str(x) for x in v]


def vec_from_json(v, length: int | None = None) -> tuple[Fraction, ...]:
    if not isinstance(v, list):
        raise ShapeMismatch("expected a list of rationals")
    out = tuple(frac_from_json(x) for x in v)
    if length is not None and len(out) != length:
        raise ShapeMismatch(f"expected a vector of length {length}, got {len(out)}")
    return out


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [vec_to_json(m.row(i)) for i in range(m.rows)]


def matrix_from_json(rows, shape: tuple[int, int] | None = None) -> Matrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ShapeMismatch("expected a matrix as a list of rows")
    m = Matrix.from_rows([[frac_from_json(x) for x in r] for r in rows])
    if shape is not None and (m.rows, m.cols) != shape:
        raise ShapeMismatch(f"expected a {shape[0]}x{shape[1]} matrix, got {m.rows}x{m.cols}")
    return m


# ---------------------------------------------------------------------------
# algebras


def algebra_to_json(a: LYAlgebra) -> dict:
    binary = []
    ternary = []
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            if not vec_is_zero(a.binary[i][j]):
                binary.append([i + 1, j + 1, vec_to_json(a.binary[i][j])])
            for k in range(a.dim):
                if not vec_is_zero(a.ternary[i][j][k]):
                    ternary.append([i + 1, j + 1, k + 1, vec_to_json(a.ternary[i][j][k])])
    return {"dim": a.dim, "name": a.name, "binary": binary, "ternary": ternary}


def algebra_from_json(obj) -> LYAlgebra:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ShapeMismatch("algebra JSON must be an object with a 'dim' field")
    d = obj["dim"]
    if not isinstance(d, int) or d < 0:
        raise ShapeMismatch("'dim' must be a non-negative integer")
    binary = {}
    for entry in obj.get("binary", []):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ShapeMismatch("binary entries are [i, j, vector]")
        i, j, vec = entry
        if not (isinstance(i, int) and isinstance(j, int) and 1 <= i < j <= d):
            raise ShapeMismatch(f"binary entry needs 1 <= i < j <= dim, got ({i}, {j})")
        if (i - 1, j - 1) in binary:
            raise ShapeMismatch(f"duplicate binary entry ({i}, {j})")
        binary[(i - 1, j - 1)] = vec_from_json(vec, d)
    ternary = {}
    for entry in obj.get("ternary", []):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ShapeMismatch("ternary entries are [i, j, k, vector]")
        i, j, k, vec = entry
        if not (
            isinstance(i, int)
            and isinstance(j, int)
            and isinstance(k, int)
            and 1 <= i < j <= d
            and 1 <= k <= d
        ):
            raise ShapeMismatch(
                f"ternary entry needs 1 <= i < j <= dim and 1 <= k <= dim, got ({i}, {j}, {k})"
            )
        if (i - 1, j - 1, k - 1) in ternary:
            raise ShapeMismatch(f"duplicate ternary entry ({i}, {j}, {k})")
        ternary[(i - 1, j - 1, k - 1)] = vec_from_json(vec, d)
    return from_sparse(d, binary, ternary, str(obj.get("name", "")))


# ---------------------------------------------------------------------------
# representations


def representation_to_json(r: Representation) -> dict:
    return {
        "e": r.e,
        "rho": [matrix_to_json(m) for m in r.rho],
        "D": [[matrix_to_json(m) for m in row] for row in r.dmap],
        "theta": [[matrix_to_json(m) for m in row] for row in r.theta],
    }


def representation_from_json(obj, d: int) -> Representation:
    if not isinstance(obj, dict) or "e" not in obj:
        raise ShapeMismatch("representation JSON must be an object with an 'e' field")
    e = obj["e"]
    if not isinstance(e, int) or e < 0:
        raise ShapeMismatch("'e' must be a non-negative integer")
    rho = obj.get("rho", [])
    dm = obj.get("D", [])
    th = obj.get("theta", [])
    if len(rho) != d or len(dm) != d or len(th) != d:
        raise ShapeMismatch("rho, D, theta must be indexed by the algebra basis")
    return Representation(
        e,
        tuple(matrix_from_json(m, (e, e)) for m in rho),
        tuple(tuple(matrix_from_json(m, (e, e)) for m in row) for row in dm),
        tuple(tuple(matrix_from_json(m, (e, e)) for m in row) for row in th),
    )


# ---------------------------------------------------------------------------
# (2,3)-cochain pairs


def cochain_pair_to_json(c: CochainPair) -> dict:
    if c.p != 1:
        raise ShapeMismatch("only (2,3)-cochain pairs have a file schema")
    d, e = c.f.shape.d, c.f.shape.e
    f_entries = []
    g_entries = []
    for i in range(d):
        for j in range(i + 1, d):
            v = c.f.eval_basis((i, j))
            if not vec_is_zero(v):
                f_entries.append([i + 1, j + 1, vec_to_json(v)])
            for k in range(d):
                w = c.g.eval_basis((i, j, k))
                if not vec_is_zero(w):
                    g_entries.append([i + 1, j + 1, k + 1, vec_to_json(w)])
    return {"p": 1, "d": d, "e": e, "f": f_entries, "g": g_entries}


def cochain_pair_from_json(obj, d: int, e: int) -> CochainPair:
    if not isinstance(obj, dict) or obj.get("p", 1) != 1:
        raise ShapeMismatch("cochain JSON must be an object with p = 1")
    f, g = (_shape(groups, d, e) for groups in _pair_space(1))
    flat = [0] * (f.dim + g.dim)

    def put(shape, shift: int, tup: tuple, vec) -> None:
        base = shift + shape.offset(tup)[1]
        flat[base : base + e] = vec_from_json(vec, e)

    for entry in obj.get("f", []):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ShapeMismatch("f entries are [i, j, vector]")
        i, j, vec = entry
        if not (isinstance(i, int) and isinstance(j, int) and 1 <= i < j <= d):
            raise ShapeMismatch(f"f entry needs 1 <= i < j <= d, got ({i}, {j})")
        put(f, 0, (i - 1, j - 1), vec)
    for entry in obj.get("g", []):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ShapeMismatch("g entries are [i, j, k, vector]")
        i, j, k, vec = entry
        if not (
            isinstance(i, int)
            and isinstance(j, int)
            and isinstance(k, int)
            and 1 <= i < j <= d
            and 1 <= k <= d
        ):
            raise ShapeMismatch(f"g entry needs 1 <= i < j <= d, got ({i}, {j}, {k})")
        put(g, f.dim, (i - 1, j - 1, k - 1), vec)
    return CochainPair.from_flat(1, d, e, flat)


# ---------------------------------------------------------------------------
# bundles


def bundle_from_json(obj) -> BundleSpec:
    if not isinstance(obj, dict) or "fiber" not in obj or "charts" not in obj:
        raise ShapeMismatch("bundle JSON must carry 'fiber' and 'charts'")
    fiber = algebra_from_json(obj["fiber"])
    charts = []
    for c in obj["charts"]:
        charts.append(
            Chart(
                str(c["name"]),
                tuple(str(x) for x in c.get("coords", [])),
                tuple(vec_from_json(p) for p in c.get("samples", [])),
            )
        )
    transitions = []
    for t in obj.get("transitions", []):
        rows = t.get("matrix", [])
        if not rows:
            raise ShapeMismatch("transition matrix missing")
        matrix = tuple(tuple(parse_expr(str(x)) for x in row) for row in rows)
        transitions.append(
            TransitionFamily(
                str(t["from"]),
                str(t["to"]),
                matrix,
                tuple(vec_from_json(p) for p in t.get("samples", [])),
            )
        )
    triples = []
    for t in obj.get("triples", []):
        samples = []
        for s in t.get("samples", []):
            if not (isinstance(s, list) and len(s) == 3):
                raise ShapeMismatch(
                    "triple samples are [point_in_chart_i, point_in_chart_j, point_in_chart_k]"
                )
            samples.append(
                (vec_from_json(s[0]), vec_from_json(s[1]), vec_from_json(s[2]))
            )
        triples.append(TripleOverlap(str(t["i"]), str(t["j"]), str(t["k"]), tuple(samples)))
    return BundleSpec(fiber, tuple(charts), tuple(transitions), tuple(triples))
