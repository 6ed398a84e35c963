"""JSON serialization for algebras, representations, cochains and bundles.

All rationals travel as strings "p/q" (or "p" when the denominator is 1) so
that no JSON consumer can lose precision; integers are accepted on input.
Basis indices are 1-based in every schema, and integer fields refuse JSON
booleans.  Algebras and (2,3)-cochain pairs share one entry format,
[i, j, vector] and [i, j, k, vector] with i < j in the antisymmetric slot
pair, read and written by one pair of helpers; loaders derive the mirrored
entries, so files cannot express LY1/LY2 violations; an index tuple may
appear once in either format.

``frac_from_json`` is the one reader of rationals from outside, the CLI's
--tol included.  It accepts what Fraction accepts ("1.5", "1e-9") but
refuses a decimal exponent E whose 10**|E| would be longer than
``exprs.MAX_POWER_BITS`` bits, before computing it.  Lists are read with
``_list``/``_as_list``, which name the field they refuse.  Every algebra,
bundle fibres included, has its dimension bounded before it is built
(``cohomology._require_scan``), and every bundle its evaluation work, the
characters of expression its checks evaluate, before any evaluation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import LYAlgebra, from_sparse
from .bundle import BundleSpec, Chart, TransitionFamily, TripleOverlap
from .cohomology import _SCAN_WORK, CochainPair, _pair_space, _require_scan, _shape
from .errors import ExprSyntaxError, ShapeMismatch, SizeCapExceeded
from .exprs import MAX_POWER_BITS, parse_expr
from .linalg import Matrix, as_fraction, vec_is_zero
from .representation import Representation


def frac_to_str(x: Fraction) -> str:
    x = as_fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# Largest |E| in a literal's decimal exponent: 10**|E| then has at most
# MAX_POWER_BITS bits, the bound exact powers use.
_MAX_EXPONENT = int(MAX_POWER_BITS / math.log2(10))


def _exponent(s: str) -> int:
    """The decimal exponent of a literal such as "1.5e-3", read without computing 10**E; 0 if none."""
    cut = max(s.rfind("e"), s.rfind("E"))
    try:
        return int(s[cut + 1 :]) if cut >= 0 else 0
    except ValueError:
        return 0  # not a valid exponent, so Fraction refuses the literal


def frac_from_json(v) -> Fraction:
    """A rational from a JSON int or a string Fraction accepts ("p/q", "1.5", "1e-9").

    A string whose decimal exponent E has |E| past ``_MAX_EXPONENT`` is
    refused before Fraction computes 10**|E|.
    """
    if isinstance(v, bool):
        raise ShapeMismatch("booleans are not rationals")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if abs(_exponent(v)) > _MAX_EXPONENT:
            raise ShapeMismatch(f"rational literal {v!r} has a decimal exponent past {_MAX_EXPONENT}")
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


def _integer(v, what: str) -> int:
    """``v`` if it is a JSON integer; booleans are not integers here."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ShapeMismatch(f"{what} must be an integer, got {v!r}")
    return v


def _as_list(v, what: str) -> list:
    """``v`` if it is a list; ``what`` names the field in the refusal."""
    if not isinstance(v, list):
        raise ShapeMismatch(f"{what} must be a list, got {v!r}")
    return v


def _list(obj: dict, key: str, what: str) -> list:
    """``obj[key]``, empty if absent, if it is a list."""
    return _as_list(obj.get(key, []), f"{what}: {key!r}")


def _objects(v, what: str) -> list:
    """``v`` if it is a list of JSON objects."""
    if not (isinstance(v, list) and all(isinstance(x, dict) for x in v)):
        raise ShapeMismatch(f"{what} must be a list of objects")
    return v


# ---------------------------------------------------------------------------
# [i, j, vector] / [i, j, k, vector] entries, shared by algebras and cochain pairs


def _entries_to_json(d: int, arity: int, value) -> list:
    """1-based entries of the nonzero values of ``value`` on index tuples with i < j (k free)."""
    out = []
    for i, j in itertools.combinations(range(d), 2):
        for rest in itertools.product(range(d), repeat=arity - 2):
            v = value((i, j, *rest))
            if not vec_is_zero(v):
                out.append([i + 1, j + 1, *(k + 1 for k in rest), vec_to_json(v)])
    return out


def _entries_from_json(entries, arity: int, d: int, length: int, what: str):
    """Yield (0-based index tuple, vector) for each 1-based entry, in file order.

    An entry is [i, j, vector] (arity 2) or [i, j, k, vector] (arity 3) with
    1 <= i < j <= d and 1 <= k <= d; each vector has ``length`` rationals.
    An index tuple may appear once.
    """
    form = "[i, j, vector]" if arity == 2 else "[i, j, k, vector]"
    if not isinstance(entries, list):
        raise ShapeMismatch(f"{what} must be a list of {form} entries")
    seen = set()
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == arity + 1):
            raise ShapeMismatch(f"{what} entries are {form}")
        *idx, vec = entry
        idx = tuple(_integer(x, f"{what} entry index") for x in idx)
        if not (1 <= idx[0] < idx[1] <= d and all(1 <= k <= d for k in idx[2:])):
            raise ShapeMismatch(f"{what} entry needs 1 <= i < j <= {d} and 1 <= k <= {d}, got {idx}")
        if idx in seen:
            raise ShapeMismatch(f"duplicate {what} entry {idx}")
        seen.add(idx)
        yield tuple(x - 1 for x in idx), vec_from_json(vec, length)


# ---------------------------------------------------------------------------
# algebras


def algebra_to_json(a: LYAlgebra) -> dict:
    return {
        "dim": a.dim,
        "name": a.name,
        "binary": _entries_to_json(a.dim, 2, lambda t: a.binary[t[0]][t[1]]),
        "ternary": _entries_to_json(a.dim, 3, lambda t: a.ternary[t[0]][t[1]][t[2]]),
    }


def algebra_from_json(obj) -> LYAlgebra:
    """The algebra of a JSON object; a dim over 27 (``cohomology._require_scan``) is refused first."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ShapeMismatch("algebra JSON must be an object with a 'dim' field")
    d = _integer(obj["dim"], "'dim'")
    if d < 0:
        raise ShapeMismatch("'dim' must be a non-negative integer")
    _require_scan(d, "an algebra")
    binary = dict(_entries_from_json(obj.get("binary", []), 2, d, d, "binary"))
    ternary = dict(_entries_from_json(obj.get("ternary", []), 3, d, d, "ternary"))
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
    e = _integer(obj["e"], "'e'")
    if e < 0:
        raise ShapeMismatch("'e' must be a non-negative integer")
    rho, dm, th = (_list(obj, key, "representation") for key in ("rho", "D", "theta"))
    if len(rho) != d or len(dm) != d or len(th) != d:
        raise ShapeMismatch("rho, D, theta must be indexed by the algebra basis")

    def family(key: str, rows: list) -> tuple:
        return tuple(
            tuple(matrix_from_json(m, (e, e)) for m in _as_list(row, f"representation: {key!r} row {n}"))
            for n, row in enumerate(rows, 1)
        )

    rho = tuple(matrix_from_json(m, (e, e)) for m in rho)
    return Representation(e, rho, family("D", dm), family("theta", th))


# ---------------------------------------------------------------------------
# (2,3)-cochain pairs


def cochain_pair_to_json(c: CochainPair) -> dict:
    if c.p != 1:
        raise ShapeMismatch("only (2,3)-cochain pairs have a file schema")
    d, e = c.f.shape.d, c.f.shape.e
    f, g = _entries_to_json(d, 2, c.f.eval_basis), _entries_to_json(d, 3, c.g.eval_basis)
    return {"p": 1, "d": d, "e": e, "f": f, "g": g}


def cochain_pair_from_json(obj, d: int, e: int) -> CochainPair:
    if not isinstance(obj, dict) or _integer(obj.get("p", 1), "'p'") != 1:
        raise ShapeMismatch("cochain JSON must be an object with p = 1")
    f, g = (_shape(groups, d, e) for groups in _pair_space(1))
    flat = [0] * (f.dim + g.dim)
    for key, arity, shape, shift in (("f", 2, f, 0), ("g", 3, g, f.dim)):
        for idx, vec in _entries_from_json(obj.get(key, []), arity, d, e, key):
            base = shift + shape.offset(idx)[1]
            flat[base : base + e] = vec
    return CochainPair.from_flat(1, d, e, flat)


# ---------------------------------------------------------------------------
# bundles


def _required(obj: dict, key: str, what: str):
    """``obj[key]``; a missing field is refused naming the object and the field."""
    if key not in obj:
        raise ShapeMismatch(f"{what} has no {key!r} field")
    return obj[key]


def _point(v, what: str) -> tuple[Fraction, ...]:
    """A sample point of the object ``what``; a bad one is refused naming the object and the field."""
    if not isinstance(v, list):
        raise ShapeMismatch(f"{what}: a point in 'samples' must be a list of rationals, got {v!r}")
    try:
        return vec_from_json(v)
    except ShapeMismatch as exc:
        raise ShapeMismatch(f"{what}: a point in 'samples': {exc}") from None


def _entry(x, what: str, row: int, col: int):
    """The parsed expression at (row, col), counted from 1, of the 'matrix' of transition ``what``."""
    try:
        return parse_expr(str(x))
    except ExprSyntaxError as exc:
        raise ShapeMismatch(f"{what}: 'matrix' row {row}, column {col}: {exc}") from None


def _evaluation_work(sizes: dict, transitions: list, triples: list) -> int:
    """Characters of expression read by evaluating every transition value a bundle's checks need.

    ``sizes`` maps (from, to) to the characters in that transition's matrix;
    each is evaluated at its own samples and, as a leg, at each sample of a
    triple overlap.
    """
    work = sum(sizes[tf.frm, tf.to] * len(tf.samples) for tf in transitions)
    for tr in triples:
        legs = ((tr.i, tr.j), (tr.j, tr.k), (tr.i, tr.k))
        work += len(tr.samples) * sum(sizes.get(leg, 0) for leg in legs)
    return work


def bundle_from_json(obj) -> BundleSpec:
    """The bundle of a JSON object, refused before any evaluation if ``_evaluation_work`` is over ``_SCAN_WORK``.

    Evaluating a transition at a point walks its expressions, so the time of
    the checks grows as expression size times samples: quadratic in the
    file size, which ``exprs.MAX_DEPTH`` alone does not bound.
    """
    if not isinstance(obj, dict) or "fiber" not in obj or "charts" not in obj:
        raise ShapeMismatch("bundle JSON must carry 'fiber' and 'charts'")
    fiber = algebra_from_json(obj["fiber"])
    charts = []
    for n, c in enumerate(_objects(obj["charts"], "'charts'")):
        name = str(_required(c, "name", f"chart {n}"))
        what = f"chart {name!r}"
        coords = tuple(str(x) for x in _list(c, "coords", what))
        charts.append(Chart(name, coords, tuple(_point(p, what) for p in _list(c, "samples", what))))
    transitions, sizes = [], {}
    for n, t in enumerate(_objects(obj.get("transitions", []), "'transitions'")):
        frm, to = (str(_required(t, key, f"transition {n}")) for key in ("from", "to"))
        what = f"transition {frm}->{to}"
        rows = _required(t, "matrix", what)
        if not (rows and isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ShapeMismatch(f"{what}: 'matrix' must be a nonempty list of rows, each a list of expressions")
        matrix = tuple(
            tuple(_entry(x, what, m, n) for n, x in enumerate(row, 1)) for m, row in enumerate(rows, 1)
        )
        samples = tuple(_point(p, what) for p in _list(t, "samples", what))
        sizes[frm, to] = sum(len(str(x)) for row in rows for x in row)
        transitions.append(TransitionFamily(frm, to, matrix, samples))
    triples = []
    for n, t in enumerate(_objects(obj.get("triples", []), "'triples'")):
        what = f"triple overlap {n}"
        i, j, k = (str(_required(t, key, what)) for key in ("i", "j", "k"))
        samples = []
        for s in _list(t, "samples", what):
            if not (isinstance(s, list) and len(s) == 3):
                raise ShapeMismatch(
                    f"{what}: samples are [point_in_chart_i, point_in_chart_j, point_in_chart_k]"
                )
            samples.append(tuple(_point(q, what) for q in s))
        triples.append(TripleOverlap(i, j, k, tuple(samples)))
    work = _evaluation_work(sizes, transitions, triples)
    if work > _SCAN_WORK:
        raise SizeCapExceeded(
            f"evaluating the transitions reads {work} expression characters, over cap x 7**3 = {_SCAN_WORK}"
        )
    return BundleSpec(fiber, tuple(charts), tuple(transitions), tuple(triples))
