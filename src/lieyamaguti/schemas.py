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
``exprs.MAX_POWER_BITS`` bits, before computing it.  Algebra, cochain-pair
and bundle-sample loads read it through one per-load memo, ``_rationals``,
so each distinct literal is parsed once per load.  Lists are read with
``_list``/``_as_list``, which name the field they refuse.  Every algebra,
bundle fibres included, has its dimension bounded before it is built
(``cohomology._require_scan``), and every bundle its evaluation work, the
characters of expression its checks evaluate, by its own budget
``_EVAL_WORK``, before any evaluation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import LYAlgebra, from_sparse
from .bundle import BundleSpec, Chart, TransitionFamily, TripleOverlap
from .cohomology import CochainPair, _pair_space, _require_scan, _shape
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


def _rationals(v: list, parsed: dict) -> tuple[Fraction, ...]:
    """``frac_from_json`` of each literal in ``v``, read once per load through the memo ``parsed``.

    ``parsed`` maps (JSON type, literal) to the rational already read from
    it in this load.  The type keeps ``true`` and ``1.0``, which are refused,
    off the entry of ``1``; a refused literal is not remembered, so each
    occurrence is refused where it stands.
    """
    out = []
    for x in v:
        key = (type(x), x) if type(x) in (int, str) else None
        value = parsed.get(key)
        if value is None:
            value = frac_from_json(x)
            if key is not None:
                parsed[key] = value
        out.append(value)
    return tuple(out)


def vec_to_json(v) -> list[str]:
    return [frac_to_str(x) for x in v]


def vec_from_json(v, length: int | None, parsed: dict) -> tuple[Fraction, ...]:
    """A vector of rationals, read through the load's memo ``parsed`` (``_rationals``)."""
    if not isinstance(v, list):
        raise ShapeMismatch("expected a list of rationals")
    out = _rationals(v, parsed)
    if length is not None and len(out) != length:
        raise ShapeMismatch(f"expected a vector of length {length}, got {len(out)}")
    return out


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [vec_to_json(m.row(i)) for i in range(m.rows)]


def _map_from_json(rows, e: int, parsed: dict) -> tuple[Fraction, ...]:
    """The e*e entries, row by row, of an e x e module map given as a list of rows, read through the memo ``parsed``."""
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ShapeMismatch("expected a matrix as a list of rows")
    rows = [_rationals(r, parsed) for r in rows]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatch("ragged rows")
    if (len(rows), len(rows[0])) != (e, e):
        raise ShapeMismatch(f"expected a {e}x{e} matrix, got {len(rows)}x{len(rows[0])}")
    return tuple(itertools.chain.from_iterable(rows))


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


def _entries_from_json(entries, arity: int, d: int, length: int, what: str, parsed: dict):
    """Yield (0-based index tuple, vector) for each 1-based entry, in file order.

    An entry is [i, j, vector] (arity 2) or [i, j, k, vector] (arity 3) with
    1 <= i < j <= d and 1 <= k <= d; each vector has ``length`` rationals,
    read through the load's memo ``parsed``.  An index tuple may appear once.
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
        yield tuple(x - 1 for x in idx), vec_from_json(vec, length, parsed)


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
    """The algebra of a JSON object; a dim over 27 (``cohomology._require_scan``) is refused first.

    Each distinct structure-constant literal is parsed once per call.
    """
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ShapeMismatch("algebra JSON must be an object with a 'dim' field")
    d = _integer(obj["dim"], "'dim'")
    if d < 0:
        raise ShapeMismatch("'dim' must be a non-negative integer")
    _require_scan(d, "an algebra")
    parsed = {}
    binary = dict(_entries_from_json(obj.get("binary", []), 2, d, d, "binary", parsed))
    ternary = dict(_entries_from_json(obj.get("ternary", []), 3, d, d, "ternary", parsed))
    return from_sparse(d, binary, ternary, str(obj.get("name", "")))


# ---------------------------------------------------------------------------
# representations


def representation_to_json(r: Representation) -> dict:
    """The module's maps as e x e matrices of rational strings, written from its stored rows."""

    def matrix(rows: tuple, scale: int) -> list[list[str]]:
        out = [["0"] * r.e for _ in range(r.e)]
        for m, row in enumerate(rows):
            for c, x in row:
                out[m][c] = frac_to_str(Fraction(x, scale))
        return out

    rho, dmap, theta = r._indexed()
    den, den2 = r._den, r._den**2
    return {
        "e": r.e,
        "rho": [matrix(m, den) for m in rho],
        "D": [[matrix(m, den2) for m in row] for row in dmap],
        "theta": [[matrix(m, den2) for m in row] for row in theta],
    }


def representation_from_json(obj, d: int) -> Representation:
    """The module of a JSON object, cleared straight into the stored form.

    Each distinct entry literal is parsed once per call.
    """
    if not isinstance(obj, dict) or "e" not in obj:
        raise ShapeMismatch("representation JSON must be an object with an 'e' field")
    e = _integer(obj["e"], "'e'")
    if e < 0:
        raise ShapeMismatch("'e' must be a non-negative integer")
    rho, dm, th = (_list(obj, key, "representation") for key in ("rho", "D", "theta"))
    if len(rho) != d or len(dm) != d or len(th) != d:
        raise ShapeMismatch("rho, D, theta must be indexed by the algebra basis")
    parsed = {}

    def family(key: str, rows: list) -> list:
        return [
            [_map_from_json(m, e, parsed) for m in _as_list(row, f"representation: {key!r} row {n}")]
            for n, row in enumerate(rows, 1)
        ]

    rho = [_map_from_json(m, e, parsed) for m in rho]
    return Representation._from_flat(e, rho, family("D", dm), family("theta", th))


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
    flat, parsed = [0] * (f.dim + g.dim), {}
    for key, arity, shape, shift in (("f", 2, f, 0), ("g", 3, g, f.dim)):
        for idx, vec in _entries_from_json(obj.get(key, []), arity, d, e, key, parsed):
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


def _point(v, what: str, parsed: dict) -> tuple[Fraction, ...]:
    """A sample point of the object ``what``, read through the load's memo ``parsed`` (``_rationals``).

    A bad point is refused naming the object and the field.
    """
    if not isinstance(v, list):
        raise ShapeMismatch(f"{what}: a point in 'samples' must be a list of rationals, got {v!r}")
    try:
        return _rationals(v, parsed)
    except ShapeMismatch as exc:
        raise ShapeMismatch(f"{what}: a point in 'samples': {exc}") from None


def _entry(x, what: str, row: int, col: int):
    """The parsed expression at (row, col), counted from 1, of the 'matrix' of transition ``what``."""
    try:
        return parse_expr(str(x))
    except ExprSyntaxError as exc:
        raise ShapeMismatch(f"{what}: 'matrix' row {row}, column {col}: {exc}") from None


# Characters of expression a bundle's checks may evaluate.  Exact evaluation
# costs about 0.15 us per character when no subtree repeats (a balanced sum of
# the 2 048 distinct terms k*t at 46 samples, 985 136 characters, takes
# 0.14-0.16 s in exact bundle-check on a 2-core x86-64 machine with Python
# 3.11, median of 5), so the budget bounds that to well under a second.  That
# is an upper bound: a subtree that occurs more than once is evaluated once
# per point, and the sum t + t + ... of 2 048 terms at 81 samples (994 923
# characters) takes about 0.02 s.  The benchmark's largest atlas reads 97 344.
_EVAL_WORK = 10**6


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
    """The bundle of a JSON object, refused before any evaluation if ``_evaluation_work`` is over ``_EVAL_WORK``.

    Evaluating a transition at a point runs one instruction per distinct
    subtree of its expressions, so the time of the checks grows as
    expression size times samples: quadratic in the file size, which
    ``exprs.MAX_DEPTH`` alone does not bound.  Each distinct sample literal
    is parsed once per call, in a dict this call holds and drops.
    """
    if not isinstance(obj, dict) or "fiber" not in obj or "charts" not in obj:
        raise ShapeMismatch("bundle JSON must carry 'fiber' and 'charts'")
    fiber = algebra_from_json(obj["fiber"])
    charts, parsed = [], {}
    for n, c in enumerate(_objects(obj["charts"], "'charts'")):
        name = str(_required(c, "name", f"chart {n}"))
        what = f"chart {name!r}"
        coords = tuple(str(x) for x in _list(c, "coords", what))
        charts.append(Chart(name, coords, tuple(_point(p, what, parsed) for p in _list(c, "samples", what))))
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
        samples = tuple(_point(p, what, parsed) for p in _list(t, "samples", what))
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
            samples.append(tuple(_point(q, what, parsed) for q in s))
        triples.append(TripleOverlap(i, j, k, tuple(samples)))
    work = _evaluation_work(sizes, transitions, triples)
    if work > _EVAL_WORK:
        raise SizeCapExceeded(
            f"evaluating the transitions reads {work} expression characters, over the evaluation budget {_EVAL_WORK}"
        )
    return BundleSpec(fiber, tuple(charts), tuple(transitions), tuple(triples))
