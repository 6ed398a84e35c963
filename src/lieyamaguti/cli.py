"""Command-line front end.

Every invocation runs exactly one command, writes a JSON report to --out or
stdout, and exits with a stable code:

    0  pass (checks clean / computation done)
    1  checks failed (violations found)
    2  usage or input error (bad JSON, JSON nested too deeply, parse error,
       unknown example, unwritable --out, ...)
    3  internal size cap exceeded

A handler returns ``(payload, diagnostics)`` and nothing else; ``run`` builds
the envelope, judges it and writes it at one site.  The status is ``fail``,
with exit 1, exactly when there are diagnostics, and ``pass`` otherwise.  An
error envelope carries an empty payload.  When --out cannot be written, the
error envelope goes to stdout.  Axiom and RLYB reports share one violations
writer, ``_violations_json``.  Every command builds its module in
``_resolve_rep``, which refuses a trivial module whose e x e maps hold more
than --cap entries (``DEFAULT_SIZE_CAP`` where the command has no --cap)
before building it; ``rep-check``, ``semidirect`` and ``twist`` then refuse,
in ``_product_rep``, a module whose product g ⋉ V has an LY scan over
``cohomology._SCAN_WORK``, through the one guard ``cohomology._require_scan``
that ``schemas`` holds every loaded algebra to.  ``schemas.bundle_from_json``
refuses a bundle whose transition evaluations are over their own budget,
``schemas._EVAL_WORK``.

``build_parser`` builds the argparse tree once per process, and ``run``
parses each argv into a fresh namespace, so calls in one process share the
parser and no options.

The ``examples`` command emits the bare fixture JSON (byte-stable) instead of
a report envelope so its output is directly usable as an input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import algebra as alg
from . import bundle as bnd
from . import cohomology as coh
from . import representation as rep
from .errors import (
    CocycleCheckFailed,
    LieYamagutiError,
    ShapeMismatch,
    SizeCapExceeded,
)
from .fixtures import FIXTURES, fixture, render
from .linalg import Matrix
from .schemas import (
    algebra_from_json,
    algebra_to_json,
    bundle_from_json,
    cochain_pair_from_json,
    frac_from_json,
    frac_to_str,
    matrix_to_json,
    representation_from_json,
    vec_to_json,
)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ShapeMismatch(f"{path}: JSON nested too deeply to read") from None


def _resolve_rep(args, a: alg.LYAlgebra, cap: int = coh.DEFAULT_SIZE_CAP) -> rep.Representation:
    """The module of --rep and --rep-dim; the one place every command builds it.

    A trivial module holds no map, so nothing of size e x e is built here,
    but ``cap`` still bounds its dimension: e * e may be at most ``cap``
    (e <= 223 at the default cap).  The bounds each command applies later
    grow only linearly in e (the coordinates of C^(2p+3) in
    ``cohomology._check_cap``, the product's dimension d + e in
    ``cohomology._require_scan``), so on their own they would admit far
    larger modules.
    """
    e = args.rep_dim
    if args.rep == "trivial" and e > 0 and e * e > cap:
        raise SizeCapExceeded(f"trivial module of dimension {e} is over the cap: e x e = {e * e}, cap is {cap}")
    if args.rep == "adjoint":
        return rep.adjoint(a)
    if args.rep == "trivial":
        return rep.trivial_rep(a, e)
    return representation_from_json(_load_json(args.rep), a.dim)


def _product_rep(args, a: alg.LYAlgebra) -> rep.Representation:
    """The module of ``rep-check``, ``semidirect`` or ``twist``, refused if g ⋉ V is over the scan budget.

    The RLYB conditions hold exactly when g ⋉ V is an LY algebra, so
    ``rep-check`` is bounded where the product is, before any check runs.
    """
    r = _resolve_rep(args, a)
    coh._require_scan(a.dim + r.e, "a product g ⋉ V")
    return r


def _violations_json(report, defect_json) -> dict:
    """An axiom or RLYB report: its verdict and each violation's 1-based tuple and defect."""
    return {
        "ok": report.ok,
        "violations": {
            name: [{"tuple": [i + 1 for i in tup], "defect": defect_json(defect)} for tup, defect in entries]
            for name, entries in report.violations.items()
            if entries
        },
    }


def _failure_json(f: bnd.CocycleFailure) -> dict:
    """A bundle failure; a triple overlap's point is three points, an exact norm a rational string."""
    if f.point is None:
        point = None
    elif f.point and isinstance(f.point[0], tuple):
        point = [vec_to_json(q) for q in f.point]
    else:
        point = vec_to_json(f.point)
    norm = frac_to_str(f.defect_norm) if isinstance(f.defect_norm, Fraction) else f.defect_norm
    return {"kind": f.kind, "where": f.where, "point": point, "defect_norm": norm, "detail": f.detail}


def _cocycle_report_json(report: bnd.CocycleReport) -> dict:
    return {
        "ok": report.ok,
        "mode": report.mode.kind,
        "tolerance": report.mode.tol if report.mode.kind == "float" else None,
        "checks": report.checks,
        "failures": [_failure_json(f) for f in report.failures],
    }


def _parse_mode(args) -> bnd.EvalMode:
    """EvalMode from --mode and --tol; EvalMode holds the default tolerance."""
    if args.tol is None:
        return bnd.EvalMode(args.mode)
    try:
        tol = float(frac_from_json(args.tol))
    except (ShapeMismatch, OverflowError):
        raise ShapeMismatch(f"--tol {args.tol!r} is not a finite positive number") from None
    return bnd.EvalMode(args.mode, tol)


class _UsageError(Exception):
    """An argparse usage error, carrying the command it happened in ("?" if unknown)."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError instead of exiting, so ``run`` can write the envelope."""

    def error(self, message):
        self.print_usage(sys.stderr)
        words = self.prog.split()
        raise _UsageError(words[1] if len(words) > 1 else "?", message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command, built once per process."""
    ap = _Parser(
        prog="lieyamaguti",
        description="Exact checks and cohomology for Lie-Yamaguti algebras and sampled bundles",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the JSON report to this path instead of stdout")

    def add_rep(p):
        p.add_argument(
            "--rep",
            default="adjoint",
            help="coefficient representation: adjoint | trivial | PATH to a representation JSON",
        )
        p.add_argument(
            "--rep-dim",
            type=int,
            default=1,
            help="module dimension for --rep trivial (default 1)",
        )

    p = sub.add_parser("check", help="validate LY1..LY6 for an algebra file")
    p.add_argument("input")
    add_out(p)

    p = sub.add_parser("derivations", help="basis of the derivation algebra")
    p.add_argument("input")
    add_out(p)

    p = sub.add_parser("cohomology", help="H^(2,3) / H^(2p,2p+1) dimensions")
    p.add_argument("input")
    p.add_argument("--p", type=int, default=1, dest="level", help="cochain level p (default 1)")
    p.add_argument("--cap", type=int, default=coh.DEFAULT_SIZE_CAP, help="cochain size cap")
    add_rep(p)
    add_out(p)

    p = sub.add_parser("rep-check", help="validate RLYB1..RLYB6 for a representation")
    p.add_argument("input")
    add_rep(p)
    add_out(p)

    p = sub.add_parser("semidirect", help="semi-direct product algebra g ⋉ V")
    p.add_argument("input")
    add_rep(p)
    add_out(p)

    p = sub.add_parser("twist", help="twisted semi-direct product by a (2,3)-cochain")
    p.add_argument("input")
    add_rep(p)
    p.add_argument("--tau", help="path to a (2,3)-cochain pair JSON")
    p.add_argument(
        "--tau-cocycle",
        type=int,
        default=None,
        help="use the k-th basis cocycle of Z^(2,3) instead of --tau",
    )
    add_out(p)

    p = sub.add_parser("bundle-check", help="cocycle/automorphism verification for a bundle")
    p.add_argument("input")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--tol", help="absolute entrywise tolerance for float mode (default 1e-9)")
    add_out(p)

    p = sub.add_parser("bundle-cohomology", help="fibrewise cohomology dims over all samples")
    p.add_argument("input")
    p.add_argument("--which", choices=("h1", "h23", "upper", "der"), default="h1")
    p.add_argument("--p", type=int, default=2, dest="level", help="level for --which upper")
    p.add_argument("--cap", type=int, default=coh.DEFAULT_SIZE_CAP)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--tol", help="absolute entrywise tolerance for float mode")
    add_out(p)

    p = sub.add_parser("examples", help="emit a bundled fixture JSON")
    p.add_argument("name", choices=sorted(FIXTURES))
    add_out(p)
    return ap


def _report(command: str, status: str, payload: dict, diagnostics: list[str]) -> str:
    envelope = {"command": command, "status": status, "payload": payload, "diagnostics": diagnostics}
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _cmd_check(args) -> tuple[dict, list[str]]:
    a = algebra_from_json(_load_json(args.input))
    report = alg.check_axioms(a)
    payload = {"dim": a.dim, "name": a.name, "axioms": _violations_json(report, vec_to_json)}
    return payload, [] if report.ok else [report.summary()]


def _cmd_derivations(args) -> tuple[dict, list[str]]:
    a = algebra_from_json(_load_json(args.input))
    basis = alg.derivations(a)
    payload = {
        "dim": basis.dim,
        "basis": [matrix_to_json(Matrix(a.dim, a.dim, v)) for v in basis.vectors],
    }
    return payload, []


def _cmd_cohomology(args) -> tuple[dict, list[str]]:
    a = algebra_from_json(_load_json(args.input))
    r = _resolve_rep(args, a, args.cap)
    if args.level < 1:
        raise ShapeMismatch("--p must be >= 1")
    if args.level == 1:
        res = coh.h23(a, r, cap=args.cap)
        # H^1 = ker delta_zero, whose dimension is dim C^1 - dim B^(2,3) by rank-nullity
        dimH1 = coh.cochain_dim(1, a.dim, r.e) - res.dim_b
        extra = {"dimH23": res.dim, "dimH1": dimH1, "reading": coh.Z23_READING}
    else:
        res = coh.h_upper(a, r, args.level, cap=args.cap)
        extra = {}
    payload = {
        "p": args.level,
        "dimZ": res.dim_z,
        "dimB": res.dim_b,
        "dimH": res.dim,
        "delta_squared_zero": res.delta_squared_zero,
        **extra,
    }
    return payload, []


def _cmd_rep_check(args) -> tuple[dict, list[str]]:
    a = algebra_from_json(_load_json(args.input))
    r = _product_rep(args, a)
    report = rep.check_representation(a, r)
    payload = {**_violations_json(report, matrix_to_json), "rlyb7_ok": not report.rlyb7_violations}
    return payload, [] if report.ok else [f"violated: {', '.join(report.violated())}"]


def _product_report(product: alg.LYAlgebra, **extra) -> tuple[dict, list[str]]:
    """The report of a semi-direct or twisted product: the algebra and its one axiom check."""
    report = alg.check_axioms(product)
    payload = {
        "algebra": algebra_to_json(product),
        "axioms_ok": report.ok,
        "violated_axioms": report.violated_axioms(),
        **extra,
    }
    return payload, [] if report.ok else [report.summary()]


def _cmd_semidirect(args) -> tuple[dict, list[str]]:
    a = algebra_from_json(_load_json(args.input))
    return _product_report(rep.semidirect(a, _product_rep(args, a)))


def _cmd_twist(args) -> tuple[dict, list[str]]:
    a = algebra_from_json(_load_json(args.input))
    r = _product_rep(args, a)
    if (args.tau is None) == (args.tau_cocycle is None):
        raise ShapeMismatch("twist needs exactly one of --tau PATH or --tau-cocycle K")
    if args.tau is not None:
        tau = cochain_pair_from_json(_load_json(args.tau), a.dim, r.e)
    else:
        res = coh.h23(a, r)
        k = args.tau_cocycle
        if not 0 <= k < res.z_basis.dim:
            raise ShapeMismatch(
                f"--tau-cocycle index {k} out of range (dim Z = {res.z_basis.dim})"
            )
        tau = coh.CochainPair.from_flat(1, a.dim, r.e, list(res.z_basis.vectors[k]))
    is_cocycle = coh.delta(a, r, tau).is_zero() and all(
        c.is_zero() for c in coh.delta_star(a, r, tau)
    )
    return _product_report(rep.twisted_semidirect(a, r, tau), tau_is_cocycle=is_cocycle)


def _cmd_bundle_check(args) -> tuple[dict, list[str]]:
    b = bundle_from_json(_load_json(args.input))
    report = bnd.check_cocycle(b, _parse_mode(args))
    return _cocycle_report_json(report), [] if report.ok else [f"{len(report.failures)} failures"]


def _cmd_bundle_cohomology(args) -> tuple[dict, list[str]]:
    b = bundle_from_json(_load_json(args.input))
    mode = _parse_mode(args)
    try:
        res = bnd.bundle_cohomology(b, args.which, args.level, mode, cap=args.cap)
    except CocycleCheckFailed as exc:
        return {"cocycle": _cocycle_report_json(exc.report)}, [str(exc)]
    failures = [_failure_json(f) for f in res.transport_failures]
    if res.which == "der":
        payload = {"which": "der", "conjugation_ok": res.constant, "conjugation_failures": failures}
    else:
        payload = {"which": res.which, "p": res.p}
    payload["per_point"] = [{"chart": x.chart, "point": vec_to_json(x.point), **x.dims} for x in res.points]
    payload["constant"] = res.constant
    if failures:
        payload["transport_failures"] = failures
    return payload, [] if res.constant else [f"{len(failures)} transport failures"]


_HANDLERS = {
    "check": _cmd_check,
    "derivations": _cmd_derivations,
    "cohomology": _cmd_cohomology,
    "rep-check": _cmd_rep_check,
    "semidirect": _cmd_semidirect,
    "twist": _cmd_twist,
    "bundle-check": _cmd_bundle_check,
    "bundle-cohomology": _cmd_bundle_cohomology,
}


def _outcome(args) -> tuple[str, int]:
    """The report text of one parsed command and its exit code: the envelope, or a bare fixture."""
    command = args.command
    if command == "examples":
        return render(fixture(args.name)), 0
    try:
        payload, diagnostics = _HANDLERS[command](args)
    except SizeCapExceeded as exc:
        return _report(command, "error", {}, [str(exc)]), 3
    except LieYamagutiError as exc:
        return _report(command, "error", {}, [str(exc)]), 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        return _report(command, "error", {}, [f"{type(exc).__name__}: {exc}"]), 2
    if diagnostics:
        return _report(command, "fail", payload, diagnostics), 1
    return _report(command, "pass", payload, diagnostics), 0


def run(argv: list[str] | None = None) -> int:
    """Parse argv, run one command, write its report at one site, return the exit code (never raises)."""
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        command, out = exc.command, None
        text, code = _report(command, "error", {}, [str(exc)]), 2
    except SystemExit as exc:
        return 2 if exc.code else 0
    else:
        command, out = args.command, args.out
        text, code = _outcome(args)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:
            text, code = _report(command, "error", {}, [f"--out: {type(exc).__name__}: {exc}"]), 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
