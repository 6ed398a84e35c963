"""Command-line front end.

Every invocation runs exactly one command, writes a JSON report to --out or
stdout, and exits with a stable code:

    0  pass (checks clean / computation done)
    1  checks failed (violations found)
    2  usage or input error (bad JSON, parse error, unknown example, ...)
    3  internal size cap exceeded

The ``examples`` command emits the bare fixture JSON (byte-stable) instead of
a report envelope so its output is directly usable as an input file.
"""

from __future__ import annotations

import argparse
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
    frac_to_str,
    matrix_to_json,
    representation_from_json,
    vec_to_json,
)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_rep(selector: str, a: alg.LYAlgebra, rep_dim: int) -> rep.Representation:
    if selector == "adjoint":
        return rep.adjoint(a)
    if selector == "trivial":
        return rep.trivial_rep(a, rep_dim)
    return representation_from_json(_load_json(selector), a.dim)


def _axiom_report_json(report: alg.AxiomReport) -> dict:
    return {
        "ok": report.ok,
        "violations": {
            ax: [
                {"tuple": [i + 1 for i in tup], "defect": vec_to_json(defect)}
                for tup, defect in entries
            ]
            for ax, entries in report.violations.items()
            if entries
        },
    }


def _rep_report_json(report: rep.RepReport) -> dict:
    return {
        "ok": report.ok,
        "violations": {
            cond: [
                {"tuple": [i + 1 for i in tup], "defect": matrix_to_json(defect)}
                for tup, defect in entries
            ]
            for cond, entries in report.violations.items()
            if entries
        },
        "rlyb7_ok": not report.rlyb7_violations,
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
        tol = float(Fraction(args.tol))
    except (ValueError, ZeroDivisionError, OverflowError):
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


def build_parser() -> argparse.ArgumentParser:
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


def _emit(args, report: dict) -> None:
    _write(args, json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write(args, text: str) -> None:
    """Write text to --out, or to stdout without one."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, status: str, payload: dict, diagnostics: list[str]) -> dict:
    return {"command": command, "status": status, "payload": payload, "diagnostics": diagnostics}


def _cmd_check(args) -> int:
    a = algebra_from_json(_load_json(args.input))
    report = alg.check_axioms(a)
    payload = {"dim": a.dim, "name": a.name, "axioms": _axiom_report_json(report)}
    diags = [] if report.ok else [report.summary()]
    _emit(args, _report("check", "pass" if report.ok else "fail", payload, diags))
    return 0 if report.ok else 1


def _cmd_derivations(args) -> int:
    a = algebra_from_json(_load_json(args.input))
    basis = alg.derivations(a)
    payload = {
        "dim": basis.dim,
        "basis": [matrix_to_json(Matrix(a.dim, a.dim, v)) for v in basis.vectors],
    }
    _emit(args, _report("derivations", "pass", payload, []))
    return 0


def _cmd_cohomology(args) -> int:
    a = algebra_from_json(_load_json(args.input))
    # h23 and h_upper validate the algebra, so its adjoint module is built unchecked
    r = rep._adjoint(a) if args.rep == "adjoint" else _resolve_rep(args.rep, a, args.rep_dim)
    if args.level < 1:
        raise ShapeMismatch("--p must be >= 1")
    if args.level == 1:
        res = coh.h23(a, r, cap=args.cap)
        extra = {"dimH23": res.dim, "dimH1": res.h1()[0], "reading": res.reading}
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
    _emit(args, _report("cohomology", "pass", payload, []))
    return 0


def _cmd_rep_check(args) -> int:
    a = algebra_from_json(_load_json(args.input))
    r = _resolve_rep(args.rep, a, args.rep_dim)
    report = rep.check_representation(a, r)
    payload = _rep_report_json(report)
    diags = [] if report.ok else [f"violated: {', '.join(report.violated())}"]
    _emit(args, _report("rep-check", "pass" if report.ok else "fail", payload, diags))
    return 0 if report.ok else 1


def _cmd_semidirect(args) -> int:
    a = algebra_from_json(_load_json(args.input))
    r = _resolve_rep(args.rep, a, args.rep_dim)
    product = rep.semidirect(a, r)
    report = alg.check_axioms(product)
    payload = {
        "algebra": algebra_to_json(product),
        "axioms_ok": report.ok,
        "violated_axioms": report.violated_axioms(),
    }
    diags = [] if report.ok else [report.summary()]
    _emit(args, _report("semidirect", "pass" if report.ok else "fail", payload, diags))
    return 0 if report.ok else 1


def _cmd_twist(args) -> int:
    a = algebra_from_json(_load_json(args.input))
    r = _resolve_rep(args.rep, a, args.rep_dim)
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
    product = rep.twisted_semidirect(a, r, tau)
    report = alg.check_axioms(product)
    payload = {
        "algebra": algebra_to_json(product),
        "axioms_ok": report.ok,
        "violated_axioms": report.violated_axioms(),
        "tau_is_cocycle": is_cocycle,
    }
    diags = [] if report.ok else [report.summary()]
    _emit(args, _report("twist", "pass" if report.ok else "fail", payload, diags))
    return 0 if report.ok else 1


def _cmd_bundle_check(args) -> int:
    b = bundle_from_json(_load_json(args.input))
    report = bnd.check_cocycle(b, _parse_mode(args))
    payload = _cocycle_report_json(report)
    diags = [] if report.ok else [f"{len(report.failures)} failures"]
    _emit(args, _report("bundle-check", "pass" if report.ok else "fail", payload, diags))
    return 0 if report.ok else 1


def _cmd_bundle_cohomology(args) -> int:
    b = bundle_from_json(_load_json(args.input))
    mode = _parse_mode(args)
    try:
        res = bnd.bundle_cohomology(b, args.which, args.level, mode, cap=args.cap)
    except CocycleCheckFailed as exc:
        payload = {"cocycle": _cocycle_report_json(exc.report)}
        _emit(args, _report("bundle-cohomology", "fail", payload, [str(exc)]))
        return 1
    failures = [_failure_json(f) for f in res.transport_failures]
    if res.which == "der":
        payload = {"which": "der", "conjugation_ok": res.constant, "conjugation_failures": failures}
    else:
        payload = {"which": res.which, "p": res.p}
    payload["per_point"] = [{"chart": x.chart, "point": vec_to_json(x.point), **x.dims} for x in res.points]
    payload["constant"] = res.constant
    if failures:
        payload["transport_failures"] = failures
    diags = [] if res.constant else [f"{len(failures)} transport failures"]
    _emit(args, _report("bundle-cohomology", "pass" if res.constant else "fail", payload, diags))
    return 0 if res.constant else 1


def _cmd_examples(args) -> int:
    _write(args, render(fixture(args.name)))
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "derivations": _cmd_derivations,
    "cohomology": _cmd_cohomology,
    "rep-check": _cmd_rep_check,
    "semidirect": _cmd_semidirect,
    "twist": _cmd_twist,
    "bundle-check": _cmd_bundle_check,
    "bundle-cohomology": _cmd_bundle_cohomology,
    "examples": _cmd_examples,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv, run one command, return the exit code (never raises)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit(None, _report(exc.command, "error", {}, [str(exc)]))
        return 2
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except SizeCapExceeded as exc:
        _emit_error(args, str(exc))
        return 3
    except LieYamagutiError as exc:
        _emit_error(args, str(exc))
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        _emit_error(args, f"{type(exc).__name__}: {exc}")
        return 2


def _emit_error(args, message: str) -> None:
    _emit(args, _report(getattr(args, "command", "?"), "error", {}, [message]))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
