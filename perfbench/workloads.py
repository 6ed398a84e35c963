"""Seeded inputs, op lists and pinned expected results of the three workloads.

Everything the program under test receives is generated here from the
workload seed: algebra files (structure constants written out by this module,
not by the library's own constructors), bundle atlases, and the cochains,
maps and matrices of the ``pointwise`` ops.  Each op has a timed part (only
calls into ``lieyamaguti``) and an untimed check against a pinned result or an
independent oracle.

Seeds change the inputs without changing the answers: algebras are written in
a seeded signed-permutation basis (an isomorphism, so every cohomology
dimension is invariant and the sparsity pattern is kept), and bundle sample
points and pointwise cochains are seeded rationals.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("cohomology-scale", "pointwise", "bundle-atlas")

# op groups that feed the per-workload summed timings
GROUP_P1 = "cohomology_p1"
GROUP_P2 = "cohomology_p2"
GROUP_BUNDLE_CHECK = "bundle_check"
GROUP_BUNDLE_COHOMOLOGY = "bundle_cohomology"

POINTWISE_OPS = 108  # >= 100, a multiple of 9 so every (algebra, kind) pair is equally frequent
ATLAS_CHARTS = 6  # charts in the cycle of atlases (a) and (b)
ATLAS_TRANSITION_SAMPLES = 96  # overlap samples per transition in (a) and (b)
ATLAS_TRIPLE_SAMPLES = 8  # samples per (U_k, U_k+1, U_k) triple overlap
CIRCLE_CHART_SAMPLES = 12  # per chart of atlas (c); two charts give 24 fibre samples
CIRCLE_TRANSITION_SAMPLES = 6


@dataclass
class Op:
    """One closed-loop request: ``timed()`` calls the program, ``check`` judges it."""

    name: str
    group: str
    timed: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


@dataclass
class Workload:
    ops: list[Op]
    probe: Callable[[], dict] | None = None  # untimed known-defect probe


# ---------------------------------------------------------------------------
# structure constants, written independently of the library


def _zero_tensors(d: int):
    z = [Fraction(0)] * d
    binary = [[list(z) for _ in range(d)] for _ in range(d)]
    ternary = [[[list(z) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    return binary, ternary


def _unit(d: int, k: int) -> list[Fraction]:
    v = [Fraction(0)] * d
    v[k] = Fraction(1)
    return v


def tensors_3dim():
    """[e1,e2] = e3 and {e1,e2,e1} = e3."""
    b, t = _zero_tensors(3)
    e3 = _unit(3, 2)
    b[0][1], b[1][0] = e3, [-x for x in e3]
    t[0][1][0], t[1][0][0] = e3, [-x for x in e3]
    return b, t


def tensors_meson(n: int):
    """Lie triple system {G_i, G_j, G_k} = delta_ki G_j - delta_kj G_i."""
    b, t = _zero_tensors(n)
    for i, j, k in itertools.product(range(n), repeat=3):
        if k == i:
            t[i][j][k][j] += 1
        if k == j:
            t[i][j][k][i] -= 1
    return b, t


def tensors_crossproduct_lie():
    """Cross product on Q^3 with {a, b, c} = [[a, b], c]."""
    b, t = _zero_tensors(3)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        b[i][j] = _unit(3, k)
        b[j][i] = [-x for x in _unit(3, k)]
    for i, j, k in itertools.product(range(3), repeat=3):
        t[i][j][k] = [sum(b[i][j][m] * b[m][k][r] for m in range(3)) for r in range(3)]
    return b, t


def signed_permutation(d: int, rng: random.Random) -> tuple[list[int], list[int]]:
    perm = list(range(d))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(d)]


def rebase(tensors, perm: list[int], signs: list[int]):
    """Structure constants in the basis e'_i = s_i e_perm(i)."""
    b, t = tensors
    d = len(b)
    nb, nt = _zero_tensors(d)
    for i, j, m in itertools.product(range(d), repeat=3):
        nb[i][j][m] = signs[i] * signs[j] * signs[m] * b[perm[i]][perm[j]][perm[m]]
        for k in range(d):
            s = signs[i] * signs[j] * signs[k] * signs[m]
            nt[i][j][k][m] = s * t[perm[i]][perm[j]][perm[k]][perm[m]]
    return nb, nt


def _q(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def algebra_json(tensors, name: str) -> dict:
    """The library's algebra file format: i < j representatives, 1-based."""
    b, t = tensors
    d = len(b)
    binary, ternary = [], []
    for i in range(d):
        for j in range(i + 1, d):
            if any(b[i][j]):
                binary.append([i + 1, j + 1, [_q(x) for x in b[i][j]]])
            for k in range(d):
                if any(t[i][j][k]):
                    ternary.append([i + 1, j + 1, k + 1, [_q(x) for x in t[i][j][k]]])
    return {"dim": d, "name": name, "binary": binary, "ternary": ternary}


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


# ---------------------------------------------------------------------------
# cohomology-scale: in-process CLI jobs with pinned payloads

_READING = "Z23 = ker(delta) ∩ ker(delta_star) on pairs (f, g)"


def _p1_payload(z: int, b: int, h1: int) -> dict:
    return {
        "p": 1,
        "dimZ": z,
        "dimB": b,
        "dimH": z - b,
        "dimH23": z - b,
        "dimH1": h1,
        "delta_squared_zero": True,
        "reading": _READING,
    }


# (algebra, level, extra CLI flags, expected payload, op group).  The 3dim p=1
# payload equals tests/golden/report_cohomology_3dim.json; the others are the
# seed commit's answers, which are basis-independent.
COHOMOLOGY_JOBS = (
    ("3dim", 1, (), _p1_payload(14, 5, 4), GROUP_P1),
    ("meson3", 1, (), _p1_payload(7, 6, 3), GROUP_P1),
    ("crossproduct-lie", 1, (), _p1_payload(7, 6, 3), GROUP_P1),
    ("meson4", 1, (), _p1_payload(10, 10, 6), GROUP_P1),
    ("meson5", 1, ("--rep", "trivial"), _p1_payload(5, 5, 0), GROUP_P1),
    ("3dim", 2, (), {"p": 2, "dimZ": 42, "dimB": 20, "dimH": 22, "delta_squared_zero": True}, GROUP_P2),
)

ALGEBRAS = {
    "3dim": tensors_3dim,
    "meson3": lambda: tensors_meson(3),
    "meson4": lambda: tensors_meson(4),
    "meson5": lambda: tensors_meson(5),
    "crossproduct-lie": tensors_crossproduct_lie,
}


def _write_algebras(names, rng: random.Random, workdir: Path) -> dict[str, str]:
    paths = {}
    for name in names:
        tensors = ALGEBRAS[name]()
        perm, signs = signed_permutation(len(tensors[0]), rng)
        paths[name] = _write(workdir / f"{name}.json", algebra_json(rebase(tensors, perm, signs), name))
    return paths


def _cli_op(ly, name: str, group: str, argv: list[str], out: Path, check) -> Op:
    def timed():
        return ly.cli.run(argv + ["--out", str(out)])

    def judge(code):
        report = json.loads(out.read_text(encoding="utf-8"))
        return check(code, report)

    return Op(name, group, timed, judge)


def _expect_envelope(command: str, payload: dict):
    expected = {"command": command, "status": "pass", "payload": payload, "diagnostics": []}

    def check(code, report):
        if code != 0:
            return False, f"exit code {code}: {report.get('diagnostics')}"
        if report != expected:
            return False, f"payload {report.get('payload')} != pinned {payload}"
        return True, ""

    return check


def build_cohomology_scale(ly, rng: random.Random, workdir: Path) -> Workload:
    paths = _write_algebras(sorted({job[0] for job in COHOMOLOGY_JOBS}), rng, workdir)
    ops = []
    for n, (alg, level, flags, payload, group) in enumerate(COHOMOLOGY_JOBS):
        argv = ["cohomology", paths[alg], "--p", str(level), *flags]
        name = f"cohomology {alg} --p {level} {' '.join(flags)}".strip()
        ops.append(_cli_op(ly, name, group, argv, workdir / f"out{n}.json", _expect_envelope("cohomology", payload)))
    return Workload(ops)


# ---------------------------------------------------------------------------
# pointwise: library calls, one cochain or one representation at a time

POINTWISE_ALGEBRAS = ("3dim", "meson3", "crossproduct-lie")
POINTWISE_KINDS = ("coboundary-twist", "random-twist", "perturbed-rep")


def build_pointwise(ly, rng: random.Random, workdir: Path) -> Workload:
    from lieyamaguti.schemas import algebra_from_json

    paths = _write_algebras(POINTWISE_ALGEBRAS, rng, workdir)
    models = {}
    for name in POINTWISE_ALGEBRAS:
        a = algebra_from_json(json.loads(Path(paths[name]).read_text(encoding="utf-8")))
        models[name] = (a, ly.adjoint(a))

    specs = []
    for k in range(POINTWISE_OPS):
        alg = POINTWISE_ALGEBRAS[k % 3]
        kind = POINTWISE_KINDS[(k // 3) % 3]
        d = models[alg][0].dim
        if kind == "coboundary-twist":
            data = [_random_fraction(rng) for _ in range(d * d)]
        elif kind == "random-twist":
            n = d * (d - 1) // 2
            data = [_random_fraction(rng) for _ in range(n * d + n * d * d)]
        else:
            i, j = rng.randrange(d), rng.randrange(d)
            # one op in four keeps the block, so the oracle also sees valid inputs
            block = None if rng.random() < 0.25 else [_random_fraction(rng) for _ in range(d * d)]
            data = {"i": i, "j": j, "block": block}
        specs.append({"algebra": alg, "kind": kind, "data": data})
    (workdir / "pointwise_ops.json").write_text(json.dumps(specs, default=_q) + "\n", encoding="utf-8")

    ops = []
    for k, spec in enumerate(specs):
        a, r = models[spec["algebra"]]
        ops.append(_pointwise_op(ly, k, spec, a, r))
    return Workload(ops)


def _is_cocycle(ly, a, r, tau) -> bool:
    # both operators always run, so every twist op applies delta and delta_star once
    in_ker_delta = ly.delta(a, r, tau).is_zero()
    in_ker_delta_star = all(c.is_zero() for c in ly.delta_star(a, r, tau))
    return in_ker_delta and in_ker_delta_star


def _pointwise_op(ly, k: int, spec: dict, a, r) -> Op:
    kind, data, d = spec["kind"], spec["data"], a.dim
    name = f"{kind} {spec['algebra']} #{k}"

    if kind == "coboundary-twist":
        f = ly.Matrix(r.e, d, data)

        def timed():
            tau = ly.delta_zero(a, r, f)
            return _is_cocycle(ly, a, r, tau), ly.check_axioms(ly.twisted_semidirect(a, r, tau)).ok

        def check(res):
            cocycle, valid = res
            if not (cocycle and valid):
                return False, f"coboundary: cocycle={cocycle}, twisted product valid={valid}"
            return True, ""

    elif kind == "random-twist":
        tau = ly.CochainPair.from_flat(1, d, r.e, data)

        def timed():
            return _is_cocycle(ly, a, r, tau), ly.check_axioms(ly.twisted_semidirect(a, r, tau)).ok

        def check(res):
            cocycle, valid = res
            if cocycle != valid:
                return False, f"twist oracle: cocycle={cocycle} but twisted product valid={valid}"
            return True, ""

    else:
        i, j = data["i"], data["j"]
        block = r.theta[i][j] if data["block"] is None else ly.Matrix(r.e, r.e, data["block"])
        r2 = r.replace_theta(i, j, block)
        unchanged = data["block"] is None

        def timed():
            return ly.check_representation(a, r2).ok, ly.check_axioms(ly.semidirect(a, r2)).ok

        def check(res):
            rep_ok, prod_ok = res
            if rep_ok != prod_ok:
                return False, f"semidirect oracle: representation ok={rep_ok}, product ok={prod_ok}"
            if unchanged and not rep_ok:
                return False, "the unperturbed adjoint representation was rejected"
            return True, ""

    return Op(name, "pointwise", timed, check)


# ---------------------------------------------------------------------------
# bundle-atlas: in-process CLI on generated atlases

# Cayley rotation about e3 with t = tan(angle / 2); an automorphism of the
# cross product for every rational t.  The reverse transition is R(-s).
_CAYLEY = [
    ["(1 - {v}^2)/(1 + {v}^2)", "-2*{v}/(1 + {v}^2)", "0"],
    ["2*{v}/(1 + {v}^2)", "(1 - {v}^2)/(1 + {v}^2)", "0"],
    ["0", "0", "1"],
]
_CAYLEY_REV = [
    ["(1 - {v}^2)/(1 + {v}^2)", "2*{v}/(1 + {v}^2)", "0"],
    ["-2*{v}/(1 + {v}^2)", "(1 - {v}^2)/(1 + {v}^2)", "0"],
    ["0", "0", "1"],
]
_TRIG = [["cos({v})", "-sin({v})", "0"], ["sin({v})", "cos({v})", "0"], ["0", "0", "1"]]
_TRIG_REV = [["cos({v})", "sin({v})", "0"], ["-sin({v})", "cos({v})", "0"], ["0", "0", "1"]]
# diag(1, 1+t^2, 1+t^2) is an automorphism of the 3dim algebra
_DIAG = [["1", "0", "0"], ["0", "1 + {v}^2", "0"], ["0", "0", "1 + {v}^2"]]
_DIAG_REV = [["1", "0", "0"], ["0", "1/(1 + {v}^2)", "0"], ["0", "0", "1/(1 + {v}^2)"]]

# per-point dims of the 3dim fibre with adjoint coefficients
DIM_H1_3DIM = 4
DIM_DER_3DIM = 4


def _fill(template, var: str):
    return [[entry.format(v=var) for entry in row] for row in template]


def _distinct_points(rng: random.Random, n: int) -> list[list[str]]:
    pts: set[Fraction] = set()
    while len(pts) < n:
        pts.add(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
    return [[_q(p)] for p in sorted(pts)]


def cycle_atlas(fiber: dict, charts: int, forward, reverse, rng, n_trans: int, n_triple: int, n_chart: int) -> dict:
    """Charts U0..U{K-1} in a cycle; each overlap shares its coordinate (s = t)."""
    names = [f"U{k}" for k in range(charts)]
    coords = [f"t{k}" for k in range(charts)]
    out = {"fiber": fiber, "charts": [], "transitions": [], "triples": []}
    for k in range(charts):
        out["charts"].append({"name": names[k], "coords": [coords[k]], "samples": _distinct_points(rng, n_chart)})
    for k in range(charts):
        nxt = (k + 1) % charts
        if charts == 2 and k == 1:
            break  # two charts share one overlap, already declared at k = 0
        overlap = _distinct_points(rng, n_trans)
        out["transitions"].append({"from": names[k], "to": names[nxt], "matrix": _fill(forward, coords[k]), "samples": overlap})
        out["transitions"].append({"from": names[nxt], "to": names[k], "matrix": _fill(reverse, coords[nxt]), "samples": overlap})
        probes = overlap[:n_triple]
        out["triples"].append({"i": names[k], "j": names[nxt], "k": names[k], "samples": [[p, p, p] for p in probes]})
    return out


def expected_cocycle_checks(atlas: dict) -> int:
    """Identity + triple + inverse + automorphism checks that check_cocycle makes."""
    trans = atlas["transitions"]
    triples = sum(len(t["samples"]) for t in atlas["triples"])
    inverse = sum(len(t["samples"]) for t in trans) // 2
    automorphism = sum(len(t["samples"]) for t in trans)
    return triples + inverse + automorphism


def _expect_bundle_check(atlas: dict, mode: str):
    checks = expected_cocycle_checks(atlas)

    def check(code, report):
        payload = report.get("payload", {})
        if code != 0 or report.get("status") != "pass":
            return False, f"exit {code}, status {report.get('status')}: {report.get('diagnostics')}"
        got = (payload.get("ok"), payload.get("mode"), payload.get("checks"), payload.get("failures"))
        if got != (True, mode, checks, []):
            return False, f"bundle-check payload {got} != {(True, mode, checks, [])}"
        return True, ""

    return check


def _expect_fibrewise(atlas: dict, which: str):
    points = [(c["name"], p) for c in atlas["charts"] for p in c["samples"]]
    dims = {"h1": {"dimH1": DIM_H1_3DIM}, "der": {"dimDer": DIM_DER_3DIM}}[which]

    def check(code, report):
        payload = report.get("payload", {})
        if code != 0 or report.get("status") != "pass":
            return False, f"exit {code}, status {report.get('status')}: {report.get('diagnostics')}"
        per_point = payload.get("per_point", [])
        got = [(x.get("chart"), x.get("point")) for x in per_point]
        if got != points:
            return False, f"per_point lists {len(got)} samples, expected {len(points)}"
        bad = [x for x in per_point if {k: v for k, v in x.items() if k not in ("chart", "point")} != dims]
        if bad:
            return False, f"per-point dims {bad[0]} != {dims}"
        if payload.get("constant") is not True:
            return False, "constant flag is not true"
        if which == "der" and (payload.get("conjugation_ok") is not True or payload.get("conjugation_failures")):
            return False, "derivation conjugation check failed"
        return True, ""

    return check


def build_bundle_atlas(ly, rng: random.Random, workdir: Path) -> Workload:
    cross = algebra_json(tensors_crossproduct_lie(), "crossproduct-lie")
    dim3 = algebra_json(tensors_3dim(), "3dim")
    atlas_a = cycle_atlas(cross, ATLAS_CHARTS, _CAYLEY, _CAYLEY_REV, rng,
                          ATLAS_TRANSITION_SAMPLES, ATLAS_TRIPLE_SAMPLES, 2)
    # (b) keeps the charts and sample points of (a) and swaps in trigonometric entries
    atlas_b = json.loads(json.dumps(atlas_a))
    for t, src in zip(atlas_b["transitions"], itertools.cycle((_TRIG, _TRIG_REV))):
        t["matrix"] = _fill(src, atlas_b["charts"][int(t["from"][1:])]["coords"][0])
    atlas_c = cycle_atlas(dim3, 2, _DIAG, _DIAG_REV, rng, CIRCLE_TRANSITION_SAMPLES, 2, CIRCLE_CHART_SAMPLES)
    pa = _write(workdir / "atlas_a.json", atlas_a)
    pb = _write(workdir / "atlas_b.json", atlas_b)
    pc = _write(workdir / "atlas_c.json", atlas_c)

    ops = [
        _cli_op(ly, "bundle-check (a) exact", GROUP_BUNDLE_CHECK, ["bundle-check", pa],
                workdir / "out_a.json", _expect_bundle_check(atlas_a, "exact")),
        _cli_op(ly, "bundle-check (b) float", GROUP_BUNDLE_CHECK, ["bundle-check", pb, "--mode", "float"],
                workdir / "out_b.json", _expect_bundle_check(atlas_b, "float")),
        _cli_op(ly, "bundle-cohomology (c) h1", GROUP_BUNDLE_COHOMOLOGY, ["bundle-cohomology", pc, "--which", "h1"],
                workdir / "out_c_h1.json", _expect_fibrewise(atlas_c, "h1")),
        _cli_op(ly, "bundle-cohomology (c) der", GROUP_BUNDLE_COHOMOLOGY, ["bundle-cohomology", pc, "--which", "der"],
                workdir / "out_c_der.json", _expect_fibrewise(atlas_c, "der")),
    ]

    def probe() -> dict:
        """Known defect: der in float mode re-evaluates transitions exactly."""
        out = workdir / "out_probe.json"
        argv = ["bundle-cohomology", pb, "--which", "der", "--mode", "float"]
        code = ly.cli.run(argv + ["--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        return {"argv": " ".join(argv[:1] + argv[2:]), "exit": code, "status": report.get("status"),
                "diagnostics": report.get("diagnostics")}

    return Workload(ops, probe)


BUILDERS = {
    "cohomology-scale": build_cohomology_scale,
    "pointwise": build_pointwise,
    "bundle-atlas": build_bundle_atlas,
}


def build(ly, workload: str, seed: int, workdir: Path) -> Workload:
    """Generate and write this run's inputs; they depend only on (workload, seed)."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](ly, rng, workdir)
