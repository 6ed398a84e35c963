"""Span tracing of the library's public functions, installed from outside.

The tracer replaces each traced function by a wrapper in every
``lieyamaguti`` module that binds the name (``bundle`` imports ``h1`` and
``eval_exact`` by name, ``cohomology`` imports ``quotient_dim``, ...), and
replaces traced methods on their class.  Recursive functions are left alone
in their own module, so only the outermost call is a span.  The program's
sources are not touched.

A span is ``(point, start, end, parent, job)``; spans stay in memory until
the pass ends, then ``layer_metrics`` reduces them and ``write_spans`` saves
them.  A span's self time is its duration minus the
durations of its direct children (calls are strictly nested, one thread).
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (group, module, owner inside the module or None, attribute, recursive)
POINTS = (
    ("cli.run", "cli", None, "run", False),
    ("schemas.load", "schemas", None, "algebra_from_json", False),
    ("schemas.load", "schemas", None, "bundle_from_json", False),
    ("schemas.load", "schemas", None, "representation_from_json", False),
    ("schemas.load", "schemas", None, "cochain_pair_from_json", False),
    ("exprs.parse", "exprs", None, "parse_expr", False),
    ("exprs.eval", "exprs", None, "eval_exact", True),
    ("exprs.eval", "exprs", None, "eval_float", True),
    ("algebra.check_axioms", "algebra", None, "check_axioms", False),
    ("algebra.homomorphism", "algebra", None, "is_homomorphism", False),
    ("algebra.homomorphism", "algebra", None, "is_automorphism", False),
    ("algebra.homomorphism", "algebra", None, "is_derivation", False),
    ("algebra.derivations", "algebra", None, "derivations", False),
    ("representation.check", "representation", None, "check_representation", False),
    ("representation.product", "representation", None, "semidirect", False),
    ("representation.product", "representation", None, "twisted_semidirect", False),
    ("representation.adjoint", "representation", None, "adjoint", False),
    ("cohomology.assemble", "cohomology", None, "delta_zero_matrix", False),
    ("cohomology.assemble", "cohomology", None, "delta_matrix", False),
    ("cohomology.assemble", "cohomology", None, "delta_star_matrix", False),
    ("cohomology.apply", "cohomology", None, "delta", False),
    ("cohomology.apply", "cohomology", None, "delta_star", False),
    ("cohomology.apply", "cohomology", None, "delta_zero", False),
    ("cohomology.group", "cohomology", None, "h1", False),
    ("cohomology.group", "cohomology", None, "h23", False),
    ("cohomology.group", "cohomology", None, "h_upper", False),
    ("linalg.rref", "linalg", "Matrix", "rref", False),
    ("linalg.subspace", "linalg", "SubspaceBasis", "__init__", False),
    ("linalg.subspace", "linalg", "SubspaceBasis", "contains", False),
    ("linalg.subspace", "linalg", None, "quotient_dim", False),
    ("linalg.matrix_ops", "linalg", "Matrix", "__matmul__", False),
    ("linalg.matrix_ops", "linalg", "Matrix", "inverse", False),
    ("linalg.matrix_ops", "linalg", "Matrix", "is_invertible", False),
    ("linalg.matrix_ops", "linalg", "Matrix", "det", False),
    ("bundle.check_cocycle", "bundle", None, "check_cocycle", False),
    ("bundle.eval_transition", "bundle", None, "eval_transition", False),
    ("bundle.fibrewise", "bundle", None, "bundle_cohomology", False),
    ("bundle.fibrewise", "bundle", None, "der_bundle_dims", False),
)

FIBRE_INVARIANTS = ("h1", "h23", "h_upper", "derivations")


def _fibre_key(name, args):
    a = args[0]
    return (name, a.dim, a.binary, a.ternary)


def _eval_key(args):
    tf, pt = args[0], args[1]
    mode = args[2].kind if len(args) > 2 else "exact"
    return (tf.label(), tuple(pt), mode)


def _rref_extra(self, result):
    return (self.rows * self.cols, len(result[1]))


def _operator_extra(result):
    return (result.rows * result.cols, sum(1 for x in result.entries if x))


class Tracer:
    """Collects spans from wrapped library functions while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.extra: dict[int, object] = {}
        self.job = -1
        self.clock = perf_counter  # replaced by the sampler's clock during a pass
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, point: int, name: str, orig):
        spans, extra, stack = self.spans, self.extra, self._stack
        tracer = self

        if name == "rref":
            def after(idx, args, result):
                extra[idx] = _rref_extra(args[0], result)
        elif name in ("delta_zero_matrix", "delta_matrix", "delta_star_matrix"):
            def after(idx, args, result):
                extra[idx] = _operator_extra(result)
        elif name == "check_cocycle":
            def after(idx, args, result):
                extra[idx] = result.checks
        elif name == "eval_transition":
            def after(idx, args, result):
                extra[idx] = _eval_key(args)
        elif name in FIBRE_INVARIANTS:
            def after(idx, args, result):
                extra[idx] = _fibre_key(name, args)
        else:
            after = None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = tracer.clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = tracer.clock()
                stack.pop()
                spans[idx] = (point, t0, t1, parent, tracer.job)
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    def install(self) -> None:
        pkg = self.package.__name__
        modules = [m for n, m in sorted(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        for point, (_group, modname, owner, attr, recursive) in enumerate(POINTS):
            home = sys.modules[f"{pkg}.{modname}"]
            if owner is not None:
                cls = getattr(home, owner)
                orig = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(point, attr, orig), orig)
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(point, attr, orig)
            for mod in modules:
                if recursive and mod is home:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, wrapper, orig)

    def _set(self, target, name: str, value, orig) -> None:
        setattr(target, name, value)
        self._undo.append((target, name, orig))

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._undo):
            setattr(target, name, orig)
        self._undo.clear()


# Count-valued metrics must repeat exactly between two traced runs of one seed.
COUNT_METRICS = (
    "algebra.check_axioms_calls",
    "algebra.validations_per_job",
    "cohomology.assemble_calls",
    "cohomology.operator_entries",
    "cohomology.operator_nnz",
    "cohomology.operator_density",
    "cohomology.apply_calls",
    "linalg.rref_calls",
    "linalg.rref_entries",
    "linalg.rank_sum",
    "linalg.contains_calls",
    "representation.check_calls",
    "algebra.homomorphism_calls",
    "algebra.derivations_calls",
    "exprs.parse_calls",
    "exprs.eval_calls",
    "schemas.load_calls",
    "bundle.cocycle_checks",
    "bundle.eval_transition_calls",
    "bundle.eval_unique_frac",
    "bundle.fibre_invariant_calls",
    "bundle.fibre_unique_frac",
)

TIME_METRICS = (
    "algebra.check_axioms_s",
    "cohomology.assemble_s",
    "cohomology.apply_s",
    "linalg.rref_s",
    "linalg.subspace_s",
    "linalg.matrix_ops_s",
    "representation.check_s",
    "representation.product_s",
    "representation.adjoint_s",
    "algebra.homomorphism_s",
    "algebra.derivations_s",
    "exprs.parse_s",
    "exprs.eval_s",
    "schemas.load_s",
    "bundle.check_cocycle_s",
    "bundle.fibre_s",
    "cli.self_s",
)


def layer_metrics(spans: list, extra: dict, n_jobs: int) -> dict[str, float]:
    """Reduce one traced pass to the per-layer metrics.

    ``*_s`` is summed self time of the layer's spans, except
    ``bundle.check_cocycle_s`` and ``bundle.fibre_s``, which are inclusive
    durations of whole verification / fibre-invariant calls.  ``*_calls``
    counts outermost calls within the group (``is_automorphism`` calling
    ``is_homomorphism`` is one call); ``contains_calls`` counts every
    ``SubspaceBasis.contains``.  Nested ``delta`` calls under an operator
    assembly are assembly, not application.
    """
    n = len(spans)
    group = [POINTS[s[0]][0] for s in spans]
    fname = [POINTS[s[0]][3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    # ancestry flags; parents precede children in span order
    under_assembly = [False] * n
    under_bundle = [False] * n
    under_fibre = [False] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            under_assembly[i] = under_assembly[p] or group[p] == "cohomology.assemble"
            under_bundle[i] = under_bundle[p] or group[p].startswith("bundle.")
            under_fibre[i] = under_fibre[p] or (under_bundle[p] and fname[p] in FIBRE_INVARIANTS)

    def outer(i: int) -> bool:
        return parent[i] < 0 or group[parent[i]] != group[i]

    m: dict[str, float] = {k: 0 for k in COUNT_METRICS + TIME_METRICS}
    calls = {g: 0 for g in {p[0] for p in POINTS}}
    eval_keys: set = set()
    fibre_keys: set = set()
    for i in range(n):
        g = group[i]
        if outer(i):
            calls[g] += 1
        if g == "cohomology.apply":
            if under_assembly[i]:
                m["cohomology.assemble_s"] += self_t[i]
            else:
                m["cohomology.apply_s"] += self_t[i]
                m["cohomology.apply_calls"] += 1
        elif g == "cohomology.assemble":
            m["cohomology.assemble_s"] += self_t[i]
            entries, nnz = extra[i]
            m["cohomology.operator_entries"] += entries
            m["cohomology.operator_nnz"] += nnz
        elif g == "linalg.rref":
            m["linalg.rref_s"] += self_t[i]
            entries, rank = extra[i]
            m["linalg.rref_entries"] += entries
            m["linalg.rank_sum"] += rank
        elif g == "linalg.subspace":
            m["linalg.subspace_s"] += self_t[i]
            if fname[i] == "contains":
                m["linalg.contains_calls"] += 1
        elif g == "bundle.check_cocycle":
            if outer(i):
                m["bundle.check_cocycle_s"] += dur[i]
            m["bundle.cocycle_checks"] += extra.get(i, 0)
        elif g == "bundle.eval_transition":
            if i in extra:
                eval_keys.add((spans[i][4], extra[i]))
        elif g == "cli.run":
            m["cli.self_s"] += self_t[i]
        else:
            key = {
                "algebra.check_axioms": "algebra.check_axioms_s",
                "linalg.matrix_ops": "linalg.matrix_ops_s",
                "representation.check": "representation.check_s",
                "representation.product": "representation.product_s",
                "representation.adjoint": "representation.adjoint_s",
                "algebra.homomorphism": "algebra.homomorphism_s",
                "algebra.derivations": "algebra.derivations_s",
                "exprs.parse": "exprs.parse_s",
                "exprs.eval": "exprs.eval_s",
                "schemas.load": "schemas.load_s",
            }.get(g)
            if key:
                m[key] += self_t[i]
        if fname[i] in FIBRE_INVARIANTS and under_bundle[i] and not under_fibre[i]:
            m["bundle.fibre_s"] += dur[i]
            m["bundle.fibre_invariant_calls"] += 1
            fibre_keys.add((spans[i][4], extra[i]))

    m["algebra.check_axioms_calls"] = calls["algebra.check_axioms"]
    m["algebra.validations_per_job"] = calls["algebra.check_axioms"] / n_jobs
    m["cohomology.assemble_calls"] = calls["cohomology.assemble"]
    m["linalg.rref_calls"] = calls["linalg.rref"]
    m["representation.check_calls"] = calls["representation.check"]
    m["algebra.homomorphism_calls"] = calls["algebra.homomorphism"]
    m["algebra.derivations_calls"] = calls["algebra.derivations"]
    m["exprs.parse_calls"] = calls["exprs.parse"]
    m["exprs.eval_calls"] = calls["exprs.eval"]
    m["schemas.load_calls"] = calls["schemas.load"]
    m["bundle.eval_transition_calls"] = calls["bundle.eval_transition"]
    entries = m["cohomology.operator_entries"]
    m["cohomology.operator_density"] = m["cohomology.operator_nnz"] / entries if entries else 0.0
    ev = m["bundle.eval_transition_calls"]
    m["bundle.eval_unique_frac"] = len(eval_keys) / ev if ev else 0.0
    fc = m["bundle.fibre_invariant_calls"]
    m["bundle.fibre_unique_frac"] = len(fibre_keys) / fc if fc else 0.0
    return m


def write_spans(tracer: Tracer, path) -> None:
    """Write the pass's spans once it has ended: one [function, start, end, parent, job] row each."""
    names = [f"{mod}.{owner + '.' if owner else ''}{attr}" for _g, mod, owner, attr, _r in POINTS]
    rows = [[names[p], t0, t1, parent, job] for p, t0, t1, parent, job in tracer.spans]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"columns": ["function", "start", "end", "parent", "job"], "spans": rows}) + "\n")


def job_coverage(spans: list, job_walls: list[float]) -> list[float]:
    """Per job: summed duration of its top-level spans over the job's wall time.

    Top-level durations equal the sum of every span's self time in the job.
    """
    covered = [0.0] * len(job_walls)
    for point, t0, t1, parent, job in spans:
        if parent < 0 and job >= 0:
            covered[job] += t1 - t0
    return [c / w if w > 0 else 0.0 for c, w in zip(covered, job_walls)]
