import json
from fractions import Fraction

import pytest

from lieyamaguti import derivations, example_3dim, h1, h23, adjoint
from lieyamaguti.algebra import is_homomorphism
from lieyamaguti.bundle import (
    BundleSpec,
    Chart,
    EvalMode,
    TransitionFamily,
    bundle_cohomology,
    check_bundle_morphism,
    check_cocycle,
    check_subbundle,
    der_bundle_dims,
    eval_transition,
    transport_failures,
)
from lieyamaguti.errors import (
    CocycleCheckFailed,
    NotASubalgebra,
    ShapeMismatch,
    UnknownIdentifier,
)
from lieyamaguti.cli import run
from lieyamaguti.exprs import parse_expr
from lieyamaguti.fixtures import fixture, fixture_circle_bundle, render
from lieyamaguti.linalg import Matrix, SubspaceBasis, _det, _invert
from lieyamaguti.schemas import bundle_from_json


def q(x):
    return Fraction(x)


def exprs(rows):
    return tuple(tuple(parse_expr(x) for x in row) for row in rows)


def value(pair) -> Matrix:
    """The matrix s of a pair (D, S) with S = D * s, entries Fraction(x, D)."""
    big_d, scaled = pair
    return Matrix.from_rows([[Fraction(x, big_d) for x in row] for row in scaled])


@pytest.fixture()
def circle():
    return bundle_from_json(fixture_circle_bundle())


@pytest.fixture()
def product_bundle():
    return BundleSpec(
        example_3dim(),
        (Chart("U", ("t",), ((q(0),), (q(1),), (q(-2),))),),
        (),
        (),
    )


def test_eval_transition_identity_matrix():
    tf = TransitionFamily(
        "U", "V", exprs([["1", "0"], ["0", "1"]]), ((q(5),),), ("t",)
    )
    pair = eval_transition(tf, (q(5),))
    assert pair == (1, [[1, 0], [0, 1]])
    assert value(pair) == Matrix.identity(2)


def test_eval_transition_polynomial_entries():
    tf = TransitionFamily(
        "U",
        "V",
        exprs([["1", "0", "0"], ["0", "1+t^2", "0"], ["0", "0", "1+t^2"]]),
        ((q(1),), (Fraction(1, 2),)),
        ("t",),
    )
    pair = eval_transition(tf, (q(1),))
    assert pair == (1, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert value(pair) == Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    # 1 + t^2 = 5/4 at t = 1/2: D is the LCM of the denominators and S = D * s
    pair = eval_transition(tf, (Fraction(1, 2),))
    assert pair == (4, [[4, 0, 0], [0, 5, 0], [0, 0, 5]])
    assert value(pair) == Matrix.from_rows([[1, 0, 0], [0, Fraction(5, 4), 0], [0, 0, Fraction(5, 4)]])


def test_eval_transition_propagates_eval_errors():
    from lieyamaguti.errors import EvalError

    tf = TransitionFamily("U", "V", exprs([["1/t"]]), ((q(0),),), ("t",))
    with pytest.raises(EvalError):
        eval_transition(tf, (q(0),))


def test_eval_transition_float_mode():
    tf = TransitionFamily("U", "V", exprs([["cos(t)"]]), ((q(0),),), ("t",))
    big_d, rows = eval_transition(tf, (Fraction(1, 2),), EvalMode("float"))
    import math

    assert big_d == 1 and type(rows[0][0]) is float
    assert abs(rows[0][0] - math.cos(0.5)) < 1e-12


def test_product_bundle_passes(product_bundle):
    report = check_cocycle(product_bundle)
    assert report.ok


def test_circle_bundle_passes_exact(circle):
    report = check_cocycle(circle)
    assert report.ok, [f.__dict__ for f in report.failures]
    assert report.checks > 0


def test_circle_bundle_passes_float(circle):
    report = check_cocycle(circle, EvalMode("float", 1e-9))
    assert report.ok


def test_bad_transition_fails_automorphism(circle):
    # diag(2,1,1) is invertible but not a homomorphism of the 3dim fibre
    bad = fixture_circle_bundle()
    bad["transitions"][0]["matrix"] = [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    b = bundle_from_json(bad)
    report = check_cocycle(b)
    auto_failures = [f for f in report.failures if f.kind == "automorphism"]
    n_samples = len(b.transitions[0].samples)
    assert len(auto_failures) >= n_samples
    assert any(f.detail == "bracket preservation fails" for f in auto_failures)


def test_inverse_consistency_detected(circle):
    bad = fixture_circle_bundle()
    # break the declared reverse family
    bad["transitions"][1]["matrix"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    report = check_cocycle(bundle_from_json(bad))
    assert any(f.kind == "inverse" for f in report.failures)


def test_triple_product_with_implicit_identity(circle):
    # the shipped fixture declares a (U1, U2, U1) triple; g12 g21 = id must hold
    report = check_cocycle(circle)
    assert report.ok


def test_self_transition_must_be_identity():
    spec = fixture_circle_bundle()
    spec["transitions"].append(
        {
            "from": "U1",
            "to": "U1",
            "matrix": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
            "samples": [["0"]],
        }
    )
    report = check_cocycle(bundle_from_json(spec))
    assert any(f.kind == "identity" for f in report.failures)


def test_sample_count_mismatch_is_structural():
    spec = fixture_circle_bundle()
    spec["transitions"][1]["samples"] = [["-1"], ["1/2"]]
    report = check_cocycle(bundle_from_json(spec))
    assert any(f.kind == "structural" for f in report.failures)


def test_unknown_identifier_rejected_at_load():
    spec = fixture_circle_bundle()
    spec["transitions"][0]["matrix"][1][1] = "1 + z^2"
    with pytest.raises(UnknownIdentifier):
        bundle_from_json(spec)


def test_clutching_identity_at_overlap_samples(circle):
    """Transporting through g then bracketing equals bracketing then
    transporting, at every overlap sample (restatement of the automorphism
    clause)."""
    fib = circle.fiber
    for tf in circle.transitions:
        for pt in tf.samples:
            g = value(eval_transition(tf, pt))
            cols = [g.col(j) for j in range(fib.dim)]
            for i in range(fib.dim):
                for j in range(fib.dim):
                    assert g.matvec(fib.binary[i][j]) == fib.bracket(cols[i], cols[j])
                    for k in range(fib.dim):
                        assert g.matvec(fib.ternary[i][j][k]) == fib.triple(
                            cols[i], cols[j], cols[k]
                        )


def test_subbundle_whole_and_zero(circle):
    d = circle.fiber.dim
    whole = SubspaceBasis(d, [[int(i == j) for j in range(d)] for i in range(d)])
    zero = SubspaceBasis(d, [])
    assert check_subbundle(circle, whole).ok
    assert check_subbundle(circle, zero).ok


def test_subbundle_center_line(circle):
    span_e3 = SubspaceBasis(3, [[0, 0, 1]])
    report = check_subbundle(circle, span_e3)
    assert report.ok
    assert "sampled" in report.note


def test_subbundle_rejects_non_subalgebra(circle):
    # span{e1, e2} is not closed: {e1,e2,e1} = e3
    with pytest.raises(NotASubalgebra):
        check_subbundle(circle, SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]]))


def test_subbundle_detects_broken_invariance():
    # an automorphism-violating transition also moves span{e2} off itself;
    # use a permutation-like map e2 <-> e3 on the fibre: not an automorphism,
    # but check_subbundle only tests invariance, so build it directly
    spec = fixture_circle_bundle()
    spec["transitions"][0]["matrix"] = [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    b = bundle_from_json(spec)
    report = check_subbundle(b, SubspaceBasis(3, [[0, 1, 0]]))
    assert not report.ok


def test_bundle_morphism_identity_and_zero(circle):
    ident = {c.name: exprs([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]) for c in circle.charts}
    report = check_bundle_morphism(circle, circle, ident)
    assert report.ok
    assert all(p.invertible for p in report.points)
    zero = {c.name: exprs([["0"] * 3] * 3) for c in circle.charts}
    report = check_bundle_morphism(circle, circle, zero)
    assert report.ok
    assert not any(p.invertible for p in report.points)


def test_bundle_morphism_failure(circle):
    bad = {c.name: exprs([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]) for c in circle.charts}
    report = check_bundle_morphism(circle, circle, bad)
    assert not report.ok


def test_bundle_morphism_evaluates_exactly(circle):
    """diag(1, b, b) is an automorphism of the 3dim fibre; b is written two ways
    that agree over Q but not in floating point (1/10 + 2/10 against 3/10)."""
    stretch = {
        c.name: exprs([["1", "0", "0"], ["0", f"1/10 + 2/10 + {x}^2", "0"], ["0", "0", f"3/10 + {x}^2"]])
        for c in circle.charts
        for x in c.coords
    }
    report = check_bundle_morphism(circle, circle, stretch)
    assert report.ok
    assert len(report.points) == sum(len(c.samples) for c in circle.charts)
    assert all(p.invertible for p in report.points)


def test_bundle_morphism_points_match_the_fraction_checks(circle, monkeypatch):
    """Each point's is_hom and invertible equal is_homomorphism and is_invertible on the value's Fraction rows.

    The mutated stretch adds (x + 1)(x + 1/2)(x - 1/2)(x - 1), zero at every
    chart sample but 0, to one entry, so it fails at one sample per chart.
    One call compiles one defect plan per nonzero pattern of its values.
    """
    from lieyamaguti import algebra
    from lieyamaguti.exprs import compile_matrix

    compiled = []
    plan = algebra._defect_plan

    def counting(a, b, nonzero):
        compiled.append(nonzero)
        return plan(a, b, nonzero)

    monkeypatch.setattr(algebra, "_defect_plan", counting)
    shapes = {
        "identity": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "zero": [["0"] * 3] * 3,
        "stretch": [["1", "0", "0"], ["0", "1 + {x}^2", "0"], ["0", "0", "1 + {x}^2"]],
        "mutated": [["1", "0", "0"], ["0", "1 + {x}^2", "0"],
                    ["0", "0", "1 + {x}^2 + ({x} + 1)*({x} + 1/2)*({x} - 1/2)*({x} - 1)"]],
        "not invertible": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "{x}"]],
        "sample dependent": [["{x}", "0", "0"], ["0", "{x}", "0"], ["0", "0", "{x}^2"]],
    }
    for name, shape in shapes.items():
        compiled.clear()
        matrices = {c.name: exprs([[e.format(x=c.coords[0]) for e in row] for row in shape]) for c in circle.charts}
        report = check_bundle_morphism(circle, circle, matrices)
        plans = sorted(compiled)
        want, patterns = [], set()
        for c in circle.charts:
            program = compile_matrix(matrices[c.name])
            for pt in c.samples:
                rows = program.rows(dict(zip(c.coords, pt)), "exact")
                val = Matrix.from_rows(rows)
                want.append((c.name, pt, is_homomorphism(val, circle.fiber, circle.fiber), val.is_invertible()))
                patterns.add(tuple(k for k, x in enumerate(x for row in rows for x in row) if x))
        assert [(p.chart, p.point, p.is_hom, p.invertible) for p in report.points] == want, name
        assert plans == sorted(patterns), name
        if name == "mutated":
            assert [p.is_hom for p in report.points] == [p.point != (0,) for p in report.points]


def test_bundle_morphism_requires_same_atlas(circle, product_bundle):
    with pytest.raises(ShapeMismatch):
        check_bundle_morphism(circle, product_bundle, {})


def test_product_bundle_cohomology_matches_single_fiber(product_bundle):
    a = product_bundle.fiber
    r = adjoint(a)
    expect_h1 = h1(a, r)[0]
    report = bundle_cohomology(product_bundle, "h1")
    assert report.constant
    assert all(p.dims["dimH1"] == expect_h1 for p in report.points)


def test_circle_bundle_cohomology_constancy(circle):
    rep_h1 = bundle_cohomology(circle, "h1")
    assert rep_h1.constant
    rep_h23 = bundle_cohomology(circle, "h23")
    assert rep_h23.constant
    res = h23(circle.fiber, adjoint(circle.fiber))
    assert all(p.dims["dimH23"] == res.dim for p in rep_h23.points)


def test_bundle_cohomology_gated_on_cocycle():
    bad = fixture_circle_bundle()
    bad["transitions"][0]["matrix"] = [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(CocycleCheckFailed):
        bundle_cohomology(bundle_from_json(bad), "h1")
    # an unknown selector is refused before the gate runs
    with pytest.raises(ShapeMismatch, match="unknown cohomology selector"):
        bundle_cohomology(bundle_from_json(bad), "h2")


def test_der_bundle_dims_and_conjugation(circle):
    report = bundle_cohomology(circle, "der")
    assert report.constant
    expect = derivations(circle.fiber).dim
    assert all(p.dims["dimDer"] == expect for p in report.points)
    assert der_bundle_dims(circle) == report


CAYLEY = [
    ["(1 - {v}^2)/(1 + {v}^2)", "-2*{v}/(1 + {v}^2)", "0"],
    ["2*{v}/(1 + {v}^2)", "(1 - {v}^2)/(1 + {v}^2)", "0"],
    ["0", "0", "1"],
]


def _cayley_bundle(samples=(("1/2",), ("2",))):
    """crossproduct-lie over two charts glued by rotations R(t) about e3, reversed by R(-s)."""

    def rotation(v):
        return [[entry.format(v=v) for entry in row] for row in CAYLEY]

    pts = [list(x) for x in samples]
    return bundle_from_json(
        {
            "fiber": fixture("crossproduct-lie"),
            "charts": [
                {"name": "U1", "coords": ["t"], "samples": [["0"], ["1"]]},
                {"name": "U2", "coords": ["s"], "samples": [["0"]]},
            ],
            "transitions": [
                {"from": "U1", "to": "U2", "matrix": rotation("t"), "samples": pts},
                {"from": "U2", "to": "U1", "matrix": rotation("(-s)"), "samples": pts},
            ],
        }
    )


def _diag211_json():
    bad = fixture_circle_bundle()
    bad["transitions"][0]["matrix"] = [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    return bad


def _diag211_bundle():
    return bundle_from_json(_diag211_json())


@pytest.mark.parametrize("which", ["h1", "h23", "upper", "der"])
@pytest.mark.parametrize("kind", ["exact", "float"])
def test_transport_fails_off_the_automorphisms(which, kind):
    b = _diag211_bundle()
    failures = transport_failures(b, which, 2, EvalMode(kind))
    assert [(f.kind, f.where, f.point) for f in failures] == [
        ("transport", "U1->U2", pt) for pt in b.transitions[0].samples
    ]
    assert all(f.defect_norm > EvalMode(kind).bound for f in failures)


def test_transport_and_the_gate_agree_on_singular_values():
    """A value with |det| = 1e-26 is numerically singular to both; exactly it is an automorphism."""
    spec = fixture_circle_bundle()
    spec["transitions"][0]["matrix"] = [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "t"]]
    spec["transitions"][0]["samples"][0] = ["1e-13"]
    b = bundle_from_json(spec)
    tiny = b.transitions[0].samples[0]
    float_mode = EvalMode("float")
    expected = [("automorphism", "U1->U2", tiny, None, "matrix is numerically singular")]
    gate = check_cocycle(b, float_mode).failures
    assert [(f.kind, f.where, f.point, f.defect_norm, f.detail) for f in gate if f.kind == "automorphism"] == expected
    for which in ("h1", "h23"):
        failures = transport_failures(b, which, mode=float_mode)
        assert [(f.where, f.point, f.defect_norm, f.detail) for f in failures] == [expected[0][1:]], which
        assert failures[0].kind == "transport"
        assert transport_failures(b, which) == [], which


@pytest.mark.parametrize("kind, detail", [("exact", "matrix is singular"), ("float", "matrix is numerically singular")])
def test_transport_reports_a_singular_value_in_the_gates_words(kind, detail):
    """A value of rank 1 handed straight to the transport check, with no gate before it."""
    spec = fixture_circle_bundle()
    spec["transitions"][0]["matrix"] = [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "t"]]
    spec["transitions"][0]["samples"][0] = ["0"]
    b = bundle_from_json(spec)
    zero = b.transitions[0].samples[0]
    for which in ("h1", "h23"):
        failures = transport_failures(b, which, mode=EvalMode(kind))
        assert [(f.kind, f.where, f.point, f.defect_norm, f.detail) for f in failures] == [
            ("transport", "U1->U2", zero, None, detail)
        ], which


def test_transport_inverts_each_value_once(monkeypatch, tmp_path, capsys):
    """circle-bundle has 6 transition values: 6 determinants in the float gate, 6 inversions in the transport check."""
    from lieyamaguti import bundle

    calls, dets = [], []

    def counting(rows):
        calls.append(rows)
        return _invert(rows)

    def counting_det(rows):
        dets.append(rows)
        return _det(rows)

    monkeypatch.setattr(bundle, "_invert", counting)
    monkeypatch.setattr(bundle, "_det", counting_det)
    path = tmp_path / "circle.json"
    path.write_text(render(fixture("circle-bundle")), encoding="utf-8")
    assert run(["bundle-cohomology", str(path), "--which", "h1", "--mode", "float"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["constant"] is True
    assert len(calls) == 6
    assert len(dets) == 6


def test_transport_passes_on_rotations():
    b = _cayley_bundle()
    assert check_cocycle(b).ok
    for kind in ("exact", "float"):
        for which in ("h1", "h23", "der"):
            assert transport_failures(b, which, mode=EvalMode(kind)) == [], (which, kind)
    assert transport_failures(_cayley_bundle(samples=(("1/3",),)), "upper", 2) == []


def test_constant_reports_the_transport_check(monkeypatch, tmp_path, capsys):
    from lieyamaguti import bundle

    # let a non-automorphism past the cocycle gate to reach the transport check
    monkeypatch.setattr(bundle, "check_cocycle", lambda b, mode: bundle.CocycleReport(mode))
    b = _diag211_bundle()
    assert not bundle_cohomology(b, "h1").constant
    report = bundle_cohomology(b, "der")
    assert not report.constant
    assert {f.where for f in report.transport_failures} == {"U1->U2"}
    # one exit policy: every selector fails with exit 1 and lists the failing samples
    bad = _diag211_json()
    path = tmp_path / "diag211.json"
    path.write_text(render(bad), encoding="utf-8")
    expected = [("transport", "U1->U2", pt) for pt in bad["transitions"][0]["samples"]]
    for which in ("h1", "h23", "upper", "der"):
        code = run(["bundle-cohomology", str(path), "--which", which])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["status"]) == (1, "fail"), which
        payload = out["payload"]
        assert payload["constant"] is False, which
        failures = payload["transport_failures"]
        assert [(f["kind"], f["where"], f["point"]) for f in failures] == expected, which
        assert all(set(f) == {"kind", "where", "point", "defect_norm", "detail"} for f in failures)
        assert all(Fraction(f["defect_norm"]) > 0 for f in failures), which
        if which == "der":
            assert payload["conjugation_ok"] is False
            assert payload["conjugation_failures"] == failures


def test_float_failures_report_kind_point_and_norm():
    tol = 1e-9
    mode = EvalMode("float", tol)
    cases = {
        "automorphism": (0, [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "bracket preservation fails"),
        "singular": (0, [["1", "0", "0"], ["0", "t - 1", "0"], ["0", "0", "1"]], "matrix is numerically singular"),
        "inverse": (1, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "g_ji != g_ij^-1"),
    }
    for name, (idx, matrix, detail) in cases.items():
        spec = fixture_circle_bundle()
        spec["transitions"][idx]["matrix"] = matrix
        b = bundle_from_json(spec)
        report = check_cocycle(b, mode)
        hits = [f for f in report.failures if f.detail == detail]
        assert hits, name
        if name == "singular":
            # only the sample t = 1 makes the middle entry vanish
            assert [(f.kind, f.where, f.point, f.defect_norm) for f in hits] == [
                ("automorphism", "U1->U2", (q(1),), None)
            ]
            continue
        kind = "automorphism" if name == "automorphism" else "inverse"
        where = "U1->U2" if name == "automorphism" else "U1->U2 / U2->U1"
        points = list(b.transitions[0].samples)
        if name == "inverse":
            points = list(zip(b.transitions[0].samples, b.transitions[1].samples))
        assert [(f.kind, f.where, f.point) for f in hits] == [(kind, where, pt) for pt in points]
        assert all(isinstance(f.defect_norm, float) and f.defect_norm > tol for f in hits)


@pytest.mark.parametrize("which", ["h1", "der"])
def test_bundle_cohomology_evaluates_each_transition_value_once(monkeypatch, tmp_path, capsys, which):
    """The transport check reads the values the cocycle gate evaluated.

    ``circle-bundle`` has 6 distinct (transition, point) values; the gate
    and the transport check used to evaluate each of them, 12 calls in all.
    """
    from lieyamaguti import bundle

    calls = []
    evaluate = bundle.eval_transition

    def counting(tf, pt, mode=bundle.EXACT):
        calls.append((tf.frm, tf.to, pt))
        return evaluate(tf, pt, mode)

    monkeypatch.setattr(bundle, "eval_transition", counting)
    path = tmp_path / "circle.json"
    path.write_text(render(fixture("circle-bundle")), encoding="utf-8")
    assert run(["bundle-cohomology", str(path), "--which", which]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["constant"] is True
    assert len(calls) == len(set(calls)) == 6


def _count_evaluations(monkeypatch) -> list:
    """Patch ``bundle.eval_transition`` to record (from, to, point, kind) per call."""
    from lieyamaguti import bundle

    calls = []
    evaluate = bundle.eval_transition

    def counting(tf, pt, mode=bundle.EXACT):
        calls.append((tf.frm, tf.to, pt, mode.kind))
        return evaluate(tf, pt, mode)

    monkeypatch.setattr(bundle, "eval_transition", counting)
    return calls


def test_a_bundle_evaluates_each_transition_value_once_per_kind(monkeypatch):
    """The gate, transport, sub-bundle and bundle_cohomology checks read the values the bundle holds.

    ``circle-bundle`` has 6 distinct (transition, point) values.  When each
    check evaluated its own, these four exact checks made 24 calls.
    """
    calls = _count_evaluations(monkeypatch)
    b = bundle_from_json(fixture_circle_bundle())
    assert check_cocycle(b).ok
    assert transport_failures(b, "h1") == []
    assert check_subbundle(b, SubspaceBasis(3, [[0, 0, 1]])).ok
    assert bundle_cohomology(b, "h1").constant
    assert len(calls) == len(set(calls)) == 6
    float_mode = EvalMode("float")
    assert check_cocycle(b, float_mode).ok
    assert transport_failures(b, "h1", mode=float_mode) == []
    assert len(calls) == len(set(calls)) == 12
    assert {kind for *_, kind in calls[6:]} == {"float"}


def test_a_copied_or_unpickled_bundle_evaluates_its_values_again(monkeypatch):
    import copy
    import pickle

    calls = _count_evaluations(monkeypatch)
    b = bundle_from_json(fixture_circle_bundle())
    assert check_cocycle(b).ok
    assert len(calls) == 6
    for other in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert other == b and "_values" not in vars(other)
        assert check_cocycle(other).ok
    assert len(calls) == 24
    assert check_cocycle(b).ok
    assert len(calls) == 24


def test_a_transition_family_compiles_its_matrix_once(monkeypatch):
    """Every check at every sample runs the one program its family holds.

    ``circle-bundle`` declares 2 transition families, each at 3 samples.
    """
    import copy
    import pickle

    from lieyamaguti import bundle

    compiled = []
    compile_matrix = bundle.compile_matrix

    def counting(matrix):
        compiled.append(matrix)
        return compile_matrix(matrix)

    monkeypatch.setattr(bundle, "compile_matrix", counting)
    b = bundle_from_json(fixture_circle_bundle())
    assert check_cocycle(b).ok
    assert check_cocycle(b, EvalMode("float")).ok
    assert bundle_cohomology(b, "h1").constant
    assert compiled == [tf.matrix for tf in b.transitions]
    for other in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
        assert other == b
        assert all("_program" not in vars(tf) for tf in other.transitions)
        assert check_cocycle(other).ok
    assert len(compiled) == 3 * len(b.transitions)
