"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is exact (rational arithmetic) except the float-mode
bundle paths, which are out of scope here.
"""

import json
import random
import time

import pytest

from lieyamaguti import (
    adjoint,
    check_axioms,
    delta,
    delta_star,
    delta_zero,
    derivations,
    example_3dim,
    h1,
    h23,
    h_upper,
    semidirect,
    trivial_rep,
    twisted_semidirect,
    zero_algebra,
)
from lieyamaguti.bundle import EXACT, check_cocycle, bundle_cohomology
from lieyamaguti.cli import run
from lieyamaguti.cohomology import CochainPair
from lieyamaguti.fixtures import fixture, render
from lieyamaguti.linalg import Matrix
from lieyamaguti.representation import is_representation
from lieyamaguti.schemas import bundle_from_json

from random_cochains import random_c1, random_cochain_pair


def report_line(number: int, ok: bool, text: str) -> None:
    print(f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(render(fixture(name)), encoding="utf-8")
    return str(path)


def test_criterion_01_paper_example_validity(tmp_path, capsys):
    names = ["3dim", "meson2", "meson3", "crossproduct-lie"]
    ok = True
    for name in names:
        path = write_fixture(tmp_path, name)
        t0 = time.monotonic()
        code = run(["check", path, "--out", str(tmp_path / "report.json")])
        elapsed = time.monotonic() - t0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        ok = ok and code == 0 and report["payload"]["axioms"]["ok"] and elapsed < 1.0
    with capsys.disabled():
        report_line(1, ok, f"check passes on {', '.join(names)} in < 1 s each")
    assert ok


def test_criterion_02_negative_detection(tmp_path, capsys):
    # +1 on three structure-constant coordinates of the 3dim fixture
    sites = [
        ("binary e1 coordinate of [e1,e2]", lambda o: o["binary"][0][2].__setitem__(0, "1")),
        ("ternary e1 coordinate of {e1,e2,e1}", lambda o: o["ternary"][0][3].__setitem__(0, "1")),
        (
            "ternary e2 coordinate of {e1,e2,e2}",
            lambda o: o["ternary"].append([1, 2, 2, ["0", "1", "0"]]),
        ),
    ]
    ok = True
    details = []
    for label, mutate in sites:
        obj = fixture("3dim")
        mutate(obj)
        path = tmp_path / "broken.json"
        path.write_text(render(obj), encoding="utf-8")
        code = run(["check", str(path), "--out", str(tmp_path / "report.json")])
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        violated = sorted(report["payload"]["axioms"]["violations"])
        site_ok = code == 1 and len(violated) >= 1
        details.append(f"{label} -> {','.join(violated) or 'none'}")
        ok = ok and site_ok
    with capsys.disabled():
        report_line(2, ok, "; ".join(details))
    assert ok


def test_criterion_03_delta_squared_zero(corpus, capsys):
    rng = random.Random(303)
    ok = True
    for name, (a, r) in corpus.items():
        for p in (1, 2):
            for _ in range(20):
                c = random_cochain_pair(p, a.dim, r.e, rng)
                if not delta(a, r, delta(a, r, c)).is_zero():
                    ok = False
    with capsys.disabled():
        report_line(3, ok, "delta(delta(c)) = 0 exactly, 20 random cochains at p=1,2 per corpus entry")
    assert ok


def test_criterion_04_delta_star_after_delta_zero(corpus, capsys):
    rng = random.Random(404)
    ok = True
    for name, (a, r) in corpus.items():
        for _ in range(20):
            f = random_c1(a.dim, r.e, rng)
            o3, o4 = delta_star(a, r, delta_zero(a, r, f))
            if not (o3.is_zero() and o4.is_zero()):
                ok = False
    with capsys.disabled():
        report_line(4, ok, "delta_star(delta_zero(f)) = (0,0) exactly, 20 random f per corpus entry")
    assert ok


def test_criterion_05_h1_equals_derivations(corpus, capsys):
    results = {}
    ok = True
    for name in ("3dim", "meson2"):
        a, r = corpus[name]
        dim_h1, _ = h1(a, r)
        dim_der = derivations(a).dim
        results[name] = (dim_h1, dim_der)
        ok = ok and dim_h1 == dim_der
    with capsys.disabled():
        report_line(
            5, ok, "; ".join(f"{n}: dim H1 = {h} vs dim Der = {d}" for n, (h, d) in results.items())
        )
    assert ok


def test_criterion_06_semidirect_iff(capsys):
    a = example_3dim()
    r = adjoint(a)
    base_ok = check_axioms(semidirect(a, r)).ok
    failures = 0
    biconditional = True
    for seed in range(100):
        rng = random.Random(seed)
        i, j = rng.randrange(3), rng.randrange(3)
        row, col = rng.randrange(3), rng.randrange(3)
        m = r.theta[i][j]
        entries = list(m.entries)
        entries[row * 3 + col] += 1
        cand = r.replace_theta(i, j, Matrix(3, 3, entries))
        rep_ok = is_representation(a, cand)
        ax_ok = check_axioms(semidirect(a, cand), first_only=True).ok
        if not ax_ok:
            failures += 1
        if rep_ok != ax_ok:
            biconditional = False
    ok = base_ok and failures >= 95 and biconditional
    with capsys.disabled():
        report_line(
            6,
            ok,
            f"semidirect(3dim, adjoint) valid; {failures}/100 perturbations fail; "
            f"biconditional holds per seed: {biconditional}",
        )
    assert ok


def test_criterion_06_biconditional_exhaustive(capsys):
    """All 81 single-entry +1 theta perturbations, not just a sample: the
    validity biconditional holds at every site (75 of 81 sites break it;
    the 6 flat directions live on the diagonal pairs theta(e_i, e_i))."""
    a = example_3dim()
    r = adjoint(a)
    flat_sites = []
    biconditional = True
    for i in range(3):
        for j in range(3):
            for row in range(3):
                for col in range(3):
                    m = r.theta[i][j]
                    entries = list(m.entries)
                    entries[row * 3 + col] += 1
                    cand = r.replace_theta(i, j, Matrix(3, 3, entries))
                    rep_ok = is_representation(a, cand)
                    ax_ok = check_axioms(semidirect(a, cand), first_only=True).ok
                    if rep_ok != ax_ok:
                        biconditional = False
                    if ax_ok:
                        flat_sites.append((i, j, row, col))
    ok = biconditional and len(flat_sites) == 6 and all(i == j for (i, j, _, _) in flat_sites)
    with capsys.disabled():
        report_line(
            6,
            ok,
            f"exhaustive companion: biconditional at all 81 sites; "
            f"{81 - len(flat_sites)}/81 perturbations break validity",
        )
    assert ok


def test_criterion_07_twisted_semidirect(capsys):
    a = example_3dim()
    r = adjoint(a)
    res = h23(a, r)
    cocycle_ok = 0
    for v in res.z_basis:
        tau = CochainPair.from_flat(1, a.dim, r.e, list(v))
        if check_axioms(twisted_semidirect(a, r, tau), first_only=True).ok:
            cocycle_ok += 1
    rng = random.Random(707)
    noncocycle_failures = 0
    drawn = 0
    while drawn < 20:
        tau = random_cochain_pair(1, a.dim, r.e, rng)
        if delta(a, r, tau).is_zero() and all(c.is_zero() for c in delta_star(a, r, tau)):
            continue  # an accidental cocycle does not count as a non-cocycle draw
        drawn += 1
        if not check_axioms(twisted_semidirect(a, r, tau), first_only=True).ok:
            noncocycle_failures += 1
    ok = cocycle_ok == res.z_basis.dim and noncocycle_failures >= 19
    with capsys.disabled():
        report_line(
            7,
            ok,
            f"{cocycle_ok}/{res.z_basis.dim} basis cocycles twist to valid algebras; "
            f"{noncocycle_failures}/20 non-cocycles fail",
        )
    assert ok


def test_criterion_08_trivial_coefficient_cohomology(capsys):
    a = zero_algebra(2)
    r = trivial_rep(a, 1)
    res23 = h23(a, r)
    res45 = h_upper(a, r, 2)
    ok = res23.dim == 3 and res45.dim == 3
    with capsys.disabled():
        report_line(8, ok, f"abelian d=2, e=1, trivial: dim H23 = {res23.dim}, dim H45 = {res45.dim}")
    assert ok


def test_criterion_09_bundle_verification(capsys):
    good = bundle_from_json(fixture("circle-bundle"))
    good_report = check_cocycle(good, EXACT)
    bad_json = fixture("circle-bundle")
    bad_json["transitions"][0]["matrix"] = [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    bad = bundle_from_json(bad_json)
    bad_report = check_cocycle(bad, EXACT)
    n_samples = len(bad.transitions[0].samples)
    bracket_failures = [
        f
        for f in bad_report.failures
        if f.kind == "automorphism"
        and f.detail == "bracket preservation fails"
        and f.where == "U1->U2"
    ]
    ok = good_report.ok and len(bracket_failures) == n_samples
    with capsys.disabled():
        report_line(
            9,
            ok,
            f"circle bundle passes exact cocycle check; diag(2,1,1) yields a bracket "
            f"defect at all {n_samples} samples",
        )
    assert ok


def test_criterion_10_fibrewise_constancy(capsys):
    b = bundle_from_json(fixture("circle-bundle"))
    a = b.fiber
    r = adjoint(a)
    expect_h1 = derivations(a).dim
    expect_h23 = h23(a, r).dim
    rep1 = bundle_cohomology(b, "h1")
    rep23 = bundle_cohomology(b, "h23")
    dims1 = {p.dims["dimH1"] for p in rep1.points}
    dims23 = {p.dims["dimH23"] for p in rep23.points}
    ok = (
        rep1.constant
        and rep23.constant
        and dims1 == {expect_h1}
        and dims23 == {expect_h23}
    )
    with capsys.disabled():
        report_line(
            10,
            ok,
            f"h1 = {sorted(dims1)} and h23 = {sorted(dims23)} constant across all samples "
            f"(single-fiber values {expect_h1}, {expect_h23})",
        )
    assert ok


def test_criterion_11_derivation_bundle_invariance(capsys):
    b = bundle_from_json(fixture("circle-bundle"))
    report = bundle_cohomology(b, "der")
    n_der = derivations(b.fiber).dim
    n_transition_samples = sum(len(tf.samples) for tf in b.transitions)
    ok = report.constant and {p.dims["dimDer"] for p in report.points} == {n_der}
    with capsys.disabled():
        report_line(
            11,
            ok,
            f"s·T·s^-1 passes both derivation identities for all {n_der} basis derivations "
            f"at all {n_transition_samples} sampled transitions",
        )
    assert ok
