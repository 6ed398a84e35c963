"""Validity is computed once per algebra and enforced by one guard.

Every entry point that needs a Lie-Yamaguti algebra refuses an invalid one
with the same ``InvalidAlgebra`` message, naming the algebra, its first
violated identity and the 1-based basis tuple; the CLI turns it into exit 2
with that diagnostic.  The predicates and products keep accepting invalid
algebras.
"""

import json
from fractions import Fraction

import pytest

from lieyamaguti import (
    adjoint,
    check_axioms,
    check_representation,
    delta,
    delta_star,
    delta_zero,
    derivations,
    from_sparse,
    h1,
    h23,
    h_upper,
    inner_derivation,
    is_derivation,
    is_valid,
    semidirect,
    trivial_rep,
    twisted_semidirect,
)
from lieyamaguti.bundle import BundleSpec, Chart
from lieyamaguti.cli import run
from lieyamaguti.cohomology import (
    CochainPair,
    delta_matrix,
    delta_star_matrix,
    delta_zero_matrix,
    transport_defects,
)
from lieyamaguti.errors import InvalidAlgebra
from lieyamaguti.fixtures import fixture
from lieyamaguti.linalg import Matrix
from lieyamaguti.representation import check_rlyb7
from lieyamaguti.schemas import algebra_to_json

# [e1, e2] = e1 + e3 and {e1, e2, e1} = e3: LY1 and LY2 hold, LY5 fails
BAD = from_sparse(3, {(0, 1): (1, 0, 1)}, {(0, 1, 0): (0, 0, 1)}, "ly5-broken")
MESSAGE = "algebra ly5-broken violates LY5 on basis tuple (1, 2, 1, 2)"
TRIVIAL = trivial_rep(BAD, 1)
IDENTITY = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]

GUARDED = {
    "derivations": lambda: derivations(BAD),
    "inner_derivation": lambda: inner_derivation(BAD, (1, 0, 0), (0, 1, 0)),
    "is_derivation": lambda: is_derivation(Matrix.zero(3, 3), BAD),
    "adjoint": lambda: adjoint(BAD),
    "check_representation": lambda: check_representation(BAD, TRIVIAL),
    "check_rlyb7": lambda: check_rlyb7(BAD, TRIVIAL),
    "BundleSpec": lambda: BundleSpec(BAD, (Chart("U", ("t",), ((Fraction(0),),)),), ()),
    "h1": lambda: h1(BAD, TRIVIAL),
    "h23": lambda: h23(BAD, TRIVIAL),
    "h_upper": lambda: h_upper(BAD, TRIVIAL, 2),
    "delta": lambda: delta(BAD, TRIVIAL, CochainPair.zero(1, 3, 1)),
    "delta_star": lambda: delta_star(BAD, TRIVIAL, CochainPair.zero(1, 3, 1)),
    "delta_zero": lambda: delta_zero(BAD, TRIVIAL, Matrix.zero(1, 3)),
    "transport_defects": lambda: transport_defects(BAD, TRIVIAL, 1, [(IDENTITY, IDENTITY)]),
}


@pytest.mark.parametrize("entry", sorted(GUARDED))
def test_every_guarded_entry_point_refuses_an_invalid_algebra(entry):
    with pytest.raises(InvalidAlgebra) as info:
        GUARDED[entry]()
    assert str(info.value) == MESSAGE


def test_predicates_and_products_accept_an_invalid_algebra():
    assert not is_valid(BAD)
    assert check_axioms(BAD).violated_axioms() == ["LY5"]
    tau = CochainPair.zero(1, 3, 1)
    for product in (semidirect(BAD, TRIVIAL), twisted_semidirect(BAD, TRIVIAL, tau)):
        assert not is_valid(product)
    assert delta_zero_matrix(BAD, TRIVIAL).cols == 3
    assert delta_matrix(BAD, TRIVIAL, 1).cols == 12
    assert delta_star_matrix(BAD, TRIVIAL).cols == 12


def _cli(capsys, *argv):
    code = run(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "argv",
    [
        ("derivations",),
        ("cohomology",),
        ("cohomology", "--rep", "trivial"),
        ("cohomology", "--p", "2"),
        ("rep-check",),
        ("rep-check", "--rep", "trivial"),
        ("semidirect",),
        ("twist", "--tau-cocycle", "0"),
    ],
    ids=" ".join,
)
def test_cli_refuses_an_invalid_algebra(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(algebra_to_json(BAD)), encoding="utf-8")
    code, report = _cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert (report["command"], report["status"], report["payload"]) == (argv[0], "error", {})
    assert report["diagnostics"] == [MESSAGE]


def test_cli_bundle_check_refuses_an_invalid_fibre(tmp_path, capsys):
    bundle = fixture("circle-bundle")
    bundle["fiber"] = algebra_to_json(BAD)
    path = tmp_path / "bad-bundle.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    code, report = _cli(capsys, "bundle-check", str(path))
    assert code == 2
    assert (report["status"], report["diagnostics"]) == ("error", [MESSAGE])
