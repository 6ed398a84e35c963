"""CLI reports of the bundle layer pinned byte for byte.

The digests are SHA-256 of the JSON that ``lieyamaguti.cli.run`` writes,
recorded before the bundle layer moved to one scalar-generic path.  They
cover the exact ``bundle-check`` failure kinds (a non-automorphism, a broken
reverse, a non-identity self transition, a sample-count mismatch and a
singular transition) and ``bundle-cohomology`` on the circle fixture in both
evaluation modes.

The circle fibre has integer structure constants, so a second set pins exact
failure reports on a fibre with denominators: ``crossproduct-lie`` rebased by
diag(1/3, 5/7, 2), glued by Cayley rotations about e3 written in that basis.
These digests were recorded while the cocycle gate still ran on ``Fraction``
rows, before it moved to integer-scaled values.
"""

import copy
import hashlib

import pytest
from test_denominators import rebased

from lieyamaguti.cli import run
from lieyamaguti.fixtures import cross_product_lie, fixture, render
from lieyamaguti.schemas import algebra_to_json

IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def _diag211(obj):
    obj["transitions"][0]["matrix"] = [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def _broken_reverse(obj):
    obj["transitions"][1]["matrix"] = IDENTITY


def _self_transition(obj):
    obj["transitions"].append(
        {
            "from": "U1",
            "to": "U1",
            "matrix": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
            "samples": [["0"], ["1/3"]],
        }
    )


def _sample_mismatch(obj):
    obj["transitions"][1]["samples"] = [["-1"], ["1/2"]]


def _singular(obj):
    obj["transitions"][0]["matrix"] = [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "1 - t^2"]]


BUNDLE_CHECK_DIGESTS = {
    "diag211": "4ae2fe317ccd15b5538676f09935f4ad0a3ef8f77980af35fcb5b12e7d6d00b9",
    "broken-reverse": "b3a705a73abdddc86a2b525109fae92da603445ff599b742291233206c659b52",
    "self-transition": "cb33a5b02c724ea2df8dcc76fe0974671747aa09ba289d9d6e1926edf8f2ee1f",
    "sample-mismatch": "bc9cb39bd9b2a3521626475cdbf7e24ce89bc9fb25bf8850625f2ecd6b45fa77",
    "singular": "54348e33a1d0169669a510d5b0182d02c08ac3b7a0c780fb6601db88b538bc35",
}

EDITS = {
    "diag211": _diag211,
    "broken-reverse": _broken_reverse,
    "self-transition": _self_transition,
    "sample-mismatch": _sample_mismatch,
    "singular": _singular,
}

COHOMOLOGY_DIGESTS = {
    ("h1", "exact"): "e09247b93a18795c83d3dc6b9d29e5daa03874ea95ae0b7dac9ed86f5bf19312",
    ("h23", "exact"): "79f2e9566b4ce611c967acd3609fc01d95387c4a825f18ecad2d179b81205726",
    ("der", "exact"): "615324f8c32ffbf27af2e1417ce2c92a275a86a8ae2c212a12c97aa1740d519c",
    ("upper", "exact"): "5ad0f54e0c111683c447564648a2db4b8d78d688c15b8fe1de1c135ca6a08ee4",
    ("h1", "float"): "e09247b93a18795c83d3dc6b9d29e5daa03874ea95ae0b7dac9ed86f5bf19312",
    ("h23", "float"): "79f2e9566b4ce611c967acd3609fc01d95387c4a825f18ecad2d179b81205726",
    ("upper", "float"): "5ad0f54e0c111683c447564648a2db4b8d78d688c15b8fe1de1c135ca6a08ee4",
}


def _cli_digest(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(EDITS))
def test_bundle_check_failure_reports_pinned(tmp_path, capsys, case):
    obj = fixture("circle-bundle")
    EDITS[case](obj)
    path = tmp_path / f"{case}.json"
    path.write_text(render(obj), encoding="utf-8")
    code, digest = _cli_digest(capsys, ["bundle-check", str(path)])
    assert code == 1
    assert digest == BUNDLE_CHECK_DIGESTS[case]


@pytest.mark.parametrize("which, mode", sorted(COHOMOLOGY_DIGESTS))
def test_bundle_cohomology_payloads_pinned(tmp_path, capsys, which, mode):
    path = tmp_path / "circle.json"
    path.write_text(render(fixture("circle-bundle")), encoding="utf-8")
    code, digest = _cli_digest(capsys, ["bundle-cohomology", str(path), "--which", which, "--mode", mode])
    assert code == 0
    assert digest == COHOMOLOGY_DIGESTS[(which, mode)]


# Cayley rotation about e3 in the basis f_i = s_i e_i of ``rebased``: the
# entry (i, j) of the rotation becomes R_ij s_j / s_i.
ROTATION = [
    ["(1 - t^2)/(1 + t^2)", "-30*t/(7*(1 + t^2))", "0"],
    ["14*t/(15*(1 + t^2))", "(1 - t^2)/(1 + t^2)", "0"],
    ["0", "0", "1"],
]
ROTATION_REV = [
    ["(1 - s^2)/(1 + s^2)", "30*s/(7*(1 + s^2))", "0"],
    ["-14*s/(15*(1 + s^2))", "(1 - s^2)/(1 + s^2)", "0"],
    ["0", "0", "1"],
]


def rebased_rotation_bundle() -> dict:
    overlap = [["-1/2"], ["1/3"], ["5/4"]]
    return {
        "fiber": algebra_to_json(rebased(cross_product_lie())),
        "charts": [
            {"name": "U1", "coords": ["t"], "samples": [["-1"], ["0"], ["2/3"]]},
            {"name": "U2", "coords": ["s"], "samples": [["-1"], ["0"], ["2/3"]]},
        ],
        "transitions": [
            {"from": "U1", "to": "U2", "matrix": copy.deepcopy(ROTATION), "samples": overlap},
            {"from": "U2", "to": "U1", "matrix": copy.deepcopy(ROTATION_REV), "samples": overlap},
        ],
        "triples": [
            {
                "i": "U1",
                "j": "U2",
                "k": "U1",
                "samples": [[["-1/2"], ["-1/2"], ["-1/2"]], [["5/4"], ["5/4"], ["5/4"]]],
            }
        ],
    }


def _stretch(obj):
    obj["transitions"][0]["matrix"] = [["1 + t^2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    obj["transitions"][1]["matrix"] = [["1/(1 + s^2)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def _rebased_broken_reverse(obj):
    obj["transitions"][1]["matrix"] = IDENTITY


def _mismatched_triple(obj):
    obj["triples"][0]["samples"] = [[["1/3"], ["-1/2"], ["1/3"]], [["5/4"], ["5/4"], ["5/4"]]]


def _rebased_singular(obj):
    obj["transitions"][0]["matrix"][2][2] = "3*t - 1"


REBASED_CHECK_DIGESTS = {
    "non-automorphism": "a99df1b1d1610b0f41718caa25b7fb4c7e67c2ae31cf2289fc863577863412ea",
    "broken-reverse": "3c2fe084097905ecbf86ad8f82aea83e6ec3d970bb0210743d4f48a39b891584",
    "triple": "31eee92e18ac0fef3fd7826ac9561b223a5ca814afc923c404a55d179c1fe605",
    "singular": "2f1fe7effaf28799451823338cc756ae0b836322b5bc7b6d18e306ca203f44dd",
}

REBASED_EDITS = {
    "non-automorphism": _stretch,
    "broken-reverse": _rebased_broken_reverse,
    "triple": _mismatched_triple,
    "singular": _rebased_singular,
}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_rebased_rotation_bundle_passes(tmp_path, capsys, mode):
    path = tmp_path / "rotation.json"
    path.write_text(render(rebased_rotation_bundle()), encoding="utf-8")
    assert run(["bundle-check", str(path), "--mode", mode]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("case", sorted(REBASED_EDITS))
def test_bundle_check_failure_reports_pinned_with_denominators(tmp_path, capsys, case):
    obj = rebased_rotation_bundle()
    REBASED_EDITS[case](obj)
    path = tmp_path / f"{case}.json"
    path.write_text(render(obj), encoding="utf-8")
    code, digest = _cli_digest(capsys, ["bundle-check", str(path)])
    assert code == 1
    assert digest == REBASED_CHECK_DIGESTS[case]
