"""The cocycle gate's automorphism check against checking every value directly.

In exact mode ``check_cocycle`` reads two results off a passing inverse
check of g_ij(m) and g_ji(m): neither value is singular, and once one of
them is an automorphism, so is the other (automorphisms form a group).
``direct_failures`` is the automorphism loop as it ran before it read the
inverse check, kept here unchanged: ``_singular`` and
``_automorphism_defect`` on every evaluated value.  The gate must report the
same ``checks`` and the same failures, in order, in both modes, on passing
atlases and on inputs where the implication must not fire: a mutated
forward or reverse entry, an exact inverse pair of non-automorphisms, a
singular value, a reverse declared first, repeated sample points and a
transition with no reverse.
"""

import copy

import pytest

from lieyamaguti import bundle
from lieyamaguti.bundle import (
    _SINGULAR,
    EXACT,
    CocycleFailure,
    EvalMode,
    _automorphism_defect,
    _fibre,
    _singular,
    _value,
    check_cocycle,
)
from lieyamaguti.fixtures import fixture
from lieyamaguti.schemas import bundle_from_json

FLOAT = EvalMode("float")

# rotation about e3 with tan(angle / 2) = v: an automorphism of the cross product
CAYLEY = [
    ["(1 - {v}^2)/(1 + {v}^2)", "-2*{v}/(1 + {v}^2)", "0"],
    ["2*{v}/(1 + {v}^2)", "(1 - {v}^2)/(1 + {v}^2)", "0"],
    ["0", "0", "1"],
]
SAMPLES = [["1/2"], ["2"], ["-3/7"]]


def rotation(v: str) -> list:
    return [[entry.format(v=v) for entry in row] for row in CAYLEY]


def cayley_atlas() -> dict:
    """crossproduct-lie over U1, U2 glued by R(t), reversed by R(-s), plus a triple overlap."""
    return {
        "fiber": fixture("crossproduct-lie"),
        "charts": [
            {"name": "U1", "coords": ["t"], "samples": [["0"]]},
            {"name": "U2", "coords": ["s"], "samples": [["0"]]},
        ],
        "transitions": [
            {"from": "U1", "to": "U2", "matrix": rotation("t"), "samples": SAMPLES},
            {"from": "U2", "to": "U1", "matrix": rotation("(-s)"), "samples": SAMPLES},
        ],
        "triples": [{"i": "U1", "j": "U2", "k": "U1", "samples": [[p, p, p] for p in SAMPLES[:2]]}],
    }


def diag_pair() -> dict:
    """diag(1, 2, 3) on 3dim, reversed by its exact inverse diag(1, 1/2, 1/3): neither is an automorphism."""
    atlas = fixture("circle-bundle")
    atlas["transitions"][0]["matrix"] = [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]
    atlas["transitions"][1]["matrix"] = [["1", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1/3"]]
    atlas["triples"] = []
    return atlas


def mutated(path: tuple, value: str, atlas=None) -> dict:
    """The Cayley atlas with one matrix entry (transition, row, column) replaced."""
    atlas = copy.deepcopy(atlas or cayley_atlas())
    k, i, j = path
    atlas["transitions"][k]["matrix"][i][j] = value
    return atlas


def reverse_first() -> dict:
    atlas = cayley_atlas()
    atlas["transitions"].reverse()
    return mutated((0, 2, 2), "1 + s/100 - 1/200", atlas)  # still an automorphism at s = 1/2


def repeated_samples() -> dict:
    atlas = mutated((0, 0, 0), "(1 - t^2)/(1 + t^2) + t - 1/2")  # an automorphism at t = 1/2 only
    for tf in atlas["transitions"]:
        tf["samples"] = [["1/2"], ["2"], ["1/2"], ["2"]]
    return atlas


def unpaired() -> dict:
    atlas = cayley_atlas()
    atlas["charts"].append({"name": "U3", "coords": ["u"], "samples": [["0"]]})
    atlas["transitions"].append({"from": "U1", "to": "U3", "matrix": rotation("t"), "samples": SAMPLES})
    atlas["transitions"].append({"from": "U2", "to": "U3", "matrix": diag_pair()["transitions"][0]["matrix"], "samples": [["1"]]})
    return atlas


INPUTS = {
    "circle-bundle": lambda: fixture("circle-bundle"),
    "cayley": cayley_atlas,
    "mutated forward": lambda: mutated((0, 2, 2), "1 + t/1000"),
    "mutated reverse": lambda: mutated((1, 0, 1), "2*(-s)/(1 + s^2) + 1/7"),
    "inverse pair of non-automorphisms": diag_pair,
    "singular forward": lambda: mutated((0, 2, 2), "1 - 2*t"),  # singular at t = 1/2
    "reverse declared first": reverse_first,
    "repeated samples": repeated_samples,
    "no reverse": unpaired,
}


def direct_failures(b, mode: EvalMode) -> list:
    """Every value's automorphism check, computed: the gate's last loop before it read the inverse check."""
    fibre = _fibre(b.fiber, mode)
    failures = []
    for tf in b.transitions:
        for pt in tf.samples:
            pair = _value(b, tf, pt, mode)
            if _singular(pair[1], mode):
                failures.append(CocycleFailure("automorphism", tf.label(), pt, None, _SINGULAR[mode.kind]))
                continue
            norm = _automorphism_defect(pair, fibre, mode)
            if norm > mode.bound:
                failures.append(CocycleFailure("automorphism", tf.label(), pt, norm, "bracket preservation fails"))
    return failures


def expected_checks(b) -> int:
    """Identity, triple, inverse (pairs with equal sample counts) and automorphism checks."""
    values = sum(len(tf.samples) for tf in b.transitions)
    identity = sum(len(tf.samples) for tf in b.transitions if tf.frm == tf.to)
    triple = sum(len(tr.samples) for tr in b.triples)
    inverse = 0
    for tf in b.transitions:
        rev = b.transition(tf.to, tf.frm)
        if tf.frm != tf.to and rev is not None and b.transitions.index(rev) > b.transitions.index(tf):
            inverse += len(tf.samples) if len(tf.samples) == len(rev.samples) else 0
    return identity + triple + inverse + values


def rows(failures) -> list:
    return [(f.kind, f.where, f.point, f.defect_norm, f.detail) for f in failures]


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_gate_matches_direct_automorphism_loop(name, mode):
    report = check_cocycle(bundle_from_json(INPUTS[name]()), mode)
    b = bundle_from_json(INPUTS[name]())
    earlier = [f for f in check_cocycle(b, mode).failures if f.kind != "automorphism"]
    assert rows(report.failures) == rows(earlier + direct_failures(b, mode))
    assert report.checks == expected_checks(b)
    if name in ("circle-bundle", "cayley"):
        assert report.ok


def _counting(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(bundle, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bundle, name, counted)
    return calls


def test_exact_gate_expands_each_forward_value_once(monkeypatch):
    b = bundle_from_json(cayley_atlas())
    map_defects, singular = _counting(monkeypatch, "_map_defect"), _counting(monkeypatch, "_singular")
    assert check_cocycle(b).ok
    assert len(map_defects) == len(SAMPLES)  # the forward values; each reverse is implied
    assert singular == []  # every value is exactly paired


def test_float_gate_checks_every_value_by_determinant(monkeypatch):
    b = bundle_from_json(cayley_atlas())
    map_defects, dets, inverts = (_counting(monkeypatch, name) for name in ("_map_defect", "_det", "_invert"))
    assert check_cocycle(b, FLOAT).ok
    assert len(map_defects) == len(dets) == 2 * len(SAMPLES)
    assert inverts == []


@pytest.mark.parametrize("mode", [EXACT, FLOAT], ids=["exact", "float"])
def test_gate_builds_no_dense_view_of_the_fibre(mode):
    b = bundle_from_json(cayley_atlas())
    assert check_cocycle(b, mode).ok
    assert "binary" not in vars(b.fiber) and "ternary" not in vars(b.fiber)
