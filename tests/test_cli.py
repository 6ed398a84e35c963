import json
import pathlib
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieyamaguti.cli import run
from lieyamaguti.fixtures import FIXTURES, fixture, render


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(render(fixture(name)), encoding="utf-8")
    return str(path)


def test_examples_to_stdout(capsys):
    code = run(["examples", "meson2"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    # delta-formula entries: {G1,G2,G1} = G2 and {G1,G2,G2} = -G1
    assert [1, 2, 1, ["0", "1"]] in obj["ternary"]
    assert [1, 2, 2, ["-1", "0"]] in obj["ternary"]


def test_examples_abelian2(capsys):
    code, obj = run_cli(capsys, "examples", "abelian2")
    assert code == 0
    assert obj["dim"] == 2
    assert obj["binary"] == [] and obj["ternary"] == []


def test_examples_circle_bundle_has_transitions(capsys):
    code, obj = run_cli(capsys, "examples", "circle-bundle")
    assert code == 0
    assert obj["transitions"][0]["matrix"][1][1] == "1 + t^2"


def test_examples_unknown_name_usage_error(capsys):
    code, report = run_cli(capsys, "examples", "nope")
    assert code == 2
    assert report["command"] == "examples"
    assert report["status"] == "error"
    assert report["payload"] == {}
    assert "invalid choice: 'nope'" in report["diagnostics"][0]


def test_examples_byte_stable(tmp_path):
    a = write_fixture(tmp_path, "3dim")
    b = write_fixture(tmp_path / "other" if (tmp_path / "other").mkdir() or True else tmp_path, "3dim")
    assert open(a, "rb").read() == open(b, "rb").read()


def test_round_trip_every_fixture(tmp_path, capsys):
    """Each emitted fixture re-parses and passes its own check command."""
    for name in FIXTURES:
        path = write_fixture(tmp_path, name)
        cmd = "bundle-check" if name == "circle-bundle" else "check"
        code, report = run_cli(capsys, cmd, path)
        assert code == 0, (name, report)
        assert report["status"] == "pass"


def test_golden_report_schema(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "check", path)
    assert code == 0
    assert set(report) == {"command", "status", "payload", "diagnostics"}
    assert report["command"] == "check"
    assert report["payload"]["axioms"] == {"ok": True, "violations": {}}


def test_check_failure_exit_code(tmp_path, capsys):
    obj = fixture("3dim")
    obj["ternary"][0][3][0] = "1"  # {e1,e2,e1} gains +e1
    path = tmp_path / "broken.json"
    path.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "check", str(path))
    assert code == 1
    assert report["status"] == "fail"
    assert report["payload"]["axioms"]["violations"]


def test_check_malformed_json_exit_2(tmp_path, capsys):
    """Bad syntax, and nesting too deep for the decoder, are input errors."""
    path = tmp_path / "bad.json"
    for text, diagnostic in [
        ("{not json", "JSONDecodeError: Expecting property name enclosed in double quotes"),
        ("[" * 200_000 + "]" * 200_000, f"{path}: JSON nested too deeply to read"),
    ]:
        path.write_text(text, encoding="utf-8")
        code, report = run_cli(capsys, "check", str(path))
        assert code == 2
        assert (report["status"], report["payload"]) == ("error", {})
        assert report["diagnostics"][0].startswith(diagnostic)


def test_deeply_nested_rep_file_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep-rep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, report = run_cli(capsys, "rep-check", write_fixture(tmp_path, "3dim"), "--rep", str(deep))
    assert code == 2
    assert (report["command"], report["status"], report["payload"]) == ("rep-check", "error", {})
    assert report["diagnostics"] == [f"{deep}: JSON nested too deeply to read"]


def test_check_missing_file_exit_2(capsys):
    code, report = run_cli(capsys, "check", "/nonexistent/path.json")
    assert code == 2


USAGE_ERRORS = [
    (["frobnicate"], "?", "invalid choice: 'frobnicate'"),
    ([], "?", "the following arguments are required: command"),
    (["check"], "check", "the following arguments are required: input"),
    (["check", "x.json", "--bogus"], "?", "unrecognized arguments: --bogus"),
    (["bundle-check", "x.json", "--mode", "float", "--tol", "-inf"], "bundle-check", "argument --tol: expected one argument"),
    (["cohomology", "x.json", "--p", "two"], "cohomology", "argument --p: invalid int value: 'two'"),
]


def test_usage_error_exit_2(capsys):
    """A usage error exits 2 with the error envelope; the command is "?" where argparse cannot tell."""
    for argv, command, message in USAGE_ERRORS:
        code, report = run_cli(capsys, *argv)
        assert code == 2, argv
        assert (report["command"], report["status"], report["payload"]) == (command, "error", {}), argv
        [diagnostic] = report["diagnostics"]
        assert message in diagnostic, argv


def test_help_exit_0(capsys):
    assert run(["--help"]) == 0
    assert run(["cohomology", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_derivations_command(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "derivations", path)
    assert code == 0
    assert report["payload"]["dim"] == 4


@pytest.mark.parametrize("command", ["cohomology", "bundle-cohomology"])
def test_cap_applies_at_p1(tmp_path, capsys, command):
    """--cap bounds h23 by C^5, which has 3^2 * 3 * 3 = 81 coordinates for 3dim."""
    if command == "cohomology":
        argv = ["cohomology", write_fixture(tmp_path, "3dim"), "--p", "1"]
    else:
        argv = ["bundle-cohomology", write_fixture(tmp_path, "circle-bundle"), "--which", "h23"]
    code, report = run_cli(capsys, *argv, "--cap", "80")
    assert code == 3
    assert report["command"] == command
    assert report["status"] == "error"
    assert report["diagnostics"] == ["target cochain space has 81 coordinates, cap is 80"]
    code, report = run_cli(capsys, *argv, "--cap", "81")
    assert code == 0
    assert report["status"] == "pass"


@pytest.mark.parametrize(
    "which, largest", [("h1", 27), ("der", 27), ("h23", 81), ("upper", 243)]
)
def test_bundle_cap_applies_to_every_group(tmp_path, capsys, which, largest):
    """--cap bounds C^(2p+3) at every level: C^3 for h1 and der, C^5 for h23, C^7 for upper --p 2."""
    path = write_fixture(tmp_path, "circle-bundle")
    code, report = run_cli(capsys, "bundle-cohomology", path, "--which", which, "--cap", "1")
    assert code == 3
    assert (report["command"], report["status"], report["payload"]) == ("bundle-cohomology", "error", {})
    assert report["diagnostics"] == [f"target cochain space has {largest} coordinates, cap is 1"]


def test_cohomology_p1(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "cohomology", "--p", "1", "--rep", "adjoint", path)
    assert code == 0
    p = report["payload"]
    assert p["dimH23"] == 9
    assert p["dimH1"] == 4
    assert p["delta_squared_zero"] is True
    assert "reading" in p


def test_cohomology_p2(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "cohomology", path, "--p", "2")
    assert code == 0
    assert report["payload"] == {"p": 2, "dimZ": 42, "dimB": 20, "dimH": 22, "delta_squared_zero": True}


def test_cohomology_p0_is_refused(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "cohomology", path, "--p", "0")
    assert code == 2
    assert (report["status"], report["payload"], report["diagnostics"]) == ("error", {}, ["--p must be >= 1"])


@pytest.mark.parametrize("command", ["cohomology", "rep-check", "semidirect", "twist"])
def test_negative_rep_dim_is_refused(tmp_path, capsys, command):
    path = write_fixture(tmp_path, "3dim")
    extra = ["--tau-cocycle", "0"] if command == "twist" else []
    code, report = run_cli(capsys, command, path, "--rep", "trivial", "--rep-dim", "-1", *extra)
    assert code == 2
    assert (report["command"], report["status"], report["payload"]) == (command, "error", {})
    assert report["diagnostics"] == ["matrix shape -1x-1 is negative"]


@pytest.mark.parametrize(
    "command, argv",
    [
        ("cohomology", ["3dim", "--p", "20000"]),
        ("bundle-cohomology", ["circle-bundle", "--which", "upper", "--p", "20000"]),
    ],
)
def test_huge_p_hits_the_cap(tmp_path, capsys, command, argv):
    """C^(2p+3) has 3 * 3**20001 coordinates: refused by its size, never formatted."""
    code, report = run_cli(capsys, command, write_fixture(tmp_path, argv[0]), *argv[1:])
    assert code == 3
    assert (report["command"], report["status"], report["payload"]) == (command, "error", {})
    assert report["diagnostics"] == ["target cochain space has more than 2**2048 coordinates, cap is 50000"]


def test_cohomology_trivial_rep(tmp_path, capsys):
    path = write_fixture(tmp_path, "abelian2")
    code, report = run_cli(
        capsys, "cohomology", "--p", "1", "--rep", "trivial", "--rep-dim", "1", path
    )
    assert code == 0
    assert report["payload"]["dimH"] == 3


def test_cohomology_cap_exit_3(tmp_path, capsys):
    path = write_fixture(tmp_path, "meson3")
    code, report = run_cli(capsys, "cohomology", "--p", "4", "--cap", "100", path)
    assert code == 3
    assert report["status"] == "error"


def test_trivial_module_past_the_cap_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    """Every command bounds the trivial module's e x e maps: 224**2 > 50000 exits 3 without building them.

    ``cohomology`` bounds them by --cap; the commands without --cap by the
    default cap.  ``rep-check``, ``semidirect`` and ``twist`` also refuse,
    before any product or check, a module whose product's LY scan of n**5
    tuples is over 50000 x 7**3, that is n = d + e > 27.
    """

    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"{what} called")

        return refused

    path = write_fixture(tmp_path, "meson2")
    commands = {
        "cohomology": [],
        "rep-check": [],
        "semidirect": [],
        "twist": ["--tau-cocycle", "0"],
    }
    with monkeypatch.context() as patched:
        patched.setattr("lieyamaguti.representation.trivial_rep", refuse("trivial_rep"))
        for command, extra in commands.items():
            code, report = run_cli(capsys, command, path, "--rep", "trivial", "--rep-dim", "224", *extra)
            assert code == 3, command
            assert (report["status"], report["payload"]) == ("error", {}), command
            assert report["diagnostics"] == ["trivial module maps have 224x224 = 50176 entries, cap is 50000"]
        code, _ = run_cli(capsys, "cohomology", path, "--rep", "trivial", "--rep-dim", "3", "--cap", "8")
        assert code == 3
    monkeypatch.setattr("lieyamaguti.representation._product_algebra", refuse("_product_algebra"))
    monkeypatch.setattr("lieyamaguti.cohomology.h23", refuse("h23"))
    monkeypatch.setattr("lieyamaguti.representation.check_representation", refuse("check_representation"))
    for command in ("rep-check", "semidirect", "twist"):
        code, report = run_cli(capsys, command, path, "--rep", "trivial", "--rep-dim", "26", *commands[command])
        assert code == 3, command
        assert report["diagnostics"] == [
            "a product g ⋉ V of dimension over 27 scans n**5 tuples, over cap x 7**3 = 17150000"
        ]


@pytest.mark.parametrize("e, code", [(24, 0), (25, 3)])
def test_rep_check_module_file_is_bounded_as_its_product(tmp_path, capsys, monkeypatch, e, code):
    """RLYB1..RLYB6 hold exactly when g ⋉ V is an LY algebra, so rep-check is refused where semidirect is.

    Over ``3dim`` a module file with e = 25 gives d + e = 28 > 27: exit 3
    before ``check_representation`` runs; e = 24 still runs.
    """
    from lieyamaguti import representation

    checked = []
    check = representation.check_representation
    monkeypatch.setattr(representation, "check_representation", lambda a, r: checked.append(r.e) or check(a, r))
    zero = [["0"] * e for _ in range(e)]
    module = {"e": e, "rho": [zero] * 3, "D": [[zero] * 3] * 3, "theta": [[zero] * 3] * 3}
    rep_path = tmp_path / "module.json"
    rep_path.write_text(json.dumps(module), encoding="utf-8")
    got, report = run_cli(capsys, "rep-check", write_fixture(tmp_path, "3dim"), "--rep", str(rep_path))
    assert got == code
    if code == 3:
        assert (report["status"], report["payload"], checked) == ("error", {}, [])
        assert report["diagnostics"] == [
            "a product g ⋉ V of dimension over 27 scans n**5 tuples, over cap x 7**3 = 17150000"
        ]
    else:
        assert (report["status"], checked) == ("pass", [e])


@pytest.mark.parametrize("command", ["check", "cohomology", "bundle-check"])
def test_huge_dim_is_refused_before_any_slot(tmp_path, capsys, monkeypatch, command):
    """A 40-byte algebra with dim 10**9 exits 3 at load, before ``_from_entries`` allocates d**3 slots.

    An algebra's LY scan runs over d**5 tuples, bounded by 50000 x 7**3 as a
    product's is, so d <= 27; a bundle's fibre is read by the same loader.
    """

    def refused(*args, **kwargs):
        raise AssertionError("_from_entries called")

    monkeypatch.setattr("lieyamaguti.algebra._from_entries", refused)
    monkeypatch.setattr("lieyamaguti.bundle._from_entries", refused)
    algebra = {"dim": 10**9, "binary": [], "ternary": []}
    if command == "bundle-check":
        doc = {"fiber": algebra, "charts": [{"name": "U", "coords": ["t"], "samples": [["0"]]}]}
    else:
        doc = algebra
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_cli(capsys, command, str(path))
    assert code == 3
    assert (report["status"], report["payload"]) == ("error", {})
    assert report["diagnostics"] == [
        "an algebra of dimension over 27 scans n**5 tuples, over cap x 7**3 = 17150000"
    ]


def test_trivial_module_at_the_cap_is_accepted(tmp_path, capsys):
    path = write_fixture(tmp_path, "meson2")
    code, report = run_cli(capsys, "cohomology", path, "--rep", "trivial", "--rep-dim", "3", "--cap", "9")
    assert code == 0
    assert report["payload"]["delta_squared_zero"] is True


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("rho", 5, "representation: 'rho' must be a list"),
        ("D", [1, 2, 3], "representation: 'D' row 1 must be a list"),
    ],
    ids=["rho-not-a-list", "D-row-not-a-list"],
)
def test_rep_loader_names_the_field(tmp_path, capsys, key, value, where):
    from lieyamaguti import adjoint, example_3dim
    from lieyamaguti.schemas import representation_to_json

    alg_path = write_fixture(tmp_path, "3dim")
    obj = {**representation_to_json(adjoint(example_3dim())), key: value}
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(obj), encoding="utf-8")
    code, report = run_cli(capsys, "rep-check", alg_path, "--rep", str(rep_path))
    assert code == 2
    assert (report["status"], report["payload"]) == ("error", {})
    assert report["diagnostics"][0].startswith(where), report["diagnostics"]


def test_rep_file_with_a_ragged_family_is_refused_when_built(tmp_path, capsys):
    """A theta family with a short row is refused by ``Representation(...)``: exit 2, its diagnostic."""
    from lieyamaguti import adjoint, example_3dim
    from lieyamaguti.schemas import representation_to_json

    alg_path = write_fixture(tmp_path, "3dim")
    obj = representation_to_json(adjoint(example_3dim()))
    obj["theta"][2] = obj["theta"][2][:2]
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(obj), encoding="utf-8")
    for command in ("rep-check", "cohomology", "semidirect"):
        code, report = run_cli(capsys, command, alg_path, "--rep", str(rep_path))
        assert (code, report["status"], report["payload"]) == (2, "error", {}), command
        assert report["diagnostics"] == ["D/theta must be d x d families"], command


def test_twist_refuses_repeated_tau_entry(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    tau_path = tmp_path / "tau.json"
    f = [[1, 2, ["1", "0", "0"]], [1, 2, ["0", "0", "0"]]]
    tau_path.write_text(json.dumps({"p": 1, "f": f, "g": []}), encoding="utf-8")
    code, report = run_cli(capsys, "twist", path, "--tau", str(tau_path))
    assert code == 2
    assert report["diagnostics"] == ["duplicate f entry (1, 2)"]


def test_rep_check_adjoint(tmp_path, capsys):
    path = write_fixture(tmp_path, "meson2")
    code, report = run_cli(capsys, "rep-check", path)
    assert code == 0
    assert report["payload"]["rlyb7_ok"] is True


def test_rep_check_from_file(tmp_path, capsys):
    from lieyamaguti import adjoint, example_3dim
    from lieyamaguti.schemas import representation_to_json

    alg_path = write_fixture(tmp_path, "3dim")
    rep = representation_to_json(adjoint(example_3dim()))
    rep["theta"][0][1][0][0] = "1"  # perturb
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep), encoding="utf-8")
    code, report = run_cli(capsys, "rep-check", alg_path, "--rep", str(rep_path))
    assert code == 1
    assert "RLYB1" in report["payload"]["violations"]


def test_semidirect_command(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "semidirect", path)
    assert code == 0
    assert report["payload"]["axioms_ok"] is True
    assert report["payload"]["algebra"]["dim"] == 6


def test_twist_zero_cochain_matches_semidirect(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    tau_path = tmp_path / "tau.json"
    tau_path.write_text(json.dumps({"p": 1, "f": [], "g": []}), encoding="utf-8")
    code, twisted = run_cli(capsys, "twist", path, "--tau", str(tau_path))
    assert code == 0
    code2, plain = run_cli(capsys, "semidirect", path)
    for key in ("dim", "binary", "ternary"):
        assert twisted["payload"]["algebra"][key] == plain["payload"]["algebra"][key]


def test_twist_by_computed_cocycle(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "twist", path, "--tau-cocycle", "0")
    assert code == 0
    assert report["payload"]["tau_is_cocycle"] is True
    assert report["payload"]["axioms_ok"] is True


def test_twist_cocycle_index_out_of_range(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "twist", path, "--tau-cocycle", "99")
    assert code == 2
    assert (report["status"], report["payload"]) == ("error", {})
    assert report["diagnostics"] == ["--tau-cocycle index 99 out of range (dim Z = 14)"]


def test_twist_requires_exactly_one_source(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "twist", path)
    assert code == 2


def test_bundle_check_pass_and_fail(tmp_path, capsys):
    path = write_fixture(tmp_path, "circle-bundle")
    code, report = run_cli(capsys, "bundle-check", path)
    assert code == 0
    obj = fixture("circle-bundle")
    obj["transitions"][0]["matrix"] = [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    bad = tmp_path / "bad-bundle.json"
    bad.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-check", str(bad))
    assert code == 1
    kinds = {f["kind"] for f in report["payload"]["failures"]}
    assert "automorphism" in kinds


def test_bundle_check_undeclared_triple_leg_is_structural(tmp_path, capsys):
    """A (U1, U2, U3) overlap with no U2->U3 transition fails at the overlap's sample, in all three charts."""
    obj = fixture("circle-bundle")
    obj["charts"].append({"name": "U3", "coords": ["u"], "samples": [["0"]]})
    obj["triples"] = [{"i": "U1", "j": "U2", "k": "U3", "samples": [[["1"], ["2"], ["3"]]]}]
    path = tmp_path / "open-triple.json"
    path.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-check", str(path))
    assert code == 1
    structural = [f for f in report["payload"]["failures"] if f["kind"] == "structural"]
    assert structural == [
        {
            "kind": "structural",
            "where": "(U1,U2,U3)",
            "point": [["1"], ["2"], ["3"]],
            "defect_norm": None,
            "detail": "no declared transition U2->U3 for this triple overlap",
        }
    ]


def test_bundle_check_float_mode(tmp_path, capsys):
    obj = fixture("circle-bundle")
    # diag(1, e^t, e^t) is a fibrewise automorphism family for the 3dim fibre
    obj["transitions"][0]["matrix"] = [
        ["1", "0", "0"],
        ["0", "exp(t)", "0"],
        ["0", "0", "exp(t)"],
    ]
    obj["transitions"][1]["matrix"] = [
        ["1", "0", "0"],
        ["0", "exp(-s)", "0"],
        ["0", "0", "exp(-s)"],
    ]
    path = tmp_path / "exp-bundle.json"
    path.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-check", str(path), "--mode", "float")
    assert code == 0, report
    # exact mode cannot evaluate exp away from 0
    code, report = run_cli(capsys, "bundle-check", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "entry",
    ["(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t", " + ".join(["t"] * 3000)],
    ids=["parentheses", "unary-minus", "sum"],
)
def test_bundle_check_deep_expression_exit_2(tmp_path, capsys, entry):
    obj = fixture("circle-bundle")
    obj["transitions"][0]["matrix"][0][0] = entry
    path = tmp_path / "deep.json"
    path.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-check", str(path))
    assert code == 2
    assert report["status"] == "error"
    assert "nested deeper than" in report["diagnostics"][0]


@pytest.mark.parametrize("tol", ["1/0", "nan", "inf", "-inf", "0", "-1", "1e400", "1e-400", "abc"])
def test_bundle_check_rejects_bad_tolerance(tmp_path, capsys, tol):
    path = write_fixture(tmp_path, "circle-bundle")
    code, report = run_cli(capsys, "bundle-check", path, "--mode", "float", f"--tol={tol}")
    assert code == 2
    assert report["status"] == "error"
    assert report["payload"] == {}


def test_bundle_check_refuses_huge_tolerance_exponent(tmp_path, capsys):
    """A --tol whose 10**|E| would pass exprs.MAX_POWER_BITS is refused by the reader, before Fraction computes it."""
    path = write_fixture(tmp_path, "circle-bundle")
    code, report = run_cli(capsys, "bundle-check", path, "--mode", "float", "--tol=1e-20000")
    assert code == 2
    assert report["diagnostics"] == ["--tol '1e-20000' is not a finite positive number"]


def test_bundle_check_refuses_huge_sample_exponent(tmp_path, capsys):
    """A sample point's rational is read with the same exponent bound, though bundle-check never evaluates it."""
    obj = fixture("circle-bundle")
    obj["charts"][0]["samples"][0][0] = "1e20000"
    path = tmp_path / "huge-sample.json"
    path.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-check", str(path))
    assert code == 2
    assert (report["status"], report["payload"]) == ("error", {})
    assert "'1e20000' has a decimal exponent past 19728" in report["diagnostics"][0]


def test_bundle_check_accepts_rational_tolerance(tmp_path, capsys):
    path = write_fixture(tmp_path, "circle-bundle")
    code, report = run_cli(capsys, "bundle-check", path, "--mode", "float", "--tol", "1/1000")
    assert code == 0
    assert report["payload"]["tolerance"] == 0.001


@pytest.mark.parametrize(
    "entry, point",
    [("exp(t)", "1000"), ("1/(1 + t^2)", "10" + "0" * 200)],
    ids=["exp", "power"],
)
def test_bundle_float_overflow_exit_2(tmp_path, capsys, entry, point):
    obj = fixture("circle-bundle")
    obj["transitions"][0]["matrix"][1][1] = entry
    obj["transitions"][0]["samples"] = [[point]] * 3
    path = tmp_path / "overflow.json"
    path.write_text(render(obj), encoding="utf-8")
    for command in ("bundle-check", "bundle-cohomology"):
        code = run([command, str(path), "--mode", "float"])
        out = capsys.readouterr().out
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "error"
        assert "NaN" not in out and "Infinity" not in out


def scaled_pair(big: str, constant: str) -> dict:
    """g_UV = big * I and g_VU = I / big on a 3-dim fibre with [e1, e2] = constant * e3, at one sample."""
    fiber = {"dim": 3, "binary": [[1, 2, ["0", "0", constant]]], "ternary": []}
    charts = [{"name": n, "coords": [c], "samples": [["0"]]} for n, c in (("U", "t"), ("V", "s"))]

    def diagonal(x):
        return [[x if i == j else "0" for j in range(3)] for i in range(3)]

    transitions = [
        {"from": "U", "to": "V", "matrix": diagonal(big), "samples": [["0"]]},
        {"from": "V", "to": "U", "matrix": diagonal("1/" + big), "samples": [["0"]]},
    ]
    return {"fiber": fiber, "charts": charts, "transitions": transitions}


def overflowing_triple() -> dict:
    """g_UV = g_VW = 10^200 and g_UW = 1 on the line: g_UV g_VW overflows a float."""
    charts = [{"name": n, "coords": ["t"], "samples": [["0"]]} for n in "UVW"]
    transitions = [
        {"from": f, "to": t, "matrix": [[x]], "samples": [["0"]]}
        for f, t, x in (("U", "V", "10^200"), ("V", "W", "10^200"), ("U", "W", "1"))
    ]
    triples = [{"i": "U", "j": "V", "k": "W", "samples": [[["0"], ["0"], ["0"]]]}]
    return {"fiber": {"dim": 1}, "charts": charts, "transitions": transitions, "triples": triples}


@pytest.mark.parametrize(
    "bundle, exact_failures",
    [
        # U->V's float defect is inf - inf = NaN, which max would drop: it passed as an automorphism
        (scaled_pair("10^300", "10000000000"), [("automorphism", "U->V"), ("automorphism", "V->U")]),
        # U->V's float defect is inf, which the report printed as Infinity
        (scaled_pair("10^200", "1"), [("automorphism", "U->V"), ("automorphism", "V->U")]),
        (overflowing_triple(), [("triple", "(U,V,W)")]),
    ],
    ids=["nan-defect", "infinite-defect", "triple-product"],
)
def test_bundle_non_finite_float_defect_exit_2(tmp_path, capsys, bundle, exact_failures):
    """A float gate defect that is not finite is refused with exit 2; exact mode decides the same bundle."""
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    code = run(["bundle-check", str(path), "--mode", "float"])
    out = capsys.readouterr().out
    assert "NaN" not in out and "Infinity" not in out
    report = json.loads(out)
    assert (code, report["status"], report["payload"]) == (2, "error", {})
    assert report["diagnostics"][0].startswith("float overflow: ")
    code, report = run_cli(capsys, "bundle-check", str(path))
    assert (code, report["status"]) == (1, "fail")
    assert [(f["kind"], f["where"]) for f in report["payload"]["failures"]] == exact_failures


def test_bundle_float_fibre_constant_overflow_exit_2(tmp_path, capsys):
    """A structure constant too large for a float is refused in float mode; exact mode checks the bundle."""
    bundle = scaled_pair("1", "1e400")
    path = tmp_path / "big-constant.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    for command in ("bundle-check", "bundle-cohomology"):
        code, report = run_cli(capsys, command, str(path), "--mode", "float")
        assert (code, report["status"], report["payload"]) == (2, "error", {})
        assert report["diagnostics"][0].startswith("float overflow: ")
    code, report = run_cli(capsys, "bundle-check", str(path))
    assert (code, report["status"]) == (0, "pass")


def test_bundle_check_huge_exact_power_exit_2(tmp_path, capsys):
    """An exact power past exprs.MAX_POWER_BITS is refused before it is computed."""
    line = {"dim": 1, "name": "line", "binary": [], "ternary": []}
    charts = [{"name": n, "coords": [c], "samples": [["3"]]} for n, c in (("U", "t"), ("V", "s"))]
    transitions = [{"from": "U", "to": "V", "matrix": [["t^99999999"]], "samples": [["3"]]}]
    path = tmp_path / "huge-power.json"
    path.write_text(json.dumps({"fiber": line, "charts": charts, "transitions": transitions}), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-check", str(path))
    assert code == 2
    assert (report["command"], report["status"], report["payload"]) == ("bundle-check", "error", {})
    assert "exceeds" in report["diagnostics"][0]


@pytest.mark.parametrize(
    "matrix, mode, diagnostic",
    [
        ([["exp(t)*exp(t)", "exp(3*t)"], ["0", "1"]], "float", "float evaluation is not finite (inf)"),
        ([["1/(t - t)"]], "exact", "division by zero"),
    ],
    ids=["not-finite-before-overflow", "division-by-zero"],
)
def test_bundle_evaluation_error_exit_2(tmp_path, capsys, matrix, mode, diagnostic):
    """The first error in entry order is the one reported; the float case is the CI smoke's."""
    charts = [{"name": n, "coords": [c], "samples": [["400"]]} for n, c in (("U", "t"), ("V", "s"))]
    transitions = [{"from": "U", "to": "V", "matrix": matrix, "samples": [["400"]]}]
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"fiber": {"dim": len(matrix)}, "charts": charts, "transitions": transitions}))
    code, report = run_cli(capsys, "bundle-check", str(path), "--mode", mode)
    assert (code, report["status"], report["diagnostics"]) == (2, "error", [diagnostic])


def test_bundle_check_huge_exact_trig_argument_exit_2(tmp_path, capsys):
    """sin at (1/2)**14291, whose denominator has over 4300 digits, is refused with its size, not its digits."""
    charts = [{"name": n, "coords": [c], "samples": [["1/2"]]} for n, c in (("U", "t"), ("V", "s"))]
    transitions = [{"from": "U", "to": "V", "matrix": [["sin(((t)^31)^461)"]], "samples": [["1/2"]]}]
    path = tmp_path / "huge-sin.json"
    path.write_text(json.dumps({"fiber": {"dim": 1}, "charts": charts, "transitions": transitions}), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-check", str(path))
    assert (code, report["status"], report["payload"]) == (2, "error", {})
    (diagnostic,) = report["diagnostics"]
    assert diagnostic == "sin is only exact at argument 0 (got a rational of 14292 bits)", diagnostic


@pytest.mark.parametrize(
    "mutate, argv, diagnostic",
    [
        (lambda obj: obj["charts"][1].update(name="U1"), (), "duplicate chart names"),
        (lambda obj: obj["transitions"].append(obj["transitions"][0]), (), "duplicate transition U1->U2"),
        (
            lambda obj: obj["transitions"][1].update({"from": "U9"}),
            (),
            "transition U9->U1 references unknown chart 'U9'",
        ),
        (lambda obj: obj["triples"][0].update(k="U9"), (), "triple overlap (U1,U2,U9) references unknown chart 'U9'"),
        (
            lambda obj: obj["transitions"][0].update(matrix=[["1", "0"], ["0", "1"]]),
            (),
            "transition U1->U2 matrix must be 3x3",
        ),
        (lambda obj: obj["transitions"][0].update(samples=[["1", "2"]]), (), "transition U1->U2 sample arity mismatch"),
        (
            lambda obj: obj["triples"][0].update(samples=[[["1"], ["1", "2"], ["1"]]]),
            (),
            "triple overlap (U1,U2,U1) sample arity mismatch in chart 'U2'",
        ),
        (lambda obj: obj["charts"][1].update(samples=[]), (), "chart 'U2' needs at least one sample point"),
        (
            lambda obj: obj["charts"][0].update(samples=[["0", "1"]]),
            (),
            "chart 'U1': sample arity 2 != coordinate count 1",
        ),
        (lambda obj: None, ("--mode", "bogus"), "invalid choice: 'bogus'"),
    ],
    ids=[
        "duplicate-chart", "duplicate-transition", "transition-unknown-chart", "triple-unknown-chart",
        "matrix-not-dxd", "transition-sample-arity", "triple-sample-arity", "chart-no-samples",
        "chart-sample-arity", "unknown-mode",
    ],
)
def test_bundle_refusals_end_in_an_envelope(tmp_path, capsys, mutate, argv, diagnostic):
    """Each structural refusal of ``BundleSpec`` and ``Chart`` exits 2 with an error envelope and its diagnostic."""
    obj = fixture("circle-bundle")
    mutate(obj)
    path = tmp_path / "refused.json"
    path.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-check", str(path), *argv)
    assert (code, report["command"], report["status"], report["payload"]) == (2, "bundle-check", "error", {})
    assert diagnostic in report["diagnostics"][0], report["diagnostics"]


def test_unknown_evaluation_mode_is_refused_by_the_library():
    """The CLI's --mode choices refuse it first; ``EvalMode`` refuses it for library callers."""
    from lieyamaguti.bundle import EvalMode
    from lieyamaguti.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch, match="unknown evaluation mode 'bogus'"):
        EvalMode("bogus")


# Well-formed entries, so that evaluation and the gate run and not only the parser.
_WELL_FORMED = st.recursive(
    st.sampled_from(["t", "0", "1", "2", "1/2", "400"]),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/"), e).map(lambda x: f"({x[0]}) {x[1]} ({x[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "-"]), e).map(lambda x: f"{x[0]}({x[1]})"),
        st.tuples(e, st.integers(-9, 99999)).map(lambda x: f"({x[0]})^{x[1]}"),
    ),
    max_leaves=8,
)


@given(st.one_of(st.text(alphabet="0123456789 +-*/^()t_sincoxp", max_size=40), _WELL_FORMED))
@settings(max_examples=200, deadline=timedelta(seconds=5))
def test_any_entry_over_the_grammar_alphabet_ends_in_an_envelope(entry):
    """A 1x1 bundle whose one entry is any such string: exit 0-3 and a JSON report, exact and float."""
    import tempfile

    line = {"dim": 1, "name": "line", "binary": [], "ternary": []}
    charts = [{"name": n, "coords": [c], "samples": [["1"]]} for n, c in (("U", "t"), ("V", "s"))]
    samples = [["0"], ["1/2"], ["-3"], ["400"]]
    transitions = [{"from": "U", "to": "V", "matrix": [[entry]], "samples": samples}]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = pathlib.Path(tmp, "entry.json"), pathlib.Path(tmp, "report.json")
        path.write_text(json.dumps({"fiber": line, "charts": charts, "transitions": transitions}), encoding="utf-8")
        for mode in ("exact", "float"):
            code = run(["bundle-check", str(path), "--mode", mode, "--out", str(out)])
            report = json.loads(out.read_text(encoding="utf-8"))
            assert 0 <= code <= 3
            assert report["command"] == "bundle-check"
            assert report["status"] == {0: "pass", 1: "fail"}.get(code, "error")


def test_bundle_cohomology_der_float_on_trig_atlas(tmp_path, capsys):
    rotation = [["cos({v})", "-sin({v})", "0"], ["sin({v})", "cos({v})", "0"], ["0", "0", "1"]]
    obj = {
        "fiber": fixture("crossproduct-lie"),
        "charts": [
            {"name": "U1", "coords": ["t"], "samples": [["0"], ["1"]]},
            {"name": "U2", "coords": ["s"], "samples": [["-3/2"]]},
        ],
        "transitions": [
            {"from": "U1", "to": "U2", "samples": [["1/2"], ["3"]],
             "matrix": [[x.format(v="t") for x in row] for row in rotation]},
            {"from": "U2", "to": "U1", "samples": [["1/2"], ["3"]],
             "matrix": [[x.format(v="(-s)") for x in row] for row in rotation]},
        ],
    }
    path = tmp_path / "trig.json"
    path.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-cohomology", str(path), "--which", "der", "--mode", "float")
    assert code == 0, report
    payload = report["payload"]
    assert payload["conjugation_ok"] is True and payload["conjugation_failures"] == []
    assert payload["constant"] is True
    assert [x["dimDer"] for x in payload["per_point"]] == [3, 3, 3]


def test_bundle_cohomology_command(tmp_path, capsys):
    path = write_fixture(tmp_path, "circle-bundle")
    code, report = run_cli(capsys, "bundle-cohomology", path, "--which", "h1")
    assert code == 0
    assert report["payload"]["constant"] is True
    dims = {p["dimH1"] for p in report["payload"]["per_point"]}
    assert dims == {4}


def test_bundle_cohomology_upper_needs_p2(tmp_path, capsys):
    path = write_fixture(tmp_path, "circle-bundle")
    code, report = run_cli(capsys, "bundle-cohomology", path, "--which", "upper", "--p", "1")
    assert code == 2
    assert (report["status"], report["payload"]) == ("error", {})
    assert report["diagnostics"] == ["--which upper needs --p >= 2; h23 is p = 1"]


def test_bundle_cohomology_gate_failure(tmp_path, capsys):
    obj = fixture("circle-bundle")
    obj["transitions"][0]["matrix"] = [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    path = tmp_path / "bad.json"
    path.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-cohomology", str(path), "--which", "h1")
    assert code == 1
    assert report["status"] == "fail"


@pytest.mark.parametrize(
    "key, value",
    [
        ("transitions", [["U1", "U2"]]),
        ("transitions", {"a": 1}),
        ("triples", [5]),
        ("charts", ["U1"]),
    ],
    ids=["transition-list", "transition-dict", "triple-int", "chart-str"],
)
def test_bundle_entries_must_be_objects(tmp_path, capsys, key, value):
    obj = fixture("circle-bundle")
    obj[key] = value
    path = tmp_path / "malformed.json"
    path.write_text(render(obj), encoding="utf-8")
    for command in ("bundle-check", "bundle-cohomology"):
        code, report = run_cli(capsys, command, str(path))
        assert code == 2, command
        assert (report["command"], report["status"], report["payload"]) == (command, "error", {})
        assert f"'{key}' must be a list of objects" in report["diagnostics"][0]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj["transitions"][0].update(matrix=["100", "010", "001"]),
        lambda obj: obj["transitions"][0].update(matrix="1"),
        lambda obj: obj["charts"][0].update(coords="t"),
    ],
    ids=["matrix-rows-strings", "matrix-string", "coords-string"],
)
def test_bundle_strings_are_not_lists(tmp_path, capsys, mutate):
    """A string where the schema has a list is refused, not read character by character."""
    obj = fixture("circle-bundle")
    mutate(obj)
    path = tmp_path / "strings.json"
    path.write_text(render(obj), encoding="utf-8")
    code, report = run_cli(capsys, "bundle-check", str(path))
    assert code == 2
    assert (report["status"], report["payload"]) == ("error", {})
    assert "list" in report["diagnostics"][0]


@pytest.mark.parametrize(
    "section, index, key, value, where",
    [
        ("charts", 0, "name", None, "chart 0"),
        ("charts", 1, "samples", 5, "chart 'U2'"),
        ("charts", 0, "coords", 5, "chart 'U1'"),
        ("transitions", 1, "from", None, "transition 1"),
        ("transitions", 0, "to", None, "transition 0"),
        ("transitions", 0, "matrix", None, "transition U1->U2"),
        ("transitions", 1, "samples", 5, "transition U2->U1"),
        ("transitions", 0, "samples", [5], "transition U1->U2"),
        ("triples", 0, "i", None, "triple overlap 0"),
        ("triples", 0, "k", None, "triple overlap 0"),
        ("triples", 0, "samples", "U1", "triple overlap 0"),
        ("charts", 0, "samples", [["x"]], "chart 'U1'"),
        (
            "transitions", 0, "matrix", [["1", "0", "0"], ["0", "t +", "0"], ["0", "0", "1"]],
            "transition U1->U2: 'matrix' row 2, column 2",
        ),
        ("transitions", 0, "samples", [["x"]], "transition U1->U2"),
        ("triples", 0, "samples", [[["-1"], ["x"], ["-1"]]], "triple overlap 0"),
    ],
    ids=[
        "chart-name", "chart-samples", "chart-coords", "transition-from", "transition-to",
        "transition-matrix", "transition-samples", "transition-point", "triple-i", "triple-k",
        "triple-samples", "chart-bad-rational", "transition-bad-expression",
        "transition-bad-rational", "triple-bad-rational",
    ],
)
def test_bundle_loader_names_object_and_field(tmp_path, capsys, section, index, key, value, where):
    """A missing field (value None), a non-list samples/coords or a bad value names its object and the field."""
    obj = fixture("circle-bundle")
    entry = obj[section][index]
    if value is None:
        del entry[key]
    else:
        entry[key] = value
    path = tmp_path / "mutated.json"
    path.write_text(render(obj), encoding="utf-8")
    for command in ("bundle-check", "bundle-cohomology"):
        code, report = run_cli(capsys, command, str(path))
        assert code == 2, command
        assert (report["status"], report["payload"]) == ("error", {})
        diagnostic = report["diagnostics"][0]
        assert f"'{key}'" in diagnostic and where in diagnostic, diagnostic
        assert "Error" not in diagnostic, diagnostic


def _with_true(name, *path):
    """Fixture ``name`` with the value at ``path`` (keys and list indices) set to JSON true."""
    obj = fixture(name)
    target = obj
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = True
    return obj


def test_booleans_are_not_integers(tmp_path, capsys):
    """JSON true is refused wherever an integer is expected: dim, e, p and entry indices."""
    algebra = tmp_path / "3dim.json"
    algebra.write_text(render(fixture("3dim")), encoding="utf-8")
    rep = {
        "e": True,
        "rho": [[["0"]]] * 3,
        "D": [[[["0"]]] * 3] * 3,
        "theta": [[[["0"]]] * 3] * 3,
    }
    tau = {"p": 1, "f": [[1, 2, ["0", "0", "0"]]], "g": []}
    cases = [
        (["check"], _with_true("3dim", "dim"), "'dim' must be an integer"),
        (["check"], _with_true("3dim", "binary", 0, 0), "binary entry index must be an integer"),
        (["check"], _with_true("3dim", "ternary", 0, 2), "ternary entry index must be an integer"),
        (["rep-check", str(algebra), "--rep"], rep, "'e' must be an integer"),
        (["twist", str(algebra), "--tau"], {**tau, "p": True}, "'p' must be an integer"),
        (["twist", str(algebra), "--tau"], {**tau, "f": [[True, 2, ["0", "0", "0"]]]}, "f entry index"),
        (["twist", str(algebra), "--tau"], {**tau, "g": [[1, 2, True, ["0", "0", "0"]]]}, "g entry index"),
    ]
    for argv, obj, message in cases:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, report = run_cli(capsys, *argv, str(path))
        assert code == 2, argv
        assert (report["status"], report["payload"]) == ("error", {}), argv
        assert message in report["diagnostics"][0], (argv, report["diagnostics"])


def test_out_flag_writes_file(tmp_path):
    src = tmp_path / "3dim.json"
    src.write_text(render(fixture("3dim")), encoding="utf-8")
    out = tmp_path / "report.json"
    code = run(["check", str(src), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["status"] == "pass"


@pytest.mark.parametrize("command", ["check", "examples"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_flag_unwritable_exit_2(tmp_path, capsys, command, where):
    """A failed --out write prints the error envelope on stdout and exits 2."""
    target = write_fixture(tmp_path, "3dim") if command == "check" else "3dim"
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, report = run_cli(capsys, command, target, "--out", str(out))
    assert code == 2
    assert (report["command"], report["status"], report["payload"]) == (command, "error", {})
    [diagnostic] = report["diagnostics"]
    assert diagnostic.startswith("--out: ") and str(out) in diagnostic
    assert not (tmp_path / "missing").exists()


# (command, argv with input names from ``envelope_inputs``, exit code); every
# command that can fail has a failing row, and exits 2 and 3 are errors.
ENVELOPE_CASES = [
    ("check", ["3dim"], 0),
    ("check", ["broken"], 1),
    ("check", ["malformed"], 2),
    ("derivations", ["3dim"], 0),
    ("derivations", ["broken"], 2),
    ("cohomology", ["3dim", "--p", "1"], 0),
    ("cohomology", ["meson3", "--p", "4", "--cap", "100"], 3),
    ("rep-check", ["3dim"], 0),
    ("rep-check", ["3dim", "--rep", "bad-rep"], 1),
    ("semidirect", ["3dim"], 0),
    ("semidirect", ["3dim", "--rep", "bad-rep"], 1),
    ("twist", ["3dim", "--tau-cocycle", "0"], 0),
    ("twist", ["3dim", "--tau", "bad-tau"], 1),
    ("twist", ["3dim"], 2),
    ("bundle-check", ["circle-bundle"], 0),
    ("bundle-check", ["bad-bundle"], 1),
    ("bundle-cohomology", ["circle-bundle"], 0),
    ("bundle-cohomology", ["bad-bundle"], 1),
    ("bundle-cohomology", ["circle-bundle", "--which", "h23", "--cap", "1"], 3),
    ("examples", ["nope"], 2),
]
OUTCOMES = {0: "pass", 1: "fail", 2: "error", 3: "capped"}


@pytest.fixture
def envelope_inputs(tmp_path):
    from lieyamaguti import adjoint, example_3dim
    from lieyamaguti.schemas import representation_to_json

    files = {name: write_fixture(tmp_path, name) for name in ("3dim", "meson3", "circle-bundle")}
    broken = fixture("3dim")
    broken["ternary"][0][3][0] = "1"
    bad_bundle = fixture("circle-bundle")
    bad_bundle["transitions"][0]["matrix"] = [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    bad_rep = representation_to_json(adjoint(example_3dim()))
    bad_rep["theta"][0][1][0][0] = "1"
    texts = {
        "broken": render(broken),
        "bad-bundle": render(bad_bundle),
        "bad-rep": json.dumps(bad_rep),
        "bad-tau": json.dumps({"p": 1, "f": [[1, 2, ["1", "0", "0"]]], "g": []}),
        "malformed": "{not json",
    }
    for name, text in texts.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    return files


@pytest.mark.parametrize(
    "command, argv, expected",
    ENVELOPE_CASES,
    ids=[f"{command}-{OUTCOMES[code]}" for command, _, code in ENVELOPE_CASES],
)
def test_envelope_status_follows_diagnostics(envelope_inputs, capsys, command, argv, expected):
    """One rule for every command: fail exactly when there are diagnostics, and then exit 1."""
    code, report = run_cli(capsys, command, *[envelope_inputs.get(a, a) for a in argv])
    assert code == expected, report
    assert set(report) == {"command", "status", "payload", "diagnostics"}
    assert report["command"] == command
    if code in (2, 3):
        assert (report["status"], report["payload"]) == ("error", {})
        assert report["diagnostics"]
    else:
        assert (report["status"] == "fail") == bool(report["diagnostics"]) == (code == 1)


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "lieyamaguti.cli", "examples", "3dim"],
        capture_output=True,
        text=True,
        check=True,
    )
    obj = json.loads(result.stdout)
    assert obj["dim"] == 3


def test_parser_is_built_once():
    from lieyamaguti.cli import build_parser

    assert build_parser() is build_parser()


def test_cached_parser_leaves_no_state_between_runs(tmp_path, capsys):
    """Non-default options, a usage error, then the default forms, in one process.

    Each envelope equals the one the same argv gives in a fresh process, or
    its golden file, so no option of one run leaks into the next.
    """
    algebra = write_fixture(tmp_path, "3dim")
    circle = write_fixture(tmp_path, "circle-bundle")
    golden = pathlib.Path(__file__).parent / "golden"
    jobs = [
        (["cohomology", algebra, "--rep", "trivial", "--rep-dim", "2"], None),
        (["bundle-check", circle, "--mode", "float", "--tol", "1e-6"], None),
        (["cohomology", algebra, "--p", "x"], None),  # usage error, exit 2
        (["cohomology", algebra], golden / "report_cohomology_3dim.json"),
        (["bundle-check", circle], golden / "report_bundle_check_circle.json"),
    ]
    for argv, path in jobs:
        code = run(argv)
        text = capsys.readouterr().out
        if path is None:
            fresh = subprocess.run([sys.executable, "-m", "lieyamaguti.cli", *argv], capture_output=True, text=True)
            assert (code, text) == (fresh.returncode, fresh.stdout), argv
        else:
            assert (code, text) == (0, path.read_text(encoding="utf-8")), argv


def _balanced_sum(n: int) -> str:
    """t + t + ... (n terms) as a balanced tree of parenthesised pairs, so it stays under MAX_DEPTH."""
    return "t" if n == 1 else f"({_balanced_sum(n // 2)} + {_balanced_sum(n - n // 2)})"


def test_bundle_over_the_evaluation_budget_is_refused_before_any_evaluation(tmp_path, capsys, monkeypatch):
    """A 4096-term sum at 5000 samples reads about 8 * 10**7 expression characters: exit 3 at load."""
    import time

    def refused(*args, **kwargs):
        raise AssertionError("a transition was evaluated")

    monkeypatch.setattr("lieyamaguti.bundle._eval_rows", refused)
    samples = [[f"{k}/5000"] for k in range(5000)]
    doc = {
        "fiber": {"dim": 1, "name": "line"},
        "charts": [{"name": n, "coords": [x], "samples": [["0"]]} for n, x in (("U", "t"), ("V", "s"))],
        "transitions": [{"from": "U", "to": "V", "matrix": [[_balanced_sum(4096)]], "samples": samples}],
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code, report = run_cli(capsys, "bundle-check", str(path))
    elapsed = time.perf_counter() - start
    assert code == 3
    assert (report["status"], report["payload"]) == ("error", {})
    assert report["diagnostics"][0].startswith("evaluating the transitions reads ")
    assert report["diagnostics"][0].endswith(" expression characters, over the evaluation budget 1000000")
    assert elapsed < 2.0


def _sum_bundle(samples: int) -> dict:
    """A line bundle whose one transition is a 2 048-term sum (12 283 characters) at t = 1 .. samples."""
    return {
        "fiber": {"dim": 1, "name": "line"},
        "charts": [{"name": n, "coords": [x], "samples": [["1"]]} for n, x in (("U", "t"), ("V", "s"))],
        "transitions": [
            {
                "from": "U",
                "to": "V",
                "matrix": [[_balanced_sum(2048)]],
                "samples": [[str(k)] for k in range(1, samples + 1)],
            }
        ],
    }


@pytest.mark.parametrize("samples, code", [(122, 3), (81, 0)])
def test_bundle_evaluation_has_its_own_budget(tmp_path, capsys, monkeypatch, samples, code):
    """At 122 samples (1 498 526 characters) the sum is refused before any evaluation; 81 (994 923) load and run."""
    from lieyamaguti import bundle

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    evaluate = bundle.eval_transition
    monkeypatch.setattr(bundle, "eval_transition", counted)
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(_sum_bundle(samples)), encoding="utf-8")
    got, report = run_cli(capsys, "bundle-check", str(path))
    assert got == code
    if code == 3:
        assert (report["status"], report["payload"], calls) == ("error", {}, [])
        assert report["diagnostics"] == [
            "evaluating the transitions reads 1498526 expression characters, over the evaluation budget 1000000"
        ]
    else:
        assert report["status"] == "pass"
        assert len(calls) == samples
