import json
import subprocess
import sys

import pytest

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
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, report = run_cli(capsys, "check", str(path))
    assert code == 2
    assert report["status"] == "error"


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


def test_cohomology_p1(tmp_path, capsys):
    path = write_fixture(tmp_path, "3dim")
    code, report = run_cli(capsys, "cohomology", "--p", "1", "--rep", "adjoint", path)
    assert code == 0
    p = report["payload"]
    assert p["dimH23"] == 9
    assert p["dimH1"] == 4
    assert p["delta_squared_zero"] is True
    assert "reading" in p


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
    ],
    ids=[
        "chart-name", "chart-samples", "chart-coords", "transition-from", "transition-to",
        "transition-matrix", "transition-samples", "transition-point", "triple-i", "triple-k",
        "triple-samples",
    ],
)
def test_bundle_loader_names_object_and_field(tmp_path, capsys, section, index, key, value, where):
    """A missing field (value None) or a non-list samples/coords names its object and the field."""
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


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "lieyamaguti.cli", "examples", "3dim"],
        capture_output=True,
        text=True,
        check=True,
    )
    obj = json.loads(result.stdout)
    assert obj["dim"] == 3
