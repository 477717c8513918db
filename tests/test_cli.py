import json
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from qproj import QMatrix3, classification_report, decompose_simple, psl_report, realify
from qproj import cli, matrix, spectral
from qproj.cli import main
from qproj.generate import (
    DYNAMICAL_TYPES,
    conjugated,
    generate,
    negative_shape,
    nonstrong_shape,
    reversible_shape,
)
from oracles import conditioned_conjugator
from test_conditioning import conjugated_samples
from test_decompose import after_stage_samples


@pytest.fixture
def runner():
    return CliRunner()


def write_matrix(tmp_path, m, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(m.to_json_dict()))
    return str(path)


def j2(lam, xi):
    return QMatrix3.from_complex([[lam, 1, 0], [0, lam, 0], [0, 0, xi]])


def test_classify_vertical_translation(runner, tmp_path):
    path = write_matrix(tmp_path, j2(1.0, 1.0))
    res = runner.invoke(main, ["classify", path])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["major"] == "Parabolic"
    assert rep["minor"] == "VerticalTranslation"


def test_reversibility_output(runner, tmp_path):
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    res = runner.invoke(main, ["reversibility", path])
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["reversible_sl"] is True
    assert rep["reverser"] is not None
    assert rep["reverser_kind"] == "skew-involution"


def test_gen_classify_roundtrip(runner, tmp_path):
    for type_name in ("regular-elliptic", "screw-loxodromic", "loxo-parabolic"):
        res = runner.invoke(main, ["gen", "--type", type_name, "--seed", "7"])
        assert res.exit_code == 0, res.output
        gen_payload = json.loads(res.output)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(gen_payload))
        res = runner.invoke(main, ["classify", str(path)])
        assert res.exit_code == 0, res.output
        rep = json.loads(res.output)
        assert rep["minor"] == gen_payload["type"]


COMMAND_LIST = """\
Commands:
  classify       Dynamical-type classification report.
  decompose      Decomposition into at most four simple factors with...
  gen            Emit a random conjugate of a canonical type with its...
  reversibility  Reversibility flags and certified witnesses.
  simple-check   Simplicity test plus real-conjugate certificate when simple.
  verify         Re-check every certificate in a report file; exit 0 iff...
"""
ANALYSIS_HELP = {
    "classify": "Dynamical-type classification report.",
    "reversibility": "Reversibility flags and certified witnesses.",
    "decompose": "Decomposition into at most four simple factors with certificates.",
    "simple-check": "Simplicity test plus real-conjugate certificate when simple.",
}
ANALYSIS_OPTIONS = """\
Options:
  --tol FLOAT      Tolerance, finite and > 0 (default 1e-9 or QPROJ_TOL).
  --json / --text  Output format (default JSON).
  --help           Show this message and exit.
"""


def test_help_lists_the_commands_and_the_options_of_each_analysis_command(runner):
    res = runner.invoke(main, ["--help"], terminal_width=80)
    assert res.exit_code == 0 and res.stdout.endswith("\n\n" + COMMAND_LIST)
    for cmd, line in ANALYSIS_HELP.items():
        res = runner.invoke(main, [cmd, "--help"], terminal_width=80)
        assert res.exit_code == 0
        assert res.stdout.endswith(f" {cmd} [OPTIONS] [PATH]\n\n  {line}\n\n" + ANALYSIS_OPTIONS)


def test_gen_negative_seed_is_usage_error(runner):
    res = runner.invoke(main, ["gen", "--type", "identity", "--seed", "-1"])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Invalid value for '--seed'" in res.stderr


def test_gen_deterministic(runner):
    r1 = runner.invoke(main, ["gen", "--type", "homothety", "--seed", "11"])
    r2 = runner.invoke(main, ["gen", "--type", "homothety", "--seed", "11"])
    assert r1.output == r2.output
    r3 = runner.invoke(main, ["gen", "--type", "homothety", "--seed", "12"])
    assert r3.output != r1.output


def test_verify_accepts_own_reports(runner, tmp_path, rng):
    inst = generate("ellipto-parabolic", rng=rng)
    path = write_matrix(tmp_path, inst.matrix)
    for cmd in ("classify", "reversibility", "decompose", "simple-check"):
        res = runner.invoke(main, [cmd, path])
        assert res.exit_code == 0, f"{cmd}: {res.output}"
        report_path = tmp_path / f"{cmd}-report.json"
        report_path.write_text(res.output)
        res = runner.invoke(main, ["verify", str(report_path)])
        assert res.exit_code == 0, f"verify {cmd}: {res.output}"


# (command, path to one certificate of the report, the entry set in it)
TAMPERINGS = {
    "jordan-S": ("classify", ("jordan", "S", "matrix", 0, 1), [9.0, 0.0, 0.0, 0.0]),
    "reverser": ("reversibility", ("reverser", "matrix", 0, 0), [9.0, 0.0, 0.0, 0.0]),
    "pair-s1": ("reversibility", ("pair_s1", "matrix", 0, 1), [9.0, 0.0, 0.0, 0.0]),
    "factor-B": ("decompose", ("certificates", 0, "B", 0, 0), 9.0),
    "reversible-psl": ("reversibility", ("reversible_psl",), False),
    "simple-T": (
        "simple-check", ("certificate", "T", "matrix", 0, 1), [9.0, 0.0, 0.0, 0.0]
    ),
}


def replay(runner, tmp_path, rep):
    path = tmp_path / "replayed.json"
    path.write_text(json.dumps(rep))
    return runner.invoke(main, ["verify", str(path)])


@pytest.mark.parametrize("name", list(TAMPERINGS))
def test_verify_rejects_tampered_report(runner, tmp_path, name):
    command, keys, entry = TAMPERINGS[name]
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    res = runner.invoke(main, [command, path])
    rep = json.loads(res.output)
    assert replay(runner, tmp_path, rep).exit_code == 0
    target = rep
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = entry
    assert replay(runner, tmp_path, rep).exit_code == 4


def test_verify_judges_by_its_own_tolerance(runner, tmp_path):
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    rep = json.loads(runner.invoke(main, ["reversibility", path]).output)
    rep["reverser"]["matrix"][0][0][0] += 1e-2
    assert replay(runner, tmp_path, rep).exit_code == 4
    # a report's tolerance rebuilds verdicts; it does not loosen the gate
    rep["tolerance"] = 1e-3
    assert replay(runner, tmp_path, rep).exit_code == 4
    res = runner.invoke(main, ["verify", "--tol", "1e-3", str(tmp_path / "replayed.json")])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose", "simple-check"])
def test_verify_tol_replays_reports_made_at_that_tol(runner, tmp_path, cmd):
    path = write_matrix(tmp_path, generate("ellipto-translation", seed=1).matrix)
    res = runner.invoke(main, [cmd, "--tol", "1e-7", path])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["tolerance"] == 1e-7
    res = runner.invoke(main, ["verify", "--tol", "1e-7", "-"], input=res.stdout)
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1.0, "tight"])
def test_verify_rejects_unusable_report_tolerance(runner, tmp_path, value):
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    rep = json.loads(runner.invoke(main, ["classify", path]).output)
    rep["tolerance"] = value
    res = replay(runner, tmp_path, rep)
    assert res.exit_code == 2, res.output
    assert "malformed report" in res.stderr


def negated_s1(rep):
    s1 = rep["pair_s1"]["matrix"]
    rep["pair_s1"]["matrix"] = [[[-c for c in q] for q in row] for row in s1]


def test_verify_rejects_pair_multiplying_to_minus_a(runner, tmp_path):
    # (-s1) g = -A: -A is the same element of PSL(3,H), but the library
    # certifies s1 g = A, and verify replays exactly that
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    rep = json.loads(runner.invoke(main, ["reversibility", path]).output)
    negated_s1(rep)
    res = replay(runner, tmp_path, rep)
    assert res.exit_code == 4
    assert "pair product" in res.stderr


@pytest.mark.parametrize("edit", ["null-s1", "no-s1", "null-reverser"])
def test_verify_rejects_a_reverser_without_its_pair(runner, tmp_path, edit):
    # the reverser g and the s1 of its pair (s1, g) come together or not at all
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    rep = json.loads(runner.invoke(main, ["reversibility", path]).output)
    if edit == "no-s1":
        del rep["pair_s1"]
    elif edit == "null-s1":
        rep["pair_s1"] = None
    else:
        rep["reverser"] = None
    res = replay(runner, tmp_path, rep)
    assert res.exit_code == 2, res.output
    assert "entry 0: malformed report" in res.stderr


def matrices_in(doc):
    """Every QMatrix3 JSON object in a JSON document."""
    if isinstance(doc, list):
        return [m for item in doc for m in matrices_in(item)]
    if not isinstance(doc, dict):
        return []
    own = [doc["matrix"]] if "matrix" in doc else []
    return own + [m for key, value in doc.items() if key != "matrix" for m in matrices_in(value)]


def test_reversibility_report_holds_each_matrix_once(runner):
    # a skew-involution, an involution (twisted relation) and no witness
    rng = np.random.default_rng(3)
    mats = [generate(t, seed=1).matrix for t in ("regular-elliptic", "ellipto-translation",
                                                  "regular-loxodromic")]
    mats.append(conjugated(negative_shape("ii", rng), rng)[0])
    res = runner.invoke(main, ["reversibility", "-"],
                        input=json.dumps([m.to_json_dict() for m in mats]))
    assert res.exit_code == 0, res.output
    reports = json.loads(res.stdout)
    assert [rep["reverser_kind"] for rep in reports] == [
        "skew-involution", "skew-involution", "none", "involution"]
    for rep in reports:
        held = [json.dumps(m) for m in matrices_in(rep)]
        assert len(held) == len(set(held)) == (1 if rep["reverser"] is None else 3)
        assert "pair_square_2" not in rep["residuals"]


def test_verify_rejects_singular_similarity(runner, tmp_path):
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    rep = json.loads(runner.invoke(main, ["classify", path]).output)
    rep["jordan"]["S"] = QMatrix3.zeros().to_json_dict()
    res = replay(runner, tmp_path, rep)
    assert res.exit_code == 4
    assert "jordan reconstruction residual inf" in res.stderr


def test_verify_checks_a_reverser_of_a_zero_input_without_inverting_it(runner, tmp_path):
    # A g A = t g is checked with no A^-1, so a zero input is not Singular:
    # the reverser relation and the pair's product fail as certificates
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    rep = json.loads(runner.invoke(main, ["reversibility", path]).output)
    rep["input"] = QMatrix3.zeros().to_json_dict()
    res = replay(runner, tmp_path, rep)
    assert res.exit_code == 4, res.output
    assert "Singular" not in res.stderr
    failures = [line for line in res.stderr.splitlines()
                if line.startswith("verification failure: ")]
    assert [line.split(": ")[1].split(" residual ")[0] for line in failures] == [
        "reverser conjugation", "pair product"]


def test_verify_replays_reversibility_reports_with_no_inverse(runner, monkeypatch):
    # a skew-involution, an involution (twisted relation) and no witness
    rng = np.random.default_rng(3)
    mats = [generate(t, seed=1).matrix for t in ("regular-elliptic", "regular-loxodromic")]
    mats.append(conjugated(negative_shape("ii", rng), rng)[0])
    res = runner.invoke(main, ["reversibility", "-"],
                        input=json.dumps([m.to_json_dict() for m in mats]))
    assert res.exit_code == 0, res.output
    assert [rep["reverser_kind"] for rep in json.loads(res.stdout)] == [
        "skew-involution", "none", "involution"]

    def refused(phis):
        raise AssertionError("verify inverted a matrix")

    monkeypatch.setattr("qproj.matrix._invert_adjoints", refused)
    res = runner.invoke(main, ["verify", "-"], input=res.stdout)
    assert res.exit_code == 0, res.output


def test_parse_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    res = runner.invoke(main, ["classify", str(bad)])
    assert res.exit_code == 2
    bad.write_text(json.dumps({"matrix": [[1, 2], [3, 4]]}))
    res = runner.invoke(main, ["classify", str(bad)])
    assert res.exit_code == 2
    payload = QMatrix3.identity().to_json_dict()
    payload["matrix"][1][2][3] = None
    bad.write_text(json.dumps(payload))
    res = runner.invoke(main, ["classify", str(bad)])
    assert res.exit_code == 2


@pytest.mark.parametrize("cmd", ["classify", "verify"])
def test_file_that_is_not_utf8_is_a_parse_error(runner, tmp_path, cmd):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    res = runner.invoke(main, [cmd, str(bad)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: {bad} is not UTF-8 text")


@pytest.mark.parametrize("cmd", ["classify", "verify"])
def test_unreadable_path_is_a_parse_error(runner, tmp_path, cmd):
    missing = tmp_path / "missing.json"
    res = runner.invoke(main, [cmd, str(missing)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.startswith(f"error: cannot read {missing}: ")


NON_FINITE = ["NaN", "Infinity", "-Infinity"]
NOT_FINITE = "matrix entries must be finite numbers\n"


@pytest.mark.parametrize("token", NON_FINITE)
@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose", "simple-check"])
def test_non_finite_input_entry_is_a_parse_error_alone_and_mid_batch(runner, cmd, token):
    # Python's json reads the NaN and Infinity tokens JSON itself lacks; the
    # entry is refused before any determinant is taken, so no numpy warning
    bad = generate("regular-elliptic", seed=1).matrix.to_json_dict()
    bad["matrix"][0][0][0] = float(token)
    assert token in json.dumps(bad)
    message = "not a QMatrix3 JSON object: " + NOT_FINITE
    res = runner.invoke(main, [cmd, "-"], input=json.dumps(bad))
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", "error: entry 0: " + message)
    good = [generate(t, seed=1).matrix.to_json_dict()
            for t in ("screw-loxodromic", "loxo-parabolic")]
    res = runner.invoke(main, [cmd, "-"], input=json.dumps([good[0], bad, good[1]]))
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", "error: entry 1: " + message)


# (command making the report, keys leading to the QMatrix3 JSON that is edited)
REPORT_MATRICES = {
    "input": ("classify", ("input",)),
    "similarity": ("classify", ("jordan", "S")),
    "reverser": ("reversibility", ("reverser",)),
    "factor": ("decompose", ("factors", 1)),
    "generated": ("gen", ()),
}


@pytest.mark.parametrize("token", NON_FINITE)
@pytest.mark.parametrize("where", list(REPORT_MATRICES))
def test_non_finite_report_entry_is_malformed_alone_and_mid_batch(runner, where, token):
    cmd, keys = REPORT_MATRICES[where]
    if cmd == "gen":
        rep = json.loads(runner.invoke(main, ["gen", "--type", "regular-elliptic"]).stdout)
    else:
        rep = report_of(runner, cmd, generate("regular-elliptic", seed=1).matrix)
    assert verified(runner, [rep])[3] == 0
    edited = rep
    for key in keys:
        edited = edited[key]
    edited["matrix"][2][1][3] = float(token)
    message = "malformed report: " + NOT_FINITE
    res = runner.invoke(main, ["verify", "-"], input=json.dumps(rep))
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", "error: entry 0: " + message)
    neighbours = [report_of(runner, c, generate("screw-loxodromic", seed=2).matrix)
                  for c in ("reversibility", "simple-check")]
    batch = json.dumps([neighbours[0], rep, neighbours[1]])
    res = runner.invoke(main, ["verify", "-"], input=batch)
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "report 0: ok\nerror: entry 1: " + message)


NOT_NUMBERS = "matrix must be 3x3 with [w, x, y, z] number entries\n"


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_entry_is_a_parse_error_for_input_and_in_a_report(runner, flag):
    # a JSON true or false among numbers is no number: as command input it
    # is a parse error, not a determinant that fails to normalize, and inside
    # a report it makes the report malformed
    bad = generate("vertical-translation", seed=1).matrix.to_json_dict()
    bad["matrix"][2][2][1] = flag
    res = runner.invoke(main, ["classify", "-"], input=json.dumps(bad))
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "error: entry 0: not a QMatrix3 JSON object: " + NOT_NUMBERS)
    rep = report_of(runner, "classify", generate("regular-elliptic", seed=1).matrix)
    rep["input"]["matrix"][0][1][2] = flag
    res = runner.invoke(main, ["verify", "-"], input=json.dumps(rep))
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "error: entry 0: malformed report: " + NOT_NUMBERS)


def test_precondition_exit_code(runner, tmp_path):
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 2.0, 2.0))
    res = runner.invoke(main, ["classify", str(path)])
    assert res.exit_code == 3


def test_auto_normalization_warns(runner, tmp_path):
    m = QMatrix3.diag(2.0, 0.5, 1.0) * (1.0 + 5e-5)
    path = write_matrix(tmp_path, m)
    res = runner.invoke(main, ["classify", str(path)])
    assert res.exit_code == 0, res.output
    assert "auto-normalizing" in res.stderr


def test_tight_tol_keeps_a_matrix_the_library_accepts(runner, tmp_path):
    # det_h - 1 = 3e-10 passes require_unimodular at tol 1e-13, whose gate is
    # floored at 1e3 * 1e-12, so the CLI must not re-normalize it either
    m = QMatrix3.diag(2.0, 0.5, 1.0) * (1.0 + 5e-11)
    classification_report(m, 1e-13)
    res = runner.invoke(main, ["classify", "--tol", "1e-13", write_matrix(tmp_path, m)])
    assert res.exit_code == 0, res.output
    assert "auto-normalizing" not in res.stderr
    assert json.loads(res.stdout)["input"] == m.to_json_dict()


def test_stdin_input(runner):
    payload = json.dumps(QMatrix3.identity().to_json_dict())
    res = runner.invoke(main, ["classify", "-"], input=payload)
    assert res.exit_code == 0
    assert json.loads(res.output)["minor"] == "Identity"


def test_batch_order_preserved(runner, tmp_path, rng):
    mats = [QMatrix3.identity(), j2(1.0, 1.0), QMatrix3.diag(2.0, 0.5, 1.0)]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([m.to_json_dict() for m in mats]))
    res = runner.invoke(main, ["classify", str(path)])
    assert res.exit_code == 0
    reports = json.loads(res.output)
    assert [r["minor"] for r in reports] == [
        "Identity",
        "VerticalTranslation",
        "RegularLoxodromic",
    ]
    # batch verify
    vpath = tmp_path / "batch-reports.json"
    vpath.write_text(res.output)
    res = runner.invoke(main, ["verify", str(vpath)])
    assert res.exit_code == 0


def test_text_output(runner, tmp_path):
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    lines = {
        ("classify", path): "Loxodromic / RegularLoxodromic  f=0.5625 x=3.5 y=3.5 d=1\n",
        ("reversibility", path): "reversible_sl=True strongly_reversible_sl=True "
        "negative_reversible=False reversible_psl=True\n",
        ("decompose", path): "1 simple factors, residual 0.00e+00\n",
        ("simple-check", path): "simple\n",
        ("gen", "--type", "homothety", "--seed", "11"): "homothety instance (seed 11)\n",
    }
    for args, line in lines.items():
        res = runner.invoke(main, [*args, "--text"])
        assert res.exit_code == 0, res.output
        assert res.stdout == line


def compact(stdout):
    return json.dumps(json.loads(stdout), sort_keys=True) + "\n"


@pytest.mark.parametrize("batch", [False, True], ids=["object", "array"])
@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose", "simple-check"])
def test_json_output_is_one_compact_line(runner, cmd, batch):
    mats = [QMatrix3.diag(2.0, 0.5, 1.0), j2(1.0, 1.0)]
    payload = [m.to_json_dict() for m in mats] if batch else mats[0].to_json_dict()
    res = runner.invoke(main, [cmd, "-"], input=json.dumps(payload))
    assert res.exit_code == 0, res.output
    assert res.stdout == compact(res.stdout)


def test_gen_output_is_one_compact_line(runner):
    res = runner.invoke(main, ["gen", "--type", "homothety", "--seed", "11"])
    assert res.exit_code == 0, res.output
    assert res.stdout == compact(res.stdout)


def test_env_tolerance(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("QPROJ_TOL", "1e-7")
    path = write_matrix(tmp_path, QMatrix3.identity())
    res = runner.invoke(main, ["classify", str(path)])
    assert res.exit_code == 0
    assert json.loads(res.output)["tolerance"] == 1e-7


def test_json_deterministic_for_fixed_input(runner, tmp_path, rng):
    inst = generate("regular-elliptic", rng=rng)
    path = write_matrix(tmp_path, inst.matrix)
    r1 = runner.invoke(main, ["decompose", path])
    r2 = runner.invoke(main, ["decompose", path])
    assert r1.output == r2.output


def test_all_gen_types_roundtrip(runner, tmp_path):
    for type_name in DYNAMICAL_TYPES:
        res = runner.invoke(main, ["gen", "--type", type_name, "--seed", "3"])
        assert res.exit_code == 0, f"{type_name}: {res.output}"
        payload = json.loads(res.output)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        res = runner.invoke(main, ["classify", str(path)])
        rep = json.loads(res.output)
        assert rep["minor"] == payload["type"], f"{type_name}: {rep['minor']}"
        # verify understands generated payloads too
        res = runner.invoke(main, ["verify", str(path)])
        assert res.exit_code == 0, f"verify gen {type_name}: {res.output}"


def test_unpaired_nonreal_blocks_classify_and_decompose(runner, tmp_path):
    rng = np.random.default_rng(3)
    for canon in (nonstrong_shape("7", rng), negative_shape("iii", rng)):
        path = write_matrix(tmp_path, conjugated(canon, rng)[0])
        for cmd in ("classify", "decompose"):
            res = runner.invoke(main, [cmd, path])
            assert res.exit_code == 0, f"{cmd}: {res.output}"
            report_path = tmp_path / f"{cmd}-report.json"
            report_path.write_text(res.output)
            res = runner.invoke(main, ["verify", str(report_path)])
            assert res.exit_code == 0, f"verify {cmd}: {res.output}"


@pytest.mark.parametrize("cmd", ["decompose", "simple-check"])
def test_near_real_input_misses_the_build_gate_at_a_loose_tol(runner, cmd):
    # within 1e-4 of real, so certified by (I, Re A), whose measured residual
    # 2.2e-5 misses the build gate 1e-5; at the default tol it is realified
    # through its Jordan data instead
    upper = 3e-5j * np.triu(np.ones((3, 3)), 1)
    payload = json.dumps(QMatrix3(np.diag([2.0, 1.0, 0.5]) + upper, np.zeros((3, 3))).to_json_dict())
    res = runner.invoke(main, [cmd, "--tol", "1e-4", "-"], input=payload)
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr.startswith("error: CertificateError: real-conjugate certificate residual 2.2")
    res = runner.invoke(main, [cmd, "-"], input=payload)
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["verify", "-"], input=res.stdout)
    assert res.exit_code == 0, res.output


def test_near_real_input_classifies_as_its_real_part_at_a_loose_tol(runner):
    # classify reads only the trace pair of Re A, so the input above, whose
    # (I, Re A) certificate misses the build gate, classifies as diag(2, 1, 1/2)
    upper = 3e-5j * np.triu(np.ones((3, 3)), 1)
    payload = json.dumps(QMatrix3(np.diag([2.0, 1.0, 0.5]) + upper, np.zeros((3, 3))).to_json_dict())
    res = runner.invoke(main, ["classify", "--tol", "1e-4", "-"], input=payload)
    assert res.exit_code == 0 and res.stderr == "", res.output
    rep = json.loads(res.stdout)
    assert (rep["major"], rep["minor"]) == ("Loxodromic", "RegularLoxodromic")
    # the traces of diag(2, 1, 1/2) and of its inverse, and f(3.5, 3.5)
    assert (rep["x"], rep["y"], rep["f"]) == (3.5, 3.5, 0.5625)
    res = runner.invoke(main, ["verify", "--tol", "1e-4", "-"], input=res.stdout)
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose", "simple-check", "verify"])
def test_unusable_tol_is_usage_error(runner, tmp_path, cmd, value):
    path = write_matrix(tmp_path, generate("regular-elliptic", seed=1).matrix)
    res = runner.invoke(main, [cmd, "--tol", value, path])
    assert res.exit_code == 2, res.output
    assert "finite number above zero" in res.stderr


def test_unreachable_tol_is_precondition_failure(runner, tmp_path):
    path = write_matrix(tmp_path, generate("regular-elliptic", seed=1).matrix)
    res = runner.invoke(main, ["classify", "--tol", "1e-30", path])
    assert res.exit_code == 3
    assert "IllConditioned" in res.stderr


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1", "tight"])
def test_unusable_env_tolerance_falls_back(runner, tmp_path, monkeypatch, value):
    monkeypatch.setenv("QPROJ_TOL", value)
    path = write_matrix(tmp_path, generate("regular-elliptic", seed=1).matrix)
    res = runner.invoke(main, ["classify", path])
    assert res.exit_code == 0, res.output
    assert f"ignoring invalid QPROJ_TOL={value!r}" in res.stderr
    assert json.loads(res.stdout)["tolerance"] == 1e-9


def _one_at_a_time(runner, cmd, mats):
    """stdout, stderr and exit code of a batch, read off its inputs sent one at a time.

    Each input's warnings come out in input order, the first failing input
    ends the command with its error and no stdout, and otherwise stdout is
    the array of the single reports.
    """
    stdouts, stderr = [], ""
    for m in mats:
        res = runner.invoke(main, [cmd, "-"], input=json.dumps(m.to_json_dict()))
        stderr += res.stderr
        if res.exit_code != 0:
            return "", stderr, res.exit_code
        stdouts.append(res.stdout.rstrip("\n"))
    return "[" + ", ".join(stdouts) + "]\n", stderr, 0


@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose", "simple-check"])
def test_report_is_the_same_alone_or_in_a_batch(runner, cmd):
    # generic inputs take the batch's first stage; the others go to the structure read
    mats = [generate(t, seed=s).matrix for s in (1, 2)
            for t in ("regular-elliptic", "screw-loxodromic", "regular-loxodromic",
                      "loxo-parabolic", "ellipto-translation", "homothety")]
    res = runner.invoke(main, [cmd, "-"], input=json.dumps([m.to_json_dict() for m in mats]))
    assert res.exit_code == 0, res.output
    assert (res.stdout, res.stderr, res.exit_code) == _one_at_a_time(runner, cmd, mats)


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose", "simple-check"])
def test_mixed_batch_reports_in_input_order(runner, cmd, order):
    # a generic input, one that needs auto-normalization (and still takes the
    # first stage), and one whose adjoint is Singular (cond_1 = 1e14, det_h = 1)
    mats = [generate("regular-elliptic", seed=3).matrix,
            generate("screw-loxodromic", seed=3).matrix * (1.0 + 5e-5),
            QMatrix3.diag(1e7, 1e-7, 1.0)]
    batch = [mats[k] for k in order]
    res = runner.invoke(main, [cmd, "-"], input=json.dumps([m.to_json_dict() for m in batch]))
    assert (res.stdout, res.stderr, res.exit_code) == _one_at_a_time(runner, cmd, batch)
    assert res.exit_code == 3 and res.stderr.endswith("\n") and "Singular" in res.stderr
    assert res.stderr.count("auto-normalizing") == (order.index(1) < order.index(2))
    # without the Singular input every report comes out, after the warning
    batch = [m for m in batch if m is not mats[2]]
    res = runner.invoke(main, [cmd, "-"], input=json.dumps([m.to_json_dict() for m in batch]))
    assert (res.stdout, res.stderr, res.exit_code) == _one_at_a_time(runner, cmd, batch)
    assert res.exit_code == 0 and res.stderr.count("auto-normalizing") == 1


def conditioned_sample(type_name, index, c, seed):
    """Input `index` of `type_name` as test_conditioning.sweep(c, default_rng(seed)) draws it."""
    rng = np.random.default_rng(seed)
    for name, (sampler, _) in DYNAMICAL_TYPES.items():
        for k in range(6):
            g, g_inv = conditioned_conjugator(c, rng)
            a = g @ sampler(rng) @ g_inv
            if (name, k) == (type_name, index):
                return a
    raise KeyError(type_name)


@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose", "simple-check"])
def test_after_stage_error_mid_batch_reports_in_input_order(runner, cmd):
    # at cond 1e5 this ellipto-translation passes jordan_form, but the product
    # of its factors misses the build gate; it sits between a generic input
    # and one that needs auto-normalization, whose warning must not appear
    failing = conditioned_sample("ellipto-translation", 5, 1e5, seed=0)
    batch = [generate("regular-elliptic", seed=3).matrix, failing,
             generate("screw-loxodromic", seed=3).matrix * (1.0 + 5e-5)]
    res = runner.invoke(main, [cmd, "-"], input=json.dumps([m.to_json_dict() for m in batch]))
    assert (res.stdout, res.stderr, res.exit_code) == _one_at_a_time(runner, cmd, batch)
    if cmd == "decompose":
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr.startswith("error: CertificateError: factor product residual 2.2")
        assert "auto-normalizing" not in res.stderr


def test_reversibility_gate_error_mid_batch_reports_in_input_order(runner):
    # J3(1) under a conjugator of cond 3.6e4 misses the `pair square 1` gate
    # in the batch's stacked witness pass; it sits between a generic input and
    # one that needs auto-normalization, whose warning must not appear
    g, g_inv = conditioned_conjugator(3.6e4, np.random.default_rng(0))
    failing = g @ QMatrix3.from_complex([[1, 1, 0], [0, 1, 1], [0, 0, 1]]) @ g_inv
    batch = [generate("regular-elliptic", seed=3).matrix, failing,
             generate("screw-loxodromic", seed=3).matrix * (1.0 + 5e-5)]
    res = runner.invoke(main, ["reversibility", "-"],
                        input=json.dumps([m.to_json_dict() for m in batch]))
    assert (res.stdout, res.stderr, res.exit_code) == _one_at_a_time(runner, "reversibility", batch)
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr.startswith("error: CertificateError: pair square 1 residual 7.56")
    assert "auto-normalizing" not in res.stderr


# -- verify over a batch of reports ------------------------------------------


def report_of(runner, cmd, m, *options):
    res = runner.invoke(main, [cmd, *options, "-"], input=json.dumps(m.to_json_dict()))
    assert res.exit_code == 0, res.output
    return json.loads(res.stdout)


def verified(runner, reports):
    """(stdout, status lines, failure lines, exit code, other stderr lines) of verify."""
    res = runner.invoke(main, ["verify", "-"], input=json.dumps(reports))
    lines = res.stderr.splitlines()
    statuses = [line for line in lines if line.startswith("report ")]
    failures = [line for line in lines if line.startswith("verification failure: ")]
    rest = [line for line in lines if line not in statuses and line not in failures]
    return res.stdout, statuses, failures, res.exit_code, rest


def scaled_reverser(rep):
    rep["reverser"]["matrix"] = [[[2.0 * c for c in q] for q in row]
                                 for row in rep["reverser"]["matrix"]]


def swapped_factors(rep):
    # each factor keeps its certificate, so only the product fails
    for key in ("factors", "certificates"):
        rep[key][0], rep[key][1] = rep[key][1], rep[key][0]


def singular_conjugator(rep):
    rep["certificates"][0]["T"] = QMatrix3.zeros().to_json_dict()


def cut_certificates(rep):
    del rep["certificates"][1:]


def no_certificates(rep):
    rep["certificates"].clear()


def surplus_certificate(rep):
    rep["certificates"].append(rep["certificates"][0])


def uncertified_simple(rep):
    assert rep["simple"]
    rep["certificate"] = None


def unflagged_psl(rep):
    assert rep["reversible_psl"]
    rep["reversible_psl"] = False


def no_input(rep):
    del rep["input"]


def relabelled(rep):
    rep.update(major="Loxodromic", minor="Homothety")


def five_factors(rep):
    # two identity factors, each certified by its own real conjugate: only the count fails
    identity = QMatrix3.identity().to_json_dict()
    rep["factors"] += [identity, identity]
    rep["certificates"] += [{"B": np.eye(3).tolist(), "T": identity, "residual": 0.0}] * 2


def unflagged_simple(rep):
    assert rep["simple"] and rep["certificate"] is not None
    rep["simple"] = False


def bogus_kind(rep):
    rep["kind"] = "bogus"


def edited_block_re(rep):
    rep["jordan"]["blocks"][0]["re"] += 0.5


def edited_block_sizes(rep):
    blocks = rep["jordan"]["blocks"]
    assert [b["size"] for b in blocks] == [2, 1]
    blocks[0]["size"], blocks[1]["size"] = 1, 2


# (command, generated type, tampering, the failures it causes, in order)
TAMPERED_BATCH_MEMBERS = {
    # the pair (s1, g) shares the reverser, so 2 g also breaks s1 (2 g) = A
    "scaled-reverser": ("reversibility", "ellipto-translation", scaled_reverser,
                        ("reverser square residual", "pair product residual")),
    # (-s1)^2 = s1^2, so only the product (-s1) g = -A fails
    "negated-s1": ("reversibility", "regular-elliptic", negated_s1, ("pair product residual",)),
    # the unit J2 route: W Q W^-1 does not commute with the pair factors
    "swapped-factors": ("decompose", "ellipto-parabolic", swapped_factors,
                        ("factor product residual",)),
    "singular-T": ("decompose", "regular-elliptic", singular_conjugator,
                   ("factor 0 real conjugate residual inf exceeds",)),
    # each factor needs its own certificate, however many there are
    "cut-certificates": ("decompose", "regular-elliptic", cut_certificates,
                         ("1 certificates for 3 factors",)),
    "no-certificates": ("decompose", "regular-elliptic", no_certificates,
                        ("0 certificates for 3 factors",)),
    "surplus-certificate": ("decompose", "regular-elliptic", surplus_certificate,
                            ("4 certificates for 3 factors",)),
    "uncertified-simple": ("simple-check", "vertical-translation", uncertified_simple,
                           ("simple-check flag True carries no certificate",)),
    # the witness still checks out; only the flags contradict each other
    "unflagged-psl": ("reversibility", "regular-elliptic", unflagged_psl,
                      ("reversibility flags break the rule reversible_psl == ",)),
    "no-input": ("classify", "regular-elliptic", no_input,
                 ("report of kind 'classification' carries no input matrix",)),
    "relabelled": ("classify", "regular-elliptic", relabelled, (
        "classification Loxodromic/Homothety reclassified as Elliptic/RegularElliptic",)),
    # three non-real classes of one block each: d = 2, and the input is not
    # simple, so it has no real conjugate to give f, x, y
    "replaced-d": ("classify", "regular-elliptic", lambda rep: rep.update(d=7),
                   ("classification d 7 recomputed as 2",)),
    "f-of-a-non-simple-input": ("classify", "regular-elliptic", lambda rep: rep.update(f=0.5), (
        "classification f, x, y must be null on an input recomputed as not simple",)),
    "five-factors": ("decompose", "regular-elliptic", five_factors,
                     ("5 factors exceed the bound of four",)),
    "unflagged-simple": ("simple-check", "vertical-translation", unflagged_simple,
                         ("simple-check flag False recomputed as True",)),
    "bogus-kind": ("classify", "regular-elliptic", bogus_kind, ("unknown report kind 'bogus'",)),
    "edited-block-re": ("classify", "regular-loxodromic", edited_block_re,
                        ("jordan reconstruction residual",)),
    "edited-block-size": ("classify", "loxo-parabolic", edited_block_sizes,
                          ("jordan reconstruction residual",)),
}


@pytest.mark.parametrize("name", list(TAMPERED_BATCH_MEMBERS))
def test_tampered_report_fails_alone_and_mid_batch(runner, name):
    cmd, type_name, tamper, expected = TAMPERED_BATCH_MEMBERS[name]
    rep = report_of(runner, cmd, generate(type_name, seed=1).matrix)
    assert verified(runner, [rep])[3] == 0
    tamper(rep)
    stdout, statuses, failures, code, _ = verified(runner, [rep])
    assert (stdout, statuses, code) == ("", ["report 0: FAIL"], 4)
    assert len(failures) == len(expected)
    assert all(line.startswith(f"verification failure: {failure}")
               for line, failure in zip(failures, expected))
    # the middle of three reports: only its status fails, with the same failures
    neighbours = [report_of(runner, c, generate("screw-loxodromic", seed=2).matrix)
                  for c in ("reversibility", "simple-check")]
    batch = verified(runner, [neighbours[0], rep, neighbours[1]])
    assert batch[:4] == ("", ["report 0: ok", "report 1: FAIL", "report 2: ok"], failures, 4)


def no_witness(rep):
    rep["reverser"] = rep["pair_s1"] = None


# (generated type or None for a conjugated negative shape, edit, the rule it breaks first)
FLAG_EDITS = {
    "strong-not-sl": ("regular-elliptic",
                      lambda rep: rep.update(reversible_sl=False, strongly_reversible_sl=True),
                      "strongly_reversible_sl implies reversible_sl"),
    "not-psl": ("regular-elliptic", unflagged_psl,
                "reversible_psl == (reversible_sl or negative_reversible)"),
    "no-witness": ("regular-elliptic", no_witness, "a reverser is present iff reversible_psl"),
    "involution-kind": ("regular-elliptic", lambda rep: rep.update(reverser_kind="involution"),
                        "reverser_kind skew-involution iff reversible_sl"),
    "no-kind": (None, lambda rep: rep.update(reverser_kind="none"),
                "reverser_kind involution iff negative_reversible and not reversible_sl"),
}


@pytest.mark.parametrize("name", list(FLAG_EDITS))
def test_verify_rejects_reversibility_flags_that_contradict_each_other(runner, name):
    type_name, edit, rule = FLAG_EDITS[name]
    if type_name is None:
        rng = np.random.default_rng(1)
        m = conjugated(negative_shape("ii", rng), rng)[0]
    else:
        m = generate(type_name, seed=1).matrix
    rep = report_of(runner, "reversibility", m)
    assert verified(runner, [rep])[3] == 0
    edit(rep)
    _, statuses, failures, code, _ = verified(runner, [rep])
    assert (statuses, code) == (["report 0: FAIL"], 4)
    assert failures[0] == f"verification failure: reversibility flags break the rule {rule}"


def test_jordan_blocks_beyond_three_columns_are_malformed(runner):
    rep = report_of(runner, "classify", generate("loxo-parabolic", seed=1).matrix)
    rep["jordan"]["blocks"][1]["size"] = 2
    res = runner.invoke(main, ["verify", "-"], input=json.dumps(rep))
    assert res.exit_code == 2 and "entry 0: malformed report" in res.stderr


def mixed_reports(runner):
    """generated, classification (at two tolerances), reversibility, decomposition
    and simple-check reports of generic and defective inputs."""
    reports = []
    for type_name in ("regular-elliptic", "screw-loxodromic", "loxo-parabolic",
                      "ellipto-translation", "vertical-translation"):
        inst = generate(type_name, seed=4)
        reports.append({**inst.to_json_dict(), "kind": "generated", "seed": 4})
        for cmd in ("classify", "reversibility", "decompose", "simple-check"):
            reports.append(report_of(runner, cmd, inst.matrix))
        reports.append(report_of(runner, "classify", inst.matrix, "--tol", "1e-7"))
    return reports


@pytest.mark.parametrize("tampered", [(), (2, 15, 19)])
def test_verify_batch_equals_its_reports_alone(runner, tampered):
    reports = mixed_reports(runner)
    for k in tampered:
        {"reversibility": scaled_reverser, "decomposition": singular_conjugator,
         "classification": edited_block_re}[reports[k]["kind"]](reports[k])
    stdout, statuses, failures, code, rest = verified(runner, reports)
    alone = [verified(runner, [rep]) for rep in reports]
    assert statuses == [f"report {k}: {one[1][0].split(': ')[1]}" for k, one in enumerate(alone)]
    assert failures == [line for one in alone for line in one[2]]
    assert code == max(one[3] for one in alone) == (4 if tampered else 0)
    assert stdout == ("" if tampered else "all certificates verified\n")
    assert [statuses[k] for k in tampered] == [f"report {k}: FAIL" for k in tampered]
    # after the status lines, one worst-residual line per certificate kind
    kinds = ["jordan reconstruction", "real conjugate", "factor product", "reverser conjugation",
             "reverser square", "pair product", "pair square 1"]
    assert [line.split(" residual ")[0] for line in rest] == [f"worst {k}" for k in kinds]
    assert all(line.endswith(" (gate 1.0e-06)") for line in rest)


def test_verify_stops_at_a_malformed_or_non_unimodular_report_mid_batch(runner, monkeypatch):
    reports = mixed_reports(runner)[:6]
    malformed = dict(reports[1])
    del malformed["jordan"]
    res = runner.invoke(main, ["verify", "-"],
                        input=json.dumps(reports[:3] + [malformed] + reports[3:]))
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "".join(f"report {k}: ok\n" for k in range(3)) + (
        "error: entry 3: malformed report: 'jordan'\n")

    off = dict(reports[1])  # det_h = 2: verify refuses to reclassify it
    off["input"] = (QMatrix3.from_json_dict(off["input"]) * 2.0 ** (1 / 6)).to_json_dict()
    handed = counted_everywhere(monkeypatch, spectral, "_jordan_forms")
    alone = runner.invoke(main, ["verify", "-"], input=json.dumps(off))
    assert alone.exit_code == 3 and alone.stderr.startswith("error: NotUnimodular: det_h = 2.0")
    res = runner.invoke(main, ["verify", "-"], input=json.dumps(reports[:2] + [off] + reports[2:]))
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr == "report 0: ok\nreport 1: ok\n" + alone.stderr
    # the Jordan stage runs once on each other verdict input at each report
    # tolerance, here one input at 1e-9 and at 1e-7, never on the one that
    # fails the det_h gate
    members = [a for args in handed for a in args[0]]
    assert len(members) == 2 and all(matrix.is_unimodular(matrix.det_h(a), 1e-9) for a in members)


def test_verify_runs_one_jordan_verdict_per_input_and_tolerance(runner, monkeypatch):
    # 5 inputs, each with a generated, a classification and a simple-check
    # report at 1e-9 and a classification report at 1e-7: the 20 verdicts
    # share one Jordan member per input and tolerance
    reports = mixed_reports(runner)
    handed = counted_everywhere(monkeypatch, spectral, "_jordan_forms")
    assert verified(runner, reports)[3] == 0
    assert sorted(len(args[0]) for args in handed) == [5, 5]
    assert sorted(args[1] for args in handed) == [1e-9, 1e-7]


# (command, generated type, flag, the value that replaces it)
NON_BOOLEAN_FLAGS = {
    "sl-string": ("reversibility", "regular-elliptic", "reversible_sl", "no"),
    "strong-string": ("reversibility", "regular-elliptic", "strongly_reversible_sl", "no"),
    "psl-int": ("reversibility", "regular-elliptic", "reversible_psl", 1),
    "simple-int": ("simple-check", "vertical-translation", "simple", 1),
    "simple-float": ("simple-check", "vertical-translation", "simple", 1.0),
}


@pytest.mark.parametrize("name", list(NON_BOOLEAN_FLAGS))
def test_verify_rejects_a_flag_that_is_not_a_boolean_alone_and_mid_batch(runner, name):
    cmd, type_name, flag, value = NON_BOOLEAN_FLAGS[name]
    rep = report_of(runner, cmd, generate(type_name, seed=1).matrix)
    assert verified(runner, [rep])[3] == 0
    rep[flag] = value
    assert_malformed_alone_and_mid_batch(runner, rep, f"{flag} is {value!r}, not a boolean")


def assert_malformed_alone_and_mid_batch(runner, rep, what):
    """verify exits 2 on rep alone and as the middle of three reports, saying what."""
    message = f"malformed report: {what}\n"
    res = runner.invoke(main, ["verify", "-"], input=json.dumps(rep))
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", "error: entry 0: " + message)
    neighbours = [report_of(runner, c, generate("screw-loxodromic", seed=2).matrix)
                  for c in ("reversibility", "simple-check")]
    batch = json.dumps([neighbours[0], rep, neighbours[1]])
    res = runner.invoke(main, ["verify", "-"], input=batch)
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "report 0: ok\nerror: entry 1: " + message)


# (edit of a classification report, what verify says of the edited field):
# each field is read as the JSON type the report writes, and a boolean is
# no number
WRONG_JSON_TYPES = {
    "tolerance-true": (lambda rep: rep.update(tolerance=True), "tolerance is True, not a number"),
    "tolerance-string": (lambda rep: rep.update(tolerance="1e-9"),
                         "tolerance is '1e-9', not a number"),
    "size-true": (lambda rep: rep["jordan"]["blocks"][0].update(size=True),
                  "size is True, not an integer"),
    "re-true": (lambda rep: rep["jordan"]["blocks"][0].update(re=True), "re is True, not a number"),
    "im-false": (lambda rep: rep["jordan"]["blocks"][1].update(im=False),
                 "im is False, not a number"),
    "f-string": (lambda rep: rep.update(f="x"), "f is 'x', not a number or null"),
    "d-float": (lambda rep: rep.update(d=7.5), "d is 7.5, not an integer"),
    "d-true": (lambda rep: rep.update(d=True), "d is True, not an integer"),
    "x-string": (lambda rep: rep.update(x="1"), "x is '1', not a number or null"),
}


@pytest.mark.parametrize("name", list(WRONG_JSON_TYPES))
def test_verify_rejects_a_field_of_the_wrong_json_type_alone_and_mid_batch(runner, name):
    edit, what = WRONG_JSON_TYPES[name]
    rep = report_of(runner, "classify", generate("regular-elliptic", seed=1).matrix)
    assert verified(runner, [rep])[3] == 0
    edit(rep)
    assert_malformed_alone_and_mid_batch(runner, rep, what)


def test_verify_reclassifies_a_generated_label(runner):
    res = runner.invoke(main, ["gen", "--type", "regular-elliptic", "--seed", "1"])
    rep = json.loads(res.stdout)
    assert verified(runner, [rep])[3] == 0
    rep["type"] = "homothety"
    stdout, statuses, failures, code, _ = verified(runner, [rep])
    assert (stdout, statuses, code) == ("", ["report 0: FAIL"], 4)
    assert failures == [
        "verification failure: generated label homothety reclassified as RegularElliptic"]


def test_verify_stops_at_a_verdict_whose_jordan_stage_raises(runner):
    # a unimodular input whose structure read finds no chain lead: replaying
    # its simple-check flag or its generated label ends verify with the error
    # the commands that analyse it raise (exit 3)
    a, label = conjugated_samples(1e5, np.random.default_rng(11))[17]
    error = "error: SpectralFailure: no Jordan structure read: no usable chain lead\n"
    res = runner.invoke(main, ["simple-check", "-"], input=json.dumps(a.to_json_dict()))
    assert (res.exit_code, res.stdout, res.stderr) == (3, "", error)
    simple = {"kind": "simple-check", "input": a.to_json_dict(), "simple": False,
              "certificate": None, "tolerance": 1e-9}
    generated = {"kind": "generated", **a.to_json_dict(), "type": label, "seed": 0}
    for rep in (simple, generated):
        res = runner.invoke(main, ["verify", "-"], input=json.dumps(rep))
        assert (res.exit_code, res.stdout, res.stderr) == (3, "", error)


def test_verify_stops_at_an_entry_that_is_not_a_report_object(runner):
    rep = report_of(runner, "classify", generate("regular-elliptic", seed=1).matrix)
    res = runner.invoke(main, ["verify", "-"], input=json.dumps([rep, 3]))
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == "report 0: ok\nerror: entry 1 is not a report object\n"


def test_verify_replays_the_library_residuals_bitwise():
    # one payload of reversibility and decomposition reports of the shape
    # families: every stacked residual equals the one the library stored
    rng = np.random.default_rng(7)
    mats = [conjugated(shape(kind, rng), rng)[0]
            for shape, kinds in ((reversible_shape, "i ii iii iv"), (negative_shape, "i ii iv"),
                                 (nonstrong_shape, "1 2 3"))
            for kind in kinds.split()]
    mats += [generate(t, seed=5).matrix for t in ("regular-elliptic", "identity")]
    runner = CliRunner()
    payload = json.dumps([m.to_json_dict() for m in mats])
    reports = [rep for cmd in ("reversibility", "decompose")
               for rep in json.loads(runner.invoke(main, [cmd, "-"], input=payload).stdout)]
    replay = cli._Replay(1e-9)
    for rep in reports:
        replay.add(rep, [])
    replay.compute()
    replayed = {}
    for relation, rows in replay.rows.items():
        for (what, *_), residual in zip(rows, replay.residuals[relation]):
            replayed.setdefault(what.split(" ", 2)[-1] if what.startswith("factor ") else what,
                                []).append(residual)
    stored = {}
    for rep in reports:
        for key, value in rep.get("residuals", {}).items():
            stored.setdefault(key.replace("_", " "), []).append(value)
        if rep["kind"] == "decomposition":
            stored.setdefault("product", []).append(rep["residual"])
            stored.setdefault("real conjugate", []).extend(
                c["residual"] for c in rep["certificates"])
    assert len(stored["reverser conjugation"]) >= 7 and stored == replayed


def test_batch_reports_equal_the_library_objects_bitwise(runner):
    # every route meets in one batch: split, simple non-real, real, J2 and J3;
    # the batch's matrices are encoded by one stacked call per kind, the
    # library's by the batch of one
    mats = after_stage_samples()
    text = json.dumps([m.to_json_dict() for m in mats])
    for cmd, build in (("classify", classification_report),
                       ("decompose", lambda m: decompose_simple(m).to_json_dict()),
                       ("reversibility", lambda m: psl_report(m).to_json_dict()),
                       ("simple-check", None)):
        res = runner.invoke(main, [cmd, "-"], input=text)
        assert res.exit_code == 0, res.output
        reports = json.loads(res.stdout)
        assert len(reports) == len(mats)
        for m, rep in zip(mats, reports):
            assert rep.pop("input") == m.to_json_dict() and rep.pop("tolerance") == 1e-9
            rep.pop("kind")
            if build is None:
                want = realify(m).to_json_dict() if rep["simple"] else None
                rep = rep["certificate"]
            else:
                want = build(m)
            assert json.dumps(rep, sort_keys=True) == json.dumps(want, sort_keys=True)


def counted_everywhere(monkeypatch, module, name):
    """The list of argument tuples of every call to module.name, which is
    wrapped in every qproj namespace that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    for m in [m for n, m in sys.modules.items()
              if m is not None and (n == "qproj" or n.startswith("qproj."))]:
        for attr, value in list(vars(m).items()):
            if value is original:
                monkeypatch.setattr(m, attr, counted)
    return calls


@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose"])
def test_one_encoder_call_per_kind_in_a_batch(runner, monkeypatch, cmd):
    # a batch encodes the matrices of its reports (S, witnesses, or factors
    # with their conjugators) in one call and its inputs in one more
    batch = [generate("regular-elliptic", seed=seed).matrix for seed in range(12)]
    text = json.dumps([m.to_json_dict() for m in batch])
    calls = counted_everywhere(monkeypatch, matrix, "_json_matrices")
    res = runner.invoke(main, [cmd, "-"], input=text)
    assert res.exit_code == 0, res.output
    assert len(calls) == 2


DEFECTIVE_TYPES = ("vertical-translation", "non-vertical-translation", "ellipto-parabolic",
                   "ellipto-translation", "loxo-parabolic")


def test_defective_batch_tests_the_first_stage_once(runner, monkeypatch):
    # every member of a defective batch goes to the structure read, which
    # takes it as the stacked first stage left it: one test covers the Schur
    # diagonals of the batch, and each member is put in Schur form once
    batch = [generate(t, seed=seed).matrix for t in DEFECTIVE_TYPES for seed in (1, 2)]
    tests = counted_everywhere(monkeypatch, spectral, "_one_candidate")
    schurs = counted_everywhere(monkeypatch, spectral, "_schur")
    text = json.dumps([m.to_json_dict() for m in batch])
    res = runner.invoke(main, ["classify", "-"], input=text)
    assert res.exit_code == 0, res.output
    assert len(tests) == 1 and tests[0][0].shape == (len(batch), 6)
    assert len(schurs) == len(batch)


def test_read_error_of_a_later_member_stays_unseen(runner, monkeypatch):
    # the batch reads every member the first stage leaves out at once, but a
    # member's error, of whatever type, is raised only when that member is
    # reached: here the first member fails the singular rule, and a crash in
    # the chains of the one after it must not replace that precondition error
    singular = QMatrix3.diag(1e7, 1e-7, 1.0)
    defective = generate("loxo-parabolic", seed=1).matrix

    def crash(*args):
        raise RuntimeError("chain construction crashed")

    monkeypatch.setattr(spectral, "_class_chains", crash)
    res = runner.invoke(main, ["classify", "-"],
                        input=json.dumps([m.to_json_dict() for m in (singular, defective)]))
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr == ("error: Singular: cond_1 of the adjoint is 1.000e+14, "
                          "not below 1e+13\n")
    # the crash is real: it ends a batch it leads
    res = runner.invoke(main, ["classify", "-"],
                        input=json.dumps([m.to_json_dict() for m in (defective, singular)]))
    assert isinstance(res.exception, RuntimeError)
