import json
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from qproj import QMatrix3, classification_report, decompose_simple, psl_report, realify
from qproj import cli, matrix
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
    # generic inputs take the batch's first stage; the others go to the search
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


def test_verify_stops_at_a_malformed_or_non_unimodular_report_mid_batch(runner):
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
    alone = runner.invoke(main, ["verify", "-"], input=json.dumps(off))
    assert alone.exit_code == 3 and alone.stderr.startswith("error: NotUnimodular: det_h = 2.0")
    res = runner.invoke(main, ["verify", "-"], input=json.dumps(reports[:2] + [off] + reports[2:]))
    assert res.exit_code == 3 and res.stdout == ""
    assert res.stderr == "report 0: ok\nreport 1: ok\n" + alone.stderr


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


@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose"])
def test_one_encoder_call_per_kind_in_a_batch(runner, monkeypatch, cmd):
    # a batch encodes the matrices of its reports (S, witnesses, or factors
    # with their conjugators) in one call and its inputs in one more
    batch = [generate("regular-elliptic", seed=seed).matrix for seed in range(12)]
    text = json.dumps([m.to_json_dict() for m in batch])
    calls = []
    original = matrix._json_matrices

    def counted(a, b):
        calls.append(len(a))
        return original(a, b)

    for module in [m for name, m in sys.modules.items()
                   if m is not None and (name == "qproj" or name.startswith("qproj."))]:
        if getattr(module, "_json_matrices", None) is original:
            monkeypatch.setattr(module, "_json_matrices", counted)
    res = runner.invoke(main, [cmd, "-"], input=text)
    assert res.exit_code == 0, res.output
    assert len(calls) == 2
