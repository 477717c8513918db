import json

import numpy as np
import pytest
from click.testing import CliRunner

from qproj import QMatrix3
from qproj.cli import main
from qproj.generate import (
    DYNAMICAL_TYPES,
    conjugated,
    generate,
    negative_shape,
    nonstrong_shape,
)


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
    "pair-s1": (
        "reversibility", ("psl_involution_pair", 0, "matrix", 0, 1), [9.0, 0.0, 0.0, 0.0]
    ),
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


def test_verify_rejects_pair_multiplying_to_minus_a(runner, tmp_path):
    # (-s1) s2 = -A: -A is the same element of PSL(3,H), but the library
    # certifies s1 s2 = A, and verify replays exactly that
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    rep = json.loads(runner.invoke(main, ["reversibility", path]).output)
    s1 = rep["psl_involution_pair"][0]["matrix"]
    rep["psl_involution_pair"][0]["matrix"] = [[[-c for c in q] for q in row] for row in s1]
    res = replay(runner, tmp_path, rep)
    assert res.exit_code == 4
    assert "pair product" in res.stderr


def test_verify_rejects_singular_similarity(runner, tmp_path):
    path = write_matrix(tmp_path, QMatrix3.diag(2.0, 0.5, 1.0))
    rep = json.loads(runner.invoke(main, ["classify", path]).output)
    rep["jordan"]["S"] = QMatrix3.zeros().to_json_dict()
    res = replay(runner, tmp_path, rep)
    assert res.exit_code == 4
    assert "jordan reconstruction residual inf" in res.stderr


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
    res = runner.invoke(main, ["classify", "--text", path])
    assert res.exit_code == 0
    assert "RegularLoxodromic" in res.output


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


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("cmd", ["classify", "reversibility", "decompose", "simple-check"])
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
