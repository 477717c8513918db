"""Each report function extracts the Jordan data of its input exactly once.

``jordan_form`` is replaced in every ``qproj`` namespace that binds it, so a
call made through any module's import is counted.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from qproj import (QMatrix3, classification_report, decompose, decompose_simple, psl_report,
                   reversibility, spectral)
from qproj.cli import main
from qproj.generate import conjugated, generate, negative_shape, reversible_shape
from test_cli import counted_everywhere


@pytest.fixture
def jordan_calls(monkeypatch):
    return counted_everywhere(monkeypatch, spectral, "jordan_form")


def _inputs():
    rng = np.random.default_rng(7)
    return {
        "generic": generate("regular-loxodromic", rng=rng).matrix,
        "defective": generate("loxo-parabolic", rng=rng).matrix,
        "reversible-shape": conjugated(reversible_shape("iii", rng), rng)[0],
        "negative-shape": conjugated(negative_shape("i", rng), rng)[0],
    }


INPUTS = _inputs()


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("report", [classification_report, psl_report])
def test_one_extraction_per_report(jordan_calls, report, name):
    report(INPUTS[name])
    assert len(jordan_calls) == 1


@pytest.mark.parametrize("type_name", ["regular-elliptic", "regular-loxodromic"])
def test_one_extraction_per_decomposition(jordan_calls, type_name):
    a = generate(type_name, seed=11).matrix
    dec = decompose_simple(a)
    assert len(jordan_calls) == 1
    assert len(dec) == (3 if type_name == "regular-elliptic" else 4)
    for f, cert in zip(dec.factors, dec.certificates):
        assert cert.residual < 1e-8
        assert cert.verify(f) == cert.residual


def test_one_extraction_per_simple_check(jordan_calls, monkeypatch):
    # the CLI reads a member its first stage leaves out by the batch read, not
    # by jordan_form (whose own read would count twice here); the simple
    # input's certificate extracts nothing more
    reads = counted_everywhere(monkeypatch, spectral, "_read_jordan")
    a, _ = conjugated(QMatrix3.diag(1j, 1j, 1), np.random.default_rng(3))
    res = CliRunner().invoke(main, ["simple-check", "-"], input=json.dumps(a.to_json_dict()))
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["simple"] is True
    assert len(jordan_calls) + sum(len(args[0]) for args in reads) == 1


def test_after_stages_take_the_inverse_of_s_from_the_jordan_data(monkeypatch):
    # generic and unit-J2 inputs split into three or four factors and have
    # skew-involution reversers; the negative shape has an involution witness
    mats = [generate(t, seed=seed).matrix for seed in (1, 2)
            for t in ("regular-elliptic", "regular-loxodromic", "ellipto-parabolic")]
    mats.append(INPUTS["negative-shape"])
    text = json.dumps([m.to_json_dict() for m in mats])
    runner = CliRunner()
    want = {cmd: runner.invoke(main, [cmd, "-"], input=text).stdout
            for cmd in ("reversibility", "decompose")}
    library = [(psl_report(a).to_json_dict(), decompose_simple(a).to_json_dict()) for a in mats]
    assert all(len(dec["factors"]) > 1 for _, dec in library)

    def refused(*args):
        raise AssertionError("an after-stage inverted a matrix")

    for module in (reversibility, decompose):
        for name in ("_invert_adjoints", "inverse"):
            monkeypatch.setattr(module, name, refused, raising=False)
    assert [(psl_report(a).to_json_dict(), decompose_simple(a).to_json_dict())
            for a in mats] == library
    for cmd, stdout in want.items():
        res = runner.invoke(main, [cmd, "-"], input=text)
        assert (res.exit_code, res.stdout) == (0, stdout), res.output
