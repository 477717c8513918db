"""Each report function extracts the Jordan data of its input exactly once.

``jordan_form`` is replaced in every ``qproj`` namespace that binds it, so a
call made through any module's import is counted.
"""

import json
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from qproj import QMatrix3, classification_report, decompose_simple, psl_report, spectral
from qproj.cli import main
from qproj.generate import conjugated, generate, negative_shape, reversible_shape


@pytest.fixture
def jordan_calls(monkeypatch):
    original = spectral.jordan_form
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "qproj" or name.startswith("qproj."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


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


def test_one_extraction_per_simple_check(jordan_calls):
    a, _ = conjugated(QMatrix3.diag(1j, 1j, 1), np.random.default_rng(3))
    res = CliRunner().invoke(main, ["simple-check", "-"], input=json.dumps(a.to_json_dict()))
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["simple"] is True
    assert len(jordan_calls) == 1
