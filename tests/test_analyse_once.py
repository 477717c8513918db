"""Each report function extracts the Jordan data of its input exactly once,
and the report functions share that extraction for the inputs they saw last.

``jordan_form`` is replaced in every ``qproj`` namespace that binds it, so a
call made through any module's import is counted.
"""

import json
import sys
import threading

import numpy as np
import pytest
from click.testing import CliRunner

from qproj import (QMatrix3, classification_report, classify_via_simple, decompose,
                   decompose_simple, dynamical_type, involution_reverser, is_reversible_sl,
                   is_simple, is_strongly_reversible_sl, matrix, psl_report, reverser,
                   reversibility, spectral)
from qproj.cli import main
from qproj.errors import QprojError
from qproj.generate import DYNAMICAL_TYPES, conjugated, generate, negative_shape, reversible_shape
from test_cli import counted_everywhere


@pytest.fixture
def jordan_calls(monkeypatch):
    # no analysis is kept from an earlier test, so each test starts cold
    spectral._analysis.cache_clear()
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


def answers(a):
    """The three reports of a as JSON, or the type of the error each raises."""
    out = []
    for report in (classification_report, psl_report, decompose_simple):
        try:
            rep = report(a)
        except QprojError as exc:
            out.append(type(exc).__name__)
            continue
        out.append(rep if isinstance(rep, dict) else rep.to_json_dict())
    return out


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_three_reports_in_a_row_analyse_once(jordan_calls, monkeypatch, name):
    dets = counted_everywhere(monkeypatch, matrix, "det_h")
    answers(INPUTS[name])
    assert len(jordan_calls) == len(dets) == 1


def test_every_entry_point_shares_the_analysis(jordan_calls, monkeypatch):
    # a simple input with a reverser and an involution reverser, whose real
    # conjugate classify_sl3r decides without a Jordan form of its own
    a, _ = conjugated(QMatrix3.diag(1j, 1j, 1), np.random.default_rng(3))
    dets = counted_everywhere(monkeypatch, matrix, "det_h")
    for entry in (classification_report, psl_report, decompose_simple, dynamical_type,
                  classify_via_simple, is_reversible_sl, is_strongly_reversible_sl, reverser,
                  involution_reverser, is_simple):
        entry(a)
    assert len(jordan_calls) == len(dets) == 1


@pytest.mark.parametrize("type_name", ["identity", "vertical-translation",
                                       "non-vertical-translation"])
def test_classify_via_simple_takes_d_from_the_shared_analysis(jordan_calls, type_name):
    # the real conjugate of these simple inputs has its discriminant within
    # its window, so d decides the verdict; it is read from the input's own
    # Jordan data, not from a Jordan form of the real conjugate
    inst = generate(type_name, seed=1)
    classification_report(inst.matrix)
    assert classify_via_simple(inst.matrix).minor.value == inst.label
    assert len(jordan_calls) == 1


def test_an_input_changed_in_place_is_analysed_afresh(jordan_calls):
    first = generate("regular-elliptic", seed=3).matrix
    second = generate("loxo-parabolic", seed=3).matrix
    a = QMatrix3(first.a.copy(), first.b.copy())
    before = answers(a)
    a.a[...], a.b[...] = second.a, second.b
    after = answers(a)
    assert len(jordan_calls) == 2
    spectral._analysis.cache_clear()
    assert after == answers(second) != before


def scribble(obj):
    """Write into every array, list and dict reachable from obj; an array that
    refuses the write must be read-only."""
    if isinstance(obj, np.ndarray):
        try:
            obj[...] = 7.0
        except ValueError:
            assert not obj.flags.writeable
    elif isinstance(obj, QMatrix3):
        scribble(obj.a)
        scribble(obj.b)
    elif isinstance(obj, (list, dict)):
        for key in (range(len(obj)) if isinstance(obj, list) else list(obj)):
            scribble(obj[key])
            obj[key] = 7.0
    elif isinstance(obj, tuple):
        for item in obj:
            scribble(item)
    elif hasattr(obj, "__dict__"):
        scribble(vars(obj))


def test_writing_into_what_a_call_returns_changes_no_later_answer(jordan_calls):
    # the second round is served by the kept analyses, so a write into
    # anything the first round returned must not reach them
    mats = list(INPUTS.values())
    want = [answers(a) for a in mats]
    for a in mats:
        returned = [classification_report(a), psl_report(a), decompose_simple(a),
                    reverser(a) if is_reversible_sl(a) else None]
        dec = returned[2]
        returned += [dec.factors, dec.certificates]
        for obj in returned:
            scribble(obj)
    assert [answers(a) for a in mats] == want
    assert len(jordan_calls) == len(mats)


def test_threads_get_the_serial_answers(jordan_calls):
    # four threads ask the three questions of one chunk, each in its own
    # order, so they meet on the same keys and evict each other's entries
    rng = np.random.default_rng(1)
    chunk = [generate(t, rng=rng).matrix for t in DYNAMICAL_TYPES for _ in range(2)]
    want = [answers(a) for a in chunk]
    got = [None] * 4

    def worker(k):
        order = chunk[k::4] + chunk if k % 2 else chunk[::-1]
        got[k] = {id(a): answers(a) for a in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for answered in got:
        assert [answered[id(a)] for a in chunk] == want
