"""Answers under conjugators of a set condition number.

Each input is g C g^-1 for a canonical sample C of a `gen` type and a g with
cond Phi(g) = c exactly (oracles.conditioned_conjugator).  Every report must
be correct or a typed QprojError; a similarity S is never rejected as
singular just because its determinant is small.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from qproj import (QprojError, Singular, classification_report, decompose_simple, is_simple,
                   psl_report)
from qproj.generate import DYNAMICAL_TYPES
from qproj.matrix import inverse
from qproj.spectral import _jordan_forms, _schur, jordan_form
from oracles import conditioned_conjugator

_LOXODROMIC = ("RegularLoxodromic", "ScrewLoxodromic", "Homothety", "LoxoParabolic")


def conjugated_samples(c, rng, samples=6):
    """(g C g^-1, label) for samples canonical samples C of each gen type, in type order."""
    out = []
    for sampler, label in DYNAMICAL_TYPES.values():
        for _ in range(samples):
            g, g_inv = conditioned_conjugator(c, rng)
            out.append((g @ sampler(rng) @ g_inv, label))
    return out


def sweep(c, rng):
    """Per input, the outcome of each report function.

    An outcome is "correct", the name of the QprojError raised, or "wrong".
    """
    checks = (
        (classification_report, lambda rep, label: rep["minor"] == label),
        # the generator pairs no moduli, so exactly the unit-modulus
        # (non-loxodromic) types are reversible
        (psl_report, lambda rep, label: rep.reversible_sl == (label not in _LOXODROMIC)),
        (decompose_simple, lambda rep, label: len(rep.factors) <= 4),
    )
    out = []
    for a, label in conjugated_samples(c, rng):
        row = []
        for report, ok in checks:
            try:
                row.append("correct" if ok(report(a), label) else "wrong")
            except QprojError as exc:
                row.append(type(exc).__name__)
        out.append(row)
    return out


def test_cond_1e4_sweep_is_correct_or_typed_and_never_singular(rng):
    outcomes = sweep(1e4, rng)
    assert len(outcomes) == 66
    answers = [o for row in outcomes for o in row]
    assert "wrong" not in answers and Singular.__name__ not in answers
    # a witness may miss its build gate here (CertificateError), but at least
    # 30 of the 66 inputs must get all three answers
    assert sum(row == ["correct"] * 3 for row in outcomes) >= 30


def jordan_or_error(a, tol):
    try:
        return jordan_form(a, tol)
    except QprojError as exc:
        return exc


@pytest.mark.parametrize("c", [1e2, 1e3, 1e4, 1e5, 1e6])
def test_batch_jordan_data_equals_jordan_form_alone(c):
    # the sweep's inputs at seed 0 as one CLI batch: the stacked first stage
    # and the stacked read must hand every member the data jordan_form gives
    # it alone, residual bits included, or the same error, however
    # ill-conditioned the member
    mats = [a for a, _ in conjugated_samples(c, np.random.default_rng(0))]
    for batch, alone in zip(_jordan_forms(mats, 1e-9), (jordan_or_error(a, 1e-9) for a in mats),
                            strict=True):
        if isinstance(alone, QprojError):
            assert (type(batch), str(batch)) == (type(alone), str(alone))
        else:
            assert batch.blocks == alone.blocks
            assert (batch.S.a.tobytes(), batch.S.b.tobytes()) == (alone.S.a.tobytes(),
                                                                   alone.S.b.tobytes())
            assert float(batch.residual).hex() == float(alone.residual).hex()


def carries_its_inverse(data):
    """True when data.S_inv is inverse(data.S), bit for bit."""
    want = inverse(data.S)
    return (data.S_inv.a.tobytes(), data.S_inv.b.tobytes()) == (want.a.tobytes(),
                                                                 want.b.tobytes())


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("c", [1e2, 1e3, 1e4, 1e5, 1e6])
def test_jordan_data_carries_the_inverse_of_its_similarity(seed, c):
    # the sweep reaches both stages and the polish; each keeps the S^-1 its
    # residual was measured with
    mats = [a for a, _ in conjugated_samples(c, np.random.default_rng(seed))]
    datas = [*_jordan_forms(mats, 1e-9), *(jordan_or_error(a, 1e-9) for a in mats)]
    assert all(carries_its_inverse(data) for data in datas if not isinstance(data, QprojError))


def workloads():
    """perfbench/workloads.py, which builds the benchmark's corpora."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["generic", "defective", "shapes"])
def test_workload_jordan_data_carries_the_inverse_of_its_similarity(workload):
    # the first chunk of the seed-1 corpus, as one batch and one input at a time
    mats = [item["matrix"] for item in workloads().build_corpus(workload, 1)[0]]
    datas = [*_jordan_forms(mats, 1e-9), *(jordan_form(a, 1e-9) for a in mats)]
    assert all(carries_its_inverse(data) for data in datas)


def test_schur_equals_scipy_schur_on_the_workload_corpora():
    # the Jordan stage calls LAPACK's zgees with its default workspace; on
    # every seed-1 input of the three workloads that gives bitwise the Schur
    # form scipy.linalg.schur gives
    module = workloads()
    mats = [item["matrix"] for workload in ("generic", "defective", "shapes")
            for chunk in module.build_corpus(workload, 1) for item in chunk]
    assert len(mats) == 1744
    for a in mats:
        phi = a.adjoint()
        T, Z = _schur(phi)
        want_T, want_Z = sla.schur(phi, output="complex")
        assert (T.tobytes(), Z.tobytes()) == (want_T.tobytes(), want_Z.tobytes())


@pytest.mark.parametrize("c", [1e2, 1e3])
def test_conjugated_vertical_translation_keeps_one_class(c):
    # J2(1) + 1: its six adjoint eigenvalues can split into a cluster of four
    # and a pair; the read takes the coarsest partition whose clusters are
    # each one class, so the pair does not come back as a class of its own
    sampler, _ = DYNAMICAL_TYPES["vertical-translation"]
    rng = np.random.default_rng(11)
    for _ in range(60):
        g, g_inv = conditioned_conjugator(c, rng)
        data = jordan_form(g @ sampler(rng) @ g_inv)
        assert [sizes for _, sizes in data.class_sizes()] == [[2, 1]]


@pytest.mark.parametrize("type_name", ["elliptic-reflection", "homothety"])
def test_double_class_comes_back_as_one_class_at_cond_1e5(type_name):
    # diag(lam, lam, mu): at cond 1e5 the two eigenvalue pairs near lam can lie
    # further apart than the base level; they must still be one class, or
    # is_simple calls the simple input not simple.  A typed error is allowed
    sampler, _ = DYNAMICAL_TYPES[type_name]
    rng = np.random.default_rng(11)
    for _ in range(60):
        g, g_inv = conditioned_conjugator(1e5, rng)
        canon = sampler(rng)
        a = g @ canon @ g_inv
        data = jordan_or_error(a, 1e-9)
        if isinstance(data, QprojError):
            continue
        want = jordan_form(canon)
        assert sorted(sizes for _, sizes in data.class_sizes()) == sorted(
            sizes for _, sizes in want.class_sizes())
        assert is_simple(a) == is_simple(canon)


@pytest.mark.parametrize("seed", range(10))
def test_cond_1e3_sweep_is_fully_correct(seed):
    # the reverser relation is checked as A g A = t g, with no A^-1, so
    # at cond 1e3 every conjugated ellipto-translation keeps its witness
    outcomes = sweep(1e3, np.random.default_rng(seed))
    assert [k for k, row in enumerate(outcomes) if row != ["correct"] * 3] == []
