"""Answers under conjugators of a set condition number.

Each input is g C g^-1 for a canonical sample C of a `gen` type and a g with
cond Phi(g) = c exactly (oracles.conditioned_conjugator).  Every report must
be correct or a typed QprojError; a similarity S is never rejected as
singular just because its determinant is small.
"""

import numpy as np

from qproj import QprojError, Singular, classification_report, decompose_simple, psl_report
from qproj.generate import DYNAMICAL_TYPES
from oracles import conditioned_conjugator

_LOXODROMIC = ("RegularLoxodromic", "ScrewLoxodromic", "Homothety", "LoxoParabolic")


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
    for sampler, label in DYNAMICAL_TYPES.values():
        for _ in range(6):
            g, g_inv = conditioned_conjugator(c, rng)
            a = g @ sampler(rng) @ g_inv
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
