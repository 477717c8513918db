"""Dynamical-type classification for PSL(3,H) and the SL(3,R) trace test.

The quaternionic side classifies through Jordan data (moduli of the
eigenvalue classes plus diagonalizability).  The real side classifies through
the cubic's trace pair (x, y) = (tr A, tr A^-1) and the discriminant
f(x, y) = x^2 y^2 - 4(x^3 + y^3) + 18 x y - 27 of t^3 - x t^2 + y t - 1,
refined by the maximum degree d among minimal-polynomial factors.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .decompose import _is_simple_data, _real_form
from .errors import NotReal, NotSimple, NotUnimodular
from .matrix import QMatrix3, is_unimodular, unimodular_gate
from .quaternion import DEFAULT_TOL, ClassRep
from .spectral import _analysed, _jordan_dicts, _minimal_poly_from_data, minimal_poly_structure


class Major(str, enum.Enum):
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    LOXODROMIC = "Loxodromic"


class Minor(str, enum.Enum):
    REGULAR_ELLIPTIC = "RegularElliptic"
    ELLIPTIC_REFLECTION = "EllipticReflection"
    IDENTITY = "Identity"
    VERTICAL_TRANSLATION = "VerticalTranslation"
    NON_VERTICAL_TRANSLATION = "NonVerticalTranslation"
    ELLIPTO_PARABOLIC = "ElliptoParabolic"
    ELLIPTO_TRANSLATION = "ElliptoTranslation"
    REGULAR_LOXODROMIC = "RegularLoxodromic"
    SCREW_LOXODROMIC = "ScrewLoxodromic"
    HOMOTHETY = "Homothety"
    LOXO_PARABOLIC = "LoxoParabolic"


_MAJOR_OF = {
    Minor.REGULAR_ELLIPTIC: Major.ELLIPTIC,
    Minor.ELLIPTIC_REFLECTION: Major.ELLIPTIC,
    Minor.IDENTITY: Major.ELLIPTIC,
    Minor.VERTICAL_TRANSLATION: Major.PARABOLIC,
    Minor.NON_VERTICAL_TRANSLATION: Major.PARABOLIC,
    Minor.ELLIPTO_PARABOLIC: Major.PARABOLIC,
    Minor.ELLIPTO_TRANSLATION: Major.PARABOLIC,
    Minor.REGULAR_LOXODROMIC: Major.LOXODROMIC,
    Minor.SCREW_LOXODROMIC: Major.LOXODROMIC,
    Minor.HOMOTHETY: Major.LOXODROMIC,
    Minor.LOXO_PARABOLIC: Major.LOXODROMIC,
}


@dataclass(frozen=True)
class DynType:
    major: Major
    minor: Minor

    @classmethod
    def of(cls, minor: Minor) -> "DynType":
        return cls(_MAJOR_OF[minor], minor)

    def to_json_dict(self) -> dict:
        return {"major": self.major.value, "minor": self.minor.value}


@dataclass(frozen=True)
class TracePair:
    """(x, y) = (tr A, tr A^-1) of a real unimodular 3x3 matrix."""

    x: float
    y: float

    @classmethod
    def from_real_matrix(cls, a) -> "TracePair":
        a = np.asarray(a, dtype=float)
        return cls(float(np.trace(a)), float(np.trace(np.linalg.inv(a))))


def discriminant_f(x: float, y: float) -> float:
    """Discriminant of t^3 - x t^2 + y t - 1, i.e. prod (xi_i - xi_j)^2.

    Positive for three distinct real roots, negative for one real root and a
    conjugate pair, zero exactly on multiple roots.
    """
    return x * x * y * y - 4.0 * (x**3 + y**3) + 18.0 * x * y - 27.0


def _classify_from_jordan(data, tol):
    """The DynType of Jordan data; unit modulus, real and same class are the
    windows of ClassRep.is_unit, is_real and isclose."""
    reps = [rep for rep, _ in data.blocks]
    unit = all(rep.is_unit(tol) for rep in reps)
    top = max(size for _, size in data.blocks)

    if top > 1:
        # a Jordan block of size >= 2 is itself a repeated class
        if not unit:
            return DynType.of(Minor.LOXO_PARABOLIC)
        if all(rep.isclose(ClassRep(1.0, 0.0), 1e3 * tol) for rep in reps):  # unipotent
            return DynType.of(
                Minor.VERTICAL_TRANSLATION if top == 2 else Minor.NON_VERTICAL_TRANSLATION)
        return DynType.of(Minor.ELLIPTO_PARABOLIC if top == 2 else Minor.ELLIPTO_TRANSLATION)

    # which of the pairs (0, 1), (0, 2), (1, 2) of blocks share a class
    same = [a.isclose(b, 1e3 * tol) for a, b in itertools.combinations(reps, 2)]
    if unit:
        if all(same) and reps[0].is_real(tol):
            return DynType.of(Minor.IDENTITY)
        return DynType.of(Minor.ELLIPTIC_REFLECTION if any(same) else Minor.REGULAR_ELLIPTIC)
    if any(same):
        return DynType.of(Minor.HOMOTHETY)
    moduli = [rep.modulus() for rep in reps]
    scale = max(1.0, max(moduli))
    same_mod = any(abs(a - b) <= 1e3 * tol * scale for a, b in itertools.combinations(moduli, 2))
    return DynType.of(Minor.SCREW_LOXODROMIC if same_mod else Minor.REGULAR_LOXODROMIC)


def dynamical_type(A: QMatrix3, tol: float = DEFAULT_TOL) -> DynType:
    """Elliptic/parabolic/loxodromic classification with its refinement.

    +-I3 is reported as the dedicated Identity minor.  Major class:
    diagonalizable with unit-modulus classes -> elliptic; any non-unit
    modulus -> loxodromic; otherwise parabolic.
    """
    return _classify_from_jordan(_analysed(A, tol), tol)


def _as_real_sl3(a, tol):
    if isinstance(a, QMatrix3):
        if not a.is_real(max(tol, 1e-12) * 1e3):
            raise NotReal("matrix has non-real entries")
        arr = a.real_part()
    else:
        arr = np.asarray(a)
        if np.iscomplexobj(arr):
            if np.max(np.abs(arr.imag)) > 1e3 * max(tol, 1e-12) * max(1.0, np.max(np.abs(arr))):
                raise NotReal("matrix has non-real entries")
            arr = arr.real
        arr = arr.astype(float)
    if arr.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    return arr


def classify_sl3r(a, tol: float = DEFAULT_TOL) -> DynType:
    """Classify a real unimodular 3x3 matrix by (f, x = y?, d).

    f > 0 is regular loxodromic; f < 0 splits into regular elliptic (x = y)
    and screw loxodromic; f = 0 splits by d and by x = y = 3 / x = y != 3,
    with I3 mapped to the Identity minor.
    """
    return _classify_sl3r(a, tol,
                          lambda arr: minimal_poly_structure(QMatrix3.from_real(arr), tol)[1])


def _classify_sl3r(a, tol, degree) -> DynType:
    """classify_sl3r, taking d as degree(arr) of the real array arr of a, and
    only when f is within its window of 0."""
    arr = _as_real_sl3(a, tol)
    d_real = float(np.linalg.det(arr))
    if not is_unimodular(d_real, tol):
        raise NotUnimodular(f"det = {d_real:.9f}, expected 1 (within {unimodular_gate(tol):.1e})")

    pair = TracePair.from_real_matrix(arr)
    x, y = pair.x, pair.y
    f = discriminant_f(x, y)
    # the achievable error in f scales with the gradient (cubic in the
    # traces); a quartic window would swallow genuinely small discriminants
    fscale = max(1.0, abs(x), abs(y)) ** 3
    f_tol = 1e2 * max(tol, 1e-12) * fscale
    xy_tol = 1e3 * max(tol, 1e-12) * max(1.0, abs(x), abs(y))

    if f > f_tol:
        return DynType.of(Minor.REGULAR_LOXODROMIC)
    if f < -f_tol:
        return DynType.of(
            Minor.REGULAR_ELLIPTIC if abs(x - y) <= xy_tol else Minor.SCREW_LOXODROMIC
        )

    d = degree(arr)
    if abs(x - y) > xy_tol:
        return DynType.of(Minor.HOMOTHETY if d == 1 else Minor.LOXO_PARABOLIC)
    if abs(x - 3.0) <= xy_tol:
        if d == 1:
            return DynType.of(Minor.IDENTITY)
        return DynType.of(
            Minor.VERTICAL_TRANSLATION if d == 2 else Minor.NON_VERTICAL_TRANSLATION
        )
    # multiple root, all unit moduli, not the triple root 1: eigenvalues -1,-1,1
    return DynType.of(Minor.ELLIPTIC_REFLECTION if d == 1 else Minor.ELLIPTO_PARABOLIC)


# A real matrix carries non-real eigenvalues only as conjugate pairs, and a
# pair collapses to ONE quaternionic class of multiplicity two, so the
# "all eigenvalues distinct" real verdicts lift to their repeated-class
# quaternionic counterparts.
_PAIR_COLLAPSE_REMAP = {
    Minor.REGULAR_ELLIPTIC: Minor.ELLIPTIC_REFLECTION,
    Minor.SCREW_LOXODROMIC: Minor.HOMOTHETY,
}

# Minors whose verdict flips when the real conjugate needed negation: the
# spectrum of -B replaces eigenvalue 1 by -1, turning unipotent shapes into
# their ellipto counterparts.
_NEGATION_REMAP = {
    Minor.VERTICAL_TRANSLATION: Minor.ELLIPTO_PARABOLIC,
    Minor.NON_VERTICAL_TRANSLATION: Minor.ELLIPTO_TRANSLATION,
}


def classify_via_simple(A: QMatrix3, tol: float = DEFAULT_TOL) -> DynType:
    """Classify a simple element through its real conjugate.

    Routes the real conjugate B of A (_real_form, from A's Jordan data) to
    classify_sl3r and lifts the verdict back.  Lifting collapses conjugate
    pairs into one repeated class (regular elliptic -> elliptic reflection,
    screw -> homothety).  When every real conjugate of A has determinant -1
    (an odd number of negative real eigenvalues), -B is classified instead;
    that negation preserves all minors except the unipotent ones, which map
    to their ellipto counterparts.
    """
    data = _analysed(A, tol)
    if not _is_simple_data(data, tol):
        raise NotSimple("matrix is not conjugate to a real matrix")
    b = _real_form(A, data, tol)[2]
    flipped = False
    if np.linalg.det(b) < 0:
        b = -b
        flipped = True
    # d is a similarity invariant, and -B has the d of B: A's own data gives it
    verdict = _classify_sl3r(b, tol, lambda _: _minimal_poly_from_data(data, tol)[1])
    if verdict.minor in _PAIR_COLLAPSE_REMAP:
        verdict = DynType.of(_PAIR_COLLAPSE_REMAP[verdict.minor])
    if flipped and verdict.minor in _NEGATION_REMAP:
        verdict = DynType.of(_NEGATION_REMAP[verdict.minor])
    return verdict


def classification_report(A: QMatrix3, tol: float = DEFAULT_TOL) -> dict:
    """JSON-ready classification report for the CLI."""
    return _classifications_from_data([A], [_analysed(A, tol)], tol)[0]


def _classifications_from_data(As, datas, tol: float) -> list:
    """The classification report of each A in As given its Jordan data; the
    Jordan data of the whole batch is encoded by one _jordan_dicts call."""
    out = []
    for A, data, jordan in zip(As, datas, _jordan_dicts(datas)):
        report = {**_classify_from_jordan(data, tol).to_json_dict(), "f": None, "x": None,
                  "y": None, "d": _minimal_poly_from_data(data, tol)[1], "jordan": jordan}
        if _is_simple_data(data, tol):
            b = _real_form(A, data, tol)[2]
            pair = TracePair.from_real_matrix(b if np.linalg.det(b) > 0 else -b)
            report.update(x=pair.x, y=pair.y, f=discriminant_f(pair.x, pair.y))
        out.append(report)
    return out
