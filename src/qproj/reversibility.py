"""Reversibility in SL(3,H) and PSL(3,H) with explicit witnesses.

An element is reversible when it is conjugate to its inverse.  Over H the
verdict reads off the Jordan data: blocks either pair up as {J(a,s),
J(a^-1,s)} with non-unit modulus or stand alone with unit modulus.  Strong
reversibility (reverser an involution) further restricts boundary angles to
{0, pi}.  The PSL story adds the twisted relation g A g^-1 = -A^-1, whose
shapes pair {J(a,s), J(-a^-1,s)} or are singletons in the class of i.

Every verdict that can carry a witness does: the reversing element is the
published closed form for the canonical shape, conjugated into A's frame,
and its defining equations are re-checked numerically before it is returned.
All decisions route through Jordan data; no search for a reverser is ever
performed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotReversible, NotStronglyReversible
from .matrix import (QMatrix3, check_certificate, conjugation_residual, inverse, product_residual,
                     require_unimodular, square_residual)
from .quaternion import DEFAULT_TOL, ClassRep, Quaternion
from .spectral import JordanData, _sylvester_op, _unvec36, jordan_form

_J = Quaternion(0.0, 0.0, 1.0, 0.0)


def _cq(z) -> Quaternion:
    return Quaternion.from_complex_pair(complex(z), 0j)


def _jq(z) -> Quaternion:
    """The quaternion z * j for complex z."""
    return Quaternion.from_complex_pair(0j, complex(z))


@dataclass
class ReversibilityReport:
    reversible_sl: bool
    strongly_reversible_sl: bool
    negative_reversible: bool
    reversible_psl: bool
    reverser: QMatrix3 | None = None
    reverser_kind: str = "none"  # "involution" | "skew-involution" | "none"
    psl_involution_pair: tuple | None = None
    residuals: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "reversible_sl": self.reversible_sl,
            "strongly_reversible_sl": self.strongly_reversible_sl,
            "negative_reversible": self.negative_reversible,
            "reversible_psl": self.reversible_psl,
            "reverser": self.reverser.to_json_dict() if self.reverser else None,
            "reverser_kind": self.reverser_kind,
            "psl_involution_pair": (
                [m.to_json_dict() for m in self.psl_involution_pair]
                if self.psl_involution_pair
                else None
            ),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


# ---------------------------------------------------------------------------
# shape detection on Jordan data


def _boundary_angle(rep: ClassRep, tol: float) -> bool:
    """True when the class angle lies in {0, pi} within tolerance."""
    theta = rep.angle()
    return min(abs(theta), abs(math.pi - theta)) <= 1e3 * tol


@dataclass
class _Shape:
    """Routing data: which canonical reversible shape A matches."""

    kind: str  # "diag-unit" | "diag-pair" | "j2" | "j3"
    perm: list  # perm[k] = Jordan slot providing canonical slot k
    reps: list  # canonical-slot class representatives


def _match_reversible_shape(data: JordanData, tol: float) -> _Shape | None:
    blocks = data.blocks
    reps = [rep for rep, _ in blocks]

    if data.shape_id == "diag":
        if all(rep.is_unit(tol) for rep in reps):
            return _Shape("diag-unit", [0, 1, 2], reps)
        # need {a, a^-1} with |a| != 1 plus a unit singleton
        for p in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            a, b, c = reps[p[0]], reps[p[1]], reps[p[2]]
            if c.is_unit(tol) and not a.is_unit(tol) and b.isclose(a.inverse_class(), 1e3 * tol):
                return _Shape("diag-pair", list(p), [a, b, c])
        return None

    if data.shape_id == "j2":
        if all(rep.is_unit(tol) for rep in reps):
            return _Shape("j2", [0, 1, 2], reps)
        return None

    # j3
    if reps[0].is_unit(tol):
        return _Shape("j3", [0, 1, 2], reps)
    return None


def _match_negative_shape(data: JordanData, tol: float) -> _Shape | None:
    """Shapes conjugate to -A^-1: pairs {a, -a^-1} or singletons in [i]."""
    blocks = data.blocks
    reps = [rep for rep, _ in blocks]
    i_rep = ClassRep(0.0, 1.0)

    def is_i(rep):
        return rep.isclose(i_rep, 1e3 * tol)

    if data.shape_id == "diag":
        if all(is_i(rep) for rep in reps):
            return _Shape("neg-diag", [0, 1, 2], reps)
        for p in ((0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 0, 1), (2, 1, 0)):
            a, b, c = reps[p[0]], reps[p[1]], reps[p[2]]
            if is_i(c) and b.isclose(a.negated_inverse_class(), 1e3 * tol):
                return _Shape("neg-diag", list(p), [a, b, c])
        return None

    if data.shape_id == "j2":
        if is_i(reps[0]) and is_i(reps[1]):
            return _Shape("neg-j2", [0, 1, 2], reps)
        return None

    if is_i(reps[0]):
        return _Shape("neg-j3", [0, 1, 2], reps)
    return None


# ---------------------------------------------------------------------------
# canonical witnesses (the published closed forms)


def _skew_reverser_canonical(shape: _Shape) -> QMatrix3:
    g = QMatrix3.zeros()
    if shape.kind == "diag-unit":
        for k in range(3):
            g[k, k] = _J
    elif shape.kind == "diag-pair":
        g[0, 1] = _J
        g[1, 0] = _J
        g[2, 2] = _J
    elif shape.kind == "j2":
        theta = shape.reps[0].angle()
        g[0, 0] = _jq(-cmath.exp(-2j * theta))
        g[1, 1] = _J
        g[2, 2] = _J
    else:  # j3
        theta = shape.reps[0].angle()
        g[0, 0] = _jq(cmath.exp(-4j * theta))
        g[0, 1] = _jq(cmath.exp(-3j * theta))
        g[1, 1] = _jq(-cmath.exp(-2j * theta))
        g[2, 2] = _J
    return g


def _involution_reverser_canonical(shape: _Shape) -> QMatrix3:
    g = QMatrix3.zeros()
    if shape.kind in ("diag-unit", "diag-pair"):
        # pair in slots 0, 1; boundary singleton in slot 2
        g[0, 1] = _J
        g[1, 0] = -_J
        g[2, 2] = 1.0
    elif shape.kind == "j2":
        g[0, 0] = 1.0
        g[1, 1] = -1.0
        g[2, 2] = 1.0
    else:  # j3 with boundary angle
        sign = 1.0 if abs(shape.reps[0].angle()) <= math.pi / 2 else -1.0
        g[0, 0] = 1.0
        g[0, 1] = sign
        g[1, 1] = -1.0
        g[2, 2] = 1.0
    return g


def _negative_reverser_canonical(shape: _Shape) -> QMatrix3:
    g = QMatrix3.zeros()
    if shape.kind == "neg-diag":
        g[0, 1] = 1.0
        g[1, 0] = 1.0
        g[2, 2] = 1.0
    elif shape.kind == "neg-j2":
        g[0, 0] = 1.0
        g[1, 1] = -1.0
        g[2, 2] = 1.0
    else:  # neg-j3
        g[0, 0] = 1.0
        g[0, 1] = Quaternion(0.0, -1.0)
        g[1, 1] = -1.0
        g[2, 2] = 1.0
    return g


def _perm_matrix(perm) -> QMatrix3:
    p = np.zeros((3, 3))
    for canonical_slot, jordan_slot in enumerate(perm):
        p[jordan_slot, canonical_slot] = 1.0
    return QMatrix3.from_real(p)


def _into_frame(data: JordanData, perm, g0: QMatrix3) -> QMatrix3:
    """Conjugate a canonical witness into A's frame: S P g0 P^T S^-1."""
    P = _perm_matrix(perm)
    PT = _perm_matrix([perm.index(k) for k in range(3)])
    frame = data.S @ P
    return frame @ g0 @ PT @ inverse(data.S)


def _witness(A, data, shape, g0, target, sign, what):
    """(g, conjugation residual, square residual) for g0 taken into A's frame.

    Both defining equations, g A g^-1 = target and g^2 = sign * I, are checked.
    """
    g = _into_frame(data, shape.perm, g0)
    conj = check_certificate(conjugation_residual(g, A, target), f"{what} conjugation")
    return g, conj, check_certificate(square_residual(g, sign), f"{what} square")


def _checked_pair(A: QMatrix3, s1: QMatrix3, s2: QMatrix3):
    """(product residual, square residual) of a pair with s1 s2 = A and s1^2 = -I."""
    product = check_certificate(product_residual([s1, s2], A), "pair product")
    return product, check_certificate(square_residual(s1, -1.0), "pair square 1")


# ---------------------------------------------------------------------------
# public operations


def is_reversible_sl(A: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is conjugate to A^-1 in SL(3,H)."""
    require_unimodular(A, tol)
    return _match_reversible_shape(jordan_form(A, tol), tol) is not None


def reverser(A: QMatrix3, tol: float = DEFAULT_TOL) -> QMatrix3:
    """A skew-involution g with g A g^-1 = A^-1, certificate-checked."""
    require_unimodular(A, tol)
    data = jordan_form(A, tol)
    shape = _match_reversible_shape(data, tol)
    if shape is None:
        raise NotReversible("Jordan blocks do not pair into a reversible shape")
    g0 = _skew_reverser_canonical(shape)
    return _witness(A, data, shape, g0, inverse(A), -1.0, "reverser")[0]


def two_skew_involutions(A: QMatrix3, tol: float = DEFAULT_TOL):
    """(s1, s2) with s1^2 = s2^2 = -I and s1 s2 = A."""
    s2 = reverser(A, tol)
    s1 = -(A @ s2)
    _checked_pair(A, s1, s2)
    return s1, s2


def is_strongly_reversible_sl(A: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff some involution reverses A (boundary-angle shapes)."""
    require_unimodular(A, tol)
    data = jordan_form(A, tol)
    return _strong_shape(data, tol) is not None


def _strong_shape(data: JordanData, tol: float) -> _Shape | None:
    shape = _match_reversible_shape(data, tol)
    if shape is None:
        return None
    reps = shape.reps
    if shape.kind == "diag-unit":
        # need two equal angles and the remaining one in {0, pi}
        for p in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            a, b, c = reps[p[0]], reps[p[1]], reps[p[2]]
            if a.isclose(b, 1e3 * tol) and _boundary_angle(c, tol):
                jordan_slots = [shape.perm[k] for k in p]
                return _Shape("diag-unit", jordan_slots, [a, b, c])
        return None
    if shape.kind == "diag-pair":
        return shape if _boundary_angle(reps[2], tol) else None
    if shape.kind == "j2":
        ok = _boundary_angle(reps[0], tol) and _boundary_angle(reps[1], tol)
        return shape if ok else None
    return shape if _boundary_angle(reps[0], tol) else None  # j3


def involution_reverser(A: QMatrix3, tol: float = DEFAULT_TOL) -> QMatrix3:
    """An involution g with g A g^-1 = A^-1, certificate-checked."""
    require_unimodular(A, tol)
    data = jordan_form(A, tol)
    shape = _strong_shape(data, tol)
    if shape is None:
        raise NotStronglyReversible(
            "no involution reverses this conjugacy class (interior angle present)"
        )
    g0 = _involution_reverser_canonical(shape)
    return _witness(A, data, shape, g0, inverse(A), 1.0, "involution")[0]


def is_negative_reversible(A: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff g A g^-1 = -A^-1 has a solution in SL(3,H)."""
    require_unimodular(A, tol)
    return _match_negative_shape(jordan_form(A, tol), tol) is not None


def negative_reverser(A: QMatrix3, tol: float = DEFAULT_TOL) -> QMatrix3:
    """An involution g with g A g^-1 = -A^-1, certificate-checked."""
    require_unimodular(A, tol)
    data = jordan_form(A, tol)
    shape = _match_negative_shape(data, tol)
    if shape is None:
        raise NotReversible("Jordan blocks do not pair into a negative-reversible shape")
    g0 = _negative_reverser_canonical(shape)
    return _witness(A, data, shape, g0, -inverse(A), 1.0, "negative-reverser")[0]


def reverser_equation_basis(A: QMatrix3, tol: float = DEFAULT_TOL):
    """Orthonormal basis of the real solution space of g A = A^-1 g.

    The equation is real-linear in the 36 real coordinates of g; the basis is
    returned as a list of QMatrix3.  This is the obstruction-test companion to
    the shape classifiers: for the non-strongly-reversible shapes no solution
    is an involution, which tests sample from this space.
    """
    return [_unvec36(row) for row in _reverser_null_rows(A, tol)]


def _reverser_null_rows(A: QMatrix3, tol: float) -> np.ndarray:
    """The basis of reverser_equation_basis as rows of _vec36 coordinates."""
    # X -> (-A^-1) X - X (-A) = X A - A^-1 X
    _, s, vh = np.linalg.svd(_sylvester_op(-inverse(A), -A))
    return vh[s < max(1e-8 * s[0], 1e3 * tol)]


def random_reverser_solution(A: QMatrix3, rng, tol: float = DEFAULT_TOL) -> QMatrix3:
    """A random unit-norm element of the solution space of g A = A^-1 g."""
    rows = _reverser_null_rows(A, tol)
    if not len(rows):
        return QMatrix3.zeros()
    g = _unvec36(rng.standard_normal(len(rows)) @ rows)
    n = g.norm()
    return g * (1.0 / n) if n > 0 else g


def psl_report(A: QMatrix3, tol: float = DEFAULT_TOL) -> ReversibilityReport:
    """All reversibility flags plus verified witnesses.

    reversible_psl holds iff A is conjugate to A^-1 or to -A^-1; in either
    case a pair of matrices squaring to +-I with product A is produced (the
    two-skew-involution factorization, or (-g^-1 A^-1, g) from the twisted
    relation), and both project to involutions in PSL(3,H).
    """
    require_unimodular(A, tol)
    data = jordan_form(A, tol)
    rev_shape = _match_reversible_shape(data, tol)
    neg_shape = _match_negative_shape(data, tol)
    rev = rev_shape is not None
    neg = neg_shape is not None

    report = ReversibilityReport(
        reversible_sl=rev,
        strongly_reversible_sl=rev and _strong_shape(data, tol) is not None,
        negative_reversible=neg,
        reversible_psl=rev or neg,
    )

    if rev:
        g0 = _skew_reverser_canonical(rev_shape)
        g, conj, square = _witness(A, data, rev_shape, g0, inverse(A), -1.0, "reverser")
        s1 = -(A @ g)
        report.reverser_kind = "skew-involution"
    elif neg:
        A_inv = inverse(A)
        g0 = _negative_reverser_canonical(neg_shape)
        g, conj, square = _witness(A, data, neg_shape, g0, -A_inv, 1.0, "negative-reverser")
        s1 = -(inverse(g) @ A_inv)
        report.reverser_kind = "involution"
    else:
        return report
    product, square_1 = _checked_pair(A, s1, g)
    report.reverser = g
    report.psl_involution_pair = (s1, g)
    report.residuals = {
        "reverser_conjugation": conj,
        "reverser_square": square,
        "pair_product": product,
        "pair_square_1": square_1,
        "pair_square_2": square,
    }
    return report
