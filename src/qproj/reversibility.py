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

The witnesses follow jordan_form per batch (_psls_from_data): the CLI passes
a whole batch, psl_report a batch of one, and reverser and
involution_reverser pass one member to _witnesses.  _matches reads each
member's shape once; every g = S g0 S^-1, its pair and their residuals come
from stacked complex-pair arithmetic, with the S^-1 of each member's Jordan
data.  No certificate inverts A: g A g^-1 = t A^-1 is checked as A g A = t g,
which is the same relation once g^2 = +-I is certified.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotReversible, NotStronglyReversible, QprojError
from .matrix import (QMatrix3, _build_gate, _json_matrices, _product_residuals, _qmul,
                     _square_residuals, _stack, check_certificate, inverse)
from .quaternion import DEFAULT_TOL, ClassRep
from .spectral import JordanData, _analysed, _sylvester_op, _unvec36


@dataclass
class ReversibilityReport:
    reversible_sl: bool
    strongly_reversible_sl: bool
    negative_reversible: bool
    reversible_psl: bool
    reverser: QMatrix3 | None = None
    reverser_kind: str = "none"  # "involution" | "skew-involution" | "none"
    psl_involution_pair: tuple | None = None  # (s1, reverser) with s1 reverser = A
    residuals: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return _reversibility_dicts([self])[0]


def _reversibility_dicts(reports) -> list:
    """to_json_dict of each ReversibilityReport in reports, a QprojError passed
    through as it is; all their reversers g and pairs' s1 are encoded by one
    _json_matrices call.  The reverser is the pair's second involution, so
    the pair adds s1 alone."""
    done = [r for r in reports if isinstance(r, ReversibilityReport)]
    s1s = [r.psl_involution_pair[0] if r.psl_involution_pair else None for r in done]
    # each report's g, then its s1
    matrices = iter(_json_matrices(*_stack([m for r, s1 in zip(done, s1s)
                                            for m in (r.reverser, s1) if m is not None])))
    out = iter([{
        "reversible_sl": r.reversible_sl,
        "strongly_reversible_sl": r.strongly_reversible_sl,
        "negative_reversible": r.negative_reversible,
        "reversible_psl": r.reversible_psl,
        "reverser": None if r.reverser is None else next(matrices),
        "reverser_kind": r.reverser_kind,
        "pair_s1": None if s1 is None else next(matrices),
        "residuals": {k: float(v) for k, v in r.residuals.items()},
    } for r, s1 in zip(done, s1s)])
    return [next(out) if isinstance(r, ReversibilityReport) else r for r in reports]


# ---------------------------------------------------------------------------
# one reading of the Jordan shape: Jordan data -> the published closed-form
# witness g0 of each relation, placed in the Jordan slots of J, or None

# slot orders p that put a pair in slots p[0], p[1] and a singleton in p[2]
_PAIR_ORDERS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
_ALL_ORDERS = _PAIR_ORDERS + ((1, 0, 2), (2, 0, 1), (2, 1, 0))
_ZERO = np.zeros((3, 3))
_SWAP = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_FLIP = np.diag([1.0, -1.0, 1.0])
# the closed forms of a pair in slots 0, 1 and a singleton in slot 2; in the
# involution [[0, j, 0], [-j, 0, 0], [0, 0, 1]], -j is the negated j, zeros -0.0
_SKEW_PAIR = QMatrix3(_ZERO, _SWAP)
_NEGATIVE_PAIR = QMatrix3(_SWAP, _ZERO)
_INVOLUTION_PAIR = QMatrix3([[0.0, 0.0, 0.0], [-0j, 0.0, 0.0], [0.0, 0.0, 1.0]],
                            [[0.0, 1.0, 0.0], [complex(-1.0, -0.0), 0.0, 0.0], [0.0, 0.0, 0.0]])


def _placed(p, g0: QMatrix3):
    """g0 with its entry (k, l) moved to the Jordan slots (p[k], p[l]); None when p is."""
    if p is None:
        return None
    out, at = QMatrix3.zeros(), np.ix_(p, p)
    out.a[at], out.b[at] = g0.a, g0.b
    return out


def _matches(data: JordanData, tol: float):
    """(skew, involution, negative): the witness g0 of each relation of J, or None.

    skew: g0 J g0^-1 = J^-1, g0^2 = -I (A ~ A^-1); blocks pair up as {a, a^-1}
    with |a| != 1 or stand alone with |a| = 1.  involution: the same with
    g0^2 = I (strongly reversible); lone classes have angle 0 or pi (a unit
    class is_real), and two equal unit classes may pair up.  negative:
    g0 J g0^-1 = -J^-1, g0^2 = I; blocks pair up as {a, -a^-1} or stand
    alone in [i].  Only a diagonal shape has room for a pair.  A J2 or J3
    shape in [i] has unit moduli, so skew witnesses it too, and its negative
    is True rather than a g0.
    """
    reps = [rep for rep, _ in data.blocks]
    unit = [rep.is_unit(tol) for rep in reps]
    in_i = [rep.isclose(ClassRep(0.0, 1.0), 1e3 * tol) for rep in reps]
    if data.shape_id == "diag":
        if all(unit):
            skew = QMatrix3(_ZERO, np.eye(3))  # diag(j, j, j)
            pair = next((p for p in _PAIR_ORDERS if reps[p[0]].isclose(reps[p[1]], 1e3 * tol)
                         and reps[p[2]].is_real(tol)), None)
        else:  # the slot order (a, a^-1, c) with |a| != 1 and |c| = 1
            pair = next((p for p in _PAIR_ORDERS if unit[p[2]] and not unit[p[0]]
                         and reps[p[1]].isclose(reps[p[0]].inverse_class(), 1e3 * tol)), None)
            skew = _placed(pair, _SKEW_PAIR)
        if pair is not None and not reps[pair[2]].is_real(tol):
            pair = None
        # the first order is the identity, taken when all are in [i]
        negative = next((p for p in _ALL_ORDERS if all(in_i) or (
            in_i[p[2]] and reps[p[1]].isclose(reps[p[0]].negated_inverse_class(), 1e3 * tol))),
            None)
        return skew, _placed(pair, _INVOLUTION_PAIR), _placed(negative, _NEGATIVE_PAIR)
    if not all(unit):
        return None, None, None
    theta = reps[0].angle()
    strong = all(rep.is_real(tol) for rep in reps)
    if data.shape_id == "j2":
        skew = QMatrix3(_ZERO, np.diag([-cmath.exp(-2j * theta), 1.0, 1.0]))
        involution = QMatrix3(_FLIP, _ZERO)
    else:
        skew = QMatrix3(_ZERO, [[cmath.exp(-4j * theta), cmath.exp(-3j * theta), 0.0],
                                [0.0, -cmath.exp(-2j * theta), 0.0], [0.0, 0.0, 1.0]])
        sign = 1.0 if abs(theta) <= math.pi / 2 else -1.0
        involution = QMatrix3([[1.0, sign, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]], _ZERO)
    return skew, involution if strong else None, True if all(in_i) else None


# ---------------------------------------------------------------------------
# the witnesses of a batch, built and checked in one pass of stacked
# complex-pair arithmetic

# what a witness g certifies, (label, t, s): g A g^-1 = t A^-1 and g^2 = s I
_SKEW = ("reverser", 1.0, -1.0)
_INVOLUTION = ("involution", 1.0, 1.0)
_NEGATIVE = ("negative-reverser", -1.0, 1.0)


def _witnesses(As, datas, g0s, relations, tol: float, pair: bool) -> list:
    """Per member, ((g, s1), residuals) with its witness checked, or the QprojError it raises.

    Member k has input As[k], Jordan data datas[k], closed form g0s[k] in
    its Jordan slots and relation (what, t, s): g = S g0 S^-1, certified by
    the residuals of A g A = t g and g^2 = s I.  Once g^2 = s I is certified,
    g is invertible and A g A = t g says g A g^-1 = t A^-1, with no A^-1.
    With pair, s1 = -t A g, so that s1 g = -t s A = A, and the residuals of
    that product and of s1^2 = -I follow; without it s1 is None.  S^-1 is
    the one each member's Jordan data carries, and each relation's
    residuals come from one stacked call.  Each member's gates run in the
    order above, so a member's error does not depend on its batch.
    """
    n = len(As)
    ma, mb = _stack(As)
    ga, gb = _qmul(*_stack([data.S for data in datas]), *_stack(g0s))
    ga, gb = _qmul(ga, gb, *_stack([data.S_inv for data in datas]))
    what, t, s = zip(*relations)
    # the members with t = -1, negated through np.where: a product by t could
    # flip the sign of a zero, and s1 = -(A g) of a t = 1 member stays bitwise
    twisted = (np.array(t) < 0)[:, None, None]
    conjugations = _product_residuals(np.stack([ma, ga, ma], axis=1),
                                      np.stack([mb, gb, mb], axis=1),
                                      np.where(twisted, -ga, ga),
                                      np.where(twisted, -gb, gb)).tolist()
    if pair:
        s1a, s1b = _qmul(ma, mb, ga, gb)
        s1a, s1b = np.where(twisted, s1a, -s1a), np.where(twisted, s1b, -s1b)
        squares = _square_residuals(np.concatenate([ga, s1a]), np.concatenate([gb, s1b]),
                                    [*s, *(-1.0,) * n]).tolist()
        products = _product_residuals(np.stack([s1a, ga], axis=1), np.stack([s1b, gb], axis=1),
                                      ma, mb).tolist()
    else:
        squares = _square_residuals(ga, gb, s).tolist()

    gate = _build_gate(tol)
    out = []
    for k in range(n):
        try:
            residuals = [check_certificate(conjugations[k], f"{what[k]} conjugation", gate),
                         check_certificate(squares[k], f"{what[k]} square", gate)]
            if pair:
                residuals += [check_certificate(products[k], "pair product", gate),
                              check_certificate(squares[n + k], "pair square 1", gate)]
        except QprojError as exc:
            out.append(exc)
            continue
        s1 = QMatrix3(s1a[k], s1b[k]) if pair else None
        out.append(((QMatrix3(ga[k], gb[k]), s1), residuals))
    return out


def _witnessed(A: QMatrix3, tol: float, which: int, relation, missing: QprojError) -> QMatrix3:
    """The witness g of A from _matches' entry which, checked as by
    _witnesses; raises missing when that entry is None."""
    data = _analysed(A, tol)
    g0 = _matches(data, tol)[which]
    if g0 is None:
        raise missing
    (result,) = _witnesses([A], [data], [g0], [relation], tol, pair=False)
    if isinstance(result, QprojError):
        raise result
    return result[0][0]


# ---------------------------------------------------------------------------
# public operations

_NOT_REVERSIBLE = "Jordan blocks do not pair into a reversible shape"


def is_reversible_sl(A: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is conjugate to A^-1 in SL(3,H)."""
    return _matches(_analysed(A, tol), tol)[0] is not None


def reverser(A: QMatrix3, tol: float = DEFAULT_TOL) -> QMatrix3:
    """A skew-involution g with g A g^-1 = A^-1, certificate-checked."""
    return _witnessed(A, tol, 0, _SKEW, NotReversible(_NOT_REVERSIBLE))


def is_strongly_reversible_sl(A: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff some involution reverses A (boundary-angle shapes)."""
    return _matches(_analysed(A, tol), tol)[1] is not None


def involution_reverser(A: QMatrix3, tol: float = DEFAULT_TOL) -> QMatrix3:
    """An involution g with g A g^-1 = A^-1, certificate-checked."""
    return _witnessed(A, tol, 1, _INVOLUTION, NotStronglyReversible(
        "no involution reverses this conjugacy class (interior angle present)"))


def _reverser_null_rows(A: QMatrix3, tol: float) -> np.ndarray:
    """An orthonormal basis of the real solution space of g A = A^-1 g, as rows
    of _vec36 coordinates.

    The equation is real-linear in the 36 real coordinates of g.  For the
    non-strongly-reversible shapes no solution is an involution;
    random_reverser_solution samples this space.
    """
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
    two-skew-involution factorization (-A g, g), or (A g, g) from the twisted
    relation), and both project to involutions in PSL(3,H).
    """
    (report,) = _psls_from_data([A], [_analysed(A, tol)], tol)
    if isinstance(report, QprojError):
        raise report
    return report


def _psls_from_data(As, datas, tol: float) -> list:
    """The ReversibilityReport of each A in As given its Jordan data, or the QprojError it raises.

    One reading of each member's shape (_matches) decides its flags.  A
    member with a skew-involution reverser is witnessed by it, one with only
    the twisted relation by its involution; the witnesses of the whole batch
    and their pairs are built and checked by one _witnesses call.
    """
    out, members = [], []
    for k, data in enumerate(datas):
        skew, involution, negative = _matches(data, tol)
        out.append(ReversibilityReport(
            reversible_sl=skew is not None,
            strongly_reversible_sl=involution is not None,
            negative_reversible=negative is not None,
            reversible_psl=skew is not None or negative is not None,
        ))
        if skew is not None:
            members.append((k, skew, _SKEW))
        elif negative is not None:
            members.append((k, negative, _NEGATIVE))
    if not members:
        return out
    ks, g0s, relations = zip(*members)
    witnesses = _witnesses([As[k] for k in ks], [datas[k] for k in ks], g0s, relations,
                           tol, pair=True)
    for k, relation, witness in zip(ks, relations, witnesses):
        if isinstance(witness, QprojError):
            out[k] = witness
            continue
        (g, s1), (conj, square, product, square_1) = witness
        report = out[k]
        report.reverser_kind = "skew-involution" if relation is _SKEW else "involution"
        report.reverser = g
        report.psl_involution_pair = (s1, g)
        report.residuals = {
            "reverser_conjugation": conj,
            "reverser_square": square,
            "pair_product": product,
            "pair_square_1": square_1,
        }
    return out
