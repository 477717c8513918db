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
involution_reverser pass one member to _witnesses.  The matchers run per
member; every g, its pair and their residuals come from stacked complex-pair
arithmetic, with one stacked inverse for the S of the batch.  No certificate
inverts A: g A g^-1 = t A^-1 is checked as A g A = t g, which is the same
relation once g^2 = +-I is certified.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotReversible, NotStronglyReversible, QprojError
from .matrix import (QMatrix3, _adjoint, _build_gate, _invert_adjoints, _json_matrices,
                     _product_residuals, _qmul, _square_residuals, _stack, check_certificate,
                     inverse, require_unimodular)
from .quaternion import DEFAULT_TOL, ClassRep
from .spectral import JordanData, _sylvester_op, _unvec36, jordan_form


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
# one matcher per relation: Jordan data -> (perm, g0) or None, where g0 is the
# published closed-form witness for the canonical Jordan matrix J and perm[k]
# is the Jordan slot that provides canonical slot k

_ID = (0, 1, 2)
# slot orders that put a pair in canonical slots 0, 1 and a singleton in slot 2
_PAIR_ORDERS = (_ID, (0, 2, 1), (1, 2, 0))
_ALL_ORDERS = _PAIR_ORDERS + ((1, 0, 2), (2, 0, 1), (2, 1, 0))
_ZERO = np.zeros((3, 3))
_SWAP = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_FLIP = np.diag([1.0, -1.0, 1.0])


def _boundary_angle(rep: ClassRep, tol: float) -> bool:
    """True when the class angle lies in {0, pi} within tolerance."""
    theta = rep.angle()
    return min(abs(theta), abs(math.pi - theta)) <= 1e3 * tol


def _inverse_pair(reps, tol: float):
    """The slot order (a, a^-1, c) of a diagonal shape with |a| != 1 and |c| = 1."""
    for p in _PAIR_ORDERS:
        a, b, c = (reps[k] for k in p)
        if c.is_unit(tol) and not a.is_unit(tol) and b.isclose(a.inverse_class(), 1e3 * tol):
            return p
    return None


def _match_skew_involution(data: JordanData, tol: float):
    """(perm, g0) with g0 J g0^-1 = J^-1 and g0^2 = -I, or None: A ~ A^-1.

    Blocks either pair up as {a, a^-1} with |a| != 1 or stand alone with
    |a| = 1; only a diagonal shape has room for a pair.
    """
    reps = [rep for rep, _ in data.blocks]
    unit = all(rep.is_unit(tol) for rep in reps)
    if data.shape_id == "diag":
        if unit:
            return _ID, QMatrix3(_ZERO, np.eye(3))  # diag(j, j, j)
        p = _inverse_pair(reps, tol)
        return None if p is None else (p, QMatrix3(_ZERO, _SWAP))
    if not unit:
        return None
    theta = reps[0].angle()
    if data.shape_id == "j2":
        return _ID, QMatrix3(_ZERO, np.diag([-cmath.exp(-2j * theta), 1.0, 1.0]))
    return _ID, QMatrix3(_ZERO, [[cmath.exp(-4j * theta), cmath.exp(-3j * theta), 0.0],
                                 [0.0, -cmath.exp(-2j * theta), 0.0], [0.0, 0.0, 1.0]])


def _match_involution(data: JordanData, tol: float):
    """(perm, g0) with g0 J g0^-1 = J^-1 and g0^2 = I, or None: A strongly reversible.

    A subset of the skew-involution shapes: the classes that stand alone
    have angle 0 or pi, and two equal unit classes may pair up.
    """
    reps = [rep for rep, _ in data.blocks]
    if data.shape_id == "diag":
        if all(rep.is_unit(tol) for rep in reps):  # two equal classes pair up
            p = next((p for p in _PAIR_ORDERS if reps[p[0]].isclose(reps[p[1]], 1e3 * tol)
                      and _boundary_angle(reps[p[2]], tol)), None)
        else:
            p = _inverse_pair(reps, tol)
        if p is None or not _boundary_angle(reps[p[2]], tol):
            return None
        # [[0, j, 0], [-j, 0, 0], [0, 0, 1]]; -j is the negated quaternion j, zeros -0.0
        return p, QMatrix3([[0.0, 0.0, 0.0], [-0j, 0.0, 0.0], [0.0, 0.0, 1.0]],
                           [[0.0, 1.0, 0.0], [complex(-1.0, -0.0), 0.0, 0.0], [0.0, 0.0, 0.0]])
    if not all(rep.is_unit(tol) and _boundary_angle(rep, tol) for rep in reps):
        return None
    if data.shape_id == "j2":
        return _ID, QMatrix3(_FLIP, _ZERO)
    sign = 1.0 if abs(reps[0].angle()) <= math.pi / 2 else -1.0
    return _ID, QMatrix3([[1.0, sign, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]], _ZERO)


def _match_negative_involution(data: JordanData, tol: float):
    """(perm, g0) with g0 J g0^-1 = -J^-1 and g0^2 = I, or None: A ~ -A^-1.

    Blocks pair up as {a, -a^-1} or stand alone in the class of i.
    """
    reps = [rep for rep, _ in data.blocks]
    in_i = [rep.isclose(ClassRep(0.0, 1.0), 1e3 * tol) for rep in reps]
    if data.shape_id == "diag":
        for p in _ALL_ORDERS:  # the first order is the identity, taken when all are in [i]
            a, b, _ = (reps[k] for k in p)
            if all(in_i) or (in_i[p[2]] and b.isclose(a.negated_inverse_class(), 1e3 * tol)):
                return p, QMatrix3(_SWAP, _ZERO)
        return None
    if not all(in_i):
        return None
    if data.shape_id == "j2":
        return _ID, QMatrix3(_FLIP, _ZERO)
    # complex(0.0, -1.0), not -1j, whose real part -0.0 would flip zero signs in g
    return _ID, QMatrix3([[1.0, complex(0.0, -1.0), 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                         _ZERO)


# ---------------------------------------------------------------------------
# the witnesses of a batch, built and checked in one pass of stacked
# complex-pair arithmetic

# what a witness g certifies, (label, t, s): g A g^-1 = t A^-1 and g^2 = s I
_SKEW = ("reverser", 1.0, -1.0)
_INVOLUTION = ("involution", 1.0, 1.0)
_NEGATIVE = ("negative-reverser", -1.0, 1.0)

# the permutation matrix P of each slot order and its transpose as complex
# blocks; g = S P g0 P^T S^-1 multiplies by them as real matrices
_ORDER = {p: k for k, p in enumerate(_ALL_ORDERS)}
_P = np.array([np.eye(3)[:, list(p)] for p in _ALL_ORDERS], dtype=complex)
_PT = _P.transpose(0, 2, 1).copy()
_NO_J = np.zeros((3, 3), dtype=complex)


def _witnesses(As, datas, matches, relations, tol: float, pair: bool) -> list:
    """Per member, ((g, s1), residuals) with its witness checked, or the QprojError it raises.

    Member k has input As[k], Jordan data datas[k], match (perm, g0) and
    relation (what, t, s): g = S P g0 P^T S^-1 with P of perm, certified by
    the residuals of A g A = t g and g^2 = s I.  Once g^2 = s I is certified,
    g is invertible and A g A = t g says g A g^-1 = t A^-1, with no A^-1.
    With pair, s1 = -t A g, so that s1 g = -t s A = A, and the residuals of
    that product and of s1^2 = -I follow; without it s1 is None.  S^-1 of
    the whole batch comes from one stacked inverse, and each relation's
    residuals from one stacked call.  Each member's gates run in the order
    of a batch of one: Singular from S^-1, then its residuals in the order
    above, so a member's error does not depend on its batch.
    """
    n = len(As)
    ma, mb = _stack(As)
    sa, sb = _stack([data.S for data in datas])
    s_inv, ok = _invert_adjoints(_adjoint(sa, sb))
    # g = S P g0 P^T S^-1, multiplied left to right
    order = [_ORDER[perm] for perm, _ in matches]
    ga, gb = _qmul(sa, sb, _P[order], _NO_J)
    ga, gb = _qmul(ga, gb, *_stack([g0 for _, g0 in matches]))
    ga, gb = _qmul(ga, gb, _PT[order], _NO_J)
    ga, gb = _qmul(ga, gb, s_inv[:, :3, :3], s_inv[:, :3, 3:])
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
    for k, data in enumerate(datas):
        try:
            if not ok[k]:
                inverse(data.S)  # raises the Singular the stacked inverse found
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


def _witnessed(A: QMatrix3, tol: float, matcher, relation, missing: QprojError) -> QMatrix3:
    """The witness g of A that matcher finds, checked as by _witnesses; raises
    missing when it finds none."""
    require_unimodular(A, tol)
    data = jordan_form(A, tol)
    match = matcher(data, tol)
    if match is None:
        raise missing
    (result,) = _witnesses([A], [data], [match], [relation], tol, pair=False)
    if isinstance(result, QprojError):
        raise result
    return result[0][0]


# ---------------------------------------------------------------------------
# public operations

_NOT_REVERSIBLE = "Jordan blocks do not pair into a reversible shape"


def is_reversible_sl(A: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is conjugate to A^-1 in SL(3,H)."""
    require_unimodular(A, tol)
    return _match_skew_involution(jordan_form(A, tol), tol) is not None


def reverser(A: QMatrix3, tol: float = DEFAULT_TOL) -> QMatrix3:
    """A skew-involution g with g A g^-1 = A^-1, certificate-checked."""
    return _witnessed(A, tol, _match_skew_involution, _SKEW, NotReversible(_NOT_REVERSIBLE))


def is_strongly_reversible_sl(A: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff some involution reverses A (boundary-angle shapes)."""
    require_unimodular(A, tol)
    return _match_involution(jordan_form(A, tol), tol) is not None


def involution_reverser(A: QMatrix3, tol: float = DEFAULT_TOL) -> QMatrix3:
    """An involution g with g A g^-1 = A^-1, certificate-checked."""
    return _witnessed(A, tol, _match_involution, _INVOLUTION, NotStronglyReversible(
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
    require_unimodular(A, tol)
    (report,) = _psls_from_data([A], [jordan_form(A, tol)], tol)
    if isinstance(report, QprojError):
        raise report
    return report


def _psls_from_data(As, datas, tol: float) -> list:
    """The ReversibilityReport of each A in As given its Jordan data, or the QprojError it raises.

    The matchers decide the flags of each member.  A member with a
    skew-involution reverser is witnessed by it, one with only the twisted
    relation by its involution; the witnesses of the whole batch and their
    pairs are built and checked by one _witnesses call.
    """
    out, members = [], []
    for k, (A, data) in enumerate(zip(As, datas)):
        skew = _match_skew_involution(data, tol)
        neg = _match_negative_involution(data, tol)
        out.append(ReversibilityReport(
            reversible_sl=skew is not None,
            strongly_reversible_sl=_match_involution(data, tol) is not None,
            negative_reversible=neg is not None,
            reversible_psl=skew is not None or neg is not None,
        ))
        if skew is not None:
            members.append((k, skew, _SKEW))
        elif neg is not None:
            members.append((k, neg, _NEGATIVE))
    if not members:
        return out
    ks, matches, relations = zip(*members)
    witnesses = _witnesses([As[k] for k in ks], [datas[k] for k in ks], matches, relations,
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
