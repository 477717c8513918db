"""Simple elements: testing, real conjugates, and <= 4-factor decompositions.

An element of SL(3,H) is *simple* when it is conjugate to a real matrix;
that happens exactly when the Jordan blocks of every non-real eigenvalue
class pair up by size, which in the 3x3 case means all classes are real or
the matrix is diagonalizable with a single non-real class of multiplicity
two.

Any unimodular element factors into at most four simple elements.  The
factorization routes on the Jordan shape:

  unit diagonal        -> 3 factors (half-angle pair splits)
  unit J2 (+) point    -> 3 factors (W Q R W^-1 with R half-angle split)
  unit J3              -> 4 factors
  general diagonal     -> real-moduli factor x unit-diagonal route = 4
  general J2 (+) point -> real-part triangular factor x unit route  = 4

Every factor ships with a certificate (T, B): a conjugator T and the real
matrix B = T^-1 (factor) T it exhibits, both read off the factor's
construction rather than extracted from the factor again.

The after-stage that follows jordan_form runs per batch
(_decompositions_from_data): the CLI passes a whole batch, decompose_simple
and realify a batch of one.  The canonical factors (C, T, B) are built per
member; the factors S C S^-1, their conjugators S T, every certificate
residual and every product residual come from stacked complex-pair
arithmetic, with one stacked inverse for the S of the batch and one for its
conjugators.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, NotSimple, QprojError
from .matrix import (QMatrix3, _adjoint, _build_gate, _conjugation_residuals, _invert_adjoints,
                     _product_residuals, _qmul, _stack, check_certificate, conjugation_residual,
                     require_unimodular)
from .quaternion import DEFAULT_TOL
from .spectral import JordanData, jordan_form


@dataclass
class SimpleCertificate:
    """Witness that a matrix is simple: A = T B T^-1 with B real."""

    T: QMatrix3
    B: np.ndarray
    residual: float = 0.0

    def verify(self, A: QMatrix3) -> float:
        return conjugation_residual(self.T, QMatrix3.from_real(self.B), A)

    def to_json_dict(self) -> dict:
        return {
            "T": self.T.to_json_dict(),
            "B": np.asarray(self.B, dtype=float).tolist(),
            "residual": float(self.residual),
        }


@dataclass
class Decomposition:
    """Ordered simple factors with certificates; product reconstructs A."""

    factors: list
    certificates: list
    residual: float = 0.0

    def __len__(self):
        return len(self.factors)

    def product(self) -> QMatrix3:
        out = QMatrix3.identity()
        for f in self.factors:
            out = out @ f
        return out

    def to_json_dict(self) -> dict:
        return {
            "factors": [f.to_json_dict() for f in self.factors],
            "certificates": [c.to_json_dict() for c in self.certificates],
            "residual": float(self.residual),
        }


def is_simple(A: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is conjugate to a real matrix (non-real blocks pair up by size)."""
    require_unimodular(A, tol)
    return _is_simple_data(jordan_form(A, tol), tol)


def _is_simple_data(data: JordanData, tol: float) -> bool:
    # a non-real class is simple only when its blocks pair up by size: one
    # J2(λ) next to one λ is two blocks, but no real matrix has that shape
    for rep, sizes in data.class_sizes():
        if rep.is_real(tol):
            continue
        if any(sizes.count(size) % 2 for size in sizes):
            return False
    return True


def realify(A: QMatrix3, tol: float = DEFAULT_TOL) -> SimpleCertificate:
    """Conjugator T and real B with A = T B T^-1.

    Real inputs return (I3, A) directly.  A real-spectrum A returns its real
    Jordan form; the remaining simple shape diag(λ, λ, μ) with λ non-real is
    realified by the 2x2 conjugators mapping diag(r e^{it}, r e^{it}) to the
    rotation block [[r cos t, r sin t], [-r sin t, r cos t]].
    """
    return _realify_from_data(A, None if A.is_real(tol) else jordan_form(A, tol), tol)


def _realify_from_data(A: QMatrix3, data: JordanData | None, tol: float) -> SimpleCertificate:
    """realify(A) given the Jordan data of A (None for a real A).

    The certificate of the one-factor decomposition [A].
    """
    if data is not None and not _is_simple_data(data, tol):
        raise NotSimple("a non-real class has Jordan blocks that do not pair up by size")
    return _decomposition_from_data(A, data, tol).certificates[0]


def _realify_data(A: QMatrix3, data: JordanData, tol: float):
    """(T, B) with A = T B T^-1 for a non-real A with simple Jordan data."""
    reps = [rep for rep, _ in data.blocks]
    if all(rep.is_real(tol) for rep in reps):
        return data.S, data.jordan_matrix().real_part()

    # diag(λ, λ, μ) with λ non-real: the pair occupies adjacent columns
    pair_pos = None
    for k in range(2):
        if not reps[k].is_real(tol) and reps[k].isclose(reps[k + 1], 1e3 * tol):
            pair_pos = k
            break
    if pair_pos is None:
        raise NotSimple("non-real classes do not pair up")
    other = 2 if pair_pos == 0 else 0
    lam = reps[pair_pos]
    mu = reps[other]
    r = lam.modulus()
    theta = lam.angle()
    s0, s1 = (pair_pos, pair_pos + 1)

    B = np.zeros((3, 3))
    B[s0, s0] = r * math.cos(theta)
    B[s0, s1] = r * math.sin(theta)
    B[s1, s0] = -r * math.sin(theta)
    B[s1, s1] = r * math.cos(theta)
    B[other, other] = mu.re

    return data.S @ _pair_conjugator(pair_pos, True), B


def _real_conjugate(A: QMatrix3, data: JordanData | None, tol: float):
    """(T, B) with A = T B T^-1 for a simple A: (I, Re A) for an A real within
    tol, else _realify_data."""
    if A.is_real(tol):
        return QMatrix3.identity(), A.real_part()
    return _realify_data(A, data, tol)


def _pair_conjugator(s0: int, same: bool) -> QMatrix3:
    """T with T R T^-1 = diag(λ, λ) (same) or diag(λ, conj λ) in slots s0, s0 + 1.

    R is the rotation block [[Re λ, Im λ], [-Im λ, Re λ]] in those slots; the
    remaining slot is left fixed.  With U1 = [[1,0],[0,j]] and
    U2 = [[1,1],[i,-i]], U2 diag(λ, conj λ) U2^-1 = R for every complex λ and
    U1 diag(λ, λ) U1^-1 = diag(λ, conj λ), so T is U2^-1 = [[1, -i], [1, i]] / 2
    or (U2 U1)^-1 = [[1, -i], [-j, k]] / 2.
    """
    s1 = s0 + 1
    a = np.eye(3, dtype=complex)
    b = np.zeros((3, 3), dtype=complex)
    a[s0, s0], a[s0, s1] = 0.5, complex(0.0, -0.5)
    if same:
        a[s1, s1] = 0.0
        b[s1, s0], b[s1, s1] = -0.5, 0.5j
    else:
        a[s1, s0], a[s1, s1] = 0.5, 0.5j
    return QMatrix3(a, b)


def _pair_factor(C: QMatrix3, s0: int):
    """(C, T, B) with C = T B T^-1 for a complex diagonal pair factor C.

    Slots s0 and s0 + 1 of C hold λ and either λ or conj λ; the remaining
    slot is real.
    """
    s1 = s0 + 1
    other = 2 if s0 == 0 else 0
    lam, mu = C.a[s0, s0], C.a[s1, s1]
    same = abs(mu - lam) <= abs(mu - lam.conjugate())
    B = np.zeros((3, 3))
    B[s0, s0] = B[s1, s1] = lam.real
    B[s0, s1] = lam.imag
    B[s1, s0] = -lam.imag
    B[other, other] = C.a[other, other].real
    return C, _pair_conjugator(s0, same), B


def pair_rotation_split(theta: float, phi: float):
    """Split diag(e^{i theta}, e^{i phi}, 1) into two simple diagonal factors.

    Returns (diag(e^{i mu}, e^{i mu}, 1), diag(e^{i nu}, e^{-i nu}, 1)) with
    mu = (theta + phi)/2 and nu = (theta - phi)/2; the product multiplies back
    exactly and each factor has one eigenvalue class of multiplicity two.
    """
    mu = 0.5 * (theta + phi)
    nu = 0.5 * (theta - phi)
    first = QMatrix3.diag(cmath.exp(1j * mu), cmath.exp(1j * mu), 1.0)
    second = QMatrix3.diag(cmath.exp(1j * nu), cmath.exp(-1j * nu), 1.0)
    return first, second


def _unit_diag_factors(angles):
    """Three simple factors multiplying to diag(e^{i a1}, e^{i a2}, e^{i a3})."""
    t, p, s = angles
    p_shift = p + s
    first, second = pair_rotation_split(t, p_shift)
    third = QMatrix3.diag(1.0, cmath.exp(-1j * s), cmath.exp(1j * s))
    return [_pair_factor(first, 0), _pair_factor(second, 0), _pair_factor(third, 1)]


def _slot23(d2, d3):
    return QMatrix3.diag(1.0, d2, d3)


def _unit_j2_factors(theta, psi):
    """Three simple factors multiplying to J2(e^{i theta}) (+) e^{i psi}."""
    et = cmath.exp(1j * theta)
    W = QMatrix3.diag(1.0 / et, et, 1.0)
    Q = QMatrix3.from_complex([[et, 1.0, 0.0], [0.0, 1.0 / et, 0.0], [0.0, 0.0, 1.0]])
    # Q T_q = T_q B_q with T_q = [e2, Q e2]: B_q is the real companion matrix
    # of Q's top block (trace 2 cos theta, determinant 1), and cond(T_q) is
    # about 2.6 for every theta
    T_q = QMatrix3.from_complex([[0.0, 1.0, 0.0], [1.0, 1.0 / et, 0.0], [0.0, 0.0, 1.0]])
    B_q = np.array([[0.0, -1.0, 0.0], [1.0, 2.0 * math.cos(theta), 0.0], [0.0, 0.0, 1.0]])
    mu = 0.5 * (2.0 * theta + psi)
    nu = 0.5 * (2.0 * theta - psi)
    R1 = _slot23(cmath.exp(1j * mu), cmath.exp(1j * mu))
    R2 = _slot23(cmath.exp(1j * nu), cmath.exp(-1j * nu))
    W_inv = QMatrix3.diag(et, 1.0 / et, 1.0)
    return [
        (W @ Q @ W_inv, W @ T_q, B_q),
        _pair_factor(W @ R1 @ W_inv, 1),
        _pair_factor(W @ R2 @ W_inv, 1),
    ]


def _phase_factor(C: QMatrix3, theta: float, B):
    """(C, T, B) for C = D B D^-1 with D = diag(1, e^{i theta}, e^{2i theta}).

    Conjugating by D multiplies the superdiagonal of B by e^{-i theta} and
    leaves the diagonal alone, which is how the triangular factors are built.
    """
    e = cmath.exp(1j * theta)
    return C, QMatrix3.diag(1.0, e, e * e), np.asarray(B, dtype=float)


def _unit_j3_factors(theta):
    """Four simple factors multiplying to J3(e^{i theta})."""
    et = cmath.exp(1j * theta)
    eh = cmath.exp(0.5j * theta)
    f1 = QMatrix3.diag(et, et, 1.0)
    f2 = _slot23(eh, eh)
    f3 = _slot23(1.0 / eh, eh)
    f4 = QMatrix3.from_complex(
        [[1.0, 1.0 / et, 0.0], [0.0, 1.0, 1.0 / et], [0.0, 0.0, 1.0]]
    )
    return [
        _pair_factor(f1, 0),
        _pair_factor(f2, 1),
        _pair_factor(f3, 1),
        _phase_factor(f4, theta, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
    ]


def _canonical_factors(data: JordanData, tol: float):
    """Simple factors of the canonical Jordan matrix of ``data``.

    Each is a triple (C, T, B) with C = T B T^-1 and B real, read off the
    construction of C.
    """
    blocks = data.blocks
    reps = [rep for rep, _ in blocks]
    moduli = [rep.modulus() for rep in reps]
    unit = all(rep.is_unit(tol) for rep in reps)
    shape = data.shape_id

    if shape == "diag":
        angles = [rep.angle() for rep, _ in blocks]
        if unit:
            return _unit_diag_factors(angles)
        P = QMatrix3.diag(*moduli)
        return [(P, QMatrix3.identity(), P.real_part())] + _unit_diag_factors(angles)

    if shape == "j2":
        theta = reps[0].angle()
        psi = reps[1].angle()
        if unit:
            return _unit_j2_factors(theta, psi)
        r, s = moduli
        P = QMatrix3.from_complex(
            [[r, cmath.exp(-1j * theta), 0.0], [0.0, r, 0.0], [0.0, 0.0, s]]
        )
        P_factor = _phase_factor(P, theta, [[r, 1, 0], [0, r, 0], [0, 0, s]])
        # Q = diag(e^{i theta}, e^{i theta}, e^{i psi}) via the unit route
        return [P_factor] + _unit_diag_factors([theta, theta, psi])

    # j3; |λ| = 1 is forced by unimodularity, the general branch is defensive
    theta = reps[0].angle()
    if unit:
        return _unit_j3_factors(theta)
    r = moduli[0]
    e_inv = cmath.exp(-1j * theta)
    P = QMatrix3.from_complex([[r, e_inv, 0.0], [0.0, r, e_inv], [0.0, 0.0, r]])
    P_factor = _phase_factor(P, theta, [[r, 1, 0], [0, r, 1], [0, 0, r]])
    return [P_factor] + _unit_diag_factors([theta, theta, theta])


def decompose_simple(A: QMatrix3, tol: float = DEFAULT_TOL) -> Decomposition:
    """Write A as a product of at most four simple factors with certificates.

    Simple inputs return the length-1 decomposition [A].  Factors are emitted
    in left-to-right product order and conjugated into A's frame, so their
    product reconstructs A itself.  Factors that degenerate to the identity
    (boundary angles) are dropped.  A factor S C S^-1 carries the certificate
    (S T, B) of its canonical factor C = T B T^-1.
    """
    require_unimodular(A, tol)
    return _decomposition_from_data(A, jordan_form(A, tol), tol)


def _decomposition_from_data(A: QMatrix3, data: JordanData | None, tol: float) -> Decomposition:
    """decompose_simple(A) given its Jordan data: a batch of one."""
    (result,) = _decompositions_from_data([A], [data], tol)
    if isinstance(result, QprojError):
        raise result
    return result


def _decompositions_from_data(As, datas, tol: float) -> list:
    """The Decomposition of each A in As given its Jordan data, or the QprojError it raises.

    A simple member is its own one factor, certified by the real conjugate
    of realify, (I, Re A) for a real one; that certificate is measured and
    gated like the others, so an input real only within a loose tol can
    miss the build gate.  The factors of every other
    member are S C S^-1 for its canonical factors C = T B T^-1, certified
    by (S T, B).  All factors of the batch form one stack: S^-1 comes from
    one stacked inverse, and every conjugation residual from one stacked
    call, in which a conjugator that fails the singular rule gives inf.
    Each member's gates run in the order of a batch of one, certificates in
    factor order and then the product, so a member's error does not depend
    on its batch.
    """
    out = [None] * len(As)
    split = []   # (member, its canonical factors (C, T, B) other than I)
    direct = []  # (member, T, B): the real conjugate of a simple member
    for k, (A, data) in enumerate(zip(As, datas)):
        if data is not None and not _is_simple_data(data, tol):
            split.append((k, [f for f in _canonical_factors(data, tol)
                              if not (f[0] - QMatrix3.identity()).norm() <= 1e-9]))
        else:
            try:
                direct.append((k, *_real_conjugate(A, data, tol)))
            except NotSimple as exc:
                out[k] = exc

    counts = [len(fs) for _, fs in split]
    owner = np.repeat(np.arange(len(split)), counts)  # the split member of each canonical row
    canon = [f for _, fs in split for f in fs]
    fa, fb, ta, tb, s_ok = _conjugated([datas[k].S for k, _ in split], owner, canon)
    products = (_product_residuals(*_led_by_identities(fa, fb, counts, owner),
                                   *_stack([As[k] for k, _ in split])).tolist()
                if split else [])

    # one residual call for the rows of both kinds, the direct members last
    residuals = []
    if canon or direct:
        B = np.array([b for *_, b in canon] + [b for *_, b in direct], dtype=complex)
        residuals = _conjugation_residuals(*_followed_by(ta, tb, [t for _, t, _ in direct]),
                                           B, np.zeros_like(B),
                                           *_followed_by(fa, fb, [As[k] for k, _, _ in direct]))
        if not s_ok.all():
            residuals[:len(canon)][~s_ok] = np.inf
        residuals = residuals.tolist()

    gate = _build_gate(tol)
    first = [0, *itertools.accumulate(counts)]
    for n, (k, fs) in enumerate(split):
        rows = range(first[n], first[n + 1])
        out[k] = _gated([QMatrix3(fa[i], fb[i]) for i in rows],
                        [SimpleCertificate(QMatrix3(ta[i], tb[i]), b, residuals[i])
                         for i, (_, _, b) in zip(rows, fs)], products[n], gate)
    for i, (k, T, b) in enumerate(direct, start=len(canon)):
        out[k] = _gated([As[k]], [SimpleCertificate(T, b, residuals[i])], 0.0, gate)
    return out


def _conjugated(Ss, owner, canon):
    """Stacks (F, F', T, T') of the factors S C S^-1 = F + F' j and their
    conjugators S T = T + T' j, one row per canonical factor (C, T, B) and
    S = Ss[owner[row]], and the mask of the rows whose S passes the singular
    rule."""
    if not canon:
        empty = np.zeros((0, 3, 3), dtype=complex)
        return empty, empty, empty, empty, np.ones(0, dtype=bool)
    sa, sb = _stack(Ss)
    s_inv, s_ok = _invert_adjoints(_adjoint(sa, sb))
    sa, sb, s_inv = sa[owner], sb[owner], s_inv[owner]
    fa, fb = _qmul(*_qmul(sa, sb, *_stack([c for c, _, _ in canon])),
                   s_inv[:, :3, :3], s_inv[:, :3, 3:])
    return (fa, fb, *_qmul(sa, sb, *_stack([t for _, t, _ in canon])), s_ok[owner])


def _followed_by(a, b, ms):
    """The stack of complex pairs (a, b), followed by the blocks of the QMatrix3 in ms."""
    if not ms:
        return a, b
    ma, mb = _stack(ms)
    return (np.concatenate([a, ma]), np.concatenate([b, mb])) if len(a) else (ma, mb)


def _led_by_identities(fa, fb, counts, owner):
    """(N, K, 3, 3) stacks of each member's counts[n] rows of (fa, fb), the
    rows of member owner[row] in order, led by identities up to K = max(counts)."""
    counts = np.asarray(counts)
    width = counts.max()
    if counts.min() == width:  # no member needs a leading identity, as in every batch of one
        return fa.reshape(len(counts), width, 3, 3), fb.reshape(len(counts), width, 3, 3)
    slot = np.arange(len(fa)) - (np.cumsum(counts) - width)[owner]
    pa = np.zeros((len(counts), width, 3, 3), dtype=complex)
    pa[:] = np.eye(3)
    pb = np.zeros_like(pa)
    pa[owner, slot], pb[owner, slot] = fa, fb
    return pa, pb


def _gated(factors, certificates, product: float, gate: float):
    """The Decomposition, or the CertificateError of its first residual not below
    gate: certificates in factor order, then the product."""
    try:
        for cert in certificates:
            check_certificate(cert.residual, "real-conjugate certificate", gate)
        check_certificate(product, "factor product", gate)
    except CertificateError as exc:
        return exc
    return Decomposition(factors, certificates, product)
