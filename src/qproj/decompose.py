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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSimple
from .matrix import (QMatrix3, check_certificate, conjugation_residual, inverse, product_residual,
                     require_unimodular)
from .quaternion import DEFAULT_TOL, Quaternion
from .spectral import JordanData, jordan_form

_J = Quaternion(0.0, 0.0, 1.0, 0.0)


@dataclass
class SimpleCertificate:
    """Witness that a matrix is simple: A = T B T^-1 with B real."""

    T: QMatrix3
    B: np.ndarray
    residual: float = 0.0

    def verify(self, A: QMatrix3, tol: float = DEFAULT_TOL) -> float:
        return conjugation_residual(self.T, QMatrix3.from_real(self.B), A)

    def to_json_dict(self) -> dict:
        return {
            "T": self.T.to_json_dict(),
            "B": [[float(v) for v in row] for row in np.asarray(self.B)],
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
    """realify(A) given the Jordan data of A; a real A needs none."""
    if A.is_real(tol):
        return SimpleCertificate(QMatrix3.identity(), A.real_part(), 0.0)
    return _checked(A, _realify_data(A, data, tol))


def _checked(A: QMatrix3, cert: SimpleCertificate) -> SimpleCertificate:
    cert.residual = check_certificate(cert.verify(A), "real-conjugate certificate")
    return cert


def _realify_data(A: QMatrix3, data: JordanData, tol: float) -> SimpleCertificate:
    if not _is_simple_data(data, tol):
        raise NotSimple("a non-real class has Jordan blocks that do not pair up by size")

    reps = [rep for rep, _ in data.blocks]
    if all(rep.is_real(tol) for rep in reps):
        B = data.jordan_matrix().real_part()
        return SimpleCertificate(data.S, B)

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

    return SimpleCertificate(data.S @ _pair_conjugator(pair_pos, True), B)


def _pair_conjugator(s0: int, same: bool) -> QMatrix3:
    """T with T R T^-1 = diag(λ, λ) (same) or diag(λ, conj λ) in slots s0, s0 + 1.

    R is the rotation block [[Re λ, Im λ], [-Im λ, Re λ]] in those slots; the
    remaining slot is left fixed.  With U1 = [[1,0],[0,j]] and
    U2 = [[1,1],[i,-i]], U2 diag(λ, conj λ) U2^-1 = R for every complex λ and
    U1 diag(λ, λ) U1^-1 = diag(λ, conj λ), so T is U2^-1 or (U2 U1)^-1.
    """
    s1 = s0 + 1
    u2 = QMatrix3.identity()
    u2[s0, s0] = 1.0
    u2[s0, s1] = 1.0
    u2[s1, s0] = 1j
    u2[s1, s1] = -1j
    if not same:
        return inverse(u2)
    u1 = QMatrix3.identity()
    u1[s1, s1] = _J
    return inverse(u2 @ u1)


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
    data = jordan_form(A, tol)

    if _is_simple_data(data, tol):
        return Decomposition([A], [_realify_from_data(A, data, tol)], 0.0)

    S = data.S
    S_inv = inverse(S)
    factors = []
    certificates = []
    for canon, T, B in _canonical_factors(data, tol):
        if (canon - QMatrix3.identity()).norm() <= 1e-9:
            continue
        factor = S @ canon @ S_inv
        factors.append(factor)
        certificates.append(_checked(factor, SimpleCertificate(S @ T, B)))

    residual = check_certificate(product_residual(factors, A), "factor product")
    return Decomposition(factors, certificates, residual)
