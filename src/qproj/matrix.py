"""3x3 quaternionic matrices via the complex adjoint.

A matrix A over H is held as the complex pair (A1, A2) with A = A1 + A2*j;
its complex adjoint is the 6x6 block matrix [[A1, A2], [-conj(A2), conj(A1)]].
All linear algebra (determinant, inverse, spectra) runs through that adjoint,
which is an algebra homomorphism, so the quaternionic operations inherit the
conditioning of standard complex dense routines.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CertificateError, NonRealCoefficient, NotUnimodular, Singular
from .quaternion import DEFAULT_TOL, Quaternion

_SHAPE = (3, 3)

# A witness is returned only when its residual is below BUILD_GATE; `qproj
# verify` replays a report made at tolerance tol against replay_gate(tol).
BUILD_GATE = 1e-5


def _qmul(a1, b1, a2, b2):
    """Complex blocks of (A1 + B1 j)(A2 + B2 j); broadcasts over stacks of blocks."""
    # (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j
    return a1 @ a2 - b1 @ b2.conj(), a1 @ b2 + b1 @ a2.conj()


class QMatrix3:
    """A 3x3 matrix over the quaternions acting on column vectors.

    Scalars multiply vectors on the right (eigenvalue convention A v = v λ),
    matching the non-commutative linear algebra the classifiers rely on.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if a.shape != _SHAPE or b.shape != _SHAPE:
            raise ValueError("QMatrix3 blocks must be 3x3")
        self.a = a
        self.b = b

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls) -> "QMatrix3":
        return cls(np.eye(3, dtype=complex), np.zeros(_SHAPE, dtype=complex))

    @classmethod
    def zeros(cls) -> "QMatrix3":
        return cls(np.zeros(_SHAPE, dtype=complex), np.zeros(_SHAPE, dtype=complex))

    @classmethod
    def from_complex(cls, m) -> "QMatrix3":
        return cls(np.asarray(m, dtype=complex), np.zeros(_SHAPE, dtype=complex))

    @classmethod
    def from_real(cls, m) -> "QMatrix3":
        return cls.from_complex(np.asarray(m, dtype=float))

    @classmethod
    def diag(cls, d1, d2, d3) -> "QMatrix3":
        m = cls.zeros()
        for k, v in enumerate((d1, d2, d3)):
            m[k, k] = v
        return m

    @classmethod
    def from_entries(cls, rows) -> "QMatrix3":
        """Build from a 3x3 nested sequence of Quaternion/complex/real entries."""
        m = cls.zeros()
        for i in range(3):
            for j in range(3):
                m[i, j] = rows[i][j]
        return m

    @classmethod
    def from_adjoint(cls, phi) -> "QMatrix3":
        """Inverse of .adjoint(): read the (A1, A2) blocks off a 6x6 matrix."""
        phi = np.asarray(phi, dtype=complex)
        return cls(phi[:3, :3].copy(), phi[:3, 3:].copy())

    # -- entry access --------------------------------------------------

    def __getitem__(self, idx) -> Quaternion:
        i, j = idx
        return Quaternion.from_complex_pair(self.a[i, j], self.b[i, j])

    def __setitem__(self, idx, value):
        i, j = idx
        q = Quaternion.from_scalar(value)
        av, bv = q.complex_pair()
        self.a[i, j] = av
        self.b[i, j] = bv

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "QMatrix3") -> "QMatrix3":
        return QMatrix3(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QMatrix3") -> "QMatrix3":
        return QMatrix3(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QMatrix3":
        return QMatrix3(-self.a, -self.b)

    def __matmul__(self, other: "QMatrix3") -> "QMatrix3":
        return QMatrix3(*_qmul(self.a, self.b, other.a, other.b))

    def __mul__(self, scalar) -> "QMatrix3":
        """Left multiplication by a central (real) scalar."""
        s = float(scalar)
        return QMatrix3(s * self.a, s * self.b)

    __rmul__ = __mul__

    def scale_columns(self, sa, sb) -> "QMatrix3":
        """Right-multiply column k by the quaternion sa[k] + sb[k] j."""
        # A diag(s) column by column: (a + b j)(sa + sb j)
        return QMatrix3(self.a * sa - self.b * np.conj(sb), self.a * sb + self.b * np.conj(sa))

    def norm(self) -> float:
        """Frobenius norm with quaternionic entry moduli."""
        return float(np.sqrt(np.sum(np.abs(self.a) ** 2) + np.sum(np.abs(self.b) ** 2)))

    def adjoint(self) -> np.ndarray:
        """Complex adjoint Phi(A) = [[A1, A2], [-conj(A2), conj(A1)]]."""
        phi = np.empty((6, 6), dtype=complex)
        phi[:3, :3] = self.a
        phi[:3, 3:] = self.b
        phi[3:, :3] = -self.b.conj()
        phi[3:, 3:] = self.a.conj()
        return phi

    def is_real(self, tol: float = DEFAULT_TOL) -> bool:
        scale = max(1.0, self.norm())
        return (
            float(np.max(np.abs(self.a.imag))) <= tol * scale
            and float(np.max(np.abs(self.b))) <= tol * scale
        )

    def real_part(self) -> np.ndarray:
        return self.a.real.copy()

    def isclose(self, other: "QMatrix3", tol: float = DEFAULT_TOL) -> bool:
        scale = max(1.0, self.norm(), other.norm())
        return (self - other).norm() <= tol * scale

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"matrix": _vec36(self).reshape(3, 3, 4).tolist()}

    @classmethod
    def from_json_dict(cls, data) -> "QMatrix3":
        entries = np.array(data["matrix"])
        # a JSON null or string would become NaN or parse as a number under
        # dtype=float, so only an all-numeric array is accepted
        if entries.shape != (3, 3, 4) or entries.dtype.kind not in "iuf":
            raise ValueError("matrix must be 3x3 with [w, x, y, z] number entries")
        return _unvec36(entries.ravel())

    def __repr__(self):
        rows = ",\n  ".join(
            "[" + ", ".join(repr(self[i, j]) for j in range(3)) + "]" for i in range(3)
        )
        return f"QMatrix3([\n  {rows}\n])"


def _vec36(m: QMatrix3):
    """The 36 real coordinates of m: (w, x, y, z) of each entry, row by row."""
    return np.stack([m.a.real, m.a.imag, m.b.real, m.b.imag], axis=-1).ravel()


def _blocks36(v):
    """Complex blocks (a, b) with _vec36 coordinates v; broadcasts over stacks.

    The (re, im) pairs are viewed as complex numbers: re + 1j * im would turn
    an imaginary -0.0 into +0.0.
    """
    z = np.array(v, dtype=float).reshape(*np.shape(v)[:-1], 3, 3, 2, 2).view(complex)
    return z[..., 0, 0].copy(), z[..., 1, 0].copy()


def _unvec36(v) -> QMatrix3:
    """Inverse of _vec36."""
    return QMatrix3(*_blocks36(v))


class CharPoly6:
    """Real coefficients of chi(x) = c6 x^6 - c5 x^5 + c4 x^4 - c3 x^3 + c2 x^2 - c1 x + c0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (7,):
            raise ValueError("expected 7 coefficients c0..c6")
        self.coeffs = coeffs

    @property
    def c(self):
        return self.coeffs

    def __call__(self, x):
        # alternating-sign storage: coefficient of x^k is (-1)^(6-k) * c_k
        acc = 0.0
        for k in range(6, -1, -1):
            acc = acc * x + ((-1) ** (6 - k)) * self.coeffs[k]
        return acc

    def to_json_dict(self) -> dict:
        return {"coeffs": [float(v) for v in self.coeffs]}

    def __repr__(self):
        return f"CharPoly6({list(self.coeffs)})"


def det_h(m: QMatrix3) -> float:
    """Quaternionic determinant det(Phi(A)); real and non-negative."""
    d = complex(np.linalg.det(m.adjoint()))
    return max(d.real, 0.0)


def char_poly_h(m: QMatrix3, tol: float = DEFAULT_TOL) -> CharPoly6:
    """Characteristic polynomial of the complex adjoint, in CharPoly6 storage.

    Built in product form from the adjoint's eigenvalues; coefficients with a
    small imaginary residue are snapped to their real part, a large residue is
    an error rather than silently dropped.
    """
    eigs = np.linalg.eigvals(m.adjoint())
    raw = np.poly(eigs)  # [1, a5, ..., a0] for x^6 + a5 x^5 + ... + a0
    scale = max(1.0, float(np.max(np.abs(raw))))
    if float(np.max(np.abs(raw.imag))) > max(tol, 1e-12) * scale * 100:
        raise NonRealCoefficient(
            f"characteristic coefficients carry imaginary residue {np.max(np.abs(raw.imag)):.3e}"
        )
    real = raw.real
    # real[k] is the coefficient of x^(6-k); c_j = (-1)^j * coeff(x^j) sign bookkeeping
    coeffs = np.empty(7)
    for k in range(7):
        coeff_xk = real[6 - k]
        coeffs[k] = ((-1) ** (6 - k)) * coeff_xk
    return CharPoly6(coeffs)


def inverse(m: QMatrix3, tol: float = DEFAULT_TOL) -> QMatrix3:
    """Inverse through the complex adjoint; raises Singular near det_h = 0."""
    phi = m.adjoint()
    d = abs(np.linalg.det(phi))
    if not d > tol:
        raise Singular(f"det_h = {d:.3e} is below tolerance")
    return QMatrix3.from_adjoint(np.linalg.inv(phi))


def conjugation_residual(T: QMatrix3, B: QMatrix3, M: QMatrix3) -> float:
    """||T B T^-1 - M|| / ||M||, or inf when T is singular.

    Serves every conjugacy certificate: a Jordan similarity (S, J, A), a real
    conjugate (T, B, factor) and a reverser (g, A, +-A^-1).
    """
    try:
        T_inv = inverse(T, tol=1e-300)
    except Singular:
        return math.inf
    return ((T @ B @ T_inv) - M).norm() / max(M.norm(), 1e-300)


def square_residual(g: QMatrix3, sign: float) -> float:
    """||g^2 - sign * I||, absolute: g^2 = +-I fixes the scale of g."""
    return ((g @ g) - sign * QMatrix3.identity()).norm()


def product_residual(factors, A: QMatrix3) -> float:
    """||f_1 ... f_k - A|| / ||A||."""
    product = QMatrix3.identity()
    for f in factors:
        product = product @ f
    return (product - A).norm() / max(A.norm(), 1e-300)


def replay_gate(tol: float) -> float:
    """The gate `qproj verify` applies to a report made at tolerance tol."""
    return max(1e-8, 1e3 * tol)


def check_certificate(residual: float, what: str, gate: float = BUILD_GATE) -> float:
    """Return residual, or raise CertificateError unless residual < gate (NaN fails)."""
    if not residual < gate:
        raise CertificateError(f"{what} residual {residual:.3e} exceeds {gate:.1e}")
    return residual


def normalize_to_sl(m: QMatrix3, tol: float = DEFAULT_TOL) -> QMatrix3:
    """Rescale by det_h(A)^(-1/6) so the result lies in SL(3,H).

    The central scalar a*I3 commutes with everything, so conjugacy relations
    involving A survive the rescaling unchanged.
    """
    d = det_h(m)
    if not d > tol:
        raise Singular(f"det_h = {d:.3e} is below tolerance")
    return m * (d ** (-1.0 / 6.0))


def require_unimodular(m: QMatrix3, tol: float = DEFAULT_TOL) -> None:
    """Raise NotUnimodular unless det_h(m) = 1 within 1e3 * tol."""
    d = det_h(m)
    if not abs(d - 1.0) <= 1e3 * max(tol, 1e-12):
        raise NotUnimodular(f"det_h = {d:.9f}, expected 1 (within {1e3 * tol:.1e})")


def self_dual_check(m: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff chi_H(A) is self-dual: c5 = c1 and c4 = c2.

    Requires A in SL(3,H); this is the trace-coefficient reversibility test.
    """
    require_unimodular(m, tol)
    poly = char_poly_h(m, tol)
    c = poly.coeffs
    scale = max(1.0, float(np.max(np.abs(c))))
    return abs(c[5] - c[1]) <= tol * scale * 100 and abs(c[4] - c[2]) <= tol * scale * 100
