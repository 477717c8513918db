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

# A witness built at tolerance tol is returned only when its residual is below
# _build_gate(tol), the smaller of BUILD_GATE and replay_gate(tol); `qproj
# verify` replays the report against replay_gate(tol), so it accepts every
# witness the library returns.
BUILD_GATE = 1e-5

COND_LIMIT = 1e13  # Phi(A) counts as singular once its 1-norm condition number reaches this


def _qmul(a1, b1, a2, b2):
    """Complex blocks of (A1 + B1 j)(A2 + B2 j); broadcasts over stacks of blocks."""
    # (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j
    return a1 @ a2 - b1 @ b2.conj(), a1 @ b2 + b1 @ a2.conj()


def _adjoint(a, b) -> np.ndarray:
    """Complex adjoint [[a, b], [-conj(b), conj(a)]]; broadcasts over stacks of blocks."""
    phi = np.empty((*np.shape(a)[:-2], 6, 6), dtype=complex)
    phi[..., :3, :3] = a
    phi[..., :3, 3:] = b
    phi[..., 3:, :3] = -b.conj()
    phi[..., 3:, 3:] = a.conj()
    return phi


def _norms(a, b):
    """Frobenius norm of (a, b) with quaternionic entry moduli; broadcasts over stacks."""
    return np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)) + (np.abs(b) ** 2).sum(axis=(-2, -1)))


def _stack(ms):
    """The blocks of a sequence of QMatrix3 as two (N, 3, 3) stacks; N may be 0."""
    return (np.array([m.a for m in ms], dtype=complex).reshape(-1, 3, 3),
            np.array([m.b for m in ms], dtype=complex).reshape(-1, 3, 3))


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
        # scaled as reals: a product by the complex s + 0j could flip a zero's sign
        s = float(scalar)
        return QMatrix3(*((np.ascontiguousarray(z).view(float) * s).view(complex)
                          for z in (self.a, self.b)))

    __rmul__ = __mul__

    def scale_columns(self, sa, sb) -> "QMatrix3":
        """Right-multiply column k by the quaternion sa[k] + sb[k] j."""
        # A diag(s) column by column: (a + b j)(sa + sb j)
        return QMatrix3(self.a * sa - self.b * np.conj(sb), self.a * sb + self.b * np.conj(sa))

    def norm(self) -> float:
        """Frobenius norm with quaternionic entry moduli."""
        return float(_norms(self.a, self.b))

    def adjoint(self) -> np.ndarray:
        """Complex adjoint Phi(A) = [[A1, A2], [-conj(A2), conj(A1)]]."""
        return _adjoint(self.a, self.b)

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
        return _json_matrices(self.a[None], self.b[None])[0]

    @classmethod
    def from_json_dict(cls, data) -> "QMatrix3":
        return _unvec36(_json_entries(data).ravel())

    def __repr__(self):
        rows = ",\n  ".join(
            "[" + ", ".join(repr(self[i, j]) for j in range(3)) + "]" for i in range(3)
        )
        return f"QMatrix3([\n  {rows}\n])"


def _json_entries(data) -> np.ndarray:
    """The (3, 3, 4) entries [w, x, y, z] of a QMatrix3 JSON object, checked."""
    entries = np.array(data["matrix"])
    # a JSON null or string would become NaN or parse as a number under
    # dtype=float, so only an all-numeric array is accepted; Python's json
    # reads NaN and Infinity, which JSON itself has no tokens for
    if entries.shape != (3, 3, 4) or entries.dtype.kind not in "iuf":
        raise ValueError("matrix must be 3x3 with [w, x, y, z] number entries")
    # a true or false among numbers has become 1.0 or 0.0 above
    if bool in {type(x) for row in data["matrix"] for entry in row for x in entry}:
        raise ValueError("matrix must be 3x3 with [w, x, y, z] number entries")
    if not np.isfinite(entries).all():
        raise ValueError("matrix entries must be finite numbers")
    return entries


def _json_matrices(a, b) -> list:
    """The QMatrix3 JSON object of each member of (N, 3, 3) stacks of complex
    pairs (a, b): its [w, x, y, z] entries row by row, from one tolist()."""
    return [{"matrix": m} for m in np.stack([a.real, a.imag, b.real, b.imag], axis=-1).tolist()]


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


def _dets_h(a, b) -> np.ndarray:
    """det_h of each member of a stack of complex pairs (a, b), (N, 3, 3) each."""
    d = np.linalg.det(_adjoint(a, b)).real
    d[d < 0.0] = 0.0  # as max(d, 0.0) would: NaN and -0.0 stay
    return d


def det_h(m: QMatrix3) -> float:
    """Quaternionic determinant det(Phi(A)); real and non-negative: one member of _dets_h."""
    return float(_dets_h(m.a[None], m.b[None])[0])


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


def _cond_1(phi, phi_inv):
    """||Phi||_1 ||Phi^-1||_1; broadcasts over stacks."""
    return np.abs(phi).sum(axis=-2).max(axis=-1) * np.abs(phi_inv).sum(axis=-2).max(axis=-1)


def _invert_adjoint(phi: np.ndarray) -> np.ndarray:
    """Phi^-1 of one adjoint; raises Singular unless cond_1 Phi is below COND_LIMIT."""
    try:
        phi_inv = np.linalg.inv(phi)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"adjoint is singular: {exc}") from exc
    cond = _cond_1(phi, phi_inv)
    if not cond < COND_LIMIT:
        raise Singular(f"cond_1 of the adjoint is {cond:.3e}, not below {COND_LIMIT:.0e}")
    return phi_inv


def _invert_adjoints(phis):
    """_invert_adjoint over an (N, 6, 6) stack: the inverses and the mask it accepts.

    A member that fails the singular rule gets a zero inverse and a False in
    the mask; it never fails the others.  One stacked inverse serves the
    stack unless LAPACK stops on a member (exactly singular or not finite);
    then each member is inverted alone, and one LAPACK refuses keeps a NaN
    inverse, whose cond_1 fails the rule.
    """
    try:
        inverses = np.linalg.inv(phis)
    except np.linalg.LinAlgError:
        inverses = np.full_like(phis, np.nan)
        for k, phi in enumerate(phis):
            try:
                inverses[k] = np.linalg.inv(phi)
            except np.linalg.LinAlgError:
                pass
    ok = _cond_1(phis, inverses) < COND_LIMIT
    if not ok.all():
        inverses[~ok] = 0.0
    return inverses, ok


def inverse(m: QMatrix3) -> QMatrix3:
    """Inverse through the complex adjoint; raises Singular when cond_1 Phi >= COND_LIMIT."""
    return QMatrix3.from_adjoint(_invert_adjoint(m.adjoint()))


def _conjugation_residuals(ta, tb, ba, bb, ma, mb):
    """||T B T^-1 - M|| / ||M|| of stacks of complex pairs T, B and M, (N, 3, 3) each,
    and the stack of Phi(T)^-1 it was measured with, from _invert_adjoints.

    A member whose T fails the singular rule gets inf and a zero inverse;
    the others are computed as if alone.
    """
    t_inv, ok = _invert_adjoints(_adjoint(ta, tb))
    ra, rb = _qmul(*_qmul(ta, tb, ba, bb), t_inv[:, :3, :3], t_inv[:, :3, 3:])
    residuals = _norms(ra - ma, rb - mb) / np.maximum(_norms(ma, mb), 1e-300)
    return np.where(ok, residuals, math.inf), t_inv


def conjugation_residual(T: QMatrix3, B: QMatrix3, M: QMatrix3) -> float:
    """||T B T^-1 - M|| / ||M||, or inf when T is singular: one member of
    _conjugation_residuals.

    Serves the certificates that carry their conjugator, such as a real
    conjugate (T, B, factor).  A reverser g with g^2 = +-I needs no inverse:
    g A g^-1 = t A^-1 is checked as product_residual([A, g, A], t g).
    """
    return float(_conjugation_residuals(T.a[None], T.b[None], B.a[None], B.b[None],
                                        M.a[None], M.b[None])[0][0])


def _square_residuals(ga, gb, signs):
    """||g^2 - sign * I|| of each member of a stack of complex pairs g, (N, 3, 3),
    with its sign in signs; absolute: g^2 = +-I fixes the scale of g."""
    sa, sb = _qmul(ga, gb, ga, gb)
    return _norms(sa - np.multiply.outer(signs, np.eye(3)), sb)


def square_residual(g: QMatrix3, sign: float) -> float:
    """||g^2 - sign * I||: one member of _square_residuals."""
    return float(_square_residuals(g.a[None], g.b[None], [sign])[0])


def _product_residuals(fa, fb, ma, mb):
    """||f_1 ... f_k - M|| / ||M|| of each member of a stack of complex pairs M.

    Member n's factors are fa[n], fb[n], (K, 3, 3) each, led by identities
    up to K; they are multiplied left to right from I, and I I = I exactly.
    """
    pa = np.zeros_like(ma)
    pa[:] = np.eye(3)
    pb = np.zeros_like(mb)
    for p in range(fa.shape[1]):
        pa, pb = _qmul(pa, pb, fa[:, p], fb[:, p])
    return _norms(pa - ma, pb - mb) / np.maximum(_norms(ma, mb), 1e-300)


def product_residual(factors, A: QMatrix3) -> float:
    """||f_1 ... f_k - A|| / ||A||: one member of _product_residuals."""
    fa, fb = _stack(factors)
    return float(_product_residuals(fa[None], fb[None], A.a[None], A.b[None])[0])


def replay_gate(tol: float) -> float:
    """The gate `qproj verify` applies to a report made at tolerance tol."""
    return max(1e-8, 1e3 * tol)


def _build_gate(tol: float) -> float:
    """The gate a witness built at tolerance tol must pass: never looser than replay."""
    return min(BUILD_GATE, replay_gate(tol))


def check_certificate(residual: float, what: str, gate: float = BUILD_GATE) -> float:
    """Return residual, or raise CertificateError unless residual < gate (NaN fails)."""
    if not residual < gate:
        raise CertificateError(f"{what} residual {residual:.3e} exceeds {gate:.1e}")
    return residual


def normalize_to_sl(m: QMatrix3) -> QMatrix3:
    """Rescale by det_h(A)^(-1/6) so the result lies in SL(3,H).

    The central scalar a*I3 commutes with everything, so conjugacy relations
    involving A survive the rescaling unchanged.
    """
    d = det_h(m)
    if not d > 0.0:
        raise Singular(f"det_h = {d:.3e} has no sixth root to rescale by")
    return m * (d ** (-1.0 / 6.0))


def unimodular_gate(tol: float) -> float:
    """The largest |det_h - 1| that is_unimodular accepts at tol."""
    return 1e3 * max(tol, 1e-12)


def is_unimodular(d: float, tol: float) -> bool:
    """True iff the determinant d equals 1 within unimodular_gate(tol)."""
    return abs(d - 1.0) <= unimodular_gate(tol)


def require_unimodular(m: QMatrix3, tol: float = DEFAULT_TOL) -> None:
    """Raise NotUnimodular unless is_unimodular(det_h(m), tol)."""
    d = det_h(m)
    if not is_unimodular(d, tol):
        raise NotUnimodular(f"det_h = {d:.9f}, expected 1 (within {unimodular_gate(tol):.1e})")


def self_dual_check(m: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff chi_H(A) is self-dual: c5 = c1 and c4 = c2.

    Requires A in SL(3,H); this is the trace-coefficient reversibility test.
    """
    require_unimodular(m, tol)
    poly = char_poly_h(m, tol)
    c = poly.coeffs
    scale = max(1.0, float(np.max(np.abs(c))))
    return abs(c[5] - c[1]) <= tol * scale * 100 and abs(c[4] - c[2]) <= tol * scale * 100
