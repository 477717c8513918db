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
construction rather than extracted from the factor again.  A simple input is
its own one factor, certified by its real conjugate (_real_conjugate): the
real Jordan form, or for diag(λ, λ, μ) the same pair factor (_pair_row) that
the routes above use, in the frame of S.

The after-stage that follows jordan_form runs per batch
(_decompositions_from_data): the CLI passes a whole batch, decompose_simple
and realify a batch of one.  Each member's route scalars are found in
Python; one assembly lays the canonical factors (C, T, B) of the batch into
stacks.  The factors S C S^-1, their conjugators S T and every residual come
from stacked complex-pair arithmetic, and _decomposition_dicts encodes a
batch's reports with one _json_matrices call.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, NotSimple, QprojError
from .matrix import (QMatrix3, _build_gate, _conjugation_residuals, _json_matrices, _norms,
                     _product_residuals, _qmul, _stack, check_certificate, conjugation_residual)
from .quaternion import DEFAULT_TOL
from .spectral import JordanData, _analysed, jordan_form


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


@dataclass(eq=False)
class Decomposition:
    """Ordered simple factors with certificates; product reconstructs A.

    Factor k is fa[k] + fb[k] j, certified by (ta[k] + tb[k] j, B[k]) with
    residual cert_residuals[k]: rows of the stacks of its batch.
    """

    fa: np.ndarray
    fb: np.ndarray
    ta: np.ndarray
    tb: np.ndarray
    B: np.ndarray
    cert_residuals: list
    residual: float = 0.0

    def __len__(self):
        return len(self.fa)

    @property
    def factors(self) -> list:
        return [QMatrix3(a, b) for a, b in zip(self.fa, self.fb)]

    @property
    def certificates(self) -> list:
        return [SimpleCertificate(QMatrix3(a, b), B, r)
                for a, b, B, r in zip(self.ta, self.tb, self.B, self.cert_residuals)]

    def product(self) -> QMatrix3:
        out = QMatrix3.identity()
        for f in self.factors:
            out = out @ f
        return out

    def to_json_dict(self) -> dict:
        return _decomposition_dicts([self])[0]


def _decomposition_dicts(decs) -> list:
    """to_json_dict of each Decomposition in decs, a QprojError passed through
    as it is; all their factors and conjugators are encoded by one
    _json_matrices call, and all their B by one tolist()."""
    done = [d for d in decs if isinstance(d, Decomposition)]
    if not done:
        return list(decs)
    matrices = iter(_json_matrices(np.concatenate([m for d in done for m in (d.fa, d.ta)]),
                                   np.concatenate([m for d in done for m in (d.fb, d.tb)])))
    Bs = iter(np.concatenate([d.B for d in done]).tolist())
    # each member's factors, then its conjugators; the residuals lead the zip,
    # so that it stops before taking a T or B too many
    out = iter([{"factors": list(itertools.islice(matrices, len(d))),
                 "certificates": [{"T": T, "B": B, "residual": r}
                                  for r, T, B in zip(d.cert_residuals, matrices, Bs)],
                 "residual": d.residual} for d in done])
    return [next(out) if isinstance(d, Decomposition) else d for d in decs]


def is_simple(A: QMatrix3, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is conjugate to a real matrix (non-real blocks pair up by size)."""
    return _is_simple_data(_analysed(A, tol), tol)


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
    the pair factor of _pair_row, whose B holds the rotation block
    [[Re λ, Im λ], [-Im λ, Re λ]] in the slots of the pair.  This is the
    certificate of the one-factor decomposition [A].
    """
    data = None if A.is_real(tol) else jordan_form(A, tol)
    if data is not None and not _is_simple_data(data, tol):
        raise NotSimple("a non-real class has Jordan blocks that do not pair up by size")
    (result,) = _decompositions_from_data([A], [data], tol)
    if isinstance(result, QprojError):
        raise result
    return result.certificates[0]


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


# The conjugator T of each pair factor, (s0, same) -> index 1 + 2 s0 + (not same),
# led by the identity at index 0, as complex-pair stacks
_CONJUGATOR_A, _CONJUGATOR_B = _stack([QMatrix3.identity()] + [
    _pair_conjugator(s0, same) for s0 in (0, 1) for same in (True, False)])
_NO_SUPER = (0.0, 0.0)
_DIAG = (0, 1, 2)


def _split_phases(theta: float, phi: float):
    """(e^{i mu}, e^{i nu}, e^{-i nu}) with mu = (theta + phi)/2 and nu = (theta - phi)/2."""
    mu = 0.5 * (theta + phi)
    nu = 0.5 * (theta - phi)
    return cmath.exp(1j * mu), cmath.exp(1j * nu), cmath.exp(-1j * nu)


# A canonical factor C = T B T^-1 is laid out as one row (d, u, T, B): C has
# diagonal d and superdiagonal u, T is an index into the conjugator stacks or
# a complex 3x3 list, and B is given by its nine entries row by row.

def _pair_row(s0: int, d):
    """The row of a complex diagonal pair factor: slots s0, s0 + 1 of d hold λ
    and λ or conj λ, the remaining slot is real."""
    lam, mu = d[s0], d[s0 + 1]
    same = abs(mu - lam) <= abs(mu - lam.conjugate())
    c, s = lam.real, lam.imag
    if s0 == 0:
        return d, _NO_SUPER, 1 + (not same), (c, s, 0.0, -s, c, 0.0, 0.0, 0.0, d[2].real)
    return d, _NO_SUPER, 3 + (not same), (d[0].real, 0.0, 0.0, 0.0, c, s, 0.0, -s, c)


def _real_form(A: QMatrix3, data: JordanData | None, tol: float):
    """(F, t, B) with A = T B T^-1 for a simple A, T = F C_t for conjugator t > 0
    of the stacks, else F: (I, 0, Re A) for an A real within tol, (S, 0, Re J) when
    every class is real, else, for diag(λ, λ, μ) with λ non-real and μ real, S and
    the pair factor of _pair_row, whose λ blocks sort together (one ClassRep)."""
    if A.is_real(tol):
        return QMatrix3.identity(), 0, A.real_part()
    reps = [rep for rep, _ in data.blocks]
    if all(rep.is_real(tol) for rep in reps):
        return data.S, 0, data.jordan_matrix().real_part()
    # diag(λ, λ, μ) with λ non-real: the pair leads unless μ does
    _, _, t, B = _pair_row(1 if reps[0].is_real(tol) else 0, [rep.as_complex() for rep in reps])
    return data.S, t, np.reshape(B, (3, 3))


def _real_conjugate(A: QMatrix3, data: JordanData | None, tol: float):
    """(T, B) with A = T B T^-1 for a simple A, from _real_form."""
    F, t, B = _real_form(A, data, tol)
    return (F @ QMatrix3(_CONJUGATOR_A[t], _CONJUGATOR_B[t]) if t else F), B


def _unit_diag_rows(t: float, p: float, s: float):
    """Three simple factors multiplying to diag(e^{i t}, e^{i p}, e^{i s})."""
    e_mu, e_nu, e_minus_nu = _split_phases(t, p + s)
    return [_pair_row(0, (e_mu, e_mu, 1.0)), _pair_row(0, (e_nu, e_minus_nu, 1.0)),
            _pair_row(1, (1.0, cmath.exp(-1j * s), cmath.exp(1j * s)))]


def _unit_j2_rows(theta: float, psi: float):
    """Three simple factors multiplying to J2(e^{i theta}) (+) e^{i psi}: W Q W^-1
    and W R W^-1 for the two factors R of diag(1, e^{2i theta}, e^{i psi}),
    with W = diag(e^{-i theta}, e^{i theta}, 1)."""
    et = cmath.exp(1j * theta)
    e_mu, e_nu, e_minus_nu = _split_phases(2.0 * theta, psi)
    # Q T_q = T_q B_q with T_q = [e2, Q e2]: B_q is the real companion matrix
    # of Q's top block (trace 2 cos theta, determinant 1), and cond(T_q) is
    # about 2.6 for every theta
    Q = [[et, 1.0, 0.0], [0.0, 1.0 / et, 0.0], [0.0, 0.0, 1.0]]
    T_q = [[0.0, 1.0, 0.0], [1.0, 1.0 / et, 0.0], [0.0, 0.0, 1.0]]
    B_q = (0.0, -1.0, 0.0, 1.0, 2.0 * math.cos(theta), 0.0, 0.0, 0.0, 1.0)
    # W and W^-1 multiply as matrices: matmul rounds a product unlike Python's
    # complex multiplication
    zero = np.zeros((3, 3), dtype=complex)
    w = _qmul(np.diag([1.0 / et, et, 1.0]), zero, np.array(
        [T_q, Q, np.diag([1.0, e_mu, e_mu]), np.diag([1.0, e_nu, e_minus_nu])]), zero)[0]
    q, r1, r2 = _qmul(w[1:], zero, np.diag([et, 1.0 / et, 1.0]), zero)[0].tolist()
    return [((q[0][0], q[1][1], q[2][2]), (q[0][1], q[1][2]), w[0].tolist(), B_q),
            _pair_row(1, (r1[0][0], r1[1][1], r1[2][2])),
            _pair_row(1, (r2[0][0], r2[1][1], r2[2][2]))]


def _phase(theta: float):
    """D = diag(1, e^{i theta}, e^{2i theta}): D B D^-1 multiplies the
    superdiagonal of B by e^{-i theta} and leaves its diagonal alone."""
    e = cmath.exp(1j * theta)
    return [[1.0, 0.0, 0.0], [0.0, e, 0.0], [0.0, 0.0, e * e]]


def _canonical_rows(data: JordanData, tol: float):
    """Rows of the simple factors of the canonical Jordan matrix of ``data``, in
    product order; each is a C = T B T^-1 with B real, read off its construction."""
    reps = [rep for rep, _ in data.blocks]
    moduli = [rep.modulus() for rep in reps]
    angles = [rep.angle() for rep in reps]
    unit = all(rep.is_unit(tol) for rep in reps)
    shape = data.shape_id

    if shape == "diag":
        if unit:
            return _unit_diag_rows(*angles)
        r1, r2, r3 = moduli
        return [(moduli, _NO_SUPER, 0, (r1, 0.0, 0.0, 0.0, r2, 0.0, 0.0, 0.0, r3)),
                *_unit_diag_rows(*angles)]

    theta = angles[0]
    if shape == "j2":
        if unit:
            return _unit_j2_rows(theta, angles[1])
        # the real-moduli triangular factor, then Q = diag(e^{i theta}, e^{i theta},
        # e^{i psi}) via the unit route
        r, s = moduli
        return [((r, r, s), (cmath.exp(-1j * theta), 0.0), _phase(theta),
                 (r, 1.0, 0.0, 0.0, r, 0.0, 0.0, 0.0, s)),
                *_unit_diag_rows(theta, theta, angles[1])]

    # j3; |λ| = 1 is forced by unimodularity, the general branch is defensive
    if unit:
        et = cmath.exp(1j * theta)
        eh = cmath.exp(0.5j * theta)
        return [_pair_row(0, (et, et, 1.0)), _pair_row(1, (1.0, eh, eh)),
                _pair_row(1, (1.0, 1.0 / eh, eh)),
                ((1.0, 1.0, 1.0), (1.0 / et, 1.0 / et), _phase(theta),
                 (1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0))]
    r = moduli[0]
    e_inv = cmath.exp(-1j * theta)
    return [((r, r, r), (e_inv, e_inv), _phase(theta), (r, 1.0, 0.0, 0.0, r, 1.0, 0.0, 0.0, r)),
            *_unit_diag_rows(theta, theta, theta)]


def _canonical_stacks(rows):
    """Stacks (C, C', T, T', B) of the factors C + C' j = T B T^-1 of the rows
    other than the identity, and the mask of those rows.

    The identity test is ||C - I|| <= 1e-9, on one stacked norm.
    """
    d, u, Ts, Bs = zip(*rows)
    ca = np.zeros((len(rows), 3, 3), dtype=complex)
    ca[:, _DIAG, _DIAG] = d
    ca[:, (0, 1), (1, 2)] = u
    cb = np.zeros_like(ca)
    keep = ~(_norms(ca - np.eye(3), cb) <= 1e-9)

    Ts = [Ts[i] for i in np.flatnonzero(keep).tolist()]
    index = [t if isinstance(t, int) else 0 for t in Ts]
    ta, tb = _CONJUGATOR_A[index], _CONJUGATOR_B[index]
    explicit = [k for k, t in enumerate(Ts) if not isinstance(t, int)]
    if explicit:
        ta[explicit] = [Ts[k] for k in explicit]
    B = np.array(Bs, dtype=float)[keep].reshape(-1, 3, 3)
    return ca[keep], cb[keep], ta, tb, B, keep


def decompose_simple(A: QMatrix3, tol: float = DEFAULT_TOL) -> Decomposition:
    """Write A as a product of at most four simple factors with certificates.

    Simple inputs return the length-1 decomposition [A].  Factors are emitted
    in left-to-right product order and conjugated into A's frame, so their
    product reconstructs A itself.  Factors that degenerate to the identity
    (boundary angles) are dropped.  A factor S C S^-1 carries the certificate
    (S T, B) of its canonical factor C = T B T^-1.
    """
    (result,) = _decompositions_from_data([A], [_analysed(A, tol)], tol)
    if isinstance(result, QprojError):
        raise result
    return result


def _decompositions_from_data(As, datas, tol: float) -> list:
    """The Decomposition of each A in As given its Jordan data, or the QprojError it raises.

    A simple member is its own one factor, certified by its real conjugate
    (_real_conjugate), (I, Re A) for a real one; that certificate is measured and
    gated like the others, so an input real only within a loose tol can
    miss the build gate.  The factors of every other member are S C S^-1
    for its canonical factors C = T B T^-1, certified by (S T, B); one
    assembly lays the canonical factors of the whole batch into stacks
    (_canonical_stacks).  All factors of the batch form one stack, which
    each Decomposition keeps its rows of: S^-1 is the one the Jordan data
    carries, and every conjugation residual comes from one stacked call, in
    which a conjugator that fails the singular rule gives inf.  Each member's
    gates run in the order of a batch of one, certificates in factor order
    and then the product, so a member's error does not depend on its batch.
    """
    out = [None] * len(As)
    split, rows, owner = [], [], []  # split members, their canonical rows and the owner of each
    direct = []  # (member, T, B): the real conjugate of a simple member
    for k, (A, data) in enumerate(zip(As, datas)):
        if data is not None and not _is_simple_data(data, tol):
            member_rows = _canonical_rows(data, tol)
            owner += [len(split)] * len(member_rows)
            split.append(k)
            rows += member_rows
        else:
            direct.append((k, *_real_conjugate(A, data, tol)))

    parts = []  # stacks (F, F', T, T', B) of the canonical rows, then of the direct members
    counts, products = [], []
    if split:
        ca, cb, ta, tb, b, keep = _canonical_stacks(rows)
        owner = np.asarray(owner)[keep]
        counts = np.bincount(owner, minlength=len(split)).tolist()
        # the factors S C S^-1 and their conjugators S T
        sa, sb = _stack([datas[k].S for k in split])
        ia, ib = _stack([datas[k].S_inv for k in split])
        sa, sb, ia, ib = sa[owner], sb[owner], ia[owner], ib[owner]
        fa, fb = _qmul(*_qmul(sa, sb, ca, cb), ia, ib)
        ta, tb = _qmul(sa, sb, ta, tb)
        products = _product_residuals(*_led_by_identities(fa, fb, counts, owner),
                                      *_stack([As[k] for k in split])).tolist()
        parts.append((fa, fb, ta, tb, b))
    if direct:
        parts.append((*_stack([As[k] for k, _, _ in direct]), *_stack([T for _, T, _ in direct]),
                      np.array([B for *_, B in direct], dtype=float)))
    if not parts:
        return out
    # one residual call for the rows of both kinds
    fa, fb, ta, tb, B = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    residuals = _conjugation_residuals(ta, tb, B.astype(complex), np.zeros(B.shape, dtype=complex),
                                       fa, fb)[0].tolist()

    gate = _build_gate(tol)
    sizes = counts + [1] * len(direct)
    for k, stop, size, product in zip(split + [k for k, _, _ in direct],
                                      itertools.accumulate(sizes), sizes,
                                      products + [0.0] * len(direct)):
        r = slice(stop - size, stop)
        out[k] = _gated(Decomposition(fa[r], fb[r], ta[r], tb[r], B[r], residuals[r], product),
                        gate)
    return out


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


def _gated(dec: Decomposition, gate: float):
    """dec, or the CertificateError of its first residual not below gate:
    certificates in factor order, then the product."""
    try:
        for residual in dec.cert_residuals:
            check_certificate(residual, "real-conjugate certificate", gate)
        check_certificate(dec.residual, "factor product", gate)
    except CertificateError as exc:
        return exc
    return dec
