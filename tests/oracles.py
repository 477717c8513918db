"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately dumb and separate from the library's code
paths: linear solves for quaternion division, determinants of hand-built 6x6
arrays, root-based cubic classification, and so on.
"""

import math

import numpy as np

from qproj import Minor, QMatrix3, Quaternion
from qproj.matrix import (_build_gate, check_certificate, inverse, product_residual,
                          square_residual)
from qproj.reversibility import ReversibilityReport, _matches


def quaternion_left_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of p -> q * p in (w, x, y, z) coordinates."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def quaternion_right_mult_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix of p -> p * q in (w, x, y, z) coordinates."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, z, -y],
            [y, -z, w, x],
            [z, y, -x, w],
        ]
    )


def solve_right_inverse(q: Quaternion) -> Quaternion:
    """Solve q * x = 1 componentwise as a 4x4 real linear system."""
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    sol = np.linalg.solve(quaternion_left_mult_matrix(q), rhs)
    return Quaternion(*sol)


def adjoint_of(entries) -> np.ndarray:
    """Hand-rolled 6x6 complex adjoint from a 3x3 nested list of Quaternion."""
    a = np.zeros((3, 3), dtype=complex)
    b = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            q = Quaternion.from_scalar(entries[i][j])
            a[i, j] = complex(q.w, q.x)
            b[i, j] = complex(q.y, q.z)
    return np.block([[a, b], [-b.conj(), a.conj()]])


def gauss_inverse(m: QMatrix3, tol: float = 1e-12) -> QMatrix3:
    """Quaternionic Gaussian elimination on [A | I]; test oracle for inverse()."""
    aug = [[m[i, j] for j in range(3)] + [Quaternion(1.0 if k == i else 0.0) for k in range(3)]
           for i in range(3)]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: aug[r][col].norm())
        if aug[pivot][col].norm() <= tol:
            raise ZeroDivisionError("singular matrix in elimination oracle")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_piv = aug[col][col].inverse()
        aug[col] = [inv_piv * v for v in aug[col]]
        for r in range(3):
            if r == col:
                continue
            factor = aug[r][col]
            aug[r] = [aug[r][k] - factor * aug[col][k] for k in range(6)]
    out = QMatrix3.zeros()
    for i in range(3):
        for j in range(3):
            out[i, j] = aug[i][3 + j]
    return out


def cubic_discriminant_from_roots(x: float, y: float) -> float:
    """prod_{i<j} (xi_i - xi_j)^2 for t^3 - x t^2 + y t - 1, via np.roots."""
    r = np.roots([1.0, -x, y, -1.0])
    prod = (r[0] - r[1]) ** 2 * (r[0] - r[2]) ** 2 * (r[1] - r[2]) ** 2
    return float(prod.real)


def classify_real_by_roots(a: np.ndarray, tol: float = 1e-3) -> Minor:
    """Root-structure classification of A in SL(3,R), independent of traces.

    Uses only np.roots on the characteristic cubic, root moduli and
    multiplicities, and rank-based diagonalizability.  Multiple roots split
    like the cube root of the backward error under a condition-1e3
    conjugation (up to ~1e-4), so the tolerance sits above that and far
    below the separation margins of the labeled generators (>= 0.03).
    """
    a = np.asarray(a, dtype=float)
    x = float(np.trace(a))
    y = float(np.trace(np.linalg.inv(a)))
    roots = np.roots([1.0, -x, y, -1.0])
    real_mask = np.abs(roots.imag) <= tol * np.maximum(1.0, np.abs(roots))

    def geo_mult(lam):
        # with the refined lam the true kernel directions sit at rounding
        # level while a defective block keeps a structurally nonzero sigma_2
        s = np.linalg.svd(a - lam * np.eye(3), compute_uv=False)
        return int(np.sum(s < 1e-7 * max(1.0, s[0])))

    if not np.all(real_mask):
        # one real root and a conjugate pair
        pair = roots[~real_mask][0]
        if abs(abs(pair) - 1.0) <= tol:
            return Minor.REGULAR_ELLIPTIC
        return Minor.SCREW_LOXODROMIC

    vals = sorted(roots.real)
    gaps = [abs(vals[0] - vals[1]), abs(vals[1] - vals[2]), abs(vals[0] - vals[2])]
    if min(gaps) > tol * max(1.0, max(abs(v) for v in vals)):
        return Minor.REGULAR_LOXODROMIC

    # Multiple real root.  np.roots splits a k-fold root by the k-th root of
    # the backward error, so refine the repeated eigenvalue from the traces
    # before rank decisions (simple roots are accurate already).
    if max(gaps) <= tol:  # triple root, necessarily 1
        if np.allclose(a, np.eye(3), atol=10 * tol):
            return Minor.IDENTITY
        return (
            Minor.VERTICAL_TRANSLATION
            if geo_mult(x / 3.0) == 2
            else Minor.NON_VERTICAL_TRANSLATION
        )
    # double root lam, single mu: lam = (x - mu) / 2 to full accuracy
    if abs(vals[0] - vals[1]) <= abs(vals[1] - vals[2]):
        mu = vals[2]
    else:
        mu = vals[0]
    lam = 0.5 * (x - mu)
    diagonalizable = geo_mult(lam) == 2
    if abs(abs(lam) - 1.0) <= tol and abs(abs(mu) - 1.0) <= tol:
        return Minor.ELLIPTIC_REFLECTION if diagonalizable else Minor.ELLIPTO_PARABOLIC
    return Minor.HOMOTHETY if diagonalizable else Minor.LOXO_PARABOLIC


def char_poly_from_diag(diag6) -> np.ndarray:
    """Monic degree-6 coefficients from explicit adjoint eigenvalues."""
    return np.real_if_close(np.poly(np.asarray(diag6, dtype=complex)), tol=1e6)


def sylvester_matrix(L: QMatrix3, R: QMatrix3) -> np.ndarray:
    """36x36 real matrix of X -> L X - X R, one column per real unit direction.

    Columns run over entries (i, j) in row-major order and, within an entry,
    over the components 1, i, j, k; rows use the same coordinates.
    """
    cols = []
    for i in range(3):
        for j in range(3):
            for comp in range(4):
                e = QMatrix3.zeros()
                unit = [0.0, 0.0, 0.0, 0.0]
                unit[comp] = 1.0
                e[i, j] = Quaternion(*unit)
                image = L @ e - e @ R
                cols.append([c for r in range(3) for s in range(3) for c in image[r, s].to_list()])
    return np.array(cols).T


def partitions_per_level(pts, tol_abs, scale, merge_cap):
    """Single-linkage partitions of the points, one fresh union-find per level.

    The reference for spectral._partitions_from_points: the same levels,
    deduplication and odd-cluster filtering, with no state carried between
    levels.
    """
    n = len(pts)
    dists = np.array([[np.hypot(*(pts[i] - pts[j])) for j in range(n)] for i in range(n)])
    base = max(10.0 * tol_abs, 1e4 * np.finfo(float).eps * scale)
    gaps = sorted({dists[i, j] for i in range(n) for j in range(i + 1, n)
                   if base < dists[i, j] <= merge_cap * scale})
    seen = set()
    out = []
    for level in [base] + [g * (1 + 1e-9) + base for g in gaps]:
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if dists[i, j] <= level:
                    parent[find(i)] = find(j)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        clusters = tuple(sorted(tuple(g) for g in groups.values()))
        if clusters not in seen:
            seen.add(clusters)
            if not any(len(c) % 2 for c in clusters):
                out.append((clusters, level))
    return out


def cluster_summary_numpy(pts, clusters):
    """Centroid and radius of every cluster: the mean of its points and the
    largest np.hypot distance from it.  The reference for
    spectral._cluster_summary.
    """
    out = []
    for cluster in clusters:
        idxs = list(cluster)
        centroid = pts[idxs].mean(axis=0)
        out.append((centroid, max(np.hypot(*(pts[i] - centroid)) for i in idxs)))
    return out


def cluster_readings_numpy(pts, clusters, level, scale):
    """Per-cluster real/complex readings from numpy centroids and radii.

    The reference for spectral._realness_options over _cluster_summary.
    """
    ambiguous_band = max(1e-3 * scale, 10.0 * level)
    options = []
    for centroid, radius in cluster_summary_numpy(pts, clusters):
        if centroid[1] <= max(4.0 * radius, level):
            options.append((True,))
        elif centroid[1] <= ambiguous_band:
            options.append((True, False))
        else:
            options.append((False,))
    return options


def scale_columns_loop(m: QMatrix3, scalars) -> QMatrix3:
    """Right-multiply column k of m by the quaternion scalars[k], one column at a time.

    The reference for QMatrix3.scale_columns.
    """
    out = QMatrix3.zeros()
    for j, s in enumerate(scalars):
        sa, sb = Quaternion.from_scalar(s).complex_pair()
        out.a[:, j] = m.a[:, j] * sa - m.b[:, j] * np.conj(sb)
        out.b[:, j] = m.a[:, j] * sb + m.b[:, j] * np.conj(sa)
    return out


def normalize_similarity_loop(S: QMatrix3, blocks) -> QMatrix3:
    """Per-block gauge of the similarity, one eigenvector column at a time.

    The reference for spectral._gauged: each block's chain is
    scaled by h with |h| = 1 / |eigenvector| that puts the lead coordinate,
    the first of at least half the largest modulus, on the positive real
    axis.  (u + w j) h = u h + w conj(h) j, so h has the phase of conj(lead)
    for a lead in u and of lead for a lead in w.
    """
    out = QMatrix3.zeros()
    col = 0
    for _, size in blocks:
        u = S.a[:, col]
        w = S.b[:, col]
        nrm = math.sqrt(float(np.sum(np.abs(u) ** 2) + np.sum(np.abs(w) ** 2)))
        h = 1.0 + 0j
        if nrm > 0.0:
            stacked = np.concatenate([u, w])
            moduli = np.abs(stacked).tolist()
            first = next(k for k, v in enumerate(moduli) if v >= 0.5 * max(moduli))
            lead = complex(stacked[first])
            im = -lead.imag if first < 3 else lead.imag
            h = complex(lead.real / (moduli[first] * nrm), im / (moduli[first] * nrm))
        for k in range(col, col + size):
            out.a[:, k] = S.a[:, k] * h
            out.b[:, k] = S.b[:, k] * h.conjugate()
        col += size
    return out


def _unitary(rng) -> QMatrix3:
    """exp(K) for a random quaternionic skew-Hermitian K, through eigh of i Phi(K)."""
    x = QMatrix3(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                 rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    phi = x.adjoint() - x.adjoint().conj().T  # Phi(X - X*), skew-Hermitian
    w, v = np.linalg.eigh(1j * phi)
    return QMatrix3.from_adjoint((v * np.exp(-1j * w)) @ v.conj().T)


def conditioned_conjugator(c: float, rng):
    """(g, g^-1) with g = U1 diag(sqrt(c), 1, 1/sqrt(c)) U2 in SL(3,H) and cond Phi(g) = c.

    U1 and U2 are unitary, so g^-1 = U2* diag(1/sqrt(c), 1, sqrt(c)) U1* is
    written in closed form, with no call to the library's inverse.
    """
    u1, u2 = _unitary(rng), _unitary(rng)
    star = lambda u: QMatrix3.from_adjoint(u.adjoint().conj().T)
    r = math.sqrt(c)
    g = u1 @ QMatrix3.diag(r, 1.0, 1.0 / r) @ u2
    return g, star(u2) @ QMatrix3.diag(1.0 / r, 1.0, r) @ star(u1)


def psl_report_per_member(A: QMatrix3, data, tol: float):
    """The reversibility report of one input, its witness built and checked alone.

    The reference for reversibility._psls_from_data: g = S g0 S^-1 from
    QMatrix3 products, with g0 in the Jordan slots and S^-1 from its own
    inverse() call, each residual from its one-member function
    (g A g^-1 = t A^-1 as A g A = t g, with no A^-1), s1 = -t A g, and the
    gates in the order Singular S^-1, reverser conjugation, reverser square,
    pair product, pair square 1.
    """
    def witness(g0, t, sign, what):
        g = data.S @ g0 @ inverse(data.S)
        conj = check_certificate(product_residual([A, g, A], t * g), f"{what} conjugation", gate)
        # -t A g, negated exactly: a product by 1.0 or -1.0 may flip the sign of a zero
        s1 = A @ g if t < 0 else -(A @ g)
        return g, s1, conj, check_certificate(square_residual(g, sign), f"{what} square", gate)

    gate = _build_gate(tol)
    skew, involution, neg = _matches(data, tol)
    report = ReversibilityReport(
        reversible_sl=skew is not None,
        strongly_reversible_sl=involution is not None,
        negative_reversible=neg is not None,
        reversible_psl=skew is not None or neg is not None,
    )
    if skew is not None:
        g, s1, conj, square = witness(skew, 1.0, -1.0, "reverser")
        report.reverser_kind = "skew-involution"
    elif neg is not None:
        g, s1, conj, square = witness(neg, -1.0, 1.0, "negative-reverser")
        report.reverser_kind = "involution"
    else:
        return report
    product = check_certificate(product_residual([s1, g], A), "pair product", gate)
    square_1 = check_certificate(square_residual(s1, -1.0), "pair square 1", gate)
    report.reverser = g
    report.psl_involution_pair = (s1, g)
    report.residuals = {
        "reverser_conjugation": conj,
        "reverser_square": square,
        "pair_product": product,
        "pair_square_1": square_1,
    }
    return report
