"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately dumb and separate from the library's code
paths: linear solves for quaternion division, determinants of hand-built 6x6
arrays, root-based cubic classification, and so on.
"""

import math

import numpy as np

from qproj import Minor, QMatrix3, Quaternion


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
            options.append((False, True))
        else:
            options.append((False,))
    return options


def nearest_centroid_numpy(pts, clusters):
    """Index of the nearest cluster centroid for every point, by np.argmin.

    The reference for spectral._nearest_centroid.
    """
    centroids = np.array([centroid for centroid, _ in cluster_summary_numpy(pts, clusters)])
    diff = centroids[None, :] - pts[:, None]
    return np.argmin(np.hypot(diff[..., 0], diff[..., 1]), axis=1).tolist()


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

    The reference for spectral._normalize_similarity: each block's chain is
    scaled by conj(lead / |lead|) / |eigenvector|, lead being the first
    coordinate of at least half the largest modulus.
    """
    scalars = []
    col = 0
    for _, size in blocks:
        u = S.a[:, col]
        w = S.b[:, col]
        nrm = math.sqrt(float(np.sum(np.abs(u) ** 2) + np.sum(np.abs(w) ** 2)))
        h = 1.0 + 0j
        if nrm > 0.0:
            stacked = np.concatenate([u, w])
            cutoff = 0.5 * float(np.max(np.abs(stacked)))
            lead = next(v for v in stacked if abs(v) >= cutoff)
            h = (lead / abs(lead)).conjugate() / nrm
        scalars.extend([h] * size)
        col += size
    return scale_columns_loop(S, scalars)
