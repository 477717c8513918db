"""Right eigenvalues, eigenvectors and Jordan form over H for 3x3 matrices.

Everything is computed through the 6x6 complex adjoint.  The right spectrum
of A is read off the adjoint's eigenvalues, which occur in conjugate pairs;
each pair collapses to one quaternionic similarity class.  Jordan structure
is recovered per class from the Schur-restricted operator on the class's
invariant subspace, and quaternionic chain vectors are obtained by lifting
complex chains through x = u - conj(v) * j.

Floating point makes Jordan detection ambiguous: a conjugated Jordan block
has its adjoint eigenvalues split by roughly eps^(1/k), and a defective real
eigenvalue is indistinguishable from a tight conjugate pair.  The extractor
therefore searches cluster partitions (single linkage, finest first) x
real/complex readings per cluster.  Within a candidate, each class takes the
first block-size partition, largest block first, whose Jordan chains can be
built; a size too large fails because its power of N vanishes.  Each
candidate is polished, and the one with the best reconstruction residual
after a conditioning penalty wins.

A first stage (_generic_jordan) runs on a whole stack of adjoints at once:
the CLI passes one stack per batch, jordan_form a stack of one.  One stacked
eig decides which members the search would give exactly one candidate
(_one_candidate): three non-real classes, each a conjugate pair within the
search's base level, more than _MERGE_CAP * scale apart and clear of the
ambiguous band.  For those the candidate is built directly from the upper
eigenvectors, and kept only when its residual needs no polish; everything
else goes to the search, which then answers exactly as it would alone.
jordan_form applies the same test to its Schur diagonal first, so an input
that goes to the search pays no eig.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import IllConditioned, LiftFailure, SpectralFailure
from .matrix import (QMatrix3, _adjoint, _blocks36, _invert_adjoint, _invert_adjoints,
                     _json_matrices, _qmul, _stack, _unvec36, _vec36, conjugation_residual,
                     inverse)
from .quaternion import DEFAULT_TOL, ClassRep, Quaternion

# Accept a candidate immediately when its relative residual is this good;
# otherwise all candidates are scored and the best one wins.
_EARLY_ACCEPT = 1e-10
# Gauss-Newton steps of the Sylvester polish at most.
_POLISH_ITERATIONS = 16
# Largest eigenvalue-gap (relative to spectral scale) that clustering may bridge.
_MERGE_CAP = 3e-2
_EPS = np.finfo(float).eps


@dataclass
class JordanData:
    """Jordan blocks, the similarity A = S J S^-1 and the shape tag."""

    blocks: list  # [(ClassRep, size)], canonical order
    S: QMatrix3
    shape_id: str  # "diag" | "j2" | "j3"
    residual: float

    def class_sizes(self) -> list[tuple[ClassRep, list[int]]]:
        """Jordan block sizes per eigenvalue class, classes in block order."""
        grouped: dict[ClassRep, list[int]] = {}
        for rep, size in self.blocks:
            grouped.setdefault(rep, []).append(size)
        return list(grouped.items())

    def jordan_matrix(self) -> QMatrix3:
        return _assemble_jordan(self.blocks)

    def to_json_dict(self) -> dict:
        return _jordan_dicts([self])[0]


def _jordan_dicts(datas) -> list:
    """to_json_dict of each JordanData in datas; all their S are encoded by one
    _json_matrices call."""
    return [{"blocks": [{"re": rep.re, "im": rep.im, "size": size} for rep, size in data.blocks],
             "S": S, "shape": data.shape_id}
            for data, S in zip(datas, _json_matrices(*_stack([data.S for data in datas])))]


def _block_sort_key(block):
    """Descending size, then modulus, then ascending angle.

    Moduli are compared to 9 decimals, so classes of one modulus come out in
    angle order rather than in an order set by rounding noise.
    """
    rep, size = block
    return (-size, -round(rep.modulus(), 9), rep.angle())


def _assemble_jordan(blocks) -> QMatrix3:
    J = np.zeros((3, 3), dtype=complex)
    col = 0
    for rep, size in blocks:
        lam = rep.as_complex()
        for k in range(size):
            J[col + k, col + k] = lam
            if k > 0:
                J[col + k - 1, col + k] = 1.0
        col += size
    return QMatrix3.from_complex(J)


def _shape_id(blocks) -> str:
    top = max(size for _, size in blocks)
    return {1: "diag", 2: "j2", 3: "j3"}[top]


# ---------------------------------------------------------------------------
# eigenvalue clustering


def _class_points(eigs):
    return np.column_stack([eigs.real, np.abs(eigs.imag)])


def _base_level(tol_abs, scale):
    """The finest merge level of the search: eigenvalues this close are one class."""
    return max(10.0 * tol_abs, 1e4 * _EPS * scale)


def _partitions_from_points(pts, tol_abs, scale):
    """Single-linkage partitions of the 6 adjoint eigenvalues, finest first.

    Returns [(clusters, level)], where each cluster is a tuple of indices and
    level is the merge threshold that produced the partition.  Partitions with
    an odd-sized cluster cannot be conjugate-closed and are dropped.
    """
    n = len(pts)
    diff = pts[:, None] - pts[None, :]
    dists = np.hypot(diff[..., 0], diff[..., 1]).tolist()
    pairs = sorted((dists[i][j], i, j) for i in range(n) for j in range(i + 1, n))
    base = _base_level(tol_abs, scale)
    levels = [base]
    gaps = sorted({d for d, _, _ in pairs if base < d <= _MERGE_CAP * scale})
    levels.extend(g * (1 + 1e-9) + base for g in gaps)

    # levels rise, so each one merges the pairs the previous one left out
    label = list(range(n))
    merged = 0
    seen = set()
    out = []
    for level in levels:
        while merged < len(pairs) and pairs[merged][0] <= level:
            _, i, j = pairs[merged]
            keep, drop = label[i], label[j]
            label = [keep if k == drop else k for k in label]
            merged += 1
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(label[i], []).append(i)
        clusters = tuple(sorted(tuple(g) for g in groups.values()))
        if clusters in seen:
            continue
        seen.add(clusters)
        if any(len(c) % 2 for c in clusters):
            continue
        out.append((clusters, level))
    return out


# ---------------------------------------------------------------------------
# chains within one class's invariant subspace


class _CandidateFailed(Exception):
    pass


def _partitions_of(n):
    """Block-size lists of multiplicity n, largest block first (the search order)."""
    if n == 1:
        return [(1,)]
    if n == 2:
        return [(2,), (1, 1)]
    return [(3,), (2, 1), (1, 1, 1)]


def _orth_columns(cols):
    if not cols:
        return np.zeros((0, 0), dtype=complex)
    m = np.column_stack(cols)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = s > 1e-12 * max(1.0, s[0])
    return u[:, keep]


def _pick_independent(pool, forbidden_cols):
    """Unit vector in span(pool columns) farthest from span(forbidden_cols)."""
    if pool.shape[1] == 0:
        raise _CandidateFailed("empty candidate pool")
    if forbidden_cols.size:
        resid = pool - forbidden_cols @ (forbidden_cols.conj().T @ pool)
    else:
        resid = pool
    _, s, vh = np.linalg.svd(resid, full_matrices=False)
    if s[0] < 1e-8:
        raise _CandidateFailed("no independent vector available")
    v = pool @ vh[0].conj()
    return v / np.linalg.norm(v)


def _kernel_basis(mat, floor):
    u, s, vh = np.linalg.svd(mat)
    thr = max(1e-8 * s[0], floor)
    keep = s < thr
    return vh.conj().T[:, keep]


def _chain_from_lead(N, lead, size):
    chain = [lead]
    for _ in range(size - 1):
        chain.append(N @ chain[-1])
    chain.reverse()  # eigenvector first
    nrm_head = np.linalg.norm(chain[0])
    nrm_tail = np.linalg.norm(chain[-1])
    if nrm_head < 1e-14 * max(1.0, nrm_tail):
        raise _CandidateFailed("degenerate chain")
    scale = 1.0 / math.sqrt(nrm_head * nrm_tail)
    return [c * scale for c in chain]


def _class_chains(N, sizes, real_class, tau, floor):
    """Complex Jordan chains inside one class subspace.

    Returns one list of vectors per quaternionic block.  Sizes come in the
    order of _partitions_of, so at most one block is longer than 1 and it is
    built first, with no chain before it.  For real classes the complex
    structure is doubled, so newly picked vectors must stay independent of
    the tau-images (quaternionic structure map) of everything already used.
    """
    dim = N.shape[0]
    chains = []
    used = []

    for size in sizes:
        if size == 1:
            pool = _kernel_basis(N, floor) if np.linalg.norm(N) > floor else np.eye(dim, dtype=complex)
            if pool.shape[1] == 0:
                pool = np.eye(dim, dtype=complex)
            forb = list(used)
            if real_class:
                forb.extend(tau(c) for c in used)
            lead = _pick_independent(pool, _orth_columns(forb))
            chain = [lead]
        else:
            power = np.linalg.matrix_power(N, size - 1)
            _, s, vh = np.linalg.svd(power)
            if s[0] < floor:
                raise _CandidateFailed("nilpotent power vanished for requested size")
            ranked = vh.conj().T  # candidate leads, dominant image first
            chain = None
            for k in range(ranked.shape[1]):
                lead = ranked[:, k]
                try:
                    cand = _chain_from_lead(N, lead, size)
                except _CandidateFailed:
                    continue
                cols = cand + [tau(c) for c in cand] if real_class else cand
                m = np.column_stack(cols)
                s2 = np.linalg.svd(m, compute_uv=False)
                if s2[-1] > 1e-6 * s2[0]:
                    chain = cand
                    break
            if chain is None:
                raise _CandidateFailed("no usable chain lead")
        chains.append(chain)
        used.extend(chain)
    return chains


# ---------------------------------------------------------------------------
# per-candidate extraction


def _lift_to_quaternionic(full):
    """C^6 -> H^3 with x = p - conj(q) j, as the complex pair (u, w)."""
    p = full[:3]
    q = full[3:]
    return p, -q.conj()


def _apply_qmatrix_to_pair(m: QMatrix3, u, w):
    return m.a @ u - m.b @ w.conj(), m.a @ w + m.b @ u.conj()


def _pair_norm(u, w):
    return math.sqrt(float(np.sum(np.abs(u) ** 2) + np.sum(np.abs(w) ** 2)))


def _reorder_schur(T0, Z0, mask):
    """Move the masked diagonal positions of a complex Schur form to the front."""
    select = np.zeros(T0.shape[0], dtype=np.int32)
    select[mask] = 1
    ts, qs, _, m, _, _, info = sla.lapack.ztrsen(select, T0, Z0, job=b"N", lwork=1)
    if info != 0 or m != len(mask):
        raise _CandidateFailed(f"schur reordering failed (info={info})")
    return ts, qs


def _cluster_summary(pts, clusters):
    """Centroid (re, |im|) and radius of every cluster, as floats.

    The sums run in numpy's order for a mean over axis 0, and abs(complex)
    is the same libm hypot as np.hypot, so the values equal the array forms.
    """
    summary = []
    for cluster in clusters:
        re, im = pts[cluster[0]]
        for i in cluster[1:]:
            re += pts[i][0]
            im += pts[i][1]
        re /= len(cluster)
        im /= len(cluster)
        radius = max(abs(complex(pts[i][0] - re, pts[i][1] - im)) for i in cluster)
        summary.append((re, im, radius))
    return summary


def _realness_options(summary, level, scale):
    """Per-cluster interpretations to try: real axis class or conjugate pair.

    A defective real eigenvalue perturbs into a tight conjugate pair, so a
    small centroid imaginary part is ambiguous; both readings are produced
    (complex first, the reconstruction residual arbitrates).
    """
    ambiguous_band = max(1e-3 * scale, 10.0 * level)
    options = []
    for _, im, radius in summary:
        if im <= max(4.0 * radius, level):
            options.append((True,))
        elif im <= ambiguous_band:
            options.append((False, True))
        else:
            options.append((False,))
    return options


def _single_block(alg, N, floor):
    """True when a class can only be one block of size 1.

    The chain search would then return the size list (1,) and the lead e0,
    up to a sign that _normalize_similarity removes, so the class takes the
    first column of its Schur basis directly.
    """
    return alg == 1 and not np.linalg.norm(N) > floor


def _extract_candidate(A, T0, Z0, eigs, clusters, level, tol_abs, realness):
    blocks = []
    columns = []  # per block, list of (u, w) complex pairs
    for cluster, real_class in zip(clusters, realness):
        alg = len(cluster) // 2
        if real_class:
            mask = list(cluster)
        else:
            mask = [i for i in cluster if eigs[i].imag > 0]
        want = 2 * alg if real_class else alg
        if len(mask) != want:
            raise _CandidateFailed("conjugate halves of the class are unbalanced")
        T, Z = _reorder_schur(T0, Z0, mask)
        Z1 = Z[:, :want]
        M = T[:want, :want]
        lam_c = np.trace(M) / want
        if real_class:
            lam_c = complex(lam_c.real, 0.0)
        elif lam_c.imag < 0:
            lam_c = lam_c.conjugate()
        N = M - lam_c * np.eye(want)

        floor = max(2.0 * level, tol_abs)
        rep = ClassRep(lam_c.real, abs(lam_c.imag))
        if _single_block(alg, N, floor):
            blocks.append((rep, 1))
            columns.append([_lift_to_quaternionic(Z1[:, 0])])
            continue

        def tau(c, Z1=Z1):
            full = Z1 @ c
            tfull = np.concatenate([full[3:].conj(), -full[:3].conj()])
            return Z1.conj().T @ tfull

        for sizes in _partitions_of(alg):
            try:
                chains = _class_chains(N, sizes, real_class, tau, floor)
            except _CandidateFailed:
                continue
            for size, chain in zip(sizes, chains):
                pairs = [_lift_to_quaternionic(Z1 @ c) for c in chain]
                blocks.append((rep, size))
                columns.append(pairs)
            break
        else:
            raise _CandidateFailed("no chain construction succeeded")

    order = sorted(range(len(blocks)), key=lambda k: _block_sort_key(blocks[k]))
    blocks = [blocks[k] for k in order]
    columns = [columns[k] for k in order]

    S = QMatrix3.zeros()
    col = 0
    for pairs in columns:
        for u, w in pairs:
            S.a[:, col] = u
            S.b[:, col] = w
            col += 1
    if col != 3:
        raise _CandidateFailed("chain columns do not fill H^3")

    data = JordanData(
        blocks=blocks, S=_normalize_similarity(S, blocks), shape_id=_shape_id(blocks), residual=np.inf
    )
    data.residual = conjugation_residual(data.S, data.jordan_matrix(), A)
    return data


def _gauge(heads):
    """Right complex scalar h of each eigenvector (u, w), given as rows [u, w].

    The eigenvector column times h has unit norm and its lead coordinate, the
    first of at least half the largest modulus, on the positive real axis.
    Since (u + w j) h = u h + w conj(h) j, a lead in u takes conj(lead), a
    lead in w takes lead itself.  A zero column takes h = 1.
    """
    flat = heads.reshape(-1, 6)
    mag = np.abs(flat)
    sq = mag * mag
    norms = np.sqrt(sq[:, :3].sum(axis=1) + sq[:, 3:].sum(axis=1))
    first = (mag >= 0.5 * mag.max(axis=1, keepdims=True)).argmax(axis=1)
    rows = np.arange(len(flat))
    denom = mag[rows, first] * norms
    # (re, im) / denom as two real divisions, so h does not depend on how
    # complex division rounds
    lead = flat[rows, first]
    pair = np.where(first < 3, lead.conj(), lead).view(float).reshape(-1, 2)
    pair /= np.where(denom > 0.0, denom, 1.0)[:, None]
    gauge = pair.view(complex)[:, 0]
    gauge[denom == 0.0] = 1.0
    return gauge.reshape(heads.shape[:-1])


def _normalize_similarity(S: QMatrix3, blocks) -> QMatrix3:
    """Deterministic per-block gauge on the similarity transform.

    A whole chain may be rescaled by one right complex scalar without
    disturbing A = S J S^-1 (the scalar block commutes with its Jordan
    block), so each chain is scaled by the _gauge of its eigenvector column.
    """
    sizes = [size for _, size in blocks]
    heads = list(itertools.accumulate([0] + sizes[:-1]))
    gauge = np.repeat(_gauge(np.concatenate([S.a, S.b])[:, heads].T), sizes)
    return QMatrix3(S.a * gauge, S.b * gauge.conj())


# ---------------------------------------------------------------------------
# Sylvester polish


# The 36 real unit directions of H^{3x3} as a stack of blocks, in _vec36 order.
_DIRECTIONS = _blocks36(np.eye(36))
_DIRECTIONS[0].setflags(write=False)
_DIRECTIONS[1].setflags(write=False)


def _sylvester_op(L: QMatrix3, R: QMatrix3) -> np.ndarray:
    """36x36 real matrix of X -> L X - X R in _vec36 coordinates."""
    la, lb = _qmul(L.a, L.b, *_DIRECTIONS)
    ra, rb = _qmul(*_DIRECTIONS, R.a, R.b)
    a, b = la - ra, lb - rb
    return np.stack([a.real, a.imag, b.real, b.imag], axis=-1).reshape(36, 36).T


def _fold_negative_classes(blocks, S):
    """Flip classes whose representative drifted below the real axis.

    Right-multiplying a chain by j conjugates its eigenvalue, so the
    representative convention im >= 0 is restored without disturbing
    A = S J S^-1.
    """
    flip = np.repeat([rep.im < 0.0 for rep, _ in blocks], [size for _, size in blocks])
    fixed = [(ClassRep(rep.re, -rep.im), size) if rep.im < 0.0 else (rep, size)
             for rep, size in blocks]
    return fixed, S.scale_columns(np.where(flip, 0j, 1 + 0j), np.where(flip, 1 + 0j, 0j))


def _sylvester_polish(A: QMatrix3, data: JordanData):
    """Gauss-Newton refinement of (S, class representatives).

    Solves min ||R + JX - XJ - dJ||_F over quaternionic X and per-class
    complex eigenvalue shifts dJ, where R = S^-1 A S - J, then updates
    S <- S (I + X) and the block representatives.  The shift directions let a
    well-conditioned candidate with a slightly wrong representative (e.g. a
    real reading of a tiny-angle class) slide onto the correct orbit.
    """
    best = data

    for _ in range(_POLISH_ITERATIONS):
        J = best.jordan_matrix()
        # class of every block, classes numbered in block order
        classes: dict[ClassRep, int] = {}
        block_class = [classes.setdefault(rep, len(classes)) for rep, _ in best.blocks]
        column_class = np.repeat(block_class, [size for _, size in best.blocks])
        # dJ per class: Re shift on the real direction, Im shift on the i
        # direction of each diagonal entry (k, k), i.e. coordinates 16k, 16k + 1
        shift = np.zeros((36, 2 * len(classes)))
        diagonal = 16 * np.arange(3)
        shift[diagonal, 2 * column_class] = 1.0
        shift[diagonal + 1, 2 * column_class + 1] = 1.0
        R = (inverse(best.S) @ A @ best.S) - J
        op = np.hstack([_sylvester_op(J, J), -shift])
        sol, *_ = np.linalg.lstsq(op, -_vec36(R), rcond=None)
        X = _unvec36(sol[:36])
        shifts = sol[36:].reshape(-1, 2)

        def stepped(fraction):
            new_blocks = []
            for (rep, size), c in zip(best.blocks, block_class):
                d_re, d_im = shifts[c] * fraction
                new_blocks.append((ClassRep(rep.re + float(d_re), rep.im + float(d_im)), size))
            folded_blocks, s_candidate = _fold_negative_classes(
                new_blocks, best.S @ (QMatrix3.identity() + fraction * X)
            )
            cand = JordanData(
                blocks=folded_blocks,
                S=_normalize_similarity(s_candidate, folded_blocks),
                shape_id=best.shape_id,
                residual=np.inf,
            )
            cand.residual = conjugation_residual(cand.S, cand.jordan_matrix(), A)
            return cand

        # Gauss-Newton overshoots near the defective orbit; backtrack
        cand = min((stepped(f) for f in (1.0, 0.5, 0.25)), key=lambda c: c.residual)
        if cand.residual < best.residual * 0.9:
            best = cand
            if best.residual < 1e-13:
                break
        else:
            break
    return best


# ---------------------------------------------------------------------------
# first stage: stacks whose search would have exactly one candidate


def _one_candidate(eigs, tol):
    """Mask of the rows of (N, 6) adjoint eigenvalues whose search has one candidate.

    Every |Im| is above the ambiguous band (one reading: non-real classes),
    every eigenvalue has exactly one other within the search's base level,
    its conjugate partner, and the three pairs are more than
    _MERGE_CAP * scale apart (one cluster partition of three classes, each
    a single block).
    """
    scale = np.maximum(1.0, np.abs(eigs).max(axis=1))[:, None]
    base = max(10.0 * tol, 1e4 * _EPS) * scale  # as in _partitions_from_points
    band = np.maximum(1e-3 * scale, 10.0 * base)  # _realness_options at level base
    height = np.abs(eigs.imag)
    go = (height > band).all(axis=1)
    if not go.any():  # a real class, the common way out, costs no distances
        return go
    pts = eigs.real + 1j * height  # _class_points as complex numbers
    dists = np.abs(pts[:, :, None] - pts[:, None, :])
    near = dists <= base[:, :, None]
    upper = eigs.imag > 0
    partner = (near & (upper[:, :, None] != upper[:, None, :])).any(axis=2)
    apart = (near | (dists > _MERGE_CAP * scale[:, :, None])).all(axis=(1, 2))
    return go & apart & ((near.sum(axis=2) == 2) & partner).all(axis=1)


def _generic_jordan(phis: np.ndarray, tol: float) -> list:
    """Jordan data of each adjoint in an (N, 6, 6) stack, or None.

    The first stage of jordan_form, run on a whole stack at once.  One
    stacked eig decides: a member goes on only when the candidate search
    would have exactly one candidate (_one_candidate).  For those, that
    candidate is built here: each class is the lift of its upper
    eigenvector, in canonical block order and per-block gauge.  A member
    whose adjoint or Phi(S) fails the singular rule, or whose residual is
    above 1e-12 (the search would polish it) or above 1e3 * tol, gets None,
    and jordan_form then runs the search.
    """
    out = [None] * len(phis)
    try:
        eigs, vecs = np.linalg.eig(phis)
    except np.linalg.LinAlgError:  # not finite, or no convergence
        return out
    live = np.flatnonzero(_one_candidate(eigs, tol))
    if not live.size:
        return out
    eigs, vecs = eigs[live], vecs[live]

    rows, cols = np.nonzero(eigs.imag > 0)
    upper = eigs[rows, cols]
    reps = [ClassRep(re, im) for re, im in zip(upper.real.tolist(), upper.imag.tolist())]
    # canonical block order within each member
    order = [sorted(range(3), key=lambda i: _block_sort_key((reps[k + i], 1)))
             for k in range(0, len(reps), 3)]
    pick = (np.array(order) + np.arange(0, len(reps), 3)[:, None]).ravel()
    rows, cols = rows[pick].reshape(-1, 3), cols[pick].reshape(-1, 3)
    lam = eigs[rows, cols]
    heads = vecs[rows, :, cols]  # (member, class, 6): the adjoint eigenvector of each class

    # lift x = p - conj(q) j of each eigenvector (p; q), then gauge it
    u, w = heads[..., :3], -heads[..., 3:].conj()
    gauge = _gauge(np.concatenate([u, w], axis=-1))[:, :, None]
    # the gauged lifts are the columns of S
    sa = np.ascontiguousarray((u * gauge).transpose(0, 2, 1))
    sb = np.ascontiguousarray((w * gauge.conj()).transpose(0, 2, 1))
    phi_a, phi_s = phis[live], _adjoint(sa, sb)
    # one singular rule for Phi(A) and Phi(S) together
    inverses, ok = _invert_adjoints(np.concatenate([phi_a, phi_s]))
    phi_j = np.concatenate([lam, lam.conj()], axis=-1)
    recon = (phi_s * phi_j[:, None, :]) @ inverses[len(live):] - phi_a
    residual = np.sqrt((np.abs(recon) ** 2).sum(axis=(1, 2)) / (np.abs(phi_a) ** 2).sum(axis=(1, 2)))
    keep = ok[:len(live)] & ok[len(live):] & (residual <= min(1e-12, 1e3 * tol))
    for k in np.flatnonzero(keep).tolist():
        blocks = [(reps[3 * k + i], 1) for i in order[k]]
        out[live[k]] = JordanData(blocks=blocks, S=QMatrix3(sa[k], sb[k]), shape_id="diag",
                                  residual=float(residual[k]))
    return out


# ---------------------------------------------------------------------------
# public operations


def jordan_form(A: QMatrix3, tol: float = DEFAULT_TOL) -> JordanData:
    """Jordan data of an invertible A: blocks, similarity S and shape tag.

    Raises IllConditioned when no candidate clustering reconstructs A within
    1e3 * tol relative residual (the best achieved residual is reported).
    """
    phi = A.adjoint()
    _invert_adjoint(phi)  # raises Singular
    try:
        T0, Z0 = sla.schur(phi, output="complex")
    except sla.LinAlgError as exc:
        raise SpectralFailure(f"Schur decomposition of the adjoint failed: {exc}") from exc
    eigs = np.diag(T0).copy()
    # the first stage's test, read off the Schur diagonal the search needs
    # anyway, spares every other input the stage's eig
    if _one_candidate(eigs[None], tol)[0]:
        data = _generic_jordan(phi[None], tol)[0]
        if data is not None:
            return data
    scale = max(1.0, float(np.max(np.abs(eigs))))
    tol_abs = tol * scale

    pts = _class_points(eigs)
    partitions = _partitions_from_points(pts, tol_abs, scale)
    if not partitions:
        raise SpectralFailure("adjoint eigenvalues admit no conjugate-closed clustering")

    # Candidates are scored by residual plus a conditioning penalty: anything
    # conjugated through S (witnesses, canonical factors) picks up roughly
    # eps * cond(Phi(S))^2 of error, so between two reconstructions of similar
    # quality the better-conditioned similarity must win.
    def score(data):
        sv = np.linalg.svd(data.S.adjoint(), compute_uv=False)
        cond = sv[0] / sv[-1]
        return data.residual + 1e-16 * cond * cond

    best = None
    best_score = np.inf
    points = pts.tolist()
    for clusters, level in partitions:
        summary = _cluster_summary(points, clusters)
        for realness in itertools.product(*_realness_options(summary, level, scale)):
            try:
                data = _extract_candidate(A, T0, Z0, eigs, clusters, level, tol_abs, realness)
            except _CandidateFailed:
                continue
            if 1e-12 < data.residual <= 1e-1:
                data = _sylvester_polish(A, data)
            s = score(data)
            if s < best_score:
                best, best_score = data, s
            if best_score < _EARLY_ACCEPT:
                break
        if best_score < _EARLY_ACCEPT:
            break
    if best is None:
        raise SpectralFailure("no eigenvalue clustering produced a Jordan structure")
    best = _merged_classes(A, best, _base_level(tol_abs, scale))

    target = 1e3 * tol
    if not best.residual <= target:
        raise IllConditioned(
            f"Jordan reconstruction residual {best.residual:.3e} exceeds {target:.1e}",
            residual=best.residual,
        )
    return best


def _merged_classes(A: QMatrix3, data: JordanData, base: float) -> JordanData:
    """data with each block's representative replaced by the first earlier one
    within base of it, and the residual of the merged J.

    The early accept can take a finer cluster partition than the merged one,
    so one class may come back split into representatives closer than the
    search's base level.  S and the block order stay as they are.
    """
    reps = []
    for rep, _ in data.blocks:
        reps.append(next((r for r in reps if math.hypot(r.re - rep.re, r.im - rep.im) <= base),
                         rep))
    if reps == [rep for rep, _ in data.blocks]:
        return data
    blocks = [(rep, size) for rep, (_, size) in zip(reps, data.blocks)]
    merged = JordanData(blocks=blocks, S=data.S, shape_id=data.shape_id, residual=np.inf)
    merged.residual = conjugation_residual(data.S, merged.jordan_matrix(), A)
    return merged


def eigenvector_lift(u, v, lam, A: QMatrix3 | None = None, tol: float = DEFAULT_TOL):
    """Lift an adjoint eigenvector (u; v) of eigenvalue lam to x with A x = x lam.

    Returns the quaternionic 3-vector as a list of Quaternion.  When A is
    supplied, the defining residual is checked and LiftFailure raised if it
    exceeds tol relative to |x|.
    """
    u = np.asarray(u, dtype=complex).reshape(3)
    v = np.asarray(v, dtype=complex).reshape(3)
    p, w = _lift_to_quaternionic(np.concatenate([u, v]))
    if A is not None:
        lam = complex(lam)
        au, aw = _apply_qmatrix_to_pair(A, p, w)
        ru = au - p * lam
        rw = aw - w * lam.conjugate()
        denom = max(_pair_norm(p, w), 1e-300) * max(1.0, A.norm())
        if _pair_norm(ru, rw) > tol * denom * 10:
            raise LiftFailure(
                f"lifted vector residual {_pair_norm(ru, rw) / denom:.3e} exceeds tolerance"
            )
    return [Quaternion.from_complex_pair(p[k], w[k]) for k in range(3)]


def minimal_poly_structure(A: QMatrix3, tol: float = DEFAULT_TOL):
    """Real minimal-polynomial factors of A as (irreducible degree, power).

    Each distinct eigenvalue class contributes one factor: (x - lam)^s for a
    real class, (x^2 - 2 Re(lam) x + |lam|^2)^s for a non-real one, where s is
    the class's largest Jordan block.  Returns (factors, d) with
    d = max(degree * power); for real-spectrum matrices d is the largest
    Jordan block size.
    """
    return _minimal_poly_from_data(jordan_form(A, tol), tol)


def _minimal_poly_from_data(data: JordanData, tol: float):
    factors = []
    for rep, sizes in data.class_sizes():
        factors.append((1 if rep.is_real(tol) else 2, max(sizes)))
    d = max(degree * power for degree, power in factors)
    return factors, d
