"""Right eigenvalues, eigenvectors and Jordan form over H for 3x3 matrices.

Everything is computed through the 6x6 complex adjoint.  The right spectrum
of A is read off the adjoint's eigenvalues, which occur in conjugate pairs;
each pair collapses to one quaternionic similarity class.  Jordan structure
is recovered per class from the Schur-restricted operator on the class's
invariant subspace, and quaternionic chain vectors are obtained by lifting
complex chains through x = u - conj(v) * j.

Floating point makes Jordan detection ambiguous: a conjugated Jordan block
has its adjoint eigenvalues split by roughly eps^(1/k), and a defective real
eigenvalue is indistinguishable from a tight conjugate pair.  So the
structure is read before anything is built (_read): the coarsest
single-linkage cluster partition of the adjoint eigenvalues in which every
cluster is one class, read as a real class or a conjugate pair (_one_class).
The read also fixes each class's block sizes: (k, 1, ..., 1), where k is
the nilpotency index of the class's nilpotent part N, found while judging
the class.  The one candidate builds each class's chains with those sizes,
and is polished when its residual needs it.

Both stages run on a whole batch, the CLI's or jordan_form's batch of one,
behind one entry, _jordan_forms: one stacked singular check, then one Schur
form Phi(A) = Z T Z^H per input, which both stages share.  The first stage
(_generic_jordan) takes, by one test of the stacked Schur diagonals
(_one_candidate), the members with three simple non-real classes, builds
their candidate from the upper eigenvectors Z X of the triangular T, and
keeps it only when its residual needs no polish.  Every other member goes to
the read (_read_jordan).  No eig runs on an adjoint, and a batch and a batch
of one run the same code.  Either stage keeps, with S, the S^-1 its residual
was measured with.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .errors import IllConditioned, LiftFailure, Singular, SpectralFailure
from .matrix import (QMatrix3, _adjoint, _blocks36, _conjugation_residuals, _dets_h,
                     _invert_adjoint, _invert_adjoints, _json_matrices, _not_unimodular, _qmul,
                     _stack, _unvec36, _vec36, is_unimodular, require_unimodular)
from .quaternion import DEFAULT_TOL, ClassRep, Quaternion

# Gauss-Newton steps of the Sylvester polish at most.
_POLISH_ITERATIONS = 16
# Largest eigenvalue-gap (relative to spectral scale) that clustering may bridge.
_MERGE_CAP = 3e-2
_EPS = np.finfo(float).eps
_ANALYSED = 4  # inputs whose analysis _analysed keeps, the most recently used


@dataclass(frozen=True)
class JordanData:
    """Jordan blocks, the similarity A = S J S^-1, the S^-1 its residual was
    measured with, and the shape tag."""

    blocks: list  # [(ClassRep, size)], canonical order
    S: QMatrix3
    S_inv: QMatrix3
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


def _jordan_matrices(block_lists) -> np.ndarray:
    """The complex Jordan matrix of each list of blocks, as an (N, 3, 3) stack."""
    J = np.zeros((len(block_lists), 3, 3), dtype=complex)
    for m, blocks in enumerate(block_lists):
        col = 0
        for rep, size in blocks:
            lam = rep.as_complex()
            for k in range(size):
                J[m, col + k, col + k] = lam
                if k > 0:
                    J[m, col + k - 1, col + k] = 1.0
            col += size
    return J


def _assemble_jordan(blocks) -> QMatrix3:
    return QMatrix3.from_complex(_jordan_matrices([blocks])[0])


def _shape_id(blocks) -> str:
    top = max(size for _, size in blocks)
    return {1: "diag", 2: "j2", 3: "j3"}[top]


# ---------------------------------------------------------------------------
# eigenvalue clustering


def _class_points(eigs):
    return np.column_stack([eigs.real, np.abs(eigs.imag)])


def _base_level(tol_abs, scale):
    """The finest merge level: eigenvalues this close are one class; broadcasts."""
    return np.maximum(10.0 * tol_abs, 1e4 * _EPS * scale)


def _ambiguous_band(level, scale):
    """The |Im| up to which a cluster read at merge level level may be a real
    class or a conjugate pair; broadcasts."""
    return np.maximum(1e-3 * scale, 10.0 * level)


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

    # levels rise, so each one merges the pairs the previous one left out; a
    # level that joins no two clusters repeats the partition before it, and
    # one that does gives a coarser partition than every one before it
    label = list(range(n))
    merged = 0
    changed = True  # the first level's partition is new
    out = []
    for level in levels:
        while merged < len(pairs) and pairs[merged][0] <= level:
            _, i, j = pairs[merged]
            keep, drop = label[i], label[j]
            if keep != drop:
                label = [keep if k == drop else k for k in label]
                changed = True
            merged += 1
        if not changed:
            continue
        changed = False
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(label[i], []).append(i)
        clusters = tuple(sorted(tuple(g) for g in groups.values()))
        if any(len(c) % 2 for c in clusters):
            continue
        out.append((clusters, level))
    return out


# ---------------------------------------------------------------------------
# chains within one class's invariant subspace


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
        raise SpectralFailure("no Jordan structure read: empty candidate pool")
    if forbidden_cols.size:
        resid = pool - forbidden_cols @ (forbidden_cols.conj().T @ pool)
    else:
        resid = pool
    _, s, vh = np.linalg.svd(resid, full_matrices=False)
    if s[0] < 1e-8:
        raise SpectralFailure("no Jordan structure read: no independent vector available")
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
        raise SpectralFailure("no Jordan structure read: degenerate chain")
    scale = 1.0 / math.sqrt(nrm_head * nrm_tail)
    return [c * scale for c in chain]


def _class_chains(N, power, sizes, real_class, tau, floor):
    """Complex Jordan chains inside one class subspace.

    Returns one list of vectors per quaternionic block.  Sizes are
    (k, 1, ..., 1) for N's nilpotency index k, so at most one block is
    longer than 1 and it is built first, with no chain before it, from the
    leads power = N^(k-1) maps furthest.  For real classes the complex
    structure is doubled, so newly picked vectors must stay independent of
    the tau-images (quaternionic structure map) of everything already used.
    """
    chains = []
    if sizes[0] > 1:
        for lead in np.linalg.svd(power)[2].conj():  # candidate leads, dominant image first
            try:
                chain = _chain_from_lead(N, lead, sizes[0])
            except SpectralFailure:
                continue
            cols = chain + [tau(c) for c in chain] if real_class else chain
            s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
            if s[-1] > 1e-6 * s[0]:
                chains.append(chain)
                break
        else:
            raise SpectralFailure("no Jordan structure read: no usable chain lead")
    dim = N.shape[0]
    for _ in sizes[len(chains):]:
        pool = _kernel_basis(N, floor) if np.linalg.norm(N) > floor else np.eye(dim, dtype=complex)
        if pool.shape[1] == 0:
            pool = np.eye(dim, dtype=complex)
        forb = [c for chain in chains for c in chain]
        if real_class:
            forb += [tau(c) for c in forb]
        chains.append([_pick_independent(pool, _orth_columns(forb))])
    return chains


# ---------------------------------------------------------------------------
# the one candidate, built from the read


def _lift_to_quaternionic(full):
    """C^6 -> H^3 with x = p - conj(q) j, as the complex pair (u, w)."""
    return full[:3], -full[3:].conj()


def _reorder_schur(T0, Z0, mask):
    """Move the masked diagonal positions of a complex Schur form to the front."""
    select = np.zeros(T0.shape[0], dtype=np.int32)
    select[list(mask)] = 1
    ts, qs, _, m, _, _, info = sla.lapack.ztrsen(select, T0, Z0, job=b"N", lwork=1)
    if info != 0 or m != len(mask):
        raise SpectralFailure(f"no Jordan structure read: schur reordering failed (info={info})")
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
    small centroid imaginary part is ambiguous; both readings are produced,
    real first, the order _read tries them in.
    """
    ambiguous_band = _ambiguous_band(level, scale)
    options = []
    for _, im, radius in summary:
        if im <= max(4.0 * radius, level):
            options.append((True,))
        elif im <= ambiguous_band:
            options.append((True, False))
        else:
            options.append((False,))
    return options


def _single_block(alg, N, floor):
    """True when a class can only be one block of size 1.

    The chain construction would then return the size list (1,) and the lead
    e0, up to a sign that _gauged removes, so the class takes the first
    column of its Schur basis directly.
    """
    return alg == 1 and not np.linalg.norm(N) > floor


def _class_mask(eigs, cluster, real_class):
    """Schur positions that span a class: the whole cluster for a real class,
    its upper half for a conjugate pair; None when the halves are unbalanced."""
    mask = cluster if real_class else tuple(i for i in cluster if eigs[i].imag > 0)
    return mask if real_class or 2 * len(mask) == len(cluster) else None


def _class_block(T, want, real_class):
    """Representative lam and nilpotent part N = M - lam I of the leading
    want x want block M of a reordered Schur form."""
    M = T[:want, :want]
    lam = np.trace(M) / want
    if real_class:
        lam = complex(lam.real, 0.0)
    elif lam.imag < 0:
        lam = lam.conjugate()
    return lam, M - lam * np.eye(want)


def _norm2(m):
    return np.linalg.svd(m, compute_uv=False)[0]


def _one_class(N, alg, floor, backward, base):
    """(k, N^(k-1)) when N = M - lam I, the block of a class of multiplicity
    alg, is one class, else None.

    k is N's nilpotency index, the least power <= alg with ||N^k|| <= floor,
    so ||N^(k-1)|| > floor when k > 1; for k = 1, None stands for N^0.  The
    block is one class when its diagonal spreads no further than the base
    level, or than 2 (backward ||N||^(k-1))^(1/k), the split of a Jordan
    block of index k under the backward error.  Two distinct classes split
    by their distance.
    """
    nu = norm = _norm2(N)
    k, lead, power = 1, None, N
    while k < alg and norm > floor:
        lead, power = power, power @ N
        norm = _norm2(power)
        k += 1
    if np.abs(np.diag(N)).max() <= max(base, 2.0 * (backward * nu ** (k - 1)) ** (1.0 / k)):
        return k, lead
    return None


def _read(eigs, partitions, pts, scale, tol_abs, backward, front):
    """(floor, classes) of the coarsest cluster partition that reads as one
    class per cluster.

    A cluster takes the first of its readings, real before complex, whose
    halves balance and that is one class: a lone eigenvalue pair with one
    reading is, any other must pass _one_class on its block of the Schur
    form that front reorders to put the class first.  Each class comes as
    (real_class, lam, N, Z1, alg, sizes, power): its reading, the lam and N
    of its block, the Schur basis Z1 of that block, its multiplicity, its
    block sizes (k, 1, ..., 1) and N^(k-1), from its nilpotency index k.
    """
    points = pts.tolist()
    base = _base_level(tol_abs, scale)
    for clusters, level in reversed(partitions):
        floor = max(2.0 * level, tol_abs)
        classes = []
        for cluster, options in zip(clusters, _realness_options(
                _cluster_summary(points, clusters), level, scale)):
            alg = len(cluster) // 2
            for real_class in options:
                mask = _class_mask(eigs, cluster, real_class)
                if mask is None:
                    continue
                T, Z = front(mask)
                lam, N = _class_block(T, len(mask), real_class)
                index = (1, None) if alg == 1 and len(options) == 1 else _one_class(
                    N, alg, floor, backward, base)
                if index is not None:
                    k, power = index
                    classes.append((real_class, lam, N, Z[:, :len(mask)], alg,
                                    (k,) + (1,) * (alg - k), power))
                    break
            else:
                break
        else:
            return floor, classes
    raise SpectralFailure(
        "no Jordan structure read: no cluster partition reads as one class per cluster")


def _build_candidate(floor, classes):
    """The raw (blocks, S) of the read's classes: the chains of each class,
    built with its block sizes in its Schur block and lifted to H^3, in
    canonical block order and not yet gauged."""
    blocks = []
    columns = []  # per block, list of (u, w) complex pairs
    for real_class, lam_c, N, Z1, alg, sizes, power in classes:
        rep = ClassRep(lam_c.real, abs(lam_c.imag))
        if _single_block(alg, N, floor):
            blocks.append((rep, 1))
            columns.append([_lift_to_quaternionic(Z1[:, 0])])
            continue

        def tau(c, Z1=Z1):
            full = Z1 @ c
            tfull = np.concatenate([full[3:].conj(), -full[:3].conj()])
            return Z1.conj().T @ tfull

        for size, chain in zip(sizes, _class_chains(N, power, sizes, real_class, tau, floor)):
            blocks.append((rep, size))
            columns.append([_lift_to_quaternionic(Z1 @ c) for c in chain])

    order = sorted(range(len(blocks)), key=lambda k: _block_sort_key(blocks[k]))
    blocks = [blocks[k] for k in order]
    pairs = [pair for k in order for pair in columns[k]]
    return blocks, QMatrix3(np.column_stack([u for u, _ in pairs]),
                            np.column_stack([w for _, w in pairs]))


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


def _gauged(sa, sb, sizes):
    """Per-block gauge on a stack of similarities (sa, sb), (N, 3, 3) each,
    where sizes[m] lists the block sizes of member m.

    A whole chain may be rescaled by one right complex scalar without
    disturbing A = S J S^-1 (the scalar block commutes with its Jordan
    block), so each chain is scaled by the _gauge of its eigenvector column.
    """
    members = [m for m, member in enumerate(sizes) for _ in member]
    heads = [h for member in sizes for h in itertools.accumulate([0] + member[:-1])]
    gauge = _gauge(np.concatenate([sa, sb], axis=1)[members, :, heads])
    scale = np.repeat(gauge, [size for member in sizes for size in member]).reshape(-1, 1, 3)
    return sa * scale, sb * scale.conj()


def _jordan_datas(block_lists, sa, sb, ma, mb) -> list:
    """The JordanData of each candidate: blocks from block_lists, S the
    similarity of the stacks (sa, sb) after one _gauged, and its residual
    against the input of the stacks (ma, mb), with the S^-1 it was measured
    with, from one _conjugation_residuals."""
    sa, sb = _gauged(sa, sb, [[size for _, size in blocks] for blocks in block_lists])
    J = _jordan_matrices(block_lists)
    residuals, inverses = _conjugation_residuals(sa, sb, J, np.zeros_like(J), ma, mb)
    return [JordanData(blocks=blocks, S=QMatrix3(sa[m], sb[m]),
                       S_inv=QMatrix3.from_adjoint(inverses[m]), shape_id=_shape_id(blocks),
                       residual=residual)
            for m, (blocks, residual) in enumerate(zip(block_lists, residuals.tolist()))]


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
        R = (best.S_inv @ A @ best.S) - J
        op = np.hstack([_sylvester_op(J, J), -shift])
        sol, *_ = np.linalg.lstsq(op, -_vec36(R), rcond=None)
        X = _unvec36(sol[:36])
        shifts = sol[36:].reshape(-1, 2)

        # Gauss-Newton overshoots near the defective orbit; backtrack, judging
        # the three step lengths as one stack
        steps = [_fold_negative_classes(
                     [(ClassRep(rep.re + float(d_re), rep.im + float(d_im)), size)
                      for (rep, size), (d_re, d_im) in zip(best.blocks, shifts[block_class] * f)],
                     best.S @ (QMatrix3.identity() + f * X))
                 for f in (1.0, 0.5, 0.25)]
        cand = min(_jordan_datas([blocks for blocks, _ in steps], *_stack([S for _, S in steps]),
                                 *_stack([A] * len(steps))),
                   key=lambda c: c.residual)
        if cand.residual < best.residual * 0.9:
            best = cand
            if best.residual < 1e-13:
                break
        else:
            break
    return best


# ---------------------------------------------------------------------------
# first stage: stacks of three simple non-real classes


def _one_candidate(eigs, tol):
    """Mask of the rows of (N, 6) adjoint eigenvalues read as three simple non-real classes.

    Every |Im| is above the ambiguous band (one reading: non-real classes),
    every eigenvalue has exactly one other within the base level,
    its conjugate partner, and the three pairs are more than
    _MERGE_CAP * scale apart (one cluster partition of three classes, each
    a single block).
    """
    scale = np.maximum(1.0, np.abs(eigs).max(axis=1))[:, None]
    base = _base_level(tol * scale, scale)
    band = _ambiguous_band(base, scale)
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


def _triangular_eigenvectors(T):
    """Unit upper-triangular X with T X = X diag(T), for an (N, 6, 6) stack of
    upper-triangular T with distinct diagonals, by back substitution one row
    of the stack at a time: X[j, i] (lam_i - lam_j) = T[j, j+1:] X[j+1:, i]."""
    lam = np.diagonal(T, axis1=1, axis2=2)
    gaps = lam[:, None, :] - lam[:, :, None]
    X = np.eye(6, dtype=complex) * np.ones((len(T), 1, 1))
    for j in range(4, -1, -1):
        X[:, j, j + 1:] = (T[:, j, None, j + 1:] @ X[:, j + 1:, j + 1:])[:, 0] / gaps[:, j, j + 1:]
    return X


def _generic_jordan(phis: np.ndarray, T: np.ndarray, Z: np.ndarray, tol: float) -> list:
    """Jordan data of each adjoint in an (N, 6, 6) stack, or None.

    The first stage, on adjoints that pass the singular rule and their
    stacked Schur forms phis = Z T Z^H.  A member goes on only when the read
    of its Schur diagonal is three simple non-real classes (_one_candidate);
    each class is then the lift of its upper eigenvector, in canonical block
    order and per-block gauge.  A member whose Phi(S) fails the singular
    rule, or whose residual is above 1e-12 (the read would polish it) or
    1e3 * tol, gets None, and goes to the read.
    """
    out = [None] * len(phis)
    eigs = np.diagonal(T, axis1=1, axis2=2)
    live = np.flatnonzero(_one_candidate(eigs, tol))
    if not live.size:
        return out
    eigs = eigs[live]
    vecs = Z[live] @ _triangular_eigenvectors(T[live])

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
    inverses, ok = _invert_adjoints(phi_s)
    phi_j = np.concatenate([lam, lam.conj()], axis=-1)
    recon = (phi_s * phi_j[:, None, :]) @ inverses - phi_a
    residual = np.sqrt((np.abs(recon) ** 2).sum(axis=(1, 2)) / (np.abs(phi_a) ** 2).sum(axis=(1, 2)))
    keep = ok & (residual <= min(1e-12, 1e3 * tol))
    # S^-1 is the top blocks of Phi(S)^-1, taken for the stack at once
    ia, ib = np.ascontiguousarray(inverses[:, :3, :3]), np.ascontiguousarray(inverses[:, :3, 3:])
    for k in np.flatnonzero(keep).tolist():
        blocks = [(reps[3 * k + i], 1) for i in order[k]]
        out[live[k]] = JordanData(blocks=blocks, S=QMatrix3(sa[k], sb[k]),
                                  S_inv=QMatrix3(ia[k], ib[k]),
                                  shape_id="diag", residual=float(residual[k]))
    return out


# ---------------------------------------------------------------------------
# the structure read, run on a batch


def _schur(phi):
    """Complex Schur form (T, Z) of one adjoint; raises SpectralFailure.

    Unsorted zgees with its default workspace: bitwise the (T, Z) of
    sla.schur(phi, output="complex"), less its workspace query and checks."""
    T, _, _, Z, _, info = sla.lapack.zgees(lambda lam: False, phi)
    if info != 0:
        raise SpectralFailure(f"Schur decomposition of the adjoint failed (info={info})")
    return T, Z


def _candidate(T0, Z0, backward, tol):
    """The raw (blocks, S) of the one candidate the read of a Schur form
    (T0, Z0) builds, given the backward error 1e4 eps ||Phi(A)||_2."""
    eigs = np.diag(T0).copy()
    scale = max(1.0, float(np.max(np.abs(eigs))))
    tol_abs = tol * scale
    pts = _class_points(eigs)
    partitions = _partitions_from_points(pts, tol_abs, scale)
    if not partitions:
        raise SpectralFailure("adjoint eigenvalues admit no conjugate-closed clustering")

    # Schur forms with a class in front, each reordered once however many
    # partitions the read tries its cluster in
    front = functools.cache(lambda mask: _reorder_schur(T0, Z0, mask))
    return _build_candidate(*_read(eigs, partitions, pts, scale, tol_abs, backward, front))


def _accepted(A: QMatrix3, data: JordanData, tol: float) -> JordanData:
    """The candidate data, polished when its residual needs it; raises
    IllConditioned when it still misses 1e3 * tol."""
    if 1e-12 < data.residual <= 1e-1:
        data = _sylvester_polish(A, data)
    target = 1e3 * tol
    if not data.residual <= target:
        raise IllConditioned(
            f"Jordan reconstruction residual {data.residual:.3e} exceeds {target:.1e}",
            residual=data.residual,
        )
    return data


def _read_jordan(As, phis, T, Z, tol) -> list:
    """Jordan data of each input in As, or the exception the read raises on it.

    The structure read, on a non-empty batch of inputs that pass the singular
    rule, with the stacks of their adjoints phis and Schur forms (T, Z).  One
    stacked SVD gives ||Phi(A)||_2 of every member.  The read and the lift of
    its chains run per member; then one _jordan_datas builds the data of
    every candidate.  Each member is then polished when needed and gated by
    itself.  Any exception, a QprojError or not, is kept in its member's
    slot, for the caller to raise when it reaches that member.
    """
    out = [None] * len(As)
    backward = 1e4 * _EPS * np.linalg.svd(phis, compute_uv=False)[:, 0]
    built = []  # (member, blocks, raw S)
    for k, bound in enumerate(backward):
        try:
            built.append((k, *_candidate(T[k], Z[k], bound, tol)))
        except Exception as exc:
            out[k] = exc
    if not built:
        return out

    members = [k for k, _, _ in built]
    datas = _jordan_datas([blocks for _, blocks, _ in built], *_stack([S for _, _, S in built]),
                          phis[members, :3, :3], phis[members, :3, 3:])
    for k, data in zip(members, datas):
        try:
            out[k] = _accepted(As[k], data, tol)
        except Exception as exc:
            out[k] = exc
    return out


# ---------------------------------------------------------------------------
# public operations


def _jordan_forms(As, tol: float) -> list:
    """The JordanData of each A in As, or the exception it raises, in its slot.

    One stacked singular check covers the batch; a member that fails it gets
    the Singular of _invert_adjoint on it alone.  Every other member is put in
    Schur form once (a failure stays in its slot); one _generic_jordan takes
    the members it can, and one _read_jordan reads the rest from the same
    Schur forms.  A batch of one runs the same code, so a member gets the
    data it gets alone.
    """
    phis = _adjoint(*_stack(As))
    out = [None] * len(As)
    _, ok = _invert_adjoints(phis)
    live, schurs = [], []
    for k, (phi, passed) in enumerate(zip(phis, ok.tolist())):
        try:
            if not passed:
                _invert_adjoint(phi)
            schurs.append(_schur(phi))
            live.append(k)
        except (Singular, SpectralFailure) as exc:
            out[k] = exc
    T = np.array([t for t, _ in schurs], dtype=complex).reshape(-1, 6, 6)
    Z = np.array([z for _, z in schurs], dtype=complex).reshape(-1, 6, 6)
    first = _generic_jordan(phis[live], T, Z, tol)
    read = [m for m, data in enumerate(first) if data is None]
    members = [live[m] for m in read]
    rest = (_read_jordan([As[k] for k in members], phis[members], T[read], Z[read], tol)
            if read else [])
    for k, data in zip(live + members, first + rest):  # the read fills the Nones
        out[k] = data
    return out


def jordan_form(A: QMatrix3, tol: float = DEFAULT_TOL) -> JordanData:
    """Jordan data of an invertible A: blocks, similarity S and shape tag.

    A batch of one of _jordan_forms.  Raises Singular when Phi(A) fails the
    singular rule, IllConditioned when the one candidate of the structure
    read does not reconstruct A within 1e3 * tol relative residual (the
    residual is reported), and SpectralFailure when the read finds no
    structure or its chains cannot be built.
    """
    (data,) = _jordan_forms([A], tol)
    if isinstance(data, Exception):
        raise data
    return data


def _analyses(As, tol: float) -> list:
    """What require_unimodular and then jordan_form give each A in As, its
    JordanData or the exception, in its slot: one stacked det_h gate, then one
    _jordan_forms on the members that pass it.  The batch entry of the CLI and
    of verify; _analysis is its batch of one, written out."""
    out = [None if is_unimodular(d, tol) else _not_unimodular(d, tol)
           for d in _dets_h(*_stack(As)).tolist()]
    live = [k for k, failure in enumerate(out) if failure is None]
    for k, data in zip(live, _jordan_forms([As[k] for k in live], tol)):
        out[k] = data
    return out


def _analysed(A: QMatrix3, tol: float) -> JordanData:
    """require_unimodular(A, tol), then jordan_form(A, tol), kept for the last
    _ANALYSED inputs the report functions saw, keyed on content, (A.a.tobytes(),
    A.b.tobytes(), float(tol)), not on the mutable A.  _analysis rebuilds A from the
    key alone: a pure, thread-safe function of it that keeps no error.  The data is
    shared, so read-only (frozen, blocks a tuple, S, S^-1 unwritable); callers get copies."""
    return _analysis(A.a.tobytes(), A.b.tobytes(), float(tol))


@functools.lru_cache(maxsize=_ANALYSED)
def _analysis(a: bytes, b: bytes, tol: float) -> JordanData:
    A = QMatrix3(*(np.frombuffer(z, dtype=complex).reshape(3, 3) for z in (a, b)))
    require_unimodular(A, tol)
    data = jordan_form(A, tol)
    for z in (data.S.a, data.S.b, data.S_inv.a, data.S_inv.b):
        z.flags.writeable = False
    return replace(data, blocks=tuple(data.blocks))


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
        # A x - x lam, with A x = (a p - b conj(w)) + (a w + b conj(p)) j
        residual = np.concatenate([A.a @ p - A.b @ w.conj() - p * lam,
                                   A.a @ w + A.b @ p.conj() - w * lam.conjugate()])
        ratio = np.linalg.norm(residual) / (max(np.linalg.norm(np.concatenate([p, w])), 1e-300)
                                            * max(1.0, A.norm()))
        if ratio > 10 * tol:
            raise LiftFailure(f"lifted vector residual {ratio:.3e} exceeds tolerance")
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
