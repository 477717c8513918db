import numpy as np
import pytest

from qproj import (
    ClassRep,
    LiftFailure,
    NotUnimodular,
    QMatrix3,
    QprojError,
    Quaternion,
    Singular,
    SpectralFailure,
    eigenvector_lift,
    inverse,
    jordan_form,
    minimal_poly_structure,
)
from qproj import matrix, spectral
from qproj.classify import _classify_from_jordan
from qproj.decompose import _decompositions_from_data
from qproj.generate import (
    DYNAMICAL_TYPES,
    conjugated,
    generate,
    negative_shape,
    nonreversible_shape,
    nonstrong_shape,
    random_conjugator,
    reversible_shape,
    strong_shape,
)
from qproj.reversibility import _psls_from_data
from qproj.spectral import (
    _MERGE_CAP,
    _class_points,
    _cluster_summary,
    _partitions_from_points,
    _realness_options,
    _sylvester_op,
    _unvec36,
    _vec36,
)

from oracles import (cluster_readings_numpy, cluster_summary_numpy, conditioned_conjugator,
                     normalize_similarity_loop, partitions_per_level, scale_columns_loop,
                     sylvester_matrix)
from test_cli import counted_everywhere
from test_matrix import random_qmatrix

J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)
e = lambda t: np.exp(1j * t)


def j2(lam, xi):
    return QMatrix3.from_complex([[lam, 1, 0], [0, lam, 0], [0, 0, xi]])


def j3(lam):
    return QMatrix3.from_complex([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])


def right_eigenvalues(a):
    """The eigenvalue classes of a in its Jordan data, as sorted (re, im, alg
    mult, geo mult): a class's multiplicities are its block sizes' sum and count."""
    return sorted((round(rep.re, 6), round(rep.im, 6), sum(sizes), len(sizes))
                  for rep, sizes in jordan_form(a).class_sizes())


def test_right_eigenvalues_examples():
    # diag(j, k, 1): j and k share the class of i
    assert right_eigenvalues(QMatrix3.diag(J, K, 1)) == [(0.0, 1.0, 2, 2), (1.0, 0.0, 1, 1)]

    ((rep, sizes),) = jordan_form(j3(1j)).class_sizes()
    assert rep.isclose(ClassRep(0.0, 1.0), 1e-9)
    assert sizes == [3]

    got = right_eigenvalues(QMatrix3.diag(2, 0.5, 1))
    assert got == [(0.5, 0.0, 1, 1), (1.0, 0.0, 1, 1), (2.0, 0.0, 1, 1)]


def test_right_eigenvalues_requires_invertible():
    with pytest.raises(Singular):
        jordan_form(QMatrix3.zeros())


def test_jordan_examples():
    data = jordan_form(QMatrix3.diag(e(np.pi / 3), e(np.pi / 4), e(np.pi / 5)))
    assert data.shape_id == "diag"
    assert data.residual < 1e-12

    data = jordan_form(QMatrix3.from_complex([[2, 1, 0], [0, 2, 0], [0, 0, 0.25]]))
    assert data.shape_id == "j2"
    assert [(round(r.re, 9), s) for r, s in data.blocks] == [(2.0, 2), (0.25, 1)]


def test_jordan_roundtrip_j3(rng):
    for _ in range(20):
        a, _ = conjugated(j3(1j), rng)
        data = jordan_form(a)
        assert data.shape_id == "j3"
        assert len(data.blocks) == 1
        assert data.blocks[0][0].isclose(ClassRep(0.0, 1.0), 1e-6)
        assert data.residual < 1e-8


def test_jordan_reconstruction_random_families(rng):
    canon = [
        QMatrix3.diag(e(1.1), e(0.4), e(2.2)),
        QMatrix3.diag(2 * e(0.9), 0.5 * e(0.9), e(1.3)),
        j2(e(0.8), e(2.0)),
        j3(e(1.4)),
        j2(2 * e(0.5), 0.25 * e(1.0)),
        QMatrix3.diag(J, K, 1),
    ]
    for m in canon:
        for _ in range(10):
            a, _ = conjugated(m, rng)
            data = jordan_form(a)
            recon = data.S @ data.jordan_matrix() @ inverse(data.S)
            assert (a - recon).norm() / a.norm() < 1e-8


def test_jordan_class_invariance(rng):
    m = QMatrix3.diag(2 * e(0.9), 0.5 * e(0.9), e(1.3))
    base = right_eigenvalues(m)
    for _ in range(20):
        a, _ = conjugated(m, rng)
        got = right_eigenvalues(a)
        for (r1, i1, a1, g1), (r2, i2, a2, g2) in zip(base, got):
            assert abs(r1 - r2) < 1e-7 and abs(i1 - i2) < 1e-7
            assert (a1, g1) == (a2, g2)


def test_jordan_recovers_every_block_size_partition(rng):
    # (class, its block sizes): (1), (1, 1), (2), (1, 1, 1), (2, 1) and (3),
    # each on a real and on a non-real class
    lam, xi = 1.6 * e(0.9), e(2.1) / 1.6**2
    cases = [
        (QMatrix3.identity(), [(1, [1, 1, 1])]),
        (j2(1, 1), [(1, [2, 1])]),
        (j3(1), [(1, [3])]),
        (QMatrix3.diag(2, 2, 0.25), [(2, [1, 1]), (0.25, [1])]),
        (j2(2, 0.25), [(2, [2]), (0.25, [1])]),
        (QMatrix3.diag(e(0.9), e(0.9), e(0.9)), [(e(0.9), [1, 1, 1])]),
        (j2(e(0.9), e(0.9)), [(e(0.9), [2, 1])]),
        (j3(e(0.9)), [(e(0.9), [3])]),
        (QMatrix3.diag(lam, lam, xi), [(lam, [1, 1]), (xi, [1])]),
        (j2(lam, xi), [(lam, [2]), (xi, [1])]),
    ]
    for canon, want in cases:
        for _ in range(8):
            a, _ = conjugated(canon, rng)
            got = jordan_form(a).class_sizes()
            assert len(got) == len(want)
            for value, sizes in want:
                rep = ClassRep(complex(value).real, abs(complex(value).imag))
                assert [s for r, s in got if r.isclose(rep, 1e-6)] == [sizes]


def test_adjoint_eigenvalues_pair_up(rng):
    for _ in range(200):
        g = random_conjugator(rng)
        eigs = np.linalg.eigvals(g.adjoint())
        folded = sorted(zip(eigs.real.round(6), np.abs(eigs.imag).round(6)))
        for k in range(0, 6, 2):
            p, q = folded[k], folded[k + 1]
            assert abs(p[0] - q[0]) < 1e-4 and abs(p[1] - q[1]) < 1e-4


def test_dimension_law():
    # complex kernel of (Phi - lam I) is 2x geo mult for real classes,
    # 1x for non-real classes
    a = QMatrix3.identity()
    phi = a.adjoint()
    k = np.sum(np.linalg.svd(phi - np.eye(6), compute_uv=False) < 1e-9)
    assert k == 6  # 2 * geo(=3)

    a = QMatrix3.diag(J, 1, 1)
    phi = a.adjoint()
    k = np.sum(np.linalg.svd(phi - 1j * np.eye(6), compute_uv=False) < 1e-9)
    assert k == 1  # geo of class [i] is 1

    assert right_eigenvalues(QMatrix3.diag(J, 1, 1)) == [(0.0, 1.0, 1, 1), (1.0, 0.0, 2, 2)]


def test_eigenvector_lift_examples():
    a = QMatrix3.diag(1j, 1, 1)
    x = eigenvector_lift([1, 0, 0], [0, 0, 0], 1j, A=a)
    assert x[0].isclose(Quaternion(1))

    # solve Phi(A) w = i w directly for A = diag(j, 1, 1), then lift
    a = QMatrix3.diag(J, 1, 1)
    phi = a.adjoint()
    w, v = np.linalg.eig(phi)
    idx = int(np.argmin(np.abs(w - 1j)))
    vec = v[:, idx]
    x = eigenvector_lift(vec[:3], vec[3:], w[idx], A=a, tol=1e-9)
    # residual check is inside eigenvector_lift; also confirm x is nonzero
    assert sum(q.norm() for q in x) > 1e-6


def test_eigenvector_lift_random_conjugate(rng):
    m = QMatrix3.diag(1j, 1, 1)
    for _ in range(50):
        a, _ = conjugated(m, rng)
        phi = a.adjoint()
        w, v = np.linalg.eig(phi)
        idx = int(np.argmin(np.abs(w - 1j)))
        x = eigenvector_lift(v[:3, idx], v[3:, idx], w[idx], A=a, tol=1e-9)
        assert sum(q.norm() for q in x) > 1e-8


def test_eigenvector_lift_failure():
    a = QMatrix3.diag(1j, 1, 1)
    with pytest.raises(LiftFailure):
        eigenvector_lift([0, 1, 0], [0, 0, 0], 1j, A=a)  # eigenvector of 1, not i


def test_is_diagonalizable_examples():
    # diagonalizable iff every Jordan block has size 1
    for a, diagonalizable in ((QMatrix3.diag(J, K, 1), True), (j2(1, 1), False),
                              (j3(1j), False)):
        assert all(size == 1 for _, size in jordan_form(a).blocks) is diagonalizable


def test_minimal_poly_examples():
    factors, d = minimal_poly_structure(j2(1, 1))
    assert factors == [(1, 2)] and d == 2
    factors, d = minimal_poly_structure(j3(1))
    assert factors == [(1, 3)] and d == 3
    factors, d = minimal_poly_structure(QMatrix3.diag(-1, -1, 1))
    assert sorted(factors) == [(1, 1), (1, 1)] and d == 1
    # non-real class contributes an irreducible quadratic
    factors, d = minimal_poly_structure(QMatrix3.diag(1j, 1j, 1))
    assert sorted(factors) == [(1, 1), (2, 1)] and d == 2


def test_jordan_canonical_order(rng):
    # descending size, then modulus, then ascending angle
    a, _ = conjugated(QMatrix3.diag(2 * e(0.9), 0.5 * e(0.9), e(1.3)), rng)
    data = jordan_form(a)
    mods = [rep.modulus() for rep, _ in data.blocks]
    assert mods == sorted(mods, reverse=True)

    a, _ = conjugated(j2(e(0.8), e(2.0)), rng)
    data = jordan_form(a)
    assert [s for _, s in data.blocks] == [2, 1]

    # classes of one modulus come out in angle order, whatever rounding
    # noise their moduli carry, through the first stage and the read alike
    for a in [generate("regular-elliptic", rng=rng).matrix for _ in range(20)]:
        for data in (jordan_form(a), first_stage([a])[0]):
            angles = [rep.angle() for rep, _ in data.blocks]
            assert angles == sorted(angles)


def test_jordan_determinism(rng):
    a, _ = conjugated(j2(e(0.8), e(2.0)), rng)
    d1 = jordan_form(a)
    d2 = jordan_form(a)
    assert (d1.S - d2.S).norm() == 0.0
    assert d1.blocks == d2.blocks


def test_jordan_serialization(rng):
    a, _ = conjugated(QMatrix3.diag(J, K, 1), rng)
    data = jordan_form(a)
    d = data.to_json_dict()
    assert d["shape"] == "diag"
    assert len(d["blocks"]) == 3
    assert QMatrix3.from_json_dict(d["S"]).isclose(data.S)


def test_sylvester_op_matches_direction_loop(rng):
    pairs = [(random_qmatrix(rng), random_qmatrix(rng)) for _ in range(5)]
    for shape in (j2(e(0.8), e(2.0)), j3(2 * e(1.4))):
        jm = jordan_form(shape).jordan_matrix()
        pairs.append((jm, jm))
    for L, R in pairs:
        assert np.array_equal(_sylvester_op(L, R), sylvester_matrix(L, R))


def test_unvec36_roundtrip(rng):
    for _ in range(5):
        m = random_qmatrix(rng)
        back = _unvec36(_vec36(m))
        assert np.array_equal(back.a, m.a) and np.array_equal(back.b, m.b)
        v = rng.standard_normal(36)
        assert np.array_equal(_vec36(_unvec36(v)), v)


def test_partitions_match_per_level_union_find(rng):
    point_sets = []
    for type_name in ("vertical-translation", "ellipto-parabolic", "loxo-parabolic",
                      "identity", "regular-elliptic"):
        for seed in range(3):
            eigs = np.linalg.eigvals(generate(type_name, seed=seed).matrix.adjoint())
            point_sets.append(_class_points(eigs))
    for _ in range(20):
        # three tight clusters of two at random spacings exercise every merge order
        centres = rng.uniform(-1.0, 1.0, (3, 2))
        spread = 10.0 ** rng.uniform(-8, -2, (3, 1))
        point_sets.append(np.repeat(centres, 2, axis=0) + np.repeat(spread, 2, axis=0)
                          * rng.standard_normal((6, 2)))
    for pts in point_sets:
        for tol_abs in (1e-9, 1e-4):
            got = _partitions_from_points(pts, tol_abs, 1.0)
            assert got == partitions_per_level(pts, tol_abs, 1.0, _MERGE_CAP)


SHAPE_SAMPLERS = (
    (reversible_shape, ("i", "ii", "iii", "iv")),
    (strong_shape, ("i", "ii", "iii", "iv")),
    (nonstrong_shape, ("1", "2", "3", "5", "6", "7", "8")),
    (negative_shape, ("i", "ii", "iii", "iv")),
    (nonreversible_shape, ("1", "2")),
)


def type_and_shape_samples():
    """Seeded samples of every generator type and shape family, canonical and conjugated."""
    rng = np.random.default_rng(11)
    mats = []
    for type_name in DYNAMICAL_TYPES:
        for seed in range(3):
            inst = generate(type_name, seed=seed)
            mats += [inst.matrix, inst.canonical]
    for sampler, kinds in SHAPE_SAMPLERS:
        for kind in kinds:
            for _ in range(2):
                canon = sampler(kind, rng)
                mats += [conjugated(canon, rng)[0], canon]
    return mats


def read_only(monkeypatch):
    """Switch off jordan_form's first stage, so every input goes through the structure read."""
    monkeypatch.setattr(spectral, "_generic_jordan", lambda phis, T, Z, tol: [None] * len(phis))


def first_stage(mats, tol=1e-9):
    """spectral._generic_jordan on the adjoints of mats and their Schur forms."""
    phis = np.array([m.adjoint() for m in mats], dtype=complex).reshape(-1, 6, 6)
    schurs = [spectral._schur(phi) for phi in phis]
    T = np.array([t for t, _ in schurs], dtype=complex).reshape(-1, 6, 6)
    Z = np.array([z for _, z in schurs], dtype=complex).reshape(-1, 6, 6)
    return spectral._generic_jordan(phis, T, Z, tol)


def test_single_block_shortcut_matches_chain_construction(monkeypatch):
    samples = type_and_shape_samples()
    read_only(monkeypatch)
    taken = []
    single_block = spectral._single_block

    def recording(alg, N, floor):
        hit = single_block(alg, N, floor)
        taken.append((hit, N.shape[0]))
        return hit

    monkeypatch.setattr(spectral, "_single_block", recording)
    fast = [jordan_form(m) for m in samples]
    monkeypatch.setattr(spectral, "_single_block", lambda alg, N, floor: False)
    built = [jordan_form(m) for m in samples]
    # both real (2-dim subspace) and non-real (1-dim) classes take the shortcut
    assert {dim for hit, dim in taken if hit} == {1, 2}
    for got, want in zip(fast, built):
        assert got.blocks == want.blocks
        assert got.S.a.tobytes() == want.S.a.tobytes()
        assert got.S.b.tobytes() == want.S.b.tobytes()
        assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()


DEFECTIVE_TYPES = ("vertical-translation", "non-vertical-translation", "ellipto-parabolic",
                   "ellipto-translation", "loxo-parabolic")


def test_the_read_builds_one_candidate_per_input(monkeypatch):
    rng = np.random.default_rng(1)
    samples = [generate(t, rng=rng).matrix for t in DEFECTIVE_TYPES for _ in range(4)]
    for sampler, kinds in SHAPE_SAMPLERS:
        for kind in kinds:
            samples += [conjugated(sampler(kind, rng), rng)[0] for _ in range(2)]
    read_only(monkeypatch)
    built, chained, polished = [], [], []
    single_block, chains = spectral._single_block, spectral._class_chains
    polish = spectral._sylvester_polish

    def counted_single_block(alg, N, floor):
        hit = single_block(alg, N, floor)
        built.append(hit)
        return hit

    def counted_chains(*args):
        chained.append(args)
        return chains(*args)

    def counted_polish(A, data):
        polished.append(data.residual)
        return polish(A, data)

    monkeypatch.setattr(spectral, "_single_block", counted_single_block)
    monkeypatch.setattr(spectral, "_class_chains", counted_chains)
    monkeypatch.setattr(spectral, "_sylvester_polish", counted_polish)
    split = set()
    for a in samples:
        built.clear()
        chained.clear()
        polished.clear()
        jordan_form(a)
        # each class that is no single block builds its chains once, with the
        # sizes the read gave it
        assert len(chained) == built.count(False)
        split.update(sizes for _, _, sizes, *_ in chained if len(sizes) > 1)
        # only a candidate above 1e-12 is polished
        assert all(r > 1e-12 for r in polished)
    # classes whose nilpotency index is below their multiplicity occur
    assert {(2, 1), (1, 1)} <= split


def close_class_samples(seed):
    """Conjugated reversible shape i, diag(e^{ia}, e^{ib}, e^{ic}), and negative
    shape i, diag(e^{it}, -e^{-it}, i): two or three of their classes can lie
    close together.  Each with its canonical sample."""
    rng = np.random.default_rng(seed)
    out = []
    for sampler in (reversible_shape, negative_shape):
        for _ in range(48):
            canon = sampler("i", rng)
            out.append((conjugated(canon, rng)[0], canon))
    return out


def assert_classes(data, values, tol):
    """data has one class of size [1] for each of values, within tol."""
    classes = data.class_sizes()
    assert len(classes) == len(values)
    for value in values:
        rep = ClassRep(value.real, abs(value.imag))
        assert [sizes for r, sizes in classes if r.isclose(rep, tol)] == [[1]]


@pytest.mark.parametrize("seed", [1, 2])
def test_close_distinct_classes_of_shapes_stay_distinct(seed):
    for a, canon in close_class_samples(seed):
        assert_classes(jordan_form(a), list(np.diag(canon.a)), 1e-6)


@pytest.mark.parametrize("cond", [1e2, 1e3])
@pytest.mark.parametrize("delta", [1e-6, 1e-4, 1e-3])
def test_classes_delta_apart_stay_distinct(cond, delta):
    # diag(lam, lam + delta, mu) under a conjugator with cond Phi(g) = cond:
    # the four adjoint eigenvalues near lam are two classes, not one
    rng = np.random.default_rng(7)
    for _ in range(40):
        lam, mu = np.exp(1j * rng.uniform(0.3, 2.8, 2))
        g, g_inv = conditioned_conjugator(cond, rng)
        data = jordan_form(g @ QMatrix3.diag(lam, lam + delta, mu) @ g_inv)
        assert_classes(data, [lam, lam + delta, mu], delta / 10)


def test_cluster_summaries_match_numpy(rng):
    point_sets = []
    for m in type_and_shape_samples():
        point_sets.append(_class_points(np.linalg.eigvals(m.adjoint())))
    for _ in range(40):
        # three pairs at random heights above the real axis and random widths,
        # so that every reading occurs
        centres = np.column_stack([rng.uniform(-1.0, 1.0, 3), 10.0 ** rng.uniform(-6, 0, 3)])
        spread = 10.0 ** rng.uniform(-8, -1, (3, 1))
        pts = np.repeat(centres, 2, axis=0) + np.repeat(spread, 2, axis=0) * rng.standard_normal((6, 2))
        pts[:, 1] = np.abs(pts[:, 1])
        point_sets.append(pts)
    readings = set()
    for pts in point_sets:
        scale = max(1.0, float(np.max(np.hypot(pts[:, 0], pts[:, 1]))))
        points = pts.tolist()
        cases = [case for tol_abs in (1e-9, 1e-4)
                 for case in _partitions_from_points(pts, tol_abs, scale)]
        # arbitrary pairings give wide clusters that single linkage never forms
        order = rng.permutation(6).tolist()
        cases.append(((tuple(order[:2]), tuple(order[2:4]), tuple(order[4:])), 1e-6))
        cases.append(((tuple(order[:2]), tuple(order[2:])), 1e-3))
        for clusters, level in cases:
            summary = _cluster_summary(points, clusters)
            assert summary == [(c[0], c[1], r) for c, r in cluster_summary_numpy(pts, clusters)]
            got = _realness_options(summary, level, scale)
            assert got == cluster_readings_numpy(pts, clusters, level, scale)
            readings.update(got)
    assert readings == {(True,), (True, False), (False,)}


def gauged(S, sizes):
    """spectral._gauged on a batch of one similarity with block sizes sizes."""
    sa, sb = spectral._gauged(S.a[None], S.b[None], [sizes])
    return QMatrix3(sa[0], sb[0])


def test_gauge_and_fold_match_column_loop(rng):
    j_unit = Quaternion(0.0, 0.0, 1.0, 0.0)
    for t in range(300):
        a = random_qmatrix(rng, scale=10.0 ** rng.uniform(-3, 3))
        # exact and signed zeros, and a zero eigenvector column, keep their signs
        a.a[rng.random((3, 3)) < 0.3] = 0.0
        a.b.imag[rng.random((3, 3)) < 0.3] = -0.0
        if t % 10 == 0:
            a.a[:, 0] = a.b[:, 0] = 0.0
        sizes = ([1, 1, 1], [2, 1], [1, 2], [3])[t % 4]
        blocks = [(ClassRep(*rng.standard_normal(2)), size) for size in sizes]
        got = gauged(a, sizes)
        want = normalize_similarity_loop(a, blocks)
        assert got.a.tobytes() == want.a.tobytes() and got.b.tobytes() == want.b.tobytes()
        folded, got = spectral._fold_negative_classes(blocks, a)
        flips = [rep.im < 0.0 for rep, size in blocks for _ in range(size)]
        want = scale_columns_loop(a, [j_unit if f else 1.0 for f in flips])
        assert got.a.tobytes() == want.a.tobytes() and got.b.tobytes() == want.b.tobytes()
        assert folded == [(ClassRep(rep.re, abs(rep.im)), size) for rep, size in blocks]


def test_gauge_ignores_the_phase_of_each_block(rng):
    # a block's chain times a unit complex scalar is an equally valid
    # similarity; the gauge must map both to the same S, whichever half of
    # the eigenvector (u or w) holds its lead coordinate
    leads = set()
    for t in range(200):
        s = random_qmatrix(rng, scale=10.0 ** rng.uniform(-2, 2))
        sizes = ([1, 1, 1], [2, 1], [3])[t % 3]
        blocks = [(ClassRep(1.0, 0.5), size) for size in sizes]
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, len(sizes)))
        turned = s.scale_columns(np.repeat(phases, sizes), np.zeros(3, dtype=complex))
        want = gauged(s, sizes)
        got = gauged(turned, sizes)
        assert (got - want).norm() <= 1e-14 * want.norm()
        head = np.concatenate([s.a[:, 0], s.b[:, 0]])
        leads.add(int(np.argmax(np.abs(head) >= 0.5 * np.max(np.abs(head)))) < 3)
    assert leads == {True, False}


def first_stage_samples():
    """Seed-1 samples of the three generic types and of every shape family, conjugated."""
    rng = np.random.default_rng(1)
    mats = [generate(t, rng=rng).matrix
            for t in ("regular-elliptic", "regular-loxodromic", "screw-loxodromic")
            for _ in range(16)]
    for sampler, kinds in SHAPE_SAMPLERS:
        for kind in kinds:
            mats += [conjugated(sampler(kind, rng), rng)[0] for _ in range(2)]
    return mats


def verdicts(a, data):
    (rev,) = _psls_from_data([a], [data], 1e-9)
    return (_classify_from_jordan(data, 1e-9),
            rev.reversible_sl, rev.strongly_reversible_sl, rev.negative_reversible,
            rev.reversible_psl, len(_decompositions_from_data([a], [data], 1e-9)[0]))


def test_first_stage_matches_the_read(monkeypatch):
    samples = first_stage_samples()
    first = first_stage(samples)
    fast = [jordan_form(m) for m in samples]
    read_only(monkeypatch)
    read = [jordan_form(m) for m in samples]
    taken = [k for k, data in enumerate(first) if data is not None]
    # nearly every generic input takes the first stage (a screw-loxodromic
    # with a real class does not), and some shape inputs do
    assert sum(k < 48 for k in taken) >= 40 and 48 < taken[-1] and len(taken) < len(samples)
    for k in taken:
        got, want, a = first[k], read[k], samples[k]
        # one stacked call and N = 1 inside jordan_form are the same code
        assert got.S.a.tobytes() == fast[k].S.a.tobytes()
        assert got.S.b.tobytes() == fast[k].S.b.tobytes()
        assert [size for _, size in got.blocks] == [size for _, size in want.blocks]
        for (r1, _), (r2, _) in zip(got.blocks, want.blocks):
            assert abs(r1.re - r2.re) <= 1e-12 and abs(r1.im - r2.im) <= 1e-12
        assert (got.S - want.S).norm() <= 1e-10
        assert verdicts(a, got) == verdicts(a, want)


def test_first_stage_leaves_the_rest_to_the_read():
    # repeated classes, real classes, Jordan blocks and a singular adjoint
    # all get None; so does an unreachable tolerance
    rng = np.random.default_rng(5)
    others = [generate(t, rng=rng).matrix for t in DYNAMICAL_TYPES
              if t not in ("regular-elliptic", "regular-loxodromic", "screw-loxodromic")]
    others.append(QMatrix3.diag(1e7, 1e-7, 1.0))
    assert first_stage(others) == [None] * len(others)
    generic = generate("regular-elliptic", seed=1).matrix
    assert first_stage([generic], 1e-30) == [None]
    assert first_stage([]) == []


def counted_eigs(monkeypatch):
    """The argument of every np.linalg.eig call."""
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(a)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return calls


def test_a_batch_of_one_bound_for_the_read_runs_no_eig(monkeypatch):
    # no eig of an adjoint at any batch size, nor any eig at all: every live
    # member is put in Schur form once, the first stage decides on the Schur
    # diagonals, and a member it keeps takes its eigenvectors from its own
    # Schur factors
    translations = [generate("vertical-translation", seed=seed).matrix for seed in (1, 2)]
    generic = [generate(t, seed=1).matrix for t in ("regular-elliptic", "regular-loxodromic")]
    calls = counted_eigs(monkeypatch)
    schurs = counted_everywhere(monkeypatch, spectral, "_schur")
    for batch in ([translations[0]], [generic[0]], translations, generic, translations + generic):
        schurs.clear()
        datas = spectral._jordan_forms(batch, 1e-9)
        assert all(isinstance(data, spectral.JordanData) for data in datas)
        assert len(schurs) == len(batch)
    for a in translations + generic:
        jordan_form(a)
    assert calls == []


def test_triangular_eigenvectors_solve_the_schur_forms():
    # X is unit upper triangular with T X = X diag(T), to rounding, for the
    # Schur forms of the generic types, whose diagonals are distinct
    mats = [generate(t, seed=seed).matrix for seed in range(4)
            for t in ("regular-elliptic", "regular-loxodromic", "screw-loxodromic")]
    T = np.array([spectral._schur(m.adjoint())[0] for m in mats])
    X = spectral._triangular_eigenvectors(T)
    assert not np.tril(X, -1).any()
    assert (np.diagonal(X, axis1=1, axis2=2) == 1.0).all()
    lam = np.diagonal(T, axis1=1, axis2=2)
    assert np.abs(T @ X - X * lam[:, None, :]).max() <= 1e-13 * np.abs(X).max()


def test_schur_failure_stays_in_its_member_slot(monkeypatch):
    # a Schur form LAPACK does not find (info != 0) is the SpectralFailure of
    # that member alone; the others get the data they get alone
    mats = [generate(t, seed=1).matrix
            for t in ("regular-elliptic", "loxo-parabolic", "screw-loxodromic")]
    alone = [jordan_form(a) for a in mats]
    failing = mats[1].adjoint().tobytes()
    zgees = spectral.sla.lapack.zgees

    def flaky(select, phi):
        T, sdim, w, Z, work, info = zgees(select, phi)
        return T, sdim, w, Z, work, 3 if phi.tobytes() == failing else info

    monkeypatch.setattr(spectral.sla.lapack, "zgees", flaky)
    datas = spectral._jordan_forms(mats, 1e-9)
    assert type(datas[1]) is SpectralFailure
    assert str(datas[1]) == "Schur decomposition of the adjoint failed (info=3)"
    with pytest.raises(SpectralFailure):
        jordan_form(mats[1])
    for data, want in zip(datas[::2], alone[::2]):
        assert (data.S.a.tobytes(), data.S.b.tobytes(), data.residual) == (
            want.S.a.tobytes(), want.S.b.tobytes(), want.residual)


def test_a_member_the_first_stage_drops_is_read_from_its_schur_form(monkeypatch):
    # conjugated regular-elliptic inputs at cond Phi(g) = 1e4 pass the first
    # stage's test on their Schur diagonal, but some miss its residual bound
    # of 1e-12; such a member goes to the read, which builds its candidate
    # from the one Schur form the member already has
    sampler, _ = DYNAMICAL_TYPES["regular-elliptic"]
    rng = np.random.default_rng(11)
    mats = []
    for _ in range(6):
        g, g_inv = conditioned_conjugator(1e4, rng)
        mats.append(g @ sampler(rng) @ g_inv)
    schur, built = spectral._schur, spectral._candidate
    made, read = {}, []

    def recorded(phi):
        T, Z = made[phi.tobytes()] = schur(phi)
        return T, Z

    def candidate(T0, Z0, backward, tol):
        read.append((T0.tobytes(), Z0.tobytes()))
        return built(T0, Z0, backward, tol)

    monkeypatch.setattr(spectral, "_schur", recorded)
    monkeypatch.setattr(spectral, "_candidate", candidate)
    datas = spectral._jordan_forms(mats, 1e-9)
    assert len(made) == len(mats) and 0 < len(read) < len(mats)
    assert all(spectral._one_candidate(np.diag(T)[None], 1e-9)[0] for T, _ in made.values())
    assert set(read) <= {(T.tobytes(), Z.tobytes()) for T, Z in made.values()}
    assert all(isinstance(data, spectral.JordanData) and data.residual <= 1e-12 for data in datas)


def test_each_input_gets_one_singular_check(monkeypatch):
    # the adjoint of an input is inverted once, by the stacked check at the
    # entry; neither the first stage nor the read inverts it again
    mats = [generate(t, seed=1).matrix
            for t in ("regular-elliptic", "vertical-translation", "loxo-parabolic")]
    stacks = counted_everywhere(monkeypatch, matrix, "_invert_adjoints")
    singles = counted_everywhere(monkeypatch, matrix, "_invert_adjoint")

    def inverted(run):
        stacks.clear()
        singles.clear()
        run()
        return [phi.tobytes() for args in stacks + singles
                for phi in np.reshape(args[0], (-1, 6, 6))]

    for a in mats:
        assert inverted(lambda: jordan_form(a)).count(a.adjoint().tobytes()) == 1
    batch = inverted(lambda: spectral._jordan_forms(mats, 1e-9))
    assert [batch.count(a.adjoint().tobytes()) for a in mats] == [1, 1, 1]

    # a member that fails the check gets the Singular of that member alone,
    # and leaves the others their data alone
    singular = QMatrix3.diag(1e7, 1e-7, 1.0)
    with pytest.raises(Singular) as alone:
        jordan_form(singular)
    datas = spectral._jordan_forms([mats[0], singular, mats[1]], 1e-9)
    assert type(datas[1]) is Singular and str(datas[1]) == str(alone.value)
    for data, a in zip(datas[::2], mats):
        want = jordan_form(a)
        assert (data.S.a.tobytes(), data.S_inv.b.tobytes(), data.residual) == (
            want.S.a.tobytes(), want.S_inv.b.tobytes(), want.residual)


def test_analyses_give_each_member_what_the_gate_and_jordan_form_give_it_alone(monkeypatch):
    # one batch of an input off SL(3,H), one with det_h 1 that fails the
    # singular rule, a generic input the first stage takes and a defective
    # one the read takes
    mats = [generate("regular-elliptic", seed=1).matrix * 2.0 ** (1 / 6),
            QMatrix3.diag(1e5, 1e5, 1e-10), generate("regular-loxodromic", seed=1).matrix,
            generate("loxo-parabolic", seed=1).matrix]
    read = counted_everywhere(monkeypatch, spectral, "_read_jordan")
    got = spectral._analyses(mats, 1e-9)
    assert [len(args[0]) for args in read] == [1]
    assert [type(slot) for slot in got] == [NotUnimodular, Singular, spectral.JordanData,
                                            spectral.JordanData]
    for slot, a in zip(got, mats):
        try:
            matrix.require_unimodular(a, 1e-9)
            want = jordan_form(a, 1e-9)
        except QprojError as exc:
            assert (type(slot), str(slot)) == (type(exc), str(exc))
            continue
        assert slot.blocks == want.blocks and slot.shape_id == want.shape_id
        assert [z.tobytes() for z in (slot.S.a, slot.S.b, slot.S_inv.a, slot.S_inv.b)] == [
            z.tobytes() for z in (want.S.a, want.S.b, want.S_inv.a, want.S_inv.b)]
        assert np.float64(slot.residual).tobytes() == np.float64(want.residual).tobytes()


def test_a_polish_iteration_judges_its_three_step_lengths_in_one_stack(monkeypatch):
    # conjugated regular-elliptic inputs at cond Phi(g) = 1e4 reach the
    # polish; each Gauss-Newton iteration (one _sylvester_op) measures its
    # steps of length 1, 1/2 and 1/4 by one _conjugation_residuals of three
    sampler, _ = DYNAMICAL_TYPES["regular-elliptic"]
    rng = np.random.default_rng(11)
    mats = []
    for _ in range(6):
        g, g_inv = conditioned_conjugator(1e4, rng)
        mats.append(g @ sampler(rng) @ g_inv)
    polish, polished = spectral._sylvester_polish, []
    monkeypatch.setattr(spectral, "_sylvester_polish",
                        lambda A, data: polished.append((A, data)) or polish(A, data))
    spectral._jordan_forms(mats, 1e-9)
    assert polished
    iterations = counted_everywhere(monkeypatch, spectral, "_sylvester_op")
    residuals = counted_everywhere(monkeypatch, matrix, "_conjugation_residuals")
    for A, data in polished:
        polish(A, data)
    assert iterations and [len(args[0]) for args in residuals] == [3] * len(iterations)
