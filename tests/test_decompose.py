import numpy as np
import pytest

from qproj import (
    NotSimple,
    QMatrix3,
    classification_report,
    decompose_simple,
    det_h,
    inverse,
    is_simple,
    realify,
)
from qproj.decompose import (Decomposition, _canonical_rows, _canonical_stacks,
                             _decompositions_from_data, _split_phases)
from qproj.errors import CertificateError, QprojError
from qproj.generate import (conjugated, generate, negative_shape, nonreversible_shape,
                            nonstrong_shape, reversible_shape, strong_shape)
from qproj.matrix import _norms, _qmul
from qproj.quaternion import ClassRep
from qproj.spectral import JordanData, jordan_form

e = lambda t: np.exp(1j * t)


def j2(lam, xi):
    return QMatrix3.from_complex([[lam, 1, 0], [0, lam, 0], [0, 0, xi]])


def j3(lam):
    return QMatrix3.from_complex([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])


FAMILIES = {
    "unit-diag": (lambda rng: QMatrix3.diag(e(rng.uniform(0.6, 1.0)), e(rng.uniform(1.4, 1.8)), e(rng.uniform(2.2, 2.6))), 3),
    "unit-j2": (lambda rng: j2(e(rng.uniform(0.6, 1.2)), e(rng.uniform(1.8, 2.4))), 3),
    "unit-j3": (lambda rng: j3(e(rng.uniform(0.8, 2.0))), 4),
    "general-diag": (
        lambda rng: QMatrix3.diag(
            2.0 * e(rng.uniform(0.5, 1.1)),
            0.7 * e(rng.uniform(1.5, 2.1)),
            e(rng.uniform(2.3, 2.8)) / 1.4,
        ),
        4,
    ),
    "general-j2": (
        lambda rng: j2(1.8 * e(rng.uniform(0.5, 1.3)), e(rng.uniform(1.7, 2.5)) / 1.8**2),
        4,
    ),
}


def test_is_simple_examples():
    assert is_simple(QMatrix3.diag(1j, 1j, 1))
    assert not is_simple(QMatrix3.diag(1j, 1, 1))
    assert is_simple(j2(2, 0.25))


def test_realify_examples():
    cert = realify(QMatrix3.diag(1j, 1j, 1))
    # B is the pi/2 rotation block plus a fixed axis, possibly permuted
    eigs = sorted(np.linalg.eigvals(cert.B), key=lambda z: (round(z.real, 6), z.imag))
    assert np.allclose(eigs, sorted([1j, -1j, 1.0], key=lambda z: (round(z.real, 6), z.imag)))
    assert cert.residual < 1e-12

    a = j2(2, 0.25)
    cert = realify(a)
    assert cert.T.isclose(QMatrix3.identity())
    assert np.allclose(cert.B, [[2, 1, 0], [0, 2, 0], [0, 0, 0.25]])

    real = QMatrix3.from_real(np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 1]]))
    cert = realify(real)
    assert cert.T.isclose(QMatrix3.identity())


def test_realify_rejects_nonsimple():
    with pytest.raises(NotSimple):
        realify(QMatrix3.diag(1j, 1, 1))


def test_realify_random(rng):
    makers = [
        lambda: QMatrix3.diag(1j, 1j, 1),
        lambda: QMatrix3.diag(2 * e(0.9), 2 * e(0.9), 0.25),
        lambda: j2(2, 0.25),
        lambda: QMatrix3.diag(2, 0.5, 1),
    ]
    for mk in makers:
        for _ in range(10):
            a, _ = conjugated(mk(), rng)
            cert = realify(a)
            assert cert.residual < 1e-8
            recon = cert.T @ QMatrix3.from_real(cert.B) @ inverse(cert.T)
            assert (a - recon).norm() / a.norm() < 1e-8
            assert float(np.max(np.abs(QMatrix3.from_real(cert.B).b))) == 0.0


def pair_rotation_split(theta, phi):
    """The factors of the unit-diagonal route of diag(e^{i theta}, e^{i phi}, 1)
    with the identities dropped: the half-angle split diag(e^{i mu}, e^{i mu}, 1),
    diag(e^{i nu}, e^{-i nu}, 1), mu = (theta + phi)/2, nu = (theta - phi)/2.
    The route's third factor, diag(1, e^{-i s}, e^{i s}) at s = 0, is I."""
    data = canonical("diag", [(e(theta), 1), (e(phi), 1), (1.0 + 0j, 1)])
    ca, cb, *_ = _canonical_stacks(_canonical_rows(data, 1e-9))
    return [QMatrix3(a, b) for a, b in zip(ca, cb)]


def test_pair_rotation_split_examples():
    (f1,) = pair_rotation_split(np.pi / 2, np.pi / 2)  # nu = 0: the second factor is I
    assert f1.isclose(QMatrix3.diag(1j, 1j, 1))

    f1, f2 = pair_rotation_split(np.pi / 2, 0.0)
    assert f1.isclose(QMatrix3.diag(e(np.pi / 4), e(np.pi / 4), 1))
    assert f2.isclose(QMatrix3.diag(e(np.pi / 4), e(-np.pi / 4), 1))
    assert is_simple(f1)
    assert is_simple(f2)

    assert pair_rotation_split(0.0, 0.0) == []


def test_pair_rotation_split_identity(rng):
    for _ in range(100):
        t, p = rng.uniform(0, np.pi, size=2)
        prod = QMatrix3.identity()
        for f in pair_rotation_split(t, p):
            prod = prod @ f
        assert (prod - QMatrix3.diag(e(t), e(p), 1)).norm() < 1e-12


def test_unit_j2_split_path_identity():
    theta, psi = 0.9, 2.1
    W = QMatrix3.diag(e(-theta), e(theta), 1)
    Q = QMatrix3.from_complex([[e(theta), 1, 0], [0, e(-theta), 0], [0, 0, 1]])
    R = QMatrix3.diag(1, e(2 * theta), e(psi))
    recon = W @ Q @ R @ inverse(W)
    assert recon.isclose(j2(e(theta), e(psi)))
    assert is_simple(Q)


def test_decompose_canonical_counts(rng):
    for name, (mk, want) in FAMILIES.items():
        for _ in range(5):
            canon = mk(rng)
            dec = decompose_simple(canon)
            assert len(dec) == want, f"{name}: {len(dec)} factors, wanted {want}"
            assert dec.residual < 1e-8
            for f, cert in zip(dec.factors, dec.certificates):
                assert is_simple(f)
                assert cert.residual < 1e-8


def test_decompose_conjugated(rng):
    for name, (mk, want) in FAMILIES.items():
        for _ in range(5):
            a, _ = conjugated(mk(rng), rng)
            dec = decompose_simple(a)
            assert len(dec) == want, f"{name}: {len(dec)} factors, wanted {want}"
            prod = dec.product()
            assert (prod - a).norm() / a.norm() < 1e-8
            for f in dec.factors:
                assert is_simple(f)
                assert det_h(f) == pytest.approx(1.0, abs=1e-6)


def test_simple_input_returns_single_factor(rng):
    a, _ = conjugated(QMatrix3.diag(1j, 1j, 1), rng)
    dec = decompose_simple(a)
    assert len(dec) == 1
    assert dec.factors[0].isclose(a)
    assert dec.certificates[0].residual < 1e-8


def test_never_more_than_four(rng):
    makers = [mk for mk, _ in FAMILIES.values()]
    for mk in makers:
        a, _ = conjugated(mk(rng), rng)
        assert len(decompose_simple(a)) <= 4


def test_decomposition_serialization(rng):
    a, _ = conjugated(j3(e(1.1)), rng)
    dec = decompose_simple(a)
    d = dec.to_json_dict()
    assert len(d["factors"]) == len(d["certificates"]) == 4
    assert d["residual"] < 1e-8
    back = [QMatrix3.from_json_dict(f) for f in d["factors"]]
    prod = QMatrix3.identity()
    for f in back:
        prod = prod @ f
    assert (prod - a).norm() / a.norm() < 1e-7


@pytest.mark.parametrize("canon", [j2(e(1.1), e(1.1)), j2(1j, 1j)], ids=["J2(l)+l", "J2(i)+i"])
def test_unpaired_nonreal_blocks_are_not_simple(canon, rng):
    for a in (canon, conjugated(canon, rng)[0]):
        assert not is_simple(a)
        rep = classification_report(a)
        assert rep["minor"] == "ElliptoParabolic"
        assert rep["f"] is None
        dec = decompose_simple(a)
        assert len(dec) == 3
        assert (dec.product() - a).norm() / a.norm() < 1e-8
        for f, cert in zip(dec.factors, dec.certificates):
            assert is_simple(f)
            assert cert.residual < 1e-8


def after_stage_samples():
    """Seed-1 inputs of the generic, defective and shapes benchmark families."""
    rng = np.random.default_rng(1)
    types = ("regular-elliptic", "regular-loxodromic", "screw-loxodromic",
             "vertical-translation", "non-vertical-translation", "ellipto-parabolic",
             "ellipto-translation", "loxo-parabolic", "identity", "elliptic-reflection",
             "homothety")
    mats = [generate(t, rng=rng).matrix for t in types for _ in range(3)]
    for sampler, kinds in ((reversible_shape, "i ii iii iv"), (strong_shape, "i ii iii iv"),
                           (nonstrong_shape, "1 2 3 5 6 7 8"), (negative_shape, "i ii iii iv"),
                           (nonreversible_shape, "1 2")):
        mats += [conjugated(sampler(kind, rng), rng)[0] for kind in kinds.split()]
    return mats


def test_batch_after_stage_equals_batches_of_one_bitwise():
    mats = after_stage_samples()
    datas = [jordan_form(m) for m in mats]
    batch = _decompositions_from_data(mats, datas, 1e-9)
    # every route meets in one batch: split, simple non-real, real
    lengths = [len(d) for d in batch if isinstance(d, Decomposition)]
    assert {1, 3, 4} <= set(lengths) and lengths.count(1) >= 6
    assert any(d.certificates[0].T.isclose(QMatrix3.identity())
               for d in batch if isinstance(d, Decomposition) and len(d) == 1)
    for a, data, got in zip(mats, datas, batch):
        (want,) = _decompositions_from_data([a], [data], 1e-9)
        if isinstance(want, QprojError):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert got.residual == want.residual and len(got) == len(want)
        for f, g in zip(got.factors, want.factors):
            assert f.a.tobytes() == g.a.tobytes() and f.b.tobytes() == g.b.tobytes()
        for c, d in zip(got.certificates, want.certificates):
            assert c.T.a.tobytes() == d.T.a.tobytes() and c.T.b.tobytes() == d.T.b.tobytes()
            assert np.asarray(c.B).tobytes() == np.asarray(d.B).tobytes()
            assert c.residual == d.residual
        for f, c in zip(got.factors, got.certificates):
            assert c.verify(f) == c.residual


def near_real(eps):
    """diag(2, 1, 1/2) with i * eps above the diagonal: simple, with real classes."""
    upper = 1j * eps * np.triu(np.ones((3, 3)), 1)
    return QMatrix3(np.diag([2.0, 1.0, 0.5]) + upper, np.zeros((3, 3)))


def test_real_route_certificate_is_measured_and_gated():
    # an input within tol of real is certified by (I, Re A); its residual is
    # the measured ||A - Re A|| / ||A||, gated like every other certificate
    a = near_real(1e-7)
    cert = decompose_simple(a, 1e-4).certificates[0]
    assert np.array_equal(cert.B, a.real_part())
    assert cert.residual == cert.verify(a) and 1e-8 < cert.residual < 1e-7
    # within the loose tol of real, but (I, Re A) misses the build gate 1e-5
    a = near_real(3e-5)
    assert a.is_real(1e-4)
    for build in (decompose_simple, realify):
        with pytest.raises(CertificateError, match="real-conjugate certificate residual 2.2"):
            build(a, 1e-4)
    # at the default tol the same input is realified through its Jordan data
    assert decompose_simple(a).certificates[0].residual < 1e-12


def canonical(shape, blocks):
    """JordanData of a canonical Jordan matrix: blocks of (complex λ, size), S = I."""
    return JordanData(blocks=[(ClassRep(lam.real, lam.imag), size) for lam, size in blocks],
                      S=QMatrix3.identity(), shape_id=shape, residual=0.0)


# every route of the canonical factors; |λ| != 1 on J3 is the defensive branch
ROUTES = {
    "unit-diag": canonical("diag", [(e(0.7), 1), (e(1.6), 1), (e(2.5), 1)]),
    "general-diag": canonical("diag", [(2.0 * e(0.9), 1), (0.7 * e(1.8), 1), (e(2.6) / 1.4, 1)]),
    "unit-j2": canonical("j2", [(e(1.1), 2), (e(2.0), 1)]),
    "general-j2": canonical("j2", [(1.8 * e(0.9), 2), (e(2.1) / 1.8**2, 1)]),
    "unit-j3": canonical("j3", [(e(1.3), 3)]),
    "general-j3": canonical("j3", [(1.5 * e(1.3), 3)]),
}
# boundary angles 0 and pi, where a factor of the unit-diagonal route is exactly
# I, and an angle whose factor is within 1e-9 of I without being I
BOUNDARY = {
    "angle-0": canonical("diag", [(-1.0 + 0j, 1), (e(0.8), 1), (1.0 + 0j, 1)]),
    "angle-pi": canonical("diag", [(-1.0 + 0j, 1), (e(np.pi / 2), 1), (e(np.pi / 2), 1)]),
    "angle-4e-10": canonical("diag", [(-1.0 + 0j, 1), (e(0.8), 1), (e(4e-10), 1)]),
}


@pytest.mark.parametrize("name", ROUTES)
def test_canonical_rows_certify_and_multiply_to_the_jordan_matrix(name):
    data = ROUTES[name]
    ca, cb, ta, tb, B, keep = _canonical_stacks(_canonical_rows(data, 1e-9))
    assert keep.all() and np.isrealobj(B)
    # C = T B T^-1 as C T = T B, row by row
    ct, tb_ = _qmul(ca, cb, ta, tb), _qmul(ta, tb, B.astype(complex), np.zeros_like(ca))
    assert (_norms(ct[0] - tb_[0], ct[1] - tb_[1]) <= 1e-14).all()
    product = QMatrix3.identity()
    for a, b in zip(ca, cb):
        product = product @ QMatrix3(a, b)
    assert (product - data.jordan_matrix()).norm() < 1e-12


@pytest.mark.parametrize("name", [*ROUTES, *BOUNDARY])
def test_identity_filter_drops_the_rows_of_the_per_factor_rule(name):
    data = {**ROUTES, **BOUNDARY}[name]
    rows = _canonical_rows(data, 1e-9)
    want = [not (QMatrix3(np.diag(d) + np.diag(u, 1), np.zeros((3, 3)))
                 - QMatrix3.identity()).norm() <= 1e-9 for d, u, _, _ in rows]
    keep = _canonical_stacks(rows)[-1]
    assert keep.tolist() == want
    assert (name in BOUNDARY) == (not all(want))


@pytest.mark.parametrize("angles", [(0.7, 1.6, 2.5), (np.pi, 0.8, 0.0), (2.9, 0.3, 1.1)])
def test_pair_rotation_split_matches_the_assembled_pair_diagonals(angles):
    t, p, s = angles
    data = canonical("diag", [(e(a), 1) for a in angles])
    ca = _canonical_stacks(_canonical_rows(data, 1e-9))[0]
    e_mu, e_nu, e_minus_nu = _split_phases(t, p + s)
    assert ca[0].diagonal().tobytes() == np.array([e_mu, e_mu, 1.0]).tobytes()
    assert ca[1].diagonal().tobytes() == np.array([e_nu, e_minus_nu, 1.0]).tobytes()
