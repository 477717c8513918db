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
    pair_rotation_split,
    realify,
)
from qproj.generate import conjugated

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


def test_pair_rotation_split_examples():
    f1, f2 = pair_rotation_split(np.pi / 2, np.pi / 2)
    assert f1.isclose(QMatrix3.diag(1j, 1j, 1))
    assert f2.isclose(QMatrix3.identity())

    f1, f2 = pair_rotation_split(np.pi / 2, 0.0)
    assert f1.isclose(QMatrix3.diag(e(np.pi / 4), e(np.pi / 4), 1))
    assert f2.isclose(QMatrix3.diag(e(np.pi / 4), e(-np.pi / 4), 1))
    assert is_simple(f1)
    assert is_simple(f2)

    f1, f2 = pair_rotation_split(0.0, 0.0)
    assert f1.isclose(QMatrix3.identity())
    assert f2.isclose(QMatrix3.identity())


def test_pair_rotation_split_identity(rng):
    for _ in range(100):
        t, p = rng.uniform(0, np.pi, size=2)
        f1, f2 = pair_rotation_split(t, p)
        prod = f1 @ f2
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
