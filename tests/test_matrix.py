import numpy as np
import pytest

from qproj import (
    CharPoly6,
    NotUnimodular,
    classification_report,
    decompose_simple,
    dynamical_type,
    is_simple,
    psl_report,
    QMatrix3,
    Quaternion,
    Singular,
    char_poly_h,
    det_h,
    inverse,
    normalize_to_sl,
    self_dual_check,
)
from qproj.generate import random_conjugator
from oracles import adjoint_of, char_poly_from_diag, gauss_inverse

J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)


def random_qmatrix(rng, scale=1.0):
    a = scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    b = scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return QMatrix3(a, b)


def test_adjoint_block_structure(rng):
    m = random_qmatrix(rng)
    phi = m.adjoint()
    assert np.allclose(phi[3:, :3], -phi[:3, 3:].conj())
    assert np.allclose(phi[3:, 3:], phi[:3, :3].conj())


def test_adjoint_examples():
    assert np.allclose(QMatrix3.identity().adjoint(), np.eye(6))
    phi = QMatrix3.diag(J, J, J).adjoint()
    expected = np.block(
        [[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]]
    )
    assert np.allclose(phi, expected)
    phi = QMatrix3.diag(1j, 1, 1).adjoint()
    assert np.allclose(phi, np.diag([1j, 1, 1, -1j, 1, 1]))


def test_adjoint_matches_hand_rolled(rng):
    entries = [[Quaternion(*rng.standard_normal(4)) for _ in range(3)] for _ in range(3)]
    m = QMatrix3.from_entries(entries)
    assert np.allclose(m.adjoint(), adjoint_of(entries))


def test_det_examples():
    assert det_h(QMatrix3.identity()) == pytest.approx(1.0)
    # oracle: 6x6 determinant of the block-antidiagonal adjoint
    oracle = np.linalg.det(adjoint_of([[J, 0, 0], [0, J, 0], [0, 0, J]])).real
    assert oracle == pytest.approx(1.0)
    assert det_h(QMatrix3.diag(J, J, J)) == pytest.approx(oracle)
    oracle = np.linalg.det(np.diag([2, 1, 1, 2, 1, 1])).real
    assert det_h(QMatrix3.diag(2, 1, 1)) == pytest.approx(oracle) == pytest.approx(4.0)


def test_char_poly_examples():
    # oracle: chi of the explicit adjoint diagonal
    oracle = char_poly_from_diag([1j, 1j, 1j, -1j, -1j, -1j])
    assert np.allclose(oracle, [1, 0, 3, 0, 3, 0, 1])
    poly = char_poly_h(QMatrix3.diag(1j, 1j, 1j))
    assert np.allclose(poly.coeffs, [1, 0, 3, 0, 3, 0, 1], atol=1e-12)

    poly = char_poly_h(QMatrix3.identity())
    expanded = np.poly([1, 1, 1, 1, 1, 1])
    c = [((-1) ** (6 - k)) * expanded[6 - k] for k in range(7)]
    assert np.allclose(poly.coeffs, c)

    oracle = char_poly_from_diag([2, 0.5, 1, 2, 0.5, 1])
    poly = char_poly_h(QMatrix3.diag(2, 0.5, 1))
    for k in range(7):
        assert poly.coeffs[k] == pytest.approx(((-1) ** (6 - k)) * oracle[6 - k])


def test_char_poly_evaluation_consistency():
    poly = char_poly_h(QMatrix3.diag(1j, 1j, 1j))
    # chi(x) = (x^2+1)^3
    for x in (0.0, 1.0, -2.0, 0.5):
        assert poly(x) == pytest.approx((x * x + 1) ** 3)


def test_inverse_examples():
    assert inverse(QMatrix3.identity()).isclose(QMatrix3.identity())
    assert inverse(QMatrix3.diag(J, J, J)).isclose(QMatrix3.diag(-J, -J, -J))
    assert inverse(QMatrix3.diag(2, 1, 0.5)).isclose(QMatrix3.diag(0.5, 1, 2))


def test_inverse_matches_elimination_oracle(rng):
    for _ in range(50):
        m = random_qmatrix(rng)
        assert inverse(m).isclose(gauss_inverse(m), tol=1e-8)


def test_inverse_singular_raises():
    with pytest.raises(Singular):
        inverse(QMatrix3.zeros())


def test_normalize_examples():
    assert normalize_to_sl(QMatrix3.diag(2, 2, 2)).isclose(QMatrix3.identity())
    m = QMatrix3.diag(2, 0.5, 1)
    assert normalize_to_sl(m).isclose(m)
    out = normalize_to_sl(QMatrix3.diag(4, 1, 1))
    assert out.isclose(QMatrix3.diag(4, 1, 1) * (16 ** (-1 / 6)))
    assert det_h(out) == pytest.approx(1.0)


def test_normalize_random(rng):
    for _ in range(200):
        m = random_qmatrix(rng)
        if det_h(m) < 1e-6:
            continue
        assert det_h(normalize_to_sl(m)) == pytest.approx(1.0, abs=1e-9)


def test_homomorphism_properties(rng):
    for _ in range(300):
        a = random_qmatrix(rng)
        b = random_qmatrix(rng)
        lhs = (a @ b).adjoint()
        rhs = a.adjoint() @ b.adjoint()
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(lhs))
        if det_h(a) > 1e-6:
            lhs = inverse(a).adjoint()
            rhs = np.linalg.inv(a.adjoint())
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_det_nonnegative_and_multiplicative(rng):
    for _ in range(300):
        a = random_qmatrix(rng)
        b = random_qmatrix(rng)
        da, db = det_h(a), det_h(b)
        assert da >= -1e-12
        dab = det_h(a @ b)
        assert dab == pytest.approx(da * db, rel=1e-8, abs=1e-8)


def test_conjugacy_lift(rng):
    # if g A g^-1 = B for invertible g, normalizing g into SL keeps the relation
    for _ in range(50):
        g = random_qmatrix(rng)
        if det_h(g) < 1e-6:
            continue
        a = random_qmatrix(rng)
        b = g @ a @ inverse(g)
        h = normalize_to_sl(g)
        assert det_h(h) == pytest.approx(1.0, abs=1e-9)
        assert (h @ a @ inverse(h) - b).norm() <= 1e-9 * max(1.0, b.norm())


def test_self_dual_examples():
    assert self_dual_check(QMatrix3.diag(1j, 1j, 1j))
    assert self_dual_check(QMatrix3.diag(2, 0.5, 1))
    m = QMatrix3.diag(
        2 * np.exp(1j * np.pi / 3), np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4) / 2
    )
    assert det_h(m) == pytest.approx(1.0, abs=1e-9)
    assert not self_dual_check(m)


def test_self_dual_requires_unimodular():
    with pytest.raises(NotUnimodular):
        self_dual_check(QMatrix3.diag(2, 2, 2))


def test_matmul_associative_identity(rng):
    ident = QMatrix3.identity()
    for _ in range(100):
        a = random_qmatrix(rng)
        b = random_qmatrix(rng)
        c = random_qmatrix(rng)
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        assert lhs.isclose(rhs, tol=1e-10)
        assert (a @ ident).isclose(a)
        assert (ident @ a).isclose(a)


def test_entry_access_and_serialization(rng):
    m = random_qmatrix(rng)
    d = m.to_json_dict()
    back = QMatrix3.from_json_dict(d)
    assert back.isclose(m, tol=1e-15)
    q = Quaternion(1, 2, 3, 4)
    m[0, 2] = q
    assert m[0, 2] == q


def test_serialization_keeps_signed_zeros_and_entry_layout(rng):
    m = random_qmatrix(rng)
    m.a[0, 1] = complex(1.5, -0.0)
    m.b[2, 2] = complex(-0.0, -0.0)
    d = m.to_json_dict()
    assert d == {"matrix": [[m[i, j].to_list() for j in range(3)] for i in range(3)]}
    back = QMatrix3.from_json_dict(d)
    assert np.array_equal(back.a.view(float), m.a.view(float))
    assert np.signbit(back.a.imag[0, 1]) and np.signbit(back.b[2, 2].real)
    assert np.signbit(back.b.imag[2, 2])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_raise_typed_errors(bad):
    m = QMatrix3.diag(2.0, 0.5, 1.0)
    m.a[0, 1] = bad
    for fn in (dynamical_type, classification_report, psl_report, decompose_simple, is_simple):
        with pytest.raises(NotUnimodular):
            fn(m)
    with pytest.raises(Singular):
        inverse(m)


def test_charpoly_serialization():
    poly = CharPoly6([1, 0, 3, 0, 3, 0, 1])
    assert poly.to_json_dict() == {"coeffs": [1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0]}


def test_sl_boundary_coeffs(rng):
    # c0 = c6 = 1 on SL matrices
    for _ in range(20):
        g = random_conjugator(rng)
        poly = char_poly_h(g)
        assert poly.coeffs[0] == pytest.approx(1.0, abs=1e-7)
        assert poly.coeffs[6] == pytest.approx(1.0)
