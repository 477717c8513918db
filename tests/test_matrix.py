import json

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
    classify_sl3r,
    det_h,
    inverse,
    normalize_to_sl,
    self_dual_check,
)
from qproj.generate import (conjugated, generate, negative_shape, random_conjugator,
                            reversible_shape)
from qproj.matrix import (_conjugation_residuals, _dets_h, _invert_adjoint, _invert_adjoints,
                          _json_matrices, _square_residuals, _stack, _vec36, conjugation_residual,
                          require_unimodular, square_residual)
from qproj.spectral import jordan_form
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
    # det_h = 1, but cond_1 Phi = 1e14 is past the relative bound
    m = QMatrix3.diag(1e-7, 1.0, 1e7)
    assert det_h(m) == pytest.approx(1.0)
    with pytest.raises(Singular):
        inverse(m)


def test_small_scalar_matrix_is_invertible():
    # cond Phi = 1 although det_h = 0.03^6 = 7.3e-10: invertibility is relative
    m = 0.03 * QMatrix3.identity()
    assert inverse(m).isclose(QMatrix3.diag(1 / 0.03, 1 / 0.03, 1 / 0.03))
    assert normalize_to_sl(m).isclose(QMatrix3.identity())
    data = jordan_form(m)
    assert [(rep.re, rep.im, size) for rep, size in data.blocks] == [(0.03, 0.0, 1)] * 3


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


def test_not_unimodular_message_names_the_gate_applied():
    # det_h - 1 = 3e-9 and the real det - 1 = 1.5e-9; at tol 1e-13 the gate
    # is floored at 1e3 * 1e-12
    m = QMatrix3.diag(2.0, 0.5, 1.0) * (1.0 + 5e-10)
    for check, arg in ((require_unimodular, m), (classify_sl3r, m.real_part())):
        with pytest.raises(NotUnimodular, match=r"within 1\.0e-09\)"):
            check(arg, 1e-13)


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


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_entry_is_refused(rng, flag):
    # a JSON true or false among numbers would read as 1.0 or 0.0
    d = random_qmatrix(rng).to_json_dict()
    d["matrix"][2][2][1] = flag
    with pytest.raises(ValueError, match=r"number entries"):
        QMatrix3.from_json_dict(d)
    d["matrix"] = [[[flag] * 4] * 3] * 3
    with pytest.raises(ValueError, match=r"number entries"):
        QMatrix3.from_json_dict(d)
    # integers are numbers
    d["matrix"] = [[[1, 0, 0, 0] if i == j else [0] * 4 for j in range(3)] for i in range(3)]
    assert QMatrix3.from_json_dict(d).isclose(QMatrix3.identity())


def signed_zero_matrix(rng):
    """A random matrix with a +0.0 and a -0.0 in every one of the four real parts."""
    m = random_qmatrix(rng)
    m.a[0, 0], m.a[1, 1] = complex(0.0, -0.0), complex(-0.0, 0.0)
    m.b[0, 2], m.b[2, 0] = complex(-0.0, 2.5), complex(0.0, -0.0)
    return m


def test_real_scaling_keeps_signed_zeros(rng):
    m = signed_zero_matrix(rng)
    one = 1.0 * m
    assert one.a.tobytes() == m.a.tobytes() and one.b.tobytes() == m.b.tobytes()
    minus, neg = -1.0 * m, -m
    assert minus.a.tobytes() == neg.a.tobytes() and minus.b.tobytes() == neg.b.tobytes()
    assert np.signbit(minus.a.real[0, 0]) and not np.signbit(minus.a.real[1, 1])
    half = m * 0.5
    assert np.array_equal(half.a.view(float), m.a.view(float) * 0.5)
    assert np.array_equal(np.signbit(half.b.view(float)), np.signbit(m.b.view(float)))


def test_stacked_json_encoder_equals_per_matrix_encoding(rng):
    mats = [signed_zero_matrix(rng) for _ in range(3)] + [QMatrix3.identity()]
    stacked = _json_matrices(*_stack(mats))
    want = [{"matrix": _vec36(m).reshape(3, 3, 4).tolist()} for m in mats]
    assert json.dumps(stacked) == json.dumps(want)
    assert [m.to_json_dict() for m in mats] == stacked
    assert "-0.0" in json.dumps(stacked[0])
    assert _json_matrices(*_stack([])) == []


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


def test_stacked_inverse_fails_only_the_members_that_fail():
    good = [generate(t, seed=1).matrix for t in ("regular-elliptic", "loxo-parabolic")]
    ill = QMatrix3.diag(1e7, 1e-7, 1.0)  # cond_1 = 1e14
    nan = QMatrix3.diag(np.nan, 1.0, 1.0)
    # LAPACK takes the first stack whole; the zero and NaN members stop it
    for members in ([good[0], ill, good[1]], [good[0], nan, QMatrix3.zeros(), good[1], ill]):
        phis = np.stack([m.adjoint() for m in members])
        inverses, ok = _invert_adjoints(phis)
        assert ok.tolist() == [any(m is g for g in good) for m in members]
        for phi, inv, passed in zip(phis, inverses, ok):
            if passed:
                assert inv.tobytes() == _invert_adjoint(phi).tobytes()
            else:
                assert not inv.any()
        # T I T^-1 = I: a conjugator that fails gets inf, the others their lone residual
        eye = [QMatrix3.identity()] * len(members)
        residuals, used = _conjugation_residuals(*_stack(members), *_stack(eye), *_stack(eye))
        assert used.tobytes() == inverses.tobytes()
        for m, r, passed in zip(members, residuals, ok):
            assert r == conjugation_residual(m, QMatrix3.identity(), QMatrix3.identity())
            assert (r < 1e-12) if passed else (r == np.inf)


def test_stacked_squares_equal_the_lone_square_bitwise():
    # reversers of both signs, a scaled one, a NaN member and the zero matrix
    rng = np.random.default_rng(3)
    reports = [psl_report(conjugated(shape(kind, rng), rng)[0])
               for shape, kind in ((reversible_shape, "ii"), (negative_shape, "i"))]
    members = [(rep.reverser, -1.0 if rep.reverser_kind == "skew-involution" else 1.0)
               for rep in reports]
    members += [(2.0 * members[0][0], members[0][1]), (QMatrix3.diag(np.nan, 1.0, 1.0), 1.0),
                (QMatrix3.zeros(), -1.0)]
    gs, signs = zip(*members)
    residuals = _square_residuals(*_stack(gs), np.array(signs))
    for (g, sign), r in zip(members, residuals.tolist()):
        assert r == square_residual(g, sign) or (np.isnan(r) and np.isnan(square_residual(g, sign)))
    assert residuals[0] < 1e-12 and residuals[1] < 1e-12 and residuals[2] > 1.0
    assert np.isnan(residuals[3]) and residuals[4] == np.sqrt(3.0)


def test_stacked_dets_equal_det_h_bitwise():
    # unimodular, scaled, singular, zero and NaN members, each as det_h gives it
    # alone and as the expression max(Re det Phi, 0.0) gives it
    rng = np.random.default_rng(5)
    members = [generate("regular-elliptic", rng=rng).matrix, random_qmatrix(rng),
               random_qmatrix(rng, 1e-3), QMatrix3.diag(1.0, 1.0, 0.0), QMatrix3.zeros(),
               QMatrix3.diag(np.nan, 1.0, 1.0), 1.0001 * QMatrix3.identity()]
    with np.errstate(invalid="ignore"):  # LAPACK's det of the NaN member
        dets = _dets_h(*_stack(members)).tolist()
        for m, d in zip(members, dets):
            direct = max(complex(np.linalg.det(adjoint_of([[m[i, j] for j in range(3)]
                                                           for i in range(3)]))).real, 0.0)
            for want in (det_h(m), direct):
                assert np.float64(d).tobytes() == np.float64(want).tobytes()
    assert dets[0] == pytest.approx(1.0) and dets[3] == dets[4] == 0.0
