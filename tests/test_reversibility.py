import numpy as np
import pytest

from qproj import (
    CertificateError,
    NotReversible,
    NotStronglyReversible,
    QMatrix3,
    Quaternion,
    inverse,
    involution_reverser,
    is_negative_reversible,
    is_reversible_sl,
    is_strongly_reversible_sl,
    negative_reverser,
    psl_report,
    random_reverser_solution,
    reverser,
    reverser_equation_basis,
    self_dual_check,
    two_skew_involutions,
)
from qproj.generate import (
    conjugated,
    negative_shape,
    nonreversible_shape,
    nonstrong_shape,
    reversible_shape,
    strong_shape,
)
from qproj import reversibility
from qproj.spectral import _vec36

J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)
e = lambda t: np.exp(1j * t)
I3 = QMatrix3.identity()


def j2(lam, xi):
    return QMatrix3.from_complex([[lam, 1, 0], [0, lam, 0], [0, 0, xi]])


def j3(lam):
    return QMatrix3.from_complex([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])


def conj_residual(g, a, target):
    return (g @ a @ inverse(g) - target).norm() / target.norm()


def test_is_reversible_examples():
    assert is_reversible_sl(QMatrix3.diag(e(np.pi / 3), e(np.pi / 4), e(np.pi / 5)))
    assert is_reversible_sl(QMatrix3.diag(2 * e(np.pi / 3), 0.5 * e(np.pi / 3), 1))
    assert not is_reversible_sl(j2(2, 0.25))


def test_reverser_examples():
    a = QMatrix3.diag(e(np.pi / 3), e(np.pi / 4), e(np.pi / 5))
    assert reverser(a).isclose(QMatrix3.diag(J, J, J))
    assert reverser(I3).isclose(QMatrix3.diag(J, J, J))
    # evaluate the triple-block reverser at theta = pi/2
    g = reverser(j3(1j))
    expect = QMatrix3.from_entries([[J, K, 0], [0, J, 0], [0, 0, J]])
    assert g.isclose(expect)


def test_reverser_is_skew_and_reverses(rng):
    for kind in ("i", "ii", "iii", "iv"):
        for _ in range(15):
            a, _ = conjugated(reversible_shape(kind, rng), rng)
            g = reverser(a)
            assert conj_residual(g, a, inverse(a)) < 1e-8
            assert (g @ g + I3).norm() < 1e-8


def test_reverser_rejects_nonreversible():
    with pytest.raises(NotReversible):
        reverser(j2(2, 0.25))


def test_two_skew_involutions(rng):
    s1, s2 = two_skew_involutions(I3)
    assert (s1 @ s1 + I3).norm() < 1e-12
    assert (s2 @ s2 + I3).norm() < 1e-12
    assert (s1 @ s2).isclose(I3)

    for kind in ("i", "ii", "iii", "iv"):
        a, _ = conjugated(reversible_shape(kind, rng), rng)
        s1, s2 = two_skew_involutions(a)
        assert (s1 @ s1 + I3).norm() < 1e-8
        assert (s2 @ s2 + I3).norm() < 1e-8
        assert ((s1 @ s2) - a).norm() / a.norm() < 1e-8


def test_strong_examples():
    assert is_strongly_reversible_sl(QMatrix3.diag(2j, 0.5j, 1))
    assert not is_strongly_reversible_sl(
        QMatrix3.diag(e(np.pi / 3), e(np.pi / 3), e(np.pi / 3))
    )
    a = j2(1, 1)
    assert is_strongly_reversible_sl(a)
    assert involution_reverser(a).isclose(QMatrix3.diag(1, -1, 1))


def test_involution_reverser_closed_forms():
    a = QMatrix3.diag(e(np.pi / 3), e(np.pi / 3), 1)
    expect = QMatrix3.from_entries([[0, J, 0], [-1 * J, 0, 0], [0, 0, 1]])
    assert involution_reverser(a).isclose(expect)

    assert involution_reverser(j3(1)).isclose(
        QMatrix3.from_complex([[1, 1, 0], [0, -1, 0], [0, 0, 1]])
    )
    assert involution_reverser(j3(-1)).isclose(
        QMatrix3.from_complex([[1, -1, 0], [0, -1, 0], [0, 0, 1]])
    )


def test_involution_reverser_random(rng):
    for kind in ("i", "ii", "iii", "iv"):
        for _ in range(15):
            a, _ = conjugated(strong_shape(kind, rng), rng)
            g = involution_reverser(a)
            assert conj_residual(g, a, inverse(a)) < 1e-8
            assert (g @ g - I3).norm() < 1e-8


def test_nonstrong_shapes_rejected(rng):
    for kind in ("1", "2", "3", "5", "6", "7", "8"):
        a, _ = conjugated(nonstrong_shape(kind, rng), rng)
        assert is_reversible_sl(a)
        assert not is_strongly_reversible_sl(a)
        with pytest.raises(NotStronglyReversible):
            involution_reverser(a)


def test_negative_reversible_examples():
    assert is_negative_reversible(QMatrix3.diag(e(np.pi / 3), e(2 * np.pi / 3), 1j))
    assert is_negative_reversible(j3(1j))
    g = negative_reverser(j3(1j))
    assert g.isclose(QMatrix3.from_complex([[1, -1j, 0], [0, -1, 0], [0, 0, 1]]))
    assert not is_negative_reversible(QMatrix3.diag(e(np.pi / 3), e(np.pi / 4), e(np.pi / 5)))


def test_negative_reverser_random(rng):
    for kind in ("i", "ii", "iii", "iv"):
        for _ in range(15):
            a, _ = conjugated(negative_shape(kind, rng), rng)
            g = negative_reverser(a)
            neg_inv = -1.0 * inverse(a)
            assert conj_residual(g, a, neg_inv) < 1e-8
            assert (g @ g - I3).norm() < 1e-8


def test_psl_report_flags():
    # PSL-reversible via the twisted relation only
    a = QMatrix3.diag(2 * e(np.pi / 3), 0.5 * e(2 * np.pi / 3), 1j)
    rep = psl_report(a)
    assert not rep.reversible_sl and rep.negative_reversible and rep.reversible_psl
    assert rep.reverser_kind == "involution"

    rep = psl_report(j2(2, 0.25))
    assert not (rep.reversible_sl or rep.negative_reversible or rep.reversible_psl)
    assert rep.reverser is None

    rep = psl_report(I3)
    assert rep.reversible_sl and rep.strongly_reversible_sl and rep.reversible_psl
    assert not rep.negative_reversible


def test_psl_invariants(rng):
    # reversible_psl <=> pair present; strong => reversible; pair certifies
    shapes = [reversible_shape("ii", rng), negative_shape("ii", rng),
              nonreversible_shape("1", rng), strong_shape("iii", rng)]
    for canon in shapes:
        a, _ = conjugated(canon, rng)
        rep = psl_report(a)
        assert rep.reversible_psl == (rep.reversible_sl or rep.negative_reversible)
        assert rep.reversible_psl == (rep.psl_involution_pair is not None)
        if rep.strongly_reversible_sl:
            assert rep.reversible_sl
        if rep.psl_involution_pair:
            p1, p2 = rep.psl_involution_pair
            prod = p1 @ p2
            assert min((prod - a).norm(), (prod + a).norm()) / a.norm() < 1e-8
            for p in (p1, p2):
                sq = p @ p
                assert min((sq - I3).norm(), (sq + I3).norm()) < 1e-8


def test_reversible_iff_self_dual(rng):
    for kind in ("i", "ii", "iii", "iv"):
        a, _ = conjugated(reversible_shape(kind, rng), rng)
        assert self_dual_check(a)
    for kind in ("1", "2"):
        a, _ = conjugated(nonreversible_shape(kind, rng), rng)
        assert not self_dual_check(a)
        assert not is_reversible_sl(a)


def test_reverser_conjugation_equivariance(rng):
    canon = reversible_shape("i", rng)
    a, g = conjugated(canon, rng)
    r_canon = reverser(canon)
    r_conj = reverser(a)
    transported = g @ r_canon @ inverse(g)
    # both reverse a; they may differ by a symmetry of the centralizer, so
    # compare action rather than matrices
    ainv = inverse(a)
    assert conj_residual(r_conj, a, ainv) < 1e-8
    assert conj_residual(transported, a, ainv) < 1e-8


def test_obstruction_solution_space_structure(rng):
    # scalar canonical form: solutions are exactly P j with P complex (18 dims)
    a = QMatrix3.diag(e(0.8), e(0.8), e(0.8))
    basis = reverser_equation_basis(a)
    assert len(basis) == 18
    for b in basis:
        assert float(np.max(np.abs(b.a))) < 1e-9  # pure j-form


def test_obstruction_no_involution_among_solutions(rng):
    for kind in ("1", "7", "8"):
        a = nonstrong_shape(kind, rng)
        for _ in range(100):
            g = random_reverser_solution(a, rng)
            sq = g @ g
            # an involution exists on the ray of g iff g^2 is a positive real
            # scalar matrix
            diag0 = sq[0, 0]
            off = (sq - QMatrix3.diag(sq[0, 0], sq[1, 1], sq[2, 2])).norm()
            is_scalar = off < 1e-8 and all(
                (sq[k, k] - diag0).norm() < 1e-8 for k in (1, 2)
            )
            positive_real = (
                is_scalar
                and abs(diag0.x) < 1e-8
                and abs(diag0.y) < 1e-8
                and abs(diag0.z) < 1e-8
                and diag0.w > 1e-8
            )
            assert not positive_real


def test_solution_space_contains_skew_reverser(rng):
    a = reversible_shape("iii", rng)
    g = reverser(a)
    # the constructed reverser solves the same linear equation
    assert (g @ a - inverse(a) @ g).norm() < 1e-9 * max(1.0, a.norm())


def test_two_skew_sign_guard():
    # the sign bookkeeping must reject a wrong-sign product
    a = QMatrix3.diag(2, 0.5, 1)
    s1, s2 = two_skew_involutions(a)
    assert ((s1 @ s2) - a).norm() < 1e-9


def test_negative_branch_pair_is_gated(rng, monkeypatch):
    a, _ = conjugated(negative_shape("ii", rng), rng)
    assert not is_reversible_sl(a) and is_negative_reversible(a)
    assert psl_report(a).residuals["pair_product"] < 1e-8
    monkeypatch.setattr(reversibility, "product_residual", lambda factors, target: 1.0)
    with pytest.raises(CertificateError, match="pair product"):
        psl_report(a)


@pytest.mark.parametrize("sampler,kind", [(nonstrong_shape, "7"), (reversible_shape, "iii")])
def test_reverser_equation_basis_solves_and_is_orthonormal(rng, sampler, kind):
    a, _ = conjugated(sampler(kind, rng), rng)
    a_inv = inverse(a)
    basis = reverser_equation_basis(a)
    assert basis
    for g in basis:
        assert (g @ a - a_inv @ g).norm() <= 1e-9 * max(1.0, a.norm())
    coords = np.array([_vec36(g) for g in basis])
    assert np.allclose(coords @ coords.T, np.eye(len(basis)), atol=1e-12)
