import numpy as np
import pytest

from qproj import (
    CertificateError,
    NotReversible,
    NotStronglyReversible,
    QMatrix3,
    QprojError,
    Quaternion,
    Singular,
    decompose_simple,
    inverse,
    involution_reverser,
    is_reversible_sl,
    is_strongly_reversible_sl,
    psl_report,
    random_reverser_solution,
    reverser,
    self_dual_check,
)
from qproj.generate import (
    DYNAMICAL_TYPES,
    conjugated,
    generate,
    negative_shape,
    nonreversible_shape,
    nonstrong_shape,
    reversible_shape,
    strong_shape,
)
from qproj import decompose, reversibility
from qproj.matrix import conjugation_residual, replay_gate, square_residual
from qproj.reversibility import _match_negative_involution, _psls_from_data, _reverser_null_rows
from qproj.spectral import _unvec36, jordan_form
from oracles import conditioned_conjugator, psl_report_per_member

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
    # the pair (s1, g) of a reverser g that is a skew-involution
    s1, s2 = psl_report(I3).psl_involution_pair
    assert (s1 @ s1 + I3).norm() < 1e-12
    assert (s2 @ s2 + I3).norm() < 1e-12
    assert (s1 @ s2).isclose(I3)

    for kind in ("i", "ii", "iii", "iv"):
        a, _ = conjugated(reversible_shape(kind, rng), rng)
        s1, s2 = psl_report(a).psl_involution_pair
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
    # not reversible at all, so not strongly reversible either
    assert not is_strongly_reversible_sl(j2(2, 0.25))
    with pytest.raises(NotStronglyReversible):
        involution_reverser(j2(2, 0.25))


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
    assert psl_report(QMatrix3.diag(e(np.pi / 3), e(2 * np.pi / 3), 1j)).negative_reversible
    assert psl_report(j3(1j)).negative_reversible
    # the closed form g0 with g0 J g0^-1 = -J^-1 of the canonical J = J3(i)
    _, g = _match_negative_involution(jordan_form(j3(1j)), 1e-9)
    assert g.isclose(QMatrix3.from_complex([[1, -1j, 0], [0, -1, 0], [0, 0, 1]]))
    rep = psl_report(QMatrix3.diag(e(np.pi / 3), e(np.pi / 4), e(np.pi / 5)))
    assert not rep.negative_reversible
    # every class in [i]: the pair order is the identity and the witness exact
    a = QMatrix3.diag(1j, 1j, 1j)
    assert psl_report(a).negative_reversible
    perm, g = _match_negative_involution(jordan_form(a), 1e-9)
    assert perm == (0, 1, 2)
    assert conjugation_residual(g, a, -inverse(a)) == 0.0
    assert square_residual(g, 1.0) == 0.0


def test_negative_reverser_random(rng):
    for kind in ("i", "ii", "iii", "iv"):
        for _ in range(15):
            a, _ = conjugated(negative_shape(kind, rng), rng)
            rep = psl_report(a)
            assert rep.negative_reversible and rep.reversible_psl
            # only shape ii has a modulus other than 1, so only there is A not
            # reversible in SL(3,H) and psl_report's reverser the involution
            assert rep.reversible_sl == (kind != "ii")
            if kind != "ii":
                continue
            assert rep.reverser_kind == "involution"
            g = rep.reverser
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
    rows = _reverser_null_rows(a, 1e-9)
    assert len(rows) == 18
    for row in rows:
        assert float(np.max(np.abs(_unvec36(row).a))) < 1e-9  # pure j-form


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
    s1, s2 = psl_report(a).psl_involution_pair
    assert ((s1 @ s2) - a).norm() < 1e-9


def test_negative_branch_pair_is_gated(rng, monkeypatch):
    a, _ = conjugated(negative_shape("ii", rng), rng)
    rep = psl_report(a)
    assert not rep.reversible_sl and rep.negative_reversible
    assert rep.residuals["pair_product"] < 1e-8
    # fail only the two-factor rows, the pair's s1 g = A; the reverser's A g A rows pass
    product_residuals = reversibility._product_residuals
    monkeypatch.setattr(reversibility, "_product_residuals", lambda fa, fb, ma, mb: (
        np.full(len(ma), 1.0) if fa.shape[1] == 2 else product_residuals(fa, fb, ma, mb)))
    with pytest.raises(CertificateError, match="pair product"):
        psl_report(a)


def test_negative_branch_pair_uses_the_involution_itself(rng):
    # s1 = -t A g: A g for the twisted relation (t = -1), -(A g) for a
    # skew-involution (t = 1); neither A nor g is inverted
    for sampler, kind in ((negative_shape, "involution"), (reversible_shape, "skew-involution")):
        a, _ = conjugated(sampler("ii", rng), rng)
        rep = psl_report(a)
        s1, g = rep.psl_involution_pair
        assert rep.reverser_kind == kind
        expected = a @ g if kind == "involution" else -(a @ g)
        assert (s1.a.tobytes(), s1.b.tobytes()) == (expected.a.tobytes(), expected.b.tobytes())


def test_translation_under_ill_conditioned_conjugator_is_never_singular(rng):
    # cond Phi(g) = 3.6e4 puts det_h of the unit-column similarity S far
    # below 1e-9; the report must be certified or fail a certificate, never
    # reject S as singular
    for _ in range(6):
        g, g_inv = conditioned_conjugator(3.6e4, rng)
        a = g @ j3(1.0) @ g_inv
        try:
            rep = psl_report(a)
        except QprojError as exc:
            assert not isinstance(exc, Singular), exc
            continue
        assert rep.reversible_sl and rep.reverser_kind == "skew-involution"
        assert max(rep.residuals.values()) < replay_gate(1e-9)


@pytest.mark.parametrize("sampler,kind", [(nonstrong_shape, "7"), (reversible_shape, "iii")])
def test_reverser_equation_basis_solves_and_is_orthonormal(rng, sampler, kind):
    a, _ = conjugated(sampler(kind, rng), rng)
    a_inv = inverse(a)
    rows = _reverser_null_rows(a, 1e-9)
    assert len(rows)
    for row in rows:
        g = _unvec36(row)
        assert (g @ a - a_inv @ g).norm() <= 1e-9 * max(1.0, a.norm())
    assert np.allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-12)


def test_random_reverser_solution_of_empty_space_is_zero(rng):
    g = random_reverser_solution(nonreversible_shape("1", rng), rng)
    assert g.norm() == 0.0


def test_library_gate_is_no_looser_than_replay_gate(rng, monkeypatch):
    # a witness with residual 5e-6 would fail `qproj verify` at tol 1e-9
    # (replay gate 1e-6), so the library must not return it; at tol 1e-7 the
    # replay gate is 1e-4 and the build gate 1e-5 lets it through
    rev, _ = conjugated(reversible_shape("ii", rng), rng)
    elliptic = generate("regular-elliptic", rng=rng).matrix
    monkeypatch.setattr(reversibility, "_square_residuals",
                        lambda ga, gb, signs: np.full(len(ga), 5e-6))
    monkeypatch.setattr(decompose, "_conjugation_residuals",
                        lambda ta, tb, ba, bb, ma, mb: np.full(len(ta), 5e-6))
    with pytest.raises(CertificateError, match="reverser square"):
        psl_report(rev, 1e-9)
    with pytest.raises(CertificateError, match="real-conjugate"):
        decompose_simple(elliptic, 1e-9)
    assert psl_report(rev, 1e-7).residuals["reverser_square"] == 5e-6
    assert all(c.residual == 5e-6 for c in decompose_simple(elliptic, 1e-7).certificates)


def psl_samples():
    """Seed-1 inputs of every gen type and conjugated shape family, and one conjugated
    J3(1) under cond 3.6e4 whose pair misses the `pair square 1` gate."""
    rng = np.random.default_rng(1)
    mats = [generate(t, rng=rng).matrix for t in DYNAMICAL_TYPES for _ in range(2)]
    for sampler, kinds in ((reversible_shape, "i ii iii iv"), (strong_shape, "i ii iii iv"),
                           (nonstrong_shape, "1 2 3 5 6 7 8"), (negative_shape, "i ii iii iv"),
                           (nonreversible_shape, "1 2")):
        mats += [conjugated(sampler(kind, rng), rng)[0] for kind in kinds.split()]
    g, g_inv = conditioned_conjugator(3.6e4, np.random.default_rng(0))
    return mats + [g @ j3(1.0) @ g_inv]


def same_bits(m, n):
    return m.a.tobytes() == n.a.tobytes() and m.b.tobytes() == n.b.tobytes()


def test_batch_psl_equals_batches_of_one_bitwise():
    mats = psl_samples()
    datas = [jordan_form(m) for m in mats]
    batch = _psls_from_data(mats, datas, 1e-9)
    assert isinstance(batch[-1], CertificateError) and "pair square 1" in str(batch[-1])
    assert {rep.reverser_kind for rep in batch[:-1]} == {"skew-involution", "involution", "none"}
    for a, data, got in zip(mats, datas, batch):
        (alone,) = _psls_from_data([a], [data], 1e-9)
        try:
            oracle = psl_report_per_member(a, data, 1e-9)
        except QprojError as exc:
            oracle = exc
        for want in (alone, oracle):
            if isinstance(want, QprojError):
                assert type(got) is type(want) and str(got) == str(want)
                continue
            assert got.to_json_dict() == want.to_json_dict() and got.residuals == want.residuals
            assert [r.hex() for r in got.residuals.values()] == \
                [r.hex() for r in want.residuals.values()]
            if want.reverser is None:
                assert got.reverser is None and got.psl_involution_pair is None
                continue
            assert same_bits(got.reverser, want.reverser)
            assert all(map(same_bits, got.psl_involution_pair, want.psl_involution_pair))
