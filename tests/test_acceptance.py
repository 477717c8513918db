"""Acceptance suite: every criterion at its stated sample count and tolerance.

Each test prints one PASS/FAIL line (run with -s or -rA to see them all).
Seeds are fixed so the suite is reproducible.
"""

import time

import numpy as np
import pytest

from qproj import (
    QMatrix3,
    classify_sl3r,
    classify_via_simple,
    decompose_simple,
    det_h,
    discriminant_f,
    dynamical_type,
    eigenvector_lift,
    inverse,
    involution_reverser,
    is_reversible_sl,
    is_simple,
    is_strongly_reversible_sl,
    jordan_form,
    char_poly_h,
    psl_report,
    random_reverser_solution,
    reverser,
)
from qproj.generate import (
    REAL_TYPES,
    conjugated,
    generate_real,
    negative_shape,
    nonreversible_shape,
    nonstrong_shape,
    reversible_shape,
    strong_shape,
)
from oracles import classify_real_by_roots, cubic_discriminant_from_roots

pytestmark = pytest.mark.acceptance

I3 = QMatrix3.identity()


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_reverser_certificates():
    """10^4 conjugates of the four reversible shapes; certified reversers."""
    rng = np.random.default_rng(101)
    n_per = 2500
    worst_conj = worst_sq = 0.0
    t0 = time.time()
    for kind in ("i", "ii", "iii", "iv"):
        for _ in range(n_per):
            a, _ = conjugated(reversible_shape(kind, rng, 0.2, 5.0), rng)
            g = reverser(a)
            a_inv = inverse(a)
            rc = (g @ a @ inverse(g) - a_inv).norm() / a_inv.norm()
            rs = (g @ g + I3).norm()
            worst_conj = max(worst_conj, rc)
            worst_sq = max(worst_sq, rs)
    elapsed = time.time() - t0
    report(
        "criterion 1: reverser certificates on 10^4 conjugates",
        worst_conj < 1e-8 and worst_sq < 1e-8 and elapsed < 60.0,
        f"worst conj {worst_conj:.2e}, worst square {worst_sq:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_strong_nonstrong_dichotomy():
    """Involutions on all strong shapes; obstruction + false on non-strong."""
    rng = np.random.default_rng(202)
    n_per = 1000
    worst_conj = worst_sq = 0.0
    for kind in ("i", "ii", "iii", "iv"):
        for _ in range(n_per):
            a, _ = conjugated(strong_shape(kind, rng), rng)
            g = involution_reverser(a)
            a_inv = inverse(a)
            worst_conj = max(worst_conj, (g @ a @ inverse(g) - a_inv).norm() / a_inv.norm())
            worst_sq = max(worst_sq, (g @ g - I3).norm())

    false_positives = 0
    involutions_found = 0
    for kind in ("1", "2", "3", "5", "6", "7", "8"):
        for k in range(n_per):
            a, _ = conjugated(nonstrong_shape(kind, rng), rng)
            if is_strongly_reversible_sl(a):
                false_positives += 1
            if k < 100:
                # sample 10 solutions of g A = A^-1 g per instance: none may
                # admit an involution on its ray (g^2 a positive real scalar)
                for _ in range(10):
                    g = random_reverser_solution(a, rng)
                    sq = g @ g
                    d0 = sq[0, 0]
                    off = (sq - QMatrix3.diag(sq[0, 0], sq[1, 1], sq[2, 2])).norm()
                    scalar = off < 1e-8 and all(
                        (sq[m, m] - d0).norm() < 1e-8 for m in (1, 2)
                    )
                    if (
                        scalar
                        and abs(d0.x) < 1e-8
                        and abs(d0.y) < 1e-8
                        and abs(d0.z) < 1e-8
                        and d0.w > 1e-8
                    ):
                        involutions_found += 1
    report(
        "criterion 2: strong/non-strong dichotomy (10^3 per shape)",
        worst_conj < 1e-8 and worst_sq < 1e-8 and false_positives == 0 and involutions_found == 0,
        f"worst involution conj {worst_conj:.2e} sq {worst_sq:.2e}, "
        f"false strong {false_positives}, involutions among solutions {involutions_found}",
    )


def test_criterion_3_selfdual_equivalence():
    """is_reversible_sl <=> (|c5-c1| < 1e-7 and |c4-c2| < 1e-7); 10^4 mixed."""
    rng = np.random.default_rng(303)
    disagreements = 0
    n_rev, n_non = 0, 0
    for k in range(5000):
        kind = ("i", "ii", "iii", "iv")[k % 4]
        a, _ = conjugated(reversible_shape(kind, rng), rng)
        poly = char_poly_h(a)
        c = poly.coeffs
        selfdual = abs(c[5] - c[1]) < 1e-7 and abs(c[4] - c[2]) < 1e-7
        rev = is_reversible_sl(a)
        n_rev += rev
        if rev != selfdual:
            disagreements += 1
    for k in range(5000):
        kind = ("1", "2")[k % 2]
        a, _ = conjugated(nonreversible_shape(kind, rng), rng)
        poly = char_poly_h(a)
        c = poly.coeffs
        selfdual = abs(c[5] - c[1]) < 1e-7 and abs(c[4] - c[2]) < 1e-7
        rev = is_reversible_sl(a)
        n_non += not rev
        if rev != selfdual:
            disagreements += 1
    report(
        "criterion 3: reversibility <=> self-dual traces on 10^4 mixed samples",
        disagreements == 0 and n_rev == 5000 and n_non == 5000,
        f"{disagreements} disagreements ({n_rev} reversible, {n_non} non-reversible)",
    )


def test_criterion_4_psl_witness():
    """10^3 PSL-reversible elements: involution pair with product +-A."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(1000):
        if k % 2 == 0:
            canon = reversible_shape(("i", "ii", "iii", "iv")[(k // 2) % 4], rng)
        else:
            canon = negative_shape(("i", "ii", "iii", "iv")[(k // 2) % 4], rng)
        a, _ = conjugated(canon, rng)
        rep = psl_report(a)
        assert rep.reversible_psl and rep.psl_involution_pair is not None
        p1, p2 = rep.psl_involution_pair
        prod = p1 @ p2
        r_prod = min((prod - a).norm(), (prod + a).norm()) / a.norm()
        r_sq = 0.0
        for p in (p1, p2):
            sq = p @ p
            r_sq = max(r_sq, min((sq - I3).norm(), (sq + I3).norm()))
        worst = max(worst, r_prod, r_sq)
    report(
        "criterion 4: PSL involution-pair witnesses on 10^3 reversible elements",
        worst < 1e-8,
        f"worst residual {worst:.2e}",
    )


def test_criterion_5_decomposition():
    """10^3 conjugates of each Jordan family: factor counts + certificates."""
    rng = np.random.default_rng(505)
    e = lambda t: np.exp(1j * t)

    def unit_diag(rng):
        t = rng.uniform(0.15, np.pi - 0.15, size=3)
        while min(abs(t[0] - t[1]), abs(t[0] - t[2]), abs(t[1] - t[2])) < 0.1:
            t = rng.uniform(0.15, np.pi - 0.15, size=3)
        return QMatrix3.diag(e(t[0]), e(t[1]), e(t[2]))

    def unit_j2(rng):
        t, p = rng.uniform(0.15, np.pi - 0.15, size=2)
        return QMatrix3.from_complex([[e(t), 1, 0], [0, e(t), 0], [0, 0, e(p)]])

    def unit_j3(rng):
        t = rng.uniform(0.15, np.pi - 0.15)
        return QMatrix3.from_complex([[e(t), 1, 0], [0, e(t), 1], [0, 0, e(t)]])

    def general_diag(rng):
        r = np.exp(rng.uniform(np.log(1.3), np.log(3.0)))
        s = np.exp(rng.uniform(np.log(1.3), np.log(3.0))) ** -1
        t = rng.uniform(0.15, np.pi - 0.15, size=3)
        return QMatrix3.diag(r * e(t[0]), s * e(t[1]), e(t[2]) / (r * s))

    def general_j2(rng):
        r = np.exp(rng.uniform(np.log(1.3), np.log(3.0)))
        t, p = rng.uniform(0.15, np.pi - 0.15, size=2)
        return QMatrix3.from_complex(
            [[r * e(t), 1, 0], [0, r * e(t), 0], [0, 0, e(p) / (r * r)]]
        )

    families = [
        ("unit diagonal", unit_diag, 3),
        ("unit J2+point", unit_j2, 3),
        ("unit J3", unit_j3, 4),
        ("general diagonal", general_diag, 4),
        ("general J2+point", general_j2, 4),
    ]
    worst = 0.0
    count_errors = 0
    simplicity_errors = 0
    for name, mk, want in families:
        for _ in range(1000):
            a, _ = conjugated(mk(rng), rng)
            dec = decompose_simple(a)
            if len(dec) != want:
                count_errors += 1
                continue
            prod = dec.product()
            worst = max(worst, (prod - a).norm() / a.norm())
            for f, cert in zip(dec.factors, dec.certificates):
                worst = max(worst, cert.residual)
                if not is_simple(f):
                    simplicity_errors += 1
    report(
        "criterion 5: simple-factor decomposition on 5 x 10^3 conjugates",
        worst < 1e-8 and count_errors == 0 and simplicity_errors == 0,
        f"worst residual {worst:.2e}, count errors {count_errors}, "
        f"non-simple factors {simplicity_errors}",
    )


def test_criterion_6_sl3r_classifier():
    """10^4 labeled real matrices: oracle agreement + discriminant match."""
    rng = np.random.default_rng(606)
    assert discriminant_f(3.0, 3.0) == 0.0
    assert discriminant_f(3.5, 3.5) == 0.5625
    assert discriminant_f(0.0, 0.0) == -27.0

    disagreements = 0
    label_errors = 0
    worst_f = 0.0
    per_label = 1000
    for label in REAL_TYPES:
        for _ in range(per_label):
            a = generate_real(label, rng)
            verdict = classify_sl3r(a)
            if verdict.minor.value != label:
                label_errors += 1
            if classify_real_by_roots(a) is not verdict.minor:
                disagreements += 1
            x = float(np.trace(a))
            y = float(np.trace(np.linalg.inv(a)))
            f = discriminant_f(x, y)
            o = cubic_discriminant_from_roots(x, y)
            worst_f = max(worst_f, abs(f - o) / max(1.0, abs(o)))
    report(
        "criterion 6: real trace classifier vs root oracle on 10^4 matrices",
        disagreements == 0 and label_errors == 0 and worst_f < 1e-6,
        f"{disagreements} oracle disagreements, {label_errors} label errors, "
        f"discriminant mismatch {worst_f:.2e}",
    )


def test_criterion_7_spectral_core():
    """Homomorphism, det >= 0, Jordan reconstruction, eigenvector lift; 10^4 each."""
    rng = np.random.default_rng(707)

    worst_hom = 0.0
    min_det = np.inf
    for _ in range(10_000):
        a = QMatrix3(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        )
        b = QMatrix3(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        )
        lhs = (a @ b).adjoint()
        rhs = a.adjoint() @ b.adjoint()
        worst_hom = max(
            worst_hom, np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs))
        )
        min_det = min(min_det, det_h(a))
    hom_ok = worst_hom < 1e-8
    det_ok = min_det >= -1e-12

    e = lambda t: np.exp(1j * t)
    canon_makers = [
        lambda: QMatrix3.diag(e(rng.uniform(0.15, 3.0)), e(rng.uniform(0.15, 3.0)), e(rng.uniform(0.15, 3.0))),
        lambda: QMatrix3.diag(2 * e(0.9), 0.5 * e(0.9), e(1.3)),
        lambda: QMatrix3.from_complex([[e(0.8), 1, 0], [0, e(0.8), 0], [0, 0, e(2.0)]]),
        lambda: QMatrix3.from_complex([[e(1.4), 1, 0], [0, e(1.4), 1], [0, 0, e(1.4)]]),
        lambda: QMatrix3.from_complex([[2 * e(0.5), 1, 0], [0, 2 * e(0.5), 0], [0, 0, 0.25 * e(1.0)]]),
    ]
    worst_jordan = 0.0
    for k in range(10_000):
        a, _ = conjugated(canon_makers[k % len(canon_makers)](), rng)
        data = jordan_form(a)
        recon = data.S @ data.jordan_matrix() @ inverse(data.S)
        worst_jordan = max(worst_jordan, (a - recon).norm() / a.norm())
    jordan_ok = worst_jordan < 1e-8

    worst_lift = 0.0
    for k in range(10_000):
        canon = QMatrix3.diag(
            e(rng.uniform(0.15, 3.0)), e(rng.uniform(0.15, 3.0)), rng.uniform(0.5, 2.0)
        )
        a, _ = conjugated(canon, rng)
        phi = a.adjoint()
        w, v = np.linalg.eig(phi)
        idx = int(rng.integers(6))
        x = eigenvector_lift(v[:3, idx], v[3:, idx], w[idx], A=None)
        # residual by hand at the stated 1e-9 gate
        u = np.array([q.complex_pair()[0] for q in x])
        ww = np.array([q.complex_pair()[1] for q in x])
        au = a.a @ u - a.b @ ww.conj()
        aw = a.a @ ww + a.b @ u.conj()
        lam = w[idx]
        ru = au - u * lam
        rw = aw - ww * lam.conjugate()
        num = np.sqrt(np.sum(np.abs(ru) ** 2) + np.sum(np.abs(rw) ** 2))
        den = np.sqrt(np.sum(np.abs(u) ** 2) + np.sum(np.abs(ww) ** 2)) * max(1.0, a.norm())
        worst_lift = max(worst_lift, num / den)
    lift_ok = worst_lift < 1e-9

    report(
        "criterion 7: spectral core on 10^4 instances each",
        hom_ok and det_ok and jordan_ok and lift_ok,
        f"hom {worst_hom:.2e}, min det {min_det:.2e}, jordan {worst_jordan:.2e}, "
        f"lift {worst_lift:.2e}",
    )


def test_criterion_8_pipeline_coherence():
    """classify_via_simple == dynamical_type on 10^3 random simple elements."""
    rng = np.random.default_rng(808)
    e = lambda t: np.exp(1j * t)

    def simple_makers():
        t = rng.uniform(0.15, np.pi - 0.15)
        r = np.exp(rng.uniform(np.log(1.3), np.log(2.5)))
        sign = rng.choice([1.0, -1.0])
        third = rng.choice([1.0, -1.0])
        return [
            QMatrix3.identity(),
            -1.0 * QMatrix3.identity(),
            QMatrix3.diag(-1, 1, 1),
            QMatrix3.diag(e(t), e(t), third),
            QMatrix3.from_complex([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            QMatrix3.from_complex([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
            QMatrix3.from_complex([[-1, 1, 0], [0, -1, 0], [0, 0, -1]]),
            QMatrix3.from_complex([[-1, 1, 0], [0, -1, 1], [0, 0, -1]]),
            QMatrix3.diag(sign * r, sign / r, 1.0),
            QMatrix3.diag(r * e(t), r * e(t), 1.0 / (r * r)),
            QMatrix3.from_complex(
                [[sign * r, 1, 0], [0, sign * r, 0], [0, 0, 1.0 / (r * r)]]
            ),
        ]

    mismatches = 0
    n = 0
    while n < 1000:
        for canon in simple_makers():
            if n >= 1000:
                break
            a, _ = conjugated(canon, rng)
            if classify_via_simple(a) != dynamical_type(a):
                mismatches += 1
            n += 1
    report(
        "criterion 8: classify_via_simple == dynamical_type on 10^3 simple elements",
        mismatches == 0,
        f"{mismatches} mismatches",
    )
