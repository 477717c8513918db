import numpy as np
import pytest

from qproj import (
    Major,
    Minor,
    NotReal,
    NotSimple,
    NotUnimodular,
    QMatrix3,
    TracePair,
    classification_report,
    classify_sl3r,
    classify_via_simple,
    discriminant_f,
    dynamical_type,
)
from qproj.generate import REAL_TYPES, conjugated, generate, generate_real
from oracles import classify_real_by_roots, cubic_discriminant_from_roots

e = lambda t: np.exp(1j * t)


def j2(lam, xi):
    return QMatrix3.from_complex([[lam, 1, 0], [0, lam, 0], [0, 0, xi]])


def j3(lam):
    return QMatrix3.from_complex([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])


def rot3(theta, third=1.0):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s, 0], [-s, c, 0], [0, 0, third]])


def test_dynamical_type_examples():
    a = QMatrix3.diag(e(np.pi / 3), e(np.pi / 4), e(np.pi / 5))
    assert dynamical_type(a).minor is Minor.REGULAR_ELLIPTIC
    assert dynamical_type(j2(1, 1)).minor is Minor.VERTICAL_TRANSLATION
    assert dynamical_type(QMatrix3.diag(2, 2, 0.25)).minor is Minor.HOMOTHETY


def test_dynamical_type_full_partition():
    cases = [
        (QMatrix3.identity(), Minor.IDENTITY),
        (-1.0 * QMatrix3.identity(), Minor.IDENTITY),
        (QMatrix3.diag(1j, 1j, 1), Minor.ELLIPTIC_REFLECTION),
        (j3(1), Minor.NON_VERTICAL_TRANSLATION),
        (j2(e(0.9), e(2.0)), Minor.ELLIPTO_PARABOLIC),
        (j3(e(1.1)), Minor.ELLIPTO_TRANSLATION),
        (QMatrix3.diag(2 * e(0.5), 0.7 * e(1.0), e(2.0) / 1.4), Minor.REGULAR_LOXODROMIC),
        (QMatrix3.diag(2 * e(0.5), 2 * e(1.5), 0.25 * e(1.0)), Minor.SCREW_LOXODROMIC),
        (j2(2 * e(0.5), 0.25 * e(1.0)), Minor.LOXO_PARABOLIC),
    ]
    for a, want in cases:
        assert dynamical_type(a).minor is want, f"{want}: got {dynamical_type(a).minor}"


def test_dynamical_type_requires_unimodular():
    with pytest.raises(NotUnimodular):
        dynamical_type(QMatrix3.diag(2, 2, 2))


def test_dynamical_type_conjugation_invariant(rng):
    for name in ("regular-elliptic", "screw-loxodromic", "ellipto-translation"):
        inst = generate(name, rng=rng)
        base = dynamical_type(inst.canonical)
        assert dynamical_type(inst.matrix) == base


def test_discriminant_examples():
    assert discriminant_f(3, 3) == pytest.approx(0.0)
    # oracle: product of squared root differences for roots {1, 2, 1/2}
    assert cubic_discriminant_from_roots(3.5, 3.5) == pytest.approx(0.5625)
    assert discriminant_f(3.5, 3.5) == pytest.approx(0.5625)
    assert cubic_discriminant_from_roots(0, 0) == pytest.approx(-27.0)
    assert discriminant_f(0, 0) == pytest.approx(-27.0)


def test_discriminant_matches_root_oracle(rng):
    for _ in range(500):
        x, y = rng.uniform(-6, 6, size=2)
        want = cubic_discriminant_from_roots(x, y)
        got = discriminant_f(x, y)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_discriminant_sign_law(rng):
    for _ in range(500):
        x, y = rng.uniform(-6, 6, size=2)
        f = discriminant_f(x, y)
        roots = np.roots([1.0, -x, y, -1.0])
        n_real = int(np.sum(np.abs(roots.imag) < 1e-7 * np.maximum(1, np.abs(roots))))
        if abs(f) < 1e-9:
            continue  # boundary measure zero but guard anyway
        if f > 0:
            assert n_real == 3
            assert min(abs(roots[0] - roots[1]), abs(roots[0] - roots[2]), abs(roots[1] - roots[2])) > 0
        else:
            assert n_real == 1


def test_classify_sl3r_examples():
    assert classify_sl3r(np.diag([2.0, 0.5, 1.0])).minor is Minor.REGULAR_LOXODROMIC
    assert classify_sl3r(rot3(np.pi / 3)).minor is Minor.REGULAR_ELLIPTIC
    assert discriminant_f(2.0, 2.0) == pytest.approx(-3.0)
    a = np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert classify_sl3r(a).minor is Minor.VERTICAL_TRANSLATION


def test_classify_sl3r_errors():
    with pytest.raises(NotUnimodular):
        classify_sl3r(np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(NotReal):
        classify_sl3r(QMatrix3.diag(1j, -1j, 1))


def test_classify_sl3r_table2(rng):
    for label in REAL_TYPES:
        for _ in range(25):
            a = generate_real(label, rng)
            got = classify_sl3r(a).minor
            assert got.value == label, f"{label}: classified {got.value}"
            assert classify_real_by_roots(a) is got


def test_classify_sl3r_agrees_with_quaternionic_embedding(rng):
    for label in REAL_TYPES:
        a = generate_real(label, rng)
        quat_verdict = dynamical_type(QMatrix3.from_real(a))
        real_verdict = classify_sl3r(a)
        # complex pairs collapse to repeated quaternionic classes
        collapse = {
            Minor.REGULAR_ELLIPTIC: Minor.ELLIPTIC_REFLECTION,
            Minor.SCREW_LOXODROMIC: Minor.HOMOTHETY,
        }
        lifted = collapse.get(real_verdict.minor, real_verdict.minor)
        assert quat_verdict.minor is lifted


def test_unit_modulus_trace_test_examples():
    # the trace pair (x, y), and whether classify_sl3r finds every modulus 1
    # (a major type other than loxodromic)
    for a, x, unit in ((rot3(np.pi / 3), 2.0, True),
                       # excluded pattern: three distinct real eigenvalues can
                       # have x = y without unit moduli
                       (np.diag([2.0, 0.5, 1.0]), 3.5, False),
                       (np.diag([-1.0, -1.0, 1.0]), -1.0, True)):
        pair = TracePair.from_real_matrix(a)
        assert (pair.x, pair.y) == (pytest.approx(x), pytest.approx(x))
        assert (classify_sl3r(a).major is not Major.LOXODROMIC) is unit


def test_unit_modulus_trace_test_on_pattern(rng):
    # on the pattern r^-2, r e^{i t}, r e^{-i t} the moduli are all 1 exactly
    # when x = y, which classify_sl3r reads as regular elliptic, not screw
    for k in range(300):
        r = 1.0 if k % 3 == 0 else np.exp(rng.uniform(-1.0, 1.0))
        t = rng.uniform(0.15, np.pi - 0.15)
        a = np.zeros((3, 3))
        a[:2, :2] = r * np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        a[2, 2] = 1.0 / (r * r)
        g = rng.standard_normal((3, 3))
        if abs(np.linalg.det(g)) < 1e-2:
            continue
        g /= np.cbrt(np.linalg.det(g))
        a = g @ a @ np.linalg.inv(g)
        pair = TracePair.from_real_matrix(a)
        assert (abs(pair.x - pair.y) < 1e-6) == (r == 1.0), (r, t, pair)
        assert classify_sl3r(a).minor is (
            Minor.REGULAR_ELLIPTIC if r == 1.0 else Minor.SCREW_LOXODROMIC), (r, t, pair)


def test_trace_pair_invariant(rng):
    a = generate_real("RegularLoxodromic", rng)
    pair = TracePair.from_real_matrix(a)
    coeffs = np.poly(a)
    assert coeffs[1] == pytest.approx(-pair.x)
    assert coeffs[2] == pytest.approx(pair.y)
    assert coeffs[3] == pytest.approx(-1.0)


def test_classify_via_simple_examples():
    assert classify_via_simple(QMatrix3.diag(1j, 1j, 1)).minor is Minor.ELLIPTIC_REFLECTION
    assert classify_via_simple(j2(2, 0.25)).minor is Minor.LOXO_PARABOLIC
    assert classify_via_simple(QMatrix3.diag(2, 2, 0.25)).minor is Minor.HOMOTHETY


def test_classify_via_simple_requires_simple():
    with pytest.raises(NotSimple):
        classify_via_simple(QMatrix3.diag(1j, 1, 1))


def test_classify_via_simple_matches_dynamical(rng):
    simple_makers = [
        lambda: QMatrix3.identity(),
        lambda: QMatrix3.diag(-1, 1, 1),
        lambda: QMatrix3.diag(e(1.0), e(1.0), 1),
        lambda: QMatrix3.diag(e(1.0), e(1.0), -1),
        lambda: j2(1, 1),
        lambda: j3(1),
        lambda: j3(-1),
        lambda: QMatrix3.from_complex([[-1, 1, 0], [0, -1, 0], [0, 0, -1]]),
        lambda: QMatrix3.diag(2, 0.5, 1),
        lambda: QMatrix3.diag(2 * e(0.7), 2 * e(0.7), 0.25),
        lambda: j2(2, 0.25),
    ]
    for mk in simple_makers:
        for _ in range(5):
            a, _ = conjugated(mk(), rng)
            assert classify_via_simple(a) == dynamical_type(a)


def test_classification_report_fields(rng):
    inst = generate("homothety", rng=rng)
    rep = classification_report(inst.matrix)
    assert rep["minor"] == "Homothety"
    assert rep["jordan"]["shape"] == "diag"
    # non-real repeated class contributes an irreducible quadratic factor
    assert rep["d"] in (1, 2)
    if rep["f"] is not None:
        assert rep["f"] == pytest.approx(0.0, abs=1e-5)
