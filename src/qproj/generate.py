"""Seeded random instances with ground-truth labels.

Canonical representatives are sampled inside their class (angles and moduli
kept away from the deciding boundaries), then conjugated by a random
unimodular matrix whose adjoint condition number is capped so that residual
tolerances stay meaningful downstream.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .matrix import QMatrix3, inverse, normalize_to_sl

COND_CAP = 1e3
ANGLE_MARGIN = 0.15
MOD_GAP = 1.25  # minimum ratio between distinct moduli


@dataclass
class GeneratedInstance:
    matrix: QMatrix3
    label: str
    canonical: QMatrix3
    conjugator: QMatrix3

    def to_json_dict(self) -> dict:
        out = self.matrix.to_json_dict()
        out["type"] = self.label
        return out


def _e(t: float) -> complex:
    return cmath.exp(1j * t)


def random_conjugator(rng: np.random.Generator) -> QMatrix3:
    """Random element of SL(3,H) with adjoint condition number <= COND_CAP."""
    while True:
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = normalize_to_sl(QMatrix3(a, b))
        sv = np.linalg.svd(g.adjoint(), compute_uv=False)
        if sv[0] / sv[-1] <= COND_CAP:
            return g


def _interior_angle(rng) -> float:
    return float(rng.uniform(ANGLE_MARGIN, np.pi - ANGLE_MARGIN))


def _distinct_interior_angles(rng, n: int):
    while True:
        angles = [_interior_angle(rng) for _ in range(n)]
        if all(
            abs(angles[i] - angles[j]) >= ANGLE_MARGIN
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return angles


def _modulus(rng, low: float = 0.3, high: float = 3.0) -> float:
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))


def _nonunit_modulus(rng, low: float = 0.2, high: float = 5.0) -> float:
    while True:
        r = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        if r >= MOD_GAP or r <= 1.0 / MOD_GAP:
            return r


def _boundary(rng) -> float:
    return float(rng.choice([0.0, np.pi]))


def _j2(lam, xi) -> QMatrix3:
    return QMatrix3.from_complex([[lam, 1.0, 0.0], [0.0, lam, 0.0], [0.0, 0.0, xi]])


def _j3(lam) -> QMatrix3:
    return QMatrix3.from_complex([[lam, 1.0, 0.0], [0.0, lam, 1.0], [0.0, 0.0, lam]])


# ---------------------------------------------------------------------------
# canonical samplers per dynamical type


def _gen_identity(rng):
    return QMatrix3.identity() if rng.uniform() < 0.5 else -1.0 * QMatrix3.identity()


def _gen_regular_elliptic(rng):
    t, p, s = _distinct_interior_angles(rng, 3)
    return QMatrix3.diag(_e(t), _e(p), _e(s))


def _gen_elliptic_reflection(rng):
    t = _interior_angle(rng)
    if rng.uniform() < 0.3:
        s = _boundary(rng)
    else:
        while True:
            s = _interior_angle(rng)
            if abs(s - t) >= ANGLE_MARGIN:
                break
    return QMatrix3.diag(_e(t), _e(t), _e(s))


def _gen_vertical_translation(rng):
    return _j2(1.0, 1.0)


def _gen_non_vertical_translation(rng):
    return _j3(1.0)


def _gen_ellipto_parabolic(rng):
    t = _interior_angle(rng)
    s = _interior_angle(rng) if rng.uniform() < 0.7 else _boundary(rng)
    return _j2(_e(t), _e(s))


def _gen_ellipto_translation(rng):
    return _j3(_e(_interior_angle(rng)))


def _distinct_moduli(rng, n: int):
    while True:
        mods = [_modulus(rng) for _ in range(n - 1)]
        mods.append(1.0 / np.prod(mods))
        ok = all(
            max(mods[i] / mods[j], mods[j] / mods[i]) >= MOD_GAP
            for i in range(n)
            for j in range(i + 1, n)
        )
        if ok and all(0.1 <= m <= 10.0 for m in mods):
            return mods


def _gen_regular_loxodromic(rng):
    r1, r2, r3 = _distinct_moduli(rng, 3)
    t, p, s = _distinct_interior_angles(rng, 3)
    return QMatrix3.diag(r1 * _e(t), r2 * _e(p), r3 * _e(s))


def _gen_screw_loxodromic(rng):
    r = _nonunit_modulus(rng, 0.4, 2.5)
    t, p = _distinct_interior_angles(rng, 2)
    s = _interior_angle(rng)
    return QMatrix3.diag(r * _e(t), r * _e(p), _e(s) / (r * r))


def _gen_homothety(rng):
    r = _nonunit_modulus(rng, 0.4, 2.5)
    t = _interior_angle(rng)
    s = _interior_angle(rng)
    return QMatrix3.diag(r * _e(t), r * _e(t), _e(s) / (r * r))


def _gen_loxo_parabolic(rng):
    r = _nonunit_modulus(rng, 0.4, 2.5)
    t = _interior_angle(rng)
    s = _interior_angle(rng)
    return _j2(r * _e(t), _e(s) / (r * r))


DYNAMICAL_TYPES = {
    "identity": (_gen_identity, "Identity"),
    "regular-elliptic": (_gen_regular_elliptic, "RegularElliptic"),
    "elliptic-reflection": (_gen_elliptic_reflection, "EllipticReflection"),
    "vertical-translation": (_gen_vertical_translation, "VerticalTranslation"),
    "non-vertical-translation": (_gen_non_vertical_translation, "NonVerticalTranslation"),
    "ellipto-parabolic": (_gen_ellipto_parabolic, "ElliptoParabolic"),
    "ellipto-translation": (_gen_ellipto_translation, "ElliptoTranslation"),
    "regular-loxodromic": (_gen_regular_loxodromic, "RegularLoxodromic"),
    "screw-loxodromic": (_gen_screw_loxodromic, "ScrewLoxodromic"),
    "homothety": (_gen_homothety, "Homothety"),
    "loxo-parabolic": (_gen_loxo_parabolic, "LoxoParabolic"),
}


def generate(type_name: str, seed=None, rng=None) -> GeneratedInstance:
    """One labeled random instance of the requested dynamical type."""
    if type_name not in DYNAMICAL_TYPES:
        raise ValueError(
            f"unknown type {type_name!r}; choose from {', '.join(sorted(DYNAMICAL_TYPES))}"
        )
    if rng is None:
        rng = np.random.default_rng(seed)
    sampler, label = DYNAMICAL_TYPES[type_name]
    canonical = sampler(rng)
    g = random_conjugator(rng)
    return GeneratedInstance(
        matrix=g @ canonical @ inverse(g),
        label=label,
        canonical=canonical,
        conjugator=g,
    )


# ---------------------------------------------------------------------------
# canonical reversibility families (used heavily by the test suite)


def reversible_shape(kind: str, rng) -> QMatrix3:
    """Random canonical representative of a reversible shape (i)-(iv)."""
    if kind == "i":
        return QMatrix3.diag(*(_e(rng.uniform(0.0, np.pi)) for _ in range(3)))
    if kind == "ii":
        while True:
            r = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            if abs(r - 1.0) >= 0.2:
                break
        t = rng.uniform(0.0, np.pi)
        p = rng.uniform(0.0, np.pi)
        return QMatrix3.diag(r * _e(t), _e(t) / r, _e(p))
    if kind == "iii":
        return _j2(_e(rng.uniform(0.0, np.pi)), _e(rng.uniform(0.0, np.pi)))
    if kind == "iv":
        return _j3(_e(rng.uniform(0.0, np.pi)))
    raise ValueError(f"unknown reversible shape {kind!r}")


def strong_shape(kind: str, rng) -> QMatrix3:
    """Random canonical strongly reversible representative (strong shapes i-iv)."""
    if kind == "i":
        t = rng.uniform(0.0, np.pi)
        return QMatrix3.diag(_e(t), _e(t), _e(_boundary(rng)))
    if kind == "ii":
        r = _nonunit_modulus(rng)
        t = rng.uniform(0.0, np.pi)
        return QMatrix3.diag(r * _e(t), _e(t) / r, _e(_boundary(rng)))
    if kind == "iii":
        return _j2(_e(_boundary(rng)), _e(_boundary(rng)))
    if kind == "iv":
        return _j3(_e(_boundary(rng)))
    raise ValueError(f"unknown strong shape {kind!r}")


def nonstrong_shape(kind: str, rng) -> QMatrix3:
    """Random canonical reversible-but-not-strongly-reversible representative.

    Kinds follow the published list: 1, 2, 3, 5, 6, 7, 8 (the printed list
    has no item 4).
    """
    t = _interior_angle(rng)
    if kind == "1":
        return QMatrix3.diag(_e(t), _e(t), _e(t))
    if kind == "2":
        t, p, s = _distinct_interior_angles(rng, 3)
        return QMatrix3.diag(_e(t), _e(p), _e(s))
    if kind == "3":
        r = _nonunit_modulus(rng)
        p = rng.uniform(0.0, np.pi)
        return QMatrix3.diag(r * _e(p), _e(p) / r, _e(t))
    if kind == "5":
        return _j2(_e(_boundary(rng)), _e(t))
    if kind == "6":
        while True:
            p = rng.uniform(0.0, np.pi)
            if abs(p - t) >= ANGLE_MARGIN:
                break
        return _j2(_e(t), _e(p))
    if kind == "7":
        return _j2(_e(t), _e(t))
    if kind == "8":
        return _j3(_e(t))
    raise ValueError(f"unknown non-strong shape {kind!r}")


def negative_shape(kind: str, rng) -> QMatrix3:
    """Random canonical shape conjugate to minus its inverse (shapes i-iv)."""
    if kind == "i":
        t = rng.uniform(0.0, np.pi)
        return QMatrix3.diag(_e(t), -_e(-t), 1j)
    if kind == "ii":
        r = _nonunit_modulus(rng)
        t = rng.uniform(0.0, np.pi)
        return QMatrix3.diag(r * _e(t), -_e(-t) / r, 1j)
    if kind == "iii":
        return _j2(1j, 1j)
    if kind == "iv":
        return _j3(1j)
    raise ValueError(f"unknown negative shape {kind!r}")


def nonreversible_shape(kind: str, rng) -> QMatrix3:
    """Random canonical non-reversible representative (the two listed families)."""
    if kind == "1":
        while True:
            r = _nonunit_modulus(rng, 0.3, 4.0)
            s = _nonunit_modulus(rng, 0.3, 4.0)
            if abs(r * s - 1.0) >= 0.2 and max(r / s, s / r) >= MOD_GAP:
                break
        t, p, q = (rng.uniform(0.0, np.pi) for _ in range(3))
        return QMatrix3.diag(r * _e(t), s * _e(p), _e(q) / (r * s))
    if kind == "2":
        r = _nonunit_modulus(rng, 0.4, 2.5)
        return _j2(r * _e(rng.uniform(0.0, np.pi)), _e(rng.uniform(0.0, np.pi)) / (r * r))
    raise ValueError(f"unknown non-reversible shape {kind!r}")


def conjugated(canonical: QMatrix3, rng):
    """(A, g) with A = g * canonical * g^-1 and cond Phi(g) <= COND_CAP."""
    g = random_conjugator(rng)
    return g @ canonical @ inverse(g), g


# ---------------------------------------------------------------------------
# labeled real SL(3,R) canonical forms for the trace classifier


def _rot(r: float, t: float) -> np.ndarray:
    c, s = r * np.cos(t), r * np.sin(t)
    return np.array([[c, s], [-s, c]])


def _real_block_diag(b2: np.ndarray, d: float) -> np.ndarray:
    out = np.zeros((3, 3))
    out[:2, :2] = b2
    out[2, 2] = d
    return out


def _gen_real_regular_loxodromic(rng):
    while True:
        a = rng.choice([-1.0, 1.0]) * _modulus(rng)
        b = rng.choice([-1.0, 1.0]) * _modulus(rng)
        c = 1.0 / (a * b)
        vals = [a, b, c]
        mods = [abs(v) for v in vals]
        if not all(0.1 <= m <= 10.0 for m in mods):
            continue
        if all(
            max(mods[i] / mods[j], mods[j] / mods[i]) >= MOD_GAP
            for i in range(3)
            for j in range(i + 1, 3)
        ):
            return np.diag(vals)


def _gen_real_screw(rng):
    r = _nonunit_modulus(rng, 0.4, 2.5)
    return _real_block_diag(_rot(r, _interior_angle(rng)), 1.0 / (r * r))


def _gen_real_regular_elliptic(rng):
    return _real_block_diag(_rot(1.0, _interior_angle(rng)), 1.0)


def _gen_real_homothety(rng):
    a = rng.choice([-1.0, 1.0]) * _nonunit_modulus(rng, 0.4, 2.5)
    return np.diag([a, a, 1.0 / (a * a)])


def _gen_real_loxo_parabolic(rng):
    a = rng.choice([-1.0, 1.0]) * _nonunit_modulus(rng, 0.4, 2.5)
    m = np.diag([a, a, 1.0 / (a * a)])
    m[0, 1] = 1.0
    return m


REAL_TYPES = {
    "RegularLoxodromic": _gen_real_regular_loxodromic,
    "ScrewLoxodromic": _gen_real_screw,
    "RegularElliptic": _gen_real_regular_elliptic,
    "Homothety": _gen_real_homothety,
    "LoxoParabolic": _gen_real_loxo_parabolic,
    "Identity": lambda rng: np.eye(3),
    "VerticalTranslation": lambda rng: np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, 1]]),
    "NonVerticalTranslation": lambda rng: np.array([[1.0, 1, 0], [0, 1, 1], [0, 0, 1]]),
    "EllipticReflection": lambda rng: np.diag([-1.0, -1.0, 1.0]),
    "ElliptoParabolic": lambda rng: np.array([[-1.0, 1, 0], [0, -1, 0], [0, 0, 1]]),
}


def random_real_conjugator(rng) -> np.ndarray:
    while True:
        g = rng.standard_normal((3, 3))
        d = np.linalg.det(g)
        if abs(d) < 1e-3:
            continue
        g = g / np.cbrt(d)
        if np.linalg.cond(g) <= COND_CAP:
            return g


def generate_real(label: str, rng) -> np.ndarray:
    """Random real unimodular matrix of the labeled class."""
    canonical = REAL_TYPES[label](rng)
    g = random_real_conjugator(rng)
    return g @ canonical @ np.linalg.inv(g)
