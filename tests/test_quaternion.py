import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproj import DegenerateInput, Quaternion
from oracles import quaternion_left_mult_matrix, solve_right_inverse

ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_hamilton_relations():
    assert (I * I).isclose(-1)
    assert (J * J).isclose(-1)
    assert (K * K).isclose(-1)
    assert (I * J * K).isclose(-1)
    assert (I * J).isclose(K)
    assert (J * K).isclose(I)
    assert (K * I).isclose(J)
    assert (J * I).isclose(-K)


def test_conj_product_example():
    # (1 + j)(1 - j) = 1 - j + j - j^2 = 2
    assert (Quaternion(1, 0, 1) * Quaternion(1, 0, -1)).isclose(2)


def test_inverse_example_against_linear_solve():
    q = Quaternion(0, 0, 0, 2)  # 2k
    expected = solve_right_inverse(q)  # oracle: solve q*x = 1 componentwise
    assert expected.isclose(Quaternion(0, 0, 0, -0.5))
    assert q.inverse().isclose(expected)


def test_inverse_of_near_zero_raises():
    with pytest.raises(DegenerateInput):
        Quaternion(1e-12, 0, 0, 0).inverse()


@given(quats, quats)
@settings(max_examples=200)
def test_norm_multiplicative(q, p):
    lhs = (q * p).norm()
    rhs = q.norm() * p.norm()
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(quats)
@settings(max_examples=200)
def test_conj_gives_norm_square(q):
    prod = q * q.conj()
    assert prod.x == pytest.approx(0, abs=1e-6)
    assert prod.y == pytest.approx(0, abs=1e-6)
    assert prod.z == pytest.approx(0, abs=1e-6)
    assert prod.w == pytest.approx(q.norm() ** 2, rel=1e-9, abs=1e-9)


@given(quats, quats, quats)
@settings(max_examples=100)
def test_associativity(q, p, r):
    lhs = (q * p) * r
    rhs = q * (p * r)
    scale = max(1.0, lhs.norm(), rhs.norm())
    assert (lhs - rhs).norm() <= 1e-9 * scale


def test_inverse_roundtrip(rng):
    for _ in range(100):
        q = Quaternion(*rng.standard_normal(4))
        if q.norm() < 1e-6:
            continue
        assert (q.inverse() * q).isclose(1, tol=1e-10)
        assert (q * q.inverse()).isclose(1, tol=1e-10)


def test_twisted_intertwiner_forces_zero(rng):
    # b * e^{i a} = e^{i b} * b with a != +-b has only the zero solution
    for _ in range(200):
        alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
        if min(abs(alpha - beta), abs(alpha + beta)) < 0.1:
            continue
        ea = Quaternion(math.cos(alpha), math.sin(alpha))
        eb = Quaternion(math.cos(beta), math.sin(beta))
        op = quaternion_right_multiply(ea) - quaternion_left_mult_matrix(eb)
        s = np.linalg.svd(op, compute_uv=False)
        assert s[-1] > 1e-3  # trivial kernel


def quaternion_right_multiply(q):
    from oracles import quaternion_right_mult_matrix

    return quaternion_right_mult_matrix(q)


def test_modulus_mismatch_forces_zero(rng):
    # a (r e^{i t}) = (s e^{i p}) a with r != s has only the zero solution
    from oracles import quaternion_right_mult_matrix

    for _ in range(200):
        r, s = np.exp(rng.uniform(-1.5, 1.5, size=2))
        if abs(r - s) < 0.1:
            continue
        t, p = rng.uniform(0, math.pi, size=2)
        lhs = quaternion_right_mult_matrix(Quaternion(r * math.cos(t), r * math.sin(t)))
        rhs = quaternion_left_mult_matrix(Quaternion(s * math.cos(p), s * math.sin(p)))
        sv = np.linalg.svd(lhs - rhs, compute_uv=False)
        assert sv[-1] > 1e-3


def test_serialization_roundtrip():
    q = Quaternion(1.5, -2.25, 0.125, 3.0)
    assert Quaternion.from_list(q.to_list()) == q
