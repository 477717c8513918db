"""One window per verdict: classification, reversibility and the decomposition
route judge one Jordan form by ClassRep.is_unit, is_real and isclose.

The Jordan data here is built by hand, right at the window edges, so that a
second copy of a window with another scale or formula would show as a
contradiction between the three.
"""

import math

import numpy as np
import pytest

from qproj.classify import Major, Minor, _classify_from_jordan
from qproj.decompose import _canonical_rows
from qproj.matrix import QMatrix3
from qproj.quaternion import ClassRep
from qproj.reversibility import _matches
from qproj.spectral import JordanData, _block_sort_key, _shape_id

TOL = 1e-9


def polar(modulus, angle):
    return ClassRep(modulus * math.cos(angle), modulus * math.sin(angle))


def jordan_data(blocks):
    """JordanData of blocks [(ClassRep, size)] in canonical order, with S = I."""
    blocks = sorted(blocks, key=_block_sort_key)
    eye = QMatrix3.identity()
    return JordanData(blocks=blocks, S=eye, S_inv=eye, shape_id=_shape_id(blocks), residual=0.0)


def verdicts(data):
    """(dynamical type, skew reverser found, involution found, unit route taken)."""
    skew, involution, _ = _matches(data, TOL)
    # the unit routes of a diagonal and a J2 shape make 3 factors, the others 4
    unit_route = len(_canonical_rows(data, TOL)) == 3
    return _classify_from_jordan(data, TOL), skew is not None, involution is not None, unit_route


def assert_windows_agree(data):
    kind, reversible, strong, unit_route = verdicts(data)
    unit = all(rep.is_unit(TOL) for rep, _ in data.blocks)
    elliptic_or_parabolic = kind.major is not Major.LOXODROMIC
    assert elliptic_or_parabolic == unit == unit_route
    if elliptic_or_parabolic:
        assert reversible
    if kind.minor in (Minor.IDENTITY, Minor.VERTICAL_TRANSLATION):
        assert strong


def test_a_modulus_just_outside_the_unit_window_is_loxodromic_everywhere():
    # one modulus 1.0000003e-6 below 1, two 5e-7 above it: a scale shared by
    # all three classes would call the first unit, so classify would answer
    # elliptic while no reverser exists and the decomposition takes its
    # non-unit route
    data = jordan_data([(polar(1 - 1.0000003e-6, 0.5), 1), (polar(1 + 5e-7, 1.3), 1),
                        (polar(1 + 5e-7, 2.2), 1)])
    kind, reversible, strong, unit_route = verdicts(data)
    assert kind.minor is Minor.SCREW_LOXODROMIC
    assert (reversible, strong, unit_route) == (False, False, False)
    assert_windows_agree(data)


def test_a_unipotent_j2_class_at_the_real_window_edge_is_strongly_reversible():
    # |λ| = 1 - 9e-7 and Im λ = 9.999996e-7, whose angle is just above 1e-6:
    # the class is 1 within isclose and real within is_real, so the vertical
    # translation has an involution reverser
    im = 9.999996e-7
    lam = ClassRep(math.sqrt((1 - 9e-7) ** 2 - im * im), im)
    data = jordan_data([(lam, 2), (ClassRep(1.0, 0.0), 1)])
    kind, reversible, strong, unit_route = verdicts(data)
    assert kind.minor is Minor.VERTICAL_TRANSLATION
    assert (reversible, strong, unit_route) == (True, True, True)
    assert_windows_agree(data)


def near_boundary_class(rng):
    """A class with modulus within 1.2e-6 of 1 and angle within 2e-6 of 0 or
    pi; half the time each offset lies within 2e-12 of the 1e-6 window edge."""
    def offset(width):
        if rng.random() < 0.5:
            return rng.uniform(-width, width)
        return math.copysign(1e-6 + rng.uniform(-2e-12, 2e-12), rng.uniform(-width, width))

    angle = abs(offset(2e-6))
    return polar(1.0 + offset(1.2e-6), angle if rng.random() < 0.5 else math.pi - angle)


@pytest.mark.parametrize("shape", ["diag", "j2"])
def test_random_jordan_data_at_the_window_edges_agree(shape):
    rng = np.random.default_rng(28)
    sizes = (1, 1, 1) if shape == "diag" else (2, 1)
    for _ in range(1000):
        data = jordan_data([(near_boundary_class(rng), size) for size in sizes])
        assert data.shape_id == shape
        assert_windows_agree(data)
