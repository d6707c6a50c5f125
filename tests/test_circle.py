"""Unit-circle arithmetic: group laws, branch conventions, renormalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charid.circle import (
    TWO_PI,
    div_arrays,
    principal_angles,
    renormalize,
    root_of_unity_powers,
    unit_deviation,
)

angles = st.floats(min_value=-50.0, max_value=50.0)
angle_lists = st.lists(angles, min_size=1, max_size=8)
angle_pairs = st.lists(st.tuples(angles, angles), min_size=1, max_size=8).map(
    lambda pairs: np.array(pairs).T
)


def unit(thetas) -> np.ndarray:
    return np.exp(1j * np.array(thetas, dtype=np.float64))


def test_mul_matches_angle_addition_frozen():
    # angles 3.2 + 3.9 = 7.1, reduced: 7.1 - 2*pi = 0.81681469282041352307;
    # the renormalized product a * b is the quotient a / conj(b)
    v = div_arrays(unit([3.2]), unit([-3.9]))
    assert v[0].real == pytest.approx(0.68454666644280634062, abs=1e-15)
    assert v[0].imag == pytest.approx(0.72896904012587615208, abs=1e-15)
    got = principal_angles(np.concatenate([v, unit([7.1])]))
    assert got[0] == pytest.approx(0.81681469282041352307, abs=1e-13)
    assert got[1] == pytest.approx(0.81681469282041352307, abs=1e-13)


def test_from_angle_frozen_points():
    v = unit([-math.pi / 8])
    assert v[0].real == pytest.approx(0.92387953251128675613, abs=1e-15)
    assert v[0].imag == pytest.approx(-0.38268343236508977173, abs=1e-15)
    # negative angles land on the [0, 2*pi) branch
    got = principal_angles(unit([-math.pi / 2, -math.pi / 8]))
    assert got[0] == pytest.approx(4.7123889803846898577, abs=1e-15)
    assert got[1] == pytest.approx(TWO_PI - math.pi / 8, abs=1e-15)


def test_principal_angle_tiny_negative_wraps_to_zero():
    # the angle of a hair below the positive real axis, mod 2*pi, rounds to
    # 2*pi itself; the branch must still be [0, 2*pi)
    theta = principal_angles(np.array([1 - 1e-18j, 1 + 0j]))
    assert theta[0] == 0.0 and theta[1] == 0.0


@given(angle_pairs)
@settings(deadline=None)
def test_div_arrays_is_angle_subtraction(ab):
    a, b = ab
    assert np.abs(div_arrays(unit(a), unit(b)) - unit(a - b)).max() < 1e-12


@given(angle_pairs)
@settings(deadline=None)
def test_div_inverts_mul(ab):
    za, zb = unit(ab[0]), unit(ab[1])
    assert np.abs(div_arrays(za * zb, zb) - za).max() < 1e-12


@given(angle_pairs)
@settings(deadline=None)
def test_products_stay_on_circle(ab):
    za, zb = unit(ab[0]), unit(ab[1])
    assert unit_deviation(div_arrays(za, zb)).max() < 1e-15
    # renormalization also repairs modulus drift in the operands
    assert unit_deviation(div_arrays(1.5 * za, 0.25 * zb)).max() < 1e-15


@given(angle_lists)
@settings(deadline=None)
def test_angle_round_trip(thetas):
    back = principal_angles(unit(thetas))
    assert ((back >= 0.0) & (back < TWO_PI)).all()
    assert np.abs(unit(back) - unit(thetas)).max() < 1e-12


def test_renormalize_restores_unit_modulus():
    rng = np.random.default_rng(11)
    z = (0.2 + 2.0 * rng.random(64)) * np.exp(1j * rng.uniform(0, TWO_PI, 64))
    out = renormalize(z)
    assert unit_deviation(out).max() < 1e-15
    # direction preserved
    assert np.allclose(np.angle(out), np.angle(z))


def test_root_of_unity_powers_exact_start_and_law():
    for n in (1, 2, 3, 8, 12, 17):
        r = root_of_unity_powers(5 % n, n)
        assert r[0] == 1.0 + 0.0j
        assert unit_deviation(r).max() < 1e-15


@given(st.integers(0, 30), st.integers(1, 31), st.integers(0, 30), st.integers(0, 30))
@settings(deadline=None)
def test_root_of_unity_group_law(k, n, a, b):
    r = root_of_unity_powers(k % n, n)
    assert abs(r[(a + b) % n] - r[a % n] * r[b % n]) < 5e-15
