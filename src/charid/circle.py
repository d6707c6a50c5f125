"""Elementwise arithmetic on the complex unit circle.

Every sampled function handled by this package takes values in the
multiplicative group of unit-modulus complex numbers, held as complex128
arrays.  This module provides the few array operations the pipeline needs:
renormalization, the renormalized quotient a * conj(b) (so modulus drift
cannot accumulate), the principal angle in [0, 2*pi), the distance from the
unit circle that input checking measures, and the roots of unity every
character, transform phase and finite table is built from.

All functions are pure, so everything here is safe for unrestricted
concurrent use.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

TWO_PI = 2.0 * math.pi

#: Tolerance for accepting externally supplied values as unit-modulus.
UNIT_TOL = 1e-9


def renormalize(z: np.ndarray) -> np.ndarray:
    """Divide each element by its modulus, restoring unit modulus exactly
    up to rounding."""
    return z / np.abs(z)


def div_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise renormalized quotient a * conj(b)."""
    return renormalize(a * np.conj(b))


def principal_angles(z: np.ndarray) -> np.ndarray:
    """Elementwise principal angle in [0, 2*pi)."""
    theta = np.mod(np.angle(z), TWO_PI)
    # the mod lands exactly on 2*pi for tiny negative angles
    theta[theta >= TWO_PI] = 0.0
    return theta


def unit_deviation(z: np.ndarray) -> np.ndarray:
    """Elementwise | |z| - 1 |."""
    return np.abs(np.abs(z) - 1.0)


def root_of_unity_powers(k: int, n: int) -> np.ndarray:
    """The sequence exp(2*pi*i*k*m/n) for m = 0..n-1.

    The argument is reduced to [0, 2*pi) in exact integer arithmetic first,
    so every entry is a single rounding away from the true circle point.
    Used for grid characters, transform phases, and finite-group character
    tables alike, which keeps those constructions bit-compatible.  An
    integer column of k values gives the (k_j, m_j) factor of enumeration.
    """
    z = 2j * np.pi * ((k * np.arange(n)) % n)
    z /= n
    return np.exp(z, out=z)


def character_values(k, grid) -> np.ndarray:
    """A fresh array of exp(2*pi*i * sum_j k_j m_j / N_j) over ``grid``: the
    outer product of the rows root_of_unity_powers(k_j, N_j)."""
    return reduce(np.multiply.outer, (root_of_unity_powers(kj, nj) for kj, nj in zip(k, grid)))
