"""Sampled unit-modulus functions on regular grids.

Functions f from the n-torus (period 2*pi per axis) into the unit circle are
held as complex arrays over the regular grid x_m = (2*pi*m_1/N_1, ...,
2*pi*m_n/N_n), row-major with the first axis slowest.  Functions on the real
line (restricted to the fundamental window [0, 2*pi)^n) additionally carry the
endpoint values f(2*pi*e_j), one per axis, which is exactly the datum the
fractional-frequency reduction consumes.

The containers check structure (shapes, axis counts) at construction and are
immutable afterwards; unit-modulus checking is the job of :func:`validate`,
which reports violations instead of raising so callers can decide.  Values off
the unit circle are representable on purpose: spectral diagnostics remain
meaningful for them.

Translations are grid-aligned cyclic shifts only.  They are exact (pure index
permutations, no interpolation), and since the homomorphism identities under
test must hold for every translation, testing them on grid points is the
faithful discrete restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .circle import UNIT_TOL, div_arrays, root_of_unity_powers, unit_deviation

IntVector = Union[int, Sequence[int]]
RealVector = Union[float, Sequence[float]]


def _as_grid(grid: IntVector) -> tuple[int, ...]:
    g = (int(grid),) if np.isscalar(grid) else tuple(int(n) for n in grid)
    if len(g) < 1:
        raise ValueError("grid needs at least one axis")
    if any(n < 2 for n in g):
        raise ValueError(f"grid counts must all be >= 2, got {g}")
    return g


def _as_vector(v, dim: int, name: str) -> tuple:
    t = (v,) if np.isscalar(v) else tuple(v)
    if len(t) != dim:
        raise ValueError(f"{name} has {len(t)} entries for a {dim}-axis grid")
    return t


@dataclass(frozen=True, eq=False)
class TorusSamples:
    """Samples of f on the grid [0, 2*pi)^n.

    ``values`` may be passed flat (row-major, length prod(grid)) or already
    shaped like ``grid``; it is stored shaped and read-only.
    """

    grid: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = _as_grid(self.grid)
        vals = np.asarray(self.values, dtype=np.complex128)
        size = math.prod(grid)
        if vals.shape == (size,):
            vals = vals.reshape(grid)
        elif vals.shape != grid:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {grid}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return len(self.grid)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class LineSamples:
    """Samples of f on [0, 2*pi)^n plus the endpoint values f(2*pi*e_j)."""

    base: TorusSamples
    endpoint_values: np.ndarray

    def __post_init__(self) -> None:
        ep = np.asarray(self.endpoint_values, dtype=np.complex128)
        if ep.shape != (self.base.dim,):
            raise ValueError(
                f"expected {self.base.dim} endpoint values, got shape {ep.shape}"
            )
        ep = ep.copy()
        ep.flags.writeable = False
        object.__setattr__(self, "endpoint_values", ep)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def grid(self) -> tuple[int, ...]:
        return self.base.grid


@dataclass(frozen=True)
class Violation:
    """One unit-invariant defect: which array, at which index, how far off."""

    where: str
    index: tuple[int, ...]
    deviation: float


def sample_character_torus(k: IntVector, grid: IntVector) -> TorusSamples:
    """Samples of x -> exp(i k.x) on the grid.

    Requires |k_j| < N_j/2 on every axis (the Nyquist limit of the grid);
    frequencies at or beyond it would alias and are rejected rather than
    silently wrapped.
    """
    g = _as_grid(grid)
    kk = _as_vector(k, len(g), "k")
    kk = tuple(int(x) for x in kk)
    for kj, nj in zip(kk, g):
        if not 2 * abs(kj) < nj:
            raise ValueError(f"|k|={abs(kj)} aliases on an axis of {nj} samples")
    values = reduce(
        np.multiply.outer, (root_of_unity_powers(kj, nj) for kj, nj in zip(kk, g))
    )
    return TorusSamples(g, values)


def sample_character_line(alpha: RealVector, grid: IntVector) -> LineSamples:
    """Samples of x -> exp(i alpha.x) on [0, 2*pi)^n plus endpoints exp(i 2*pi alpha_j).

    The integer part of each alpha_j must satisfy the same Nyquist bound as
    the torus generator, or the fractional reduction could not recover it.
    """
    g = _as_grid(grid)
    aa = _as_vector(alpha, len(g), "alpha")
    aa = tuple(float(x) for x in aa)
    for aj, nj in zip(aa, g):
        if not math.isfinite(aj):
            raise ValueError(f"alpha must be finite, got {aj!r}")
        if not 2 * abs(math.floor(aj)) < nj:
            raise ValueError(
                f"integer part {math.floor(aj)} of alpha={aj} aliases on an "
                f"axis of {nj} samples"
            )
    values = reduce(
        np.multiply.outer,
        (np.exp(1j * aj * (2.0 * np.pi / nj) * np.arange(nj)) for aj, nj in zip(aa, g)),
    )
    endpoints = np.exp(2j * np.pi * np.asarray(aa))
    return LineSamples(TorusSamples(g, values), endpoints)


def shift_samples(s: TorusSamples, offset: IntVector) -> TorusSamples:
    """Cyclic translation: output index m holds the input value at
    (m + offset) mod grid.  Exact, no interpolation."""
    off = _as_vector(offset, s.dim, "offset")
    shifted = np.roll(s.values, tuple(-int(o) for o in off), axis=tuple(range(s.dim)))
    return TorusSamples(s.grid, shifted)


def _probe_pairs(
    grid: tuple[int, ...], trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only flat indices (a, b, a (+) b) of the pair (0, 0) followed by
    ``trials`` seeded pairs drawn uniformly from ``grid``, with (+) the exact
    index addition mod the grid.

    The pairs depend on (grid, trials, seed) only, so the torus check can
    keep them between calls; the same seed gives the same pairs on both the
    torus and the finite-group paths.
    """
    rng = np.random.default_rng(seed)
    orders = np.asarray(grid)
    dim = len(grid)
    a = rng.integers(0, orders, size=(trials, dim))
    b = rng.integers(0, orders, size=(trials, dim))
    zero = np.zeros((1, dim), dtype=a.dtype)
    a = np.concatenate([zero, a])
    b = np.concatenate([zero, b])
    ab = (a + b) % orders
    flat = []
    for x in (a, b, ab):
        # row-major flat index by Horner's rule; np.ravel_multi_index would
        # bounds-check indices drawn inside the grid, 4 ms per 2^20 of them
        f = x[:, 0]
        for ax in range(1, dim):
            f = f * grid[ax] + x[:, ax]
        f.flags.writeable = False
        flat.append(f)
    return tuple(flat)


def pointwise_div(f: TorusSamples, g: TorusSamples) -> TorusSamples:
    """Elementwise renormalized quotient f/g over matching grids."""
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")
    return TorusSamples(f.grid, div_arrays(f.values, g.values))


def validate(
    s: Union[TorusSamples, LineSamples], tol: float = UNIT_TOL
) -> list[Violation]:
    """Check the unit-modulus invariant everywhere; never raises.

    Returns one :class:`Violation` per offending entry (empty list means all
    invariants hold).  Structural invariants are enforced at construction, so
    only the modulus can be wrong here.
    """
    if isinstance(s, LineSamples):
        out = validate(s.base, tol)
        dev = unit_deviation(s.endpoint_values)
        for (j,) in np.argwhere(~(dev <= tol)):
            out.append(Violation("endpoint_values", (int(j),), float(dev[j])))
        return out
    dev = unit_deviation(s.values)
    # ~(dev <= tol) rather than dev > tol so NaN values are flagged too
    return [
        Violation("values", tuple(int(i) for i in idx), float(dev[tuple(idx)]))
        for idx in np.argwhere(~(dev <= tol))
    ]
