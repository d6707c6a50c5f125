"""Fourier analysis on the sampled torus.

The Fourier coefficient of f at integer frequency k is the Riemann-sum
discretization of (1/2*pi)^n times the integral of f(x) exp(-i k.x) over the
fundamental window:

    fhat(k) = (1/prod N_j) sum_m f(x_m) exp(-i k.x_m),

which for grid data is the normalized DFT bin.  No quadrature refinement is
applied: grid characters are exactly band-limited, so discrete orthogonality
makes their coefficients exact spikes, and that exactness is what the
identification pipeline leans on.

Two independent routes compute the same numbers and are kept deliberately
separate: :func:`coefficient` evaluates the sum directly for one k, while
:func:`spectrum` computes every k in the frequency box through the fast
transform.  Tests hold them against each other.

Frequencies are labeled by the symmetric box [-N_j/2, N_j/2) per axis
(integers -floor(N_j/2) .. N_j - floor(N_j/2) - 1), the unambiguous relabeling
of DFT bins with negative frequencies recovered from the upper bins.

Everything here is a pure transform of immutable inputs, safe to run
concurrently; results are deterministic for a fixed input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .circle import root_of_unity_powers
from .samples import IntVector, TorusSamples, _adopt, _as_vector, shift_samples

#: Default magnitude a coefficient must reach to count as dominant.  Parseval
#: then caps any second coefficient at sqrt(1 - 0.81) ~ 0.436, so the spike
#: is unambiguous.
DOMINANCE_FLOOR = 0.9


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """All coefficients of one sample set over the symmetric frequency box.

    ``coeffs`` is stored shifted, so axis index i holds frequency
    i - N_j//2; :meth:`at` does the bookkeeping.
    """

    grid: tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != tuple(self.grid):
            raise ValueError(
                f"coefficient array shape {coeffs.shape} does not match grid {self.grid}"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return len(self.grid)

    @property
    def freq_box(self) -> tuple[tuple[int, int], ...]:
        """Per-axis half-open frequency ranges [lo, hi)."""
        return tuple((-(n // 2), n - n // 2) for n in self.grid)

    def _index_of(self, k: IntVector) -> tuple[int, ...]:
        kk = _as_vector(k, self.dim, "k")
        box = self.freq_box
        for kj, (lo, hi) in zip(kk, box):
            if not lo <= kj < hi:
                raise ValueError(f"frequency {tuple(kk)} outside box {box}")
        return tuple(int(kj) + n // 2 for kj, n in zip(kk, self.grid))

    def at(self, k: IntVector) -> complex:
        """The coefficient at integer frequency k (k must lie in the box)."""
        return complex(self.coeffs[self._index_of(k)])

    def items(self):
        """Iterate (k, coefficient) over the whole box."""
        halves = [n // 2 for n in self.grid]
        for idx in np.ndindex(*self.grid):
            k = tuple(i - h for i, h in zip(idx, halves))
            yield k, complex(self.coeffs[idx])


def _freq_in_box(k: IntVector, grid: tuple[int, ...]) -> tuple[int, ...]:
    kk = _as_vector(k, len(grid), "k")
    kk = tuple(int(x) for x in kk)
    for kj, n in zip(kk, grid):
        if not -(n // 2) <= kj < n - n // 2:
            raise ValueError(
                f"frequency {kk} outside the grid's box "
                f"{tuple((-(n // 2), n - n // 2) for n in grid)}"
            )
    return kk


def coefficient(s: TorusSamples, k: IntVector) -> complex:
    """Direct Riemann-sum evaluation of fhat(k) for a single k.

    O(prod N_j) per call; this is the independent route against which the
    fast-transform spectrum is checked.
    """
    kk = _freq_in_box(k, s.grid)
    phases = reduce(
        np.multiply.outer,
        (root_of_unity_powers(-kj, nj) for kj, nj in zip(kk, s.grid)),
    )
    return complex((s.values * phases).sum() / s.size)


@lru_cache(maxsize=32)
def _shift_blocks(grid: tuple[int, ...]) -> tuple:
    """(source, destination) index tuples of the 2^d blocks that move a
    row-major transform over ``grid`` into ``np.fft.fftshift`` order:
    shifted index i holds unshifted index (i - N//2) mod N on every axis."""
    halves = [
        ((slice(n - n // 2, n), slice(0, n // 2)), (slice(0, n - n // 2), slice(n // 2, n)))
        for n in grid
    ]
    return tuple(tuple(zip(*block)) for block in product(*halves))


def spectrum(s: TorusSamples) -> FourierSpectrum:
    """All coefficients over the frequency box via the fast transform.

    O(M log M) for M total samples, any composite grid size.  Agrees with
    :func:`coefficient` entrywise to rounding, and bitwise with
    ``np.fft.fftshift(np.fft.fftn(s.values)) / M``: the division by M runs
    in place on the transform, whose 2^d half-axis blocks are then copied
    once into shifted order, and that fresh array is handed over without a
    further copy.
    """
    # fft on one axis is the same computation as fftn, minus the axis loop
    raw = np.fft.fft(s.values) if s.dim == 1 else np.fft.fftn(s.values)
    raw /= s.size
    coeffs = np.empty_like(raw)
    for src, dst in _shift_blocks(s.grid):
        coeffs[dst] = raw[src]
    return _adopt(FourierSpectrum, s.grid, coeffs=coeffs)


def parseval_residual(sp: FourierSpectrum) -> float:
    """| sum_k |fhat(k)|^2 - 1 |.

    Zero (to rounding) for unit-modulus input; equal to 1 for the all-zero
    spectrum, which is exactly the degenerate case a vanishing expansion
    would force.
    """
    power = float(np.sum(sp.coeffs.real**2 + sp.coeffs.imag**2))
    return abs(power - 1.0)


def dominant_frequency(
    sp: FourierSpectrum, floor: float = DOMINANCE_FLOOR
) -> tuple[tuple[int, ...], float] | None:
    """The k maximizing |fhat(k)|, or None if that maximum is not finite or
    is below ``floor``.

    Ties are broken by the lexicographically smallest k; Parseval makes
    near-ties impossible above floor 1/sqrt(2), so the rule only matters for
    degenerate sub-floor inputs, where determinism is what counts.
    """
    if not 0.0 < floor <= 1.0:
        raise ValueError(f"floor must be in (0, 1], got {floor}")
    mag = np.abs(sp.coeffs).ravel()
    ((k, peak),) = _peaks(mag, sp.grid, 1)
    return (k, peak) if _dominates(mag, peak, floor) else None


def _dominates(mag: np.ndarray, peak: float, floor: float) -> bool:
    """Whether ``peak``, the first largest of the flat magnitudes ``mag`` in
    :func:`_top_indices` order, is a dominant spike: finite, at least
    ``floor``, and no NaN anywhere, since the selection puts NaN last where
    ``np.argmax`` returns it first.  Non-finite samples, or finite ones
    overflowing in the transform, leave NaN bins."""
    return math.isfinite(peak) and peak >= floor and not math.isnan(mag.max())


def _top_indices(mag: np.ndarray, count: int) -> np.ndarray:
    """Flat indices of the ``count`` largest entries of the 1-D ``mag``.

    The order is exactly that of ``np.argsort(-mag, kind="stable")[:count]``:
    value descending, ties by ascending index, NaN last.  A partition finds
    the value at place ``count`` (the cut); only the fewer than ``count``
    entries strictly above it are sorted, and the remaining places take the
    lowest indices among the entries equal to it.  In a shifted spectrum
    ascending flat index is lexicographic k, so this is the tie-break the
    reports promise, at O(M) instead of O(M log M).
    """
    count = max(0, count)
    if 0 < count < mag.size:
        part = -mag
        part.partition(count - 1)
        cut = -part[count - 1]
        # a NaN cut means fewer than count non-NaN entries; the full sort
        # below then places the NaN tail in index order
        if not math.isnan(cut):
            above = np.flatnonzero(mag > cut)
            above = above[np.argsort(-mag[above], kind="stable")]
            tied = np.flatnonzero(mag == cut)[: count - above.size]
            return np.concatenate([above, tied])
    return np.argsort(-mag, kind="stable")[:count]


def _peaks(
    mag: np.ndarray, grid: tuple[int, ...], count: int
) -> list[tuple[tuple[int, ...], float]]:
    """(k, magnitude) of the ``count`` largest entries of the flat, shifted
    magnitudes ``mag`` of a spectrum over ``grid``, in :func:`_top_indices`
    order; k comes from the flat index by integer divmod, axis by axis."""
    flats = _top_indices(mag, count)
    out = []
    for flat, m in zip(flats.tolist(), mag[flats].tolist()):
        k = []
        for n in reversed(grid):
            flat, i = divmod(flat, n)
            k.append(i - n // 2)
        out.append((tuple(reversed(k)), m))
    return out


def top_peaks(sp: FourierSpectrum, count: int = 5) -> list[tuple[tuple[int, ...], float]]:
    """The ``count`` largest |fhat(k)|, sorted by magnitude descending with
    lexicographic k as the deterministic tie-break; the selection that
    :func:`dominant_frequency` and ``identify_torus`` read as well."""
    return _peaks(np.abs(sp.coeffs).ravel(), sp.grid, count)


def translation_identity_residual(
    s: TorusSamples, k: IntVector, offset: IntVector
) -> float:
    """Residual of the translation-invariance identity at (k, offset).

    For a homomorphism, the coefficient of the translated samples times
    exp(-i k.y) equals fhat(k) f(y) exp(-i k.y), with y the grid point of the
    offset.  The returned modulus of the difference is zero (to rounding)
    exactly when the identity holds on the grid.
    """
    kk = _freq_in_box(k, s.grid)
    off = _as_vector(offset, s.dim, "offset")
    off = tuple(int(o) % n for o, n in zip(off, s.grid))
    y = tuple(2.0 * np.pi * o / n for o, n in zip(off, s.grid))
    phase = np.exp(-1j * math.fsum(kj * yj for kj, yj in zip(kk, y)))
    f_y = complex(s.values[off])
    lhs = coefficient(shift_samples(s, off), kk) * phase
    rhs = coefficient(s, kk) * f_y * phase
    return abs(lhs - rhs)
