"""Independent reference routes used only by tests.

Everything here deliberately avoids the library's own machinery: spectra are
computed from floating-point angles with a dense phase matrix instead of
integer-reduced roots of unity or an FFT, frequencies are recovered by phase
unwrapping and a least-squares slope instead of endpoint division, and the
multiplicative law is checked with plain Python loops.  Slow and simple on
purpose; agreement with the fast paths is the point of the comparison.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from charid.circle import root_of_unity_powers


def oracle_spectrum(values: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """All Fourier coefficients over the symmetric box, as a dense matrix
    product of explicitly constructed phases.  O(S^2) work."""
    vals = np.asarray(values, dtype=np.complex128).reshape(grid)
    n = len(grid)
    size = vals.size
    coords = np.indices(grid).reshape(n, size).astype(np.float64)
    for ax, count in enumerate(grid):
        coords[ax] *= 2.0 * math.pi / count
    axes = [np.arange(-(c // 2), c - c // 2) for c in grid]
    ks = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(n, size)
    phases = np.exp(-1j * (ks.T @ coords))
    return (phases @ vals.ravel() / size).reshape(grid)


def oracle_coefficient(values: np.ndarray, grid: tuple[int, ...], k) -> complex:
    """Single Fourier coefficient, same floating-angle construction."""
    vals = np.asarray(values, dtype=np.complex128).reshape(grid)
    n = len(grid)
    coords = np.indices(grid).reshape(n, vals.size).astype(np.float64)
    kk = np.atleast_1d(np.asarray(k, dtype=np.float64))
    acc = np.zeros(vals.size)
    for ax, count in enumerate(grid):
        acc = acc + kk[ax] * coords[ax] * (2.0 * math.pi / count)
    return complex(np.mean(np.exp(-1j * acc) * vals.ravel()))


def slope_fit_alpha(values: np.ndarray, count: int) -> float:
    """1-D frequency estimate: unwrap the sampled phase and fit a line.

    Valid when the data is close to exp(i alpha x) and alpha is inside the
    Nyquist window, where unwrapping reconstructs the true phase ramp.
    """
    phases = np.unwrap(np.angle(np.asarray(values, dtype=np.complex128)))
    x = np.arange(count) * (2.0 * math.pi / count)
    slope, _ = np.polyfit(x, phases, 1)
    return float(slope)


def exhaustive_hom_defect(values: np.ndarray, grid: tuple[int, ...]) -> float:
    """max |f(a+b) - f(a) f(b)| over literally every index pair, via loops."""
    vals = np.asarray(values, dtype=np.complex128).reshape(grid)
    idx = list(np.ndindex(*grid))
    worst = 0.0
    for a in idx:
        for b in idx:
            ab = tuple((ai + bi) % n for ai, bi, n in zip(a, b, grid))
            worst = max(worst, abs(vals[ab] - vals[a] * vals[b]))
    return worst


def least_periods(values: np.ndarray) -> tuple[int, ...]:
    """Each axis's least period: the least divisor d of N_j for which the
    table rolled by d along axis j has the table's bytes, trying every
    divisor in turn."""
    own = np.ascontiguousarray(values).tobytes()
    return tuple(
        next(d for d in range(1, n + 1) if n % d == 0
             and np.roll(values, d, ax).tobytes() == own)
        for ax, n in enumerate(values.shape)
    )


def outer_character(k, grid: tuple[int, ...]) -> np.ndarray:
    """exp(2*pi*i k.m/N) over the grid as the per-axis outer product
    ``reduce(np.multiply.outer, rows)`` spelled out, its rows the library's
    integer-reduced roots of unity: the expression every character builder
    must reproduce bit for bit."""
    return reduce(
        np.multiply.outer, (root_of_unity_powers(kj, nj) for kj, nj in zip(k, grid))
    )


def oracle_top_k(mag: np.ndarray, count: int) -> np.ndarray:
    """Flat indices of the ``count`` largest magnitudes by one full stable
    sort: value descending, ties by ascending index, NaN last."""
    return np.argsort(-np.ravel(mag), kind="stable")[: max(0, count)]


def oracle_finite_peaks(mag: np.ndarray, orders: tuple[int, ...], count: int) -> list:
    """(k, magnitude) of the ``count`` largest flat magnitudes of a finite
    table's unshifted transform, k in prod [0, N_j): the stable-sort
    selection, each flat index labeled by ``np.unravel_index``."""
    return [
        (tuple(int(i) for i in np.unravel_index(int(flat), orders)), float(mag[flat]))
        for flat in oracle_top_k(mag, count)
    ]


def oracle_probe_pairs(
    grid: tuple[int, ...], trials: int, seed: int, dtype=np.intp
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The probe draw in one shot: every a, then every b, as whole (trials,
    dim) coordinate arrays behind a zero row, each axis's (a + b) mod N by
    one conditional subtract, and read-only flat indices (a, b, a (+) b) by
    Horner's rule; what the library's blocked draw must give bit for bit."""
    rng = np.random.default_rng(seed)
    dim = len(grid)
    high = grid[0] if len(set(grid)) == 1 else np.asarray(grid)
    a = rng.integers(0, high, size=(trials, dim), dtype=dtype)
    b = rng.integers(0, high, size=(trials, dim), dtype=dtype)
    zero = np.zeros((1, dim), dtype=dtype)
    a = np.concatenate([zero, a])
    b = np.concatenate([zero, b])
    for ax, n in enumerate(grid):
        ca, cb = a[:, ax], b[:, ax]
        cab = ca + cb
        cab -= n * (cab >= n)
        cols = (ca, cb, cab)
        flat = cols if ax == 0 else tuple(f * n + c for f, c in zip(flat, cols))
    for f in flat:
        f.flags.writeable = False
    return flat


def oracle_hom_residual(values: np.ndarray, trials: int, seed: int) -> float:
    """The seeded sampled-pairs defect max |f(a+b) - f(a) f(b)|, drawn afresh
    on every call and gathered with one index array per axis; the same draws,
    in the same order, as the library's memoized flat-index route."""
    rng = np.random.default_rng(seed)
    grid = np.asarray(values.shape)
    dim = values.ndim
    a = rng.integers(0, grid, size=(trials, dim))
    b = rng.integers(0, grid, size=(trials, dim))
    zero = np.zeros((1, dim), dtype=a.dtype)
    a = np.concatenate([zero, a])
    b = np.concatenate([zero, b])
    ab = (a + b) % grid
    defect = values[tuple(ab.T)] - values[tuple(a.T)] * values[tuple(b.T)]
    return float(np.abs(defect).max())


def oracle_torus_fields(
    values: np.ndarray, trials: int, seed: int, tau_exact: float, floor: float
) -> dict:
    """Every field of a torus report by the plain route: the spectrum as
    ``fftshift(fftn) / M``, a separate ``abs`` for the peaks and for the
    dominant bin, the top five by one full stable sort, the dominant bin by
    ``argmax`` (whose first NaN vetoes the spike), and the verdict rule
    spelled out."""
    vals = np.asarray(values, dtype=np.complex128)
    grid = vals.shape

    def freq(flat):
        return tuple(int(i) - n // 2 for i, n in zip(np.unravel_index(int(flat), grid), grid))

    coeffs = np.fft.fftshift(np.fft.fftn(vals)) / vals.size
    mag = np.abs(coeffs).ravel()
    peaks = tuple((freq(f), float(mag[f])) for f in oracle_top_k(mag, 5))
    top = int(np.argmax(np.abs(coeffs)))
    spike = math.isfinite(mag[top]) and mag[top] >= floor
    hres = oracle_hom_residual(vals, trials, seed)
    peak = peaks[0][1]
    if not spike:
        verdict = "NotCharacter"
    elif peak >= 1.0 - tau_exact and hres <= tau_exact:
        verdict = "ExactCharacter"
    else:
        verdict = "ApproxCharacter"
    return {
        "verdict": verdict,
        "frequency": freq(top) if spike else None,
        "hom_residual": hres,
        "spectral_peak": peak,
        "peaks": peaks,
    }
