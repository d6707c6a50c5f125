"""Spectra: dual-route agreement, discrete orthogonality, translation identity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charid.fourier import (
    FourierSpectrum,
    _peaks,
    coefficient,
    dominant_frequency,
    parseval_residual,
    spectrum,
    top_peaks,
    translation_identity_residual,
)
from charid.samples import TorusSamples, sample_character_torus

from oracles import oracle_coefficient, oracle_finite_peaks, oracle_spectrum, oracle_top_k

# exp(i sin x) = sum_n J_n(1) exp(i n x); aliasing terms are ~1e-110 at N=64
BESSEL_J0_1 = 0.76519768655796655145
BESSEL_J1_1 = 0.44005058574493351596


def random_unit_samples(grid, seed):
    rng = np.random.default_rng(seed)
    vals = np.exp(1j * rng.uniform(0, 2 * np.pi, size=grid))
    return TorusSamples(grid, vals)


def sine_phase_samples(n=64):
    x = 2.0 * np.pi * np.arange(n) / n
    return TorusSamples((n,), np.exp(1j * np.sin(x)))


def test_character_spectrum_is_exact_spike():
    for k, grid in [(5, (16,)), (-7, (15,)), ((3, -2), (8, 12))]:
        sp = spectrum(sample_character_torus(k, grid))
        kk = k if isinstance(k, tuple) else (k,)
        assert abs(sp.at(kk) - 1.0) < 1e-13
        off_peak = max(abs(c) for q, c in sp.items() if q != kk)
        assert off_peak < 1e-13


@pytest.mark.parametrize("n", [17, 24])
def test_coefficient_matches_floating_oracle(n):
    s = random_unit_samples((n,), seed=2)
    for k in range(-(n // 2), n - n // 2):
        want = oracle_coefficient(s.values, (n,), k)
        assert abs(coefficient(s, k) - want) < 1e-12


@pytest.mark.parametrize("grid", [(17,), (24,), (8, 12)])
def test_spectrum_matches_oracle_matrix(grid):
    s = random_unit_samples(grid, seed=3)
    want = oracle_spectrum(s.values, grid)
    assert np.abs(spectrum(s).coeffs - want).max() < 1e-12


def test_spectrum_matches_direct_summation_route():
    s = random_unit_samples((24,), seed=4)
    sp = spectrum(s)
    for k, c in sp.items():
        assert abs(c - coefficient(s, k)) < 1e-12


def test_freq_box_and_at_labeling():
    sp = spectrum(sample_character_torus((2, -3), (8, 12)))
    assert sp.freq_box == ((-4, 4), (-6, 6))
    assert abs(sp.at((2, -3)) - 1.0) < 1e-13
    with pytest.raises(ValueError, match="outside"):
        sp.at((4, 0))


def test_parseval_residual_unit_modulus():
    assert parseval_residual(spectrum(random_unit_samples((100,), seed=5))) < 1e-10
    assert parseval_residual(spectrum(sample_character_torus((3, 1), (8, 8)))) < 1e-12
    # modulus 1/2 everywhere: energy 1/4, residual 3/4
    half = TorusSamples((16,), 0.5 * np.ones(16, dtype=complex))
    assert parseval_residual(spectrum(half)) == pytest.approx(0.75, abs=1e-12)


def test_dominant_frequency_on_two_tone_mixture():
    mix = TorusSamples(
        (32,),
        0.8 * sample_character_torus(2, 32).values
        + 0.6 * sample_character_torus(7, 32).values,
    )
    sp = spectrum(mix)
    assert dominant_frequency(sp, floor=0.9) is None
    k, mag = dominant_frequency(sp, floor=0.7)
    assert k == (2,)
    assert mag == pytest.approx(0.8, abs=1e-12)
    peaks = top_peaks(sp, 2)
    assert peaks[0][0] == (2,) and peaks[1][0] == (7,)
    assert peaks[1][1] == pytest.approx(0.6, abs=1e-12)


def test_dominant_frequency_floor_validation():
    sp = spectrum(sample_character_torus(1, 8))
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(ValueError, match="floor"):
            dominant_frequency(sp, floor=bad)
    assert dominant_frequency(sp, floor=1.0) is not None


def test_exact_ties_break_lexicographically():
    coeffs = np.zeros((8,), dtype=complex)
    coeffs[1 + 4] = 0.95  # k = 1
    coeffs[-2 + 4] = 0.95  # k = -2, same magnitude exactly
    sp = FourierSpectrum((8,), coeffs)
    k, _ = dominant_frequency(sp, floor=0.9)
    assert k == (-2,)
    peaks = top_peaks(sp, 2)
    assert [p[0] for p in peaks] == [(-2,), (1,)]


#: Real and imaginary parts of tie-heavy spectra: few magnitude levels, both
#: signed zeros and NaN.
TIE_PARTS = (0.0, -0.0, 0.25, 0.5, 1.0, math.nan)


@st.composite
def tie_heavy_spectra(draw):
    grid = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    size = math.prod(grid)
    parts = st.lists(st.sampled_from(TIE_PARTS), min_size=size, max_size=size)
    coeffs = np.array(draw(parts)) + 1j * np.array(draw(parts))
    # a run of exact zeros, the shape of an exact character's spectrum
    lo = draw(st.integers(0, size))
    coeffs[lo : draw(st.integers(lo, size))] = 0.0
    return FourierSpectrum(grid, coeffs.reshape(grid))


@given(tie_heavy_spectra(), st.data())
@settings(deadline=None, max_examples=300)
def test_top_peaks_matches_stable_sort_oracle(sp, data):
    count = data.draw(st.integers(0, sp.coeffs.size + 1))
    mag = np.abs(sp.coeffs).ravel()
    want = oracle_top_k(mag, count)
    got = top_peaks(sp, count)
    assert [k for k, _ in got] == [
        tuple(int(i) - n // 2 for i, n in zip(np.unravel_index(f, sp.grid), sp.grid))
        for f in want
    ]
    assert np.array([m for _, m in got], dtype=np.float64).tobytes() == mag[want].tobytes()


@st.composite
def unshifted_magnitudes(draw):
    """(orders, flat magnitudes, count) over 1-3 axes, order-1 axes
    included, with tied and NaN magnitudes and counts past the size."""
    orders = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    size = math.prod(orders)
    entry = st.sampled_from([0.0, 0.25, 1.0, math.nan]) | st.floats(0.0, 2.0)
    mag = np.array(draw(st.lists(entry, min_size=size, max_size=size)), dtype=np.float64)
    return orders, mag, draw(st.integers(0, size + 2))


@given(unshifted_magnitudes())
@settings(deadline=None, max_examples=300)
def test_unshifted_peaks_match_the_unravel_route_bitwise(case):
    orders, mag, count = case
    got = _peaks(mag, orders, count, shifted=False)
    want = oracle_finite_peaks(mag, orders, count)
    assert [k for k, _ in got] == [k for k, _ in want]
    assert all(type(i) is int for k, _ in got for i in k)
    got_m = np.array([m for _, m in got], dtype=np.float64)
    assert got_m.tobytes() == np.array([m for _, m in want], dtype=np.float64).tobytes()


@given(tie_heavy_spectra(), st.sampled_from([0.25, 0.5, 0.9, 1.0]))
@settings(deadline=None, max_examples=300)
def test_dominant_frequency_matches_argmax(sp, floor):
    # np.argmax returns the first maximum, or the first NaN, which vetoes
    mag = np.abs(sp.coeffs)
    flat = int(np.argmax(mag))
    peak = float(mag.flat[flat])
    want = None
    if math.isfinite(peak) and peak >= floor:
        idx = np.unravel_index(flat, sp.grid)
        want = (tuple(int(i) - n // 2 for i, n in zip(idx, sp.grid)), peak)
    assert dominant_frequency(sp, floor) == want


@pytest.mark.parametrize(
    "grid", [(2,), (17,), (24,), (8, 12), (3, 5, 4), (9,), (5, 7), (6, 9), (3, 3, 3), (2, 7, 4)]
)
def test_spectrum_is_shifted_fftn_over_size_bitwise(grid):
    # a constant -1 - 0j gives coefficients with signed zeros, which only the
    # complex division by M, not a multiplication by 1/M, reproduces
    for s in (random_unit_samples(grid, seed=7), TorusSamples(grid, -np.ones(grid, complex))):
        want = np.fft.fftshift(np.fft.fftn(s.values)) / s.size
        sp = spectrum(s)
        assert sp.coeffs.tobytes() == want.tobytes()
        assert sp.coeffs.shape == grid and not sp.coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sp.coeffs[(0,) * len(grid)] = 0


@given(st.integers(2, 16), st.data())
@settings(deadline=None, max_examples=60)
def test_translation_identity_holds_for_characters(n, data):
    half = (n - 1) // 2
    k = data.draw(st.integers(-half, half))
    probe = data.draw(st.integers(-(n // 2), n - n // 2 - 1))
    offset = data.draw(st.integers(0, n - 1))
    s = sample_character_torus(k, n)
    assert translation_identity_residual(s, probe, offset) < 1e-13


def test_translation_identity_holds_for_characters_2d():
    s = sample_character_torus((3, -2), (8, 16))
    for probe, offset in [((3, -2), (1, 5)), ((0, 0), (7, 3)), ((-4, 7), (2, 2))]:
        assert translation_identity_residual(s, probe, offset) < 1e-13


def test_translation_identity_detects_sine_phase():
    # k=0 coefficients are shift-invariant, so the residual reduces to
    # |fhat(0)| |1 - f(y)| with fhat(0) = J0(1) up to negligible aliasing
    n, off = 64, 7
    s = sine_phase_samples(n)
    y = 2.0 * np.pi * off / n
    want = BESSEL_J0_1 * abs(1.0 - cmath.exp(1j * math.sin(y)))
    got = translation_identity_residual(s, 0, off)
    assert got == pytest.approx(want, abs=1e-12)
    assert got > 0.1


def test_sine_phase_spectrum_has_bessel_coefficients():
    sp = spectrum(sine_phase_samples(64))
    assert abs(sp.at(0) - BESSEL_J0_1) < 1e-13
    assert abs(sp.at(1) - BESSEL_J1_1) < 1e-13
    assert dominant_frequency(sp, floor=0.9) is None
