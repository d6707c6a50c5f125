"""Sample containers and character generators: structure, exactness, shifts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charid.finite import BLOCK_PAIRS, SAMPLED_PAIRS
from charid.finite import CharacterTable, FiniteGroupSpec, character_table
from charid.fourier import FourierSpectrum, coefficient
from charid.samples import (
    LineSamples,
    TorusSamples,
    Violation,
    _probe_pairs,
    pointwise_div,
    sample_character_line,
    sample_character_torus,
    shift_samples,
    validate,
)

from oracles import exhaustive_hom_defect, oracle_probe_pairs, outer_character


def test_torus_generator_frozen_value():
    # k=15, N=32: value at m=1 is exp(i 15/16 pi)
    s = sample_character_torus(15, 32)
    assert s.values[1].real == pytest.approx(-0.98078528040323044913, abs=1e-15)
    assert s.values[1].imag == pytest.approx(0.19509032201612826785, abs=1e-15)


def test_torus_generator_matches_floating_route():
    xs = 2.0 * np.pi * np.arange(8) / 8.0
    want = np.exp(1j * 3 * xs)
    got = sample_character_torus(3, 8).values
    assert np.abs(got - want).max() < 1e-14


def test_torus_generator_2d_separates():
    s = sample_character_torus((2, -3), (8, 16))
    a = sample_character_torus(2, 8).values
    b = sample_character_torus(-3, 16).values
    assert np.abs(s.values - np.multiply.outer(a, b)).max() < 1e-15


@given(st.integers(2, 24), st.data())
@settings(deadline=None, max_examples=60)
def test_torus_generator_is_homomorphism(n, data):
    half = (n - 1) // 2
    k = data.draw(st.integers(-half, half))
    s = sample_character_torus(k, n)
    assert exhaustive_hom_defect(s.values, (n,)) < 5e-15


def test_torus_generator_rejects_aliased_frequency():
    with pytest.raises(ValueError, match="alias"):
        sample_character_torus(4, 8)
    with pytest.raises(ValueError, match="alias"):
        sample_character_torus((1, 8), (8, 16))


def test_grid_validation():
    with pytest.raises(ValueError, match=">= 2"):
        TorusSamples((1,), np.ones(1, dtype=complex))
    with pytest.raises(ValueError, match="axis"):
        TorusSamples((), np.ones(0, dtype=complex))
    with pytest.raises(ValueError, match="shape|size|entries"):
        TorusSamples((4,), np.ones(5, dtype=complex))


@pytest.mark.parametrize("grid", [(2.5, 4), ("4",), (np.float64(3.5),), (math.inf,), 4.5])
def test_grid_refuses_counts_that_are_not_integral(grid):
    # int() truncated (2.5, 4) to the grid (2, 4), which 8 values then fit
    with pytest.raises(ValueError, match="integers"):
        TorusSamples(grid, np.ones(8, dtype=complex))


def test_integral_numbers_of_any_type_stay_accepted():
    assert TorusSamples((np.float64(2.0), 4.0), np.ones(8, dtype=complex)).grid == (2, 4)
    want = sample_character_torus((1, 2), (8, 8)).values.tobytes()
    assert sample_character_torus((1.0, np.int16(2)), (8.0, 8)).values.tobytes() == want
    s = sample_character_torus(1, 8)
    assert shift_samples(s, 2.0).values.tobytes() == shift_samples(s, 2).values.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_character_torus(1.5, 8),
        lambda: sample_character_torus(1, (8, 8.5)),
        lambda: shift_samples(sample_character_torus(1, 8), 0.5),
        lambda: sample_character_line(0.5, 8.5),
    ],
)
def test_frequencies_offsets_and_grids_refuse_fractions(call):
    with pytest.raises(ValueError, match="integers"):
        call()


def test_values_are_read_only_copies():
    raw = np.ones(4, dtype=complex)
    s = TorusSamples((4,), raw)
    raw[0] = 5.0
    assert s.values[0] == 1.0
    with pytest.raises(ValueError):
        s.values[1] = 0.0


#: (container on grid (4, 5) from a value, its field, its mismatch message)
CONTAINERS = [
    pytest.param(lambda v: TorusSamples((4, 5), v), "values",
                 "values shape {} does not match grid (4, 5)", id="torus"),
    pytest.param(lambda v: CharacterTable(FiniteGroupSpec((4, 5)), v), "values",
                 "table shape {} does not match group orders (4, 5)", id="table"),
    pytest.param(lambda v: FourierSpectrum((4, 5), v), "coeffs",
                 "coefficient array shape {} does not match grid (4, 5)", id="spectrum"),
]


@pytest.mark.parametrize("make, field, message", CONTAINERS)
@pytest.mark.parametrize("shape", [(5, 4), (21,), (4, 5, 1), ()])
def test_container_mismatch_messages(make, field, message, shape):
    with pytest.raises(ValueError) as err:
        make(np.ones(shape, dtype=complex))
    assert str(err.value) == message.format(shape)


def test_endpoint_mismatch_message():
    base = sample_character_torus((1, 2), (4, 5))
    for shape in [(3,), (1, 2), ()]:
        with pytest.raises(ValueError) as err:
            LineSamples(base, np.ones(shape, dtype=complex))
        assert str(err.value) == f"expected 2 endpoint values, got shape {shape}"


@pytest.mark.parametrize("make, field, message", CONTAINERS)
def test_flat_input_is_reshaped_into_a_read_only_copy(make, field, message):
    raw = np.arange(20, dtype=float)
    stored = getattr(make(raw), field)
    raw[0] = 7.0
    assert stored.dtype == np.complex128 and stored.shape == (4, 5)
    assert np.array_equal(stored, np.arange(20).reshape(4, 5))
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[0, 0] = 1.0


@pytest.mark.parametrize("make, field, message", CONTAINERS)
def test_any_layout_is_stored_as_a_c_ordered_copy(make, field, message):
    want = np.arange(20).reshape(4, 5) * (1 - 2j)
    for raw in (want, np.asfortranarray(want), want.tolist(), want.astype(np.complex64)):
        stored = getattr(make(raw), field)
        assert stored.dtype == np.complex128 and stored.flags.c_contiguous
        assert np.array_equal(stored, want) and not np.shares_memory(stored, want)


def test_builders_hand_over_fresh_read_only_arrays():
    s = sample_character_torus((1, 2), (4, 5))
    built = [shift_samples(s, (1, 3)), shift_samples(s, (0, 0)), pointwise_div(s, s)]
    built = [s.values] + [t.values for t in built]
    built.append(character_table(FiniteGroupSpec((4, 5)), (1, 2)).values)
    for values in built:
        assert values.dtype == np.complex128 and values.shape == (4, 5)
        assert values.flags.c_contiguous and not values.flags.writeable
    assert not any(np.shares_memory(a, b) for i, a in enumerate(built) for b in built[:i])


def test_endpoints_are_a_read_only_complex_copy():
    ls = LineSamples(sample_character_torus((1, 2), (4, 5)), [1, -1])
    assert ls.endpoint_values.dtype == np.complex128
    assert not ls.endpoint_values.flags.writeable


@pytest.mark.parametrize("grid", [(7,), (8,), (2, 2), (5, 6), (3, 4, 5), (6, 9, 2)])
def test_character_builders_match_the_outer_product_bitwise(grid):
    rng = np.random.default_rng(len(grid))
    noise = TorusSamples(grid, np.exp(1j * rng.uniform(0, 2 * np.pi, size=grid)))
    boxes = [range(-((n - 1) // 2), n // 2 + n % 2) for n in grid]
    for k in [tuple(int(rng.choice(b)) for b in boxes) for _ in range(6)]:
        want = outer_character(k, grid)
        assert sample_character_torus(k, grid).values.tobytes() == want.tobytes()
        k_box = tuple(kj % n for kj, n in zip(k, grid))
        table = character_table(FiniteGroupSpec(grid), k_box).values
        assert table.tobytes() == outer_character(k_box, grid).tobytes()
        phases = outer_character(tuple(-kj for kj in k), grid)
        direct = complex((noise.values * phases).sum() / noise.size)
        assert coefficient(noise, k) == direct


def test_shift_is_exact_cyclic_permutation():
    rng = np.random.default_rng(5)
    vals = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(6, 4)))
    s = TorusSamples((6, 4), vals)
    out = shift_samples(s, (2, 3))
    for a in np.ndindex(6, 4):
        src = ((a[0] + 2) % 6, (a[1] + 3) % 4)
        assert out.values[a] == vals[src]


def test_shift_of_character_is_phase_scaling():
    s = sample_character_torus((3, -2), (16, 8))
    off = (5, 1)
    shifted = shift_samples(s, off)
    assert np.abs(shifted.values - s.values * s.values[off]).max() < 1e-14


def test_quotient_of_characters_is_character():
    a = sample_character_torus(5, 16)
    b = sample_character_torus(2, 16)
    q = pointwise_div(a, b)
    want = sample_character_torus(3, 16).values
    assert np.abs(q.values - want).max() < 1e-14


def test_pointwise_div_rejects_grid_mismatch():
    a = sample_character_torus(1, 8)
    b = sample_character_torus(1, 16)
    with pytest.raises(ValueError, match="grid"):
        pointwise_div(a, b)


def test_validate_reports_violations_with_indices():
    vals = sample_character_torus((1, 1), (4, 4)).values.copy()
    vals[2, 3] *= 0.5
    s = TorusSamples((4, 4), vals)
    out = validate(s)
    assert len(out) == 1
    assert out[0].index == (2, 3)
    assert out[0].deviation == pytest.approx(0.5, abs=1e-12)
    # line samples: the samples' violations, NaN included, then the endpoints'
    vals[0, 1] = complex(np.nan, 0.0)
    out = validate(LineSamples(TorusSamples((4, 4), vals), np.array([2.0, 1j])))
    assert [(v.where, v.index) for v in out] == [
        ("values", (0, 1)), ("values", (2, 3)), ("endpoint_values", (0,))
    ]
    assert math.isnan(out[0].deviation)
    assert out[2] == Violation("endpoint_values", (0,), 1.0)


def test_validate_flags_non_finite():
    vals = np.ones(4, dtype=complex)
    vals[1] = complex(np.nan, 0.0)
    out = validate(TorusSamples((4,), vals))
    assert [v.index for v in out] == [(1,)]


def test_validate_clean_character_is_empty():
    assert validate(sample_character_torus(7, 64)) == []


def test_line_generator_frozen_values():
    ls = sample_character_line(3.75, 64)
    # sample m=8 sits at x = pi/4: exp(i 3.75 pi / 4) = exp(i 15/16 pi)
    assert ls.base.values[8].real == pytest.approx(-0.98078528040323044913, abs=1e-15)
    assert ls.base.values[8].imag == pytest.approx(0.19509032201612826785, abs=1e-15)
    # endpoint exp(2 pi i 3.75) = exp(i 3 pi / 2) = -i
    assert abs(ls.endpoint_values[0] - (-1j)) < 1e-14


def test_line_generator_slope_matches_alpha():
    from oracles import slope_fit_alpha

    for alpha in (0.0, 0.5, -2.5, 10.125):
        ls = sample_character_line(alpha, 64)
        assert slope_fit_alpha(ls.base.values, 64) == pytest.approx(alpha, abs=1e-9)


def test_line_generator_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alias"):
        sample_character_line(33.2, 64)  # integer part 33 >= 64/2
    with pytest.raises(ValueError, match="finite"):
        sample_character_line(math.inf, 64)


def test_line_samples_endpoint_shape_checked():
    base = sample_character_torus(1, 8)
    with pytest.raises(ValueError, match="endpoint"):
        LineSamples(base, np.ones(3, dtype=complex))


def _assert_same_draw(grid, trials, seed, dtype):
    got = _probe_pairs(grid, trials, seed, dtype)
    want = oracle_probe_pairs(grid, trials, seed, dtype)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape == (trials + 1,)
        assert np.array_equal(g, w)
        assert not g.flags.writeable and not w.flags.writeable


DRAW_GRIDS = [(7,), (1,), (256, 257), (2, 3), (1, 4, 1), (3, 1, 5), (5, 7, 11, 13, 17),
              (3,) * 11, (2,) * 17, (2, 3) * 8 + (5, 1), (2,) * 20]


@pytest.mark.parametrize(
    "grid,dtype",
    [(g, d) for g in DRAW_GRIDS for d in (np.intp, np.int32)]
    # int32 cannot hold the index sums of an axis above 2^30
    + [(((1 << 30) + 1,), np.intp), ((2, (1 << 30) + 1), np.intp)],
    ids=lambda p: "x".join(map(str, p)) if isinstance(p, tuple) else np.dtype(p).name,
)
def test_blocked_draw_is_the_one_shot_draw(grid, dtype):
    # the draw fills its indices BLOCK_PAIRS // dim rows at a time; numpy's
    # bounded draws continue one stream across calls, so each block edge,
    # on either side, gives the one-shot draw's pairs, dtype and flags
    rows = BLOCK_PAIRS // len(grid)
    for seed in (0, 7, 4711):
        for trials in (1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1):
            _assert_same_draw(grid, trials, seed, dtype)


@pytest.mark.parametrize(
    "grid", [(65537,), (256, 257), (2,) * 17], ids=["65537", "256x257", "2^17"]
)
def test_sampled_check_draw_is_the_one_shot_draw(grid):
    _assert_same_draw(grid, SAMPLED_PAIRS, 3, np.int32)
