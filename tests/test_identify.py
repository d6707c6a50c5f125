"""End-to-end classification: verdict logic, line reduction, determinism."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charid import identify
from charid.circle import TWO_PI, character_values, principal_angles
from charid.cli import _finite_report
from charid.finite import (
    CharacterTable,
    FiniteGroupSpec,
    character_table,
    is_homomorphism_exhaustive,
    to_symmetric_freq,
)
from charid.fourier import coefficient
from charid.identify import (
    MAX_TRIALS,
    IdentifyConfig,
    Verdict,
    classify,
    homomorphism_residual,
    identify_line,
    identify_torus,
)
from charid.samples import (
    LineSamples,
    TorusSamples,
    pointwise_div,
    sample_character_line,
    sample_character_torus,
)

from oracles import (
    exhaustive_hom_defect,
    oracle_hom_residual,
    oracle_torus_fields,
    slope_fit_alpha,
)


def random_phase_samples(grid, seed):
    rng = np.random.default_rng(seed)
    return TorusSamples(grid, np.exp(1j * rng.uniform(0, 2 * np.pi, size=grid)))


def jittered_character(k, n, noise, seed):
    rng = np.random.default_rng(seed)
    base = sample_character_torus(k, n).values
    return TorusSamples((n,), base * np.exp(1j * rng.uniform(-noise, noise, n)))


def test_hom_residual_is_bounded_by_exhaustive_defect():
    for seed in (0, 1):
        s = random_phase_samples((10,), seed)
        full = exhaustive_hom_defect(s.values, (10,))
        assert homomorphism_residual(s, trials=512, seed=seed) <= full + 1e-15


def test_hom_residual_near_zero_only_for_characters():
    s = sample_character_torus((2, -3), (8, 12))
    assert homomorphism_residual(s) < 5e-15
    assert homomorphism_residual(random_phase_samples((8, 12), 9)) > 0.1


def test_hom_residual_forces_identity_pair():
    # f identically -1 satisfies f(a+b)=f(a)f(b) nowhere near (0,0):
    # the forced pair makes |f(0) - f(0)^2| = 2 part of every probe
    s = TorusSamples((8,), -np.ones(8, dtype=complex))
    assert homomorphism_residual(s, trials=1) == pytest.approx(2.0)


@given(
    grid=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
    trials=st.integers(1, 600),
    seed=st.integers(0, 1 << 32),
    kind=st.sampled_from(["unit", "random", "nan", "inf"]),
    data=st.data(),
)
@settings(deadline=None, max_examples=300)
def test_hom_residual_matches_fresh_draw_oracle(grid, trials, seed, kind, data):
    # the memoized flat gather reads the elements the per-axis gather of a
    # fresh draw reads, with the same arithmetic: equal bit for bit
    rng = np.random.default_rng(seed)
    if kind == "unit":
        k = [int(rng.integers(0, n)) for n in grid]
        phase = sum(
            kj * np.arange(n).reshape((-1,) + (1,) * (len(grid) - ax - 1)) / n
            for ax, (kj, n) in enumerate(zip(k, grid))
        )
        values = np.exp(2j * np.pi * phase) * np.ones(grid)
    else:
        values = np.exp(1j * rng.uniform(0, 2 * np.pi, size=grid))
    if kind in ("nan", "inf"):
        bad = complex(math.nan, 0.0) if kind == "nan" else complex(0.0, math.inf)
        values.flat[data.draw(st.integers(0, values.size - 1))] = bad
    # finite groups allow order-1 axes, which TorusSamples does not; the
    # residual only reads grid and values
    s = (
        TorusSamples(grid, values)
        if min(grid) >= 2
        else SimpleNamespace(grid=grid, values=values)
    )
    with np.errstate(invalid="ignore"):
        got = homomorphism_residual(s, trials, seed)
        want = oracle_hom_residual(values, trials, seed)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_probe_pair_memo_is_read_only_and_reused():
    s = random_phase_samples((9, 7), seed=4)
    memo = identify._cached_probe_pairs
    homomorphism_residual(s, trials=37, seed=11)
    hits = memo.cache_info().hits
    assert homomorphism_residual(s, trials=37, seed=11) == oracle_hom_residual(
        s.values, 37, 11
    )
    assert memo.cache_info().hits == hits + 1
    for idx in memo((9, 7), 37, 11):
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 1


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**12])
def test_trials_above_cap_are_refused_before_drawing(trials):
    s = random_phase_samples((8,), seed=0)
    memo = identify._cached_probe_pairs
    before = memo.cache_info()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="trials"):
            homomorphism_residual(s, trials=trials)
        with pytest.raises(ValueError, match="trials"):
            IdentifyConfig(hom_trials=trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    after = memo.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_trials_at_cap_are_accepted():
    assert IdentifyConfig(hom_trials=MAX_TRIALS).hom_trials == MAX_TRIALS
    s = random_phase_samples((8,), seed=0)
    assert homomorphism_residual(s, trials=MAX_TRIALS) == oracle_hom_residual(
        s.values, MAX_TRIALS, 0
    )


def test_identify_torus_exact_characters():
    for k in (-7, 0, 3, 15):
        rep = identify_torus(sample_character_torus(k, 32))
        assert rep.verdict is Verdict.EXACT
        assert rep.frequency == (k,)
        assert rep.hom_residual < 1e-12
        assert rep.spectral_peak > 1.0 - 1e-12
        assert rep.beta is None


def test_identify_torus_multidim():
    rep = identify_torus(sample_character_torus((3, -2), (16, 16)))
    assert rep.verdict is Verdict.EXACT
    assert rep.frequency == (3, -2)
    rep3 = identify_torus(sample_character_torus((1, -3, 2), (8, 8, 8)))
    assert rep3.verdict is Verdict.EXACT
    assert rep3.frequency == (1, -3, 2)


def test_phase_jitter_gives_approx_with_right_frequency():
    rep = identify_torus(jittered_character(4, 64, noise=0.01, seed=0))
    assert rep.verdict is Verdict.APPROX
    assert rep.frequency == (4,)
    assert rep.spectral_peak > 0.99
    assert rep.hom_residual > 1e-9


def test_exact_needs_the_law_as_well_as_the_peak():
    # one flipped sample leaves a spike of 62/64 but breaks the law
    values = sample_character_torus(3, 64).values.copy()
    values[5] *= -1
    cfg = IdentifyConfig(tau_exact=0.5)
    rep = identify_torus(TorusSamples((64,), values), cfg)
    assert rep.spectral_peak >= 1.0 - cfg.tau_exact
    assert rep.hom_residual > cfg.tau_exact
    assert rep.verdict is Verdict.APPROX
    assert rep.frequency == (3,)


ROTATED = np.exp(1e-3j)  # one sample rotated by 1e-3 breaks the law on its 3M of M^2 pairs


# The torus and line verdicts read the law from a 257-pair probe, which
# misses a single off-law sample's pairs: each report below reads
# ExactCharacter with hom_residual 1.9e-15 (torus) or 2.0e-15 (line).
@pytest.mark.xfail(strict=True, reason="the law is probed, not certified, off finite groups")
@pytest.mark.parametrize("at", [(17, 200), (0, 1), (255, 255), (128, 3)])
def test_one_rotated_torus_sample_is_not_exact(at):
    values = sample_character_torus((5, -7), (256, 256)).values.copy()
    values[at] *= ROTATED
    assert classify(TorusSamples((256, 256), values)).verdict is not Verdict.EXACT


@pytest.mark.xfail(strict=True, reason="the law is probed, not certified, off finite groups")
def test_one_rotated_line_sample_is_not_exact():
    ls = sample_character_line(2.25, 4096)
    values = ls.base.values.copy()
    values[1000] *= ROTATED
    rep = classify(LineSamples(TorusSamples((4096,), values), ls.endpoint_values))
    assert rep.verdict is not Verdict.EXACT


def test_one_rotated_entry_fails_the_finite_check():
    # the same defect on a finite group is found: every pair is checked,
    # and the pair (a, a) carries the rotation twice
    t = character_table(FiniteGroupSpec((4096,)), 5)
    values = t.values.copy()
    values[1000] *= ROTATED
    ok, worst = is_homomorphism_exhaustive(CharacterTable(t.group, values))
    assert not ok
    assert worst == pytest.approx(2 * math.sin(1e-3), rel=1e-6)


def test_random_phases_are_not_characters():
    s = random_phase_samples((64,), seed=7)
    rep = identify_torus(s)
    assert rep.verdict is Verdict.NOT
    assert rep.frequency is None
    assert rep.spectral_peak < 0.5
    assert rep.hom_residual > 0.1
    # the reported peak is not an artifact of the fast transform route
    direct = max(
        abs(coefficient(s, k)) for k in range(-32, 32)
    )
    assert rep.spectral_peak == pytest.approx(direct, abs=1e-12)


def test_chirp_is_not_a_character():
    n = 64
    x = 2.0 * np.pi * np.arange(n) / n
    s = TorusSamples((n,), np.exp(1j * x * x / (2.0 * np.pi)))
    rep = identify_torus(s)
    assert rep.verdict is Verdict.NOT
    assert rep.frequency is None


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.25, 3.75, -2.5, 10.125, -15.875])
def test_identify_line_recovers_alpha(alpha):
    rep = identify_line(sample_character_line(alpha, 64))
    assert rep.verdict is Verdict.EXACT
    assert rep.frequency[0] == pytest.approx(alpha, abs=1e-9)
    assert 0.0 <= rep.beta[0] < 1.0
    k = rep.frequency[0] - rep.beta[0]
    assert abs(k - round(k)) < 1e-9


def test_identify_line_agrees_with_slope_fit():
    for alpha in (3.75, -2.5):
        ls = sample_character_line(alpha, 64)
        rep = identify_line(ls)
        assert rep.frequency[0] == pytest.approx(
            slope_fit_alpha(ls.base.values, 64), abs=1e-9
        )


def test_identify_line_multidim_per_axis_beta():
    rep = identify_line(sample_character_line((-1.5, 2.25), (16, 16)))
    assert rep.verdict is Verdict.EXACT
    assert rep.frequency[0] == pytest.approx(-1.5, abs=1e-9)
    assert rep.frequency[1] == pytest.approx(2.25, abs=1e-9)
    assert rep.beta[0] == pytest.approx(0.5, abs=1e-9)
    assert rep.beta[1] == pytest.approx(0.25, abs=1e-9)


def test_identify_line_not_character_keeps_beta():
    rng = np.random.default_rng(21)
    base = TorusSamples((32,), np.exp(1j * rng.uniform(0, 2 * np.pi, 32)))
    ls = LineSamples(base, np.array([np.exp(0.5j)]))
    rep = identify_line(ls)
    assert rep.verdict is Verdict.NOT
    assert rep.frequency is None
    assert rep.beta[0] == pytest.approx(0.5 / (2.0 * np.pi), abs=1e-12)


def test_reports_are_bitwise_deterministic():
    s = random_phase_samples((64,), seed=13)
    cfg = IdentifyConfig(seed=5, hom_trials=128)
    assert identify_torus(s, cfg) == identify_torus(s, cfg)
    ls = sample_character_line(10.125, 64)
    assert identify_line(ls, cfg) == identify_line(ls, cfg)


def test_config_validation():
    with pytest.raises(ValueError, match="floor"):
        IdentifyConfig(floor=1.5)
    with pytest.raises(ValueError, match="floor"):
        IdentifyConfig(tau_exact=0.95, floor=0.9)
    with pytest.raises(ValueError, match="trials"):
        IdentifyConfig(hom_trials=0)
    with pytest.raises(ValueError, match="seed"):
        IdentifyConfig(seed=-1)
    for field in ("hom_trials", "seed"):
        for bad in (1.0, 256.0, "1", None):
            with pytest.raises(ValueError, match=field):
                IdentifyConfig(**{field: bad})
    cfg = IdentifyConfig(hom_trials=np.int32(64), seed=np.uint64(3))
    assert (type(cfg.hom_trials), type(cfg.seed)) == (int, int)
    assert cfg == IdentifyConfig(hom_trials=64, seed=3)


@pytest.mark.parametrize(
    "trials,seed,name", [(256, 1.0, "seed"), (256, "1", "seed"), (256.0, 1, "trials")]
)
def test_hom_residual_refuses_non_integers_in_either_memo_state(trials, seed, name):
    # 1.0 == 1 as a memo key: seed 1.0 raised TypeError from numpy's
    # generator on a fresh memo, and returned seed 1's residual after it
    s = random_phase_samples((9,), seed=2)
    identify._cached_probe_pairs.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            homomorphism_residual(s, trials, seed)
        assert homomorphism_residual(s, 256, 1) == oracle_hom_residual(s.values, 256, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_sample_is_not_a_character(bad):
    values = sample_character_torus(3, 64).values.copy()
    values[10] = bad
    rep = classify(TorusSamples((64,), values))
    assert rep.verdict == Verdict.NOT
    assert rep.frequency is None


@pytest.mark.parametrize("errors", ["warn", "raise"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
@pytest.mark.parametrize("mode", ["torus", "line"])
def test_non_finite_samples_get_a_verdict_without_a_warning(mode, bad, errors):
    # the transform, the spectrum's division and the line's quotient meet
    # invalid operations on these samples; classify keeps them to itself,
    # whatever the caller's np.errstate, and a caller raising warnings as
    # errors still gets the verdict
    if mode == "torus":
        s = sample_character_torus((3, -2), (8, 6))
        values = s.values.copy()
        values[1, 2] = bad
        s = TorusSamples(s.grid, values)
    else:
        ls = sample_character_line((2.5, -1.25), (8, 6))
        values = ls.base.values.copy()
        values[1, 2] = bad
        s = LineSamples(TorusSamples(ls.grid, values), ls.endpoint_values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all=errors):
            rep = classify(s)
    assert rep.verdict == Verdict.NOT and rep.frequency is None


def test_classify_dispatches_by_type():
    assert classify(sample_character_torus(2, 16)).frequency == (2,)
    assert classify(sample_character_line(2.5, 16)).frequency[0] == pytest.approx(2.5)
    with pytest.raises(TypeError):
        classify(np.ones(8, dtype=complex))


def same_bits(got, want) -> bool:
    """Equal field values, floats compared by their bits, so NaN matches NaN
    and 0.0 does not match -0.0."""
    if isinstance(want, float):
        return np.float64(got).tobytes() == np.float64(want).tobytes()
    if isinstance(want, tuple):
        return (
            isinstance(got, tuple)
            and len(got) == len(want)
            and all(same_bits(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


#: Samples that give exact magnitude ties, non-finite spectra, and spectra
#: of finite samples that overflow into NaN bins beside a finite peak.
SAMPLE_PARTS = (0.0, 1.0, -1.0, 0.5, math.nan, math.inf, -math.inf, 8e307, 1e308, -1.7e308)


@st.composite
def torus_samples(draw):
    grid = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)))
    size = math.prod(grid)
    kind = draw(st.sampled_from(["phases", "character", "constant", "parts"]))
    if kind == "phases":
        angles = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=size, max_size=size))
        values = np.exp(1j * np.array(angles))
    elif kind == "character":
        k = [draw(st.integers(-((n - 1) // 2), (n - 1) // 2)) for n in grid]
        values = sample_character_torus(k, grid).values.ravel()
    elif kind == "constant":
        values = np.full(size, draw(st.sampled_from([1.0, -1.0, 1j, 0.0, 2.0])))
    else:
        parts = st.lists(st.sampled_from(SAMPLE_PARTS), min_size=size, max_size=size)
        real, imag = np.array(draw(parts)), np.array(draw(parts))
        with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j
            values = real + 1j * imag
    return TorusSamples(grid, values.astype(np.complex128).reshape(grid))


# an overflowing spectrum with NaN bins beyond the top five and a finite peak
# far above the floor, which only the NaN veto turns into NotCharacter
OVERFLOW_24 = TorusSamples((4, 6), np.array([
    -1, 1e308, 1.7e308, 0, 1e308, -1, 8e307, -1, 0, 1e308, 1, -1.7e308,
    -1, 1.7e308, 0, 0, 1, -1, -1e308, -1e308, 1, -1, -1.7e308, -1e308,
], dtype=np.complex128))


@given(torus_samples(), st.integers(1, 40), st.integers(0, 3), st.sampled_from([0.5, 0.9, 1.0]))
@example(OVERFLOW_24, 256, 0, 0.9)
@settings(deadline=None, max_examples=400)
def test_classify_matches_plain_torus_route_bitwise(s, trials, seed, floor):
    cfg = IdentifyConfig(floor=floor, hom_trials=trials, seed=seed)
    with np.errstate(all="ignore"):
        rep = classify(s, cfg)
        want = oracle_torus_fields(s.values, trials, seed, cfg.tau_exact, floor)
    got = {
        "verdict": rep.verdict.value,
        "frequency": rep.frequency,
        "hom_residual": rep.hom_residual,
        "spectral_peak": rep.spectral_peak,
        "peaks": rep.peaks,
    }
    for name in want:
        assert same_bits(got[name], want[name]), (name, got[name], want[name])


def test_nan_bins_beyond_the_top_five_veto_a_finite_spike():
    with np.errstate(all="ignore"):
        rep = classify(OVERFLOW_24)
    assert all(math.isfinite(m) for _, m in rep.peaks)
    assert rep.spectral_peak > 1e300
    assert rep.verdict == Verdict.NOT and rep.frequency is None


@given(torus_samples(), st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
@settings(deadline=None, max_examples=100)
def test_identify_line_matches_sample_and_divide_route_bitwise(s, alpha):
    # h from the public generator and quotient, then the torus pipeline
    endpoints = np.exp(2j * np.pi * np.array(alpha[: s.dim]))
    ls = LineSamples(s, endpoints)
    betas = tuple(float(t) / TWO_PI for t in principal_angles(ls.endpoint_values))
    with np.errstate(all="ignore"):
        rep = identify_line(ls)
        g = sample_character_line(betas, s.grid).base
        want = identify_torus(pointwise_div(s, g))
    assert same_bits(rep.beta, betas)
    for name in ("hom_residual", "spectral_peak", "peaks"):
        assert same_bits(getattr(rep, name), getattr(want, name)), name
    assert rep.verdict == want.verdict


def test_identify_line_refuses_a_nan_endpoint():
    ls = LineSamples(sample_character_torus(1, 8), [complex(math.nan, 0.0)])
    with pytest.raises(ValueError, match=r"alpha must be finite, got nan"):
        identify_line(ls)


def test_line_classify_frees_the_divisor_before_the_torus_stage():
    # holding the divisor exp(i beta.x) through the torus stage reads 4.09x
    ls = sample_character_line([3.25, -2.5], [512, 512])
    rng = np.random.default_rng(5)
    jitter = np.exp(1j * rng.uniform(-1e-3, 1e-3, ls.grid))
    ls = LineSamples(TorusSamples(ls.grid, ls.base.values * jitter), ls.endpoint_values)
    tracemalloc.start()
    try:
        rep = classify(ls)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verdict == Verdict.APPROX and rep.frequency == pytest.approx((3.25, -2.5))
    assert peak <= 3.25 * ls.base.values.nbytes


@st.composite
def grid_inputs(draw):
    """(grid, values): a character chi_k with k in the box prod [0, N_j), the
    same jittered by at most eps radians per sample, eps log-uniform in
    [1e-13, 2e-10] or uniform in [1e-3, 0.3], or random phases, on 1-3 axes
    of 2-39 samples each, at most 4096 samples in all."""
    grid = []
    for left in reversed(range(draw(st.integers(1, 3)))):
        room = 4096 // (math.prod(grid) * 2**left)  # every later axis keeps 2
        grid.append(draw(st.integers(2, min(39, room))))
    grid = tuple(grid)
    kind = draw(st.sampled_from(["character", "tiny", "large", "phases"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "phases":
        return grid, np.exp(1j * rng.uniform(0.0, TWO_PI, grid))
    values = character_values([draw(st.integers(0, n - 1)) for n in grid], grid)
    if kind == "tiny":
        eps = 10.0 ** draw(st.floats(-13.0, math.log10(2e-10)))
    else:
        eps = draw(st.floats(1e-3, 0.3)) if kind == "large" else 0.0
    return grid, values * np.exp(1j * rng.uniform(-eps, eps, grid))


@given(grid_inputs())
@example(((64,), character_values([1], (64,))
          * np.exp(1e-10j * np.random.default_rng(0).uniform(-1, 1, 64))))
@settings(deadline=None, max_examples=300)
def test_torus_and_finite_reports_of_the_same_samples_agree(inputs):
    """One verdict rule on both domains: the torus probe's residual and the
    finite table's worst defect are each held to tau_exact.

    Jitter up to 2e-10 keeps every pair's defect at or below 3 eps, below
    tau_exact, so the 257-pair probe and the all-pairs check cannot fall on
    opposite sides of it.  Single-entry defects, which the probe can miss,
    stay out until the torus law is certified over all pairs.  Peak bits
    are not compared: the routes divide by the size before and after abs.
    The example, Z_64 jittered by 1e-10, has a worst defect of 2.9e-10,
    between HOM_TOL and tau_exact.
    """
    grid, values = inputs
    torus = classify(TorusSamples(grid, values))
    finite = _finite_report(CharacterTable(FiniteGroupSpec(grid), values), IdentifyConfig())
    assert torus.verdict == finite.verdict, (torus, finite)
    if finite.frequency is None:
        assert torus.frequency is None
    else:
        assert torus.frequency == to_symmetric_freq(finite.frequency, grid)
