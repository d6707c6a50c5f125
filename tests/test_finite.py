"""Finite abelian groups: enumeration, exhaustive verification, dual identification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charid import finite
from charid.finite import (
    ALL_PAIRS_CAP,
    ENUMERATION_CAP,
    SAMPLED_PAIRS,
    CharacterTable,
    FiniteGroupSpec,
    character_table,
    enumerate_characters,
    from_symmetric_freq,
    identify_finite,
    identify_finite_brute,
    is_homomorphism_exhaustive,
    to_symmetric_freq,
)
from charid.samples import sample_character_torus

from oracles import exhaustive_hom_defect, oracle_hom_residual


def test_group_spec_validation():
    with pytest.raises(ValueError, match=">= 1"):
        FiniteGroupSpec((6, 0))
    with pytest.raises(ValueError, match="factor"):
        FiniteGroupSpec(())
    assert FiniteGroupSpec((4, 5)).size == 20


def test_character_table_shape_checked():
    g = FiniteGroupSpec((4, 5))
    flat = character_table(g, (1, 2)).values.ravel()
    assert CharacterTable(g, flat).values.shape == (4, 5)
    with pytest.raises(ValueError, match="shape"):
        CharacterTable(g, np.ones((5, 4), dtype=complex))


def test_character_index_must_be_in_box():
    g = FiniteGroupSpec((6,))
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="outside"):
            character_table(g, bad)


def test_enumeration_counts_the_dual_group():
    for orders in [(1,), (6,), (2, 3), (4, 5)]:
        g = FiniteGroupSpec(orders)
        chars = enumerate_characters(g)
        assert len(chars) == g.size
        for t in chars:
            ok, defect = is_homomorphism_exhaustive(t)
            assert ok and defect < 1e-12


def test_enumeration_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        enumerate_characters(FiniteGroupSpec((2048, 1024)))


def test_enumeration_cap_refuses_before_allocating():
    # |G| tables of |G| complex entries at the cap stay within 256 MiB
    assert ENUMERATION_CAP**2 * np.dtype(np.complex128).itemsize <= 1 << 28
    g = FiniteGroupSpec((ENUMERATION_CAP + 1,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            enumerate_characters(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_crt_bijection_z6_vs_z2xz3():
    # m <-> (m mod 2, m mod 3) identifies Z_6 with Z_2 x Z_3 and sends
    # chi_(k1,k2) to chi_(3 k1 + 2 k2 mod 6)
    g6 = FiniteGroupSpec((6,))
    g23 = FiniteGroupSpec((2, 3))
    for k1 in range(2):
        for k2 in range(3):
            t23 = character_table(g23, (k1, k2))
            t6 = character_table(g6, (3 * k1 + 2 * k2) % 6)
            relabeled = np.array([t23.values[m % 2, m % 3] for m in range(6)])
            assert np.abs(relabeled - t6.values).max() < 1e-14


def test_exhaustive_check_matches_loop_oracle():
    rng = np.random.default_rng(3)
    bad = CharacterTable(
        FiniteGroupSpec((4, 5)), np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 5)))
    )
    ok, worst = is_homomorphism_exhaustive(bad)
    assert not ok
    assert worst == pytest.approx(exhaustive_hom_defect(bad.values, (4, 5)), abs=1e-15)
    good = character_table(FiniteGroupSpec((12,)), 5)
    _, worst_good = is_homomorphism_exhaustive(good)
    assert worst_good == pytest.approx(
        exhaustive_hom_defect(good.values, (12,)), abs=1e-15
    )


def test_blocked_kernel_matches_loop_oracle():
    # 10 x 13 = 130 elements on two axes, the longer one last and moved
    # first; all its rolled copies fit in one block
    # (test_kernel_blocks_cover_every_pair splits them across many)
    rng = np.random.default_rng(6)
    t = CharacterTable(
        FiniteGroupSpec((10, 13)),
        np.exp(1j * rng.uniform(0, 2 * np.pi, size=(10, 13))),
    )
    _, worst = is_homomorphism_exhaustive(t)
    assert worst == pytest.approx(exhaustive_hom_defect(t.values, (10, 13)), abs=1e-15)


@pytest.mark.parametrize(
    "orders",
    [(131,), (2, 70), (4, 4, 8), (9, 2, 5)]
    + [(12, 12), (1, 7), (7, 1), (5, 5, 5), (3, 1, 4)],
)
def test_half_window_kernel_matches_loop_oracle(orders):
    # an odd cyclic order; longest axes that are moved first from second and
    # last place or are first already; equal axes, where the half window
    # N0//2 of an even N0 holds the pairs half way round; and order-1
    # factors before, after and between the others
    rng = np.random.default_rng(sum(orders))
    t = CharacterTable(
        FiniteGroupSpec(orders), np.exp(1j * rng.uniform(0, 2 * np.pi, size=orders))
    )
    _, worst = is_homomorphism_exhaustive(t)
    assert worst == pytest.approx(exhaustive_hom_defect(t.values, orders), abs=1e-15)


@pytest.mark.parametrize("orders", [(4,), (3, 4), (4, 2, 4)])
def test_half_window_reaches_half_way_round(orders):
    # a phase 1e-3 * (0, 1, 0.9, 1) along the first longest axis breaks the
    # law most, by |exp(2e-3 i) - 1|, on the pairs whose components there
    # are 1 and 3: half way round Z_4, the last place of the half window
    # (the next worst pairs, 2 and 2, give |exp(1.8e-3 i) - 1|)
    g = FiniteGroupSpec(orders)
    axis = orders.index(4)
    phase = 1e-3 * np.array([0.0, 1.0, 0.9, 1.0])
    phase = phase.reshape([4 if ax == axis else 1 for ax in range(len(orders))])
    vals = character_table(g, (1,) * len(orders)).values * np.exp(1j * phase)
    _, worst = is_homomorphism_exhaustive(CharacterTable(g, vals))
    assert worst == pytest.approx(exhaustive_hom_defect(vals, orders), abs=1e-15)
    assert worst == pytest.approx(abs(np.exp(2e-3j) - 1), abs=1e-15)


@pytest.mark.parametrize("block_pairs", [1, 7, 40, 400, 1000])
@pytest.mark.parametrize("orders", [(13,), (5, 2), (3, 4, 5), (6, 6)])
def test_kernel_blocks_cover_every_pair(monkeypatch, orders, block_pairs):
    # tiny blocks split the pairs into one rolled copy per block and a few
    # rows a0 at a time; 400 and 1000 give boxes of two and three copies,
    # cut along the second and the first trailing axis of 3 x 4 x 5.  A
    # random table's worst pair can sit in any block.  The perturbed last
    # entry e has its largest defect, |t(2e) - t(e)^2|, only at a = e, which
    # lies in the last block
    monkeypatch.setattr(finite, "BLOCK_PAIRS", block_pairs)
    rng = np.random.default_rng(block_pairs)
    g = FiniteGroupSpec(orders)
    noisy = CharacterTable(g, np.exp(1j * rng.uniform(0, 2 * np.pi, size=orders)))
    _, worst = is_homomorphism_exhaustive(noisy)
    assert worst == pytest.approx(exhaustive_hom_defect(noisy.values, orders), abs=1e-15)
    vals = character_table(g, (1,) * len(orders)).values.copy()
    vals.flat[-1] *= np.exp(1e-6j)
    _, worst = is_homomorphism_exhaustive(CharacterTable(g, vals))
    assert worst == pytest.approx(exhaustive_hom_defect(vals, orders), abs=1e-15)
    assert worst > 1e-7


def test_enumeration_equals_character_table_bitwise():
    for orders in [(6,), (4, 6), (2, 3, 4)]:
        g = FiniteGroupSpec(orders)
        chars = enumerate_characters(g)
        for k, chi in zip(np.ndindex(*orders), chars):
            ref = character_table(g, k).values
            # equal including the sign of every zero component
            assert np.array_equal(chi.values.view(np.int64), ref.view(np.int64)), k


def test_negated_character_fails_with_defect_two():
    t = character_table(FiniteGroupSpec((6,)), 5)
    neg = CharacterTable(t.group, -t.values)
    ok, worst = is_homomorphism_exhaustive(neg)
    assert not ok
    assert worst == pytest.approx(2.0, abs=1e-12)


def test_single_modified_entry_is_detected():
    # no null sets on a finite group: one perturbed value must fail the check
    t = character_table(FiniteGroupSpec((12,)), 7)
    vals = t.values.copy()
    vals[3] *= np.exp(1e-6j)
    ok, worst = is_homomorphism_exhaustive(CharacterTable(t.group, vals))
    assert not ok
    assert 1e-7 < worst < 1e-5


def test_identify_both_routes_on_characters():
    t = character_table(FiniteGroupSpec((12,)), 5)
    assert identify_finite(t) == (5,)
    assert identify_finite_brute(t) == (5,)
    t2 = character_table(FiniteGroupSpec((4, 5)), (1, 2))
    assert identify_finite(t2) == (1, 2)
    assert identify_finite_brute(t2) == (1, 2)


def test_identify_both_routes_reject_random_tables():
    rng = np.random.default_rng(3)
    t = CharacterTable(
        FiniteGroupSpec((8, 8)), np.exp(1j * rng.uniform(0, 2 * np.pi, size=(8, 8)))
    )
    assert identify_finite(t) is None
    assert identify_finite_brute(t) is None


def test_identify_routes_agree_on_jittered_characters():
    rng = np.random.default_rng(17)
    base = character_table(FiniteGroupSpec((9, 4)), (7, 3)).values
    t = CharacterTable(
        FiniteGroupSpec((9, 4)),
        base * np.exp(1j * rng.uniform(-0.02, 0.02, size=(9, 4))),
    )
    assert identify_finite(t) == (7, 3)
    assert identify_finite_brute(t) == (7, 3)


def test_trivial_group():
    t = character_table(FiniteGroupSpec((1,)), 0)
    ok, worst = is_homomorphism_exhaustive(t)
    assert ok and worst == 0.0
    assert identify_finite(t) == (0,)


def test_sampled_pairs_branch():
    t = character_table(FiniteGroupSpec((4, 5)), (3, 2))
    ok, worst = is_homomorphism_exhaustive(t, all_pairs_cap=4)
    assert ok and worst < 1e-12
    const = CharacterTable(FiniteGroupSpec((20,)), -np.ones(20, dtype=complex))
    ok_bad, worst_bad = is_homomorphism_exhaustive(const, all_pairs_cap=4)
    assert not ok_bad
    assert worst_bad == pytest.approx(2.0)


@pytest.mark.parametrize("orders", [(ALL_PAIRS_CAP + 1,), (256, 257)])
def test_sampled_check_matches_per_axis_gather_bitwise(orders):
    # above the cap the check draws the torus path's pairs; the flat gather
    # must give the per-axis gather of a fresh draw bit for bit
    rng = np.random.default_rng(len(orders))
    base = character_table(FiniteGroupSpec(orders), (3,) * len(orders)).values
    t = CharacterTable(
        FiniteGroupSpec(orders), base * np.exp(1j * rng.uniform(-1e-3, 1e-3, orders))
    )
    for seed in (0, 9):
        ok, worst = is_homomorphism_exhaustive(t, seed=seed)
        assert not ok
        assert worst == oracle_hom_residual(t.values, SAMPLED_PAIRS, seed)


@pytest.mark.parametrize(
    "orders,k,at",
    [
        ((64,), (3,), 17),
        ((128, 128), (3, 5), -1),
        ((ALL_PAIRS_CAP + 1,), (3,), 10),
        ((16, 8, 8), (3, 5, 7), -1),
    ],
)
def test_nan_entry_fails_both_checks(orders, k, at):
    # Z_64 is one all-pairs block; 128 x 128 makes one rolled copy a block,
    # in blocks of rows, and 16 x 8 x 8 seven copies a block, each with the
    # NaN at a' in the last block; Z_65537 takes the sampled path
    vals = character_table(FiniteGroupSpec(orders), k).values.copy()
    vals.flat[at] = complex(math.nan, 0.0)
    t = CharacterTable(FiniteGroupSpec(orders), vals)
    with np.errstate(invalid="ignore"):
        ok, worst = is_homomorphism_exhaustive(t)
        assert identify_finite(t) is None
    assert not ok
    assert math.isnan(worst)


@pytest.mark.parametrize("orders", [(16384,), (128, 128), (2, 8192), (32, 32, 16)])
def test_all_pairs_memory_is_bounded(orders):
    # the rolled copies are made one block at a time; all of them at once
    # would be |G|/N0 copies of 3 |G| entries, 393 MiB on 32 x 32 x 16
    t = character_table(FiniteGroupSpec(orders), tuple(min(3, n - 1) for n in orders))
    tracemalloc.start()
    try:
        ok, _ = is_homomorphism_exhaustive(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 16 << 20


@pytest.mark.parametrize("n,k", [(512, 100), (1000, 333), (1024, 1023)])
def test_larger_cyclic_groups_stay_exact(n, k):
    assert n <= ALL_PAIRS_CAP
    ok, worst = is_homomorphism_exhaustive(character_table(FiniteGroupSpec((n,)), k))
    assert ok and worst < 1e-12


def test_larger_product_group():
    t = character_table(FiniteGroupSpec((32, 32)), (5, 17))
    ok, worst = is_homomorphism_exhaustive(t)
    assert ok and worst < 1e-12
    assert identify_finite(t) == (5, 17)


def test_symmetric_box_round_trip_frozen():
    assert to_symmetric_freq((5,), (6,)) == (-1,)
    assert from_symmetric_freq((-1,), (6,)) == (5,)
    assert to_symmetric_freq((3, 2), (4, 5)) == (-1, 2)
    assert from_symmetric_freq((-1, 2), (4, 5)) == (3, 2)
    assert to_symmetric_freq((0,), (1,)) == (0,)


@given(st.lists(st.integers(1, 12), min_size=1, max_size=3), st.data())
@settings(deadline=None, max_examples=80)
def test_symmetric_box_is_a_bijection(orders, data):
    k = tuple(data.draw(st.integers(0, n - 1)) for n in orders)
    sym = to_symmetric_freq(k, orders)
    assert from_symmetric_freq(sym, orders) == k
    for kj, n in zip(sym, orders):
        assert -(n // 2) <= kj < n - n // 2


def test_finite_table_bridges_to_torus_samples():
    # same integer-reduced phase construction on both sides: bitwise equal
    for n, k in [(6, 5), (16, 3), (17, 9)]:
        table = character_table(FiniteGroupSpec((n,)), k)
        sym = to_symmetric_freq((k,), (n,))
        torus = sample_character_torus(sym, (n,))
        assert np.array_equal(table.values, torus.values)
