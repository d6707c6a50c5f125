"""Finite abelian groups: enumeration, exhaustive verification, dual identification."""

import functools
import itertools
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from charid import cli, finite
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
from charid.circle import UNIT_TOL, unit_deviation
from charid.identify import IdentifyConfig, Verdict
from charid.samples import _probe_pairs, sample_character_torus

from oracles import exhaustive_hom_defect, least_periods, oracle_hom_residual


def test_group_spec_validation():
    with pytest.raises(ValueError, match=">= 1"):
        FiniteGroupSpec((6, 0))
    with pytest.raises(ValueError, match="factor"):
        FiniteGroupSpec(())
    assert FiniteGroupSpec((4, 5)).size == 20


@pytest.mark.parametrize(
    "orders", [2.5, "4", np.float64(3.5), math.inf, -math.inf, math.nan, (4, 2.5)]
)
def test_group_spec_refuses_orders_that_are_not_integral(orders):
    # int() truncated 2.5 and 3.5, read "4" as 4 and raised OverflowError on inf
    with pytest.raises(ValueError, match="integers"):
        FiniteGroupSpec(orders)


@pytest.mark.parametrize(
    "order", [4, 4.0, np.float64(4.0), np.int8(4), np.uint64(4), Fraction(8, 2)]
)
def test_group_spec_takes_integral_numbers_of_any_type(order):
    orders = FiniteGroupSpec(order).orders
    assert orders == (4,) and type(orders[0]) is int
    assert FiniteGroupSpec([order, 3]).orders == (4, 3)


def test_character_index_must_be_integral():
    g = FiniteGroupSpec((4,))
    with pytest.raises(ValueError, match="integers"):
        character_table(g, 1.5)  # was chi_1
    chi_1 = character_table(g, 1).values.tobytes()
    assert character_table(g, np.float64(1.0)).values.tobytes() == chi_1


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


@pytest.mark.parametrize("orders, bound_mib", [((ENUMERATION_CAP,), 400), ((2,) * 12, 330),
                                                ((64, 64), 270), ((ENUMERATION_CAP, 1), 400),
                                                ((1, ENUMERATION_CAP), 400)])
def test_enumeration_peak_at_the_cap(orders, bound_mib):
    # the tables (256 MiB) plus at most one temporary of half their size; an
    # interleaved product transposed and copied out table by table took 513,
    # and so did multiplying an order-1 factor's [1] into the rest
    g = FiniteGroupSpec(orders)
    tracemalloc.start()
    try:
        chars = enumerate_characters(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chars) == ENUMERATION_CAP
    assert peak <= bound_mib << 20


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
@pytest.mark.parametrize(
    "orders", [(13,), (5, 2), (3, 4, 5), (6, 6), (2, 2, 2, 2, 2), (2, 3, 2, 3)]
)
def test_kernel_blocks_cover_every_pair(monkeypatch, orders, block_pairs):
    # tiny blocks split the pairs into one rolled copy per block and a few
    # rows a0 at a time; 400 and 1000 give boxes of two and three copies,
    # cut along the second and the first trailing axis of 3 x 4 x 5.  On
    # (Z_2)^5 and 2 x 3 x 2 x 3, at 400 pairs and below, the boxes fix
    # leading components of a', which change from box to box in each share.
    # A random table's worst pair can sit in any block.  The perturbed last
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


def _in_last_share(orders, workers):
    """A flat index a whose pairs (a, b) the last worker of the all-pairs
    check takes, at the current BLOCK_PAIRS: the kernel's split, redone."""
    longest = orders.index(max(orders))
    moved = list(orders)
    moved[0], moved[longest] = moved[longest], moved[0]
    n0, rest = moved[0], tuple(moved[1:])
    m = math.prod(rest)
    run = (n0 // 2 + 1) * m
    boxes = finite._boxes(rest, max(1, finite.BLOCK_PAIRS // (n0 * run)))
    if len(boxes) > 1:  # the boxes go round the workers
        box = boxes[min(workers, len(boxes)) - 1]
        head = tuple(b.start if isinstance(b, slice) else b for b in box)
        index = [n0 - 1, *head, *(0,) * (len(rest) - len(head))]
    else:  # the blocks of rows do
        step = max(1, finite.BLOCK_PAIRS // run)
        shares = min(workers, -(-n0 // step))
        last = range((shares - 1) * step, n0, shares * step)[-1]
        index = [min(last + step, n0) - 1] + [0] * len(rest)
    index[0], index[longest] = index[longest], index[0]
    return int(np.ravel_multi_index(index, orders))


def _split_table(orders, kind, at):
    g = FiniteGroupSpec(orders)
    if kind == "random":
        return np.exp(1j * np.random.default_rng(sum(orders)).uniform(0, 2 * np.pi, orders))
    vals = character_table(g, (1,) * len(orders)).values.copy()
    if kind == "negated":
        vals = -vals
    elif kind == "perturbed":
        vals.flat[at] *= np.exp(1e-6j)
    elif kind == "nan":
        vals.flat[at] = complex(math.nan, 0.0)
    return vals


@functools.cache
def _oracle_defect(orders, kind, at):
    return exhaustive_hom_defect(_split_table(orders, kind, at), orders)


@pytest.mark.parametrize("kind", ["random", "exact", "negated", "perturbed", "nan"])
@pytest.mark.parametrize("orders", [(5, 2, 9), (3, 13, 5), (2, 184), (363,)])
def test_result_does_not_depend_on_worker_count(monkeypatch, orders, kind):
    # longest axes last, in the middle and last of two, where the boxes of
    # a' go round the workers, and a cyclic group, where its blocks of rows
    # do; 2 x 184 and Z_363 are more than one block at the default
    # BLOCK_PAIRS.  The perturbed entry e is worst only on the pair (e, e),
    # which only e's worker checks (e is not 0, where 2e = e), and e, like
    # the NaN, is put in the last worker's share; with fewer shares than
    # workers, the last one that has a share.  3 and 4 workers are more
    # threads than a 2-core host has cores, and they switch often
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for block_pairs in (7, 40, 1000, finite.BLOCK_PAIRS):
            monkeypatch.setattr(finite, "BLOCK_PAIRS", block_pairs)
            for workers in (1, 2, 3, finite.MAX_WORKERS):
                at = _in_last_share(orders, workers)
                t = CharacterTable(FiniteGroupSpec(orders), _split_table(orders, kind, at))
                results = []
                for count in (1, workers):
                    monkeypatch.setattr(finite, "_worker_count", lambda: count)
                    with np.errstate(invalid="ignore"):
                        results.append(is_homomorphism_exhaustive(t)[1])
                serial, split = results
                assert np.float64(split).tobytes() == np.float64(serial).tobytes()
                if kind == "nan":
                    assert math.isnan(split)
                    continue
                oracle = _oracle_defect(orders, kind, at if kind == "perturbed" else None)
                assert split == pytest.approx(oracle, abs=1e-15)
                if kind == "perturbed":
                    assert split > 1.5e-6  # |exp(2e-6 i) - 1|, not another pair's 1e-6
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("orders", [(5, 2, 9), (3, 13, 5), (2, 184), (363,)])
def test_full_walk_on_sparse_tables_does_not_depend_on_worker_count(monkeypatch, orders):
    # the perturbed tables above are answered by the certificate wherever
    # they are more than one block; here the threaded walk itself takes them,
    # its one worst pair (e, e) in the last worker's share
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for block_pairs in (7, 40, 1000, finite.BLOCK_PAIRS):
            monkeypatch.setattr(finite, "BLOCK_PAIRS", block_pairs)
            for workers in (1, 2, 3, finite.MAX_WORKERS):
                at = _in_last_share(orders, workers)
                vals = _split_table(orders, "perturbed", at)
                results = []
                for count in (1, workers):
                    monkeypatch.setattr(finite, "_worker_count", lambda: count)
                    results.append(finite._worst_defect_all_pairs(vals))
                serial, split = results
                assert np.float64(split).tobytes() == np.float64(serial).tobytes()
                assert split == pytest.approx(_oracle_defect(orders, "perturbed", at), abs=1e-15)
                assert split > 1.5e-6
    finally:
        sys.setswitchinterval(switch)


def _count_full_walks(monkeypatch) -> list:
    """Record every table the full all-pairs walk is run on."""
    calls = []
    real = finite._worst_defect_all_pairs

    def counted(values, **kwargs):
        calls.append(values)
        return real(values, **kwargs)

    monkeypatch.setattr(finite, "_worst_defect_all_pairs", counted)
    return calls


def _same_bits(x: float, y: float) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def _corrupt(g, k, jitter, corruptions, seed) -> CharacterTable:
    """chi_k turned by a uniform phase in [-jitter, jitter] everywhere, then
    at each (flat index, kind, size) of ``corruptions`` negated, turned by a
    random phase or nudged by +-size radians."""
    rng = np.random.default_rng(seed)
    vals = character_table(g, k).values * np.exp(1j * rng.uniform(-jitter, jitter, g.orders))
    for at, kind, size in corruptions:
        if kind == "negate":
            vals.flat[at] *= -1
        elif kind == "phase":
            vals.flat[at] *= np.exp(1j * rng.uniform(0, 2 * np.pi))
        else:
            vals.flat[at] *= np.exp(1j * rng.choice([-1, 1]) * size)
    return CharacterTable(g, vals)


@st.composite
def _multi_block_groups(draw):
    """A group of 363-2,000 elements over 1-3 axes, more than one all-pairs
    block at the default BLOCK_PAIRS."""
    axes = draw(st.integers(1, 3))
    orders = []
    for left in range(axes - 1, -1, -1):
        rest = math.prod(orders)
        low = -(-363 // rest) if left == 0 else 1
        high = 2000 // rest // (2**left)
        orders.append(draw(st.integers(min(low, high), high)))
    g = FiniteGroupSpec(tuple(draw(st.permutations(orders))))
    assume(363 <= g.size <= 2000)
    return g


@st.composite
def _corrupted_tables(draw):
    """A character on 363-2,000 elements over 1-3 axes, exact or jittered
    by up to 1e-10 to 1 radian, with 1-4 entries negated, turned by a random
    phase or nudged by 1e-3 down to 1e-10 radians."""
    g = draw(_multi_block_groups())
    k = tuple(draw(st.integers(0, n - 1)) for n in g.orders)
    jitter = draw(st.just(0.0) | st.integers(-10, 0).map(lambda j: 10.0**j))
    corruptions = draw(st.lists(
        st.tuples(
            st.integers(0, g.size - 1),
            st.sampled_from(["negate", "phase", "nudge"]),
            st.integers(3, 10).map(lambda j: 10.0**-j),
        ),
        min_size=1,
        max_size=4,
    ))
    return _corrupt(g, k, jitter, corruptions, draw(st.integers(0, 2**32 - 1)))


@given(_corrupted_tables())
@example(_corrupt(FiniteGroupSpec((363,)), (5,), 0.0, [(7, "negate", 0.0)], 0))
@example(_corrupt(FiniteGroupSpec((363,)), (5,), 1e-3, [(7, "nudge", 1e-3)], 0))
@settings(deadline=None, max_examples=40)
def test_certificate_is_the_full_walk(t):
    # certified or not, the check's result is the threaded walk's bit for
    # bit.  A jitter not small next to the corruptions, as in the second
    # example, leaves no certificate, and the walk runs
    ok, worst = is_homomorphism_exhaustive(t)
    certified = finite._certified_worst(t.values) is not None
    event("certified" if certified else "full walk")
    assert _same_bits(worst, finite._worst_defect_all_pairs(t.values))
    assert ok == (worst <= finite.HOM_TOL)
    if t.group.size <= 600:  # the loop oracle takes 8 s on 2,000 elements
        assert worst == pytest.approx(exhaustive_hom_defect(t.values, t.group.orders), abs=1e-15)


# The planted tables are chi_(3,7) on Z_16 x Z_25, whose longest axis, the
# second, the walk takes first, with a few entries changed.  Entry 0 turned
# by PHI ranks first, and the rest are far enough behind that B is {0}.
# Pairs through 0 have defect |t(b)| PHI, so one entry q of modulus
# 1 + 9e-10 makes (0, q) the worst pair.  With a and -a turned by -PSI
# instead, the worst pair is (a, -a), about PHI + 2 PSI, through 0 as their
# sum.  Each table's worst pair is evaluated in one role only, the first
# three at the far end of the half window, (b_L - a_L) mod 25 = 12, and
# the last at a_L = 10, where the sum role needs 2 a_L, not a_L.  Each
# worst pair's t(a) t(b) rounds differently from t(b) t(a)
PHI, PSI = 1e-2, 1e-3
PLANTED_ROLES = {
    "t(a), a = 0": ({(0, 0): np.exp(1j * PHI), (7, 12): 1 + 9e-10}, ((0, 0), (7, 12))),
    "t(b), b = 0": ({(0, 0): np.exp(1j * PHI), (3, 13): 1 + 9e-10}, ((3, 13), (0, 0))),
    "t(a+b), a+b = 0, a_L = 19": (
        {(0, 0): np.exp(1j * PHI), (1, 19): np.exp(-1j * PSI), (15, 6): np.exp(-1j * PSI)},
        ((1, 19), (15, 6)),
    ),
    "t(a+b), a+b = 0, a_L = 10": (
        {(0, 0): np.exp(1j * PHI), (1, 10): np.exp(-1j * PSI), (15, 15): np.exp(-1j * PSI)},
        ((1, 10), (15, 15)),
    ),
}


def _planted(changes) -> CharacterTable:
    g = FiniteGroupSpec((16, 25))
    vals = character_table(g, (3, 7)).values.copy()
    for at, factor in changes.items():
        vals[at] *= factor
    return CharacterTable(g, vals)


@pytest.mark.parametrize("role", PLANTED_ROLES)
def test_certificate_evaluates_every_role_in_the_walks_order(monkeypatch, role):
    changes, (a, b) = PLANTED_ROLES[role]
    t = _planted(changes)
    walk = finite._worst_defect_all_pairs(t.values)
    ab = tuple((i + j) % n for i, j, n in zip(a, b, (16, 25)))
    t_a, t_b, t_ab = (t.values[at].reshape(1) for at in (a, b, ab))
    assert math.sqrt(finite._block_worst(t_a, t_b, t_ab)) == walk
    assert math.sqrt(finite._block_worst(t_b, t_a, t_ab)) != walk
    calls = _count_full_walks(monkeypatch)
    _, worst = is_homomorphism_exhaustive(t)
    assert not calls  # certified
    assert _same_bits(worst, walk)


@pytest.mark.parametrize("negated", [1, 2, 3, finite.CERTIFIED_ENTRIES, finite.CERTIFIED_ENTRIES + 1])
def test_certificate_takes_as_many_entries_as_it_needs(monkeypatch, negated):
    # B grows to take every negated entry, up to CERTIFIED_ENTRIES of them
    vals = character_table(FiniteGroupSpec((400,)), (7,)).values.copy()
    vals[np.random.default_rng(negated).choice(400, negated, replace=False)] *= -1
    t = CharacterTable(FiniteGroupSpec((400,)), vals)
    walk = finite._worst_defect_all_pairs(t.values)
    calls = _count_full_walks(monkeypatch)
    _, worst = is_homomorphism_exhaustive(t)
    assert len(calls) == (negated > finite.CERTIFIED_ENTRIES)
    assert _same_bits(worst, walk)


def test_certificate_declines_within_its_margin(monkeypatch):
    # chi_(3,7) rounds to defects up to 2.4e-15 on pairs whose entries all
    # have e below 3e-16: the 1e-12 margin, not (2 + U) tau, covers them.
    # Entry 0 turned by 1e-15 ranks first; without the margin its pairs
    # alone, whose worst is 2.2e-15, would be certified
    t = _planted({(0, 0): np.exp(1e-15j)})
    walk = finite._worst_defect_all_pairs(t.values)
    calls = _count_full_walks(monkeypatch)
    _, worst = is_homomorphism_exhaustive(t)
    assert len(calls) == 1
    assert _same_bits(worst, walk)
    assert worst > 2.3e-15


def test_certificate_declines_where_the_bound_is_tight(monkeypatch):
    # 64 entries with e = 0.1 keep tau at 0.1 for every prefix of 64, and
    # one entry of modulus 1 + 9e-10, inside UNIT_TOL, makes U that: the
    # bound is 0.3 + 9e-11 + 1e-12.  Entry 0, ranked first, has e 4.5e-11
    # above 3 tau: below the bound, above it with U taken as 1
    u = 1 + 9e-10
    changes = {divmod(at, 25): np.exp(2j * math.asin(0.05)) for at in range(100, 164)}
    changes[15, 24] = u
    chi = character_table(FiniteGroupSpec((16, 25)), (3, 7)).values
    tau = float(np.abs(_planted(changes).values * np.conj(chi) - 1).max())
    changes[0, 0] = np.exp(2j * math.asin((3 * tau + 4.5e-11) / 2))
    t = _planted(changes)
    e0 = abs(t.values[0, 0] - 1)
    assert 3 * tau + 1e-12 < e0 < (2 + u) * tau + 1e-12
    assert np.abs(t.values).max() == pytest.approx(u, abs=1e-15)
    assert unit_deviation(t.values).max() <= UNIT_TOL
    calls = _count_full_walks(monkeypatch)
    _, worst = is_homomorphism_exhaustive(t)
    assert len(calls) == 1
    assert _same_bits(worst, finite._worst_defect_all_pairs(t.values))


@pytest.mark.parametrize(
    "kind", ["nan", "inf", "modulus-2", "character", "all-negated", "random"]
)
def test_certificate_falls_back_to_the_full_walk(monkeypatch, kind):
    # non-finite entries and entries off the circle leave U unbounded; a
    # character, its negation and random phases have no few entries far
    # from the DFT's character
    g = FiniteGroupSpec((20, 30))
    vals = character_table(g, (3, 7)).values.copy()
    if kind == "nan":
        vals.flat[77] = complex(math.nan, 0.0)
    elif kind == "inf":
        vals.flat[77] = complex(math.inf, 0.0)
    elif kind == "modulus-2":
        vals.flat[77] *= 2
    elif kind == "all-negated":
        vals = -vals
    elif kind == "random":
        vals = np.exp(1j * np.random.default_rng(5).uniform(0, 2 * np.pi, g.orders))
    t = CharacterTable(g, vals)
    calls = _count_full_walks(monkeypatch)
    with np.errstate(invalid="ignore"):
        _, worst = is_homomorphism_exhaustive(t)
        direct = finite._worst_defect_all_pairs(t.values)
    assert len(calls) == 2  # the check's walk and the direct one
    assert _same_bits(worst, direct)


def _tiled(orders, tile_orders, kind, special=None, change=None, seed=0) -> CharacterTable:
    """A table on ``orders`` repeating a tile on ``tile_orders``, each
    dividing its axis: a character of the tile's group, exact, jittered by
    up to 0.1 radian, or random phases.  ``special`` (NaN or inf), if
    given, replaces one tile entry, and the entry at flat index ``change``,
    if given, is conjugated in its period alone, so that the table does not
    repeat where that changes its imaginary part, be it only the sign of a
    zero."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        tile = np.exp(1j * rng.uniform(0, 2 * np.pi, tile_orders))
    else:
        k = tuple(int(rng.integers(0, n)) for n in tile_orders)
        tile = character_table(FiniteGroupSpec(tile_orders), k).values.copy()
        if kind == "jittered":
            tile *= np.exp(1j * rng.uniform(-0.1, 0.1, tile_orders))
    if special is not None:
        tile.flat[rng.integers(tile.size)] = special
    vals = np.tile(tile, tuple(n // p for n, p in zip(orders, tile_orders)))
    if change is not None:
        vals.flat[change] = np.conj(vals.flat[change])
    return CharacterTable(FiniteGroupSpec(orders), vals)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def _tiled_tables(draw):
    """A multi-block table (see _multi_block_groups) repeating a tile whose
    size on each axis is any divisor of its order, or in half the draws
    the whole first longest axis and proper divisors of the others where
    they have any; one entry is changed in a quarter of them (see _tiled)."""
    g = draw(_multi_block_groups())
    longest = g.orders.index(max(g.orders))
    keep = draw(st.booleans())
    tile = tuple(
        n if keep and j == longest
        else draw(st.sampled_from(_divisors(n)[:-1] if keep and n > 1 else _divisors(n)))
        for j, n in enumerate(g.orders)
    )
    change = draw(st.integers(0, g.size - 1)) if draw(st.integers(0, 3)) == 0 else None
    return _tiled(
        g.orders,
        tile,
        draw(st.sampled_from(["exact", "jittered", "random"])),
        draw(st.sampled_from([None, None, None, complex(math.nan, 0.0), complex(math.inf, 0.0)])),
        change,
        draw(st.integers(0, 2**32 - 1)),
    )


def _check_one_period_walk(t: CharacterTable) -> tuple[tuple[int, ...], float]:
    """The check's result is the forced walk's of the whole table, bit for
    bit, and the periods found are the least ones; returns both."""
    shape = t.values.shape
    periods = finite._periods(t.values)
    assert periods == least_periods(t.values)
    with np.errstate(invalid="ignore", over="ignore"):
        ok, worst = is_homomorphism_exhaustive(t)
        walk = finite._worst_defect_all_pairs(t.values)
    assert _same_bits(worst, walk)
    assert ok == (worst <= finite.HOM_TOL)
    return periods, worst


@given(_tiled_tables())
@example(_tiled((20, 20), (10, 20), "random"))  # a tie, L cut: the tile's longest is axis 1
@example(_tiled((20, 20), (20, 4), "jittered"))  # a tie, L kept
@example(_tiled((1, 400), (1, 80), "exact"))  # an order-1 axis
@example(_tiled((400, 1), (200, 1), "exact", change=399))  # one entry changed
@example(_tiled((2, 191), (1, 191), "random"))  # prime axes, L kept
@example(_tiled((3, 131), (3, 1), "exact", complex(math.nan, 0.0)))  # prime axes, L cut
@example(_tiled((6, 10, 12), (3, 5, 4), "jittered", complex(math.inf, 0.0)))
@settings(deadline=None, max_examples=40)
def test_one_period_walk_is_the_full_walk(t):
    (periods, worst), shape = _check_one_period_walk(t), t.values.shape
    longest = shape.index(max(shape))
    if periods == shape:
        event("does not repeat")
    else:
        event("L cut" if periods[longest] < shape[longest] else "L kept")
    # the loop oracle takes 8 s on 2,000 elements, and Python's max skips NaN
    if t.group.size <= 600 and np.isfinite(t.values).all():
        assert worst == pytest.approx(exhaustive_hom_defect(t.values, shape), abs=1e-15)


@pytest.mark.parametrize("orders", [(720,), (24, 24), (2, 2, 180)])
def test_every_tile_size_is_found_and_walked(monkeypatch, orders):
    # every divisor of every axis as the tile size; with the table's last
    # entry changed, its repeats hold everywhere but there.  The walks are
    # compared once every table is checked, so a tree that fails still
    # checks them all
    calls = _count_full_walks(monkeypatch)
    walked, expected = [], []
    for seed, tile in enumerate(itertools.product(*map(_divisors, orders))):
        for kind, change in (("exact", None), ("random", None), ("exact", -1)):
            calls.clear()
            periods, _ = _check_one_period_walk(_tiled(orders, tile, kind, None, change, seed))
            if math.prod(periods) == 1:  # a constant table: two of its entries
                periods = (2,)
            if periods != orders:  # the check walks the tile, then the test the table
                walked.append([c.shape for c in calls])
                expected.append([periods, orders])
    assert walked == expected


@pytest.mark.parametrize("orders", [(363,), (2, 2, 180), (367,), (2, 367), (5, 7, 11)])
def test_constant_tables_are_walked_on_more_than_one_element(monkeypatch, orders):
    # value * value rounds one way where its operands broadcast to one element,
    # as they would in the walk of a one-element tile, and another way in
    # every longer block (numpy 2.4).  Every pair of a constant table is
    # (c, c, c), so two of its entries are walked, also where the longest
    # axis has prime length
    value = complex(0.9953287307855897, -0.09654386398289214)
    t = CharacterTable(FiniteGroupSpec(orders), np.full(orders, value))
    walk = finite._worst_defect_all_pairs(t.values)
    calls = _count_full_walks(monkeypatch)
    _, worst = is_homomorphism_exhaustive(t)
    assert _same_bits(worst, walk)
    assert [c.shape for c in calls] == [(2,)]


# Tables that repeat, each with one worst pair of the quotient that only the
# walk's own pairs rank right.  The tile is a character with entry 0 turned
# by PHI and entry q of modulus 1 + 9e-10, so that (0, q) and (q, 0) are the
# worst pairs, and t(0) t(q) and t(q) t(0) round apart.  Where L is cut,
# t(0) t(q) rounds above, and the walk reaches (0, q) at an offset past the
# tile's own half window: q = 57 past Z_100's offsets [0, 50], and on
# 16 x 40, whose tile 16 x 10 has the first axis longest, q = (9, 3) past
# [0, 8].  Where L keeps its length, t(q) t(0) rounds above, and the walk
# takes (0, q) at the end of its half window, q_L = 12 of 25, but never
# (q, 0), which the full window would take
PLANTED_TILES = {
    "Z_400 on Z_100, L cut": ((400,), (100,), (7,), (57,)),
    "16 x 40 on 16 x 10, L cut": ((16, 40), (16, 10), (3, 7), (9, 3)),
    "16 x 25 on 8 x 25, L kept": ((16, 25), (8, 25), (5, 3), (3, 12)),
}


@pytest.mark.parametrize("case", PLANTED_TILES)
def test_one_period_walk_takes_the_walks_own_pairs(monkeypatch, case):
    orders, tile_orders, k, q = PLANTED_TILES[case]
    tile = character_table(FiniteGroupSpec(tile_orders), k).values.copy()
    zero = (0,) * len(orders)
    tile[zero] *= np.exp(1j * PHI)
    tile[q] *= 1 + 9e-10
    t = CharacterTable(
        FiniteGroupSpec(orders), np.tile(tile, tuple(n // p for n, p in zip(orders, tile_orders)))
    )
    walk = finite._worst_defect_all_pairs(t.values)
    t_0, t_q = tile[zero].reshape(1), tile[q].reshape(1)
    assert math.sqrt(finite._block_worst(t_0, t_q, t_q)) == walk
    assert finite._block_worst(t_q, t_0, t_q) != walk**2
    longest = orders.index(max(orders))
    cut = tile_orders[longest] < orders[longest]
    # the window the tile is not walked with gives other bits
    assert not _same_bits(finite._worst_defect_all_pairs(tile, full_window=not cut), walk)
    calls = _count_full_walks(monkeypatch)
    _, worst = is_homomorphism_exhaustive(t)
    assert [c.shape for c in calls] == [tile_orders]
    assert _same_bits(worst, walk)


def _same_products(p, r) -> bool:
    """Whether two complex arrays hold the same bits, a NaN component
    matching any NaN: a NaN anywhere in a block is the walk's answer."""
    p, r = (np.ascontiguousarray(x).view(np.float64) for x in (p, r))
    same = p.view(np.uint64) == r.view(np.uint64)
    return bool(np.all(same | (np.isnan(p) & np.isnan(r))))


def test_complex_multiply_bits_do_not_depend_on_position():
    # The certificate and the one-period walk rely on this: a pair's
    # product t(a) t(b) has the same bits wherever the pair sits in a block,
    # in the vector body or the tail of numpy's loop, strided, or against a
    # 0-d or broadcast operand, and with an output buffer, as the walk's
    # blocks use.  Each product is held to the pair multiplied alone
    rng = np.random.default_rng(11)
    n = 80
    a, b = (
        np.exp(1j * rng.uniform(0, 2 * np.pi, n)) * 10.0 ** rng.uniform(-3, 3, n)
        for _ in range(2)
    )
    a[:n // 2] /= np.abs(a[:n // 2])  # unit-modulus entries, as tables hold
    for i, x in enumerate([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, 5e-324]):
        a[3 * i + 1], b[5 * i + 2], a[7 * i + 3] = complex(x, 1.0), complex(-1.0, x), complex(x, x)
    with np.errstate(all="ignore"):
        alone = np.array(
            [[np.multiply(a[i : i + 1], b[j : j + 1])[0] for j in range(n)] for i in range(n)]
        )
        diag = np.diagonal(alone)
        for length in range(1, 70):
            for off in range(9):
                span = slice(off, off + length)
                assert _same_products(np.multiply(a[span], b[span]), diag[span]), (length, off)
        for step in (2, 3, -1, -2):
            for off in range(4):
                span = slice(off, None, step) if step > 0 else slice(n - 1 - off, None, step)
                assert _same_products(np.multiply(a[span], b[span]), diag[span]), (step, off)
        for i in range(n):
            assert _same_products(np.multiply(a[i], b), alone[i])
            assert _same_products(np.multiply(np.asarray(a[i]), b), alone[i])
            assert _same_products(np.multiply(a, b[i]), alone[:, i])
        out = np.empty((n, n), complex)
        assert _same_products(np.multiply(a[:, None], b, out), alone)
        # the walk's blocks: t(a) a (count, rows, 1) array, t(b) overlapping
        # runs of one array, b[r : r + run] for row r, into a buffer.  A
        # block of one pair is left out: numpy rounds it apart where its
        # operands broadcast, and the walk takes one only on a table of one
        # element (see finite._all_pairs_worst)
        for count, rows, run in itertools.product((1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 17, 60)):
            if count * rows * run > 1:
                runs = np.lib.stride_tricks.sliding_window_view(b, run)[:rows]
                buffer = out.ravel()[: count * rows * run].reshape(count, rows, run)
                got = np.multiply(a[: count * rows].reshape(count, rows, 1), runs, buffer)
                c, r, j = np.ogrid[:count, :rows, :run]
                assert _same_products(got, alone[rows * c + r, r + j]), (count, rows, run)


@pytest.mark.parametrize("failing", [1, 2])
def test_failing_worker_raises_in_caller(monkeypatch, failing):
    # the caller is worker 1 and a started thread worker 2.  Caught nowhere,
    # worker 2's error would end its thread quietly, its share would keep
    # the worst defect 0.0, and this broken table would pass
    real = finite._block_worst

    def flaky(*args):
        in_caller = threading.current_thread() is threading.main_thread()
        if in_caller == (failing == 1):
            raise MemoryError("worker %d" % failing)
        return real(*args)

    monkeypatch.setattr(finite, "_block_worst", flaky)
    monkeypatch.setattr(finite, "_worker_count", lambda: 2)
    t = CharacterTable(FiniteGroupSpec((363,)), -character_table(FiniteGroupSpec((363,)), 1).values)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="worker %d" % failing):
        is_homomorphism_exhaustive(t)
    assert threading.active_count() == before  # every worker was joined


@pytest.mark.parametrize("caller_raises", [False, True])
def test_pool_errors_reach_the_caller_after_every_thread(monkeypatch, caller_raises):
    # Z_1031 is 9 shares of rows, split between MAX_WORKERS workers.  Every
    # started share raises KeyboardInterrupt, which reaches the caller; where
    # the caller's share raises too, after a started one has, the caller's
    # error wins
    real = finite._block_worst
    started_raised = threading.Event()

    def flaky(*args):
        if threading.current_thread() is not threading.main_thread():
            started_raised.set()
            raise KeyboardInterrupt
        if caller_raises:
            assert started_raised.wait(60)
            raise MemoryError("caller")
        return real(*args)

    monkeypatch.setattr(finite, "_block_worst", flaky)
    monkeypatch.setattr(finite, "_worker_count", lambda: finite.MAX_WORKERS)
    values = character_table(FiniteGroupSpec((1031,)), 1).values
    before = threading.active_count()
    # caught as BaseException, so that a KeyboardInterrupt in the wrong case
    # fails this test rather than ending the session
    with pytest.raises(BaseException) as raised:
        finite._worst_defect_all_pairs(values)
    assert raised.type is (MemoryError if caller_raises else KeyboardInterrupt)
    assert started_raised.is_set()
    assert threading.active_count() == before  # every thread was joined


def test_the_thread_pool_is_imported_only_for_a_threaded_walk(tmp_path):
    # torus requests and one-block finite tables load neither
    # concurrent.futures nor the logging module it imports, about 3.5 ms
    # and 0.6-0.8 MB; forcing two workers keeps a 1-CPU host on the pool
    torus, z64 = str(tmp_path / "t64.json"), str(tmp_path / "z64.json")
    for mode, path in (("torus", torus), ("finite", z64)):
        assert cli.main(["generate", "--mode", mode, "--freq", "5", "--grid", "64",
                         "--output", path]) == 0
    script = f"""
import sys
import charid.cli
from charid import finite
for mode, path in (("torus", {torus!r}), ("finite", {z64!r})):
    assert charid.cli.main(["analyze", "--mode", mode, "--input", path]) == 0
print(sorted(name for name in ("concurrent.futures", "logging") if name in sys.modules))
finite._worker_count = lambda: 2
assert finite.is_homomorphism_exhaustive(finite.character_table(finite.FiniteGroupSpec((401,)), 1))[0]
print("concurrent.futures" in sys.modules)
"""
    src = str(pathlib.Path(finite.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "True"]


def test_workers_keep_the_callers_floating_point_errstate(monkeypatch):
    # an invalid operation in the started thread's share raises or stays
    # silent as the caller's np.errstate says, as it would in one thread
    real = finite._block_worst

    def invalid_in_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            np.sqrt(np.array(-1.0))
        return real(*args)

    monkeypatch.setattr(finite, "_block_worst", invalid_in_thread)
    monkeypatch.setattr(finite, "_worker_count", lambda: 2)
    t = character_table(FiniteGroupSpec((363,)), 1)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        is_homomorphism_exhaustive(t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            assert is_homomorphism_exhaustive(t)[0]


def test_small_tables_stay_serial(monkeypatch):
    # a table of one block is checked in the calling thread: no thread is
    # started for criterion 4's 100,000 checks or lib-finite's small tables,
    # whose largest are Z_256, 16 x 16 (both criterion 4's too) and 6 x 6 x 6
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_threads)
    monkeypatch.setattr(finite, "_worker_count", lambda: finite.MAX_WORKERS)
    groups = [(n,) for n in range(1, 257)]
    groups += [(a, b) for a in range(2, 17) for b in range(a, 256 // a + 1)]
    for orders in groups + [(6, 6, 6)]:
        c = character_table(FiniteGroupSpec(orders), tuple(n // 2 for n in orders))
        assert is_homomorphism_exhaustive(c)[0], orders
        assert not is_homomorphism_exhaustive(CharacterTable(c.group, -c.values))[0]


def _walk_of_listed_pairs(values: np.ndarray) -> float:
    """The walk's worst defect from its pairs listed one by one: every (a, b)
    with (b_L - a_L) mod N_L in [0, N_L//2] on the first longest axis L,
    each operand gathered flat, with the walk's t(a) t(b) and |d|^2
    arithmetic; a NaN anywhere is the answer."""
    shape, flat = values.shape, values.ravel()
    longest = shape.index(max(shape))
    a, b = (i.ravel() for i in np.indices((values.size, values.size)))
    ca, cb = np.unravel_index(a, shape), np.unravel_index(b, shape)
    keep = (cb[longest] - ca[longest]) % shape[longest] <= shape[longest] // 2
    ab = np.ravel_multi_index(tuple((x + y) % n for x, y, n in zip(ca, cb, shape)), shape)
    d = flat[ab[keep]] - flat[a[keep]] * flat[b[keep]]
    f = d.view(np.float64)
    f = f * f
    worst = (f[0::2] + f[1::2]).max()
    return math.nan if math.isnan(worst) else math.sqrt(worst)


@st.composite
def _one_block_tables(draw):
    """A table of one all-pairs block with order-1 axes in every position,
    (1, n), (n, 1), (a, 1, b) or (1, 1, 1): a character with up to three
    entries negated, or set to 0, NaN or inf."""
    form = draw(st.sampled_from(["1n", "n1", "a1b", "111"]))
    n, a, b = draw(st.integers(1, 361)), draw(st.integers(1, 16)), draw(st.integers(1, 16))
    orders = {"1n": (1, n), "n1": (n, 1), "a1b": (a, 1, b), "111": (1, 1, 1)}[form]
    n0 = max(orders)
    m = math.prod(orders) // n0
    assume(n0 * m * (n0 // 2 + 1) * m <= finite.BLOCK_PAIRS)
    g = FiniteGroupSpec(orders)
    vals = character_table(g, tuple(draw(st.integers(0, nj - 1)) for nj in orders)).values.copy()
    changes = st.tuples(st.integers(0, g.size - 1), st.sampled_from(["neg", "0", "nan", "inf"]))
    for i, kind in draw(st.lists(changes, max_size=3)):
        vals.flat[i] = {"neg": -vals.flat[i], "0": 0.0, "nan": math.nan, "inf": math.inf}[kind]
    return CharacterTable(g, vals)


@given(_one_block_tables(), st.sampled_from([0.5, 0.9, 1.0]))
@example(character_table(FiniteGroupSpec((3, 1, 4)), (1, 0, 1)), 0.9)
@example(character_table(FiniteGroupSpec((2, 1, 5)), (1, 0, 2)), 0.9)
@example(CharacterTable(FiniteGroupSpec((1, 1, 1)), np.full((1, 1, 1), -1 + 0j)), 0.9)
@example(CharacterTable(FiniteGroupSpec((1, 1, 1)), np.full((1, 1, 1), math.inf + 0j)), 0.9)
@settings(deadline=None, max_examples=150)
def test_one_block_route_is_the_plain_route(t, floor):
    # the check walks a one-block table with its order-1 axes dropped: the
    # same pairs, operands and operand order as the walk of the table as it
    # is, and as the pairs listed one by one (a table of one element walks a
    # single pair, which rounds as only a block of one does).  identify_finite
    # reads its spike as np.argmax and np.unravel_index would
    with np.errstate(all="ignore"):
        ok, worst = is_homomorphism_exhaustive(t)
        walk = finite._worst_defect_all_pairs(t.values)
        listed = _walk_of_listed_pairs(t.values)
        mags = np.abs(np.fft.fftn(t.values)) / t.group.size
        found = identify_finite(t, floor)
    assert _same_bits(worst, walk)
    assert ok == (worst <= finite.HOM_TOL)
    if t.group.size > 1:
        assert _same_bits(worst, listed)
    flat = int(np.argmax(mags))
    peak = float(mags.flat[flat])
    spike = math.isfinite(peak) and peak >= floor
    assert found == (tuple(int(i) for i in np.unravel_index(flat, t.group.orders)) if spike else None)


def test_enumeration_equals_character_table_bitwise():
    # order-1 factors, many factors and a group at the cap (64 x 64)
    last = []
    for orders in [(1,), (6,), (4, 6), (2, 3, 4), (5, 1, 3), (3,) * 4, (2,) * 6, (64, 64)]:
        g = FiniteGroupSpec(orders)
        chars = enumerate_characters(g)
        assert len(chars) == g.size
        for k, chi in zip(np.ndindex(*orders), chars):
            ref = character_table(g, k).values
            # equal including the sign of every zero component
            assert np.array_equal(chi.values.view(np.int64), ref.view(np.int64)), k
            assert chi.values.flags.c_contiguous and not chi.values.flags.writeable
        last.append(chars[-1])
    # views of one read-only array: no table can be made writable again
    for chi in last:
        with pytest.raises(ValueError):
            chi.values.flags.writeable = True


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


@pytest.mark.parametrize("floor", [0.0, -1.0, 1.0001, math.nan])
@pytest.mark.parametrize("route", [identify_finite, identify_finite_brute])
def test_identify_routes_refuse_floors_outside_the_unit_interval(route, floor):
    # the floor dominant_frequency takes; a random Z_16 table was
    # "identified" as (6,) at floors 0.0 and -1.0
    t = CharacterTable(
        FiniteGroupSpec((16,)), np.exp(1j * np.random.default_rng(1).uniform(0, 2 * np.pi, 16))
    )
    with pytest.raises(ValueError, match="floor"):
        route(t, floor=floor)
    assert route(character_table(t.group, 6), floor=1.0) == (6,)


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


def test_sampled_pairs_branch(monkeypatch):
    monkeypatch.setattr(finite, "ALL_PAIRS_CAP", 4)
    t = character_table(FiniteGroupSpec((4, 5)), (3, 2))
    ok, worst = is_homomorphism_exhaustive(t)
    assert ok and worst < 1e-12
    const = CharacterTable(FiniteGroupSpec((20,)), -np.ones(20, dtype=complex))
    ok_bad, worst_bad = is_homomorphism_exhaustive(const)
    assert not ok_bad
    assert worst_bad == pytest.approx(2.0)


@pytest.mark.parametrize("orders", [(ALL_PAIRS_CAP + 1,), (256, 257)])
def test_sampled_check_matches_per_axis_gather_bitwise(orders):
    # above the cap the check draws the torus path's pairs at seed 0; the
    # flat gather must give the per-axis gather of a fresh draw bit for bit,
    # on the check's own draw and on a second one
    rng = np.random.default_rng(len(orders))
    base = character_table(FiniteGroupSpec(orders), (3,) * len(orders)).values
    t = CharacterTable(
        FiniteGroupSpec(orders), base * np.exp(1j * rng.uniform(-1e-3, 1e-3, orders))
    )
    ok, worst = is_homomorphism_exhaustive(t)
    assert not ok
    assert worst == oracle_hom_residual(t.values, SAMPLED_PAIRS, 0)
    second = finite._sampled_defect(t.values, _probe_pairs(orders, SAMPLED_PAIRS, 9, np.int32))
    assert second == oracle_hom_residual(t.values, SAMPLED_PAIRS, 9)


@pytest.mark.parametrize("orders", [(ALL_PAIRS_CAP + 1,), (256, 257)])
@pytest.mark.parametrize("at", [0, SAMPLED_PAIRS])
@pytest.mark.parametrize("kind", ["worst", "nan"])
def test_sampled_check_reaches_the_first_and_the_lone_last_block(orders, at, kind):
    # pair 0 is (0, 0), alone at the head of the first block; pair 2^20 is
    # alone in the last block of BLOCK_PAIRS.  Each is made the only pair
    # with the worst defect, or the only one with a NaN defect, so a check
    # that skipped it would return a smaller number or inf
    g = FiniteGroupSpec(orders)
    idx = finite._sampled_pairs(orders)
    a, b, ab = (int(p[at]) for p in idx)
    assert len({0, a, b, ab}) == (4 if at else 1)
    vals = character_table(g, (3,) * len(orders)).values.copy()
    flat = vals.reshape(-1)
    if kind == "worst":
        # |3 - 9| = 6 at (0, 0), or |chi(a + b) - 9 chi(a) chi(b)| = 8 at
        # (a, b); a pair with one scaled entry has a defect of 2
        for x in {a, b}:
            flat[x] *= 3.0
    elif at == 0:
        # inf - inf^2 is NaN; inf times an entry with no zero part is inf
        flat[0] = complex(math.inf, 0.0)
    else:
        # 0 * inf is NaN; any other pair through b has an inf defect
        flat[a], flat[b] = 0.0, complex(math.inf, 0.0)
    with np.errstate(invalid="ignore"):
        defects = np.abs(flat[idx[2]] - flat[idx[0]] * flat[idx[1]])
        others = np.delete(defects, at)
        if kind == "worst":
            assert others.max() < defects[at]
        else:
            assert math.isnan(defects[at]) and not np.isnan(others).any()
        ok, worst = is_homomorphism_exhaustive(CharacterTable(g, vals))
        want = oracle_hom_residual(vals, SAMPLED_PAIRS, 0)
    assert not ok
    assert _same_bits(worst, want)


def test_sampled_pairs_are_drawn_once_per_group(monkeypatch):
    draws = []

    def counted(*args):
        draws.append(args)
        return real(*args)

    real = finite._probe_pairs
    monkeypatch.setattr(finite, "_probe_pairs", counted)
    finite._sampled_pairs.cache_clear()
    t = character_table(FiniteGroupSpec((ALL_PAIRS_CAP + 1,)), 5)
    first = is_homomorphism_exhaustive(t)
    assert len(draws) == 1
    assert is_homomorphism_exhaustive(t) == first
    assert len(draws) == 1


def test_sampled_pair_memo_keeps_two_compact_read_only_groups():
    memo = finite._sampled_pairs
    memo.cache_clear()
    groups = [(ALL_PAIRS_CAP + 1,), (256, 257), (ALL_PAIRS_CAP + 3,)]
    for orders in groups:
        is_homomorphism_exhaustive(character_table(FiniteGroupSpec(orders), (1,) * len(orders)))
    assert (memo.cache_info().misses, memo.cache_info().currsize) == (3, 2)
    for orders in groups[1:]:  # the third group evicted the first
        for idx in memo(orders):
            assert idx.dtype == np.int32 and idx.shape == (SAMPLED_PAIRS + 1,)
            assert not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0] = 1
    assert memo.cache_info().misses == 3
    memo(groups[0])
    assert memo.cache_info().misses == 4


@pytest.mark.parametrize("n,dtype", [(1 << 30, np.int32), ((1 << 30) + 1, np.int64)])
def test_sampled_pairs_are_int32_while_index_sums_fit(n, dtype):
    # a + b on an axis of n reaches 2 n - 2, past int32 above 2^30 elements
    finite._sampled_pairs.cache_clear()
    got = finite._sampled_pairs((n,))
    want = _probe_pairs((n,), SAMPLED_PAIRS, 0)
    for g, w in zip(got, want):
        assert g.dtype == dtype
        assert np.array_equal(g, w)


def test_threads_sharing_one_sampled_check_agree():
    # four threads race for the memo's first draw of one group, then share it
    finite._sampled_pairs.cache_clear()
    g = FiniteGroupSpec((256, 257))
    jitter = np.exp(1j * np.linspace(0, 1e-3, g.size)).reshape(g.orders)
    t = CharacterTable(g, character_table(g, (9, 4)).values * jitter)
    results = [None] * 4
    start = threading.Barrier(4)

    def check(i):
        start.wait()
        results[i] = is_homomorphism_exhaustive(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [is_homomorphism_exhaustive(t)] * 4
    assert results[0][1] == oracle_hom_residual(t.values, SAMPLED_PAIRS, 0)


@pytest.mark.parametrize("orders", [(ALL_PAIRS_CAP + 1,), (256, 257), (2,) * 17, (3,) * 11])
def test_sampled_check_memory_is_bounded(orders):
    # a draw through whole (pairs, factors) coordinate arrays took 21 to 204
    # MiB on these groups; the blocked draw holds its int32 indices and one
    # block of coordinates, and a check whose pairs are kept one block's
    # buffers of values (all pairs gathered at once took 72 MiB)
    t = character_table(FiniteGroupSpec(orders), (1,) * len(orders))
    finite._sampled_pairs.cache_clear()
    peaks = []
    for call in (lambda: finite._sampled_pairs(orders), lambda: is_homomorphism_exhaustive(t)):
        tracemalloc.start()
        try:
            result = call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert result[0] and finite._sampled_pairs.cache_info().misses == 1
    assert peaks[0] <= 3 * 4 * (SAMPLED_PAIRS + 1) + (2 << 20)
    assert peaks[1] <= 4_000_000


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="above ALL_PAIRS_CAP the law is checked on one fixed sample of pairs")
@pytest.mark.parametrize("orders", [(1 << 22,), (2048, 2048)])
def test_one_rotated_entry_outside_the_fixed_sample_fails_the_check(orders):
    # about 47% of the elements of either group lie on no sampled pair (Z_65537
    # has none): rotating chi_5 at one of them breaks the law on every pair
    # through it, yet the check and the finite report see a character
    g = FiniteGroupSpec(orders)
    touched = np.zeros(g.size, bool)
    for idx in _probe_pairs(orders, SAMPLED_PAIRS, 0, np.int32):
        touched[idx] = True
    x = int(np.argmin(touched))
    if touched[x]:  # not an AssertionError, so the xfail cannot absorb it
        pytest.fail(f"every element of {orders} is on a sampled pair")
    vals = character_table(g, (5,) * len(orders)).values.copy()
    vals.flat[x] *= np.exp(1e-3j)
    t = CharacterTable(g, vals)
    assert not is_homomorphism_exhaustive(t)[0]
    assert cli._finite_report(t, IdentifyConfig()).verdict != Verdict.EXACT


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


@pytest.mark.parametrize("orders", [(16384,), (128, 128), (2, 8192), (32, 32, 16)])
def test_all_pairs_memory_is_bounded_at_worker_cap(monkeypatch, orders):
    # each worker holds its own block and box copy: the same bound holds
    # with as many workers as MAX_WORKERS allows, on a host of any size
    monkeypatch.setattr(finite, "_worker_count", lambda: finite.MAX_WORKERS)
    test_all_pairs_memory_is_bounded(orders)


# the walk's worst defect of the character chi_(1, ..., 1), of it with entry
# |G| // 3 negated and of random phases (seed |G| + factor count), each at
# MAX_WORKERS workers, as hex
MANY_FACTOR_WALKS = {
    (2,) * 9: ("0x1.3daeaf976e788p-49", "0x1.0000000000000p+1", "0x1.fffffffd5701bp+0"),
    (2,) * 10: ("0x1.60fafbfd97309p-49", "0x1.0000000000000p+1", "0x1.ffffffffffa58p+0"),
    (2,) * 11: ("0x1.84474863bfe8ap-49", "0x1.0000000000000p+1", "0x1.ffffffffffffap+0"),
    (2,) * 12: ("0x1.a79394c9e8a0bp-49", "0x1.0000000000000p+1", "0x1.fffffffffffd7p+0"),
    (3,) * 7: ("0x1.9850486a3f181p-48", "0x1.0000000000000p+1", "0x1.fffffffffffb1p+0"),
    (4,) * 5: ("0x1.60fafbfd9730ap-50", "0x1.0000000000000p+1", "0x1.ffffffffc10e8p+0"),
    (2, 3, 2, 3, 2, 3, 2): ("0x1.0b9eb8bea6a51p-48", "0x1.0000000000000p+1",
                            "0x1.ffffffff4f49ap+0"),
}


def test_many_factor_walks_keep_their_results_in_bounded_memory(monkeypatch):
    # every rolled copy R(a') comes from the table doubled only along the
    # axes a box's a' values span: doubling it along every axis took
    # 3 * 2^(d-1) |G| entries for d factors, 576 MiB on (Z_2)^12.  R(0), the
    # shared view and a gather are a few tables; each worker holds its
    # blocks' buffers (24 bytes a pair of BLOCK_PAIRS), a box's copies and
    # its view, within four times those buffers
    monkeypatch.setattr(finite, "_worker_count", lambda: finite.MAX_WORKERS)
    block_buffers = 24 * finite.BLOCK_PAIRS
    for orders, expected in MANY_FACTOR_WALKS.items():
        chi = character_table(FiniteGroupSpec(orders), (1,) * len(orders)).values
        negated = chi.copy()
        negated.flat[chi.size // 3] *= -1
        rng = np.random.default_rng(chi.size + len(orders))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=orders))
        bound = 64 * chi.nbytes + finite.MAX_WORKERS * 4 * block_buffers
        assert bound <= 32 << 20
        for vals, hex_worst in zip((chi, negated, phases), expected):
            tracemalloc.start()
            try:
                worst = finite._worst_defect_all_pairs(vals)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert worst.hex() == hex_worst, orders
            assert peak < bound, (orders, peak)


def test_many_factor_checks_run_under_an_address_space_limit():
    # (Z_2)^13 and (Z_2)^14 at 1 GiB of address space, set in the child once
    # numpy is loaded: the table doubled along every axis but the walk's
    # took 1.50 GiB on (Z_2)^13
    script = """
import os, resource
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # numpy's start-up, whatever the host's cores
from charid.finite import CharacterTable, FiniteGroupSpec, character_table, is_homomorphism_exhaustive
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for d in (13, 14):
    t = character_table(FiniteGroupSpec((2,) * d), (1,) * d)
    negated = t.values.copy()
    negated.flat[5] *= -1
    print(*is_homomorphism_exhaustive(t))
    print(*is_homomorphism_exhaustive(CharacterTable(t.group, negated)))
"""
    pytest.importorskip("resource")
    src = str(pathlib.Path(finite.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    for character, negated in (lines[:2], lines[2:]):
        passes, worst = character.split()
        assert passes == "True" and float(worst) < 1e-14
        assert negated == "False 2.0"


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


@pytest.mark.parametrize("orders", [0, (0,), -4, (3, -4), ()])
@pytest.mark.parametrize("convert", [to_symmetric_freq, from_symmetric_freq])
def test_symmetric_box_refuses_orders_a_group_cannot_have(convert, orders):
    # order 0 used to divide by zero; order -4 reduced 3 to -1 unnoticed
    k = (3,) * (1 if np.isscalar(orders) else len(orders))
    with pytest.raises(ValueError, match="factor"):
        convert(k, orders)


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
