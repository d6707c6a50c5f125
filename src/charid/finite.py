"""Exact ground truth on finite abelian groups Z_N1 x ... x Z_Nm.

The sample lattice of an n-torus grid is itself a finite abelian group, so
everything the continuum pipeline claims can be cross-checked here without
any analysis: all characters of a finite group can be enumerated, the
multiplicative law can be verified over literally every pair of elements,
and identification can be done both by the DFT and by brute-force inner
products against the enumerated tables.  This module is the anchor for the
rest of the package's tests.

A character of the group is chi_k(m) = exp(2*pi*i * sum_j k_j m_j / N_j)
with k_j in [0, N_j); there are exactly prod N_j of them.  The index k uses
that non-negative box internally; :func:`to_symmetric_freq` /
:func:`from_symmetric_freq` convert to and from the symmetric frequency box
the spectral code uses.

All operations are pure; enumeration order and tie-breaking are fixed, so
results are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circle import root_of_unity_powers
from .samples import IntVector, _as_vector, _probe_pairs

#: Largest group size enumerate_characters accepts.  The |G| tables hold
#: |G|^2 complex entries, 256 MiB at the cap.
ENUMERATION_CAP = 1 << 12

#: Largest group size verified over literally all pairs; seeded random pairs
#: are used above it to keep the check bounded.
ALL_PAIRS_CAP = 1 << 16

#: Number of sampled pairs used beyond ALL_PAIRS_CAP.
SAMPLED_PAIRS = 1 << 20

#: Most pairs the all-pairs check holds in memory at once (16 bytes each).
#: It sizes both the boxes of a' values whose rolled copies of the table are
#: made together and the blocks of rows a0 taken from one copy that alone
#: is more (see _worst_defect_all_pairs).  Blocks of 1 MiB stay cache
#: resident: on a 2 MiB-L2 Xeon, Z_16384 checks in half the time it takes
#: with 2^20-pair blocks.
BLOCK_PAIRS = 1 << 16

#: A table passes the multiplicative check when its worst defect is below this.
HOM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteGroupSpec:
    """The group Z_N1 x ... x Z_Nm; order-1 factors are allowed."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = (
            (int(self.orders),)
            if np.isscalar(self.orders)
            else tuple(int(n) for n in self.orders)
        )
        if len(orders) < 1:
            raise ValueError("group needs at least one factor")
        if any(n < 1 for n in orders):
            raise ValueError(f"factor orders must be >= 1, got {orders}")
        object.__setattr__(self, "orders", orders)

    @property
    def size(self) -> int:
        return math.prod(self.orders)


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """A candidate character: one unit-circle value per group element,
    row-major over the factor orders."""

    group: FiniteGroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        orders = self.group.orders
        if vals.shape == (self.group.size,):
            vals = vals.reshape(orders)
        elif vals.shape != orders:
            raise ValueError(
                f"table shape {vals.shape} does not match group orders {orders}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def character_table(g: FiniteGroupSpec, k: IntVector) -> CharacterTable:
    """The character chi_k with k_j in [0, N_j)."""
    kk = _as_vector(k, len(g.orders), "k")
    kk = tuple(int(x) for x in kk)
    for kj, nj in zip(kk, g.orders):
        if not 0 <= kj < nj:
            raise ValueError(f"character index {kk} outside box {g.orders}")
    values = reduce(
        np.multiply.outer, (root_of_unity_powers(kj, nj) for kj, nj in zip(kk, g.orders))
    )
    return CharacterTable(g, values)


def enumerate_characters(
    g: FiniteGroupSpec, cap: int = ENUMERATION_CAP
) -> list[CharacterTable]:
    """All prod(N_j) characters, in row-major order of the index k.

    Every table comes out of one outer product of the per-factor matrices
    whose row k is root_of_unity_powers(k, N_j), taken in the same order as
    in :func:`character_table`, so each equals character_table(g, k) bitwise.
    """
    if g.size > cap:
        raise ValueError(f"group size {g.size} exceeds enumeration cap {cap}")
    # axes (k_1, m_1, k_2, m_2, ...), then the k axes brought first
    tables = reduce(
        np.multiply.outer,
        (root_of_unity_powers(np.arange(n)[:, None], n) for n in g.orders),
    )
    dims = len(g.orders)
    tables = tables.transpose(
        tuple(range(0, 2 * dims, 2)) + tuple(range(1, 2 * dims, 2))
    )
    return [CharacterTable(g, tables[k]) for k in np.ndindex(*g.orders)]


def _boxes(shape: tuple[int, ...], budget: int):
    """Index boxes covering ``shape`` in row-major order, each of at most
    ``budget`` >= 1 indices: leading axes are walked one index at a time
    until whole slices of the remaining axes fit, and the next axis is cut
    in steps."""
    lead = 0
    while math.prod(shape[lead:]) > budget:
        lead += 1
    if lead == 0:
        return [()]
    step = budget // math.prod(shape[lead:])
    return [
        outer + (slice(r0, r0 + step),)
        for outer in itertools.product(*map(range, shape[: lead - 1]))
        for r0 in range(0, shape[lead - 1], step)
    ]


def _worst_defect_all_pairs(values: np.ndarray) -> float:
    """max |t(a+b) - t(a) t(b)| over every pair of group elements.

    The longest axis is moved first and a = (a0, a') splits off its
    component.  The defect is symmetric in (a, b), so it is enough to take
    the b with (b0 - a0) mod N0 in [0, N0//2] and b' free: every unordered
    pair still appears at least once, in about half of the |G|^2 ordered
    pairs.  Let R(a') be the table rolled by a' on its trailing axes and
    tripled along axis 0.  For one a, the t(a + b) are (N0//2 + 1) |G|/N0
    consecutive entries of R(a') from row 2 a0 on, the t(b) as many entries
    of R(0) from row a0 on, and t(a) is entry (a0, 0') of R(a').  So both
    operands are contiguous runs of about |G|/2 on every group shape.

    The copies R(a') are made for one box of a' values at a time, at most
    BLOCK_PAIRS pairs' worth (or a single a'); where one copy is more, its
    rows a0 go in blocks of BLOCK_PAIRS pairs (or one row, about |G|/2
    pairs).  This bounds memory on large tables, and a table of up to about
    360 elements is a single block.  R(0) is the first copy of the first
    box.  On a cyclic group a' is empty and R() is the table tripled, with
    no copy made.
    """
    longest = values.shape.index(max(values.shape))
    if longest:
        values = np.ascontiguousarray(values.swapaxes(0, longest))
    n0, rest, size = values.shape[0], values.shape[1:], values.size
    m = size // n0
    run = (n0 // 2 + 1) * m
    ext = np.concatenate([values] * 3)
    for ax in range(1, values.ndim):
        ext = np.concatenate([ext] * 2, axis=ax)
    # rolled[a'] = R(a'): rolled[a'][x0, x'] = ext[x0, x' + a'], x0 < 3 N0
    st, dt, item = ext.strides, ext.dtype, ext.itemsize
    rolled = np.ndarray(rest + (3 * n0,) + rest, dt, ext, 0, st[1:] + st)
    plane, row = 3 * size * item, m * item
    worst = 0.0
    base = None
    for box in _boxes(rest, max(1, BLOCK_PAIRS // (n0 * run))):
        copies = np.ascontiguousarray(rolled[box])
        if base is None:
            base = copies  # the first box starts with R(0)
        count = copies.size // (3 * size)
        step = max(1, BLOCK_PAIRS // (count * run))
        for r0 in range(0, n0, step):
            rows, at = min(step, n0 - r0), r0 * row
            t_a = np.ndarray((count, rows, 1), dt, copies, at, (plane, row, item))
            t_b = np.ndarray((rows, run), dt, base, at, (row, item))
            o = t_a * t_b
            t_ab = np.ndarray(
                (count, rows, run), dt, copies, 2 * at, (plane, 2 * row, item)
            )
            np.subtract(t_ab, o, out=o)
            # |o|^2: the float64 view squared in place, real plus imaginary half
            f = o.view(np.float64)
            np.multiply(f, f, out=f)
            block_worst = float((f[..., 0::2] + f[..., 1::2]).max())
            # max() would keep worst over a NaN; a NaN anywhere is the answer
            if math.isnan(block_worst):
                return math.nan
            worst = max(worst, block_worst)
    return math.sqrt(worst)


def _worst_defect_sampled(values: np.ndarray, pairs: int, seed: int) -> float:
    # the torus check's draw, not its memo: 2^20 pairs are 24 MB of indices
    a, b, ab = _probe_pairs(values.shape, pairs, seed)
    v = values.ravel()
    return float(np.abs(v[ab] - v[a] * v[b]).max())


def is_homomorphism_exhaustive(
    t: CharacterTable,
    tol: float = HOM_TOL,
    all_pairs_cap: int = ALL_PAIRS_CAP,
    seed: int = 0,
) -> tuple[bool, float]:
    """Verify t(a+b) = t(a) t(b), returning (passes, worst defect).

    Literally every pair is checked up to ``all_pairs_cap`` group elements;
    beyond that, a seeded sample of pairs (always including (0, 0)) bounds
    the cost, and the result is explicitly a sampled verdict.
    """
    if t.group.size <= all_pairs_cap:
        worst = _worst_defect_all_pairs(t.values)
    else:
        worst = _worst_defect_sampled(t.values, SAMPLED_PAIRS, seed)
    return worst <= tol, worst


def identify_finite(
    t: CharacterTable, floor: float = 0.9
) -> tuple[int, ...] | None:
    """Identify a table by its DFT spike.

    A character has coefficient exactly 1 at its own k and 0 elsewhere, by
    discrete orthogonality.  For non-characters the argmax bin is returned
    only when its magnitude reaches ``floor``; ties take the lexicographically
    smallest k.  A peak that is not finite (a NaN or inf entry) gives None.
    """
    mags = np.abs(np.fft.fftn(t.values)) / t.group.size
    flat = int(np.argmax(mags))
    peak = float(mags.flat[flat])
    # NaN never compares below the floor, so test for acceptance instead
    if not (math.isfinite(peak) and peak >= floor):
        return None
    return tuple(int(i) for i in np.unravel_index(flat, t.group.orders))


def identify_finite_brute(
    t: CharacterTable,
    characters: list[CharacterTable] | None = None,
    floor: float = 0.9,
) -> tuple[int, ...] | None:
    """Identify a table by inner products against every enumerated character.

    The independent route for :func:`identify_finite`: no fast transform,
    just |<t, chi_k>| / |G| maximized over the full character list.
    """
    if characters is None:
        characters = enumerate_characters(t.group)
    flat = t.values.ravel()
    size = t.group.size
    best_k: tuple[int, ...] | None = None
    best = -1.0
    for k, chi in zip(np.ndindex(*t.group.orders), characters):
        mag = abs(np.vdot(chi.values.ravel(), flat)) / size
        if mag > best:
            best = mag
            best_k = tuple(int(i) for i in k)
    return best_k if best >= floor else None


def to_symmetric_freq(k: IntVector, orders: IntVector) -> tuple[int, ...]:
    """Map a character index from the box prod [0, N_j) to the symmetric
    box prod [-N_j//2, N_j - N_j//2) used by the spectral code."""
    oo = (int(orders),) if np.isscalar(orders) else tuple(int(n) for n in orders)
    kk = _as_vector(k, len(oo), "k")
    return tuple(((int(kj) + n // 2) % n) - n // 2 for kj, n in zip(kk, oo))


def from_symmetric_freq(k: IntVector, orders: IntVector) -> tuple[int, ...]:
    """Inverse of :func:`to_symmetric_freq`: reduce each component mod N_j."""
    oo = (int(orders),) if np.isscalar(orders) else tuple(int(n) for n in orders)
    kk = _as_vector(k, len(oo), "k")
    return tuple(int(kj) % n for kj, n in zip(kk, oo))
