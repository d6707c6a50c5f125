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
import os
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .circle import UNIT_TOL, character_values, root_of_unity_powers, unit_deviation
from .fourier import DOMINANCE_FLOOR, _check_floor, _dft
from .samples import IntVector, _adopt, _as_int, _as_ints, _as_vector, _freeze
from .samples import BLOCK_PAIRS, _probe_pairs, _sampled_defect

#: Largest group size enumerate_characters accepts.  Its |G| tables are read-only
#: views of one (k..., m...) array of |G|^2 complex entries, 256 MiB at the cap,
#: and enumeration peaks at 384 MiB (see enumerate_characters).
ENUMERATION_CAP = 1 << 12

#: Largest group size verified over literally all pairs; seeded random pairs
#: are used above it to keep the check bounded.
ALL_PAIRS_CAP = 1 << 16

#: Number of sampled pairs used beyond ALL_PAIRS_CAP.
SAMPLED_PAIRS = 1 << 20

#: Most threads one all-pairs check runs on.  Each holds a block of up to
#: BLOCK_PAIRS pairs and one box of rolled copies, so this cap bounds the
#: check's memory on a host of any size.
MAX_WORKERS = 4

#: Most entries far from the DFT's character whose pairs the all-pairs
#: certificate evaluates (see _certified_worst): at most about
#: 3 CERTIFIED_ENTRIES |G| / 2 pairs against the full walk's |G|^2 / 2.
CERTIFIED_ENTRIES = 64

#: A table passes the multiplicative check when its worst defect is below this.
HOM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteGroupSpec:
    """The group Z_N1 x ... x Z_Nm; order-1 factors are allowed."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = _as_ints(self.orders, "factor orders")
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
        _freeze(self, "values", self.group.orders,
                "table shape {} does not match group orders {}")


def character_table(g: FiniteGroupSpec, k: IntVector) -> CharacterTable:
    """The character chi_k with k_j in [0, N_j)."""
    kk = _as_vector(k, len(g.orders), "k")
    for kj, nj in zip(kk, g.orders):
        if not 0 <= kj < nj:
            raise ValueError(f"character index {kk} outside box {g.orders}")
    return CharacterTable(g, character_values(kk, g.orders))


def enumerate_characters(g: FiniteGroupSpec) -> list[CharacterTable]:
    """All prod(N_j) characters, in row-major order of the index k.

    Factor j's matrix, whose row k is root_of_unity_powers(k, N_j), lies on
    axes j and d + j of one product in the returned layout (k..., m...), in
    factor order as in :func:`character_table`, so each table equals
    character_table(g, k) bitwise.  The tables are read-only views of that
    array, so a kept table keeps all of it.  The peak is the tables plus one
    temporary of at most half their size (a whole copy where an order-1
    factor meets the product of the rest).  Refused above ENUMERATION_CAP.
    """
    if g.size > ENUMERATION_CAP:
        raise ValueError(f"group size {g.size} exceeds enumeration cap {ENUMERATION_CAP}")
    d = len(g.orders)
    tables = reduce(np.multiply, (root_of_unity_powers(np.arange(n)[:, None], n).reshape(
        [n if ax in (j, d + j) else 1 for ax in range(2 * d)]) for j, n in enumerate(g.orders)))
    (tables if tables.base is None else tables.base).flags.writeable = False  # Z_n: a view
    return [_adopt(CharacterTable, group=g, values=t) for t in tables.reshape(-1, *g.orders)]


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


def _worker_count() -> int:
    """The CPUs this process may run on, at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(MAX_WORKERS, cpus)


def _block_worst(t_a, t_b, t_ab, o=None, s=None) -> float:
    """max |t_ab - t_a t_b|^2 over one block.  It is computed in ``o`` and
    ``s``, flat complex and float64 buffers at least the block's size, when
    they are given, and in new arrays otherwise."""
    if o is not None:
        o = o[: t_ab.size].reshape(t_ab.shape)
        s = s[: t_ab.size].reshape(t_ab.shape)
    # each ufunc writes to its third argument, a new array if that is None
    o = np.multiply(t_a, t_b, o)
    np.subtract(t_ab, o, o)
    # |o|^2: the float64 view squared in place, real plus imaginary half
    f = o.view(np.float64)
    np.multiply(f, f, f)
    return float(np.add(f[..., 0::2], f[..., 1::2], s).max())


def _nan_max(found) -> float:
    """max(0.0, *found), or math.nan at the first NaN, which max() may pass over."""
    worst = 0.0
    for x in found:
        if math.isnan(x):
            return math.nan
        worst = max(worst, x)
    return worst


def _rolled(moved: np.ndarray, fixed: tuple[int, ...] = ()) -> np.ndarray:
    """The R(a') whose first rest components are ``fixed``, as one view
    v[a'', k, x0, x'] = t(x0, x' + (fixed, a'')) of ``moved``: one gather of
    (x + i) mod n rolls the fixed components into place, the table is doubled
    only along the axes of a'', and k's 0 stride triples the walk's axis."""
    lead, shape = len(fixed) + 1, moved.shape
    if any(fixed):
        shifted = ((np.arange(n) + i) % n for n, i in zip(shape[1:], fixed))
        moved = moved[(slice(None), *np.ix_(*shifted))]
    for ax in range(lead, len(shape)):
        moved = np.concatenate([moved] * 2, axis=ax)
    st = moved.strides  # ravel("K") views a table contiguous in any axis order
    return np.ndarray(shape[lead:] + (3,) + shape, moved.dtype, moved.ravel("K"), 0,
                      st[lead:] + (0,) + st)


def _worst_defect_all_pairs(values: np.ndarray, full_window: bool = False) -> float:
    """max |t(a+b) - t(a) t(b)| over every pair of group elements.

    Order-1 axes are dropped, the first longest axis is moved first and
    a = (a0, a') splits off its component.  The defect is symmetric in
    (a, b), so it is enough to take the b with (b0 - a0) mod N0 in
    [0, N0//2] and b' free: every unordered pair still appears at least
    once, in about half of the |G|^2 ordered pairs.  With ``full_window``
    (b0 - a0) mod N0 takes all of [0, N0) instead, and each ordered pair is
    taken once: the walk of a table that repeats along its longest axis
    asks for that (see _all_pairs_worst).  Let R(a') be the table rolled by
    a' on its trailing axes and tripled along axis 0.  For one a, the
    t(a + b) are (N0//2 + 1) |G|/N0 (or |G|) consecutive entries of R(a')
    from row 2 a0 on, the t(b) as many entries of R(0) from row a0 on, and
    t(a) is entry (a0, 0') of R(a').  So both operands are contiguous runs
    of about |G|/2 (or |G|) on every group shape.

    The copies R(a') come from _rolled's views: all at once in a table of
    one block, else one box of a' values at a time (see _boxes), at most
    BLOCK_PAIRS pairs' worth or one a', in blocks of BLOCK_PAIRS pairs (or
    one row) of rows a0 where one copy is more.  A share makes a new view,
    at most twice the table per a' of its box, only where its box's fixed
    components change: memory is bounded on any number of factors.  R(0) is
    copied once, and is the one R() of a cyclic group.

    A table of up to about 360 elements is a single block, checked in the
    calling thread.  Larger ones are split into _worker_count() shares: the
    caller works share 0 and a thread pool made for the call the others, at
    once because numpy's ufuncs release the interpreter lock.  The boxes go
    round the shares in turn; a single box (a cyclic group) has its blocks
    of rows dealt out instead.  Each share reduces to a worst |defect|^2 and
    the caller takes the max, which is exact in any order, so the result
    does not depend on the worker count; a NaN in any share is the answer.
    The pool's threads keep the caller's numpy floating-point error
    handling.  Every thread is joined before the call returns or raises,
    and the lowest share's exception, if any, is raised in the caller.
    """
    values = np.ascontiguousarray(values.squeeze())  # at least one axis
    longest = values.shape.index(max(values.shape))
    moved = values.swapaxes(0, longest)
    n0, rest, size = moved.shape[0], moved.shape[1:], values.size
    m = size // n0
    run = (n0 if full_window else n0 // 2 + 1) * m
    dt, item = values.dtype, values.itemsize
    plane, row = 3 * size * item, m * item

    def operands(copies, base, count, rows, at):
        """t(a), t(b), t(a+b) of the rows from at / row on of ``count`` copies, R(0) in ``base``."""
        return (np.ndarray((count, rows, 1), dt, copies, at, (plane, row, item)),
                np.ndarray((rows, run), dt, base, at, (row, item)),
                np.ndarray((count, rows, run), dt, copies, 2 * at, (plane, 2 * row, item)))

    if n0 * m * run <= BLOCK_PAIRS:  # one block
        copies = np.ascontiguousarray(_rolled(moved))
        worst = _block_worst(*operands(copies, copies, m, n0, 0))  # R(0) is copy 0
        return math.nan if math.isnan(worst) else math.sqrt(worst)  # every route gives math.nan
    budget = max(1, BLOCK_PAIRS // (n0 * run))
    boxes = _boxes(rest, budget)
    base = np.ascontiguousarray(_rolled(moved, (0,) * len(rest)))  # R(0)
    head = boxes[0][:-1], _rolled(moved, boxes[0][:-1])  # where every share starts

    def share_worst(boxes, first, stride, o=None, s=None, copy=None):
        """The worst |defect|^2 of each block of rows first, first + stride,
        ... of each box in ``boxes``, its copies made in ``copy`` if given."""
        fixed, view = head
        for box in boxes:
            if box[:-1] != fixed:
                fixed, view = box[:-1], _rolled(moved, box[:-1])
            src = view[box[-1:]]
            if copy is None:  # a cyclic group, whose one R() is R(0)
                copies = base
            else:
                copies = copy[: src.size].reshape(src.shape)
                np.copyto(copies, src)
            count = copies.size // (3 * size)
            step = max(1, BLOCK_PAIRS // (count * run))
            for r0 in range(first * step, n0, stride * step):
                rows, at = min(step, n0 - r0), r0 * row
                yield _block_worst(*operands(copies, base, count, rows, at), o, s)

    from concurrent.futures import ThreadPoolExecutor

    one_box = len(boxes) == 1  # a cyclic group
    shares = -(-n0 // max(1, BLOCK_PAIRS // run)) if one_box else len(boxes)
    workers = min(_worker_count(), shares)
    fp_errors = np.geterr()  # a new thread starts from numpy's defaults
    # Every worker's buffers are allocated here, and threads make only new
    # views: arrays allocated there take malloc arenas and raise peak RSS
    pairs = max(BLOCK_PAIRS, run)  # the largest block
    copied = min(budget, m) * 3 * size  # a box's copies
    buffers = [(np.empty(pairs, dt), np.empty(pairs), np.empty(copied, dt) if rest else None)
               for _ in range(workers)]

    def work(w) -> float:
        share = (boxes, w, workers) if one_box else (boxes[w::workers], 0, 1)
        with np.errstate(**fp_errors):
            return _nan_max(share_worst(*share, *buffers[w]))

    # at most one thread per share given (a pool of 0 is refused); leaving
    # the block joins them all, and then the lowest share's error is raised
    with ThreadPoolExecutor(workers) as pool:
        started = pool.map(work, range(1, workers))
        worst = [work(0), *started]
    return math.sqrt(_nan_max(worst))  # a NaN anywhere is the answer


def _certified_worst(values: np.ndarray) -> float | None:
    """_worst_defect_all_pairs(values), bit for bit, from the few entries far
    from a character, or None where that cannot be certified.

    Let chi be the character the DFT names, u = t conj(chi) and
    e = |u - 1|.  In exact arithmetic t and u have the same defect, and
    u(a+b) - u(a) u(b) = (u(a+b) - 1) - (u(b) - 1) - u(b) (u(a) - 1), so a
    pair's defect is at most e(a+b) + e(b) + |t(b)| e(a).  B is the shortest
    prefix, of at most CERTIFIED_ENTRIES, of the entries ranked by e that
    leaves the largest e outside it, tau, small enough for the bound
    (2 + U) tau + 1e-12 on every pair avoiding B to be below the largest e;
    U = max |t|, and 1e-12 absorbs rounding.  The pairs of the full walk
    with a, b or a+b in B are evaluated with its arithmetic and operand
    order, t(a) t(b).  When their worst exceeds the bound, no pair left out
    reaches it, and it is the full walk's result.

    The full walk's pairs are those with (b_L - a_L) mod N_L in
    [0, N_L//2] on its first longest axis L.  Tables with an entry off the
    unit circle by more than UNIT_TOL (non-finite ones included), whose U is
    unbounded, give None.  chi decides only whether this fires, never the
    result.
    """
    shape = values.shape
    longest = shape.index(max(shape))
    n0, size = shape[longest], values.size
    # NaN fails the comparison too
    if not unit_deviation(values).max() <= UNIT_TOL:
        return None
    k = np.unravel_index(int(np.argmax(np.abs(_dft(values)))), shape)
    e = np.abs(values * np.conj(character_values(k, shape)) - 1.0).ravel()
    count = min(CERTIFIED_ENTRIES, size - 1)
    top = np.argpartition(e, size - count - 1)[size - count - 1 :]
    top = top[np.argsort(-e[top])]
    # bounds[j] holds for the pairs avoiding the j + 1 entries ranked first
    bounds = (2.0 + np.abs(values).max()) * e[top[1:]] + 1e-12
    below = np.flatnonzero(bounds < e[top[0]])
    if not below.size:
        return None
    prefix = int(below[0]) + 1
    axes = tuple(range(values.ndim))
    neg = np.roll(np.flip(values), 1, axes)  # neg[a] = t(-a)
    rows, half = np.arange(n0), n0 // 2

    def pick(rule, *tables):
        """The entries of ``tables`` whose coordinate on L obeys ``rule``."""
        return (np.compress(rule, table, longest) for table in tables)

    worst = 0.0
    for x in zip(*(c.tolist() for c in np.unravel_index(top[:prefix], shape))):
        t_x = values[x].reshape((1,) * values.ndim)
        plus = np.roll(values, tuple(-i for i in x), axes)  # plus[b] = t(x + b)
        minus = np.roll(neg, x, axes)  # minus[a] = t(x - a)
        x_l = x[longest]
        # (x, b): b_L - x_L in the half window; (a, x): x_L - a_L; (a, x - a): x_L - 2 a_L
        t_b, t_xb = pick((rows - x_l) % n0 <= half, values, plus)
        t_a, t_ax = pick((x_l - rows) % n0 <= half, values, plus)
        s_a, s_b = pick((x_l - 2 * rows) % n0 <= half, values, minus)
        worst = max(
            worst,
            _block_worst(t_x, t_b, t_xb),
            _block_worst(t_a, t_x, t_ax),
            _block_worst(s_a, s_b, t_x),
        )
    if worst > bounds[prefix - 1] ** 2:
        return math.sqrt(worst)
    return None


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


def _periods(values: np.ndarray) -> tuple[int, ...]:
    """Each axis's least period: the least p_j, a divisor of N_j, with
    t(x + p_j e_j) = t(x) bit for bit for every x.

    The periods of axis j that divide N_j are the multiples of p_j, so p_j
    comes from p = N_j by dividing p by each prime q of N_j for as long as
    the table repeats with period p / q.  Each test compares the whole
    table with itself shifted by d = p / q along the axis: entries [d, N_j)
    against [0, N_j - d), as 64-bit words, so that a NaN equals only the
    same NaN and -0.0 differs from 0.0.
    """
    words = np.ascontiguousarray(values).view(np.uint64).reshape(values.shape + (2,))
    periods = []
    for ax, n in enumerate(values.shape):
        lead, p = (slice(None),) * ax, n
        for q in _prime_factors(n):
            while p % q == 0 and np.array_equal(
                words[lead + (slice(p // q, None),)], words[lead + (slice(n - p // q),)]
            ):
                p //= q
        periods.append(p)
    return tuple(periods)


def _all_pairs_worst(values: np.ndarray) -> float:
    """_worst_defect_all_pairs(values), bit for bit, from as few pairs as
    this module can certify.

    A table of one block is walked as it is.  A larger one that repeats along
    some axis, with least periods p_j (see _periods) not all N_j, has its tile
    values[:p_1, ..., :p_m] walked instead, as a table on the quotient group.
    A pair's defect depends only on the bits of t(a), t(b) and t(a+b), which
    are the tile's at a, b and a+b reduced mod p, and the walk's max is exact.
    Where the walk's axis L keeps its length, it stays the tile's first
    longest axis, and the half window's pairs map onto the tile's own.  Where
    L is cut, p_L <= N_L / 2, so the N_L//2 + 1 consecutive offsets of the
    half window reach every residue mod p_L, and the walk reaches every
    ordered pair of the quotient: the tile is walked with the full window,
    which takes each of them once.  numpy rounds a product whose operands
    broadcast to a single element apart from the same product in a longer
    block, so a constant table's tile is widened to the least prime of N_L
    along L.  Any other table is offered to the certificate (see
    _certified_worst) and walked where that declines.
    """
    shape = values.shape
    n0 = max(shape)
    longest, m = shape.index(n0), values.size // n0
    if n0 * m * (n0 // 2 + 1) * m <= BLOCK_PAIRS:  # one block
        return _worst_defect_all_pairs(values)
    periods = _periods(values)
    if math.prod(periods) == 1:  # a constant table
        periods = tuple(_prime_factors(n0)[0] if j == longest else 1 for j in range(len(shape)))
    if periods != shape:
        tile = values[tuple(slice(p) for p in periods)]
        return _worst_defect_all_pairs(tile, full_window=periods[longest] < n0)
    worst = _certified_worst(values)
    return _worst_defect_all_pairs(values) if worst is None else worst


@lru_cache(maxsize=2)
def _sampled_pairs(
    orders: tuple[int, ...], trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sampled check's pairs, _probe_pairs(orders, trials, seed), as
    int32 indices where the group has at most 2^30 elements, so that no
    index sum overflows, and int64 ones otherwise: 12 MB for
    SAMPLED_PAIRS + 1 pairs in int32.

    They depend on these three only, so each key is drawn once; two entries
    serve a caller that alternates between two large groups or seeds, and a
    third key evicts the oldest.  The arrays are read-only and lru_cache is
    thread-safe, so concurrent callers may share them.
    """
    dtype = np.int32 if math.prod(orders) <= 1 << 30 else np.int64
    return _probe_pairs(orders, trials, seed, dtype)


def is_homomorphism_exhaustive(t: CharacterTable, seed: int = 0) -> tuple[bool, float]:
    """Verify t(a+b) = t(a) t(b), returning (passes, worst defect); it passes
    when the worst defect is at most HOM_TOL.

    Literally every pair is checked up to ALL_PAIRS_CAP group elements:
    a table that repeats along an axis is walked on one period, and other
    pairs are certified unchecked where they can be (see _all_pairs_worst),
    always with the full walk's result.  Beyond that, SAMPLED_PAIRS pairs
    drawn from ``seed`` (always including (0, 0)) bound the cost, and the
    result is explicitly a sampled verdict.
    ``seed`` must be an integer >= 0 (ValueError otherwise).

    Pairs are drawn in under 14 MiB whatever the number of factors and kept
    for the two latest (orders, seed) keys (see _sampled_pairs), 12 MB each.
    """
    seed = _as_int(seed, "seed", 0)
    if t.group.size <= ALL_PAIRS_CAP:
        worst = _all_pairs_worst(t.values)
    else:
        worst = _sampled_defect(t.values, _sampled_pairs(t.group.orders, SAMPLED_PAIRS, seed))
    return worst <= HOM_TOL, worst


def identify_finite(
    t: CharacterTable, floor: float = DOMINANCE_FLOOR
) -> tuple[int, ...] | None:
    """Identify a table by its DFT spike.

    A character has coefficient exactly 1 at its own k and 0 elsewhere, by
    discrete orthogonality.  For non-characters the argmax bin is returned
    only when its magnitude reaches ``floor``; ties take the lexicographically
    smallest k.  A peak that is not finite (a NaN or inf entry) gives None.
    ``floor`` must be in (0, 1] (ValueError otherwise).
    """
    _check_floor(floor)
    mags = np.abs(_dft(t.values)) / t.group.size
    flat = int(mags.argmax())
    peak = float(mags.flat[flat])
    # NaN never compares below the floor, so test for acceptance instead
    if not (math.isfinite(peak) and peak >= floor):
        return None
    k = []
    for n in reversed(t.group.orders):
        flat, i = divmod(flat, n)
        k.append(i)
    return tuple(reversed(k))


def identify_finite_brute(
    t: CharacterTable,
    characters: list[CharacterTable] | None = None,
    floor: float = DOMINANCE_FLOOR,
) -> tuple[int, ...] | None:
    """Identify a table by inner products against every enumerated character.

    The independent route for :func:`identify_finite`: no fast transform,
    just |<t, chi_k>| / |G| maximized over the full character list.
    ``floor`` must be in (0, 1] (ValueError otherwise).
    """
    _check_floor(floor)
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
    box prod [-N_j//2, N_j - N_j//2) used by the spectral code.  ``orders``
    must be valid :class:`FiniteGroupSpec` orders."""
    oo = FiniteGroupSpec(orders).orders
    kk = _as_vector(k, len(oo), "k")
    return tuple(((kj + n // 2) % n) - n // 2 for kj, n in zip(kk, oo))


def from_symmetric_freq(k: IntVector, orders: IntVector) -> tuple[int, ...]:
    """Inverse of :func:`to_symmetric_freq`: reduce each component mod N_j."""
    oo = FiniteGroupSpec(orders).orders
    kk = _as_vector(k, len(oo), "k")
    return tuple(kj % n for kj, n in zip(kk, oo))
