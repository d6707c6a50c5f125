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
import numbers
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .circle import UNIT_TOL, character_values, div_arrays, unit_deviation

IntVector = Union[int, Sequence[int]]
RealVector = Union[float, Sequence[float]]

#: Most pairs one block of work holds at once: the walk's boxes and row blocks,
#: the probe draw's coordinates and the sampled gather's values.  1 MiB blocks
#: stay in cache: on a 2 MiB-L2 Xeon, Z_16384 checks twice as fast as at 2^20.
BLOCK_PAIRS = 1 << 16


def _integral(x, name: str) -> int:
    """``x`` as a Python int where it is an integral number of any numeric
    type (4, np.int8(4), 4.0, np.float64(4.0)), or ValueError: int() would
    truncate 2.5 to 2, read the string "4" as 4 and raise OverflowError on
    inf."""
    try:
        return operator.index(x)
    except TypeError:
        pass
    if isinstance(x, numbers.Real) and math.isfinite(x) and x == math.floor(x):
        return int(x)
    raise ValueError(f"{name} must be integers, got {x!r}")


def _as_ints(v, name: str) -> tuple[int, ...]:
    """A scalar or sequence ``v`` of integral numbers as a tuple of ints."""
    return tuple(_integral(x, name) for x in ((v,) if np.isscalar(v) else v))


def _as_grid(grid: IntVector) -> tuple[int, ...]:
    g = _as_ints(grid, "grid counts")
    if len(g) < 1:
        raise ValueError("grid needs at least one axis")
    if any(n < 2 for n in g):
        raise ValueError(f"grid counts must all be >= 2, got {g}")
    return g


def _as_vector(v, dim: int, name: str, kind=int) -> tuple:
    """A scalar or sequence ``v`` as a tuple of ``dim`` values of ``kind``:
    int, refusing non-integral entries (see _integral), or float."""
    t = _as_ints(v, name) if kind is int else tuple(map(kind, (v,) if np.isscalar(v) else v))
    if len(t) != dim:
        raise ValueError(f"{name} has {len(t)} entries for a {dim}-axis grid")
    return t


def _freeze(obj, field: str, shape: tuple[int, ...], message: str) -> None:
    """Set ``field`` of the frozen ``obj`` to a read-only complex128 copy of
    its value in ``shape``, reshaping a flat value of the right size; any
    other shape raises ValueError(message.format(got_shape, shape))."""
    arr = np.asarray(getattr(obj, field), dtype=np.complex128)
    if arr.shape != shape:
        if arr.shape != (math.prod(shape),):
            raise ValueError(message.format(arr.shape, shape))
        arr = arr.reshape(shape)
    arr = arr.copy()
    arr.flags.writeable = False
    object.__setattr__(obj, field, arr)


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
        object.__setattr__(self, "grid", grid)
        _freeze(self, "values", grid, "values shape {} does not match grid {}")

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
        _freeze(self, "endpoint_values", (self.base.dim,),
                "expected {1[0]} endpoint values, got shape {0}")

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


def _adopt(cls, **fields):
    """A frozen ``cls`` holding ``fields`` by name.  Its arrays, fresh ones no
    caller references yet or views of one, are made read-only without the
    copy ``__post_init__`` makes of caller-owned arrays."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # past the frozen __setattr__
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return obj


def sample_character_torus(k: IntVector, grid: IntVector) -> TorusSamples:
    """Samples of x -> exp(i k.x) on the grid.

    Requires |k_j| < N_j/2 on every axis (the Nyquist limit of the grid);
    frequencies at or beyond it would alias and are rejected rather than
    silently wrapped.
    """
    g = _as_grid(grid)
    kk = _as_vector(k, len(g), "k")
    for kj, nj in zip(kk, g):
        if not 2 * abs(kj) < nj:
            raise ValueError(f"|k|={abs(kj)} aliases on an axis of {nj} samples")
    return TorusSamples(g, character_values(kk, g))


def sample_character_line(alpha: RealVector, grid: IntVector) -> LineSamples:
    """Samples of x -> exp(i alpha.x) on [0, 2*pi)^n plus endpoints exp(i 2*pi alpha_j).

    The integer part of each alpha_j must satisfy the same Nyquist bound as
    the torus generator, or the fractional reduction could not recover it.
    """
    g = _as_grid(grid)
    aa = _as_vector(alpha, len(g), "alpha", float)
    values = _line_values(aa, g)
    endpoints = np.exp(2j * np.pi * np.asarray(aa))
    return LineSamples(_adopt(TorusSamples, grid=g, values=values), endpoints)


def _line_values(alpha: tuple[float, ...], grid: tuple[int, ...]) -> np.ndarray:
    """A fresh array of exp(i alpha.x) over the grid, after checking that
    each alpha_j is finite with its integer part inside the Nyquist bound."""
    for aj, nj in zip(alpha, grid):
        if not math.isfinite(aj):
            raise ValueError(f"alpha must be finite, got {aj!r}")
        if not 2 * abs(math.floor(aj)) < nj:
            raise ValueError(
                f"integer part {math.floor(aj)} of alpha={aj} aliases on an "
                f"axis of {nj} samples"
            )
    return reduce(
        np.multiply.outer,
        (np.exp(1j * aj * (2.0 * np.pi / nj) * np.arange(nj)) for aj, nj in zip(alpha, grid)),
    )


def shift_samples(s: TorusSamples, offset: IntVector) -> TorusSamples:
    """Cyclic translation: output index m holds the input value at
    (m + offset) mod grid.  Exact, no interpolation."""
    off = _as_vector(offset, s.dim, "offset")
    shifted = np.roll(s.values, tuple(-o for o in off), axis=tuple(range(s.dim)))
    return TorusSamples(s.grid, shifted)


def _as_int(value, name: str, low: int) -> int:
    """``value`` as a Python int of at least ``low``, or ValueError.

    operator.index refuses floats, which numpy's generator refuses with a
    TypeError but a probe-pair memo would serve under the equal int's key
    (1.0 == 1): a float seed's outcome would depend on earlier calls.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _probe_pairs(
    grid: tuple[int, ...], trials: int, seed: int, dtype=np.intp
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only flat indices (a, b, a (+) b) of the pair (0, 0) followed by
    ``trials`` seeded pairs drawn uniformly from ``grid``, with (+) the exact
    index addition mod the grid, as arrays of the integer ``dtype``, which
    must hold the grid's size and twice its largest order.

    The pairs depend on (grid, trials, seed) only, so both checks keep them
    between calls; the same seed gives the same pairs on both the torus and
    the finite-group paths, in any ``dtype``.  The draw holds one block of
    BLOCK_PAIRS coordinates at a time, whatever the number of axes.
    """
    rng = np.random.default_rng(seed)
    rows = max(1, BLOCK_PAIRS // len(grid))
    # a scalar bound draws what the array bound draws (both take numpy's
    # 32-bit Lemire route below 2^32), in less than half the time
    high = grid[0] if len(set(grid)) == 1 else np.asarray(grid)
    strides = [math.prod(grid[ax + 1 :]) for ax in range(len(grid))]
    a, b, ab = (np.zeros(trials + 1, dtype) for _ in range(3))
    # numpy's bounded draws continue one stream across calls, so all a, then
    # all b, a block of rows at a time, are the one-shot draw's pairs
    for out in (a, b):
        for lo in range(1, trials + 1, rows):
            block = slice(lo, lo + rows)
            coords = rng.integers(0, high, size=(len(out[block]), len(grid)), dtype=dtype)
            above = None  # a's index over earlier axes: ca = index - above * n
            for c, n, stride in zip(coords.T, grid, strides):
                out[block] += c * stride if stride > 1 else c
                if out is b:
                    index = a[block] // stride if stride > 1 else a[block]
                    cab = index + c if above is None else index - above * n + c
                    above = index
                    # ca + cb < 2 n: one subtract in dtype (an int64 product would cast) is the mod
                    cab -= np.multiply(cab >= n, n, dtype=dtype)
                    ab[block] += cab * stride if stride > 1 else cab
    for f in (a, b, ab):
        f.flags.writeable = False
    return a, b, ab


def _sampled_defect(values: np.ndarray, pairs: tuple[np.ndarray, ...]) -> float:
    """max |f(a (+) b) - f(a) f(b)| of ``values`` over the flat index
    triples ``pairs`` that :func:`_probe_pairs` draws.  More than BLOCK_PAIRS
    pairs are gathered a block at a time into buffers made once: temporaries
    made per block would pay page faults whenever the allocator returns them."""
    v, (a, b, ab) = values.ravel(), pairs
    if a.size <= BLOCK_PAIRS:  # one block, as the torus probe's: no buffers to set up
        return float(np.abs(v[ab] - v[a] * v[b]).max())
    x, y = np.empty((2, BLOCK_PAIRS), np.complex128)
    worst = np.empty(-(-a.size // BLOCK_PAIRS))  # a NaN in any block is the answer
    for i, lo in enumerate(range(0, a.size, BLOCK_PAIRS)):
        a, b, ab = (p[lo : lo + BLOCK_PAIRS] for p in pairs)
        xs, ys = x[: a.size], y[: a.size]
        # indices lie in the grid; "clip" gathers into out, "raise" via a copy
        v.take(a, out=xs, mode="clip")
        v.take(b, out=ys, mode="clip")
        xs *= ys
        v.take(ab, out=ys, mode="clip")
        ys -= xs
        worst[i] = np.abs(ys, out=xs.real).max()  # xs is spent
    return float(worst.max())


def pointwise_div(f: TorusSamples, g: TorusSamples) -> TorusSamples:
    """Elementwise renormalized quotient f/g over matching grids."""
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")
    return TorusSamples(f.grid, div_arrays(f.values, g.values))


def validate(s: Union[TorusSamples, LineSamples]) -> list[Violation]:
    """Check the unit-modulus invariant, to within UNIT_TOL, everywhere;
    never raises.

    Returns one :class:`Violation` per offending entry (empty list means all
    invariants hold).  Structural invariants are enforced at construction, so
    only the modulus can be wrong here.
    """
    arrays = (s.base.values, s.endpoint_values) if isinstance(s, LineSamples) else (s.values,)
    out = []
    for where, arr in zip(("values", "endpoint_values"), arrays):
        dev = unit_deviation(arr)
        # ~(dev <= UNIT_TOL) rather than dev > UNIT_TOL so NaN values are flagged too
        out += [Violation(where, tuple(int(i) for i in idx), float(dev[tuple(idx)]))
                for idx in np.argwhere(~(dev <= UNIT_TOL))]
    return out
