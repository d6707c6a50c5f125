"""Inputs and reference values, computed apart from the program.

Nothing here calls charid: characters, jitter, random phases, finite tables
and direct Fourier sums are plain numpy arithmetic, and files are written
with the standard library, so a fault in the program's own generators or
writers cannot hide a fault in what it analyses.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def axis_phases(k: int, n: int) -> np.ndarray:
    """exp(2*pi*i*k*m/n) for m = 0..n-1, the angle reduced in integers."""
    m = np.arange(n)
    return np.exp(2j * np.pi * ((k * m) % n) / n)


def outer(factors) -> np.ndarray:
    out = np.ones((), dtype=np.complex128)
    for f in factors:
        out = np.multiply.outer(out, f)
    return out


def character(k, grid) -> np.ndarray:
    """The character with integer frequency k on the grid (any sign of k)."""
    return outer(axis_phases(kj, nj) for kj, nj in zip(k, grid))


def line_character(alpha, grid) -> tuple[np.ndarray, np.ndarray]:
    """exp(i alpha.x) on [0, 2*pi)^n and its endpoint values exp(2*pi*i*alpha_j)."""
    values = outer(
        np.exp(1j * (TWO_PI * aj / nj) * np.arange(nj)) for aj, nj in zip(alpha, grid)
    )
    return values, np.exp(2j * np.pi * np.asarray(alpha, dtype=np.float64))


def jitter(values: np.ndarray, eps: float, rng) -> np.ndarray:
    """Multiply every sample by exp(i u), u uniform in [-eps, eps]."""
    return values * np.exp(1j * rng.uniform(-eps, eps, values.shape))


def random_phases(grid, rng) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, TWO_PI, tuple(grid)))


def symmetric_k(grid, rng) -> tuple[int, ...]:
    """An integer frequency strictly inside the Nyquist box of every axis."""
    return tuple(int(rng.integers(-((n - 1) // 2), (n - 1) // 2 + 1)) for n in grid)


def direct_coefficient(values: np.ndarray, k) -> complex:
    """(1/M) sum_m f(x_m) exp(-i k.x_m), summed directly with no transform."""
    phases = outer(axis_phases(kj, nj) for kj, nj in zip(k, values.shape))
    # vdot conjugates its first argument: sum exp(-i k.x) f(x)
    return complex(np.vdot(phases, values)) / values.size


# -- files in the program's input formats -----------------------------------


def _pairs(values: np.ndarray) -> list:
    flat = np.asarray(values).ravel()
    return np.column_stack([flat.real, flat.imag]).tolist()


def write_json(path, mode: str, values: np.ndarray, endpoints=None) -> None:
    """JSON input: mode, dim, grid and row-major [re, im] pairs.  Python's
    float repr round-trips, so the file holds the values exactly."""
    doc = {"mode": mode, "dim": values.ndim, "grid": list(values.shape),
           "values": _pairs(values)}
    if endpoints is not None:
        doc["endpoint_values"] = _pairs(endpoints)
    text = json.dumps(doc, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(path, values: np.ndarray) -> None:
    """1-D CSV input: index,re,im."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "re", "im"])
        w.writerows((i, repr(v.real), repr(v.imag)) for i, v in enumerate(values.tolist()))


def read_fixture(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Values and endpoint values (or None) of a file the program wrote,
    parsed with the standard library only."""
    with open(path, encoding="utf-8") as fh:
        if str(path).endswith(".csv"):
            rows = list(csv.reader(fh))
            if rows[0] != ["index", "re", "im"]:
                raise ValueError(f"unexpected csv header {rows[0]}")
            idx = [int(r[0]) for r in rows[1:]]
            if idx != list(range(len(idx))):
                raise ValueError("csv indices are not 0..N-1 in order")
            return np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]]), None
        doc = json.load(fh)
    pairs = np.array(doc["values"], dtype=np.float64).reshape(-1, 2)
    values = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(doc["grid"])
    endpoints = None
    if "endpoint_values" in doc:
        e = np.array(doc["endpoint_values"], dtype=np.float64).reshape(-1, 2)
        endpoints = e[:, 0] + 1j * e[:, 1]
    return values, endpoints
