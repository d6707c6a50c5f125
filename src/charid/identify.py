"""Character testing and frequency identification.

The torus pipeline mirrors the constructive argument it implements: compute
the full spectrum, find the dominant coefficient (a character has a single
unit spike, so a vanishing spectrum is impossible for unit-modulus data), and
confirm the multiplicative law directly on sampled grid pairs.  Both checks
must agree before a verdict of ``ExactCharacter`` is issued; neither a lone
spectral spike nor a lone multiplicative check suffices.

The line pipeline reduces to the torus one: the fractional frequency part
beta_j in [0, 1) comes from the endpoint value via exp(i 2*pi beta_j) =
f(2*pi e_j), the samples are divided by g(x) = exp(i beta.x) to give a
2*pi-periodic quotient h, the integer part k is identified from h, and the
reported frequency is alpha = k + beta.  beta is read from the endpoint only,
never fitted from phase slopes; slope fits exist solely as test oracles.

Verdicts describe the sampled points: finite grids cannot distinguish a
homomorphism from one modified on a null set.  ``ApproxCharacter`` (spectral
peak above the dominance floor but outside exact tolerance) is an engineering
band for real-world sampled inputs, not a claim from the underlying theory.

Identification of independent inputs may run concurrently; identical input
and config (seed included) produce bitwise-identical reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .circle import TWO_PI, div_arrays, principal_angles
from .fourier import DOMINANCE_FLOOR, _dominates, _peaks, spectrum
from .samples import LineSamples, TorusSamples, _adopt, _line_values
from .samples import _as_int, _probe_pairs, _sampled_defect

# Not called here: the torus path shares one magnitude pass between peaks and
# dominance, and the line path one formula with sample_character_line.  The
# traced benchmark (bench/spans.py) still patches these names here.
from .fourier import dominant_frequency, top_peaks  # noqa: F401
from .samples import pointwise_div, sample_character_line  # noqa: F401

#: Most probe pairs one homomorphism check draws, so a config cannot ask for
#: unbounded index arrays; a memo entry holds at most 3 x (MAX_TRIALS + 1)
#: int64 indices, 1.6 MB.
MAX_TRIALS = 1 << 16

# Probe pairs are a pure function of (grid, trials, seed), and a workload
# reuses a few grids with one config: drawing them once per key saves the
# generator setup and draws, a third of a small request.  The arrays are
# read-only and lru_cache is thread-safe, so concurrent callers may share them.
_cached_probe_pairs = lru_cache(maxsize=32)(_probe_pairs)


def _as_trials(trials: int, name: str) -> int:
    trials = _as_int(trials, name, 1)
    if trials > MAX_TRIALS:
        raise ValueError(f"{name} must be <= {MAX_TRIALS}, got {trials}")
    return trials


class Verdict(str, enum.Enum):
    EXACT = "ExactCharacter"
    APPROX = "ApproxCharacter"
    NOT = "NotCharacter"

    def __str__(self) -> str:  # serialize as the plain label
        return self.value


@dataclass(frozen=True)
class IdentifyConfig:
    """Knobs for classification.

    ``tau_exact`` is floating headroom over exact generator output, bounding
    both the peak's gap from 1 and the law residual; ``floor`` is the
    spectral dominance threshold (the default keeps the peak Parseval-unique);
    ``hom_trials`` random grid pairs probe the multiplicative law, always
    augmented by the (0, 0) pair so f(0) = 1 is a hard requirement.
    """

    tau_exact: float = 1e-9
    floor: float = DOMINANCE_FLOOR
    hom_trials: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau_exact < self.floor <= 1.0:
            raise ValueError(
                f"need 0 < tau_exact < floor <= 1, got tau_exact={self.tau_exact} "
                f"floor={self.floor}"
            )
        object.__setattr__(self, "hom_trials", _as_trials(self.hom_trials, "hom_trials"))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0))


@dataclass(frozen=True)
class CharacterReport:
    """Classification verdict plus identified frequency and diagnostics.

    ``frequency`` is integer-valued in torus mode and real-valued (k + beta
    componentwise) in line mode; absent for ``NotCharacter``.
    ``spectral_peak`` is the largest coefficient magnitude (torus side),
    ``peaks`` the top five with frequencies.  Line mode also records ``beta``.
    """

    verdict: Verdict
    frequency: tuple | None
    hom_residual: float
    spectral_peak: float
    peaks: tuple[tuple[tuple[int, ...], float], ...]
    beta: tuple[float, ...] | None = None


def homomorphism_residual(s: TorusSamples, trials: int = 256, seed: int = 0) -> float:
    """Worst multiplicative defect max |f(a (+) b) - f(a) f(b)| over sampled
    index pairs, with (+) the exact index addition mod the grid.

    Pairs are drawn deterministically from the seed, at most MAX_TRIALS of
    them; the pair (0, 0) is always included, making f(0) = 1 necessary for
    a small residual.  ``trials`` and ``seed`` must be integers, at least 1
    and 0 (ValueError otherwise).
    """
    trials = _as_trials(trials, "trials")
    pairs = _cached_probe_pairs(s.grid, trials, _as_int(seed, "seed", 0))
    return _sampled_defect(s.values, pairs)


def _report(
    peaks: tuple, frequency: tuple | None, residual: float, cfg: IdentifyConfig
) -> CharacterReport:
    """The one verdict rule, for every domain, and the report it gives.

    Without a ``frequency`` (no dominant spike) the input is
    ``NotCharacter``.  With one, it is ``ExactCharacter`` when the top
    magnitude ``peaks[0][1]`` is within ``tau_exact`` of 1 and the law
    ``residual`` at most ``tau_exact`` (NaN fails), else ``ApproxCharacter``.
    """
    peak = peaks[0][1]
    if frequency is None:
        verdict = Verdict.NOT
    elif peak >= 1.0 - cfg.tau_exact and residual <= cfg.tau_exact:
        verdict = Verdict.EXACT
    else:
        verdict = Verdict.APPROX
    return CharacterReport(verdict, frequency, residual, peak, peaks)


@np.errstate(invalid="ignore")
def identify_torus(s: TorusSamples, cfg: IdentifyConfig = IdentifyConfig()) -> CharacterReport:
    """Classify torus samples and identify the integer frequency.

    ``ExactCharacter`` requires the spectral peak within ``tau_exact`` of 1
    and the multiplicative residual at most ``tau_exact``; a peak above
    ``floor`` alone gives ``ApproxCharacter``; anything else is
    ``NotCharacter``.  All outcomes are verdicts, never errors or warnings.
    """
    sp = spectrum(s)
    mag = np.abs(sp.coeffs).ravel()
    peaks = tuple(_peaks(mag, s.grid, 5))
    k, peak = peaks[0]
    spike = _dominates(mag, peak, cfg.floor)
    hres = homomorphism_residual(s, cfg.hom_trials, cfg.seed)
    return _report(peaks, k if spike else None, hres, cfg)


@np.errstate(invalid="ignore")
def identify_line(ls: LineSamples, cfg: IdentifyConfig = IdentifyConfig()) -> CharacterReport:
    """Classify line samples and identify the real frequency alpha = k + beta.

    beta_j is the principal angle of the endpoint value divided by 2*pi, so
    it always lands in [0, 1).  The quotient h = f/g with g(x) = exp(i beta.x)
    is 2*pi-periodic by construction on the grid and is identified by the
    torus pipeline; its verdict is inherited.  g comes from the formula
    :func:`~charid.samples.sample_character_line` uses, so a non-finite
    beta (a NaN endpoint) raises the same ValueError, and h is built once.
    The true alpha_j must lie within N_j/2 of beta_j: a larger one aliases
    onto that window, undetectably from the data.
    """
    betas = tuple(float(t) / TWO_PI for t in principal_angles(ls.endpoint_values))
    values = div_arrays(ls.base.values, _line_values(betas, ls.grid))
    rep = identify_torus(_adopt(TorusSamples, grid=ls.grid, values=values), cfg)
    freq = None
    if rep.frequency is not None:
        freq = tuple(kj + bj for kj, bj in zip(rep.frequency, betas))
    return replace(rep, frequency=freq, beta=betas)


def classify(
    s: TorusSamples | LineSamples, cfg: IdentifyConfig = IdentifyConfig()
) -> CharacterReport:
    """Dispatch to the torus or line pipeline by input type."""
    if isinstance(s, LineSamples):
        return identify_line(s, cfg)
    if isinstance(s, TorusSamples):
        return identify_torus(s, cfg)
    raise TypeError(f"cannot classify {type(s).__name__}")
