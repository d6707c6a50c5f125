"""Character testing and frequency identification for sampled unit-modulus
functions on the torus, the line, and finite abelian groups."""

from .circle import UNIT_TOL, principal_angles
from .fourier import (
    FourierSpectrum,
    coefficient,
    dominant_frequency,
    parseval_residual,
    spectrum,
    top_peaks,
    translation_identity_residual,
)
from .finite import (
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
from .identify import (
    CharacterReport,
    IdentifyConfig,
    Verdict,
    classify,
    homomorphism_residual,
    identify_line,
    identify_torus,
)
from .samples import (
    LineSamples,
    TorusSamples,
    Violation,
    pointwise_div,
    sample_character_line,
    sample_character_torus,
    shift_samples,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "UNIT_TOL",
    "principal_angles",
    "FourierSpectrum",
    "coefficient",
    "dominant_frequency",
    "parseval_residual",
    "spectrum",
    "top_peaks",
    "translation_identity_residual",
    "CharacterTable",
    "FiniteGroupSpec",
    "character_table",
    "enumerate_characters",
    "from_symmetric_freq",
    "identify_finite",
    "identify_finite_brute",
    "is_homomorphism_exhaustive",
    "to_symmetric_freq",
    "CharacterReport",
    "IdentifyConfig",
    "Verdict",
    "classify",
    "homomorphism_residual",
    "identify_line",
    "identify_torus",
    "LineSamples",
    "TorusSamples",
    "Violation",
    "pointwise_div",
    "sample_character_line",
    "sample_character_torus",
    "shift_samples",
    "validate",
]
