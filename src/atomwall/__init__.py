"""Finite-temperature Casimir-Polder free energy of an atom facing a flat wall.

Lifshitz-theory Matsubara summation with interchangeable wall-dielectric
models (ideal metal, plasma, static permittivity, Ninham-Parsegian,
Kramers-Kronig transform of tabulated optical constants) and atomic
polarizability models (static, N-oscillator, tabulated).
"""

from .constants import (
    CODATA,
    PhysicalConstants,
    au_volume_to_si,
    ev_to_angular,
)
from .dataio import (
    GridSpec,
    RunConfig,
    Variant,
    parse_alpha_table,
    parse_optical_table,
    parse_oscillator_file,
    parse_run_config,
)
from .dielectric import (
    DIELECTRIC,
    METAL,
    DrudeLowFreq,
    IdealMetal,
    KKSettings,
    NinhamParsegian,
    OpticalTable,
    Plasma,
    StaticPermittivity,
    TabulatedKK,
    eps_imag_part,
    eps_iw,
    f0,
    kk_transform,
)
from .errors import (
    AtomWallError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ParseError,
    UsageError,
    ValidationError,
)
from .lifshitz import (
    ComputationRequest,
    FreeEnergyResult,
    NumericalTolerances,
    casimir_polder_energy,
    correction_factor,
    free_energy,
    free_energy_batch,
    ideal_metal_integral,
    matsubara_integral,
    matsubara_zeta,
    normalized_free_energy,
    reflection_par,
    reflection_perp,
)
from .polarizability import (
    OscillatorSet,
    StaticAlpha,
    TabulatedAlpha,
    alpha_iw,
    fit_single_oscillator,
    static_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "CODATA", "PhysicalConstants", "au_volume_to_si", "ev_to_angular",
    "GridSpec", "RunConfig", "Variant", "parse_alpha_table",
    "parse_optical_table", "parse_oscillator_file", "parse_run_config",
    "DIELECTRIC", "METAL", "DrudeLowFreq", "IdealMetal", "KKSettings",
    "NinhamParsegian", "OpticalTable", "Plasma", "StaticPermittivity",
    "TabulatedKK", "eps_imag_part", "eps_iw", "f0", "kk_transform",
    "AtomWallError", "ConfigError", "ConvergenceError", "DomainError",
    "ParseError", "UsageError", "ValidationError",
    "ComputationRequest", "FreeEnergyResult", "NumericalTolerances",
    "casimir_polder_energy", "correction_factor", "free_energy",
    "free_energy_batch", "ideal_metal_integral", "matsubara_integral", "matsubara_zeta",
    "normalized_free_energy", "reflection_par", "reflection_perp",
    "OscillatorSet", "StaticAlpha", "TabulatedAlpha", "alpha_iw",
    "fit_single_oscillator", "static_alpha",
    "__version__",
]
