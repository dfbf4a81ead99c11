"""Driven, dissipative, rotating two-mode cavity with a chi(2) nonlinearity.

Steady-state photon statistics of a spinning optical resonator whose
fundamental mode is pumped and coupled to its second harmonic through a
second-order nonlinearity.  The package builds the truncated two-mode
Fock space, assembles the rotating-frame Hamiltonian and the Lindblad
generator, solves for the steady state directly and by time evolution,
evaluates zero-delay correlation functions, and sweeps parameters to
map photon blockade, the interference dip of the second harmonic, and
the rotation-induced nonreciprocity of the fundamental mode.
"""

__version__ = "0.1.0"

from .fock import FockBasis, ModeOperator, annihilator_a, annihilator_b, build_basis
from .hamiltonian import (
    DriveDirection,
    EigenLevels,
    FizeauParams,
    SystemParams,
    build_h_eff,
    build_h_lab,
    drive_strength_from_power,
    eigenlevels,
    fizeau_shift,
    resonance_angular_condition,
)
from .dynamics import (
    DensityMatrix,
    Liouvillian,
    NonUniqueSteadyStateError,
    SteadyStateError,
    TraceDriftError,
    build_liouvillian,
    evolve,
    steady_state,
    unvectorize,
    vectorize,
)
from .observables import (
    Mode,
    PhotonStatistics,
    VacuumModeError,
    g2_aa,
    g2_bb,
    mean_photon,
    photon_statistics,
    population_statistics,
    populations,
)
from .amplitudes import (
    AmplitudeModelOptions,
    AmplitudeState,
    amplitude_system,
    g2_from_amplitudes,
    optimal_g,
    steady_amplitudes,
)
from .sweep import (
    SweepAxis,
    SweepResult,
    SweepRow,
    SweepSpec,
    emit,
    figure_preset,
    refine_extremum,
    run_point,
    run_sweep,
)

__all__ = [
    "FockBasis",
    "ModeOperator",
    "annihilator_a",
    "annihilator_b",
    "build_basis",
    "DriveDirection",
    "EigenLevels",
    "FizeauParams",
    "SystemParams",
    "build_h_eff",
    "build_h_lab",
    "drive_strength_from_power",
    "eigenlevels",
    "fizeau_shift",
    "resonance_angular_condition",
    "DensityMatrix",
    "Liouvillian",
    "NonUniqueSteadyStateError",
    "SteadyStateError",
    "TraceDriftError",
    "build_liouvillian",
    "evolve",
    "steady_state",
    "vectorize",
    "unvectorize",
    "Mode",
    "PhotonStatistics",
    "VacuumModeError",
    "g2_aa",
    "g2_bb",
    "mean_photon",
    "photon_statistics",
    "population_statistics",
    "populations",
    "AmplitudeModelOptions",
    "AmplitudeState",
    "amplitude_system",
    "g2_from_amplitudes",
    "optimal_g",
    "steady_amplitudes",
    "SweepAxis",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "emit",
    "figure_preset",
    "refine_extremum",
    "run_point",
    "run_sweep",
]
