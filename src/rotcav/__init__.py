"""Driven, dissipative, rotating two-mode cavity with a chi(2) nonlinearity.

Steady-state photon statistics of a spinning optical resonator whose
fundamental mode is pumped and coupled to its second harmonic through a
second-order nonlinearity.  The package builds the truncated two-mode
Fock space, assembles the rotating-frame Hamiltonian, solves for the
Lindblad steady state without forming the superoperator, evaluates
zero-delay correlation functions, and sweeps parameters to map photon
blockade, the interference dip of the second harmonic, and the
rotation-induced nonreciprocity of the fundamental mode.  The dense
reference route lives in :mod:`rotcav.oracle`; the three of its names
that the benchmark imports from the package are re-exported here.
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
    eigenlevels,
    fizeau_shift,
    optimal_g,
    resonance_angular_condition,
)
from .dynamics import DensityMatrix, SteadyStateError
from .observables import PhotonStatistics, VacuumModeError, population_statistics
from .oracle import build_liouvillian, photon_statistics, steady_state
from .sweep import (
    SweepAxis,
    SweepResult,
    SweepRow,
    SweepSpec,
    emit,
    figure_preset,
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
    "eigenlevels",
    "fizeau_shift",
    "optimal_g",
    "resonance_angular_condition",
    "DensityMatrix",
    "SteadyStateError",
    "build_liouvillian",
    "steady_state",
    "PhotonStatistics",
    "VacuumModeError",
    "photon_statistics",
    "population_statistics",
    "SweepAxis",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "emit",
    "figure_preset",
    "run_point",
    "run_sweep",
]
