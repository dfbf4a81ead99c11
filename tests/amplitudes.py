"""Weak-drive amplitude model of the two-mode cavity.

A reference of the tests, not part of the package: the master-equation
solver and :func:`~rotcav.hamiltonian.optimal_g` are checked against it.

For pump strengths well below the loss rates the state stays in the
low-excitation sector and can be truncated to nine Fock components,

    |psi> = c00|0,0> + c10|1,0> + c20|2,0> + c30|3,0> + c40|4,0>
            + c01|0,1> + c11|1,1> + c21|2,1> + c02|0,2>,

evolving under the non-Hermitian decay Hamiltonian

    H' = H_eff - i (kappa1/2) a^dag a - i (kappa2/2) b^dag b.

The model owns no copy of that physics.  Its 9 x 9 matrix is the
Fock-space H' (:func:`~rotcav.dynamics.decay_hamiltonian` of
:func:`~rotcav.hamiltonian.build_h_eff`) on the box n_a <= 4, n_b <= 2,
restricted to the ansatz states, and its g2 values are those of
:func:`~rotcav.observables.population_statistics` for |psi><psi| on that
box.  The box is the smallest that holds the ansatz, and the restriction
is exact: the product b a^dag^2 taking one ansatz state to another
passes only through states of the box, so no truncation edge clips an
element.

Setting the time derivatives to zero and pinning c00 = 1 (the
perturbative hierarchy keeps |c00| ~ 1 >> |c10| >> the rest) turns the
equations of motion into a 9 x 9 linear system for the steady
amplitudes.  Four of the drive couplings feed a higher-occupation
amplitude back into a lower one and are subleading in the pump
strength; dropping them (the default) makes the c02 = 0 condition
solvable in closed form, which is where
:func:`~rotcav.hamiltonian.optimal_g` comes from: the interference null
of the two-photon amplitude in the second harmonic sits at

    g = sqrt(4 F^2 + (2 kappa1 + kappa2)(kappa1 + kappa2)) / (2 sqrt(2)).

Nonzero detunings are supported by keeping the diagonal of H_eff; that
is an extension of the resonant model, useful for cross-checks against
the full master equation away from resonance.

The model gives the leading weak-drive order of the master-equation
correlators, not their value at finite F: the mixed steady state adds
an O(F^2) term to g2 (about 0.16 F^2 to g2_bb at the interference
null), so the difference between the two solvers scales as F^2.  Where
g2_bb is itself O(F^2), near the null, the two agree only in that
sense, not to a fixed relative tolerance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from rotcav.dynamics import DensityMatrix, decay_hamiltonian
from rotcav.fock import FockBasis
from rotcav.hamiltonian import SystemParams, build_h_eff
from rotcav.observables import population_statistics

# Ansatz members in fixed order; index map used by the linear system.
ANSATZ_STATES: tuple[tuple[int, int], ...] = (
    (0, 0),
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (0, 1),
    (1, 1),
    (2, 1),
    (0, 2),
)
_INDEX = {state: i for i, state in enumerate(ANSATZ_STATES)}

# Drive couplings that pull a higher a-occupation back into a lower row;
# their coefficients are one order higher in F than the terms kept.
_SUBLEADING = (
    ((1, 0), (2, 0)),
    ((2, 0), (3, 0)),
    ((3, 0), (4, 0)),
    ((1, 1), (2, 1)),
)

# Smallest Fock box holding the ansatz, and the ansatz states' places in it.
_BASIS = FockBasis(4, 2)
_FOCK_INDEX = np.array([_BASIS.index(*state) for state in ANSATZ_STATES])


@dataclass(frozen=True)
class AmplitudeModelOptions:
    """keep_subleading retains the higher-order drive couplings."""

    keep_subleading: bool = False


@dataclass(frozen=True)
class AmplitudeState:
    """Steady amplitudes of the nine ansatz components, in ANSATZ_STATES order."""

    c00: complex
    c10: complex
    c20: complex
    c30: complex
    c40: complex
    c01: complex
    c11: complex
    c21: complex
    c02: complex

    def as_array(self) -> np.ndarray:
        return np.array(dataclasses.astuple(self), dtype=complex)


def amplitude_system(
    p: SystemParams, opts: AmplitudeModelOptions = AmplitudeModelOptions()
) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state linear system (matrix, rhs) with c00 pinned to 1.

    Row 0 is the normalization c00 = 1; the remaining rows are the
    equations of motion with time derivatives set to zero.
    """
    h_prime = decay_hamiltonian(build_h_eff(p, _BASIS), _BASIS, p.kappa1, p.kappa2)
    mat = h_prime[np.ix_(_FOCK_INDEX, _FOCK_INDEX)]
    if not opts.keep_subleading:
        for row, col in _SUBLEADING:
            mat[_INDEX[row], _INDEX[col]] = 0.0
    mat[0, :] = 0.0
    mat[0, 0] = 1.0
    rhs = np.zeros(len(ANSATZ_STATES), dtype=complex)
    rhs[0] = 1.0
    return mat, rhs


def steady_amplitudes(
    p: SystemParams, opts: AmplitudeModelOptions = AmplitudeModelOptions()
) -> AmplitudeState:
    """Solve the pinned steady-state system for the nine amplitudes."""
    mat, rhs = amplitude_system(p, opts)
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"amplitude system is singular: {exc}")
    residual = float(np.max(np.abs(mat @ sol - rhs)))
    if not np.all(np.isfinite(sol)) or residual > 1e-8 * max(1.0, float(np.max(np.abs(sol)))):
        raise ValueError(f"amplitude system is ill-conditioned (residual {residual:.3e})")
    return AmplitudeState(*sol)


def g2_from_amplitudes(s: AmplitudeState) -> tuple[float | None, float | None]:
    """Zero-delay correlations of the normalized truncated state.

    Returns (g2_aa, g2_bb) of |psi><psi| from
    :func:`~rotcav.observables.population_statistics`; a mode whose normalized
    occupation is at most the vacuum guard yields None.  The a-mode value
    is exact on the ansatz but the ansatz itself truncates at n_a = 4, so
    it degrades sooner than the b-mode value as g grows.
    """
    amps = s.as_array()
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if norm_sq == 0.0:
        raise ValueError("amplitude state is identically zero")
    psi = np.zeros(_BASIS.dim, dtype=complex)
    psi[_FOCK_INDEX] = amps / math.sqrt(norm_sq)
    rho = DensityMatrix(np.outer(psi, psi.conj()), _BASIS)
    stats = population_statistics(rho)
    return stats.g2_aa, stats.g2_bb
