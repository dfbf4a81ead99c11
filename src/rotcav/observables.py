"""Equal-time photon statistics of a two-mode state.

Second-order correlations at zero delay,

    g2_aa(0) = Tr{a^dag^2 a^2 rho} / Tr{a^dag a rho}^2,

and likewise for mode b, plus mean occupations and the joint Fock
population map.  g2 of an (almost) empty mode is a 0/0; rather than
letting NaN propagate, the guard raises :class:`VacuumModeError` so
sweep drivers can mark the grid point as undefined instead of silently
recording garbage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fock import ModeOperator
from .dynamics import DensityMatrix

VACUUM_OCCUPATION_EPS = 1e-12
IMAG_RESIDUE_TOL = 1e-12


class VacuumModeError(ArithmeticError):
    """g2 requested for a mode with occupation below the 0/0 guard."""


class Mode(enum.Enum):
    A = "a"
    B = "b"


@dataclass(frozen=True)
class PhotonStatistics:
    """Steady-state statistics; g2 fields are None when the mode is empty."""

    g2_aa: float | None
    g2_bb: float | None
    n_a: float
    n_b: float

    @property
    def vacuum_undefined(self) -> bool:
        return self.g2_aa is None or self.g2_bb is None


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(value.real)):
        raise ValueError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def _g2(rho: DensityMatrix, op: ModeOperator, label: str) -> float:
    c = op.matrix
    cd = op.dag()
    occupation = _real(rho.expectation(cd @ c), f"<{label}^dag {label}>")
    if occupation <= VACUUM_OCCUPATION_EPS:
        raise VacuumModeError(
            f"mode {label} occupation {occupation:.3e} below guard; g2 undefined"
        )
    pair = _real(rho.expectation(cd @ cd @ c @ c), f"<{label}^dag^2 {label}^2>")
    return pair / occupation**2


def g2_aa(rho: DensityMatrix, a: ModeOperator) -> float:
    """Zero-delay second-order correlation of the fundamental mode."""
    return _g2(rho, a, "a")


def g2_bb(rho: DensityMatrix, b: ModeOperator) -> float:
    """Zero-delay second-order correlation of the second-harmonic mode."""
    return _g2(rho, b, "b")


def _occupation(value: float) -> float:
    """A mean occupation, 0.0 where roundoff in populations far below the
    solver's population floor leaves it negative (n_b = -2.8e-51 at the
    exceptional point, F = 2e-13, cutoffs (10, 5))."""
    return 0.0 if value < 0 else value


def mean_photon(rho: DensityMatrix, mode: Mode) -> float:
    """Mean occupation Tr{c^dag c rho} of the requested mode; never negative."""
    occ = rho.basis.occ_a if mode is Mode.A else rho.basis.occ_b
    diag = np.real(np.diag(rho.matrix))
    return _occupation(float(np.sum(diag * occ)))


def populations(rho: DensityMatrix) -> dict[tuple[int, int], float]:
    """Joint Fock-state probabilities p(n_a, n_b) from the diagonal."""
    diag = np.real(np.diag(rho.matrix))
    return dict(zip(rho.basis.occupations(), diag.tolist()))


def photon_statistics(
    rho: DensityMatrix, a: ModeOperator, b: ModeOperator
) -> PhotonStatistics:
    """All observables at once, from the operators; vacuum-undefined g2 values
    become None.  :func:`population_statistics` gives the same numbers from
    the populations alone."""
    g2 = {}
    for op, label in ((a, "a"), (b, "b")):
        try:
            g2[label] = _g2(rho, op, label)
        except VacuumModeError:
            g2[label] = None
    return PhotonStatistics(
        g2_aa=g2["a"],
        g2_bb=g2["b"],
        n_a=mean_photon(rho, Mode.A),
        n_b=mean_photon(rho, Mode.B),
    )


def population_statistics(rho: DensityMatrix) -> PhotonStatistics:
    """:func:`photon_statistics` read off the diagonal of rho.

    <c^dag c> = sum_n n p_n and <c^dag^2 c^2> = sum_n n (n - 1) p_n hold
    exactly on the box, with n from FockBasis.occ_a / occ_b, so no
    operator product is formed.  The sums run over the complex diagonal,
    and each takes the same imaginary-residue check and vacuum guard as
    in :func:`photon_statistics`, and a negative occupation reads 0.0.
    """
    diag = rho.matrix.diagonal()
    moments = []
    for label, occ in (("a", rho.basis.occ_a), ("b", rho.basis.occ_b)):
        occupation = _occupation(_real(diag @ occ, f"<{label}^dag {label}>"))
        g2 = None
        if occupation > VACUUM_OCCUPATION_EPS:
            pair = _real(diag @ (occ * (occ - 1)), f"<{label}^dag^2 {label}^2>")
            g2 = pair / occupation**2
        moments.append((g2, occupation))
    (g2_a, n_a), (g2_b, n_b) = moments
    return PhotonStatistics(g2_aa=g2_a, g2_bb=g2_b, n_a=n_a, n_b=n_b)
