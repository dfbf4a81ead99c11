"""Equal-time photon statistics of a two-mode state.

Second-order correlations at zero delay,

    g2_aa(0) = Tr{a^dag^2 a^2 rho} / Tr{a^dag a rho}^2,

and likewise for mode b, plus mean occupations, all read off the
populations.  g2 of an (almost) empty mode is a 0/0; rather than letting
NaN propagate, the guard reports it as None, so sweep drivers can mark
the grid point as undefined instead of silently recording garbage.  The
same numbers formed from the operators, whose guard raises
:class:`VacuumModeError`, are the cross-check in :mod:`rotcav.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynamics import DensityMatrix, SolveRecord

VACUUM_OCCUPATION_EPS = 1e-12
IMAG_RESIDUE_TOL = 1e-12


class VacuumModeError(ArithmeticError):
    """g2 requested for a mode with occupation below the 0/0 guard."""


@dataclass(frozen=True)
class PhotonStatistics:
    """Steady-state statistics, g2 None for an empty mode; solve is the jump map's record."""

    g2_aa: float | None
    g2_bb: float | None
    n_a: float
    n_b: float
    solve: SolveRecord | None = field(default=None, compare=False, repr=False)

    @property
    def vacuum_undefined(self) -> bool:
        return self.g2_aa is None or self.g2_bb is None


def _real(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(value.real)):
        raise ValueError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def _occupation(value: float) -> float:
    """A mean occupation or pair moment, 0.0 where roundoff in populations
    far below the solver's population floor leaves it negative (n_b -2.8e-51
    at F = 2e-13, PR 17; g2_aa -3.2e-189 at g = 1e100, PR 34)."""
    return 0.0 if value < 0 else value


def population_statistics(rho: DensityMatrix) -> PhotonStatistics:
    """:func:`rotcav.oracle.photon_statistics` read off the diagonal of rho.

    <c^dag c> = sum_n n p_n and <c^dag^2 c^2> = sum_n n (n - 1) p_n hold
    exactly on the box, with n from FockBasis.occ_a / occ_b, so no
    operator product is formed.  The sums run over the complex diagonal,
    and each takes the same imaginary-residue check and vacuum guard as
    in the oracle's, and a negative occupation or pair moment reads 0.0.
    """
    diag = rho.matrix.diagonal()
    moments = []
    for label, occ in (("a", rho.basis.occ_a), ("b", rho.basis.occ_b)):
        occupation = _occupation(_real(diag @ occ, f"<{label}^dag {label}>"))
        g2 = None
        if occupation > VACUUM_OCCUPATION_EPS:
            pair = _occupation(_real(diag @ (occ * (occ - 1)), f"<{label}^dag^2 {label}^2>"))
            g2 = pair / occupation**2
        moments.append((g2, occupation))
    (g2_a, n_a), (g2_b, n_b) = moments
    return PhotonStatistics(g2_aa=g2_a, g2_bb=g2_b, n_a=n_a, n_b=n_b, solve=rho.solve)
