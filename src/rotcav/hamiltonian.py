"""Model Hamiltonians of the rotating two-mode chi(2) cavity.

Two circulating cavity modes, a fundamental (a) and its second harmonic
(b) with omega_b = 2 * omega_a, couple through the three-wave term
g (b a^dag^2 + b^dag a^2).  Rotation of the resonator drags the modes
by a direction-dependent Fizeau shift delta_f (and 2*delta_f for the
second harmonic).  In the frame rotating at the pump frequency,

    H_eff = (delta + delta_f) a^dag a + 2 (delta + delta_f) b^dag b
            + g (b a^dag^2 + b^dag a^2) + F (a + a^dag),

with hbar = 1.  All dynamical quantities are expressed in units of the
fundamental loss rate kappa1; the only SI-valued helper is
:func:`fizeau_shift`, which the caller bridges to simulation units via
an explicit kappa1-in-rad/s.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import HERMITICITY_TOL
from .fock import FockBasis, annihilator_a, annihilator_b

SPEED_OF_LIGHT = 299_792_458.0  # m/s


class DriveDirection(enum.Enum):
    """Which port the pump enters; fixes the sign of the Fizeau shift."""

    LEFT = "left"
    RIGHT = "right"


def finite_float(value, name: str) -> float:
    """value as a Python float, or a ValueError that names it: a bool or a
    non-number is not a number, and a NaN, an infinity or an integer beyond
    the float range is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    return number


@dataclass(frozen=True)
class SystemParams:
    """Model parameters in units of kappa1 (hbar = 1).

    delta is the pump detuning omega_a - omega_L, g the mode hopping
    interaction, drive_strength the pump amplitude F, and delta_f the
    signed Fizeau shift of the fundamental mode.  The sign of delta_f is
    the drive port: delta_f >= 0 drives from the left (the pump runs
    against the rotation), delta_f < 0 from the right.  At delta_f = 0
    the two ports are the same physics.  Each field is stored as a Python
    float; a bool or a non-number is rejected.
    """

    delta: float = 0.0
    g: float = 0.0
    kappa1: float = 1.0
    kappa2: float = 1.0
    drive_strength: float = 0.0
    delta_f: float = 0.0

    def __post_init__(self):
        for name, value in list(vars(self).items()):
            object.__setattr__(self, name, finite_float(value, name))
        if self.kappa1 <= 0 or self.kappa2 <= 0:
            raise ValueError("loss rates kappa1, kappa2 must be positive")
        if self.drive_strength < 0:
            raise ValueError("drive_strength must be >= 0")
        if self.g < 0:
            raise ValueError("g must be >= 0")


@dataclass(frozen=True)
class FizeauParams:
    """SI-unit geometry of the spinning resonator.

    Defaults describe a millimetre-scale silica toroid pumped at
    1550 nm; they are placeholders for order-of-magnitude estimates,
    not measured device values.  omega1 defaults to 2 pi c / wavelength.
    Each field is stored as a Python float, as in :class:`SystemParams`.
    """

    n: float = 1.4  # refractive index
    r: float = 1.1e-3  # cavity radius, m
    omega_rot: float = 2 * math.pi * 6.6e3  # angular velocity, rad/s
    wavelength: float = 1550e-9  # pump wavelength, m
    dn_dlambda: float = 0.0  # dispersion dn/dlambda, 1/m
    omega1: float | None = None  # mode frequency, rad/s

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "omega1":  # the last field: from the checked wavelength
                value = 2 * math.pi * SPEED_OF_LIGHT / self.wavelength if self.wavelength > 0 else 0.0
            object.__setattr__(self, f.name, finite_float(value, f.name))
        if self.n <= 1:
            raise ValueError("refractive index must exceed 1")
        if self.r <= 0 or self.wavelength <= 0 or self.omega1 <= 0:
            raise ValueError("r, wavelength, omega1 must be positive")


@dataclass(frozen=True)
class EigenLevels:
    """Lowest eigenvalues (ascending) and eigenvectors (columns)."""

    energies: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.energies.setflags(write=False)
        self.states.setflags(write=False)


def fizeau_shift(fp: FizeauParams, direction: DriveDirection) -> float:
    """Rotation-induced shift of the fundamental mode, in rad/s.

    shift = +/- (n r Omega omega1 / c) (1 - 1/n^2 - (lambda/n) dn/dlambda),
    positive when driving from the left (pump counter-propagating with
    the rotation), negative from the right.  A shift that overflows the
    float range is a ValueError that names the geometry.
    """
    drag = 1.0 - 1.0 / fp.n**2 - (fp.wavelength / fp.n) * fp.dn_dlambda
    magnitude = fp.n * fp.r * fp.omega_rot * fp.omega1 / SPEED_OF_LIGHT * drag
    magnitude = finite_float(magnitude, f"the Fizeau shift of {fp}")
    return magnitude if direction is DriveDirection.LEFT else -magnitude


def _hamiltonian(basis: FockBasis) -> Callable[[float, float, float], np.ndarray]:
    """H(detuning, g, drive) = detuning (a^dag a + 2 b^dag b)
    + g (b a^dag^2 + b^dag a^2) + drive (a + a^dag), with the operator
    products formed once for the basis.  An H with a non-finite entry (a
    detuning, g or drive near the float limit overflows) is a ValueError."""
    a = annihilator_a(basis)
    b = annihilator_b(basis)
    ad = a.dag()
    number_a = ad @ a.matrix
    number_b = b.dag() @ b.matrix
    half = b.matrix @ ad @ ad
    hopping = half + half.conj().T
    quadrature = a.matrix + ad

    def h(detuning: float, g: float, drive: float) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out = detuning * number_a + 2.0 * detuning * number_b
            out += g * hopping
            out += drive * quadrature
        if not np.isfinite(out).all():
            raise ValueError(
                f"Hamiltonian overflows the float range at detuning {detuning}, g {g}, drive {drive}"
            )
        return out

    return h


def h_eff_builder(basis: FockBasis) -> Callable[[SystemParams], np.ndarray]:
    """:func:`build_h_eff` on one basis, for many points: the operator
    products are formed once, and each point's H has the same bits."""
    h = _hamiltonian(basis)
    return lambda p: h(p.delta + p.delta_f, p.g, p.drive_strength)


def build_h_eff(p: SystemParams, basis: FockBasis) -> np.ndarray:
    """Driven Hamiltonian in the frame rotating at the pump frequency.

    Only the sum delta + delta_f enters; the second harmonic carries
    twice that shift because omega_b = 2 omega_a is hard-wired.
    """
    return h_eff_builder(basis)(p)


def build_h_lab(omega1: float, p: SystemParams, basis: FockBasis) -> np.ndarray:
    """Undriven lab-frame Hamiltonian with omega_b = 2 omega_a enforced."""
    return _hamiltonian(basis)(finite_float(omega1, "omega1") + p.delta_f, p.g, 0.0)


def eigenlevels(h: np.ndarray, k: int) -> EigenLevels:
    """k lowest eigenpairs of a Hermitian matrix, ascending.

    Dense Hermitian decomposition; exact to machine precision at the
    dimensions used here.  Rejects matrices with non-finite entries or
    with max |H - H^dag| above 1e-10.
    """
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix has non-finite entries")
    defect = np.max(np.abs(h - h.conj().T))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max |H - H^dag| = {defect:.3e})")
    if not 1 <= k <= h.shape[0]:
        raise ValueError(f"k must be in [1, {h.shape[0]}], got {k}")
    energies, states = np.linalg.eigh(h)
    return EigenLevels(energies[:k].copy(), states[:, :k].copy())


def resonance_angular_condition(g: float) -> float:
    """Fizeau-shift magnitude at which right-side driving hits the
    two-photon resonance: delta_f = (sqrt(2)/4) g."""
    return math.sqrt(2.0) / 4.0 * g


def optimal_g(kappa1: float, kappa2: float, f: float) -> float:
    """Hopping interaction that nulls the two-photon amplitude c02.

    g = sqrt(4 f^2 + (2 kappa1 + kappa2)(kappa1 + kappa2)) / (2 sqrt(2)),
    the c02 = 0 condition of the nine-state weak-drive amplitude model
    with its subleading drive couplings dropped: the tests' reference
    model, in tests/amplitudes.py.  A g that overflows the float range is
    a ValueError that names the inputs.
    """
    kappa1, kappa2, f = map(finite_float, (kappa1, kappa2, f), ("kappa1", "kappa2", "f"))
    if kappa1 <= 0 or kappa2 <= 0:
        raise ValueError("loss rates must be positive")
    try:
        f_squared = f**2
    except OverflowError:  # a float power raises where a product gives inf
        f_squared = math.inf
    g = math.sqrt(4.0 * f_squared + (2.0 * kappa1 + kappa2) * (kappa1 + kappa2)) / (2.0 * math.sqrt(2.0))
    return finite_float(g, f"optimal g at kappa1 {kappa1}, kappa2 {kappa2}, f {f}")
