import dataclasses
import math

import numpy as np
import pytest

from rotcav import (
    DriveDirection,
    FizeauParams,
    SystemParams,
    build_basis,
    build_h_eff,
    build_h_lab,
    drive_strength_from_power,
    eigenlevels,
    fizeau_shift,
    resonance_angular_condition,
)
from rotcav.fock import annihilator_a, annihilator_b
from rotcav.hamiltonian import SPEED_OF_LIGHT, h_eff_builder

# Hand-evaluated oracle values (30-digit arithmetic on the defining
# formulas), frozen here.
FIZEAU_REFERENCE = 126_796_672.504_760_17  # rad/s for the default geometry
DRIVE_REFERENCE = 313_135.578_529_0166  # rad/s for 2pi MHz, 1 fW, 1550 nm
EIG_PAIR = (192.928_932_188_134_52, 207.071_067_811_865_48)  # 200 -/+ sqrt(2)*5


# ---------------------------------------------------------------- Fizeau


def test_fizeau_zero_rotation():
    fp = FizeauParams(omega_rot=0.0)
    assert fizeau_shift(fp, DriveDirection.LEFT) == 0.0


def test_fizeau_sign_symmetry():
    fp = FizeauParams()
    assert fizeau_shift(fp, DriveDirection.LEFT) == -fizeau_shift(
        fp, DriveDirection.RIGHT
    )


def test_fizeau_reference_value():
    fp = FizeauParams()  # n=1.4, r=1.1 mm, Omega=2pi*6.6 kHz, 1550 nm, no dispersion
    shift = fizeau_shift(fp, DriveDirection.LEFT)
    assert shift == pytest.approx(FIZEAU_REFERENCE, rel=1e-12)
    assert shift == pytest.approx(1.27e8, rel=0.01)


def test_fizeau_dispersion_term():
    # the dispersion correction enters as -(lambda/n) dn/dlambda
    base = FizeauParams()
    disp = FizeauParams(dn_dlambda=1e4)
    drag_base = 1 - 1 / base.n**2
    drag_disp = drag_base - base.wavelength / base.n * 1e4
    ratio = fizeau_shift(disp, DriveDirection.LEFT) / fizeau_shift(
        base, DriveDirection.LEFT
    )
    assert ratio == pytest.approx(drag_disp / drag_base, rel=1e-12)


def test_fizeau_omega1_defaults_to_the_wavelength():
    for wavelength in (1550e-9, 1064e-9):
        fp = FizeauParams(wavelength=wavelength)
        assert fp.omega1 == 2 * math.pi * SPEED_OF_LIGHT / wavelength
    assert FizeauParams(wavelength=1064e-9, omega1=3.0).omega1 == 3.0


def test_fizeau_params_validation():
    with pytest.raises(ValueError):
        FizeauParams(n=0.9)
    with pytest.raises(ValueError):
        FizeauParams(r=-1.0)


# ---------------------------------------------------------- drive strength


def test_drive_strength_zero_power():
    assert drive_strength_from_power(1e6, 0.0, 1e15) == 0.0


def test_drive_strength_sqrt_law():
    f1 = drive_strength_from_power(1e6, 1e-15, 1e15)
    f2 = drive_strength_from_power(1e6, 4e-15, 1e15)
    assert f2 == pytest.approx(2 * f1, rel=1e-12)


def test_drive_strength_reference_value():
    kappa1 = 2 * np.pi * 1e6
    omega_l = 2 * np.pi * 299_792_458.0 / 1550e-9
    f = drive_strength_from_power(kappa1, 1e-15, omega_l)
    assert f == pytest.approx(DRIVE_REFERENCE, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["kappa1", "power", "omega_l"])
def test_drive_strength_rejects_non_finite_inputs(name, bad):
    args = {"kappa1": 1e6, "power": 1e-15, "omega_l": 1e15} | {name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        drive_strength_from_power(**args)


def test_drive_strength_rejects_bad_inputs():
    with pytest.raises(ValueError):
        drive_strength_from_power(0.0, 1e-15, 1e15)
    with pytest.raises(ValueError):
        drive_strength_from_power(1e6, -1.0, 1e15)
    with pytest.raises(ValueError):
        drive_strength_from_power(1e6, 1e-15, 0.0)


# ------------------------------------------------------------ Hamiltonians


def test_h_eff_diagonal_when_uncoupled():
    basis = build_basis(4, 2)
    p = SystemParams(delta=0.7, delta_f=0.3)
    h = build_h_eff(p, basis)
    expected = np.diag(
        [(0.7 + 0.3) * (n_a + 2 * n_b) for n_a, n_b in basis.occupations()]
    )
    np.testing.assert_allclose(h, expected, atol=1e-14)


def test_h_eff_three_wave_element():
    basis = build_basis(4, 2)
    p = SystemParams(g=1.3, drive_strength=0.0)
    h = build_h_eff(p, basis)
    assert h[basis.index(0, 1), basis.index(2, 0)] == pytest.approx(
        np.sqrt(2) * 1.3, rel=1e-14
    )


def test_h_eff_exactly_hermitian():
    rng = np.random.default_rng(7)
    basis = build_basis(5, 3)
    for _ in range(10):
        p = SystemParams(
            delta=rng.uniform(-5, 5),
            g=rng.uniform(0, 5),
            kappa2=rng.uniform(0.5, 2),
            drive_strength=rng.uniform(0, 0.2),
            delta_f=rng.uniform(0, 2),
        )
        h = build_h_eff(p, basis)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_h_eff_builder_has_the_bits_of_the_operator_expression():
    # The builder forms its operator products once per basis; every point's
    # H keeps the bits of the expression evaluated from the annihilators.
    for cutoffs in ((1, 1), (6, 3), (10, 5)):
        basis = build_basis(*cutoffs)
        a, b = annihilator_a(basis).matrix, annihilator_b(basis).matrix
        ad = a.conj().T
        h_of = h_eff_builder(basis)
        rng = np.random.default_rng(sum(cutoffs))
        for _ in range(5):
            p = SystemParams(
                delta=rng.uniform(-6, 6),
                g=rng.uniform(0, 10),
                drive_strength=rng.uniform(0, 3),
                delta_f=rng.uniform(-1, 1),
            )
            detuning = p.delta + p.delta_f
            expected = detuning * (ad @ a) + 2.0 * detuning * (b.conj().T @ b)
            half = b @ ad @ ad
            expected += p.g * (half + half.conj().T)
            expected += p.drive_strength * (a + ad)
            assert np.array_equal(h_of(p), expected)
            assert np.array_equal(build_h_eff(p, basis), expected)


def test_h_eff_depends_only_on_detuning_sum():
    basis = build_basis(4, 2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        delta, delta_f, s = rng.uniform(-2, 2, size=3)
        h1 = build_h_eff(SystemParams(delta=delta, delta_f=abs(delta_f)), basis)
        h2 = build_h_eff(
            SystemParams(delta=delta + s, delta_f=abs(delta_f) - s), basis
        )
        np.testing.assert_allclose(h1, h2, atol=1e-12)


def test_h_lab_uncoupled_spectrum():
    basis = build_basis(3, 2)
    p = SystemParams(g=0.0, delta_f=0.4)
    h = build_h_lab(50.0, p, basis)
    expected = sorted(
        (50.0 + 0.4) * n_a + 2 * (50.0 + 0.4) * n_b
        for n_a, n_b in basis.occupations()
    )
    np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, rtol=1e-13)


def test_h_lab_vacuum_energy_is_zero():
    basis = build_basis(4, 2)
    h = build_h_lab(100.0, SystemParams(g=5.0), basis)
    assert h[0, 0] == 0.0
    assert np.max(np.abs(h - h.conj().T)) == 0.0


# ------------------------------------------------------------- eigenlevels


def test_two_excitation_pair():
    basis = build_basis(4, 2)
    h = build_h_lab(100.0, SystemParams(g=5.0), basis)
    levels = eigenlevels(h, 4)
    np.testing.assert_allclose(levels.energies[2:], EIG_PAIR, rtol=1e-12)


def test_two_excitation_eigenvectors():
    basis = build_basis(4, 2)
    h = build_h_lab(100.0, SystemParams(g=5.0), basis)
    levels = eigenlevels(h, 4)
    minus = (basis.state_vector(0, 1) - basis.state_vector(2, 0)) / np.sqrt(2)
    plus = (basis.state_vector(0, 1) + basis.state_vector(2, 0)) / np.sqrt(2)
    assert abs(np.vdot(minus, levels.states[:, 2])) > 1 - 1e-10
    assert abs(np.vdot(plus, levels.states[:, 3])) > 1 - 1e-10


def test_degenerate_pair_without_coupling():
    basis = build_basis(4, 2)
    h = build_h_lab(100.0, SystemParams(g=0.0), basis)
    levels = eigenlevels(h, 4)
    np.testing.assert_allclose(levels.energies[2:], [200.0, 200.0], rtol=1e-13)


def test_single_excitation_level():
    basis = build_basis(4, 2)
    h = build_h_lab(100.0, SystemParams(g=5.0, delta_f=0.25), basis)
    levels = eigenlevels(h, 2)
    assert levels.energies[1] == pytest.approx(100.25, rel=1e-13)


def test_four_lowest_levels_without_rotation():
    omega1, g = 100.0, 5.0
    basis = build_basis(4, 2)
    levels = eigenlevels(build_h_lab(omega1, SystemParams(g=g), basis), 4)
    expected = [0.0, omega1, 2 * omega1 - np.sqrt(2) * g, 2 * omega1 + np.sqrt(2) * g]
    np.testing.assert_allclose(levels.energies, expected, rtol=1e-10)


def test_h_eff_undriven_spectrum_structure():
    # with F=0 the spectrum contains 0, (delta+delta_f), 2(delta+delta_f) +/- sqrt(2) g
    basis = build_basis(5, 3)
    dp, g = 3.0, 1.0
    h = build_h_eff(SystemParams(delta=dp, g=g), basis)
    eigs = np.linalg.eigvalsh(h)
    for target in (0.0, dp, 2 * dp - np.sqrt(2) * g, 2 * dp + np.sqrt(2) * g):
        assert np.min(np.abs(eigs - target)) < 1e-10


@pytest.mark.parametrize("omega1", [math.nan, math.inf, -math.inf])
def test_lab_hamiltonian_rejects_non_finite_frequency(omega1):
    with pytest.raises(ValueError, match="omega1 must be finite"):
        build_h_lab(omega1, SystemParams(g=5.0), build_basis(2, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigenlevels_rejects_non_finite_entries(bad):
    # NaN makes max |H - H^dag| NaN, which passes a "> tol" check.
    h = np.eye(3, dtype=complex)
    h[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eigenlevels(h, 2)


def test_eigenlevels_rejects_non_hermitian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        eigenlevels(h, 1)


def test_eigenlevels_rejects_bad_k():
    h = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        eigenlevels(h, 4)
    with pytest.raises(ValueError):
        eigenlevels(h, 0)


def test_eigenlevel_orthonormality():
    basis = build_basis(4, 2)
    h = build_h_lab(100.0, SystemParams(g=5.0), basis)
    levels = eigenlevels(h, basis.dim)
    gram = levels.states.conj().T @ levels.states
    np.testing.assert_allclose(gram, np.eye(basis.dim), atol=1e-12)


# -------------------------------------------------- resonance condition


@pytest.mark.parametrize(
    "g,expected",
    [
        (5.0, 1.767_766_952_966_368_8),
        (0.0, 0.0),
        (0.867, 0.306_530_789_644_368_35),
    ],
)
def test_resonance_angular_condition(g, expected):
    assert resonance_angular_condition(g) == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------- parameters


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(kappa1=0.0)
    with pytest.raises(ValueError):
        SystemParams(kappa2=-1.0)
    with pytest.raises(ValueError):
        SystemParams(drive_strength=-0.1)
    with pytest.raises(ValueError):
        SystemParams(g=-2.0)


@pytest.mark.parametrize(
    "name", ["delta", "g", "kappa1", "kappa2", "drive_strength", "delta_f"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_system_params_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SystemParams(**{name: value})


@pytest.mark.parametrize("value", [True, np.bool_(False), "1", None, 1j])
def test_system_params_reject_non_numbers_by_name(value):
    with pytest.raises(ValueError, match=f"g must be a number, got {value!r}"):
        SystemParams(g=value)


def test_system_params_store_python_floats():
    # float32 fields summed as float32 give 0.4 here, not the float64 sum.
    p = SystemParams(delta=np.float32(0.3), g=np.int64(2), drive_strength=1, delta_f=np.float32(0.1))
    assert all(type(value) is float for value in dataclasses.astuple(p))
    assert p.g == 2.0 and p.drive_strength == 1.0
    assert p.delta + p.delta_f == 0.30000001192092896 + 0.10000000149011612


@pytest.mark.parametrize(
    "name", ["n", "r", "omega_rot", "wavelength", "dn_dlambda", "omega1"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_fizeau_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FizeauParams(**{name: value})


