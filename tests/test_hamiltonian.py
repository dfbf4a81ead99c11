import dataclasses
import math
import re

import numpy as np
import pytest

from rotcav import (
    FizeauParams,
    SystemParams,
    build_basis,
    build_h_eff,
    build_h_lab,
    eigenlevels,
    fizeau_shift,
    resonance_angular_condition,
)
from rotcav.cli import main
from rotcav.fock import annihilator_a, annihilator_b
from rotcav.hamiltonian import SPEED_OF_LIGHT, h_eff_builder, optimal_g

# Hand-evaluated oracle values (30-digit arithmetic on the defining
# formulas), frozen here.
FIZEAU_REFERENCE = 126_796_672.504_760_17  # rad/s for the default geometry
EIG_PAIR = (192.928_932_188_134_52, 207.071_067_811_865_48)  # 200 -/+ sqrt(2)*5
# Values that are not finite: NaN, the infinities, and integers beyond the float range.
NOT_FINITE = [
    float("nan"),
    float("inf"),
    float("-inf"),
    pytest.param(10**400, id="int-beyond-float"),
    pytest.param(-(10**400), id="-int-beyond-float"),
]


# ---------------------------------------------------------------- Fizeau


def test_fizeau_zero_rotation():
    fp = FizeauParams(omega_rot=0.0)
    assert fizeau_shift(fp) == 0.0


def test_fizeau_sign_symmetry(capsys):
    # The port is the sign: the right port's shift is the left port's negative.
    shifts = []
    for direction in ("left", "right"):
        assert main(["fizeau", "--direction", direction]) == 0
        shifts.append(float(capsys.readouterr().out.split(" = ")[1]))
    assert shifts[0] == -shifts[1] == float(f"{fizeau_shift(FizeauParams()):.12g}")


def test_fizeau_reference_value():
    fp = FizeauParams()  # n=1.4, r=1.1 mm, Omega=2pi*6.6 kHz, 1550 nm, no dispersion
    shift = fizeau_shift(fp)
    assert shift == pytest.approx(FIZEAU_REFERENCE, rel=1e-12)
    assert shift == pytest.approx(1.27e8, rel=0.01)


def test_fizeau_dispersion_term():
    # the dispersion correction enters as -(lambda/n) dn/dlambda
    base = FizeauParams()
    disp = FizeauParams(dn_dlambda=1e4)
    drag_base = 1 - 1 / base.n**2
    drag_disp = drag_base - base.wavelength / base.n * 1e4
    ratio = fizeau_shift(disp) / fizeau_shift(base)
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


# ------------------------------------------------------------ Hamiltonians


def test_h_eff_diagonal_when_uncoupled():
    basis = build_basis(4, 2)
    p = SystemParams(delta=0.7, delta_f=0.3)
    h = build_h_eff(p, basis)
    expected = np.diag(
        [
            (0.7 + 0.3) * (n_a + 2 * n_b)
            for n_a, n_b in zip(basis.occ_a.tolist(), basis.occ_b.tolist())
        ]
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
        for n_a, n_b in zip(basis.occ_a.tolist(), basis.occ_b.tolist())
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
    fock = np.eye(basis.dim)
    minus = (fock[basis.index(0, 1)] - fock[basis.index(2, 0)]) / np.sqrt(2)
    plus = (fock[basis.index(0, 1)] + fock[basis.index(2, 0)]) / np.sqrt(2)
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


@pytest.mark.parametrize(
    "p, omega1",
    [
        (SystemParams(delta=1e308, delta_f=1e308, drive_strength=0.05), None),  # the sum overflows
        (SystemParams(delta=1e308, drive_strength=0.05), None),  # 2 delta b^dag b overflows
        (SystemParams(g=1e308, drive_strength=0.05), None),  # g sqrt(2) overflows
        (SystemParams(drive_strength=1e308), None),  # F sqrt(6) at (6, 3)
        (SystemParams(delta_f=1e308), 1e308),
    ],
    ids=["delta-sum", "delta", "g", "drive", "lab"],
)
def test_hamiltonian_that_overflows_is_an_input_error(p, omega1):
    # Finite parameters whose H overflows: an error that names them, not a
    # NaN from inf * 0 (a RuntimeWarning, an error in this suite) for the
    # solver to report as a failure.
    basis = build_basis(6, 3)
    with pytest.raises(ValueError, match="detuning .*, g .*, drive "):
        if omega1 is None:
            build_h_eff(p, basis)
        else:
            build_h_lab(omega1, p, basis)
    if omega1 is None:
        with pytest.raises(ValueError, match="overflows"):
            h_eff_builder(basis)(p)


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
@pytest.mark.parametrize("value", NOT_FINITE)
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
@pytest.mark.parametrize("value", NOT_FINITE)
def test_fizeau_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FizeauParams(**{name: value})


@pytest.mark.parametrize("value", [True, np.bool_(False), "2", None, 1j])
@pytest.mark.parametrize("name", ["n", "r", "wavelength"])
def test_fizeau_params_reject_non_numbers_by_name(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a number, got {value!r}"):
        FizeauParams(**{name: value})


def test_fizeau_params_store_python_floats():
    fp = FizeauParams(n=np.float64(1.5), r=np.float32(1e-3), omega_rot=np.int64(100), dn_dlambda=0)
    assert all(type(value) is float for value in dataclasses.astuple(fp))
    assert fp.r == float(np.float32(1e-3)) and fp.omega_rot == 100.0
    assert fp.omega1 == 2 * math.pi * SPEED_OF_LIGHT / fp.wavelength


# Finite inputs whose closed form overflows in an intermediate product but
# not in its result: the closed form's value, not an error.
@pytest.mark.parametrize(
    "args, expected",
    [
        ((1.0, 1e200, 0.05), 3.535533905932737e199),
        ((1e200, 1.0, 0.05), 5e199),
        ((1.0, 1.0, 1e155), 7.071067811865475e154),  # f**2 itself overflows
        ((1.0, 1.0, 1e154), 7.0710678118654755e153),  # 4 f^2 overflows
    ],
    ids=["kappa2", "kappa1", "f-squared", "four-f-squared"],
)
def test_optimal_g_near_the_float_limit(args, expected):
    assert optimal_g(*args) == pytest.approx(expected, rel=1e-15)


def test_optimal_g_that_overflows_is_an_input_error():
    # A g beyond the float range: an error that names the inputs, not an inf.
    named = "kappa1 1.7e+308, kappa2 1.7e+308, f 1.7e+308"
    with pytest.raises(ValueError, match=f"optimal g at {re.escape(named)} must be finite, got inf"):
        optimal_g(1.7e308, 1.7e308, 1.7e308)


def test_fizeau_shift_whose_product_overflows():
    # n r Omega omega1 overflows before the division by c; the shift does not.
    fp = FizeauParams(omega1=1e308)
    drag = 1.0 - 1.0 / fp.n**2
    assert fizeau_shift(fp) == pytest.approx(fp.n * fp.r * fp.omega_rot / SPEED_OF_LIGHT * drag * 1e308, rel=1e-15)
    assert fizeau_shift(fp) == pytest.approx(1.04337153321e301, rel=1e-11)


@pytest.mark.parametrize(
    "geometry",
    [
        dict(omega1=1e308, r=1e10),
        dict(omega_rot=1e300, r=1e10),
        dict(dn_dlambda=-1e308, wavelength=1e10),  # the drag factor itself overflows
    ],
    ids=["omega1-r", "omega_rot-r", "drag"],
)
def test_fizeau_shift_that_overflows_is_an_input_error(geometry):
    fp = FizeauParams(**geometry)
    with pytest.raises(ValueError, match=r"Fizeau shift of FizeauParams\(.* must be finite"):
        fizeau_shift(fp)
