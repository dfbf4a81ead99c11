import math

import numpy as np
import pytest

from conftest import make_ops, solve_point
from rotcav import DensityMatrix, SystemParams, VacuumModeError, population_statistics, populations
from rotcav.oracle import Mode, g2_aa, g2_bb, mean_photon, photon_statistics


def _fock_projector(basis, n_a, n_b) -> DensityMatrix:
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[basis.index(n_a, n_b), basis.index(n_a, n_b)] = 1.0
    return DensityMatrix(rho, basis)


def _coherent_a(basis, alpha) -> DensityMatrix:
    # truncated coherent state in mode a, vacuum in mode b
    amps = np.zeros(basis.dim, dtype=complex)
    for n_a in range(basis.na_cut + 1):
        amps[basis.index(n_a, 0)] = (
            np.exp(-abs(alpha) ** 2 / 2)
            * alpha**n_a
            / math.sqrt(math.factorial(n_a))
        )
    return DensityMatrix(np.outer(amps, amps.conj()), basis)


# ------------------------------------------------------------------- g2


def test_single_photon_blocks_coincidence():
    basis, a, _ = make_ops(4, 2)
    assert g2_aa(_fock_projector(basis, 1, 0), a) == 0.0


def test_two_photon_fock_value():
    basis, a, _ = make_ops(4, 2)
    assert g2_aa(_fock_projector(basis, 2, 0), a) == pytest.approx(0.5, rel=1e-12)


def test_b_mode_fock_values():
    basis, _, b = make_ops(4, 2)
    assert g2_bb(_fock_projector(basis, 0, 1), b) == 0.0
    assert g2_bb(_fock_projector(basis, 0, 2), b) == pytest.approx(0.5, rel=1e-12)


def test_weak_coherent_state_is_poissonian():
    basis, a, _ = make_ops(6, 3)
    alpha = 0.1  # |alpha|^2 = 0.01
    rho = _coherent_a(basis, alpha)
    value = g2_aa(rho, a)
    # brute-force oracle: direct sum over number populations
    probs = np.real(np.diag(rho.matrix))
    occ = np.array([n_a for n_a, _ in basis.occupations()], dtype=float)
    brute = np.sum(probs * occ * (occ - 1)) / np.sum(probs * occ) ** 2
    assert value == pytest.approx(brute, rel=1e-12)
    assert value == pytest.approx(1.0, rel=0.01)


def test_vacuum_guard_raises():
    basis, a, b = make_ops(4, 2)
    vac = _fock_projector(basis, 0, 0)
    with pytest.raises(VacuumModeError):
        g2_aa(vac, a)
    with pytest.raises(VacuumModeError):
        g2_bb(vac, b)
    # a one-photon a-state still has an empty b mode
    with pytest.raises(VacuumModeError):
        g2_bb(_fock_projector(basis, 1, 0), b)


def test_g2_returns_plain_float():
    basis, a, _ = make_ops(4, 2)
    assert isinstance(g2_aa(_fock_projector(basis, 2, 0), a), float)


def test_imaginary_residue_rejected():
    # a complex population makes the occupation trace complex; the
    # guard must refuse to silently discard the imaginary part
    basis, a, _ = make_ops(2, 1)
    bad = np.zeros((basis.dim, basis.dim), dtype=complex)
    bad[basis.index(1, 0), basis.index(1, 0)] = 1.0 + 0.3j
    bad[basis.index(2, 0), basis.index(2, 0)] = 0.2
    with pytest.raises(ValueError, match="imaginary"):
        g2_aa(DensityMatrix(bad, basis), a)


def test_diagonal_mixture_matches_brute_force():
    rng = np.random.default_rng(23)
    basis, a, b = make_ops(4, 3)
    for _ in range(10):
        probs = rng.random(basis.dim)
        probs /= probs.sum()
        rho = DensityMatrix(np.diag(probs).astype(complex), basis)
        occ = np.array(basis.occupations(), dtype=float)
        for op, col, func in ((a, 0, g2_aa), (b, 1, g2_bb)):
            n = occ[:, col]
            brute = np.sum(probs * n * (n - 1)) / np.sum(probs * n) ** 2
            assert func(rho, op) == pytest.approx(brute, rel=1e-12)


def test_g2_invariant_under_phase_rotation():
    basis, a, b = make_ops(6, 3)
    rho, _, _ = solve_point(SystemParams(g=0.867, drive_strength=0.05))
    occ = np.array(basis.occupations(), dtype=float)
    for theta in (0.3, 1.2, 2.9):
        u = np.exp(1j * theta * (occ[:, 0] + 2 * occ[:, 1]))
        rotated = DensityMatrix((u[:, None] * rho.matrix) * u.conj()[None, :], basis)
        assert g2_aa(rotated, a) == pytest.approx(g2_aa(rho, a), rel=1e-12)
        assert g2_bb(rotated, b) == pytest.approx(g2_bb(rho, b), rel=1e-12)


# ----------------------------------------------------------- occupations


def test_mean_photon_on_fock_states():
    basis, _, _ = make_ops(4, 2)
    vac = _fock_projector(basis, 0, 0)
    assert mean_photon(vac, Mode.A) == 0.0
    assert mean_photon(vac, Mode.B) == 0.0
    state = _fock_projector(basis, 2, 1)
    assert mean_photon(state, Mode.A) == pytest.approx(2.0, rel=1e-14)
    assert mean_photon(state, Mode.B) == pytest.approx(1.0, rel=1e-14)


def test_populations_sum_and_consistency():
    rho, a, _ = solve_point(SystemParams(delta=0.5, g=1.5, drive_strength=0.05))
    pops = populations(rho)
    assert sum(pops.values()) == pytest.approx(1.0, abs=1e-9)
    from_pops = sum(n_a * p for (n_a, _), p in pops.items())
    assert from_pops == pytest.approx(mean_photon(rho, Mode.A), abs=1e-9)


def test_photon_statistics_assembly():
    rho, a, b = solve_point(SystemParams(g=0.867, drive_strength=0.05))
    stats = photon_statistics(rho, a, b)
    assert stats.g2_aa == pytest.approx(g2_aa(rho, a), rel=1e-14)
    assert stats.g2_bb == pytest.approx(g2_bb(rho, b), rel=1e-14)
    assert not stats.vacuum_undefined


def test_photon_statistics_flags_empty_modes():
    basis, a, b = make_ops(4, 2)
    stats = photon_statistics(_fock_projector(basis, 0, 0), a, b)
    assert stats.g2_aa is None and stats.g2_bb is None
    assert stats.vacuum_undefined
    assert stats.n_a == 0.0 and stats.n_b == 0.0


# ------------------------------------------------- statistics from populations


def _random_state(basis, rng, decay: float) -> DensityMatrix:
    """A random positive state whose weight falls by decay per photon."""
    x = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
    x *= decay ** (basis.occ_a + basis.occ_b)[:, None]
    rho = x @ x.conj().T
    return DensityMatrix(rho / np.trace(rho).real, basis)


@pytest.mark.parametrize("cutoffs", [(4, 2), (6, 3), (8, 4)])
def test_population_statistics_match_the_operator_statistics(cutoffs):
    basis, a, b = make_ops(*cutoffs)
    rng = np.random.default_rng(sum(cutoffs))
    for decay in (1.0, 0.1, 1e-3):
        for _ in range(10):
            rho = _random_state(basis, rng, decay)
            got, want = population_statistics(rho), photon_statistics(rho, a, b)
            for name in ("g2_aa", "g2_bb", "n_a", "n_b"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n_b", [0.0, 1e-13, 0.9e-12, 1.1e-12])
def test_population_statistics_keep_the_vacuum_guard(n_b):
    basis, a, b = make_ops(4, 2)
    rho = _fock_projector(basis, 1, 0).matrix * (1.0 - n_b / 2)
    rho[basis.index(0, 2), basis.index(0, 2)] = n_b / 2
    state = DensityMatrix(rho, basis)
    got, want = population_statistics(state), photon_statistics(state, a, b)
    assert got.g2_aa == want.g2_aa == 0.0
    assert got.n_b == pytest.approx(want.n_b, rel=1e-14, abs=0.0)
    if n_b < 1e-12:
        assert got.g2_bb is None and want.g2_bb is None
    else:
        assert got.g2_bb == pytest.approx(want.g2_bb, rel=1e-14)


@pytest.mark.parametrize("mode, n_a, n_b", [("a", 1, 0), ("b", 0, 1)])
def test_population_statistics_reject_an_imaginary_residue(mode, n_a, n_b):
    # The residue sits on a state that only the given mode's sums weigh.
    basis, a, b = make_ops(4, 2)
    rho = _fock_projector(basis, 1, 1).matrix
    rho[basis.index(n_a, n_b), basis.index(n_a, n_b)] = 1e-6j
    state = DensityMatrix(rho, basis)
    message = rf"<{mode}\^dag {mode}> has imaginary residue 1.000e-06"
    for stats in (lambda: population_statistics(state), lambda: photon_statistics(state, a, b)):
        with pytest.raises(ValueError, match=message):
            stats()


@pytest.mark.parametrize("n_a, n_b", [(1, 0), (0, 1)], ids=["mode-a", "mode-b"])
def test_roundoff_negative_occupation_reads_zero(n_a, n_b):
    # A certified state whose only weight above the vacuum is a -1e-51
    # population, roundoff far below the solver's population floor.
    basis, a, b = make_ops(4, 2)
    rho = _fock_projector(basis, 0, 0).matrix
    rho[basis.index(n_a, n_b), basis.index(n_a, n_b)] = -1e-51
    state = DensityMatrix(rho, basis)
    state.validate()
    assert mean_photon(state, Mode.A if n_a else Mode.B) == 0.0
    for stats in (population_statistics(state), photon_statistics(state, a, b)):
        assert (stats.n_a, stats.n_b) == (0.0, 0.0)
        assert stats.g2_aa is None and stats.g2_bb is None
