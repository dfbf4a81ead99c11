import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import make_ops, solve_point
from rotcav import (
    AmplitudeModelOptions,
    AmplitudeState,
    SystemParams,
    amplitude_system,
    g2_from_amplitudes,
    optimal_g,
    steady_amplitudes,
)
from rotcav.amplitudes import ANSATZ_STATES
from rotcav.oracle import g2_bb

KEEP = AmplitudeModelOptions(keep_subleading=True)
DROP = AmplitudeModelOptions(keep_subleading=False)

IDX = {state: i for i, state in enumerate(ANSATZ_STATES)}


def _params(g, f=0.05, kappa2=1.0, delta=0.0, delta_f=0.0):
    return SystemParams(
        delta=delta, g=g, kappa2=kappa2, drive_strength=f, delta_f=delta_f
    )


# --------------------------------------------------------------- structure


def test_no_drive_gives_trivial_solution():
    state = steady_amplitudes(_params(g=1.0, f=0.0))
    amps = state.as_array()
    assert amps[0] == 1.0
    np.testing.assert_array_equal(amps[1:], 0)


def test_c02_row_structure():
    # the two-photon second-harmonic amplitude couples only to c21 and decay
    p = _params(g=1.3, kappa2=1.7)
    mat, rhs = amplitude_system(p, DROP)
    row = mat[IDX[(0, 2)]]
    expected = np.zeros(len(ANSATZ_STATES), dtype=complex)
    expected[IDX[(2, 1)]] = 2 * 1.3
    expected[IDX[(0, 2)]] = -1j * 1.7
    np.testing.assert_allclose(row, expected, atol=1e-14)
    assert rhs[IDX[(0, 2)]] == 0.0


def test_normalization_row():
    mat, rhs = amplitude_system(_params(g=1.0))
    expected = np.zeros(len(ANSATZ_STATES), dtype=complex)
    expected[0] = 1.0
    np.testing.assert_array_equal(mat[0], expected)
    assert rhs[0] == 1.0 and np.all(rhs[1:] == 0)


def test_subleading_terms_toggle():
    p = _params(g=1.0, f=0.07)
    dropped, _ = amplitude_system(p, DROP)
    kept, _ = amplitude_system(p, KEEP)
    row10 = IDX[(1, 0)]
    # without subleading couplings the c10 row holds only the c00 drive
    # term and its own decay
    assert dropped[row10, IDX[(2, 0)]] == 0.0
    nonzero = np.flatnonzero(dropped[row10])
    assert set(nonzero) == {IDX[(0, 0)], row10}
    # kept: the sqrt(2) F coupling to c20 reappears
    assert kept[row10, IDX[(2, 0)]] == pytest.approx(np.sqrt(2) * 0.07, rel=1e-14)
    diff = np.flatnonzero(np.abs(kept - dropped))
    assert len(diff) == 4  # exactly the four underlined couplings


def test_detuning_enters_diagonal():
    p = _params(g=1.0, delta=0.4, delta_f=0.1)
    mat, _ = amplitude_system(p, DROP)
    for (ja, jb), i in IDX.items():
        if i == 0:
            continue
        expected = 0.5 * (ja + 2 * jb) - 0.5j * (ja * 1.0 + jb * 1.0)
        assert mat[i, i] == pytest.approx(expected, rel=1e-14)


# amplitude_system at delta = 0.4, delta_f = 0.1, g = 1.3, kappa2 = 1.7,
# F = 0.07 (keep_subleading=True; the default drops _SUBLEADING) and
# g2_from_amplitudes of the steady amplitudes under each option, frozen
# from the hand-written coupling table that preceded the Fock-space
# restriction.
FROZEN_POINT = dict(delta=0.4, delta_f=0.1, g=1.3, kappa2=1.7, f=0.07)
FROZEN_ENTRIES = {
    (0, 0): 1 + 0j,
    (1, 0): 0.07 + 0j,
    (1, 1): 0.5 - 0.5j,
    (1, 2): 0.09899494936611666 + 0j,
    (2, 1): 0.09899494936611666 + 0j,
    (2, 2): 1 - 1j,
    (2, 3): 0.12124355652982141 + 0j,
    (2, 5): 1.8384776310850237 + 0j,
    (3, 2): 0.12124355652982141 + 0j,
    (3, 3): 1.5 - 1.5j,
    (3, 4): 0.14 + 0j,
    (3, 6): 3.1843366656181313 + 0j,
    (4, 3): 0.14 + 0j,
    (4, 4): 2 - 2j,
    (4, 7): 4.50333209967908 + 0j,
    (5, 2): 1.8384776310850237 + 0j,
    (5, 5): 1 - 0.85j,
    (5, 6): 0.07 + 0j,
    (6, 3): 3.1843366656181313 + 0j,
    (6, 5): 0.07 + 0j,
    (6, 6): 1.5 - 1.35j,
    (6, 7): 0.09899494936611666 + 0j,
    (7, 4): 4.50333209967908 + 0j,
    (7, 6): 0.09899494936611666 + 0j,
    (7, 7): 2 - 1.85j,
    (7, 8): 2.6000000000000005 + 0j,
    (8, 7): 2.6000000000000005 + 0j,
    (8, 8): 2 - 1.7j,
}
FROZEN_SUBLEADING = {(1, 2), (2, 3), (3, 4), (6, 7)}
FROZEN_G2 = {
    True: (0.25378124523072026, 0.0719393415218805),
    False: (0.2515510284871525, 0.07129392638633257),
}


@pytest.mark.parametrize("keep", [True, False])
def test_amplitude_model_matches_frozen_table(keep):
    p = _params(**FROZEN_POINT)
    opts = AmplitudeModelOptions(keep_subleading=keep)
    expected = np.zeros((len(ANSATZ_STATES),) * 2, dtype=complex)
    for (i, j), value in FROZEN_ENTRIES.items():
        if keep or (i, j) not in FROZEN_SUBLEADING:
            expected[i, j] = value
    mat, _ = amplitude_system(p, opts)
    np.testing.assert_array_equal(mat != 0, expected != 0)
    np.testing.assert_allclose(mat, expected, rtol=1e-14, atol=0)
    val_aa, val_bb = g2_from_amplitudes(steady_amplitudes(p, opts))
    assert val_aa == pytest.approx(FROZEN_G2[keep][0], rel=1e-12, abs=0)
    assert val_bb == pytest.approx(FROZEN_G2[keep][1], rel=1e-12, abs=0)


def test_singular_system_rejected(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(np.linalg, "solve", boom)
    with pytest.raises(ValueError, match="singular"):
        steady_amplitudes(_params(g=1.0))


# ---------------------------------------------------------------- optimum


@pytest.mark.parametrize(
    "kappa1,kappa2,f,expected",
    [
        (1.0, 1.0, 0.05, 0.866_746_791_167_985_8),
        (1.0, 1.0, 0.0, 0.866_025_403_784_438_6),  # sqrt(3)/2 in the F->0 limit
        (1.0, 2.0, 0.05, 1.225_255_075_484_284_6),
    ],
)
def test_optimal_g_values(kappa1, kappa2, f, expected):
    assert optimal_g(kappa1, kappa2, f) == pytest.approx(expected, rel=1e-12)


def test_optimal_g_rejects_bad_rates():
    with pytest.raises(ValueError):
        optimal_g(0.0, 1.0, 0.05)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["kappa1", "kappa2", "f"])
def test_optimal_g_rejects_non_finite_inputs(name, bad):
    args = {"kappa1": 1.0, "kappa2": 1.0, "f": 0.05} | {name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        optimal_g(**args)


def test_two_photon_amplitude_vanishes_at_optimum():
    g_star = optimal_g(1.0, 1.0, 0.05)
    state = steady_amplitudes(_params(g=g_star), DROP)
    assert abs(state.c02) <= 1e-10


def test_zero_crossing_matches_closed_form():
    # locate the |c02| null numerically and compare with the formula;
    # |c02(g)| also decays at large g, so search near the null only
    for kappa2, f in ((1.0, 0.05), (1.7, 0.08), (0.6, 0.02)):
        def c02_mag(g):
            return abs(steady_amplitudes(_params(g=g, f=f, kappa2=kappa2), DROP).c02)

        expected = optimal_g(1.0, kappa2, f)
        result = minimize_scalar(
            c02_mag, bounds=(0.5 * expected, 1.5 * expected), method="bounded",
            options={"xatol": 1e-12},
        )
        assert result.fun < 1e-10
        assert result.x == pytest.approx(expected, rel=1e-8)


def test_subleading_difference_is_small_away_from_null():
    # the dropped couplings shift |c02| at relative O(F^2)
    for g in (0.4, 1.5):
        with_sub = abs(steady_amplitudes(_params(g=g), KEEP).c02)
        without = abs(steady_amplitudes(_params(g=g), DROP).c02)
        assert abs(with_sub - without) / without < 0.01


def test_weak_drive_hierarchy():
    f = 0.05
    state = steady_amplitudes(_params(g=1.0, f=f), KEEP)
    assert abs(state.c00) == 1.0
    assert abs(state.c10) < 10 * f
    assert abs(state.c20) < 10 * f**2
    assert abs(state.c01) < 10 * f**2
    assert abs(state.c30) < 10 * f**3
    assert abs(state.c11) < 10 * f**3
    assert abs(state.c40) < 10 * f**4
    assert abs(state.c21) < 10 * f**4
    assert abs(state.c02) < 10 * f**4


# ------------------------------------------------------------ correlators


def test_g2_single_b_photon():
    state = AmplitudeState(1.0, 0, 0, 0, 0, 0.01, 0, 0, 0)
    val_aa, val_bb = g2_from_amplitudes(state)
    assert val_aa is None  # a mode empty
    assert val_bb == 0.0


def test_g2_pure_two_photon_component():
    z = 1e-3
    state = AmplitudeState(1.0, 0, 0, 0, 0, 0, 0, 0, z)
    _, val_bb = g2_from_amplitudes(state)
    norm_sq = 1 + z**2
    exact = norm_sq / (2 * z**2)  # (1+|z|^2) / (2 |z|^2) on the normalized state
    assert val_bb == pytest.approx(exact, rel=1e-12)
    assert val_bb == pytest.approx(1 / (2 * z**2), rel=1e-5)
    assert val_bb > 1  # super-Poissonian


def test_g2_vanishes_at_optimum():
    g_star = optimal_g(1.0, 1.0, 0.05)
    state = steady_amplitudes(_params(g=g_star), DROP)
    _, val_bb = g2_from_amplitudes(state)
    assert val_bb <= 1e-6


def test_zero_state_rejected():
    with pytest.raises(ValueError):
        g2_from_amplitudes(AmplitudeState(0, 0, 0, 0, 0, 0, 0, 0, 0))


def test_amplitude_g2_matches_master_equation():
    # The pure-state ansatz reproduces the master-equation correlator
    # pointwise except right at the interference null, where the
    # ansatz value goes to zero while the mixed steady state keeps a
    # quantum-jump noise floor (~4e-4 at F = 0.05).  Relative
    # comparison therefore excludes a window around the null; the dip
    # locations themselves must agree to 2%.
    g_null = optimal_g(1.0, 1.0, 0.05)
    gs = np.linspace(0.2, 2.0, 19)
    amp_vals, full_vals = [], []
    for g in gs:
        state = steady_amplitudes(_params(g=g), KEEP)
        _, amp_val = g2_from_amplitudes(state)
        rho, _, b = solve_point(_params(g=g))
        full_val = g2_bb(rho, b)
        amp_vals.append(amp_val)
        full_vals.append(full_val)
        if abs(g - g_null) > 0.25:
            assert abs(amp_val - full_val) / full_val < 0.10, f"at g={g}"

    from rotcav import refine_extremum

    amp_min, _ = refine_extremum(gs, np.array(amp_vals), "min")
    full_min, _ = refine_extremum(gs, np.array(full_vals), "min")
    assert abs(amp_min - full_min) / full_min < 0.02
