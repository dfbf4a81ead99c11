"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Each criterion is asserted at its stated tolerance.  Two checks state
their claim in the form the documented model promises:

* criterion 7 is the paper's claim at the blockade point
  Delta = -Delta_F: there the fundamental mode reverses across the ports
  (left g2_aa < 1, right g2_aa > 1) while the second harmonic does not
  (g2_bb < 1 from both ports, and a local maximum of neither port's
  +/- 1 kappa1 sweep).  Each value is compared with 1, never one port
  with the other.  Only Delta + Delta_F enters H, so each g2_bb curve is
  even in Delta + Delta_F, with reciprocal maxima ~2.70 at
  +/- 1.11 kappa1; the right-drive sweep reaches one at Delta ~ -0.81.
  Those maxima are not the blockade point and the paper claims nothing
  of them.
* criterion 9: the nine-state amplitude model is the F -> 0 limit of
  the master equation, whose mixed steady state adds c(g) F^2 to g2_bb
  (~0.16 F^2 at the interference null).  Where g2_bb is itself O(F^2)
  a relative match is meaningless, so the check asserts the F^2
  scaling: the gap coefficient (full - amplitude) / F^2 agrees between
  F and F/2 at every grid point, next to the exact |c02| null at the
  closed-form optimum.
"""

import numpy as np
import pytest

from conftest import liouvillian as _liouvillian, make_ops, solve_point, vacuum as _vacuum
from rotcav import (
    AmplitudeModelOptions,
    SystemParams,
    build_basis,
    build_h_lab,
    eigenlevels,
    figure_preset,
    g2_from_amplitudes,
    optimal_g,
    refine_extremum,
    resonance_angular_condition,
    run_point,
    run_sweep,
    steady_amplitudes,
)
from rotcav.oracle import evolve, steady_state, vectorize

WEAK_DRIVE = 0.05


def _report(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {status}: {description}{suffix}")
    assert passed, f"criterion {num}: {description}{suffix}"


def test_01_closed_form_optimum():
    value = optimal_g(1.0, 1.0, 0.05)
    _report(
        1,
        "closed-form optimal hopping equals 0.86675 within 1e-4",
        abs(value - 0.86675) <= 1e-4,
        f"value={value:.6f}",
    )


def test_02_interference_dip_location():
    # full master-equation sweep of the second-harmonic correlation
    result = run_sweep(figure_preset("fig5"))
    xs = np.array([row.axis_values[0] for row in result.rows])
    ys = np.array([row.outputs["g2_bb"] for row in result.rows])
    refined, _ = refine_extremum(xs, ys, "min")
    predicted = optimal_g(1.0, 1.0, WEAK_DRIVE)
    rel = abs(refined - predicted) / predicted
    _report(
        2,
        "refined dip of g2_bb over hopping lies within 5% of the closed form",
        rel <= 0.05,
        f"argmin={refined:.4f}, predicted={predicted:.4f}, rel={rel:.2%}",
    )


def test_03_two_excitation_eigenstructure():
    omega1, g = 100.0, 5.0
    basis = build_basis(6, 3)
    levels = eigenlevels(build_h_lab(omega1, SystemParams(g=g), basis), 4)
    expected = np.array(
        [2 * omega1 - np.sqrt(2) * g, 2 * omega1 + np.sqrt(2) * g]
    )
    rel_err = np.max(np.abs(levels.energies[2:] - expected) / expected)
    minus = (basis.state_vector(0, 1) - basis.state_vector(2, 0)) / np.sqrt(2)
    plus = (basis.state_vector(0, 1) + basis.state_vector(2, 0)) / np.sqrt(2)
    overlap_minus = abs(np.vdot(minus, levels.states[:, 2]))
    overlap_plus = abs(np.vdot(plus, levels.states[:, 3]))
    _report(
        3,
        "two-excitation pair at 2w1 -/+ sqrt(2) g with the mixed eigenvectors",
        rel_err <= 1e-10
        and overlap_minus > 1 - 1e-10
        and overlap_plus > 1 - 1e-10,
        f"rel_err={rel_err:.2e}, overlaps=({overlap_minus:.12f}, {overlap_plus:.12f})",
    )


def test_04_steady_state_sanity_100_draws():
    rng = np.random.default_rng(42)
    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "residual": 0.0}
    for _ in range(100):
        p = SystemParams(
            delta=rng.uniform(-5, 5),
            g=rng.uniform(0, 5),
            kappa2=rng.uniform(0.5, 2),
            drive_strength=rng.uniform(1e-4, 0.1),
        )
        lio = _liouvillian(p)
        rho = steady_state(lio)
        worst["trace"] = max(worst["trace"], abs(rho.trace() - 1.0))
        worst["herm"] = max(
            worst["herm"], float(np.max(np.abs(rho.matrix - rho.matrix.conj().T)))
        )
        worst["eig"] = max(
            worst["eig"], -float(np.min(np.linalg.eigvalsh(rho.matrix)))
        )
        worst["residual"] = max(
            worst["residual"],
            float(np.max(np.abs(lio.matrix @ vectorize(rho.matrix)))),
        )
    _report(
        4,
        "steady state is trace-one, Hermitian, positive, and residual-free "
        "over 100 random parameter draws",
        worst["trace"] <= 1e-10
        and worst["herm"] <= 1e-10
        and worst["eig"] <= 1e-8
        and worst["residual"] <= 1e-10,
        ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_05_solver_cross_validation():
    shift_a = resonance_angular_condition(5.0)
    g_opt = optimal_g(1.0, 1.0, WEAK_DRIVE)
    shift_b = resonance_angular_condition(g_opt)
    points = [
        SystemParams(g=0.867, drive_strength=WEAK_DRIVE),  # dip sweep regime
        SystemParams(delta=-shift_a, g=5.0, drive_strength=WEAK_DRIVE, delta_f=shift_a),
        SystemParams(delta=-shift_a, g=5.0, drive_strength=WEAK_DRIVE, delta_f=-shift_a),
        SystemParams(delta=-shift_b, g=g_opt, drive_strength=WEAK_DRIVE, delta_f=shift_b),
        SystemParams(delta=-shift_b, g=g_opt, drive_strength=WEAK_DRIVE, delta_f=-shift_b),
    ]
    worst = 0.0
    for p in points:
        lio = _liouvillian(p)
        direct = steady_state(lio)
        dt = 0.01 / max(lio.kappa1, lio.kappa2, lio.h_norm)
        propagated = evolve(_vacuum(lio.basis), lio, 50.0, dt)
        worst = max(worst, float(np.max(np.abs(direct.matrix - propagated.matrix))))
    _report(
        5,
        "direct solve matches Runge-Kutta propagation to t = 50/kappa1 "
        "within 1e-6 on the dip and nonreciprocity parameter sets",
        worst <= 1e-6,
        f"worst inf-norm difference={worst:.2e}",
    )


def test_06_fundamental_mode_nonreciprocity():
    shift = resonance_angular_condition(5.0)
    left = run_point(
        SystemParams(delta=-shift, g=5.0, drive_strength=WEAK_DRIVE, delta_f=shift)
    )
    right = run_point(
        SystemParams(delta=-shift, g=5.0, drive_strength=WEAK_DRIVE, delta_f=-shift)
    )
    ratio = right.g2_aa / left.g2_aa
    _report(
        6,
        "left drive is blocked (g2_aa < 1) while right drive tunnels "
        "(g2_aa > 1) at the same laser detuning, contrast above 10",
        left.g2_aa < 1.0 and right.g2_aa > 1.0 and ratio > 10.0,
        f"left={left.g2_aa:.2e}, right={right.g2_aa:.2f}, ratio={ratio:.1f}",
    )


def test_07_no_second_harmonic_peak_window():
    # The paper's claim, made at the blockade point Delta = -Delta_F:
    # the fundamental mode is blocked from the left port and tunnels
    # from the right, while the second harmonic shows no such reversal
    # -- g2_bb < 1 from both ports and neither sweep peaks there.  Each
    # value is compared with 1: the ports are not compared with each
    # other, since g2_bb varies between them by more than g2_aa does.
    # The reciprocal g2_bb maxima at Delta + Delta_F ~ +/-1.11 are not
    # at the blockade point; the right-drive sweep contains one.
    g_opt = optimal_g(1.0, 1.0, WEAK_DRIVE)
    shift = resonance_angular_condition(g_opt)
    deltas = np.linspace(-shift - 1.0, -shift + 1.0, 81)
    centre = len(deltas) // 2  # deltas[centre] is the blockade point
    at_point, peaked = {}, {}
    for port, delta_f in (("left", shift), ("right", -shift)):
        stats = [
            run_point(
                SystemParams(delta=d, g=g_opt, drive_strength=WEAK_DRIVE, delta_f=delta_f)
            )
            for d in deltas
        ]
        g2_bb = [s.g2_bb for s in stats]
        at_point[port] = stats[centre]
        peaked[port] = g2_bb[centre] > max(g2_bb[centre - 1], g2_bb[centre + 1])
    left, right = at_point["left"], at_point["right"]
    _report(
        7,
        "at the blockade point g2_aa is below 1 from the left and above 1 "
        "from the right, while g2_bb is below 1 from both ports and a local "
        "maximum of neither port's +/- 1 sweep",
        left.g2_aa < 1.0
        and right.g2_aa > 1.0
        and left.g2_bb < 1.0
        and right.g2_bb < 1.0
        and not peaked["left"]
        and not peaked["right"],
        f"g2_aa left={left.g2_aa:.3g}, right={right.g2_aa:.3g}; "
        f"g2_bb left={left.g2_bb:.3g}, right={right.g2_bb:.3g}; "
        f"g2_bb peaked left={peaked['left']}, right={peaked['right']}",
    )


def test_07b_no_nonreciprocal_peak_at_blockade_point():
    # The verified claim: at the blockade point the right-drive g2_bb
    # shows no peak at all -- the curve passes through monotonically
    # and stays below 1 -- unlike the fundamental mode, whose g2_aa
    # peaks exactly there (criterion 6).
    g_opt = optimal_g(1.0, 1.0, WEAK_DRIVE)
    shift = resonance_angular_condition(g_opt)
    deltas = np.linspace(-shift - 0.15, -shift + 0.15, 7)
    values = [
        run_point(
            SystemParams(delta=d, g=g_opt, drive_strength=WEAK_DRIVE, delta_f=-shift)
        ).g2_bb
        for d in deltas
    ]
    strictly_decreasing = all(a > b for a, b in zip(values, values[1:]))
    at_point = values[len(values) // 2]
    assert strictly_decreasing, values
    assert at_point < 1.0


def test_08_photon_number_hierarchy():
    shift = resonance_angular_condition(5.0)
    stats = run_point(
        SystemParams(delta=-shift, g=5.0, drive_strength=WEAK_DRIVE, delta_f=shift)
    )
    ratio = stats.n_a / stats.n_b
    _report(
        8,
        "fundamental-mode occupation dominates the second harmonic at the "
        "left-drive dip (n_a/n_b > 10)",
        ratio > 10.0,
        f"n_a={stats.n_a:.3e}, n_b={stats.n_b:.3e}, ratio={ratio:.0f}",
    )


def test_09_amplitude_model_consistency():
    # The amplitude model is the leading weak-drive order of the
    # master-equation correlators: the two g2_bb values differ by
    # c(g) F^2, the mixed state's jump-noise term.  Near the null g2_bb
    # is itself O(F^2), so a relative match cannot hold there; instead
    # the gap coefficient (full - amplitude) / F^2 must agree between F
    # and F/2.  A model slip of relative size eps leaves an
    # F-independent gap of order eps and breaks that scaling.
    g_opt = optimal_g(1.0, 1.0, WEAK_DRIVE)
    null_state = steady_amplitudes(
        SystemParams(g=g_opt, drive_strength=WEAK_DRIVE),
        AmplitudeModelOptions(keep_subleading=False),
    )
    null_ok = abs(null_state.c02) <= 1e-10

    gs = np.linspace(0.2, 2.0, 19)
    deviations = []
    for g in gs:
        coeffs = []
        for f in (WEAK_DRIVE, WEAK_DRIVE / 2):
            p = SystemParams(g=g, drive_strength=f)
            _, amp_val = g2_from_amplitudes(
                steady_amplitudes(p, AmplitudeModelOptions(keep_subleading=True))
            )
            coeffs.append((run_point(p).g2_bb - amp_val) / f**2)
        deviations.append(abs(coeffs[0] - coeffs[1]) / abs(coeffs[1]))
    deviations = np.array(deviations)
    worst = int(np.argmax(deviations))  # the first NaN, if any
    _report(
        9,
        "the gap between full and amplitude-model g2_bb scales as F^2 "
        "(gap / F^2 agrees within 10% between F and F/2) at every point of "
        "the dip interval, and the two-photon amplitude nulls at the "
        "closed-form optimum",
        null_ok and bool(np.all(deviations <= 0.10)),
        f"|c02|={abs(null_state.c02):.1e}, worst gap/F^2 change="
        f"{deviations[worst]:.1%} at g={gs[worst]:.2f}",
    )


def test_10_monotone_blockade_in_fundamental_mode():
    values = [
        run_point(SystemParams(g=g, drive_strength=WEAK_DRIVE)).g2_aa
        for g in (1.0, 2.0, 5.0, 10.0)
    ]
    _report(
        10,
        "g2_aa decreases strictly with the hopping interaction at resonance",
        all(a > b for a, b in zip(values, values[1:])),
        "values=" + ", ".join(f"{v:.2e}" for v in values),
    )


def test_11_truncation_invariants():
    # commutator structure is exact up to one ulp in sqrt(n)^2
    basis, a, _ = make_ops()
    comm = np.real(np.diag(a.matrix @ a.dag() - a.dag() @ a.matrix))
    expected = np.array(
        [-basis.na_cut if n_a == basis.na_cut else 1.0 for n_a, _ in basis.occupations()]
    )
    comm_ok = bool(np.max(np.abs(comm - expected)) <= 1e-12)

    # doubling the truncation leaves the weak-drive dip statistics
    # unchanged to 0.1% (single most-loaded point of the dip sweep;
    # the doubled solve has D = 91 and runs matrix-free)
    p = SystemParams(g=0.867, drive_strength=WEAK_DRIVE)
    coarse = run_point(p, (6, 3))
    fine = run_point(p, (12, 6))
    changes = {
        name: abs(getattr(coarse, name) - getattr(fine, name))
        / max(abs(getattr(fine, name)), 1e-300)
        for name in ("g2_aa", "g2_bb", "n_a", "n_b")
    }
    converged = all(v < 1e-3 for v in changes.values())
    _report(
        11,
        "ladder commutator diagonal is exact and cutoff doubling moves the "
        "dip-point statistics by less than 0.1%",
        comm_ok and converged,
        "max commutator defect "
        f"{np.max(np.abs(comm - expected)):.1e}; "
        + ", ".join(f"{k}:{v:.1e}" for k, v in changes.items()),
    )
