import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotcav.dynamics as dynamics_mod
from rotcav.dynamics import decay_hamiltonian, jump_map_steady_states
from conftest import kron_liouvillian, liouvillian as _liouvillian, make_ops, solve_point, vacuum as _vacuum
from rotcav import (
    DensityMatrix,
    ModeOperator,
    SteadyStateError,
    SystemParams,
    annihilator_b,
    build_basis,
    build_h_eff,
    figure_preset,
    optimal_g,
    resonance_angular_condition,
    run_point,
)
from rotcav.oracle import (
    Liouvillian,
    NonUniqueSteadyStateError,
    TraceDriftError,
    build_liouvillian,
    evolve,
    photon_statistics,
    steady_state,
    unvectorize,
    vectorize,
)
from rotcav.sweep import OUTPUT_NAMES, solve_points

EXCEPTIONAL_G = 1.0 / (4.0 * math.sqrt(2.0))
ROUNDOFF = 1e-30
# A detuning off the mirror line delta + delta_f = 0, whose points the solver
# factors in complex arithmetic; at delta = 0 it factors them in real.
OFF_LINE_DELTA = 0.3


def _solve_alone_point(h, basis, kappa1, kappa2) -> DensityMatrix:
    """The jump-map state of one point solved on its own; raises its error."""
    (state,) = jump_map_steady_states([(h, kappa1, kappa2)], basis)
    if isinstance(state, SteadyStateError):
        raise state
    return state


# ------------------------------------------------------------ vectorization


def test_column_stacking_convention():
    # vec index of entry (i, j) is i + j*D
    rho = np.arange(9, dtype=complex).reshape(3, 3)
    vec = vectorize(rho)
    for i in range(3):
        for j in range(3):
            assert vec[i + 3 * j] == rho[i, j]
    np.testing.assert_array_equal(unvectorize(vec, 3), rho)


def test_matches_kronecker_reference():
    # the block-wise assembly must equal the literal Kronecker formula
    rng = np.random.default_rng(11)
    basis, a, b = make_ops(2, 1)
    for _ in range(5):
        p = SystemParams(
            delta=rng.uniform(-3, 3),
            g=rng.uniform(0, 4),
            kappa2=rng.uniform(0.5, 2),
            drive_strength=rng.uniform(0, 0.3),
            delta_f=rng.uniform(-1, 1),
        )
        h = build_h_eff(p, basis)
        lio = build_liouvillian(h, a, b, p.kappa1, p.kappa2)
        ref = kron_liouvillian(h, a.matrix, b.matrix, p.kappa1, p.kappa2)
        np.testing.assert_allclose(lio.matrix, ref, atol=1e-14)


def test_zero_hamiltonian_zero_rates_gives_zero():
    basis, a, b = make_ops(2, 1)
    lio = build_liouvillian(np.zeros((basis.dim,) * 2, dtype=complex), a, b, 0.0, 0.0)
    np.testing.assert_array_equal(lio.matrix, 0)


def test_dimension_mismatch_rejected():
    basis, a, b = make_ops(2, 1)
    h = np.zeros((3, 3), dtype=complex)
    with pytest.raises(ValueError):
        build_liouvillian(h, a, b, 1.0, 1.0)
    with pytest.raises(ValueError):
        _solve_alone_point(h, basis, 1.0, 1.0)


def test_negative_rates_rejected():
    basis, a, b = make_ops(2, 1)
    h = np.zeros((basis.dim,) * 2, dtype=complex)
    with pytest.raises(ValueError):
        build_liouvillian(h, a, b, -1.0, 1.0)
    with pytest.raises(ValueError):
        _solve_alone_point(h, basis, -1.0, 1.0)


def test_operators_other_than_the_annihilators_rejected():
    # The oracle's refinement rebuilds a and b from the basis.
    basis, a, b = make_ops(3, 2)
    h = np.zeros((basis.dim,) * 2, dtype=complex)
    other = build_basis(2, 3)  # same dimension, other layout
    cases = {
        "swapped": (b, a),
        "scaled": (ModeOperator(2.0 * a.matrix, basis), b),
        "creation": (ModeOperator(a.dag(), basis), b),
        "other-basis": (a, annihilator_b(other)),
    }
    for op_a, op_b in cases.values():
        with pytest.raises(ValueError, match="annihilators"):
            build_liouvillian(h, op_a, op_b, 1.0, 1.0)


@pytest.mark.parametrize("cutoffs", [(1, 1), (4, 2), (6, 3), (10, 5), (12, 6)])
def test_decay_hamiltonian_is_the_dense_form(cutoffs):
    basis, a, b = make_ops(*cutoffs)
    rng = np.random.default_rng(sum(cutoffs))
    for _ in range(5):
        p = SystemParams(
            delta=rng.uniform(-6, 6),
            g=rng.uniform(0, 10),
            kappa1=rng.uniform(0.1, 3),
            kappa2=rng.uniform(0.1, 3),
            drive_strength=rng.uniform(0, 3),
            delta_f=rng.uniform(-1, 1),
        )
        h = build_h_eff(p, basis)
        dense = h - 0.5j * (p.kappa1 * (a.dag() @ a.matrix) + p.kappa2 * (b.dag() @ b.matrix))
        assert np.array_equal(decay_hamiltonian(h, basis, p.kappa1, p.kappa2), dense)


@pytest.mark.parametrize("cutoffs", [(1, 1), (4, 2), (6, 3), (10, 5)])
def test_stacked_generator_is_the_dense_liouvillian(cutoffs):
    # Random Hermitian states and Hamiltonians with per-point loss rates:
    # the stacked generator with its jump weights against lio.matrix.
    basis, a, b = make_ops(*cutoffs)
    rng = np.random.default_rng(sum(cutoffs))
    k, d = 3, basis.dim
    h, rho = rng.normal(size=(2, k, d, d)) + 1j * rng.normal(size=(2, k, d, d))
    h += h.conj().transpose(0, 2, 1)
    rho += rho.conj().transpose(0, 2, 1)
    rates = rng.uniform(0.1, 3.0, size=(k, 2))
    minus_i_h = np.array(
        [-1j * decay_hamiltonian(h[j], basis, *rates[j]) for j in range(k)]
    )
    out, scratch = np.empty((2, k, d, d), dtype=complex)
    jumps = dynamics_mod._jump_views(basis, rates, rho, out, scratch)
    stacked = dynamics_mod._generator(minus_i_h, rho, out, scratch, jumps).copy()
    for j in range(k):
        dense = unvectorize(build_liouvillian(h[j], a, b, *rates[j]).matrix @ vectorize(rho[j]), d)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(stacked[j] - dense)) <= 1e-13 * scale
    # The first points of the stacks alone give the same bits.
    first = dynamics_mod._generator(minus_i_h[:2], rho[:2], out[:2], scratch[:2], jumps)
    np.testing.assert_array_equal(first, stacked[:2])


def test_trace_preservation_row():
    rng = np.random.default_rng(5)
    basis, a, b = make_ops(3, 2)
    for _ in range(5):
        p = SystemParams(
            delta=rng.uniform(-5, 5),
            g=rng.uniform(0, 5),
            kappa2=rng.uniform(0.5, 2),
            drive_strength=rng.uniform(0, 0.2),
        )
        lio = build_liouvillian(build_h_eff(p, basis), a, b, p.kappa1, p.kappa2)
        trace_row = np.zeros(basis.dim**2, dtype=complex)
        trace_row[:: basis.dim + 1] = 1.0
        assert np.max(np.abs(trace_row @ lio.matrix)) <= 1e-10


def test_vacuum_stationary_without_drive():
    basis, a, b = make_ops(4, 2)
    p = SystemParams(g=2.0, drive_strength=0.0)
    lio = build_liouvillian(build_h_eff(p, basis), a, b, 1.0, 1.0)
    action = lio.matrix @ vectorize(_vacuum(basis).matrix)
    assert np.max(np.abs(action)) <= 1e-14


def test_liouvillian_linearity():
    basis, a, b = make_ops(2, 2)
    p = SystemParams(delta=1.0, g=1.5, drive_strength=0.1)
    lio = build_liouvillian(build_h_eff(p, basis), a, b, 1.0, 1.0)
    rng = np.random.default_rng(2)
    v1 = rng.normal(size=basis.dim**2) + 1j * rng.normal(size=basis.dim**2)
    v2 = rng.normal(size=basis.dim**2) + 1j * rng.normal(size=basis.dim**2)
    alpha, beta = 0.3 - 0.2j, 1.7 + 0.4j
    lhs = lio.matrix @ (alpha * v1 + beta * v2)
    rhs = alpha * (lio.matrix @ v1) + beta * (lio.matrix @ v2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_spectrum_in_left_half_plane():
    basis, a, b = make_ops(1, 1)
    for p in (
        SystemParams(g=1.0, drive_strength=0.05),
        SystemParams(delta=2.0, g=0.5, kappa2=1.5, drive_strength=0.1),
    ):
        lio = build_liouvillian(build_h_eff(p, basis), a, b, p.kappa1, p.kappa2)
        eigs = np.linalg.eigvals(lio.matrix)
        assert np.max(eigs.real) <= 1e-12


# ------------------------------------------------------------- steady state


def test_undriven_steady_state_is_vacuum():
    rho, _, _ = solve_point(SystemParams(g=2.0, drive_strength=0.0))
    expected = np.zeros_like(rho.matrix)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


def test_steady_state_trace_exact():
    rho, _, _ = solve_point(SystemParams(g=0.867, drive_strength=0.05))
    assert abs(rho.trace() - 1.0) <= 1e-12


def test_steady_state_invariants_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = SystemParams(
            delta=rng.uniform(-5, 5),
            g=rng.uniform(0, 5),
            kappa2=rng.uniform(0.5, 2),
            drive_strength=rng.uniform(0.001, 0.1),
        )
        lio = _liouvillian(p)
        rho = steady_state(lio)
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 1e-10
        assert abs(rho.trace() - 1.0) <= 1e-10
        assert np.min(np.linalg.eigvalsh(rho.matrix)) >= -1e-8
        assert np.max(np.abs(lio.matrix @ vectorize(rho.matrix))) <= 1e-10


def test_non_uniqueness_detected():
    # with no Hamiltonian and no losses every state is stationary
    basis, a, b = make_ops(1, 1)
    lio = build_liouvillian(np.zeros((basis.dim,) * 2, dtype=complex), a, b, 0.0, 0.0)
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(lio)


# ------------------------------------------- jump-map solver against the oracle


def _assert_matches_oracle(p: SystemParams, cutoffs, min_occupation=0.0):
    """run_point agrees with the dense oracle to relative 1e-9; its state is certified.

    Returns the statistics of run_point and of the oracle.

    An occupation that vanishes in exact arithmetic (n_b at g = 0) comes
    back from both solvers as roundoff of either sign, so occupations
    also pass within ROUNDOFF absolute.  A g2 is compared only where the
    oracle's occupation of that mode is at least min_occupation.
    """
    basis, a, b = make_ops(*cutoffs)
    h = build_h_eff(p, basis)
    lio = build_liouvillian(h, a, b, p.kappa1, p.kappa2)
    expected = photon_statistics(steady_state(lio), a, b)
    stats = run_point(p, cutoffs)
    for name, occupation in (("g2_aa", "n_a"), ("g2_bb", "n_b"), ("n_a", None), ("n_b", None)):
        got, want = getattr(stats, name), getattr(expected, name)
        if occupation is not None and getattr(expected, occupation) < min_occupation:
            continue
        if want is None or got is None:
            assert got is want, name
        else:
            floor = ROUNDOFF if occupation is None else 0.0
            assert got == pytest.approx(want, rel=1e-9, abs=floor), name
    rho = _solve_alone_point(h, basis, p.kappa1, p.kappa2)
    assert np.max(np.abs(lio.matrix @ vectorize(rho.matrix))) <= 1e-10
    return stats, expected


@pytest.mark.parametrize(
    "params",
    [
        SystemParams(g=EXCEPTIONAL_G, drive_strength=0.05),
        SystemParams(g=1.0, drive_strength=0.0),
        SystemParams(g=1.0, kappa2=0.1, drive_strength=0.05),
        SystemParams(delta=6.0, g=10.0, drive_strength=0.05),
        SystemParams(delta=-6.0, g=10.0, drive_strength=0.05),
        SystemParams(g=0.867, drive_strength=3.0),
    ],
    ids=["exceptional-point", "undriven", "kappa2-0.1", "g10-delta+6", "g10-delta-6", "F3"],
)
def test_jump_map_matches_dense_oracle_at_hard_points(params):
    _assert_matches_oracle(params, (6, 3))


@settings(max_examples=40, deadline=None)
@given(
    delta=st.floats(-6.0, 6.0),
    g=st.floats(0.0, 10.0),
    kappa2=st.floats(0.1, 3.0),
    drive=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
)
@example(delta=0.0, g=EXCEPTIONAL_G, kappa2=1.0, drive=0.05)
@example(delta=0.0, g=1.0, kappa2=1.0, drive=0.0)
@example(delta=4.098, g=0.34, kappa2=0.391, drive=0.506)
def test_jump_map_matches_refined_dense_oracle_random(delta, g, kappa2, drive):
    # Within two decades of the 1e-12 vacuum guard the oracle refined in
    # working precision missed 1e-9 in g2: at n_b = 1.7e-12 (delta=5.813,
    # g=0.082, kappa2=0.1088, F=0.0797) it was 7.3e-9 off a 40-digit solve
    # (see test_jump_map_matches_extended_precision for the refinement now).
    p = SystemParams(delta=delta, g=g, kappa2=kappa2, drive_strength=drive)
    _assert_matches_oracle(p, (3, 2), min_occupation=1e-10)


@pytest.mark.parametrize(
    "params, expected, dense_g2_bb_rel, operator_g2_bb",
    [
        (
            SystemParams(delta=4.098, g=0.34, kappa2=0.391, drive_strength=0.506),
            dict(g2_aa=1.006549119033813, g2_bb=31.24361716058249,
                 n_a=0.015025438187563635, n_b=3.954021002013671e-07),
            1e-9,
            31.243617160580683561,
        ),
        (
            SystemParams(delta=5.813, g=0.082, kappa2=0.1088, drive_strength=0.0797),
            dict(g2_aa=1.0001974368795112, g2_bb=3.8469425064068212,
                 n_a=0.00018660134111054896, n_b=1.7325542447832737e-12),
            2e-12,
            3.8469425064013370311,
        ),
    ],
    ids=["plain-lu-1e-4-off", "near-vacuum-guard"],
)
def test_jump_map_matches_extended_precision(params, expected, dense_g2_bb_rel, operator_g2_bb):
    # Expected values: mpmath LU at 40 digits of the trace-row system
    # built from build_liouvillian at cutoffs (3, 2).  Unrefined, the dense
    # LU misses g2_bb by 2e-4 and 2e6 relative at these points; refined in
    # working precision, by 7e-14 and 7.3e-9.  operator_g2_bb is the same
    # 40-digit solve of L built from the operators with exact sqrt(n), the
    # problem the oracle's long-double refinement residual poses: near the
    # vacuum guard the roundoff in the entries of build_liouvillian moves
    # the 40-digit g2_bb by 1.4e-12, which bounds dense_g2_bb_rel there.
    assert np.finfo(np.longdouble).eps < 1e-18  # else the refinement is not extended
    basis, a, b = make_ops(3, 2)
    lio = build_liouvillian(build_h_eff(params, basis), a, b, params.kappa1, params.kappa2)
    solvers = {
        "jump map": (run_point(params, (3, 2)), 1e-9),
        "dense": (photon_statistics(steady_state(lio), a, b), dense_g2_bb_rel),
    }
    for solver, (stats, g2_bb_rel) in solvers.items():
        for name, value in expected.items():
            rel = g2_bb_rel if name == "g2_bb" else 1e-9
            assert getattr(stats, name) == pytest.approx(value, rel=rel), (solver, name)
    assert solvers["dense"][0].g2_bb == pytest.approx(operator_g2_bb, rel=1e-13)


# Grid points (delta, g) of the fig4 heatmaps at F = 0.05.  With the
# populations floored at 1e-30 the scaled update stalled between 1e-10 and
# 4e-10 at the first sixteen, a solver failure, and the last two took 458
# iterations.
FIG4_STALL_POINTS = [
    (-6.0, 0.1), (-5.52, 3.2), (-4.08, 0.2), (-3.96, 0.6), (-3.0, 0.3), (-2.52, 0.2),
    (-2.4, 0.2), (2.28, 0.2), (2.4, 0.2), (2.76, 0.3), (2.88, 0.3), (3.0, 0.3),
    (3.48, 0.5), (4.08, 0.2), (5.52, 3.2), (6.0, 0.1), (-3.84, 0.6), (3.84, 0.6),
]


def _wrap_eigenbasis_inverse(monkeypatch, wrap) -> None:
    """Route every stacked eigenbasis S^-1 the solver applies through wrap(inverse)."""
    monkeypatch.setattr(
        dynamics_mod, "_eigenbasis_inverse", wrap(dynamics_mod._eigenbasis_inverse)
    )


def _krylov_entries(states) -> list[int]:
    """The sorted loop iterations at which the points entered the Krylov phase."""
    return sorted(state.solve.krylov_from for state in states if state.solve.krylov_from)


@pytest.mark.parametrize("delta, g", FIG4_STALL_POINTS)
def test_jump_map_converges_at_fig4_stall_points(delta, g):
    # The exact grid values, e.g. 2.2799999999999994 rather than 2.28
    spec = figure_preset("fig4a")
    deltas, gs = spec.axis1.values(), spec.axis2.values()
    delta = float(deltas[np.argmin(np.abs(deltas - delta))])
    g = float(gs[np.argmin(np.abs(gs - g))])
    p = SystemParams(delta=delta, g=g, drive_strength=0.05)
    stats, _ = _assert_matches_oracle(p, (6, 3))
    assert 0 < stats.solve.applications <= 50


@pytest.mark.parametrize(
    "params, cutoffs",
    [
        (SystemParams(g=EXCEPTIONAL_G, drive_strength=0.05), (6, 3)),
        (SystemParams(g=1.0, kappa2=0.1, drive_strength=0.05), (6, 3)),
        (SystemParams(delta=6.0, g=10.0, drive_strength=0.05), (6, 3)),
        (SystemParams(delta=-6.0, g=10.0, drive_strength=0.05), (6, 3)),
        # tests/data/golden/point.json
        (SystemParams(delta=-0.5, g=0.867, kappa2=1.2, drive_strength=0.05, delta_f=0.3), (4, 2)),
    ],
    ids=["exceptional-point", "kappa2-0.1", "g10-delta+6", "g10-delta-6", "golden-point"],
)
def test_weak_drive_hard_points_match_schur_only_path(params, cutoffs):
    stats, expected = _assert_matches_oracle(params, cutoffs)
    for name in ("g2_aa", "g2_bb", "n_a", "n_b"):
        assert getattr(stats, name) == pytest.approx(getattr(expected, name), rel=1e-12), name


# Points at cutoffs (8, 4) where roundoff in nearly empty states holds the
# scaled update near JUMP_MAP_PLATEAU_TOL: each either stops on the
# plateau or, flat above it, is finished by the Krylov phase.  The last
# three once idled 20 iterations past their last new minimum and were
# certified where they stood, after 63 to 79 applications of S^-1; they
# now take 30 to 39.
ROUNDOFF_STALL_POINTS = [
    SystemParams(delta=-5.0, g=0.867, drive_strength=0.5),
    SystemParams(delta=4.15, g=0.867, kappa2=0.933, drive_strength=0.426),
    SystemParams(delta=-4.83, g=0.867, kappa2=0.273, drive_strength=0.856),
    SystemParams(delta=-5.0, g=0.3, drive_strength=1.0),
    SystemParams(delta=-6.0, g=0.867, drive_strength=2.0),
]


@pytest.mark.parametrize(
    "params", ROUNDOFF_STALL_POINTS, ids=["F0.5", "F0.426", "F0.856", "g0.3-F1", "g0.867-F2"]
)
def test_jump_map_stops_at_roundoff_stall(params):
    stats, _ = _assert_matches_oracle(params, (8, 4))
    assert stats.solve.applications <= 45


@pytest.mark.parametrize(
    "params",
    [
        SystemParams(g=EXCEPTIONAL_G, drive_strength=2.0),
        SystemParams(g=optimal_g(1.0, 1.0, 0.05), drive_strength=2.0),
        SystemParams(g=1.0, kappa2=0.1, drive_strength=2.0),
    ],
    ids=["exceptional-point", "g-star", "kappa2-0.1"],
)
def test_slow_points_switch_to_eigenbasis_and_match_oracle(params):
    stats, _ = _assert_matches_oracle(params, (8, 4))
    assert not stats.solve.retried  # factored once, from H' itself


# The slowest contraction of the grid delta in [-6, 6] (13 points) x
# F in {0.2, 0.5, 1, 2, 3} at g = 0.867, cutoffs (8, 4).  The scaled update
# repeats 8.5e-11 at two successive iterations there, and a rule stopping
# once it is small and no longer shrinking certified n_a 1.6e-10 relative
# off the long-double oracle.
@pytest.mark.parametrize("delta", [-1.0, 1.0])
def test_slow_contraction_points_match_oracle(delta):
    p = SystemParams(delta=delta, g=0.867, drive_strength=2.0)
    stats, expected = _assert_matches_oracle(p, (8, 4))
    assert not stats.solve.retried
    for name in ("g2_aa", "n_a"):
        assert getattr(stats, name) == pytest.approx(getattr(expected, name), rel=1e-13), name


# The iteration starts one renewal from the vacuum.  From a uniform
# fundamental mixture the fig5 points took 10 to 13 iterations, the first
# six of them draining the mixture down the ladder.
def test_fig5_points_start_one_renewal_from_the_vacuum():
    spec = figure_preset("fig5", count1=9)
    for g in spec.axis1.values():
        p = SystemParams(g=float(g), drive_strength=spec.fixed.drive_strength)
        assert run_point(p, (6, 3)).solve.applications <= 9, g


# At F = 1e-10 the first two scaled steps are 1.4e23 and 3.0e4, a geometric
# tail of 6e-15, and a tail counted on them stopped at iteration 2 with n_a
# 3.4 relative off (10 at cutoffs (8, 4)), while the residual passed the
# absolute certificate.  n_b is below the population floor and converges
# only in absolute terms, so it is not compared here.
@pytest.mark.parametrize("cutoffs", [(6, 3), (8, 4)])
@pytest.mark.parametrize("g", [0.867, 0.3, EXCEPTIONAL_G, 2.0])
def test_weak_drive_does_not_stop_on_its_first_steps(g, cutoffs):
    p = SystemParams(g=g, drive_strength=1e-10)
    basis, a, b = make_ops(*cutoffs)
    lio = build_liouvillian(build_h_eff(p, basis), a, b, p.kappa1, p.kappa2)
    expected = photon_statistics(steady_state(lio), a, b)
    assert run_point(p, cutoffs).n_a == pytest.approx(expected.n_a, rel=1e-9, abs=0.0)


def _first_exit(steps) -> tuple[str, int] | None:
    """Feed scaled steps to a stop-rule track as _iterate does, one per
    iteration: whether it first stops or enters the Krylov phase, and when."""
    track = dynamics_mod._Track(0)
    for iteration, step in enumerate(steps, 1):
        if track.stops(step, iteration):
            return "stops", iteration
        if track.enters(iteration):
            return "enters", iteration
    return None


# Steps that halve from 1e-7 down to their minimum at iteration best_at,
# below JUMP_MAP_SLOW_STEP and far from a tail below roundoff, then rest
# at 1.5 times it, above JUMP_MAP_PLATEAU_TOL.
@pytest.mark.parametrize("best_at", [2, 5, 9])
def test_flat_point_above_the_plateau_enters_the_krylov_phase(best_at):
    steps = [1e-7 * 0.5**k for k in range(best_at)]
    steps += [1.5 * steps[-1]] * 30
    assert min(steps) > dynamics_mod.JUMP_MAP_PLATEAU_TOL
    assert _first_exit(steps) == ("enters", max(dynamics_mod.JUMP_MAP_KRYLOV_ITERATIONS, best_at + 3))


@pytest.mark.parametrize("plateau", [1e-10, 3e-11])
def test_flat_point_on_the_plateau_stops(plateau):
    # Its minimum at iteration 2, so it is flat at 5, before the phase could
    # take it.
    assert _first_exit([4.0 * plateau, 0.5 * plateau] + [plateau] * 30) == ("stops", 5)


def test_slow_point_above_the_slow_step_enters_the_krylov_phase():
    # A new minimum every iteration, at a ratio of 0.9.
    assert _first_exit([0.9**k for k in range(30)]) == ("enters", dynamics_mod.JUMP_MAP_KRYLOV_ITERATIONS)


def test_flat_point_does_not_idle_until_it_is_certified():
    # A minimum of 2e-9 at iteration 6, then steps of 3e-9: the stop rule
    # once idled here 20 iterations and certified the point at iteration 26.
    steps = [1e-7 * 0.5**k for k in range(5)] + [2e-9] + [3e-9] * 30
    assert _first_exit(steps) == ("enters", 9)


# The fig7a nonreciprocity pair at cutoffs (10, 5), at fig7a's grid point and
# three offsets below its 0.04 step in delta.  With the population floor
# fixed at 1e-24, |5,1>, |6,1>, |7,1> and |6,2> sat on it with updates of
# 1e-32 to 1e-34 that kept the scaled update up, and each point took 15 to
# 23 generator calls, stopping on roundoff, where its outputs settle by
# about the 6th.
@pytest.mark.parametrize("offset", [0.0, 0.0095, 0.018, 0.025])
def test_weak_drive_pair_at_10_5_stops_on_its_tail(offset):
    shift = resonance_angular_condition(5.0)
    for delta_f in (shift, -shift):
        p = SystemParams(delta=-shift + offset, g=5.0, drive_strength=0.05, delta_f=delta_f)
        stats, expected = _assert_matches_oracle(p, (10, 5))
        assert stats.solve.generator_calls <= 7, delta_f
        for name in ("g2_aa", "g2_bb", "n_a", "n_b"):
            assert getattr(stats, name) == pytest.approx(getattr(expected, name), rel=1e-12), name


def test_population_floor_is_never_below_the_constant():
    basis = build_basis(10, 5)
    pairs = dynamics_mod._pair_weights(basis)
    rng = np.random.default_rng(7)
    for scale in (1.0, 1e-12, 1e-20, 1e-30):
        populations = scale * rng.normal(size=(6, basis.dim))  # roundoff can make them negative
        floor = dynamics_mod._population_floor(populations, pairs)
        assert floor.shape == (6,) and np.all(floor >= dynamics_mod.JUMP_MAP_POPULATION_FLOOR)
        for one, want in zip(populations, floor):
            assert dynamics_mod._population_floor(one, pairs) == want


# Without hopping no second-harmonic photon is made, and at nb_cut = 1 no
# pair of them fits, so <b^dag^2 b^2> = 0 and the floor is the constant's at
# every iteration: the bits do not move.
@pytest.mark.parametrize(
    "params, cutoffs",
    [
        (SystemParams(g=0.0, drive_strength=0.05), (6, 3)),
        (SystemParams(g=0.0, delta=OFF_LINE_DELTA, drive_strength=2.0), (8, 4)),
        (SystemParams(g=0.867, drive_strength=0.05), (6, 1)),
        (SystemParams(g=0.867, delta=OFF_LINE_DELTA, drive_strength=0.05), (6, 1)),
    ],
    ids=["g0", "g0-off-line-F2", "nb-cut-1", "nb-cut-1-off-line"],
)
def test_population_floor_is_the_constant_without_second_harmonic_pairs(params, cutoffs, monkeypatch):
    basis = build_basis(*cutoffs)
    h = build_h_eff(params, basis)
    state = _solve_alone_point(h, basis, params.kappa1, params.kappa2)
    floor = dynamics_mod._population_floor(state.matrix.diagonal().real, dynamics_mod._pair_weights(basis))
    assert floor == dynamics_mod.JUMP_MAP_POPULATION_FLOOR
    monkeypatch.setattr(dynamics_mod, "JUMP_MAP_PAIR_FLOOR_FRACTION", 0.0)
    np.testing.assert_array_equal(_solve_alone_point(h, basis, params.kappa1, params.kappa2).matrix, state.matrix)


_EIGENBASIS_FACTORS = dynamics_mod._eigenbasis_factors  # unpatched, for the wrappers below


def _nth_point_near_singular(monkeypatch, n: int) -> list:
    """Declare the eigenvectors of the nth point (counted from 1) that reaches
    the stacked eigenbasis step near-singular, a retried point counted again;
    the returned list gets one entry per point that reaches it."""
    seen = []

    def nth_singular(h_prime, out):
        usable = _EIGENBASIS_FACTORS(h_prime, out)
        if len(seen) < n <= len(seen) + len(h_prime):
            usable[n - 1 - len(seen)] = False
        seen.extend([None] * len(h_prime))
        return usable

    monkeypatch.setattr(dynamics_mod, "_eigenbasis_factors", nth_singular)
    return seen


# A repeated column leaves V invertible in floating point at a condition
# number near 1e17; a zero column makes the inversion raise.  Only the first
# eig is corrupted, so the point is retried from its decay-scaled H', at
# F = 3 and at F = 0.05, on the mirror line (delta = 0, real B) and off it.
# On the line the eigenvalue is repeated with its column, so that the block
# form repeats the column too: a copy of one eigenvector of a complex pair
# into its partner's column would only flip the sign of that column of P.
@pytest.mark.parametrize("zero", [False, True], ids=["repeated-column", "zero-column"])
def test_near_singular_eigenvectors_keep_schur_path(zero, monkeypatch):
    eig = np.linalg.eig
    calls = []

    def first_rank_deficient(matrices):
        calls.append(None)
        lam, v = eig(matrices)
        if len(calls) == 1:
            v[..., 1] = 0.0 if zero else v[..., 0]
            if matrices.dtype != complex:
                lam[..., 1] = lam[..., 0]
        return lam, v

    for delta, drive in itertools.product((0.0, OFF_LINE_DELTA), (3.0, 0.05)):
        calls.clear()
        p = SystemParams(delta=delta, g=0.867, drive_strength=drive)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eig", first_rank_deficient)
            stats = run_point(p, (6, 3))
        assert len(calls) == 2, (delta, drive)
        expected = photon_statistics(*solve_point(p, 6, 3))
        for name in ("g2_aa", "g2_bb", "n_a", "n_b"):
            assert getattr(stats, name) == pytest.approx(getattr(expected, name), rel=1e-12), name


# Exceptional points g = (kappa1 - kappa2 / 2) / (2 sqrt 2) of the |2,0>/|0,1>
# pair at drives so weak that cond_1(V) of H' exceeds 1/sqrt(eps) (7.8e7 at
# kappa2 = 0.1, cutoffs (10, 5)), so the point is factored again from H' with
# its loss rates scaled by 1 + sqrt(eps).  There n_a = 4 F^2 to roundoff;
# iterating in the unscaled eigenbasis anyway stopped with n_a 1.5e-9 and
# 8.2e-12 relative off.
@pytest.mark.parametrize(
    "params, cutoffs",
    [
        (SystemParams(g=0.95 / (2 * math.sqrt(2)), kappa2=0.1, drive_strength=1e-11), (10, 5)),
        (SystemParams(g=0.75 / (2 * math.sqrt(2)), kappa2=0.5, drive_strength=1e-13), (6, 3)),
    ],
    ids=["kappa2-0.1", "kappa2-0.5"],
)
def test_ill_conditioned_eigenbasis_falls_back_to_schur(params, cutoffs):
    stats = run_point(params, cutoffs)
    assert stats.solve.retried  # factored again, from the decay-scaled H'
    assert stats.n_a == pytest.approx(4 * params.drive_strength**2, rel=1e-12, abs=0)


def test_undriven_jump_map_returns_vacuum():
    basis = build_basis(4, 2)
    h = build_h_eff(SystemParams(g=2.0, drive_strength=0.0), basis)
    rho = _solve_alone_point(h, basis, 1.0, 1.0)
    np.testing.assert_array_equal(rho.matrix, _vacuum(basis).matrix)


def test_jump_map_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(dynamics_mod, "JUMP_MAP_MAX_ITERATIONS", 3)
    basis = build_basis(6, 3)
    h = build_h_eff(SystemParams(g=0.867, drive_strength=3.0), basis)
    with pytest.raises(SteadyStateError, match=r"did not converge in 3 iterations.*residual") as info:
        _solve_alone_point(h, basis, 1.0, 1.0)
    assert info.value.solve.applications <= dynamics_mod.JUMP_MAP_MAX_ITERATIONS


def _poisoned_at_call(fn, bad, call: int = 3, point: int | None = None):
    """fn with entry [1, 2] of its result's first element set to bad at one call,
    in every stacked point or in the one given."""
    calls = []
    entry = (..., 1, 2) if point is None else (point, 1, 2)

    def poisoned(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        if len(calls) == call:
            (out[0] if isinstance(out, tuple) else out)[entry] = bad
        return out

    return poisoned


def _weak_drive_jump_map():
    basis = build_basis(6, 3)
    h = build_h_eff(SystemParams(g=0.867, drive_strength=0.05), basis)
    return _solve_alone_point(h, basis, 1.0, 1.0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_update_raises_at_its_iteration(bad, monkeypatch):
    _wrap_eigenbasis_inverse(monkeypatch, lambda inverse: _poisoned_at_call(inverse, bad))
    with pytest.raises(SteadyStateError, match=r"non-finite entries at iteration 3$"):
        _weak_drive_jump_map()


def test_jump_map_budget_exhaustion_in_eigenbasis_raises(monkeypatch):
    monkeypatch.setattr(dynamics_mod, "JUMP_MAP_MAX_ITERATIONS", 20)
    basis = build_basis(6, 3)
    h = build_h_eff(SystemParams(g=0.867, drive_strength=3.0), basis)
    with pytest.raises(SteadyStateError, match=r"did not converge in 20 iterations.*residual") as info:
        _solve_alone_point(h, basis, 1.0, 1.0)
    assert not info.value.solve.retried  # factored once
    assert info.value.solve.applications <= dynamics_mod.JUMP_MAP_MAX_ITERATIONS


def test_residual_above_tolerance_raises_from_both_solvers(monkeypatch):
    # No state is certified past its residual: with the tolerance at 0 the
    # roundoff of a driven point fails both the oracle and the jump map.
    monkeypatch.setattr(dynamics_mod, "STEADY_RESIDUAL_TOL", 0.0)
    p = SystemParams(g=0.867, drive_strength=0.3)
    basis, a, b = make_ops(2, 1)
    h = build_h_eff(p, basis)
    with pytest.raises(SteadyStateError, match=r"residual .* exceeds"):
        steady_state(build_liouvillian(h, a, b, p.kappa1, p.kappa2))
    with pytest.raises(SteadyStateError, match=r"residual .* exceeds"):
        _solve_alone_point(h, basis, p.kappa1, p.kappa2)


# ------------------------------------------------------------- chunked solves

# Drive strengths at g = 0.867, cutoffs (4, 2): alone, the first stops at
# iteration 7 on the mirror line (delta = 0, solved in real arithmetic) and
# at 6 at delta = OFF_LINE_DELTA (solved in complex arithmetic); on both
# paths the other four are still above JUMP_MAP_SLOW_STEP at iteration 8 and
# leave there for the Krylov phase.  The chunk tests whose faults reach the
# factorization run on both paths.
CHUNK_DRIVES = (0.05, 0.7875, 1.525, 2.2625, 3.0)
CHUNK_ITERATIONS = {0.0: (7, 8, 8, 8, 8), OFF_LINE_DELTA: (6, 8, 8, 8, 8)}
KRYLOV_POINTS = {0.0: (1, 2, 3, 4), OFF_LINE_DELTA: (1, 2, 3, 4)}
# Drive strengths that each leave the loop at their own iteration alone: 7,
# 12, 5, 8 and 10 on the mirror line, 6, 13, 5, 8 and 11 off it; on both
# paths the fourth leaves for the Krylov phase and the others stop.
EXIT_DRIVES = (0.05, 0.2, 0.02, 1.0, 0.15)
EXIT_ITERATIONS = {0.0: (7, 12, 5, 8, 10), OFF_LINE_DELTA: (6, 13, 5, 8, 11)}


def _chunk_inputs(delta=0.0, drives=CHUNK_DRIVES):
    basis = build_basis(4, 2)
    points = [
        (build_h_eff(SystemParams(delta=delta, g=0.867, drive_strength=f), basis), 1.0, 1.0)
        for f in drives
    ]
    return points, basis


def _solve_chunk(delta=0.0, drives=CHUNK_DRIVES):
    # One chunk: the budget holds 27 points at D = 15.
    return list(jump_map_steady_states(*_chunk_inputs(delta, drives)))


def _solve_alone(delta=0.0):
    points, basis = _chunk_inputs(delta)
    return [_solve_alone_point(h, basis, kappa1, kappa2) for h, kappa1, kappa2 in points]


def _eig_input(h_prime, basis):
    """The matrix the solver's eig receives for h_prime: its B = -i U H' U^dag,
    real on the mirror line."""
    b = dynamics_mod._mirror_phases(basis) * h_prime
    return b if b.imag.any() else b.real


def _failed(states) -> list[bool]:
    return [isinstance(state, SteadyStateError) for state in states]


def _assert_same_solves(states, wants) -> None:
    """Each state has the bits and the record of the state it is paired with."""
    for state, want in zip(states, wants, strict=True):
        np.testing.assert_array_equal(state.matrix, want.matrix)
        assert state.solve == want.solve


def _retried_alone(monkeypatch, i: int, delta=0.0) -> DensityMatrix:
    """Chunk point i solved alone with its first eigenbasis declared unusable,
    so from the eigenbasis of its decay-scaled H'."""
    points, basis = _chunk_inputs(delta)
    h, kappa1, kappa2 = points[i]
    with monkeypatch.context() as patch:
        _nth_point_near_singular(patch, 1)
        return _solve_alone_point(h, basis, kappa1, kappa2)


def test_chunk_states_are_bitwise_the_single_point_states():
    _assert_same_solves(_solve_chunk(), _solve_alone())


# Loss rates (kappa1, kappa2) of the EXIT_DRIVES points, one pair each; alone
# the points then leave the fixed-point loop after 7, 11, 6, 8 and 10
# iterations, the fourth for the Krylov phase.
CHUNK_RATES = ((1.0, 0.5), (0.7, 1.3), (1.5, 0.2), (0.4, 2.0), (1.2, 0.9))


def test_chunk_with_distinct_loss_rates_is_bitwise_its_chunks_of_one():
    # The jump weights carry each point's rates: as the points leave the stack,
    # in an order other than their own, each must keep its weights.
    basis = build_basis(4, 2)
    points = [
        (build_h_eff(SystemParams(g=0.867, kappa1=k1, kappa2=k2, drive_strength=f), basis), k1, k2)
        for f, (k1, k2) in zip(EXIT_DRIVES, CHUNK_RATES)
    ]
    alone = [_solve_alone_point(h, basis, kappa1, kappa2) for h, kappa1, kappa2 in points]
    assert len({state.solve.krylov_from or state.solve.applications for state in alone}) == len(points)
    chunked = list(jump_map_steady_states(points, basis))
    assert not any(_failed(chunked))
    _assert_same_solves(chunked, alone)


def test_converged_points_leave_the_active_set(monkeypatch):
    sizes, floor = [], dynamics_mod._population_floor

    def recorded(populations, pairs):
        if populations.ndim == 2:  # the loop's stack, once per S^-1; the Krylov phase floors one point
            sizes.append(len(populations))
        return floor(populations, pairs)

    monkeypatch.setattr(dynamics_mod, "_population_floor", recorded)
    for delta, iterations in EXIT_ITERATIONS.items():
        sizes.clear()
        states = _solve_chunk(delta, EXIT_DRIVES)
        assert not any(_failed(states))
        # The stack shrinks as points finish or enter the Krylov phase: each
        # point is iterated exactly as often as alone, and the last point alone
        # runs to its own count.
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == len(EXIT_DRIVES) and sizes[-1] == 1
        assert len(sizes) == max(iterations)
        assert sum(sizes) == sum(iterations)
        assert _krylov_entries(states) == [iterations[3]]


def test_schur_fallback_point_in_a_chunk_matches_its_chunk_of_one(monkeypatch):
    # The third point's eigenvectors are declared near-singular; it is factored
    # again, alone, from its decay-scaled H', and the others keep their bits.
    for delta in CHUNK_ITERATIONS:
        eigenbasis = _solve_alone(delta)
        retried = _retried_alone(monkeypatch, 2, delta)
        assert not np.array_equal(retried.matrix, eigenbasis[2].matrix)
        with monkeypatch.context() as patch:
            _nth_point_near_singular(patch, 3)
            chunked = _solve_chunk(delta)
        _assert_same_solves(chunked, eigenbasis[:2] + [retried] + eigenbasis[3:])


def test_exactly_singular_point_keeps_its_chunk_mates_in_the_eigenbasis(monkeypatch):
    # The third point's eigenvectors get a zero column, so the stacked
    # inversion of V (of P, on the mirror line) raises; the chunk is factored
    # point by point, the third point is factored again from its decay-scaled
    # H', whose eig is left alone, and the others keep their eigenbasis bits.
    eig = np.linalg.eig
    for delta in CHUNK_ITERATIONS:
        points, basis = _chunk_inputs(delta)
        singular = _eig_input(decay_hamiltonian(points[2][0], basis, 1.0, 1.0), basis)

        def zero_column(h_primes):
            lam, v = eig(h_primes)
            for h_prime, v_point in zip(h_primes, v):
                if np.array_equal(h_prime, singular):
                    v_point[:, 1] = 0.0
            return lam, v

        eigenbasis = _solve_alone(delta)
        retried = _retried_alone(monkeypatch, 2, delta)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eig", zero_column)
            states = _solve_chunk(delta)
        _assert_same_solves(states, eigenbasis[:2] + [retried] + eigenbasis[3:])


def _raising_for(fn, *h_primes: np.ndarray):
    """fn raising LinAlgError, as a non-converging LAPACK call does, whenever its
    stack of matrices holds one of h_primes."""

    def raising(matrices, *args, **kwargs):
        if any(np.array_equal(m, h) for m in matrices for h in h_primes):
            raise np.linalg.LinAlgError("did not converge")
        return fn(matrices, *args, **kwargs)

    return raising


@pytest.mark.parametrize("retry_fails", [False, True], ids=["retry-certifies", "retry-fails"])
def test_failed_eigendecomposition_fails_only_its_point(retry_fails, monkeypatch):
    # The third point's eig raises, in the stack and alone: the chunk is
    # factored point by point, the third point is factored again from its
    # decay-scaled H', or fails alone where that eig raises too, and the
    # others keep their eigenbasis bits.
    for delta in CHUNK_ITERATIONS:
        points, basis = _chunk_inputs(delta)
        h, kappa1, kappa2 = points[2]
        failing = [_eig_input(decay_hamiltonian(h, basis, kappa1, kappa2), basis)]
        if retry_fails:  # the solver's retry scales the loss rates in B's diagonal
            failing.append(dynamics_mod._decay_scaled(failing[0][None])[0])
        eigenbasis = _solve_alone(delta)
        retried = _retried_alone(monkeypatch, 2, delta)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eig", _raising_for(np.linalg.eig, *failing))
            states = _solve_chunk(delta)
        assert _failed(states) == [False, False, retry_fails, False, False]
        expected = eigenbasis[:2] + [retried] + eigenbasis[3:]
        if retry_fails:
            del expected[2]
            failed = states.pop(2)
            assert str(failed).startswith("no usable eigenbasis of H', nor of H' with its loss rates")
            assert failed.solve == dynamics_mod.SolveRecord(retried=True)
        _assert_same_solves(states, expected)


def test_chunk_partition_gives_each_point_its_chunk_of_one_state(monkeypatch):
    # Undriven points (F = 0, and F = 0 with a real energy offset, whose
    # H'[0, 0] is not 0) leave the chunk with the vacuum; a driven point
    # retried from its decay-scaled H' sits between eigenbasis points.
    basis = build_basis(4, 2)
    for delta in CHUNK_ITERATIONS:
        driven = [
            build_h_eff(SystemParams(delta=delta, g=0.867, drive_strength=f), basis)
            for f in (0.05, 1.525, 3.0, 0.7875)
        ]
        undriven = build_h_eff(SystemParams(delta=delta, g=0.867), basis)
        h_effs = [driven[0], undriven, driven[1], undriven + 0.7 * np.eye(basis.dim), *driven[2:]]
        expected = [_solve_alone_point(h, basis, 1.0, 1.0) for h in h_effs]
        with monkeypatch.context() as patch:
            _nth_point_near_singular(patch, 1)
            expected[4] = _solve_alone_point(h_effs[4], basis, 1.0, 1.0)
        with monkeypatch.context() as patch:
            calls = _nth_point_near_singular(patch, 3)
            states = list(jump_map_steady_states([(h, 1.0, 1.0) for h in h_effs], basis))
        assert len(calls) == len(driven) + 1  # the retried point reaches it twice
        _assert_same_solves(states, expected)
        for i in (1, 3):
            np.testing.assert_array_equal(states[i].matrix, _vacuum(basis).matrix)
            assert states[i].solve == dynamics_mod.SolveRecord()  # the vacuum's: all zeros


def test_solver_streams_its_input_one_chunk_at_a_time(monkeypatch):
    basis = build_basis(4, 2)
    monkeypatch.setattr(dynamics_mod, "CHUNK_ENTRIES", 3 * basis.dim**2)
    h_effs = [
        build_h_eff(SystemParams(g=0.867, drive_strength=f), basis) for f in np.linspace(0.05, 3.0, 7)
    ]
    pulled = []

    def counted():
        for h in h_effs:
            pulled.append(None)
            yield h, 1.0, 1.0

    states = jump_map_steady_states(counted(), basis)
    first = next(states)
    assert len(pulled) <= 3
    states = [first, *states]
    assert len(pulled) == 7
    _assert_same_solves(states, [_solve_alone_point(h, basis, 1.0, 1.0) for h in h_effs])


def _assert_fails_as_alone(failed: SteadyStateError, i: int, drives=CHUNK_DRIVES) -> None:
    """failed, chunk point i's error, has the record and the message of that
    point solved as a chunk of one."""
    points, basis = _chunk_inputs(drives=drives)
    (alone,) = jump_map_steady_states([points[i]], basis)
    assert isinstance(alone, SteadyStateError)
    assert failed.solve == alone.solve
    assert str(failed) == str(alone)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_update_fails_only_its_point(monkeypatch):
    _wrap_eigenbasis_inverse(monkeypatch, lambda inverse: _poisoned_at_call(inverse, np.nan, point=1))
    states = _solve_chunk()
    assert _failed(states) == [False, True, False, False, False]
    assert str(states[1]) == "jump-map iteration produced non-finite entries at iteration 3"
    _assert_same_solves(states[::2], _solve_alone()[::2])
    monkeypatch.undo()
    _wrap_eigenbasis_inverse(monkeypatch, lambda inverse: _poisoned_at_call(inverse, np.nan, point=0))
    _assert_fails_as_alone(states[1], 1)


def test_budget_exhaustion_fails_only_its_point(monkeypatch):
    # The budget counts S^-1 applications: alone the points take 7, 12, 5, 24
    # and 10, the fourth with the Krylov phase.
    monkeypatch.setattr(dynamics_mod, "JUMP_MAP_MAX_ITERATIONS", 20)
    states = _solve_chunk(drives=EXIT_DRIVES)
    assert _failed(states) == [False, False, False, True, False]
    assert str(states[3]).startswith("jump-map iteration did not converge in 20 iterations")
    assert states[3].solve.applications <= dynamics_mod.JUMP_MAP_MAX_ITERATIONS
    _assert_fails_as_alone(states[3], 3, EXIT_DRIVES)


def test_certificate_failure_fails_only_its_point(monkeypatch):
    validate = DensityMatrix.validate

    def picky(state):
        if 0.3 < state.matrix[0, 0].real < 0.4:  # the second point only
            raise ValueError("state not positive: synthetic")
        validate(state)

    monkeypatch.setattr(DensityMatrix, "validate", picky)
    states = _solve_chunk()
    assert _failed(states) == [False, True, False, False, False]
    assert str(states[1]) == "certificate failed: state not positive: synthetic"


# ---------------------------------------------------------------- mirror line


def _mirror_b(p: SystemParams, basis) -> np.ndarray:
    """B = -i U H' U^dag of a point, as the solver forms it."""
    h_prime = decay_hamiltonian(build_h_eff(p, basis), basis, p.kappa1, p.kappa2)
    return dynamics_mod._mirror_phases(basis) * h_prime


def test_mirror_line_b_is_exactly_real_on_the_line_only():
    basis = build_basis(6, 3)
    # The blockade points delta = -delta_f of fig7a (g = 5) and fig7b
    # (g = g*) from either port: the left port's sum is exactly 0.0.
    shifts = [(g, resonance_angular_condition(g)) for g in (5.0, optimal_g(1.0, 1.0, 0.05))]
    on_line = [
        SystemParams(g=0.867, drive_strength=0.05),
        SystemParams(g=1.0, kappa2=0.1, drive_strength=3.0),
        *(SystemParams(delta=-shift, g=g, drive_strength=0.05, delta_f=shift) for g, shift in shifts),
    ]
    off_line = [
        SystemParams(delta=1e-300, g=0.867, drive_strength=0.05),
        *(SystemParams(delta=-shift, g=g, drive_strength=0.05, delta_f=-shift) for g, shift in shifts),
    ]
    for p in on_line:
        assert p.delta + p.delta_f == 0.0
        assert not _mirror_b(p, basis).imag.any(), p
    for p in off_line:
        assert _mirror_b(p, basis).imag.any(), p
    # The phases are those of -i U H' U^dag with U = diag(i^(n_a + n_b)).
    u = np.diag(np.array([1, 1j, -1, -1j])[(basis.occ_a + basis.occ_b) % 4])
    for p in on_line + off_line:
        h_prime = decay_hamiltonian(build_h_eff(p, basis), basis, p.kappa1, p.kappa2)
        np.testing.assert_array_equal(-1j * (u @ h_prime @ u.conj().T), _mirror_b(p, basis))


def _random_params(rng: np.random.Generator) -> SystemParams:
    """A point with kappa2 != kappa1 and delta_f != 0, almost surely off the mirror line."""
    return SystemParams(
        delta=rng.uniform(-6.0, 6.0),
        g=rng.uniform(0.0, 3.0),
        kappa1=rng.uniform(0.5, 2.0),
        kappa2=rng.uniform(0.1, 3.0),
        drive_strength=rng.uniform(0.0, 3.0),
        delta_f=rng.uniform(-3.0, 3.0),
    )


def test_mirror_partner_b_is_the_exact_conjugate():
    # x = delta + delta_f and -x, here by negating delta and delta_f, which
    # negates their sum exactly: each entry of B(-x) equals that of conj(B(x))
    # (an entry that is 0 may differ in the sign of its zero).
    basis = build_basis(6, 3)
    rng = np.random.default_rng(30)
    for _ in range(100):
        p = _random_params(rng)
        partner = dataclasses.replace(p, delta=-p.delta, delta_f=-p.delta_f)
        assert partner.delta + partner.delta_f == -(p.delta + p.delta_f)
        np.testing.assert_array_equal(_mirror_b(partner, basis), _mirror_b(p, basis).conj())


def _box_survey(count: int, cutoffs) -> list[SystemParams]:
    """count seeded draws from the parameter box, less those whose mean-field
    occupation (2 F / kappa1)^2 reaches half the fundamental cutoff, where
    truncation rather than the solver sets the numbers.

    The box: delta in [-10, 10]; g in [0, 10], a fifth of the draws
    log-uniform in [1e-6, 1]; kappa2 log-uniform in [1e-3, 10]; F
    log-uniform in [1e-6, 5]; delta_f in [-5, 5] for half the draws, else 0.
    """
    rng = np.random.default_rng(0)
    points = []
    for _ in range(count):
        g = 10.0 ** rng.uniform(-6.0, 0.0) if rng.random() < 0.2 else rng.uniform(0.0, 10.0)
        p = SystemParams(
            delta=rng.uniform(-10.0, 10.0),
            g=g,
            kappa2=10.0 ** rng.uniform(-3.0, 1.0),
            drive_strength=10.0 ** rng.uniform(-6.0, math.log10(5.0)),
            delta_f=rng.uniform(-5.0, 5.0) if rng.random() < 0.5 else 0.0,
        )
        if (2.0 * p.drive_strength / p.kappa1) ** 2 < cutoffs[0] / 2:
            points.append(p)
    return points


@pytest.mark.parametrize("cutoffs, count", [((6, 3), 500), ((8, 4), 100)], ids=["6-3", "8-4"])
def test_box_survey_solves_every_point_as_its_mirror_partner(cutoffs, count):
    # Only delta + delta_f enters H, and the outputs are even in it: each point
    # gives those of its partner delta' = -delta - 2 delta_f.  (433 of 500
    # points are kept at (6, 3) and 93 of 100 at (8, 4); the worst relative
    # difference was 2.0e-11.)
    points = _box_survey(count, cutoffs)
    partners = [dataclasses.replace(p, delta=-p.delta - 2.0 * p.delta_f) for p in points]
    results = solve_points(points + partners, cutoffs)
    assert [str(r) for r in results if isinstance(r, SteadyStateError)] == []
    for p, stats, mirrored in zip(points, results, results[len(points) :]):
        for name in OUTPUT_NAMES:
            got, want = getattr(mirrored, name), getattr(stats, name)
            if want is None or got is None:
                assert got is want, (name, p)
            else:
                assert got == pytest.approx(want, rel=1e-10, abs=0.0), (name, p)


def test_box_survey_sample_matches_dense_oracle():
    points = _box_survey(500, (6, 3))
    for i in np.random.default_rng(0).choice(len(points), 20, replace=False):
        _assert_matches_oracle(points[i], (6, 3))


@pytest.mark.parametrize("cutoffs", [(6, 3), (10, 5), (12, 6)])
def test_retried_b_scales_the_loss_rates(cutoffs):
    # The retry scales the real part of B's diagonal, -(kappa1 n_a + kappa2 n_b) / 2,
    # which matches B of H' with both loss rates scaled to within 2 ulp.
    basis = build_basis(*cutoffs)
    rng = np.random.default_rng(sum(cutoffs))
    scale, diagonal = dynamics_mod.JUMP_MAP_RETRY_DECAY_SCALE, np.eye(basis.dim, dtype=bool)
    for _ in range(200):
        p = _random_params(rng)
        b = _mirror_b(p, basis)
        retried = dynamics_mod._decay_scaled(b[None])[0]
        np.testing.assert_array_equal(retried[~diagonal], b[~diagonal])
        np.testing.assert_array_equal(retried.imag[diagonal], b.imag[diagonal])
        h_prime = decay_hamiltonian(build_h_eff(p, basis), basis, scale * p.kappa1, scale * p.kappa2)
        want = dynamics_mod._mirror_phases(basis) * h_prime
        np.testing.assert_array_max_ulp(retried.real[diagonal], want.real[diagonal], maxulp=2)


@pytest.mark.parametrize(
    "p",
    [
        SystemParams(g=0.867, drive_strength=0.05),
        SystemParams(g=0.867, drive_strength=3.0),
        SystemParams(delta=1.0, g=0.867, drive_strength=0.05),
    ],
    ids=["0.05", "3.0", "off-line"],
)
def test_block_form_inverse_undoes_s(p):
    # On the mirror line S(X) = B X + X B^T on a real symmetric X, then S^-1
    # from the block form B = P M P^-1 and the four-term mix; at F = 0.05 B
    # has real eigenvalues next to its complex pairs, at F = 3 none.  The
    # slowest decay rate, alpha = -0.005 at F = 0.05, scales the roundoff by
    # up to 1 / (2 alpha).  Off it S(X) = B X + X B^dag with the complex B on a
    # complex Hermitian X, with S^-1 from V, V^-1 and 1 / the denominator
    # alone: the error is 1.3e-12 there.
    basis = build_basis(6, 3)
    rng = np.random.default_rng(7)
    m = _mirror_b(p, basis)[None]
    if p.delta + p.delta_f == 0.0:
        m = m.real
        x = rng.normal(size=m.shape)
    else:
        x = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    x += x.conj().transpose(0, 2, 1)
    factors = np.empty((6 if m.dtype == float else 3, *m.shape), dtype=m.dtype)
    assert dynamics_mod._eigenbasis_factors(m, factors).all()
    r = m @ x + x @ m.conj().transpose(0, 2, 1)  # S(X) = B X + X B^dag
    got = dynamics_mod._eigenbasis_inverse(list(factors), r, np.empty_like(r))
    assert np.max(np.abs(got - x)) <= 1e-10 * np.max(np.abs(x))


def test_middle_step_scales_as_one_over_the_eigenvalues():
    # The closed forms of the four coefficients, over
    # N = (a^2 + (s_i - s_j)^2) (a^2 + (s_i + s_j)^2), overflow from |lam| ~ 1e77;
    # by complex division they stay finite and scale as 1 / lam: exactly, for
    # a power of two, which every step of the division carries through.
    rng = np.random.default_rng(11)
    d = 28
    b = rng.normal(size=(1, d, d)) - 8.0 * np.eye(d)
    lam, v = np.linalg.eig(b)
    assert lam.imag.any() and (lam.real < 0).all()
    lam = dynamics_mod._block_form(lam, v, np.empty_like(b))
    coefficients, scaled = np.empty((2, 4, 1, d, d))
    dynamics_mod._middle_step(lam, coefficients)
    scale = 2.0**266  # 1.2e80
    dynamics_mod._middle_step(scale * lam, scaled)
    assert np.isfinite(scaled).all()
    np.testing.assert_array_equal(scale * scaled, coefficients)


def _n_a_weak_drive(p: SystemParams) -> float:
    """n_a = F^2 / ((delta + delta_f)^2 + kappa1^2 / 4) of the empty-cavity
    coherent state, the weak-drive limit at kappa1 = 1."""
    return p.drive_strength**2 / ((p.delta + p.delta_f) ** 2 + 0.25)


@pytest.mark.parametrize("g", [0.0, 0.867])
@pytest.mark.parametrize("delta", [1.0, 3.0])
@pytest.mark.parametrize("drive", [1e-17, 1e-16])
def test_off_line_tiny_drive_solves_as_its_mirror_partner(drive, delta, g):
    # There eig returns the near-kernel eigenvalue of B with a real part of 0
    # or of roundoff of either sign: the floor of the middle step holds each
    # such pair sum on the decaying side, off the mirror line as on it.
    points = [SystemParams(delta=x, g=g, drive_strength=drive) for x in (delta, -delta)]
    results = solve_points(points, (6, 3))
    assert [str(r) for r in results if isinstance(r, SteadyStateError)] == []
    for p, stats in zip(points, results):
        assert stats.n_a == pytest.approx(_n_a_weak_drive(p), rel=1e-12, abs=0.0), p
    for name in OUTPUT_NAMES:
        got, want = getattr(results[1], name), getattr(results[0], name)
        if want is None or got is None:
            assert got is want, name
        else:
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), name


@pytest.mark.parametrize("g", [0.0, 0.867])
@pytest.mark.parametrize("delta", [1e14, 3e14, 1e15])
def test_large_detuning_keeps_the_floor_on_the_decay_scale(delta, g):
    # The imaginary parts of B's eigenvalues grow with the detuning, their
    # real parts do not.  A floor scaled by max |lam| left n_a 3.2x off at
    # delta = 3e14, and a floor applied to the resolved near-kernel rate
    # (-2.5e-31 at delta = 1e14) left it 5.6% off at g = 0.867.
    p = SystemParams(delta=delta, g=g, drive_strength=0.05)
    assert run_point(p, (6, 3)).n_a == pytest.approx(_n_a_weak_drive(p), rel=1e-12, abs=0.0)


def test_line_points_call_no_complex_lapack(monkeypatch):
    for delta, dtype in ((0.0, np.float64), (1e-300, np.complex128)):
        seen = set()

        def recorded(fn):
            def wrapper(a, *args, **kwargs):
                seen.add(np.asarray(a).dtype)
                return fn(a, *args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for name in ("eig", "inv", "cholesky"):
                patch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
            run_point(SystemParams(delta=delta, g=0.867, drive_strength=0.05), (6, 3))
        assert seen == {np.dtype(dtype)}, delta


@pytest.mark.parametrize(
    "params",
    [
        SystemParams(g=EXCEPTIONAL_G, drive_strength=1e-13),
        SystemParams(g=EXCEPTIONAL_G, drive_strength=0.05),
        SystemParams(g=1.0, kappa2=0.1, drive_strength=0.05),
        SystemParams(g=0.867, drive_strength=3.0),
        SystemParams(g=0.867, drive_strength=1e-10),
        SystemParams(g=10.0, drive_strength=0.05),
    ],
    ids=["exceptional-point-F1e-13", "exceptional-point-F0.05", "kappa2-0.1", "F3", "F1e-10", "g10"],
)
def test_line_states_match_dense_oracle(params):
    # Occupations below ROUNDOFF (n_b at F = 1e-13 and 1e-10) sit far below
    # the population floor and converge only in absolute terms.
    basis, a, b = make_ops(6, 3)
    h = build_h_eff(params, basis)
    assert not _mirror_b(params, basis).imag.any()
    expected = steady_state(build_liouvillian(h, a, b, params.kappa1, params.kappa2))
    state = _solve_alone_point(h, basis, params.kappa1, params.kappa2)
    assert np.max(np.abs(state.matrix - expected.matrix)) <= 1e-12 * np.max(np.abs(expected.matrix))
    got, want = photon_statistics(state, a, b), photon_statistics(expected, a, b)
    for name in ("g2_aa", "g2_bb", "n_a", "n_b"):
        if getattr(want, name) is None:
            assert getattr(got, name) is None, name
        else:
            floor = ROUNDOFF if name.startswith("n") else 0.0
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=floor), name


def test_line_point_bits_do_not_depend_on_its_chunk():
    # Alone, in a chunk of line points, and in a chunk that interleaves them
    # with off-line points (one chunk of ten: the budget holds 27 at D = 15).
    basis = build_basis(4, 2)
    line, _ = _chunk_inputs(0.0)
    off_line, _ = _chunk_inputs(OFF_LINE_DELTA)
    alone = _solve_alone(0.0)
    all_line = list(jump_map_steady_states(line, basis))
    mixed = list(jump_map_steady_states([p for pair in zip(off_line, line) for p in pair], basis))
    _assert_same_solves(all_line, alone)
    _assert_same_solves(mixed[1::2], alone)
    _assert_same_solves(mixed[::2], _solve_alone(OFF_LINE_DELTA))


def test_line_states_are_exactly_hermitian():
    # Off the line too: there two of the five points finish in the complex
    # Krylov phase, which writes each entry below the diagonal as the
    # conjugate of its mirror.
    for delta in (0.0, OFF_LINE_DELTA):
        for state in _solve_alone(delta):
            assert state.matrix.dtype == complex
            np.testing.assert_array_equal(state.matrix, state.matrix.conj().T)
            assert not state.matrix.diagonal().imag.any()


# ---------------------------------------------------------------- Krylov phase

# Strong-drive points at g = 2 where the fixed-point loop contracts at
# q = 0.98 to 0.997 and ran out of its 1000 iterations: at (10, 5) converged
# (last scaled update 4.2e-13), at (12, 6) not.  The (10, 5) values are the
# dense oracle's, to the digits printed.
HARD_POINT_10_5 = dict(g2_aa="2.006035561", g2_bb="32.55600571", n_a="0.3140588131", n_b="0.0127596234")


def test_krylov_phase_certifies_the_hard_point_at_10_5():
    stats = run_point(SystemParams(delta=-4.0, g=2.0, drive_strength=2.0), (10, 5))
    for name, printed in HARD_POINT_10_5.items():
        half_unit = 0.5 * 10.0 ** -len(printed.split(".")[1])
        assert getattr(stats, name) == pytest.approx(float(printed), rel=0.0, abs=half_unit), name


@pytest.mark.parametrize("delta, drive", [(4.0, 2.0), (5.0, 3.0)])
def test_krylov_phase_certifies_the_strong_drive_pairs_at_12_6(delta, drive):
    # delta and -delta are mirror images of each other; each pair gives the
    # same bits.
    plus, minus = (
        run_point(SystemParams(delta=d, g=2.0, drive_strength=drive), (12, 6)) for d in (delta, -delta)
    )
    assert plus == minus


@pytest.mark.parametrize(
    "cutoffs, delta",
    [((6, 3), 0.0), ((8, 4), 0.0), ((6, 3), 1.0), ((8, 4), 1.0)],
    ids=["cutoffs0", "cutoffs1", "cutoffs0-delta1", "cutoffs1-delta1"],
)
def test_slow_point_at_small_kappa2_matches_dense_oracle(cutoffs, delta):
    # The loop contracts at q = 0.996 at delta = 0, and its tail rule stopped
    # with the state 4.8e-10 (6, 3) and 1.8e-10 (8, 4) off the oracle's, n_b
    # 2.8e-10 and 1.1e-10.  At delta = 1 the point enters the Krylov phase at
    # iteration 8 off the mirror line, so the complex packing is held to the
    # same bounds.
    p = SystemParams(delta=delta, g=0.1, kappa2=0.1, drive_strength=1.0)
    basis, a, b = make_ops(*cutoffs)
    h = build_h_eff(p, basis)
    expected = steady_state(build_liouvillian(h, a, b, p.kappa1, p.kappa2))
    state = _solve_alone_point(h, basis, p.kappa1, p.kappa2)
    assert np.max(np.abs(state.matrix - expected.matrix)) <= 1e-12 * np.max(np.abs(expected.matrix))
    got, want = photon_statistics(state, a, b), photon_statistics(expected, a, b)
    for name in ("g2_aa", "g2_bb", "n_a", "n_b"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0), name


# One chunk at delta = -5, g = 0.3, cutoffs (8, 4) (the budget holds three
# points at D = 45): F = 1 and F = 2 enter the Krylov phase at iteration 8,
# their steps still above JUMP_MAP_SLOW_STEP; F = 0.5 enters it flat, at
# iteration 20, its scaled update no longer shrinking above
# JUMP_MAP_PLATEAU_TOL.  Roundoff decides the iteration at which a flat
# point enters.
FLAT_CHUNK_DRIVES = (0.5, 1.0, 2.0)
FLAT_CHUNK_ENTRIES = [8, 8, 20]


def test_krylov_point_has_its_bits_alone_and_in_a_chunk():
    for delta, krylov_points in KRYLOV_POINTS.items():
        alone = _solve_alone(delta)
        assert _krylov_entries(alone) == sorted(CHUNK_ITERATIONS[delta][i] for i in krylov_points)
        chunked = _solve_chunk(delta)
        assert len(_krylov_entries(chunked)) == len(krylov_points)
        _assert_same_solves(chunked, alone)
    basis = build_basis(8, 4)
    points = [
        (build_h_eff(SystemParams(delta=-5.0, g=0.3, drive_strength=f), basis), 1.0, 1.0)
        for f in FLAT_CHUNK_DRIVES
    ]
    alone = [_solve_alone_point(h, basis, kappa1, kappa2) for h, kappa1, kappa2 in points]
    assert _krylov_entries(alone) == FLAT_CHUNK_ENTRIES
    chunked = list(jump_map_steady_states(points, basis))
    assert _krylov_entries(chunked) == FLAT_CHUNK_ENTRIES
    _assert_same_solves(chunked, alone)


@pytest.mark.parametrize(
    "params, cutoffs",
    [
        (SystemParams(g=0.1, kappa2=0.1, drive_strength=1.0), (6, 3)),
        (SystemParams(g=optimal_g(1.0, 1.0, 0.05), drive_strength=2.0), (8, 4)),
        (SystemParams(delta=-4.0, g=2.0, drive_strength=2.0), (10, 5)),
    ],
    ids=["kappa2-0.1", "g-star-F2", "g2-delta-4"],
)
def test_converged_krylov_phase_stops_without_idle_calls(params, cutoffs, monkeypatch):
    # After the phase's last GMRES cycle the point needs one generator call,
    # whose residual certifies it; the fixed-point loop spent 22 to 33 calls
    # after a converged phase waiting for its exits.
    calls, after_cycles = [0], []
    generator, cycle = dynamics_mod._generator, dynamics_mod._gmres_cycle

    def counted(*args):
        calls[0] += 1
        return generator(*args)

    def recorded(*args):
        y = cycle(*args)
        after_cycles.append(calls[0])
        return y

    monkeypatch.setattr(dynamics_mod, "_generator", counted)
    monkeypatch.setattr(dynamics_mod, "_gmres_cycle", recorded)
    run_point(params, cutoffs)
    assert after_cycles and calls[0] - after_cycles[-1] <= 3


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_every_generator_call_is_in_the_record(monkeypatch):
    # No L(rho) is formed after a chunk's last point has left the loop: at
    # g = 2, delta = -4, F = 2, cutoffs (10, 5) for the Krylov phase (8 loop
    # iterations and 3 restarts), and at weak drive by a non-finite update
    # at iteration 3.
    calls = [0]
    generator = dynamics_mod._generator

    def counted(*args):
        calls[0] += 1
        return generator(*args)

    monkeypatch.setattr(dynamics_mod, "_generator", counted)
    p = SystemParams(delta=-4.0, g=2.0, drive_strength=2.0)
    basis = build_basis(10, 5)
    state = _solve_alone_point(build_h_eff(p, basis), basis, p.kappa1, p.kappa2)
    assert state.solve.krylov_from == 8
    assert calls[0] == state.solve.generator_calls == 11
    calls[0] = 0
    _wrap_eigenbasis_inverse(monkeypatch, lambda inverse: _poisoned_at_call(inverse, np.nan))
    basis = build_basis(6, 3)
    h = build_h_eff(SystemParams(g=0.867, drive_strength=0.05), basis)
    (failed,) = jump_map_steady_states([(h, 1.0, 1.0)], basis)
    assert isinstance(failed, SteadyStateError)
    assert calls[0] == failed.solve.generator_calls == 3


def test_budget_exhaustion_in_the_krylov_phase_raises(monkeypatch):
    # The third chunk point enters the phase at iteration 8 and needs 29
    # applications of S^-1 in all.
    monkeypatch.setattr(dynamics_mod, "JUMP_MAP_MAX_ITERATIONS", 25)
    points, basis = _chunk_inputs()
    h, kappa1, kappa2 = points[2]
    with pytest.raises(SteadyStateError, match=r"did not converge in 25 iterations.*residual") as info:
        _solve_alone_point(h, basis, kappa1, kappa2)
    assert info.value.solve.krylov_from == 8
    assert info.value.solve.applications <= dynamics_mod.JUMP_MAP_MAX_ITERATIONS


@pytest.mark.parametrize("budget", [8, 9])
def test_krylov_phase_spends_no_application_past_the_budget(budget, monkeypatch):
    # The point would enter the phase at iteration 8.  With a budget of 8
    # no restart fits, so it stays in the loop; with 9 its first restart
    # takes the last application and no cycle runs.
    monkeypatch.setattr(dynamics_mod, "JUMP_MAP_MAX_ITERATIONS", budget)
    points, basis = _chunk_inputs()
    h, kappa1, kappa2 = points[2]
    with pytest.raises(SteadyStateError, match=rf"did not converge in {budget} iterations") as info:
        _solve_alone_point(h, basis, kappa1, kappa2)
    assert info.value.solve.applications == budget
    assert info.value.solve.krylov_from == (0 if budget == 8 else 8)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_update_in_the_krylov_phase_raises(monkeypatch):
    # The 13th S^-1 is the phase's fifth: the point enters it at iteration 8.
    _wrap_eigenbasis_inverse(monkeypatch, lambda inverse: _poisoned_at_call(inverse, np.nan, call=13))
    points, basis = _chunk_inputs()
    h, kappa1, kappa2 = points[2]
    with pytest.raises(SteadyStateError, match=r"non-finite entries at iteration \d+$") as info:
        _solve_alone_point(h, basis, kappa1, kappa2)
    assert info.value.solve.krylov_from == 8


# ---------------------------------------------------------------- evolution


def test_evolve_zero_time_returns_input():
    basis, _, _ = make_ops(2, 1)
    lio = _liouvillian(SystemParams(g=1.0, drive_strength=0.05), 2, 1)
    rho0 = _vacuum(basis)
    out = evolve(rho0, lio, 0.0, 1e-3)
    np.testing.assert_array_equal(out.matrix, rho0.matrix)


def test_evolve_keeps_vacuum_without_drive():
    basis, _, _ = make_ops(3, 2)
    lio = _liouvillian(SystemParams(g=2.0, drive_strength=0.0), 3, 2)
    out = evolve(_vacuum(basis), lio, 5.0, 1e-3)
    np.testing.assert_allclose(out.matrix, _vacuum(basis).matrix, atol=1e-12)


def test_evolve_rejects_oversized_step():
    lio = _liouvillian(SystemParams(g=5.0, drive_strength=0.05), 3, 2)
    basis = lio.basis
    bound = 0.01 / max(lio.kappa1, lio.kappa2, lio.h_norm)
    with pytest.raises(ValueError):
        evolve(_vacuum(basis), lio, 1.0, 2 * bound)
    with pytest.raises(ValueError):
        evolve(_vacuum(basis), lio, -1.0, bound)
    with pytest.raises(ValueError):
        evolve(_vacuum(basis), lio, 1.0, 0.0)


def test_evolve_agrees_with_steady_state():
    # independent-solver cross-check on the resonant weak-drive system
    p = SystemParams(delta=0.0, g=5.0, kappa2=1.0, drive_strength=0.05)
    lio = _liouvillian(p)
    rho_ss = steady_state(lio)
    dt = 0.01 / max(lio.kappa1, lio.kappa2, lio.h_norm)
    rho_t = evolve(_vacuum(lio.basis), lio, 50.0, dt)
    assert np.max(np.abs(rho_t.matrix - rho_ss.matrix)) <= 1e-6


def test_evolve_preserves_hermiticity_and_trace():
    p = SystemParams(delta=1.0, g=2.0, drive_strength=0.05)
    lio = _liouvillian(p, 4, 2)
    basis = lio.basis
    dt = 0.01 / max(lio.kappa1, lio.kappa2, lio.h_norm)
    for t in (0.5, 5.0, 20.0):
        rho = evolve(_vacuum(basis), lio, t, dt)
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 1e-9
        assert abs(rho.trace() - 1.0) <= 1e-8


def test_trace_drift_rejected_for_corrupt_generator():
    lio = _liouvillian(SystemParams(g=1.0, drive_strength=0.05), 2, 1)
    corrupt = lio.matrix.copy()
    corrupt[0, 0] += 0.01  # breaks vec(I)^dag L = 0
    bad = Liouvillian(corrupt, lio.basis, lio.kappa1, lio.kappa2, lio.hamiltonian)
    dt = 0.01 / max(bad.kappa1, bad.kappa2, bad.h_norm)
    with pytest.raises(TraceDriftError):
        evolve(_vacuum(bad.basis), bad, 10.0, dt)


def test_evolve_rejects_basis_mismatch():
    lio = _liouvillian(SystemParams(g=1.0, drive_strength=0.05), 2, 1)
    other = _vacuum(build_basis(3, 1))
    with pytest.raises(ValueError):
        evolve(other, lio, 1.0, 1e-3)


# ------------------------------------------------------------ density matrix


def test_density_matrix_validation():
    basis = build_basis(1, 1)
    good = _vacuum(basis)
    good.validate()

    skew = np.zeros((basis.dim,) * 2, dtype=complex)
    skew[0, 0] = 1.0
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError):
        DensityMatrix(skew, basis).validate()

    off_trace = np.zeros((basis.dim,) * 2, dtype=complex)
    off_trace[0, 0] = 0.5
    with pytest.raises(ValueError):
        DensityMatrix(off_trace, basis).validate()

    negative = np.zeros((basis.dim,) * 2, dtype=complex)
    negative[0, 0] = 1.5
    negative[1, 1] = -0.5
    with pytest.raises(ValueError):
        DensityMatrix(negative, basis).validate()


def _rotated(eigenvalues, seed: int) -> np.ndarray:
    """A Hermitian matrix with these eigenvalues in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rho = (q * np.asarray(eigenvalues)) @ q.conj().T
    return (rho + rho.conj().T) / 2


def test_positivity_tolerance_decides_on_both_sides():
    basis = build_basis(2, 1)
    slightly_negative = _rotated([0.5, 0.3, 0.2 + 5e-9, 0.0, 0.0, -5e-9], 1)
    DensityMatrix(slightly_negative, basis).validate()
    negative = _rotated([0.5, 0.3, 0.2 + 2e-8, 0.0, 0.0, -2e-8], 2)
    with pytest.raises(ValueError, match=r"^state not positive: min eigenvalue -2\.000e-08$"):
        DensityMatrix(negative, basis).validate()
    rng = np.random.default_rng(3)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    DensityMatrix(np.outer(psi, psi.conj()), basis).validate()  # rank one


def test_the_record_stays_out_of_equality_and_repr():
    vacuum = _vacuum(build_basis(2, 1))
    state = DensityMatrix(vacuum.matrix, vacuum.basis, dynamics_mod.SolveRecord(7, 8, 0, False))
    assert state == vacuum and "solve" not in repr(state)
    stats = run_point(SystemParams(g=0.867, drive_strength=0.05), (4, 2))
    assert stats.solve.applications > 0 and stats == type(stats)(stats.g2_aa, stats.g2_bb, stats.n_a, stats.n_b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_fails_its_certificate(bad):
    basis = build_basis(2, 1)
    rho = _vacuum(basis).matrix.copy()
    rho[1, 2] = rho[2, 1] = bad
    with pytest.raises(ValueError, match="^state has non-finite entries$"):
        DensityMatrix(rho, basis).validate()
    with pytest.raises(SteadyStateError, match="non-finite entries"):
        dynamics_mod._certified(DensityMatrix(rho, basis), 0.0)


def test_nan_residual_fails_the_certificate():
    basis = build_basis(2, 1)
    with pytest.raises(SteadyStateError, match=r"residual nan exceeds"):
        dynamics_mod._certified(_vacuum(basis), math.nan)
