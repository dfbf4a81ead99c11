import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotcav.dynamics as dynamics_mod
from rotcav.dynamics import decay_hamiltonian
from rotcav.fock import ladder
from conftest import kron_liouvillian, make_ops, solve_point
from rotcav import (
    DensityMatrix,
    Liouvillian,
    ModeOperator,
    NonUniqueSteadyStateError,
    SteadyStateError,
    SystemParams,
    TraceDriftError,
    annihilator_b,
    build_basis,
    build_h_eff,
    build_liouvillian,
    evolve,
    figure_preset,
    jump_map_steady_state,
    optimal_g,
    photon_statistics,
    run_point,
    steady_state,
    unvectorize,
    vectorize,
)

EXCEPTIONAL_G = 1.0 / (4.0 * math.sqrt(2.0))
ROUNDOFF = 1e-14


def _liouvillian(params: SystemParams, na=6, nb=3) -> Liouvillian:
    basis, a, b = make_ops(na, nb)
    h = build_h_eff(params, basis)
    return build_liouvillian(h, a, b, params.kappa1, params.kappa2)


def _vacuum(basis) -> DensityMatrix:
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(rho, basis)


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
        jump_map_steady_state(h, basis, 1.0, 1.0)


def test_negative_rates_rejected():
    basis, a, b = make_ops(2, 1)
    h = np.zeros((basis.dim,) * 2, dtype=complex)
    with pytest.raises(ValueError):
        build_liouvillian(h, a, b, -1.0, 1.0)
    with pytest.raises(ValueError):
        jump_map_steady_state(h, basis, -1.0, 1.0)


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
def test_sliced_jump_term_is_the_dense_product(cutoffs):
    basis, a, b = make_ops(*cutoffs)
    rng = np.random.default_rng(sum(cutoffs))
    for _ in range(3):
        x = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
        rho = x + x.conj().T
        for op, mode in ((a, "a"), (b, "b")):
            step, sqrt_n = ladder(basis, mode)
            sliced = np.zeros_like(rho)
            dynamics_mod._jump_block(rho, step, sqrt_n, sliced[:-step, :-step])
            np.testing.assert_array_equal(sliced, op.matrix @ rho @ op.dag())


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
    rho = jump_map_steady_state(h, basis, p.kappa1, p.kappa2)
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
# Schur-basis iterations.
FIG4_STALL_POINTS = [
    (-6.0, 0.1), (-5.52, 3.2), (-4.08, 0.2), (-3.96, 0.6), (-3.0, 0.3), (-2.52, 0.2),
    (-2.4, 0.2), (2.28, 0.2), (2.4, 0.2), (2.76, 0.3), (2.88, 0.3), (3.0, 0.3),
    (3.48, 0.5), (4.08, 0.2), (5.52, 3.2), (6.0, 0.1), (-3.84, 0.6), (3.84, 0.6),
]


def _count_solver_calls(monkeypatch, p: SystemParams, cutoffs) -> dict:
    """Calls of the eigenbasis S^-1 ("inverse", one per iteration), of ztrsyl and
    of eig in one run_point; patches undone after."""
    counts = {"inverse": 0, "ztrsyl": 0, "eig": 0}
    for module, name in ((scipy.linalg.lapack, "ztrsyl"), (scipy.linalg, "eig")):
        monkeypatch.setattr(module, name, _counted(getattr(module, name), counts, name))
    _wrap_eigenbasis_inverse(monkeypatch, lambda inverse: _counted(inverse, counts, "inverse"))
    run_point(p, cutoffs)
    monkeypatch.undo()
    return counts


def _counted(fn, counts: dict, name: str):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _wrap_eigenbasis_inverse(monkeypatch, wrap) -> None:
    """Route every stacked eigenbasis S^-1 the solver applies through wrap(inverse)."""
    monkeypatch.setattr(
        dynamics_mod, "_eigenbasis_inverse", wrap(dynamics_mod._eigenbasis_inverse)
    )


@pytest.mark.parametrize("delta, g", FIG4_STALL_POINTS)
def test_jump_map_converges_at_fig4_stall_points(delta, g, monkeypatch):
    # The exact grid values, e.g. 2.2799999999999994 rather than 2.28
    spec = figure_preset("fig4a")
    deltas, gs = spec.axis1.values(), spec.axis2.values()
    delta = float(deltas[np.argmin(np.abs(deltas - delta))])
    g = float(gs[np.argmin(np.abs(gs - g))])
    p = SystemParams(delta=delta, g=g, drive_strength=0.05)
    assert 0 < _count_solver_calls(monkeypatch, p, (6, 3))["inverse"] <= 50
    _assert_matches_oracle(p, (6, 3))


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
def test_weak_drive_hard_points_match_schur_only_path(params, cutoffs, monkeypatch):
    eigenbasis, _ = _assert_matches_oracle(params, cutoffs)
    _schur_only(monkeypatch)
    schur = run_point(params, cutoffs)
    for name in ("g2_aa", "g2_bb", "n_a", "n_b"):
        assert getattr(eigenbasis, name) == pytest.approx(getattr(schur, name), rel=1e-12), name


# Points at cutoffs (8, 4) where roundoff in nearly empty states keeps the
# scaled update above JUMP_MAP_STALL_TOL; without the stall exit the
# budget ran out at each.
ROUNDOFF_STALL_POINTS = [
    SystemParams(delta=-5.0, g=0.867, drive_strength=0.5),
    SystemParams(delta=-4.83, g=0.867, kappa2=0.273, drive_strength=0.856),
    SystemParams(delta=4.15, g=0.867, kappa2=0.933, drive_strength=0.426),
]


@pytest.mark.parametrize("params", ROUNDOFF_STALL_POINTS, ids=["F0.5", "F0.856", "F0.426"])
def test_jump_map_stops_at_roundoff_stall(params):
    _assert_matches_oracle(params, (8, 4))


@pytest.mark.parametrize(
    "params",
    [
        SystemParams(g=EXCEPTIONAL_G, drive_strength=2.0),
        SystemParams(g=optimal_g(1.0, 1.0, 0.05), drive_strength=2.0),
        SystemParams(g=1.0, kappa2=0.1, drive_strength=2.0),
    ],
    ids=["exceptional-point", "g-star", "kappa2-0.1"],
)
def test_slow_points_switch_to_eigenbasis_and_match_oracle(params, monkeypatch):
    counts = _count_solver_calls(monkeypatch, params, (8, 4))
    assert (counts["eig"], counts["ztrsyl"]) == (1, 0)
    _assert_matches_oracle(params, (8, 4))


# The slowest contraction of the grid delta in [-6, 6] (13 points) x
# F in {0.2, 0.5, 1, 2, 3} at g = 0.867, cutoffs (8, 4).  The scaled update
# repeats 8.5e-11 at two successive iterations there, and a rule stopping
# once it is small and no longer shrinking certified n_a 1.6e-10 relative
# off the long-double oracle.
@pytest.mark.parametrize("delta", [-1.0, 1.0])
def test_slow_contraction_points_match_oracle(delta, monkeypatch):
    p = SystemParams(delta=delta, g=0.867, drive_strength=2.0)
    assert _count_solver_calls(monkeypatch, p, (8, 4))["eig"] == 1
    stats, expected = _assert_matches_oracle(p, (8, 4))
    for name in ("g2_aa", "n_a"):
        assert getattr(stats, name) == pytest.approx(getattr(expected, name), rel=1e-13), name


def _schur_only(monkeypatch) -> None:
    monkeypatch.setattr(dynamics_mod, "_eigenbasis_factors", lambda t, u, out: False)


def test_eigenbasis_matches_schur_only_path(monkeypatch):
    p = SystemParams(g=0.867, drive_strength=3.0)
    switched = run_point(p, (12, 6))
    _schur_only(monkeypatch)
    schur = run_point(p, (12, 6))
    for name in ("g2_aa", "g2_bb", "n_a", "n_b"):
        assert getattr(switched, name) == pytest.approx(getattr(schur, name), rel=1e-10), name


# A repeated column leaves V invertible in floating point at a condition
# number near 1e17; a zero column makes the inversion raise.
@pytest.mark.parametrize("zero", [False, True], ids=["repeated-column", "zero-column"])
def test_near_singular_eigenvectors_keep_schur_path(zero, monkeypatch):
    basis = build_basis(6, 3)
    h = build_h_eff(SystemParams(g=0.867, drive_strength=3.0), basis)
    eig = scipy.linalg.eig
    calls = []

    def rank_deficient(matrix):
        calls.append(None)
        lam, v = eig(matrix)
        v[:, 1] = 0.0 if zero else v[:, 0]
        return lam, v

    monkeypatch.setattr(scipy.linalg, "eig", rank_deficient)
    rho = jump_map_steady_state(h, basis, 1.0, 1.0)
    assert len(calls) == 1
    _schur_only(monkeypatch)
    np.testing.assert_array_equal(rho.matrix, jump_map_steady_state(h, basis, 1.0, 1.0).matrix)


def test_undriven_jump_map_returns_vacuum():
    basis = build_basis(4, 2)
    h = build_h_eff(SystemParams(g=2.0, drive_strength=0.0), basis)
    rho = jump_map_steady_state(h, basis, 1.0, 1.0)
    np.testing.assert_array_equal(rho.matrix, _vacuum(basis).matrix)


def test_jump_map_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(dynamics_mod, "JUMP_MAP_MAX_ITERATIONS", 3)
    basis = build_basis(6, 3)
    h = build_h_eff(SystemParams(g=0.867, drive_strength=3.0), basis)
    with pytest.raises(SteadyStateError, match=r"did not converge in 3 iterations.*residual"):
        jump_map_steady_state(h, basis, 1.0, 1.0)


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
    return jump_map_steady_state(h, basis, 1.0, 1.0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_update_raises_at_its_iteration(bad, monkeypatch):
    _wrap_eigenbasis_inverse(monkeypatch, lambda inverse: _poisoned_at_call(inverse, bad))
    with pytest.raises(SteadyStateError, match=r"non-finite entries at iteration 3$"):
        _weak_drive_jump_map()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_schur_fallback_update_raises_at_its_iteration(monkeypatch):
    _schur_only(monkeypatch)
    poisoned = _poisoned_at_call(scipy.linalg.lapack.ztrsyl, np.nan)
    monkeypatch.setattr(scipy.linalg.lapack, "ztrsyl", poisoned)
    with pytest.raises(SteadyStateError, match=r"non-finite entries at iteration 3$"):
        _weak_drive_jump_map()


def test_jump_map_budget_exhaustion_in_eigenbasis_raises(monkeypatch):
    monkeypatch.setattr(dynamics_mod, "JUMP_MAP_MAX_ITERATIONS", 20)
    counts = {"eig": 0}
    monkeypatch.setattr(scipy.linalg, "eig", _counted(scipy.linalg.eig, counts, "eig"))
    basis = build_basis(6, 3)
    h = build_h_eff(SystemParams(g=0.867, drive_strength=3.0), basis)
    with pytest.raises(SteadyStateError, match=r"did not converge in 20 iterations.*residual"):
        jump_map_steady_state(h, basis, 1.0, 1.0)
    assert counts["eig"] == 1


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
        jump_map_steady_state(h, basis, p.kappa1, p.kappa2)


# ------------------------------------------------------------- chunked solves

# Drive strengths at g = 0.867, cutoffs (4, 2), that each take their own
# number of iterations alone: 10, 41, 73, 67 and 79.
CHUNK_DRIVES = (0.05, 0.7875, 1.525, 2.2625, 3.0)
CHUNK_ITERATIONS = (10, 41, 73, 67, 79)


def _chunk_inputs():
    basis = build_basis(4, 2)
    h_effs = [build_h_eff(SystemParams(g=0.867, drive_strength=f), basis) for f in CHUNK_DRIVES]
    return h_effs, basis, [(1.0, 1.0)] * len(h_effs)


def _solve_chunk():
    return dynamics_mod.jump_map_steady_states(*_chunk_inputs())


def _solve_alone():
    h_effs, basis, rates = _chunk_inputs()
    return [jump_map_steady_state(h, basis, *pair) for h, pair in zip(h_effs, rates)]


def _failed(states) -> list[bool]:
    return [isinstance(state, SteadyStateError) for state in states]


def test_chunk_states_are_bitwise_the_single_point_states():
    for chunked, alone in zip(_solve_chunk(), _solve_alone()):
        np.testing.assert_array_equal(chunked.matrix, alone.matrix)


def test_converged_points_leave_the_active_set(monkeypatch):
    sizes = []

    def recorded(inverse):
        def wrapper(factors, r, x):
            sizes.append(len(r))
            return inverse(factors, r, x)

        return wrapper

    _wrap_eigenbasis_inverse(monkeypatch, recorded)
    assert not any(_failed(_solve_chunk()))
    # The stack shrinks as points finish: each point is iterated exactly as
    # often as alone, and the last point alone runs to its own count.
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] == len(CHUNK_DRIVES) and sizes[-1] == 1
    assert len(sizes) == max(CHUNK_ITERATIONS)
    assert sum(sizes) == sum(CHUNK_ITERATIONS)


def test_schur_fallback_point_in_a_chunk_matches_its_chunk_of_one(monkeypatch):
    # The third point's eigenvectors are declared near-singular; it leaves the
    # chunk for the Schur basis, and the others stay in the eigenbasis.
    build = dynamics_mod._eigenbasis_factors
    calls = []

    def third_singular(t, u, out):
        calls.append(None)
        return len(calls) != 3 and build(t, u, out)

    eigenbasis = _solve_alone()
    _schur_only(monkeypatch)
    schur = _solve_alone()
    monkeypatch.setattr(dynamics_mod, "_eigenbasis_factors", third_singular)
    chunked = _solve_chunk()
    for i, state in enumerate(chunked):
        expected = schur[i] if i == 2 else eigenbasis[i]
        np.testing.assert_array_equal(state.matrix, expected.matrix)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_update_fails_only_its_point(monkeypatch):
    _wrap_eigenbasis_inverse(monkeypatch, lambda inverse: _poisoned_at_call(inverse, np.nan, point=1))
    states = _solve_chunk()
    assert _failed(states) == [False, True, False, False, False]
    assert str(states[1]) == "jump-map iteration produced non-finite entries at iteration 3"
    for state, alone in zip(states[::2], _solve_alone()[::2]):
        np.testing.assert_array_equal(state.matrix, alone.matrix)


def test_budget_exhaustion_fails_only_its_point(monkeypatch):
    monkeypatch.setattr(dynamics_mod, "JUMP_MAP_MAX_ITERATIONS", 75)
    states = _solve_chunk()
    assert _failed(states) == [False, False, False, False, True]
    assert str(states[4]).startswith("jump-map iteration did not converge in 75 iterations")


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
