"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from rotcav import (
    SystemParams,
    annihilator_a,
    annihilator_b,
    build_basis,
    build_h_eff,
    build_liouvillian,
    steady_state,
)


def make_ops(na_cut=6, nb_cut=3):
    basis = build_basis(na_cut, nb_cut)
    return basis, annihilator_a(basis), annihilator_b(basis)


def solve_point(params: SystemParams, na_cut=6, nb_cut=3):
    """Full pipeline to the steady state; returns (rho, a, b)."""
    basis, a, b = make_ops(na_cut, nb_cut)
    h = build_h_eff(params, basis)
    lio = build_liouvillian(h, a, b, params.kappa1, params.kappa2)
    return steady_state(lio), a, b


def kron_liouvillian(h, a_mat, b_mat, kappa1, kappa2):
    """Reference build straight from the Kronecker-product convention."""
    d = h.shape[0]
    eye = np.eye(d)
    lio = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c, kappa in ((a_mat, kappa1), (b_mat, kappa2)):
        n_op = c.conj().T @ c
        lio += (kappa / 2.0) * (
            2.0 * np.kron(c.conj(), c) - np.kron(eye, n_op) - np.kron(n_op.T, eye)
        )
    return lio


def fail_at_points(monkeypatch, *numbers: int) -> None:
    """Make the sweep's streamed solver report a SteadyStateError at the given
    points, counted from 1 in the order they are solved, across calls."""
    import rotcav.sweep as sweep_mod
    from rotcav import SteadyStateError

    real = sweep_mod.jump_map_steady_states
    seen = [0]

    def flaky(points, basis):
        for state in real(points, basis):
            seen[0] += 1
            yield SteadyStateError("synthetic failure") if seen[0] in numbers else state

    monkeypatch.setattr(sweep_mod, "jump_map_steady_states", flaky)
