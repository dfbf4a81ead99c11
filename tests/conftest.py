"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from rotcav import (
    DensityMatrix,
    SystemParams,
    annihilator_a,
    annihilator_b,
    build_basis,
    build_h_eff,
)
from rotcav.oracle import Liouvillian, build_liouvillian, steady_state


def make_ops(na_cut=6, nb_cut=3):
    basis = build_basis(na_cut, nb_cut)
    return basis, annihilator_a(basis), annihilator_b(basis)


def liouvillian(params: SystemParams, na=6, nb=3) -> Liouvillian:
    basis, a, b = make_ops(na, nb)
    h = build_h_eff(params, basis)
    return build_liouvillian(h, a, b, params.kappa1, params.kappa2)


def vacuum(basis) -> DensityMatrix:
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(rho, basis)


def solve_point(params: SystemParams, na_cut=6, nb_cut=3):
    """Full pipeline to the steady state; returns (rho, a, b)."""
    lio = liouvillian(params, na_cut, nb_cut)
    return steady_state(lio), annihilator_a(lio.basis), annihilator_b(lio.basis)


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


def guard_empty_loop(monkeypatch) -> None:
    """Make the jump map's S^-1 raise AssertionError from its sixth
    application, so that a loop left running without points fails the test
    at once instead of spinning."""
    import rotcav.dynamics as dynamics_mod

    inverse, calls = dynamics_mod._eigenbasis_inverse, [0]

    def counted(*args):
        calls[0] += 1
        assert calls[0] <= 5, "S^-1 applied with no point left to iterate"
        return inverse(*args)

    monkeypatch.setattr(dynamics_mod, "_eigenbasis_inverse", counted)


def no_usable_eigenbasis(monkeypatch) -> None:
    """Make every eig raise LinAlgError, as a non-converging LAPACK call does,
    so that no driven point has a usable eigenbasis, not even decay-scaled;
    guarded by :func:`guard_empty_loop`."""

    def raising(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eig", raising)
    guard_empty_loop(monkeypatch)


def refine_extremum(
    xs: np.ndarray, ys: np.ndarray, kind: str = "min"
) -> tuple[float, float]:
    """Grid minimum (kind "min") or maximum ("max") location with 3-point
    parabolic refinement.

    Returns (refined x, grid extremum y).  Exact ties are broken toward
    the smaller x; a boundary extremum is returned unrefined.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("xs and ys must be equal-length 1D arrays, len >= 2")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("xs and ys must be finite; got a NaN or infinite entry")
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    target = np.min(ys) if kind == "min" else np.max(ys)
    candidates = np.flatnonzero(ys == target)
    i = int(candidates[np.argmin(xs[candidates])])
    if i == 0 or i == len(xs) - 1:
        return float(xs[i]), float(ys[i])
    x0, x1, x2 = xs[i - 1 : i + 2]
    y0, y1, y2 = ys[i - 1 : i + 2]
    denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if denom == 0.0:
        return float(x1), float(y1)
    shift = 0.5 * ((x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)) / denom
    return float(x1 - shift), float(y1)
