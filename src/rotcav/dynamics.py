"""Lindblad dynamics: steady state, Liouvillian build, time evolution.

The master equation

    drho/dt = L(rho) = -i [H, rho]
        + (kappa1/2)(2 a rho a^dag - a^dag a rho - rho a^dag a)
        + (kappa2/2)(2 b rho b^dag - b^dag b rho - rho b^dag b)

is solved for its steady state L(rho) = 0, Tr rho = 1, by two routes.

The production solver, :func:`jump_map_steady_state`, never forms a
superoperator.  With the non-Hermitian Hamiltonian
H' = H - (i/2)(kappa1 a^dag a + kappa2 b^dag b) the generator splits
into the no-jump part S(rho) = -i (H' rho - rho H'^dag) and the jumps
J(rho) = kappa1 a rho a^dag + kappa2 b rho b^dag (the quantum-jump
picture; Plenio & Knight, Rev. Mod. Phys. 70, 101 (1998)).  The state
is iterated in residual-update form, rho <- rho - S^-1(L(rho)), with
L(rho) formed in the Fock basis, then Hermitized and renormalized,
starting from a maximally mixed fundamental with an empty second
harmonic.  In exact arithmetic this is the trace-preserving renewal
map rho <- -S^-1(J(rho)), but applying that map directly lets the
roundoff of S^-1 accumulate in the state (4e-10 to 5e-9 relative in
g2_bb at the fig5 and fig7a points checked), whereas each residual
update only corrects the roundoff of the previous iterate.  For the
same reason the fixed point L(rho) = 0 does not depend on how
accurately S^-1 is applied: an inaccurate S^-1 only slows the
contraction.

S^-1 is applied in two bases.  Every point starts with one complex
Schur factorization H' = U T U^dag and a triangular Sylvester solve per
iteration, T Z - Z T^dag = i U^dag R U (LAPACK ztrsyl), which is
backward stable even where H' is defective (the exceptional point of
the |2,0>/|0,1> pair).  Weak-drive points, every point of the figure
presets, converge within that Schur prefix, so their bits are those of
the Schur solver alone.  A point still far from converged after the
prefix is slow (strong drive, large cutoffs) and finishes in the
eigenbasis H' = V diag(lam) V^-1, V = U W with W the eigenvectors of the
triangular T, where S^-1 is four D x D products, a fifth of the
Schur-basis cost at D = 45.  An ill-conditioned V costs accuracy in S^-1
only, which the residual update tolerates; a V too close to singular
to invert keeps the point in the Schur basis.  Without drive S is
singular (H'|0,0> = 0) and the vacuum, which is then stationary, is
returned directly.

The dense route vectorizes by column stacking: vec(rho) stacks the
columns of rho (numpy order='F'), in the same n_a-major index order as
the Fock basis, so that vec(A rho B) = (B^T kron A) vec(rho) and

    L = -i (I kron H  -  H^T kron I)
        + sum_c (kappa_c/2) (2 conj(c) kron c - I kron c^dag c - (c^dag c)^T kron I).

:func:`steady_state` solves L vec(rho) = 0 with the trace condition
imposed by replacing the first row of L (a diagonal-entry row, made
redundant by trace preservation) with vec(I)^dag, LU-factoring the
resulting square system, and refining the solution twice with the same
factors.  It stores and factors D^2 x D^2 matrices
(16 D^4 bytes, O(D^6) time), so it serves as the reference oracle the
tests compare the production solver against, not as a production path.
Both routes certify their state the same way: residual max |L(rho)| at
most STEADY_RESIDUAL_TOL against the full generator, and
:meth:`DensityMatrix.validate`.

The time integrator is an independent cross-check of the linear solve.
One fixed step h of classical fourth-order Runge-Kutta on the linear
system dv/dt = L v is the polynomial map

    P(h) = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24,

and n steps compose to P^n, which is applied to vec(rho0) by binary
powering.  This is bit-for-bit the same method as naive stepping up to
floating-point reassociation, but costs O(log n) matrix products
instead of O(n) matrix-vector products.  Because vec(I)^dag L = 0, RK4
preserves the trace exactly in exact arithmetic; the residual trace
drift over a run measures roundoff plus any defect in L, which is why
renormalizing along the way is forbidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .fock import FockBasis, ModeOperator, annihilator_a, annihilator_b, ladder

STEADY_RESIDUAL_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = -1e-8
TRACE_DRIFT_TOL = 1e-8

JUMP_MAP_MAX_ITERATIONS = 1000
# The jump-map iteration stops once its update, scaled entrywise by
# sqrt(p_i p_j) with p the populations floored at JUMP_MAP_POPULATION_FLOOR,
# is below JUMP_MAP_STALL_TOL and no longer shrinking.  Scaling makes
# small populations converge in relative terms: second-harmonic pairs
# entering g2_bb can be 1e-24 while the vacuum holds almost all the
# weight, so max |update| reaches roundoff long before they settle.
# Updates can grow between early iterations at strong drive, hence the
# threshold on the stall.  The floor is observables.VACUUM_OCCUPATION_EPS
# squared: an entry held there still settles to 1e-34, a ~1e-10 change in
# any g2 the guard lets through.  A lower floor scales the roundoff of
# nearly empty states up to the threshold (at 1e-30 the scaled update
# hovered at 1e-10 to 4e-10 at some fig4 points, stopping only by luck).
JUMP_MAP_STALL_TOL = 1e-10
JUMP_MAP_POPULATION_FLOOR = 1e-24
# A point whose scaled update is still above JUMP_MAP_SLOW_STEP after
# JUMP_MAP_SCHUR_ITERATIONS Schur-basis iterations finishes in H''s
# eigenbasis.  At iteration 15 the scaled update is at most 5.5e-9 over
# the figure presets at (6,3) (fig4a, fig4b and fig6 at 21 x 21, the
# rest at default resolution) and 4.2e-8 on the fig7a pair at (10,5), so
# none of those points switches; the strong-drive points (F = 0.5 to 2
# at (8,4)) sit at 7e-4 to 0.11 there.
JUMP_MAP_SCHUR_ITERATIONS = 15
JUMP_MAP_SLOW_STEP = 1e-6
# Past 1/sqrt(eps) the eigenvectors of H' are numerically dependent (H'
# is exactly defective) and the point stays in the Schur basis.  The
# 1-norm condition number of V = U W was at most 949 at 302 random switched
# points (F <= 3, g <= 3, cutoffs (6,3) and (8,4)) and 1897 at the exceptional
# point g = 1/(4 sqrt 2) at F = 3, cutoffs (12,6), as for V from eig(H').
JUMP_MAP_MAX_EIGENBASIS_CONDITION = 1.0 / math.sqrt(np.finfo(float).eps)
# The iteration also stops, and certifies, once its scaled update has set
# no new minimum for JUMP_MAP_STALL_ITERATIONS iterations and that minimum
# is at most JUMP_MAP_SLOW_STEP.  At strong drive, nearly empty states
# just above the floor keep the scaled update above JUMP_MAP_STALL_TOL
# from roundoff alone: on the grid delta in [-6, 6] (13 points) x F in
# {0.2, 0.5, 1, 2} at g = 0.867 the budget ran out at 12 of 52 points at
# (8,4) and 22 of 52 at (12,6).  At the 18 (8,4) points that stall, the
# minimum is 6e-11 to 1.1e-9 and is set by iteration 89; the residual at
# delta = -5, F = 0.5 is 1e-16.
JUMP_MAP_STALL_ITERATIONS = 20


class SteadyStateError(RuntimeError):
    """Steady-state solve failed (singular or inaccurate system)."""


class NonUniqueSteadyStateError(SteadyStateError):
    """The Liouvillian nullspace has dimension > 1."""


class TraceDriftError(RuntimeError):
    """Trace drifted beyond tolerance during time evolution."""


@dataclass(frozen=True)
class DensityMatrix:
    """D x D complex state with its basis."""

    matrix: np.ndarray
    basis: FockBasis

    def __post_init__(self):
        d = self.basis.dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"state shape {self.matrix.shape} does not match basis dim {d}"
            )

    def trace(self) -> complex:
        return np.trace(self.matrix)

    def expectation(self, op: np.ndarray) -> complex:
        return np.trace(op @ self.matrix)

    def validate(self) -> None:
        """Enforce Hermiticity, unit trace, and positivity tolerances."""
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"state not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = abs(self.trace() - 1.0)
        if tr > TRACE_TOL:
            raise ValueError(f"state trace off unity by {tr:.3e}")
        min_eig = float(np.min(scipy.linalg.eigvalsh(self.matrix)))
        if min_eig < POSITIVITY_TOL:
            raise ValueError(f"state not positive: min eigenvalue {min_eig:.3e}")


@dataclass(frozen=True)
class Liouvillian:
    """D^2 x D^2 superoperator acting on column-stacked states."""

    matrix: np.ndarray
    basis: FockBasis
    kappa1: float
    kappa2: float
    h_norm: float  # spectral norm of the Hamiltonian used in the build

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.dim


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix (order='F')."""
    return rho.reshape(-1, order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return vec.reshape((dim, dim), order="F")


def _add_sandwich(
    out4: np.ndarray, scale: complex, left: np.ndarray, right: np.ndarray
) -> None:
    """Accumulate scale * (right^T kron left) into the 4-index view of L.

    With column stacking, vec(left @ rho @ right) = (right^T kron left)
    vec(rho); entry ((j,i),(l,k)) of that Kronecker product is
    right[l,j] * left[i,k], so each nonzero of `right` contributes one
    dense block.  Writing blocks directly avoids materializing full
    D^2 x D^2 temporaries for every term.
    """
    for l, j in zip(*np.nonzero(right)):
        out4[j, :, l, :] += scale * right[l, j] * left


def _check_operands(
    h_eff: np.ndarray, a: ModeOperator, b: ModeOperator, kappa1: float, kappa2: float
) -> FockBasis:
    """The basis of H, a and b, which must be its annihilators; rejects bad input."""
    if kappa1 < 0 or kappa2 < 0:
        raise ValueError("loss rates must be non-negative")
    d = a.basis.dim
    if h_eff.shape != (d, d) or b.matrix.shape != (d, d):
        raise ValueError("Hamiltonian/operator dimensions do not match the basis")
    for op, annihilator in ((a, annihilator_a), (b, annihilator_b)):
        if not np.array_equal(op.matrix, annihilator(a.basis).matrix):
            raise ValueError("a and b must be the annihilators of their basis")
    return a.basis


def build_liouvillian(
    h_eff: np.ndarray,
    a: ModeOperator,
    b: ModeOperator,
    kappa1: float,
    kappa2: float,
) -> Liouvillian:
    """Assemble the master-equation generator for the given Hamiltonian."""
    basis = _check_operands(h_eff, a, b, kappa1, kappa2)
    d = basis.dim
    eye = np.eye(d)
    lio = np.zeros((d * d, d * d), dtype=complex)
    out4 = lio.reshape(d, d, d, d)
    _add_sandwich(out4, -1j, h_eff, eye)  # -i H rho
    _add_sandwich(out4, +1j, eye, h_eff)  # +i rho H
    for op, kappa in ((a, kappa1), (b, kappa2)):
        c = op.matrix
        n_op = op.dag() @ c
        _add_sandwich(out4, kappa, c, op.dag())  # kappa * c rho c^dag
        _add_sandwich(out4, -kappa / 2.0, n_op, eye)
        _add_sandwich(out4, -kappa / 2.0, eye, n_op)
    h_norm = float(np.max(np.abs(scipy.linalg.eigvalsh(h_eff))))
    return Liouvillian(lio, basis, kappa1, kappa2, h_norm)


def _trace_row(d: int) -> np.ndarray:
    row = np.zeros(d * d, dtype=complex)
    row[:: d + 1] = 1.0  # diagonal entries of a column-stacked matrix
    return row


def steady_state(lio: Liouvillian) -> DensityMatrix:
    """Solve L vec(rho) = 0 with Tr rho = 1 by trace-row replacement.

    Two steps of iterative refinement with the same LU factors restore
    the relative accuracy of small populations (unrefined, g2_bb can be
    2e-4 off at n_b = 4e-7).  Raises :class:`NonUniqueSteadyStateError`
    when the nullspace of L is more than one-dimensional, and
    :class:`SteadyStateError` when the augmented system is singular or
    the residual exceeds tolerance.
    """
    d = lio.dim
    trace_row = _trace_row(d)
    mod = lio.matrix.copy(order="F")  # zgetrf then factors it in place
    mod[0, :] = trace_row
    lu, piv, info = scipy.linalg.lapack.zgetrf(mod, overwrite_a=True)
    if info != 0:
        _diagnose_singular(lio)
        raise SteadyStateError(f"augmented steady-state system is singular (info {info})")
    vec = np.zeros(d * d, dtype=complex)
    for _ in range(3):  # the solve, then two refinement steps
        correction = lio.matrix @ vec
        correction[0] = trace_row @ vec - 1.0
        vec = vec - scipy.linalg.lu_solve((lu, piv), correction, check_finite=False)

    if not np.all(np.isfinite(vec)):
        _diagnose_singular(lio)
        raise SteadyStateError("steady-state solve produced non-finite entries")

    residual = float(np.max(np.abs(lio.matrix @ vec)))
    if residual > STEADY_RESIDUAL_TOL:
        _diagnose_singular(lio)
    return _certified(unvectorize(vec, d), lio.basis, residual)


def _diagnose_singular(lio: Liouvillian) -> None:
    """Distinguish a non-unique steady state from a plain solver failure."""
    svals = scipy.linalg.svdvals(lio.matrix)
    scale = svals[0] if svals[0] > 0 else 1.0
    nullity = int(np.sum(svals < 1e-10 * scale))
    if nullity > 1:
        raise NonUniqueSteadyStateError(
            f"Liouvillian nullspace dimension {nullity}; steady state is not unique"
        )


def decay_hamiltonian(
    h_eff: np.ndarray,
    a: ModeOperator,
    b: ModeOperator,
    kappa1: float,
    kappa2: float,
) -> np.ndarray:
    """Non-Hermitian H' = H - (i/2)(kappa1 a^dag a + kappa2 b^dag b) of the
    no-jump evolution, shared by the jump-map solver and the amplitude model."""
    return h_eff - 0.5j * (kappa1 * (a.dag() @ a.matrix) + kappa2 * (b.dag() @ b.matrix))


def jump_map_steady_state(
    h_eff: np.ndarray,
    a: ModeOperator,
    b: ModeOperator,
    kappa1: float,
    kappa2: float,
) -> DensityMatrix:
    """Steady state by the jump-map iteration; no superoperator.

    Iterates rho <- rho - S^-1(L(rho)) (see the module docstring), with
    S^-1 in H''s Schur basis and, for a point still slow after
    JUMP_MAP_SCHUR_ITERATIONS, in its eigenbasis, until the update,
    relative to the populations, reaches roundoff or stalls there; then
    certifies the state like :func:`steady_state`: residual max |L(rho)|
    against the full generator and :meth:`DensityMatrix.validate`.  Time and memory
    are O(D^3) and O(D^2) per iteration.  Raises
    :class:`SteadyStateError` when the iteration does not converge within
    JUMP_MAP_MAX_ITERATIONS, produces non-finite entries, or leaves a
    residual above tolerance.
    """
    basis = _check_operands(h_eff, a, b, kappa1, kappa2)
    h_prime = decay_hamiltonian(h_eff, a, b, kappa1, kappa2)
    jumps = [(kappa, *ladder(basis, mode)) for kappa, mode in ((kappa1, "a"), (kappa2, "b"))]
    terms = [np.empty((basis.dim - step,) * 2, dtype=complex) for _, step, _ in jumps]

    def generator(rho: np.ndarray) -> np.ndarray:
        """L(rho) for Hermitian rho, where rho H'^dag = (H' rho)^dag."""
        out = h_prime @ rho
        out -= out.conj().T
        out *= -1j
        for (kappa, step, sqrt_n), term in zip(jumps, terms):
            _jump_block(rho, step, sqrt_n, term)
            term *= kappa
            out[:-step, :-step] += term
        return out

    vacuum = np.zeros((basis.dim, basis.dim), dtype=complex)
    vacuum[0, 0] = 1.0
    if not np.any(generator(vacuum)):
        # Undriven: H'|0,0> = 0 makes S singular, and the vacuum is stationary.
        return _certified(vacuum, basis, 0.0)

    t, u = scipy.linalg.schur(h_prime, output="complex")
    u_dag = u.conj().T

    def schur_inverse(r: np.ndarray) -> np.ndarray:
        """S^-1(r) by one triangular Sylvester solve in the Schur basis."""
        c = u_dag @ r @ u
        c *= 1j
        z, scale, info = scipy.linalg.lapack.ztrsyl(t, t, c, trana="N", tranb="C", isgn=-1)
        if info < 0:
            raise SteadyStateError(f"ztrsyl rejected argument {-info}")
        z = u @ z @ u_dag
        z /= scale
        return z

    inverse = schur_inverse
    # Mixed fundamental, empty second harmonic: the drive reaches b only
    # through g, so every second-harmonic entry starts at its own scale.
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    empty_b = np.flatnonzero(basis.occ_b == 0)
    rho[empty_b, empty_b] = 1.0 / empty_b.size
    previous = best = math.inf
    best_at = 0
    for iteration in range(1, JUMP_MAP_MAX_ITERATIONS + 1):
        update = inverse(generator(rho))
        rho -= update
        rho += rho.conj().T
        rho *= 0.5
        rho /= np.trace(rho).real
        weight = np.sqrt(np.maximum(rho.diagonal().real, JUMP_MAP_POPULATION_FLOOR))
        scaled = np.abs(update)
        scaled /= np.outer(weight, weight)
        step = float(np.max(scaled))
        if not math.isfinite(step):
            raise SteadyStateError(
                f"jump-map iteration produced non-finite entries at iteration {iteration}"
            )
        if step < best:
            best, best_at = step, iteration
        stalled = best <= JUMP_MAP_SLOW_STEP and iteration - best_at >= JUMP_MAP_STALL_ITERATIONS
        if (step <= JUMP_MAP_STALL_TOL and step >= previous) or stalled:
            return _certified(rho, basis, float(np.max(np.abs(generator(rho)))))
        previous = step
        if iteration == JUMP_MAP_SCHUR_ITERATIONS and step > JUMP_MAP_SLOW_STEP:
            inverse = _eigenbasis_inverse(t, u) or inverse
    residual = float(np.max(np.abs(generator(rho))))
    raise SteadyStateError(
        f"jump-map iteration did not converge in {JUMP_MAP_MAX_ITERATIONS} "
        f"iterations (last scaled update {step:.3e}, residual {residual:.3e})"
    )


def _jump_block(rho: np.ndarray, step: int, sqrt_n: np.ndarray, out: np.ndarray) -> None:
    """(c rho c^dag)[:-step, :-step], its only nonzero block, into out for the
    annihilator c of this stride and sqrt(n) (fock.ladder); bit for bit c @ rho @ c^dag."""
    np.multiply(sqrt_n[:, None], rho[step:, step:], out=out)
    out *= sqrt_n


def _eigenbasis_inverse(t: np.ndarray, u: np.ndarray) -> Callable[[np.ndarray], np.ndarray] | None:
    """S^-1 in the eigenbasis H' = V diag(lam) V^-1, or None if V is near-singular.

    V = U W from H' = U T U^dag and the eigenvectors W of T.  With rho = V X V^dag,
    S(rho) = V [-i (lam_i - conj(lam_j)) X_ij] V^dag: four D x D products for S^-1.
    """
    lam, w = scipy.linalg.eig(t)
    v = u @ w
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:  # exactly singular
        return None
    # The 1-norm condition number needs no SVD, whose LAPACK code would
    # add ~1 MB to the peak resident memory.
    condition = np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1)
    if not condition <= JUMP_MAP_MAX_EIGENBASIS_CONDITION:
        return None
    v_dag, v_inv_dag = v.conj().T, v_inv.conj().T
    denominator = -1j * (lam[:, None] - lam.conj()[None, :])

    def eigenbasis_inverse(r: np.ndarray) -> np.ndarray:
        x = v_inv @ r @ v_inv_dag
        x /= denominator
        return v @ x @ v_dag

    return eigenbasis_inverse


def _certified(rho: np.ndarray, basis: FockBasis, residual: float) -> DensityMatrix:
    """The state, once its residual and :meth:`DensityMatrix.validate` pass."""
    if residual > STEADY_RESIDUAL_TOL:
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.0e}"
        )
    state = DensityMatrix(rho, basis)
    state.validate()
    return state


def _rk4_step_matrix(lio_matrix: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 propagator P(h) for dv/dt = L v."""
    b1 = h * lio_matrix
    b2 = b1 @ b1
    p = np.eye(lio_matrix.shape[0], dtype=complex) + b1 + b2 / 2.0
    p += (b2 @ b1) / 6.0 + (b2 @ b2) / 24.0
    return p


def evolve(
    rho0: DensityMatrix, lio: Liouvillian, t_final: float, dt: float
) -> DensityMatrix:
    """Propagate vec(rho) by fixed-step RK4 to t_final.

    dt must satisfy dt <= 0.01 / max(kappa1, kappa2, ||H||); the actual
    step is t_final/n for the smallest n with t_final/n <= dt.  Raises
    :class:`TraceDriftError` if |Tr rho(t_final) - Tr rho(0)| > 1e-8
    (no renormalization is ever applied).
    """
    if rho0.basis is not lio.basis and rho0.basis != lio.basis:
        raise ValueError("state and Liouvillian bases differ")
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    if t_final == 0:
        return DensityMatrix(rho0.matrix.copy(), rho0.basis)

    dt_max = 0.01 / max(lio.kappa1, lio.kappa2, lio.h_norm)
    if dt > dt_max * (1 + 1e-12):
        raise ValueError(
            f"dt = {dt:.3e} exceeds stability bound 0.01/max(kappa1, kappa2, ||H||) "
            f"= {dt_max:.3e}"
        )
    if dt <= 0:
        raise ValueError("dt must be positive")

    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    step = t_final / n_steps

    vec = vectorize(rho0.matrix).astype(complex)
    trace_in = np.real(np.sum(vec[:: lio.dim + 1]))

    base = _rk4_step_matrix(lio.matrix, step)
    n = n_steps
    while n:
        if n & 1:
            vec = base @ vec
        n >>= 1
        if n:
            base = base @ base

    trace_out = np.real(np.sum(vec[:: lio.dim + 1]))
    drift = abs(trace_out - trace_in)
    if drift > TRACE_DRIFT_TOL:
        raise TraceDriftError(
            f"trace drifted by {drift:.3e} over the run (> {TRACE_DRIFT_TOL:.0e}); "
            "reduce dt or check the generator"
        )
    return DensityMatrix(unvectorize(vec, lio.dim), lio.basis)
