"""Lindblad dynamics: steady state, Liouvillian build, time evolution.

The master equation

    drho/dt = L(rho) = -i [H, rho]
        + (kappa1/2)(2 a rho a^dag - a^dag a rho - rho a^dag a)
        + (kappa2/2)(2 b rho b^dag - b^dag b rho - rho b^dag b)

is solved for its steady state L(rho) = 0, Tr rho = 1, by two routes.

The production solver, :func:`jump_map_steady_states` (one chunk of
points on stacked arrays; :func:`jump_map_steady_state` is its chunk of
one), never forms a superoperator.  With the non-Hermitian Hamiltonian
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

S^-1 is applied in H''s eigenbasis H' = V diag(lam) V^-1, with V = U W
from one complex Schur factorization H' = U T U^dag and W the
eigenvectors of the triangular T.  There S^-1 is four D x D products
per iteration, a fifth of the cost of a triangular Sylvester solve at
D = 45.  An ill-conditioned V costs accuracy in S^-1 only, which the
residual update tolerates.  Where V is singular or its condition number
exceeds 1/sqrt(eps), as can happen at the exceptional point of the
|2,0>/|0,1> pair at vanishing drive, S^-1 is applied in the Schur basis: one
triangular Sylvester solve per iteration, T Z - Z T^dag = i U^dag R U
(LAPACK ztrsyl), which is backward stable even where H' is defective.
The iteration stops once the geometric tail of its remaining updates,
estimated from the ratio of successive updates, is below roundoff, or
once the updates sit on a roundoff plateau.  Without drive S is
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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg

from .fock import FockBasis, ModeOperator, annihilator_a, annihilator_b, ladder

STEADY_RESIDUAL_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = -1e-8
TRACE_DRIFT_TOL = 1e-8

JUMP_MAP_MAX_ITERATIONS = 1000
# The jump-map iteration measures its update entrywise relative to
# sqrt(p_i p_j), with p the populations floored at
# JUMP_MAP_POPULATION_FLOOR.  Scaling makes small populations converge in
# relative terms: second-harmonic pairs entering g2_bb can be 1e-24 while
# the vacuum holds almost all the weight, so max |update| reaches roundoff
# long before they settle.  The floor is observables.VACUUM_OCCUPATION_EPS
# squared: an entry held there still settles to 1e-34, a ~1e-10 change in
# any g2 the guard lets through.  A lower floor scales the roundoff of
# nearly empty states up to the stop thresholds (at 1e-30 the scaled
# update hovered at 1e-10 to 4e-10 at some fig4 points).
JUMP_MAP_POPULATION_FLOOR = 1e-24
# It stops once the geometric tail of the remaining updates,
# step q / (1 - q) with q = step / previous step, is at most
# JUMP_MAP_TAIL_TOL.  Unlike "small and no longer shrinking", this does
# not fire on an oscillating contraction: at delta = -1, F = 2, g = 0.867,
# cutoffs (8,4) the scaled update is 8.5e-11 at two successive iterations,
# where that rule stopped with n_a 1.6e-10 off.
JUMP_MAP_TAIL_TOL = 1e-13
# It also stops once the scaled update is at most JUMP_MAP_STALL_TOL and
# has set no new minimum for JUMP_MAP_PLATEAU_ITERATIONS iterations: a
# roundoff plateau, as at 10 of the 441 fig4b cells at 21 x 21, where n_b
# is just above the 1e-12 vacuum guard.
JUMP_MAP_STALL_TOL = 1e-10
JUMP_MAP_PLATEAU_ITERATIONS = 3
# The iteration also stops, and certifies, once its scaled update has set
# no new minimum for JUMP_MAP_STALL_ITERATIONS iterations and that minimum
# is at most JUMP_MAP_SLOW_STEP.  At strong drive, nearly empty states
# just above the floor keep the scaled update above JUMP_MAP_STALL_TOL
# from roundoff alone: on the grid delta in [-6, 6] (13 points) x F in
# {0.2, 0.5, 1, 2} at g = 0.867 the budget ran out at 12 of 52 points at
# (8,4) and 22 of 52 at (12,6).  At the 18 (8,4) points that stall, the
# minimum is 6e-11 to 1.1e-9 and is set by iteration 89; the residual at
# delta = -5, F = 0.5 is 1e-16.
JUMP_MAP_SLOW_STEP = 1e-6
JUMP_MAP_STALL_ITERATIONS = 20
# Past 1/sqrt(eps) the eigenvectors of H' are numerically dependent (H'
# is exactly defective) and S^-1 is applied in the Schur basis instead.
# At the exceptional point g = 1/(4 sqrt 2) the 1-norm condition number of
# V = U W grows as ~0.7/F at weak drive (7e2 at F = 1e-3, 7e5 at 1e-6) and
# levels off at 2e7 to 9e7, around the cut, from F = 1e-9 down: at
# cutoffs (10,5) and F = 1e-13 it is 8.7e7 and the Schur basis takes over.
# It was at most 949 at 302 random points (F <= 3, g <= 3, cutoffs (6,3)
# and (8,4)) and 1897 at the exceptional point at F = 3, cutoffs (12,6).
JUMP_MAP_MAX_EIGENBASIS_CONDITION = 1.0 / math.sqrt(np.finfo(float).eps)


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
    hamiltonian: np.ndarray  # the H of the build, read by the oracle's refinement

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.hamiltonian.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def h_norm(self) -> float:
        """Spectral norm of the Hamiltonian."""
        return float(np.max(np.abs(scipy.linalg.eigvalsh(self.hamiltonian))))


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


def _check_input(h_eff: np.ndarray, basis: FockBasis, kappa1: float, kappa2: float) -> None:
    """Reject negative loss rates and an H that does not fit the basis."""
    if kappa1 < 0 or kappa2 < 0:
        raise ValueError("loss rates must be non-negative")
    if h_eff.shape != (basis.dim, basis.dim):
        raise ValueError("Hamiltonian dimensions do not match the basis")


def build_liouvillian(
    h_eff: np.ndarray,
    a: ModeOperator,
    b: ModeOperator,
    kappa1: float,
    kappa2: float,
) -> Liouvillian:
    """Assemble the master-equation generator for the given Hamiltonian.

    a and b must be the annihilators of their basis, which the oracle's
    refinement (:func:`_extended_residual`) rebuilds from the basis alone.
    """
    basis = a.basis
    _check_input(h_eff, basis, kappa1, kappa2)
    for op, annihilator in ((a, annihilator_a), (b, annihilator_b)):
        if not np.array_equal(op.matrix, annihilator(basis).matrix):
            raise ValueError("a and b must be the annihilators of their basis")
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
    return Liouvillian(lio, basis, kappa1, kappa2, np.array(h_eff, dtype=complex))


def _trace_row(d: int) -> np.ndarray:
    row = np.zeros(d * d, dtype=complex)
    row[:: d + 1] = 1.0  # diagonal entries of a column-stacked matrix
    return row


def steady_state(lio: Liouvillian) -> DensityMatrix:
    """Solve L vec(rho) = 0 with Tr rho = 1 by trace-row replacement.

    One complex128 LU of the augmented system, then two steps of
    mixed-precision iterative refinement with the same factors: each
    residual is formed in np.clongdouble by :func:`_extended_residual`
    and the solution is accumulated in np.clongdouble, then cast to
    complex128 for the certificate.  Residuals in working precision
    stalled the refinement 1e-9 to 1e-8 relative off in g2_bb near the
    1e-12 vacuum guard; in extended precision it comes within 1e-13 of a
    40-digit solve of the same operator problem (Moler, J. ACM 14, 1967;
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 12).  Where np.longdouble is plain double (MSVC, Apple silicon)
    this is ordinary refinement in working precision.  Raises :class:`NonUniqueSteadyStateError` when the nullspace of L is
    more than one-dimensional, and :class:`SteadyStateError` when the
    augmented system is singular or the residual exceeds tolerance.
    """
    d = lio.dim
    mod = lio.matrix.copy(order="F")  # zgetrf then factors it in place
    mod[0, :] = _trace_row(d)
    lu, piv, info = scipy.linalg.lapack.zgetrf(mod, overwrite_a=True)
    if info != 0:
        _diagnose_singular(lio)
        raise SteadyStateError(f"augmented steady-state system is singular (info {info})")
    residual_of = _extended_residual(lio)
    rho = np.zeros((d, d), dtype=np.clongdouble)
    for _ in range(3):  # the solve, then two refinement steps
        correction = vectorize(residual_of(rho)).astype(complex)
        correction[0] = complex(np.trace(rho) - 1)
        rho -= unvectorize(
            scipy.linalg.lu_solve((lu, piv), correction, check_finite=False), d
        )

    vec = vectorize(rho).astype(complex)
    if not np.all(np.isfinite(vec)):
        _diagnose_singular(lio)
        raise SteadyStateError("steady-state solve produced non-finite entries")

    residual = float(np.max(np.abs(lio.matrix @ vec)))
    if residual > STEADY_RESIDUAL_TOL:
        _diagnose_singular(lio)
    return _certified(unvectorize(vec, d), lio.basis, residual)


def _extended_residual(lio: Liouvillian) -> Callable[[np.ndarray], np.ndarray]:
    """L(rho) in np.clongdouble from D x D products of H', a and b.

    -i (H' rho - rho H'^dag) + sum_c kappa_c c rho c^dag, written out from
    the operators rather than from lio.matrix or the jump-map generator,
    so that the oracle's refinement is an independent third form of L.
    The long-double D x D products cost ~3 ms at D = 66, next to seconds
    for the D^2 x D^2 LU; a long-double lio.matrix would take 32 D^4 bytes.
    """
    a, b = annihilator_a(lio.basis), annihilator_b(lio.basis)
    h_prime = decay_hamiltonian(lio.hamiltonian, lio.basis, lio.kappa1, lio.kappa2)
    h_prime = h_prime.astype(np.clongdouble)
    h_prime_dag = h_prime.conj().T
    ops = [(lio.kappa1, a.matrix), (lio.kappa2, b.matrix)]
    ops = [(kappa, c.astype(np.clongdouble)) for kappa, c in ops]

    def residual(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h_prime @ rho - rho @ h_prime_dag)
        for kappa, c in ops:
            out += kappa * (c @ rho @ c.conj().T)
        return out

    return residual


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
    h_eff: np.ndarray, basis: FockBasis, kappa1: float, kappa2: float
) -> np.ndarray:
    """Non-Hermitian H' = H - (i/2)(kappa1 a^dag a + kappa2 b^dag b) of the
    no-jump evolution, shared by the jump-map solver and the amplitude model.

    a^dag a is diagonal, sqrt(n)**2 rather than n: the bits of the product
    of the annihilators (sqrt(2)**2 = 2.0000000000000004).
    """
    decay = kappa1 * np.sqrt(basis.occ_a) ** 2 + kappa2 * np.sqrt(basis.occ_b) ** 2
    return h_eff - 0.5j * np.diag(decay)


def jump_map_steady_state(
    h_eff: np.ndarray, basis: FockBasis, kappa1: float, kappa2: float
) -> DensityMatrix:
    """Steady state by the jump-map iteration; no superoperator.

    A chunk of one point of :func:`jump_map_steady_states`; raises the
    :class:`SteadyStateError` that stopped the point.
    """
    (state,) = jump_map_steady_states([h_eff], basis, [(kappa1, kappa2)])
    if isinstance(state, SteadyStateError):
        raise state
    return state


def jump_map_steady_states(
    h_effs: Iterable[np.ndarray], basis: FockBasis, rates: Sequence[tuple[float, float]]
) -> list[DensityMatrix | SteadyStateError]:
    """Steady states of a chunk of points on one basis by the jump-map iteration.

    h_effs are the K Hamiltonians of the chunk and rates their K
    (kappa1, kappa2) pairs.  Iterates rho <- rho - S^-1(L(rho)) (see the
    module docstring) on (K, D, D) stacks, with S^-1 in each H''s
    eigenbasis, or in its Schur basis where the eigenvectors are too close
    to dependent, until the remaining updates of a point, relative to its
    populations, are estimated below roundoff or stall there.  That point
    then leaves the stack and is certified like :func:`steady_state`:
    residual max |L(rho)| against the full generator and
    :meth:`DensityMatrix.validate`.  Time and memory are O(K D^3) and
    O(K D^2) per iteration.

    Returns one entry per point: its certified state, or the
    :class:`SteadyStateError` that stopped it (no convergence within
    JUMP_MAP_MAX_ITERATIONS, non-finite entries, or a failed certificate).
    A point's bits depend neither on its chunk nor on its position in it:
    every stacked operation acts on each point's slice by the same BLAS
    call or elementwise loop as on a single point.
    """
    k, d = len(rates), basis.dim
    h_prime = np.empty((k, d, d), dtype=complex)
    for i, (h_eff, (kappa1, kappa2)) in enumerate(zip(h_effs, rates, strict=True)):
        _check_input(h_eff, basis, kappa1, kappa2)
        h_prime[i] = decay_hamiltonian(h_eff, basis, kappa1, kappa2)
    rates = np.array(rates, dtype=float).reshape(k, 2)
    work = np.empty((3, k, d, d), dtype=complex)  # rho, L(rho) and a scratch stack
    vacuum = np.zeros((d, d), dtype=complex)
    vacuum[0, 0] = 1.0
    work[0] = vacuum
    driven = _generator(h_prime, _jumps(basis, rates, work[2]), *work).any(axis=(1, 2))
    # Undriven: H'|0,0> = 0 makes S singular, and the vacuum is stationary.
    results = {i: _outcome(vacuum.copy(), basis, 0.0) for i in np.flatnonzero(~driven)}

    eigenbasis = np.empty((5, k, d, d), dtype=complex)  # see _eigenbasis_factors
    schur = np.empty(k, dtype=object)  # (T, U) of each point left to the Schur basis
    eigen_points, schur_points = [], []
    for i in np.flatnonzero(driven):
        t, u = scipy.linalg.schur(h_prime[i], output="complex")
        if _eigenbasis_factors(t, u, eigenbasis[:, len(eigen_points)]):
            eigen_points.append(i)
        else:
            schur[len(schur_points)] = (t, u)
            schur_points.append(i)

    # Each path iterates its points from the front of the stacks.
    order = eigen_points + schur_points
    h_prime[: len(order)], rates[: len(order)] = h_prime[order], rates[order]
    start = 0
    for points, inverse, factors in (
        (eigen_points, _eigenbasis_inverse, eigenbasis),
        (schur_points, _schur_inverse, schur[None]),
    ):
        n, stop = len(points), start + len(points)
        if n:
            states = _iterate(
                h_prime[start:stop], rates[start:stop], basis,
                inverse, list(factors[:, :n]), list(work[:, :n]),
            )
            results.update(zip(points, states))
        start = stop
    return [results[i] for i in range(k)]


def _iterate(
    h_prime: np.ndarray,
    rates: np.ndarray,
    basis: FockBasis,
    inverse: Callable[..., np.ndarray],
    factors: list[np.ndarray],
    work: list[np.ndarray],
) -> list[DensityMatrix | SteadyStateError]:
    """The jump-map iteration of a stack of driven points, one result per point.

    inverse(factors, r, x) overwrites the stacked residuals r with S^-1(r)
    and returns it, with x as scratch.  Every argument array holds one slice
    per point along its first axis; a point that converges or fails leaves
    the active set, and the others move to the front in place.  The stacks
    of work (rho, L(rho), x) are the only arrays of the loop.
    """
    rho, r, x = work
    # Mixed fundamental, empty second harmonic: the drive reaches b only
    # through g, so every second-harmonic entry starts at its own scale.
    rho[...] = 0.0
    empty_b = np.flatnonzero(basis.occ_b == 0)
    rho[:, empty_b, empty_b] = 1.0 / empty_b.size
    tracks = [_Track(i) for i in range(len(rho))]
    results: list = [None] * len(tracks)
    finished: list[int] = []  # positions in the stack, certified from the next L(rho)
    failed: list[int] = []
    jumps = _jumps(basis, rates, x)
    # x's bytes also hold the scaled update and the weights, once x is free.
    scaled, outer = x.reshape(-1).view(float).reshape(2, *x.shape)
    for iteration in itertools.count(1):
        _generator(h_prime, jumps, rho, r, x)
        for j in finished:
            residual = float(np.max(np.abs(r[j])))
            results[tracks[j].index] = _outcome(rho[j].copy(), basis, residual)
        if iteration > JUMP_MAP_MAX_ITERATIONS:
            for j, track in enumerate(tracks):
                if j not in finished and j not in failed:
                    residual = float(np.max(np.abs(r[j])))
                    results[track.index] = SteadyStateError(
                        f"jump-map iteration did not converge in {JUMP_MAP_MAX_ITERATIONS} "
                        f"iterations (last scaled update {track.step:.3e}, "
                        f"residual {residual:.3e})"
                    )
            return results
        if finished or failed:
            keep = np.ones(len(tracks), dtype=bool)
            keep[finished + failed] = False
            if not keep.any():
                return results
            tracks = [track for track, kept in zip(tracks, keep) if kept]
            h_prime, rates, rho, r, x, *factors = _keep(keep, h_prime, rates, rho, r, x, *factors)
            jumps = _jumps(basis, rates, x)
            scaled, outer = x.reshape(-1).view(float).reshape(2, *x.shape)
        update = inverse(factors, r, x)
        rho -= update
        np.conjugate(rho, out=x)
        rho += x.transpose(0, 2, 1)
        rho *= 0.5
        rho /= rho.trace(axis1=1, axis2=2).real[:, None, None]
        populations = rho.diagonal(axis1=1, axis2=2).real
        weight = np.sqrt(np.maximum(populations, JUMP_MAP_POPULATION_FLOOR))
        np.abs(update, out=scaled)
        np.multiply(weight[:, :, None], weight[:, None, :], out=outer)
        scaled /= outer
        finished, failed = [], []
        for j, (track, step) in enumerate(zip(tracks, scaled.max(axis=(1, 2)).tolist())):
            if not math.isfinite(step):
                results[track.index] = SteadyStateError(
                    f"jump-map iteration produced non-finite entries at iteration {iteration}"
                )
                rho[j] = 0.0  # stationary, so L(rho) stays finite until it leaves
                failed.append(j)
            elif track.stops(step, iteration):
                finished.append(j)


@dataclass
class _Track:
    """Stop-rule state of one point of a stacked jump-map iteration."""

    index: int  # position in the chunk
    previous: float = math.inf
    best: float = math.inf
    best_at: int = 0
    step: float = math.inf

    def stops(self, step: float, iteration: int) -> bool:
        """Record this iteration's scaled update; whether the iteration stops."""
        if step < self.best:
            self.best, self.best_at = step, iteration
        # step q / (1 - q) <= tol with q = step / previous, free of division
        tail = step * step <= JUMP_MAP_TAIL_TOL * (self.previous - step)
        converged = iteration > 1 and step < self.previous and tail
        since_best = iteration - self.best_at
        plateau = step <= JUMP_MAP_STALL_TOL and since_best >= JUMP_MAP_PLATEAU_ITERATIONS
        stalled = self.best <= JUMP_MAP_SLOW_STEP and since_best >= JUMP_MAP_STALL_ITERATIONS
        self.previous = self.step = step
        return converged or plateau or stalled


def _keep(keep: np.ndarray, *stacks: np.ndarray) -> list[np.ndarray]:
    """The kept points of each stack moved to its front in place, as views."""
    m = int(np.count_nonzero(keep))
    for stack in stacks:
        stack[:m] = stack[keep]
    return [stack[:m] for stack in stacks]


def _jumps(basis: FockBasis, rates: np.ndarray, scratch: np.ndarray) -> list[tuple]:
    """Per jump operator c of a and b: its stride and sqrt(n) (fock.ladder), each
    point's rate as an (n, 1, 1) stack, and a buffer for the stacked c rho c^dag
    block in scratch, contiguous because that halves the cost of the products."""
    n, d = scratch.shape[:2]
    flat = scratch.reshape(-1)
    return [
        (step, sqrt_n, kappa[:, None, None], flat[: n * (d - step) ** 2].reshape(n, d - step, d - step))
        for (step, sqrt_n), kappa in zip((ladder(basis, "a"), ladder(basis, "b")), rates.T)
    ]


def _generator(
    h_prime: np.ndarray, jumps: list[tuple], rho: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """L(rho) into out for a stack of Hermitian rho, where rho H'^dag = (H' rho)^dag;
    jumps from :func:`_jumps` on scratch, a stack of rho's shape."""
    np.matmul(h_prime, rho, out=out)
    np.conjugate(out, out=scratch)
    out -= scratch.transpose(0, 2, 1)
    out *= -1j
    for step, sqrt_n, kappa, term in jumps:
        _jump_block(rho, step, sqrt_n, term)
        term *= kappa
        out[:, :-step, :-step] += term
    return out


def _jump_block(rho: np.ndarray, step: int, sqrt_n: np.ndarray, out: np.ndarray) -> None:
    """(c rho c^dag)[:-step, :-step], its only nonzero block, into out for the
    annihilator c of this stride and sqrt(n) (fock.ladder), for one rho or a
    stack; bit for bit c @ rho @ c^dag."""
    np.multiply(sqrt_n[:, None], rho[..., step:, step:], out=out)
    out *= sqrt_n


def _eigenbasis_factors(t: np.ndarray, u: np.ndarray, out: np.ndarray) -> bool:
    """Write V, V^-1, their conjugates and the denominator of S in the eigenbasis
    H' = V diag(lam) V^-1 into out[0] to out[4]; False, with out unusable, if V
    is near-singular.

    V = U W from H' = U T U^dag and the eigenvectors W of T.  With rho = V X V^dag,
    S(rho) = V [-i (lam_i - conj(lam_j)) X_ij] V^dag.
    """
    lam, w = scipy.linalg.eig(t)
    v = np.matmul(u, w, out=out[0])
    try:
        v_inv = out[1] = np.linalg.inv(v)
    except np.linalg.LinAlgError:  # exactly singular
        return False
    # The 1-norm condition number needs no SVD, whose LAPACK code would
    # add ~1 MB to the peak resident memory.
    condition = np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1)
    if not condition <= JUMP_MAP_MAX_EIGENBASIS_CONDITION:
        return False
    np.conjugate(v, out=out[2])
    np.conjugate(v_inv, out=out[3])
    np.subtract(lam[:, None], lam.conj()[None, :], out=out[4])
    out[4] *= -1j
    return True


def _eigenbasis_inverse(factors: list[np.ndarray], r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S^-1(r) into r for a stack of points in their eigenbases, with the stacked
    factors of _eigenbasis_factors: four D x D products per point."""
    v, v_inv, v_conj, v_inv_conj, denominator = factors
    np.matmul(v_inv, r, out=x)
    np.matmul(x, v_inv_conj.transpose(0, 2, 1), out=r)
    r /= denominator
    np.matmul(v, r, out=x)
    return np.matmul(x, v_conj.transpose(0, 2, 1), out=r)


def _schur_inverse(factors: list[np.ndarray], r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S^-1(r) into r, point by point, by one triangular Sylvester solve in the
    Schur basis, T Z - Z T^dag = i U^dag R U; factors holds each point's (T, U)."""
    (schur,) = factors
    for (t, u), r_point in zip(schur, r):
        u_dag = u.conj().T
        c = u_dag @ r_point @ u
        c *= 1j
        z, scale, info = scipy.linalg.lapack.ztrsyl(t, t, c, trana="N", tranb="C", isgn=-1)
        if info < 0:
            raise SteadyStateError(f"ztrsyl rejected argument {-info}")
        z = u @ z @ u_dag
        z /= scale
        r_point[...] = z
    return r


def _outcome(rho: np.ndarray, basis: FockBasis, residual: float) -> DensityMatrix | SteadyStateError:
    """The certified state, or the SteadyStateError of its failed certificate."""
    try:
        return _certified(rho, basis, residual)
    except SteadyStateError as exc:
        return exc


def _certified(rho: np.ndarray, basis: FockBasis, residual: float) -> DensityMatrix:
    """The state, once its residual and :meth:`DensityMatrix.validate` pass."""
    if residual > STEADY_RESIDUAL_TOL:
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.0e}"
        )
    state = DensityMatrix(rho, basis)
    try:
        state.validate()
    except ValueError as exc:
        raise SteadyStateError(f"certificate failed: {exc}") from exc
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
