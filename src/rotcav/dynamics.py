"""Lindblad dynamics: the matrix-free steady-state solver.

The master equation

    drho/dt = L(rho) = -i [H, rho]
        + (kappa1/2)(2 a rho a^dag - a^dag a rho - rho a^dag a)
        + (kappa2/2)(2 b rho b^dag - b^dag b rho - rho b^dag b)

is solved for its steady state L(rho) = 0, Tr rho = 1, by
:func:`jump_map_steady_states`, which forms no superoperator.  The tests
and the benchmark check it against the dense route of :mod:`rotcav.oracle`.

With H' = H - (i/2)(kappa1 a^dag a + kappa2 b^dag b), L is the no-jump part
S(rho) = -i (H' rho - rho H'^dag) plus the jumps
J(rho) = kappa1 a rho a^dag + kappa2 b rho b^dag (Plenio & Knight, Rev.
Mod. Phys. 70, 101 (1998)).  A driven point is iterated as
rho <- rho - S^-1(L(rho)), Hermitized and renormalized, from |1,0><1,0|,
one renewal from the vacuum.  Its fixed point L(rho) = 0 does not depend
on the accuracy of S^-1, which sets only the contraction; the renewal map
rho <- -S^-1(J(rho)), equal in exact arithmetic, accumulates the roundoff
of S^-1 instead (4e-10 to 5e-9 in g2_bb, PR 3).  Guarantees:

- Frame.  A driven point is iterated as rho~ = U rho U^dag,
  U = diag(i^(n_a + n_b)), under B = -i U H' U^dag: S(rho~) =
  B rho~ + rho~ B^dag, and the jumps keep their form.  U's entries are +-1
  and +-i, so B is H' times exact phases (:func:`_mirror_phases`) and the
  rotation keeps residual, trace, Hermiticity, spectrum and populations.
  B is real on the mirror line delta + delta_f = 0, where the blockade
  conditions lie (Albert & Jiang, Phys. Rev. A 89, 022118 (2014)), and such
  a point runs in real arithmetic, with no complex LAPACK routine.
- Chunks.  A point's bits depend neither on its chunk nor on its place in
  it: each stacked operation acts on a point's slice by the same BLAS call
  or elementwise loop as on the point alone.
- S^-1 is applied in B's eigenbasis (:func:`_eigenbasis_factors`), or, where
  that is unusable, in the eigenbasis of B with its loss rates scaled
  (:func:`_decay_scaled`).  The generator keeps the true B, so only the
  contraction changes, never the fixed point or the certificate.
- Exits.  An undriven point returns the vacuum.  A driven point stops once
  its population-scaled updates reach roundoff (:class:`_Track`); one still
  above JUMP_MAP_SLOW_STEP at iteration JUMP_MAP_KRYLOV_ITERATIONS, or flat
  above the plateau from then on, is finished by restarted GMRES
  (:func:`_krylov`).  No usable eigenbasis, a non-finite update,
  JUMP_MAP_MAX_ITERATIONS applications of S^-1 or a failed certificate
  is a SteadyStateError.
- Certificate.  A state is returned only if the L(rho) that decided its
  exit has max |L(rho)| <= STEADY_RESIDUAL_TOL and it passes
  :meth:`DensityMatrix.validate`, as the oracle certifies its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .fock import FockBasis, ladder

STEADY_RESIDUAL_TOL = 1e-10
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = -1e-8

# The budget of S^-1 applications per point, loop and Krylov phase together.
JUMP_MAP_MAX_ITERATIONS = 1000
# Updates are measured entrywise relative to sqrt(p_i p_j), p the populations
# floored per point (:func:`_population_floor`), so that small populations
# converge in relative terms.  The floor is at least VACUUM_OCCUPATION_EPS**2:
# at 1e-30, roundoff held the scaled update at 1e-10 to 4e-10 at fig4 (PR 5).
JUMP_MAP_POPULATION_FLOOR = 1e-24
# ... and at least this fraction of the smaller pair moment, which moves no
# output by more than ~1e-13; with 1e-24 alone the fig7a pair at (10,5)
# waited 15 to 23 generator calls on such populations, where 7 do (PR 23).
JUMP_MAP_PAIR_FLOOR_FRACTION = 1e-6
# Stop once the tail of the updates, step q / (1 - q) with q the ratio of the
# last two steps, is at most this: "small and no longer shrinking" stopped an
# oscillating contraction at (8,4) with n_a 1.6e-10 off (PR 11).
JUMP_MAP_TAIL_TOL = 1e-13
# A point that has set no new minimum step for JUMP_MAP_PLATEAU_ITERATIONS
# iterations is flat; flat at most JUMP_MAP_PLATEAU_TOL, it stops (PR 24).
JUMP_MAP_PLATEAU_TOL = 1e-10
JUMP_MAP_PLATEAU_ITERATIONS = 3
# The tail is read only at steps below this, as two huge steps say nothing of
# the rate (at F = 1e-10 it stopped at iteration 2, n_a 3.4 relative off,
# PR 14), and a step above it at JUMP_MAP_KRYLOV_ITERATIONS enters the phase.
JUMP_MAP_SLOW_STEP = 1e-6
# Past this cond_1(V) the eigenvectors are numerically dependent (H' is
# defective at its exceptional point): 8.7e7 there at F = 1e-13, (10,5),
# against at most 513 at 302 random points (PR 19).
JUMP_MAP_MAX_EIGENBASIS_CONDITION = 1.0 / math.sqrt(np.finfo(float).eps)
# The retry's loss-rate scale moves the exceptional point off a point a few
# ulps from it (Heiss, J. Phys. A 45, 444016 (2012)): the 26 such of 504 seeded
# points went from cond_1(V) 6.7e7-2.0e8 to 1.6e4-1.9e4 and certified (PR 20).
JUMP_MAP_RETRY_DECAY_SCALE = 1.0 + math.sqrt(np.finfo(float).eps)
# No preset point enters the Krylov phase at its default cutoffs; all 8 of
# the benchmark's strong-drive sweep enter at this iteration (PRs 22, 36).
JUMP_MAP_KRYLOV_ITERATIONS = 8
# GMRES(JUMP_MAP_KRYLOV_RESTART) stops at a restart once the 2-norm of the
# scaled update is at most JUMP_MAP_KRYLOV_TOL, or once a cycle that reached
# the tolerance has not halved it: roundoff of nearly empty states floors it
# at up to 7e-5 at (12,6) (PR 22).
JUMP_MAP_KRYLOV_RESTART = 40
JUMP_MAP_KRYLOV_TOL = 5e-13


@dataclass(frozen=True)
class SolveRecord:
    """How the jump map solved one point, from its budget's own counters; zeros for the vacuum."""

    applications: int = 0  # S^-1 applications, in the loop and the Krylov phase
    generator_calls: int = 0  # L(rho) evaluations: loop iterations plus Krylov restarts
    krylov_from: int = 0  # the loop iteration at which it entered the Krylov phase, or 0
    retried: bool = False  # S^-1 factored from the decay-scaled B


class SteadyStateError(RuntimeError):
    """Steady-state solve failed; solve is the jump map's record of the point, or None."""

    def __init__(self, message: str, solve: SolveRecord | None = None):
        super().__init__(message)
        self.solve = solve


@dataclass(frozen=True)
class DensityMatrix:
    """D x D state with its basis: complex, or, inside the solver, in its
    rotated frame (:func:`_solve_points`); solve is the jump map's record."""

    matrix: np.ndarray
    basis: FockBasis
    solve: SolveRecord | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        d = self.basis.dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"state shape {self.matrix.shape} does not match basis dim {d}"
            )

    def trace(self) -> complex:
        return np.trace(self.matrix)

    def validate(self) -> None:
        """Enforce finite entries, Hermiticity, unit trace, and positivity tolerances.

        Positivity is one Cholesky factorization of rho - POSITIVITY_TOL I; the
        eigenvalues are computed only where it fails.  Non-finite entries are
        rejected first: they fail no comparison, and cholesky returns NaN.
        """
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("state has non-finite entries")
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"state not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = abs(self.trace() - 1.0)
        if tr > TRACE_TOL:
            raise ValueError(f"state trace off unity by {tr:.3e}")
        try:
            np.linalg.cholesky(self.matrix - POSITIVITY_TOL * np.eye(self.basis.dim))
        except np.linalg.LinAlgError:
            min_eig = float(np.min(np.linalg.eigvalsh(self.matrix)))
            if min_eig < POSITIVITY_TOL:
                raise ValueError(f"state not positive: min eigenvalue {min_eig:.3e}") from None


def _check_input(h_eff: np.ndarray, basis: FockBasis, kappa1: float, kappa2: float) -> None:
    """Reject negative loss rates and an H that does not fit the basis."""
    if kappa1 < 0 or kappa2 < 0:
        raise ValueError("loss rates must be non-negative")
    if h_eff.shape != (basis.dim, basis.dim):
        raise ValueError("Hamiltonian dimensions do not match the basis")


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


# A chunk holds CHUNK_ENTRIES // D**2 points, at least one: 8 at D = 28, 3 at
# D = 45, 1 from D = 66.  Memory bounds it, not speed (PR 13): a point holds
# 152 D**2 bytes off the mirror line, 168 at the peak, and 112 on it (PR 29),
# plus, in the Krylov phase, JUMP_MAP_KRYLOV_RESTART + 1 packed vectors.
CHUNK_ENTRIES = 8 * 28**2


def jump_map_steady_states(
    points: Iterable[tuple[np.ndarray, float, float]], basis: FockBasis
) -> Iterator[DensityMatrix | SteadyStateError]:
    """Steady states of points on one basis by the jump-map iteration.

    points yields each point's (h_eff, kappa1, kappa2).  They are pulled and
    solved a chunk at a time (CHUNK_ENTRIES), so at most one chunk of inputs
    and results is alive.  Yields one entry per point, in input order: its
    certified state or the SteadyStateError that stopped it.
    """
    size = max(1, CHUNK_ENTRIES // basis.dim**2)
    points = iter(points)
    while chunk := list(itertools.islice(points, size)):
        yield from _solve_chunk(chunk, basis)
        del chunk  # before the next chunk is pulled


def _solve_chunk(
    chunk: Sequence[tuple[np.ndarray, float, float]], basis: FockBasis
) -> list[DensityMatrix | SteadyStateError]:
    """Steady states of a chunk of K points, one per point, on (K, D, D) stacks.

    B is formed once for the chunk.  Undriven points get the vacuum; driven
    points on the mirror line, whose B is exactly real, are solved first, in
    real arithmetic, and the others after them, each group by
    :func:`_solve_points`, in O(K D^3) time and O(K D^2) memory per iteration.
    """
    k, d = len(chunk), basis.dim
    h_prime = np.empty((k, d, d), dtype=complex)
    for i, (h_eff, kappa1, kappa2) in enumerate(chunk):
        _check_input(h_eff, basis, kappa1, kappa2)
        h_prime[i] = decay_hamiltonian(h_eff, basis, kappa1, kappa2)
    rates = np.array([point[1:] for point in chunk], dtype=float).reshape(k, 2)
    results: list = [None] * k
    # L(|0,0><0,0|) = -i (H'|0,0><0,0| - h.c.) vanishes exactly when
    # H'[1:, 0] = 0 and H'_00 is real: the vacuum is then the steady state.
    driven = h_prime[:, 1:, 0].any(axis=1) | (h_prime[:, 0, 0].imag != 0)
    for i in np.flatnonzero(~driven):
        vacuum = np.zeros((d, d), dtype=complex)
        vacuum[0, 0] = 1.0
        results[i] = _outcome(DensityMatrix(vacuum, basis, SolveRecord()), 0.0)
    b = _mirror_phases(basis) * h_prime
    del h_prime
    line = driven & ~b.imag.any(axis=(1, 2))
    off_line = driven & ~line
    line_b, b = b.real[line], b[off_line]  # and the full stack is freed
    _solve_points(line_b, rates[line], np.flatnonzero(line), basis, results)
    del line_b
    _solve_points(b, rates[off_line], np.flatnonzero(off_line), basis, results)
    return results


def _mirror_phases(basis: FockBasis) -> np.ndarray:
    """The entrywise phases -i i^(p_j - p_k), p = n_a + n_b, of the rotation
    U = diag(i^p) of the solver's frame: B = -i U H' U^dag is phases * H', and
    a state rho~ = U rho U^dag of that frame is rho = conj(1j * phases) * rho~.
    Each entry is 1, -1, 1j or -1j, so both products are exact."""
    p = basis.occ_a + basis.occ_b
    return np.array([-1j, 1.0, 1j, -1.0])[(p[:, None] - p[None, :]) % 4]


def _solve_points(
    b: np.ndarray, rates: np.ndarray, points: np.ndarray, basis: FockBasis, results: list
) -> None:
    """Write the results of the driven points of a chunk, at positions points
    in it, into results, given the stacks of their B (real on the mirror line,
    complex off it) and rates.  Each state is certified in the rotated frame
    and rotated back.  This function owns the stacks of B, the rates and the
    factors of S^-1, one slice per point; :func:`_keep` drops the points
    without a usable eigenbasis from them."""
    if not len(points):
        return
    factors = np.empty((3 if b.dtype == complex else 6, *b.shape), dtype=b.dtype)
    usable = _eigenbasis_factors(b, factors)
    retried = ~usable
    for j in np.flatnonzero(retried):  # factored alone, so its bits are its chunk of one's
        usable[j] = _eigenbasis_factors(_decay_scaled(b[j : j + 1]), factors[:, j : j + 1])[0]
        if not usable[j]:
            results[points[j]] = SteadyStateError(
                "no usable eigenbasis of H', nor of H' with its loss rates scaled by 1 + sqrt(eps)",
                SolveRecord(retried=True),
            )
    b, rates, points, *factors = _keep(usable, b, rates, points, *factors)
    back = np.conjugate(1j * _mirror_phases(basis))
    for i, state in zip(points.tolist(), _iterate(b, rates, basis, factors, retried[usable])):
        if isinstance(state, DensityMatrix):
            state = DensityMatrix(back * state.matrix, basis, state.solve)
        results[i] = state


def _decay_scaled(b: np.ndarray) -> np.ndarray:
    """A copy of a stack of B with both loss rates scaled by
    JUMP_MAP_RETRY_DECAY_SCALE: the real part of B's diagonal is exactly
    -(kappa1 n_a + kappa2 n_b) / 2, as the phase -i of the diagonal makes
    H's own diagonal imaginary."""
    scaled = b.copy()
    diagonal = np.arange(b.shape[-1])
    scaled.real[:, diagonal, diagonal] *= JUMP_MAP_RETRY_DECAY_SCALE
    return scaled


def _iterate(
    b: np.ndarray,
    rates: np.ndarray,
    basis: FockBasis,
    factors: list[np.ndarray],
    retried: np.ndarray,
) -> list[DensityMatrix | SteadyStateError]:
    """The jump-map iteration of a stack of driven points, one result per point.

    b and factors are the stacks of B and of the factors of S^-1, one slice
    per point, and set the dtype; the state rho, L(rho), the scratch x, the
    scaled update and the jump weights are allocated here once.  Each
    iteration forms the L(rho) of its update once and decides every exit from
    it; :func:`_keep` then moves the points that stay to the front of every
    stack.  retried marks the points whose factors are decay-scaled.
    """
    n, d = len(b), basis.dim
    rho, r, x = np.empty((3, n, d, d), dtype=b.dtype)
    scaled = np.empty((n, d, d))
    jumps = _jump_views(basis, rates, rho, r, x)
    weights = [jump[-1] for jump in jumps]
    pairs = _pair_weights(basis)
    retried = retried.tolist()
    # One renewal from the vacuum: J(|1,0><1,0|) = kappa1 |0,0><0,0|, so the
    # first update is the normalized -kappa1 S^-1(|0,0><0,0|).
    rho[...] = 0.0
    one = basis.index(1, 0)
    rho[:, one, one] = 1.0
    _generator(b, rho, r, x, jumps)
    tracks = [_Track(i) for i in range(n)]
    results: list = [None] * n
    for iteration in itertools.count(1):
        update = _eigenbasis_inverse(factors, r, x)
        rho -= update
        # Hermitize without the factor 1/2, which the normalization absorbs
        # exactly: scaling by 2 commutes with rounding.
        np.conjugate(rho, out=x)
        rho += x.transpose(0, 2, 1)
        rho *= (1.0 / rho.trace(axis1=1, axis2=2).real)[:, None, None]
        populations = rho.diagonal(axis1=1, axis2=2).real
        floor = _population_floor(populations, pairs)
        inv_weight = 1.0 / np.sqrt(np.maximum(populations, floor[:, None]))
        np.abs(update, out=scaled)
        scaled *= inv_weight[:, :, None]
        scaled *= inv_weight[:, None, :]
        steps = scaled.max(axis=(1, 2)).tolist()
        failed = [j for j, step in enumerate(steps) if not math.isfinite(step)]
        if failed:
            rho[failed] = 0.0  # stationary, so L(rho) stays finite
        if len(failed) < len(steps):
            _generator(b, rho, r, x, jumps)
        keep = [False] * len(tracks)
        for j, (track, step) in enumerate(zip(tracks, steps)):
            i, point = track.index, slice(j, j + 1)
            if not math.isfinite(step):
                results[i] = _unfinished(step, SolveRecord(iteration, iteration, 0, retried[i]))
            elif track.stops(step, iteration):
                solve = SolveRecord(iteration, iteration + 1, 0, retried[i])
                results[i] = _outcome(DensityMatrix(rho[j].copy(), basis, solve), float(np.max(np.abs(r[j]))))
            elif track.enters(iteration):
                entry = SolveRecord(iteration, iteration, 0, retried[i])
                point_factors = [factor[point] for factor in factors]
                results[i] = _krylov(
                    b[point], point_factors, rates[i : i + 1], basis, rho[point], r[point], x[point], entry
                )
            elif iteration == JUMP_MAP_MAX_ITERATIONS:
                solve = SolveRecord(iteration, iteration + 1, 0, retried[i])
                results[i] = _unfinished(step, solve, float(np.max(np.abs(r[j]))))
            else:
                keep[j] = True
        if not all(keep):
            if not any(keep):
                return results
            tracks = [track for track, kept in zip(tracks, keep) if kept]
            b, rho, r, *stacks = _keep(np.array(keep), b, rho, r, *weights, *factors)
            weights, factors = stacks[: len(weights)], stacks[len(weights) :]
            x, scaled = x[: len(tracks)], scaled[: len(tracks)]


@dataclass
class _Track:
    """Stop-rule state of one point of a stacked jump-map iteration."""

    index: int  # position in the stacks given to _iterate
    best: float = math.inf
    best_at: int = 0
    step: float = math.inf
    flat: bool = False  # no new minimum for JUMP_MAP_PLATEAU_ITERATIONS iterations

    def enters(self, iteration: int) -> bool:
        """Whether a point that does not stop enters the Krylov phase with budget
        left for a restart: from iteration JUMP_MAP_KRYLOV_ITERATIONS on, flat,
        or with its step still above JUMP_MAP_SLOW_STEP."""
        return JUMP_MAP_KRYLOV_ITERATIONS <= iteration < JUMP_MAP_MAX_ITERATIONS and (
            self.flat or self.step > JUMP_MAP_SLOW_STEP
        )

    def stops(self, step: float, iteration: int) -> bool:
        """Record this iteration's scaled update; whether the iteration stops."""
        previous, self.step = self.step, step
        if step < self.best:
            self.best, self.best_at = step, iteration
        # step q / (1 - q) <= tol with q = step / previous, free of division
        tail = step * step <= JUMP_MAP_TAIL_TOL * (previous - step)
        converged = iteration > 1 and step <= JUMP_MAP_SLOW_STEP and step < previous and tail
        self.flat = iteration - self.best_at >= JUMP_MAP_PLATEAU_ITERATIONS
        return converged or (self.flat and step <= JUMP_MAP_PLATEAU_TOL)


def _krylov(
    b: np.ndarray,
    factors: list[np.ndarray],
    rates: np.ndarray,
    basis: FockBasis,
    rho: np.ndarray,
    r: np.ndarray,
    x: np.ndarray,
    entry: SolveRecord,
) -> DensityMatrix | SteadyStateError:
    """Finish one point of :func:`_iterate` by restarted GMRES on the root of
    delta -> S^-1(L(delta)); its certified state or its error.

    b, factors, rates, rho, r and x are the point's slices of the loop's
    stacks: rho its iterate, r that iterate's L(rho) and x scratch.  entry is
    its loop record, whose budget the phase keeps counting.  The unknowns are
    delta = W^1/2 Y W^1/2, W the floored populations, with Y packed as its
    upper triangle in the state's dtype.  Each application unpacks an exactly
    Hermitian delta and packs the Hermitian part of its image: on an
    anti-Hermitian part M + M^dag is not L, and GMRES stalled (PR 22).
    """
    d = basis.dim
    jumps = _jump_views(basis, rates, rho, r, x)
    i, j = np.triu_indices(d)
    up, lo = i * d + j, j * d + i  # each entry of Y's upper triangle and its mirror
    packed = np.empty(len(up), dtype=rho.dtype)
    vectors = np.empty((JUMP_MAP_KRYLOV_RESTART + 1, packed.view(float).size))
    t = np.empty_like(vectors[0])
    ww, iw = np.empty((2, len(up)))
    flat_rho, flat_r = rho.reshape(-1), r.reshape(-1)
    pairs = _pair_weights(basis)

    def unpack(y: np.ndarray) -> None:
        """W^1/2 Y W^1/2 into rho, with each entry below the diagonal the
        conjugate of its mirror."""
        np.multiply(y.view(rho.dtype), ww, out=packed)
        flat_rho[up] = packed
        flat_rho[lo] = np.conjugate(packed, out=packed)

    def pack(out: np.ndarray) -> None:
        """The Hermitian part of S^-1(r), scaled by W^-1/2 on both sides, into out."""
        _eigenbasis_inverse(factors, r, x)
        entries = out.view(rho.dtype)
        flat_r.take(up, out=entries)
        entries += np.conjugate(flat_r.take(lo, out=packed), out=packed)
        entries *= iw

    def apply(y: np.ndarray, out: np.ndarray) -> None:
        # S^-1(L(delta)) = delta + S^-1(J(delta)): the cycle builds its basis
        # from the renewal part alone, one D x D product fewer.
        nonlocal calls
        unpack(y)
        r.fill(0.0)
        _add_jumps(1, jumps)
        calls += 1
        pack(out)

    state = rho[0].copy()
    best, solved, calls = math.inf, False, entry.applications
    for restart in itertools.count(1):
        residual = float(np.max(np.abs(r)))
        populations = state.diagonal().real
        w = np.sqrt(np.maximum(populations, _population_floor(populations, pairs)))
        np.take(np.outer(w, w).reshape(-1), up, out=ww)
        np.divide(0.5, ww, out=iw)
        pack(vectors[0])
        calls += 1
        step = math.sqrt(vectors[0] @ vectors[0])
        solve = SolveRecord(calls, entry.generator_calls + restart, entry.applications, entry.retried)
        if not math.isfinite(step):
            return _unfinished(step, solve)
        if step <= JUMP_MAP_KRYLOV_TOL or (solved and step > 0.5 * best):
            return _outcome(DensityMatrix(state, basis, solve), residual)
        if calls >= JUMP_MAP_MAX_ITERATIONS - 1:  # the next restart applies S^-1 too
            return _unfinished(step, solve, residual)
        best = min(best, step)
        vectors[0] *= -1.0 / step  # the update is subtracted
        y, solved = _gmres_cycle(apply, vectors, step, t, JUMP_MAP_MAX_ITERATIONS - 1 - calls)
        unpack(np.matmul(y, vectors[: len(y)], out=t))
        state += rho[0]
        state *= 1.0 / state.trace().real
        rho[0] = state
        _generator(b, rho, r, x, jumps)


def _unfinished(step: float, solve: SolveRecord, residual: float = math.nan) -> SteadyStateError:
    """The error of a jump-map point left without a state, by the loop or by
    :func:`_krylov`: non-finite entries where its scaled update step is not
    finite, else no convergence within JUMP_MAP_MAX_ITERATIONS."""
    message = f"jump-map iteration produced non-finite entries at iteration {solve.applications}"
    if math.isfinite(step):
        message = (
            f"jump-map iteration did not converge in {JUMP_MAP_MAX_ITERATIONS} "
            f"iterations (last scaled update {step:.3e}, residual {residual:.3e})"
        )
    return SteadyStateError(message, solve)


def _pair_weights(basis: FockBasis) -> np.ndarray:
    """The weights n (n - 1) that take populations to the pair moments
    <a^dag^2 a^2> and <b^dag^2 b^2>, as the two rows of a 2 x D array."""
    return np.stack([occ * (occ - 1.0) for occ in (basis.occ_a, basis.occ_b)])


def _population_floor(populations: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The population floor of each point of a stack of populations (or of
    one point's): JUMP_MAP_PAIR_FLOOR_FRACTION times its smaller pair moment
    (pairs from :func:`_pair_weights`), but at least JUMP_MAP_POPULATION_FLOOR.
    The moments are elementwise sums, not a BLAS product, whose order of
    summation can depend on the number of points."""
    moments = (populations[..., None, :] * pairs).sum(axis=-1)
    return np.maximum(JUMP_MAP_POPULATION_FLOOR, JUMP_MAP_PAIR_FLOOR_FRACTION * moments.min(axis=-1))


def _gmres_cycle(
    apply: Callable[[np.ndarray, np.ndarray], None],
    vectors: np.ndarray,
    beta: float,
    t: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, bool]:
    """One cycle of GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 856
    (1986)) for (1 + N) y = beta vectors[0], vectors[0] of unit norm, with
    apply(v, out) writing N v: the coefficients of y in vectors, whose rows
    it overwrites with the Arnoldi basis, and whether the least-squares
    residual reached JUMP_MAP_KRYLOV_TOL.

    At most JUMP_MAP_KRYLOV_RESTART and budget applications.  The basis is
    built for N, which has the Krylov space of 1 + N and cancels less on it:
    one classical Gram-Schmidt pass, and a second where the first takes the
    norm below 0.7 times.  The Givens rotations run on Python floats.
    """
    g, columns, rotations = [beta], [], []
    for k in range(min(JUMP_MAP_KRYLOV_RESTART, budget)):
        w, span = vectors[k + 1], vectors[: k + 1]
        apply(vectors[k], w)
        before = math.sqrt(w @ w)
        h = np.dot(span, w)
        w -= np.dot(h, span, out=t)
        norm = math.sqrt(w @ w)
        if norm < 0.7 * before:
            again = np.dot(span, w)
            w -= np.dot(again, span, out=t)
            h += again
            norm = math.sqrt(w @ w)
        column = h.tolist()  # A's column: 1 + h on the diagonal, norm below it
        column[k] += 1.0
        top = column[0]
        for i, (c, s) in enumerate(rotations):
            below = column[i + 1]
            column[i], top = c * top + s * below, c * below - s * top
        diagonal = math.hypot(top, norm)
        if diagonal == 0.0:
            break
        c, s = top / diagonal, norm / diagonal
        rotations.append((c, s))
        column[k] = diagonal
        columns.append(column)
        g.append(-s * g[k])
        g[k] *= c
        if norm > 0.0:
            w *= 1.0 / norm
        if abs(g[k + 1]) <= JUMP_MAP_KRYLOV_TOL:
            break
    triangle = np.zeros((len(columns), len(columns)))
    for j, column in enumerate(columns):
        triangle[: j + 1, j] = column[: j + 1]
    return np.linalg.solve(triangle, g[: len(columns)]), abs(g[-1]) <= JUMP_MAP_KRYLOV_TOL


def _keep(keep: np.ndarray, *stacks: np.ndarray) -> list[np.ndarray]:
    """Move the kept points of each stack to its front and the others behind
    them, in place and each in their order; views of the kept points."""
    m = int(np.count_nonzero(keep))
    order = np.argsort(~keep, kind="stable")
    for stack in stacks:
        stack[...] = stack[order]
    return [stack[:m] for stack in stacks]


def _jump_views(
    basis: FockBasis, rates: np.ndarray, rho: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> list[tuple[np.ndarray, ...]]:
    """Per jump term kappa_c c rho c^dag of :func:`_generator`, float views of
    the full stacks: rho's block rho[:, step:, step:], out's block
    out[:, :-step, :-step] and a contiguous block of scratch for the term,
    with the real weights kappa_c sqrt(n_i) sqrt(n_j) (fock.ladder), one
    stack per point allocated here, each repeated for the real and imaginary
    part of a complex entry.  The active points are always the first of each
    stack (:func:`_keep`), so view[:n] holds the first n of them."""
    n, d = rho.shape[:2]
    parts = rho.itemsize // 8  # floats per entry
    rho, out, scratch = rho.view(float), out.view(float), scratch.reshape(-1).view(float)
    views = []
    for mode, kappa in zip("ab", rates.T):
        step, sqrt_n = ladder(basis, mode)
        m = d - step
        weight = np.repeat(kappa[:, None, None] * np.outer(sqrt_n, sqrt_n), parts, axis=2)
        # c rho c^dag is formed in a contiguous block: that halves the cost of the products.
        term = scratch[: n * m * parts * m].reshape(n, m, parts * m)
        views.append((rho[:, step:, parts * step :], out[:, :-step, : -parts * step], term, weight))
    return views


def _generator(
    b: np.ndarray,
    rho: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    jumps: Sequence[tuple[np.ndarray, ...]],
) -> np.ndarray:
    """L(rho) into out for a stack of Hermitian rho in the rotated frame, given
    the stack of B: S(rho) = M + M^dag with M = B rho, and each jump term is
    one product of rho's block with its weights; rho, out and scratch are the
    first len(rho) points of the stacks whose :func:`_jump_views` are in jumps."""
    np.matmul(b, rho, out=out)
    np.conjugate(out, out=scratch)
    out += scratch.transpose(0, 2, 1)
    _add_jumps(len(rho), jumps)
    return out


def _add_jumps(n: int, jumps: Sequence[tuple[np.ndarray, ...]]) -> None:
    """Add the jump terms J(rho) of the first n points of the stacks in jumps
    (:func:`_jump_views`) to their out."""
    for rho_block, out_block, term, weight in jumps:
        out_block[:n] += np.multiply(rho_block[:n], weight[:n], out=term[:n])


def _eigenbasis_factors(matrices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the factors of S^-1 for a stack of B, complex or, on the mirror
    line, real, into out: V, V^-1 and the middle step (:func:`_middle_step`).
    True where they are usable, False where the eigenvectors are
    near-singular or their eig or inversion raised.

    For a complex B = V diag(mu) V^-1, rho~ = V X V^dag gives
    S(rho~) = V [(mu_i + conj(mu_j)) X_ij] V^dag; for a real B, V and V^-1
    are P and P^-1 of its block form (:func:`_block_form`).  A stack whose
    eig or inversion raises is factored point by point, so that no point's
    factors depend on its chunk-mates.
    """
    real = matrices.dtype != complex
    try:
        lam, v = np.linalg.eig(matrices)
        if real:
            lam = _block_form(lam, v, out[0])
        else:
            out[0] = v
        v = out[0]  # and eig's own array is freed
        out[1] = np.linalg.inv(v)
    except np.linalg.LinAlgError:  # some eig did not converge or some V is exactly singular
        if len(matrices) == 1:
            return np.zeros(1, dtype=bool)
        points = range(len(matrices))
        return np.concatenate([_eigenbasis_factors(matrices[j : j + 1], out[:, j : j + 1]) for j in points])
    # The 1-norm needs no SVD, whose LAPACK code adds ~1 MB of peak RSS (PR 6).
    condition = np.linalg.norm(v, 1, axis=(1, 2)) * np.linalg.norm(out[1], 1, axis=(1, 2))
    _middle_step(lam, out[2:])
    return condition <= JUMP_MAP_MAX_EIGENBASIS_CONDITION


def _block_form(lam: np.ndarray, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """P of the real block form B = P M P^-1 into p, from the eigenpairs of a
    stack of real B; the eigenvalues in P's column order.

    The columns are the real parts p of the eigenvectors of the eigenvalues
    alpha + i beta, beta > 0, in eig's order, then the real eigenvectors, then
    the imaginary parts q in reverse order (minus those of the conjugate
    eigenvectors, which eig gives exactly), so that the pair partner of
    column i is column D - 1 - i.  M holds alpha on its diagonal and
    Im lam_i at (i, D - 1 - i): beta in p's row, -beta in q's.
    """
    d = lam.shape[1]
    first, second = lam.imag > 0, lam.imag < 0
    real = ~(first | second)

    def rank(mask):
        return np.cumsum(mask, axis=1) - 1

    # Each eigenvalue's column without a sort, whose code adds ~0.3 MB of peak RSS.
    n_first = first.sum(axis=1, keepdims=True)
    column = np.select([first, second], [rank(first), d - 1 - rank(second)], n_first + rank(real))
    order = np.empty_like(column)
    np.put_along_axis(order, column, np.arange(d)[None, :], axis=1)
    p[...] = np.take_along_axis(np.where(second[:, None, :], -v.imag, v.real), order[:, None, :], axis=2)
    return np.take_along_axis(lam, order, axis=1)


def _middle_step(lam: np.ndarray, out: np.ndarray) -> None:
    """The middle step of S^-1 into out from the eigenvalues lam of a stack
    of B: for a complex B the stack of u = 1 / (mu_i + conj(mu_j)), for a
    real B the four coefficient stacks of T^-1, lam in the column order of
    :func:`_block_form`.

    With a = Re lam_i + Re lam_j and s = Im lam, u = 1 / (a + i (s_i - s_j)).
    On the mirror line T(Y) = M Y + Y M^T has T(Y)_ij = a Y_ij + s_i Y_pi,j
    + s_j Y_i,pj, pi the pair partner, and T^-1(Z) = c0 Z_ij + c1 Z_pi,j
    + c2 Z_i,pj + c3 Z_pi,pj with w = 1 / (a + i (s_i + s_j)),
    c0 = Re(u + w) / 2, c1 = Im(u + w) / 2, c2 = Im(w - u) / 2 and
    c3 = Re(u - w) / 2, with no quartic denominator to overflow.  For a real
    eigenvalue u and w are exact conjugates, so its c1 and c3 are exactly 0.

    Every pair of a driven, damped B decays, a < 0, but eig can return a
    weakly driven point's near-kernel pair with a >= 0; such an a is held at
    -eps max |Re lam|, which changes only the contraction.  A negative a is
    kept however small: eig resolves it down to ~1e-31 (at delta = 1e14, where
    a floor left n_a 5.6% off, PR 33).
    """
    real = out.dtype != complex
    u = np.empty(out.shape[1:], dtype=complex) if real else out[0]
    s = lam.imag
    np.add(lam.real[:, :, None], lam.real[:, None, :], out=u.real)
    floor = np.finfo(float).eps * np.abs(lam.real).max(axis=1)
    np.copyto(u.real, -floor[:, None, None], where=u.real >= 0.0)
    np.subtract(s[:, :, None], s[:, None, :], out=u.imag)
    if not real:
        np.divide(1.0, u, out=u)
        return
    w = u.copy()
    np.add(s[:, :, None], s[:, None, :], out=w.imag)
    # Halves of u and w, exactly, so that their sums are the coefficients.
    np.divide(0.5, u, out=u)
    np.divide(0.5, w, out=w)
    c0, c1, c2, c3 = out
    np.add(u.real, w.real, out=c0)
    np.add(u.imag, w.imag, out=c1)
    np.subtract(w.imag, u.imag, out=c2)
    np.subtract(u.real, w.real, out=c3)


def _eigenbasis_inverse(factors: list[np.ndarray], r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S^-1(r) into r for a stack of points, with the stacked factors of
    :func:`_eigenbasis_factors`: V^-1 r V^-dag, the middle step, then
    V X V^dag; each conjugate is formed for its product."""
    v, v_inv, *middle = factors
    np.matmul(v_inv, r, out=x)
    np.matmul(x, v_inv.conj().transpose(0, 2, 1), out=r)
    if r.dtype == complex:
        r *= middle[0]
    else:  # the partner of row or column i is D - 1 - i
        c0, c1, c2, c3 = middle
        np.multiply(c1, r[:, ::-1], out=x)
        term = c2 * r[:, :, ::-1]
        x += term
        x += np.multiply(c3, r[:, ::-1, ::-1], out=term)
        r *= c0
        r += x
    np.matmul(v, r, out=x)
    return np.matmul(x, v.conj().transpose(0, 2, 1), out=r)


def _outcome(state: DensityMatrix, residual: float) -> DensityMatrix | SteadyStateError:
    """The certified state, or the SteadyStateError of its failed certificate."""
    try:
        return _certified(state, residual)
    except SteadyStateError as exc:
        return exc


def _certified(state: DensityMatrix, residual: float) -> DensityMatrix:
    """The state, once its residual and :meth:`DensityMatrix.validate` pass; errors keep its record."""
    if not residual <= STEADY_RESIDUAL_TOL:  # a NaN residual fails too
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL:.0e}", state.solve
        )
    try:
        state.validate()
    except ValueError as exc:
        raise SteadyStateError(f"certificate failed: {exc}", state.solve) from exc
    return state
