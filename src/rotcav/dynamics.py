"""Lindblad dynamics: the matrix-free steady-state solver.

The master equation

    drho/dt = L(rho) = -i [H, rho]
        + (kappa1/2)(2 a rho a^dag - a^dag a rho - rho a^dag a)
        + (kappa2/2)(2 b rho b^dag - b^dag b rho - rho b^dag b)

is solved for its steady state L(rho) = 0, Tr rho = 1.  The tests and the
benchmark check this module against the dense route of :mod:`rotcav.oracle`.

The production solver, :func:`jump_map_steady_states`, streams its points
in chunks of CHUNK_ENTRIES // D**2 on stacked arrays and never forms a
superoperator.  With the non-Hermitian Hamiltonian
H' = H - (i/2)(kappa1 a^dag a + kappa2 b^dag b) the generator splits
into the no-jump part S(rho) = -i (H' rho - rho H'^dag) and the jumps
J(rho) = kappa1 a rho a^dag + kappa2 b rho b^dag (the quantum-jump
picture; Plenio & Knight, Rev. Mod. Phys. 70, 101 (1998)).  The state
is iterated in residual-update form, rho <- rho - S^-1(L(rho)), with
L(rho) formed in the Fock basis, then Hermitized and renormalized,
starting one renewal from the vacuum, at |1,0><1,0|: there L = S + J
with J(|1,0><1,0|) = kappa1 |0,0><0,0|, so the first update is exactly
the normalized -kappa1 S^-1(|0,0><0,0|), the averaged no-jump evolution
from the vacuum.  At weak drive nearly every jump lands in |0,0>, so
this start is close to the steady state, where weight spread up the
fundamental ladder would drain down it one photon per renewal (six
iterations at the fig5 points).  In exact arithmetic the iteration is
the trace-preserving renewal map rho <- -S^-1(J(rho)), but applying
that map directly lets the roundoff of S^-1 accumulate in the state
(4e-10 to 5e-9 relative in g2_bb at the fig5 and fig7a points checked),
whereas each residual update only corrects the roundoff of the previous
iterate.  For the
same reason the fixed point L(rho) = 0 does not depend on how
accurately S^-1 is applied: an inaccurate S^-1 only slows the
contraction.

L(rho) is formed for a Hermitian rho as S(rho) = M + M^dag with
M = (-i H') rho, one D x D product, plus each jump term kappa_c c rho c^dag:
c shifts rho down a stride of the Fock layout, so the term is rho's block
rho[step:, step:] times the real weights kappa_c sqrt(n_i) sqrt(n_j),
added to the block L[:-step, :-step].  Both the weights and the blocks
are taken as float arrays, so each term is one real multiply and one add.

Off the mirror line (below), S^-1 is applied in H''s eigenbasis
H' = V diag(lam) V^-1, with V and lam from one stacked eig (LAPACK zgeev)
of a chunk's H'.  There S^-1 is four
D x D products and one elementwise product with the stored reciprocal of
its denominator per iteration.  An ill-conditioned V costs accuracy in
S^-1 only, which the residual update tolerates.  Where V is singular or
its condition number exceeds 1/sqrt(eps), as can happen within a few ulps
of the exceptional point of the |2,0>/|0,1> pair at vanishing drive, or
where eig does not converge, the point's S^-1 is factored once more from
H' with both loss rates scaled by 1 + sqrt(eps), which moves the
exceptional point off it.  The generator keeps the true H', so that S^-1
changes only the contraction, not the fixed point.  A point whose scaled
H' has no usable eigenbasis either is that point's solver failure.
The iteration stops once
the geometric tail of its remaining updates, estimated from the ratio of
successive updates, is below roundoff, or once the updates sit on a
roundoff plateau of at most 1e-10.  It measures each update entrywise
relative to sqrt(p_i p_j), with p the populations of the current iterate
floored per point at max(1e-24, 1e-6 min(<a^dag^2 a^2>, <b^dag^2 b^2>)):
a population below the floor adds too little to either pair moment to
matter, so the stop does not wait on it.  Without drive the vacuum |0,0> is an
eigenvector of H' with a real eigenvalue, so S is singular; the vacuum
is then stationary and is returned directly.

Near the small Liouvillian gap of the driven chi(2) cavity (Minganti et
al., Phys. Rev. A 98, 042118 (2018)) the iteration contracts at ratios up
to 0.997, and a point whose ratio stays slow, or whose updates stop
shrinking above that plateau, leaves the stacked loop for a Krylov phase:
restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 856
(1986)) on the root of delta -> S^-1(L(delta)), with the point's
own factors of S^-1 and jump weights, so that its bits do not depend on
its chunk.  At g = 2, delta = -4, F = 2, cutoffs (10,5) the loop alone
needs 1096 iterations; with the phase the point takes 11 generator calls
and 60 applications of S^-1.  The unknowns are population-weighted,
delta = W^1/2 Y W^1/2, and packed as Y's upper triangle in the state's
dtype; every application is Hermitized on its way in and out
(:func:`_krylov`).  The phase stops, and certifies the state from the
L(rho) of its last restart, once the scaled update is at most
JUMP_MAP_KRYLOV_TOL or sits on its roundoff floor, without further
iterations.

On the mirror line delta + delta_f = 0, where the blockade conditions of
the model lie, parity W = (-1)^(n_a + n_b) combined with complex
conjugation maps the steady state onto itself (Albert & Jiang, Phys. Rev.
A 89, 022118 (2014)), and a point is solved in real arithmetic.  With
U = diag(i^(n_a + n_b)), the g and F terms change n_a + n_b by one, so
B = -i U H' U^dag is real where the detuning terms vanish; the solver
tests the H' it receives and sends each point whose B has an exactly zero
imaginary part down this path.  The jumps keep their form
(U a U^dag = -i a), so rho~ = U rho U^dag is iterated as above with -i H'
replaced by B: S(rho~) = B rho~ + rho~ B^T on a real symmetric rho~.
S^-1 comes from one stacked real eig of B, in the block form
B = P M P^-1: P holds the real and imaginary parts p, q of each conjugate
pair of eigenvectors, ordered so that the pair partner pi(i) of column i
is column D - 1 - i, and M holds alpha on its diagonal and +-beta at
(i, pi(i)) for an eigenvalue pair alpha +- i beta.  With
rho~ = P Y P^T, S becomes T(Y) = M Y + Y M^T, which couples only the
entries (i, j), (pi(i), j), (i, pi(j)) and (pi(i), pi(j)), so T^-1 is a
closed-form four-term mix of them, with four coefficient stacks stored
per point, and S^-1 is four real D x D products and that mix.  Where
the real eig returns the near-kernel eigenvalue of a weakly driven point
as exactly 0 (at F = 1e-10), alpha_i + alpha_j vanishes with the
denominator of T^-1; it is held at most -eps max |lam|, on the decaying
side, which changes only the contraction.  The decay-scaled retry
applies to B as to H'.  A point is certified in the rotated frame, by
its residual from the real generator and validate on rho~, and
rho_jk = conj(i^(p_j - p_k)) rho~_jk with p = n_a + n_b is returned:
U's entries are +-1 and +-i, so the transform is exact, and the
residual, trace, Hermiticity and spectrum are those of rho.  No complex
LAPACK routine runs for such a point.

Each state is certified as the dense reference route of :mod:`rotcav.oracle`
certifies its own: residual max |L(rho)| at most STEADY_RESIDUAL_TOL
against the full generator, and :meth:`DensityMatrix.validate`.
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

JUMP_MAP_MAX_ITERATIONS = 1000
# The jump-map iteration measures its update entrywise relative to
# sqrt(p_i p_j), with p the populations floored per point
# (:func:`_population_floor`).  Scaling makes small populations converge in
# relative terms: second-harmonic pairs entering g2_bb can be 1e-24 while
# the vacuum holds almost all the weight, so max |update| reaches roundoff
# long before they settle.  The floor is never below
# JUMP_MAP_POPULATION_FLOOR, observables.VACUUM_OCCUPATION_EPS squared: an
# entry held there still settles to 1e-34, a ~1e-10 change in any g2 the
# guard lets through.  A lower floor scales the roundoff of nearly empty
# states up to the stop thresholds (at 1e-30 the scaled update hovered at
# 1e-10 to 4e-10 at some fig4 points).
JUMP_MAP_POPULATION_FLOOR = 1e-24
# Above that, the floor is JUMP_MAP_PAIR_FLOOR_FRACTION times the smaller
# of the pair moments <a^dag^2 a^2> and <b^dag^2 b^2>.  A population p_k
# below it, at occupation k, adds less than k^2 times this fraction of the
# smaller moment to either, and the stop still settles it to about 1e-10 of
# the floor, so every output keeps <~ 1e-13 relative.  Where a moment is 0
# (g = 0, nb_cut = 1) or the fraction of it is below 1e-24, the floor is
# 1e-24.  At the fig7a nonreciprocity pair at cutoffs (10,5) a constant
# floor held |5,1>, |6,1>, |7,1> and |6,2> at 1e-24, whose updates of 1e-32
# to 1e-34 kept the scaled update above the stop for 15 to 23 generator
# calls, where the outputs settle by about the 6th, and its stop fired on
# roundoff; with this floor each stops on its geometric tail after 7.
JUMP_MAP_PAIR_FLOOR_FRACTION = 1e-6
# It stops once the geometric tail of the remaining updates,
# step q / (1 - q) with q = step / previous step, is at most
# JUMP_MAP_TAIL_TOL.  Unlike "small and no longer shrinking", this does
# not fire on an oscillating contraction: at delta = -1, F = 2, g = 0.867,
# cutoffs (8,4) the scaled update is 8.5e-11 at two successive iterations,
# where that rule stopped with n_a 1.6e-10 off.  The tail counts only once
# the step is at most JUMP_MAP_SLOW_STEP (below): two huge steps say
# nothing about the contraction rate.  At F = 1e-10, g = 0.867, cutoffs
# (6,3) the scaled steps are 1.4e23 and then 3.0e4, a tail of 6e-15, and
# the point stopped at iteration 2 with n_a 3.4 relative off.
JUMP_MAP_TAIL_TOL = 1e-13
# A point is flat once its scaled update has set no new minimum for
# JUMP_MAP_PLATEAU_ITERATIONS iterations.  A flat point at most
# JUMP_MAP_PLATEAU_TOL stops on a roundoff plateau, as at 10 of the 441
# fig4b cells at 21 x 21, where n_b is just above the 1e-12 vacuum guard.
# One above it, held there by roundoff in nearly empty states at strong
# drive or by a stalled contraction, enters the Krylov phase (below), as 24
# of the 195 points of delta in [-6, 6] x F in {0.05, 0.5, 1, 2, 3} x
# g in {0.3, 0.867, 2} at (8,4) do, in 16 to 50 applications of S^-1 in
# all.
JUMP_MAP_PLATEAU_TOL = 1e-10
JUMP_MAP_PLATEAU_ITERATIONS = 3
JUMP_MAP_SLOW_STEP = 1e-6
# Past 1/sqrt(eps) the eigenvectors of H' are numerically dependent (H'
# is exactly defective), and S^-1 is factored from the decay-scaled H'
# instead (JUMP_MAP_RETRY_DECAY_SCALE).  At the exceptional point
# g = 1/(4 sqrt 2) the 1-norm condition number of V from eig(H') at cutoffs
# (10,5) grows as ~0.85/F at weak drive (8.6e2 at F = 1e-3, 8.4e5 at 1e-6)
# and levels off around the cut from F = 1e-9 down (4.3e7 there): at
# F = 1e-13 it is 8.7e7 and the retry takes over.  It was at most 513
# (median 26) at 302 random points (delta in [-6, 6], g <= 3, kappa2 in
# [0.1, 3], 0.1 <= F <= 3, cutoffs (6,3) and (8,4)) and 1.9e3 at the
# exceptional point at F = 3, cutoffs (12,6).
JUMP_MAP_MAX_EIGENBASIS_CONDITION = 1.0 / math.sqrt(np.finfo(float).eps)
# A point whose V is unusable is factored once more from H' with both loss
# rates scaled by this factor.  That moves the exceptional point
# g = (kappa1 - kappa2 / 2) / (2 sqrt 2) by a relative sqrt(eps), far
# enough that a point within a few ulps of it is no longer defective (Heiss,
# J. Phys. A 45, 444016 (2012)), yet so little that S^-1 still contracts as
# fast.  At the 26 of 504 seeded points near it (kappa2 in [0.1, 1.9],
# 1e-14 <= F <= 1e-5, cutoffs (6,3) to (10,5)) whose V was unusable,
# cond_1(V) fell from 6.7e7-2.0e8 to 1.6e4-1.9e4 and each certified within
# 3 to 13 generator evaluations.  Only S^-1 changes, so the fixed point and
# the certificate do not.
JUMP_MAP_RETRY_DECAY_SCALE = 1.0 + math.sqrt(np.finfo(float).eps)
# A driven point whose contraction stays slow leaves the fixed-point loop
# for the Krylov phase (:func:`_krylov`): from iteration
# JUMP_MAP_KRYLOV_ITERATIONS on, once each of its last three scaled steps
# was at least JUMP_MAP_KRYLOV_RATIO times the one before while the step is
# still above JUMP_MAP_SLOW_STEP, or once it is flat above
# JUMP_MAP_PLATEAU_TOL.  By slow contraction 4 of the 8 points of the drive
# sweep F = 0.5..2 at g* and cutoffs (8,4) enter, at steps of 0.035 to
# 0.25; by either rule, no point of any figure preset at 41 x 41 nor of
# fig4a at 101 x 101.  With a step bound of 1e-9, 4 fig4a cells at 101 x 101
# entered, and so did the fig7a nonreciprocity pair at cutoffs (10,5),
# whose step rests near 1e-8 for three or four iterations at weak drive
# before it falls on, with more S^-1 applications than in the loop; with a
# ratio of 0.5 as well, 6 cells each of fig4a and fig4b at 21 x 21.
JUMP_MAP_KRYLOV_ITERATIONS = 8
JUMP_MAP_KRYLOV_RATIO = 0.7
# The phase runs GMRES(JUMP_MAP_KRYLOV_RESTART) and stops at a restart once
# the 2-norm of the Hermitian, population-scaled update is at most
# JUMP_MAP_KRYLOV_TOL.  At the five points checked (cutoffs (6,3) to
# (10,5), contraction rates 0.76 to 0.996) the state's largest entry error
# against the dense oracle, relative to its largest entry, was at most 0.3
# times the update.  Roundoff in nearly empty states can floor the update
# above the tolerance (1e-5 to 7e-5 at g = 0.3 and 0.867, F = 2 and 3,
# |delta| >= 5, cutoffs (12,6), with residuals of 1e-16), so the phase also
# stops once a cycle whose own least-squares residual reached the tolerance
# has not halved the update.
JUMP_MAP_KRYLOV_RESTART = 40
JUMP_MAP_KRYLOV_TOL = 5e-13


@dataclass(frozen=True)
class SolveRecord:
    """How the jump map solved one point, from its budget's own counters; zeros for the vacuum."""

    applications: int = 0  # S^-1 applications, in the loop and the Krylov phase
    generator_calls: int = 0  # L(rho) evaluations: loop iterations plus Krylov restarts
    krylov_from: int = 0  # the loop iteration at which it entered the Krylov phase, or 0
    retried: bool = False  # S^-1 factored from the decay-scaled H'


class SteadyStateError(RuntimeError):
    """Steady-state solve failed; solve is the jump map's record of the point, or None."""

    def __init__(self, message: str, solve: SolveRecord | None = None):
        super().__init__(message)
        self.solve = solve


@dataclass(frozen=True)
class DensityMatrix:
    """D x D state with its basis: complex, or real in the rotated frame of a
    mirror-line point (:func:`_solve_points`); solve is the jump map's record."""

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

        Positivity is one Cholesky factorization of rho - POSITIVITY_TOL I,
        which exists where the minimum eigenvalue exceeds POSITIVITY_TOL; the
        eigenvalues are computed only where it fails, to decide within
        roundoff of the tolerance and to word the error.  Non-finite entries
        are rejected first: they fail none of the comparisons below, and
        np.linalg.cholesky returns NaN for them without raising.
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


# jump_map_steady_states applies this budget of stacked D x D entries: it
# solves CHUNK_ENTRIES // D**2 points (at least one) at a time.  Per point
# the chunk solver stores 152 D**2 bytes off the mirror line: seven complex
# D x D arrays (-i H', V, V^-1 and 1 / the denominator of S, the state,
# L(rho) and a scratch array), the real scaled update, and the two real
# weight stacks of the jump terms, each just under 2 D**2 floats; it peaks
# at 168 D**2 bytes (1.05 MB at this budget) in a product with the conjugate
# of V or V^-1.  On the line it holds 112 D**2 bytes, all real: B, the six
# factors (P, P^-1 and the four coefficient stacks of T^-1), the state,
# L(rho), scratch, the scaled update, weights of just under D**2 floats each
# and the mix step's temporary.  The stacked eig holds less: the matrices,
# the factors, and V and V^-1 before they are stored.  A point whose V is
# unusable is factored once more alone, into its own slices.  A chunk's
# mirror-line points are solved first, while the others' H' waits.
# Certifying a point adds its state's copy and validate's temporaries.  A
# point in the Krylov phase, one at a time, adds its GMRES basis of
# JUMP_MAP_KRYLOV_RESTART + 1 packed vectors, Y's upper triangle in the
# state's dtype: D (D + 1) / 2 floats each on the mirror line (0.34 MB at
# D = 45) and D (D + 1) off it (2.75 MB at D = 91), its own state, L(rho),
# scratch and weights, and its index arrays.  Memory bounds the chunk, not
# speed: at D = 28 (cutoffs (6,3)) chunks of 8 solved the fig5 sweep 1.5x
# faster than chunks of one, and chunks of 16 only 2% faster than 8 at
# 1.1 MB more peak memory; at D = 45 chunks of 3 ran 7% faster than chunks
# of one and chunks of 8 3% faster than 3 at 1.8 MB more.  D = 66 and up
# solves one point at a time.
CHUNK_ENTRIES = 8 * 28**2


def jump_map_steady_states(
    points: Iterable[tuple[np.ndarray, float, float]], basis: FockBasis
) -> Iterator[DensityMatrix | SteadyStateError]:
    """Steady states of points on one basis by the jump-map iteration.

    points yields each point's (h_eff, kappa1, kappa2).  They are pulled
    CHUNK_ENTRIES // D**2 at a time (at least one), and each chunk is
    solved by :func:`_solve_chunk` before the next is pulled, so at most
    one chunk of inputs and results is alive at once.

    Yields one entry per point, in input order: its certified state, or
    the :class:`SteadyStateError` that stopped it (no usable eigenbasis of
    H', no convergence within JUMP_MAP_MAX_ITERATIONS, non-finite entries,
    or a failed certificate).
    A point's bits depend neither on its chunk nor on its position in it:
    every stacked operation acts on each point's slice by the same BLAS
    call or elementwise loop as on a single point.
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

    Iterates rho <- rho - S^-1(L(rho)) (see the module docstring), with
    S^-1 in each H''s eigenbasis, or in that of its decay-scaled H' where
    the eigenvectors are too close to dependent, until the remaining updates
    of a point, relative to its populations, are estimated below roundoff
    or sit on a roundoff plateau.  That point then leaves the stack and is
    certified like :func:`rotcav.oracle.steady_state`: residual max |L(rho)| against the
    full generator and :meth:`DensityMatrix.validate`.  Time and memory are
    O(K D^3) and O(K D^2) per iteration.

    The driven points on the mirror line, whose B = -i U H' U^dag is exactly
    real, are solved first, in real arithmetic in the rotated frame, and the
    others after them; :func:`_solve_points` solves each group.
    """
    k, d = len(chunk), basis.dim
    h_prime = np.empty((k, d, d), dtype=complex)
    for i, (h_eff, kappa1, kappa2) in enumerate(chunk):
        _check_input(h_eff, basis, kappa1, kappa2)
        h_prime[i] = decay_hamiltonian(h_eff, basis, kappa1, kappa2)
    rates = np.array([point[1:] for point in chunk], dtype=float).reshape(k, 2)
    results: list = [None] * k
    # The jumps empty the vacuum, so L(|0,0><0,0|) = -i (H' |0,0><0,0| - h.c.)
    # vanishes exactly when H'[1:, 0] = 0 and H'_00 is real.  Then S is
    # singular (H'|0,0> = H'_00 |0,0>) and the vacuum is the steady state.
    driven = h_prime[:, 1:, 0].any(axis=1) | (h_prime[:, 0, 0].imag != 0)
    for i in np.flatnonzero(~driven):
        vacuum = np.zeros((d, d), dtype=complex)
        vacuum[0, 0] = 1.0
        results[i] = _outcome(DensityMatrix(vacuum, basis, SolveRecord()), 0.0)
    b = _mirror_phases(basis) * h_prime
    line = driven & ~b.imag.any(axis=(1, 2))
    off_line = driven & ~line
    b, h_prime = b.real[line], h_prime[off_line]  # and the complex stacks are freed
    _solve_points(b, rates[line], np.flatnonzero(line), chunk, basis, results)
    _solve_points(h_prime, rates[off_line], np.flatnonzero(off_line), chunk, basis, results)
    return results


def _mirror_phases(basis: FockBasis) -> np.ndarray:
    """The entrywise phases -i i^(p_j - p_k), p = n_a + n_b, of the mirror-line
    rotation U = diag(i^p): B = -i U H' U^dag is phases * H', and a state
    rho~ = U rho U^dag of the rotated frame is rho = conj(1j * phases) * rho~.
    Each entry is 1, -1, 1j or -1j, so both products are exact."""
    p = basis.occ_a + basis.occ_b
    return np.array([-1j, 1.0, 1j, -1.0])[(p[:, None] - p[None, :]) % 4]


def _solve_points(
    matrices: np.ndarray,
    rates: np.ndarray,
    points: np.ndarray,
    chunk: Sequence[tuple[np.ndarray, float, float]],
    basis: FockBasis,
    results: list,
) -> None:
    """Write the results of the driven points of a chunk, at positions points
    in it, into results, given the stacks of their matrices and rates: complex
    H', or real B = phases * H' (:func:`_mirror_phases`) for points on the
    mirror line, which are certified in the rotated frame and whose states
    are rotated back.

    This function owns the stacks of the matrices, the rates and the factors
    of S^-1 (:func:`_eigenbasis_factors`), one slice per point; :func:`_keep`
    moves the points without a usable eigenbasis out of them, and
    :func:`_iterate` owns the rest of the arrays.
    """
    if not len(points):
        return
    rotated = matrices.dtype != complex
    phases = _mirror_phases(basis)
    factors = np.empty((6 if rotated else 3, *matrices.shape), dtype=matrices.dtype)
    usable = _eigenbasis_factors(matrices, factors)
    retried = ~usable
    for j in np.flatnonzero(retried):  # factored alone, so its bits are its chunk of one's
        h_eff, kappa1, kappa2 = chunk[points[j]]
        scale = JUMP_MAP_RETRY_DECAY_SCALE
        scaled = decay_hamiltonian(h_eff, basis, scale * kappa1, scale * kappa2)
        if rotated:
            scaled = (phases * scaled).real
        usable[j] = _eigenbasis_factors(scaled[None], factors[:, j : j + 1])[0]
        if not usable[j]:
            results[points[j]] = SteadyStateError(
                "no usable eigenbasis of H', nor of H' with its loss rates scaled by 1 + sqrt(eps)",
                SolveRecord(retried=True),
            )
    matrices, rates, points, *factors = _keep(usable, matrices, rates, points, *factors)
    if not len(points):
        return
    if not rotated:
        matrices *= -1j  # the generator's -i H', exactly
    for i, state in zip(points.tolist(), _iterate(matrices, rates, basis, factors, retried[usable])):
        if rotated and isinstance(state, DensityMatrix):
            state = DensityMatrix(np.conjugate(1j * phases) * state.matrix, basis, state.solve)
        results[i] = state


def _iterate(
    minus_i_h: np.ndarray,
    rates: np.ndarray,
    basis: FockBasis,
    factors: list[np.ndarray],
    retried: np.ndarray,
) -> list[DensityMatrix | SteadyStateError]:
    """The jump-map iteration of a stack of driven points, one result per point.

    minus_i_h is the stack of -i H', or of the real B on the mirror line,
    and factors are the stacked factors of S^-1 (:func:`_eigenbasis_factors`);
    the iteration runs in their dtype.  The caller's arrays hold one slice per
    point along their first axis; the state rho, L(rho), the scratch x, the
    scaled update and the jump weights built from the rates (:func:`_jump_views`)
    are allocated here once.  A point that converges or fails leaves the
    active set: :func:`_keep` moves the others to the front in place, and
    every stack is sliced to them.  So does a point whose contraction stays
    slow or whose update stops shrinking above the plateau
    (:meth:`_Track.enters`), once :func:`_krylov` has finished it from
    its slices; the budget counts S^-1 applications in both.  retried marks
    the points whose factors come from the decay-scaled H'.
    """
    n, d = len(minus_i_h), basis.dim
    rho, r, x = np.empty((3, n, d, d), dtype=minus_i_h.dtype)
    scaled = np.empty((n, d, d))
    jumps = _jump_views(basis, rates, rho, r, x)
    weights = [jump[-1] for jump in jumps]
    pairs = _pair_weights(basis)
    # One renewal from the vacuum: the first update is the normalized
    # -kappa1 S^-1(|0,0><0,0|), since J(|1,0><1,0|) = kappa1 |0,0><0,0| and
    # S^-1 S(rho) = rho.  At weak drive nearly every jump lands in |0,0>.
    rho[...] = 0.0
    one = basis.index(1, 0)
    rho[:, one, one] = 1.0
    tracks = [_Track(i) for i in range(n)]
    results: list = [None] * n
    finished: list[int] = []  # positions in the stack, certified from the next L(rho)
    left: list[int] = []  # positions of points that failed or finished in the Krylov phase

    def record(track: _Track, applications: int) -> SolveRecord:
        """The record of a point that leaves the loop at this iteration."""
        return SolveRecord(applications, iteration, 0, bool(retried[track.index]))

    for iteration in itertools.count(1):
        if len(left) == len(tracks):  # nothing to certify or iterate
            return results
        _generator(minus_i_h, rho, r, x, jumps)
        for j in finished:
            residual, solve = float(np.max(np.abs(r[j]))), record(tracks[j], iteration - 1)
            results[tracks[j].index] = _outcome(DensityMatrix(rho[j].copy(), basis, solve), residual)
        if iteration > JUMP_MAP_MAX_ITERATIONS:
            for j, track in enumerate(tracks):
                if j not in finished and j not in left:
                    residual, solve = float(np.max(np.abs(r[j]))), record(track, iteration - 1)
                    results[track.index] = _unfinished(track.step, solve, residual)
            return results
        if finished or left:
            keep = np.ones(len(tracks), dtype=bool)
            keep[finished + left] = False
            if not keep.any():
                return results
            tracks = [track for track, kept in zip(tracks, keep) if kept]
            minus_i_h, rho, r, *stacks = _keep(keep, minus_i_h, rho, r, *weights, *factors)
            weights, factors = stacks[: len(weights)], stacks[len(weights) :]
            x, scaled = x[: len(tracks)], scaled[: len(tracks)]
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
        finished, left = [], []
        for j, (track, step) in enumerate(zip(tracks, scaled.max(axis=(1, 2)).tolist())):
            if not math.isfinite(step):
                results[track.index] = _unfinished(step, record(track, iteration))
                rho[j] = 0.0  # stationary, so L(rho) stays finite until it leaves
                left.append(j)
            elif track.stops(step, iteration):
                finished.append(j)
            elif track.enters(iteration):
                i, point, entry = track.index, slice(j, j + 1), record(track, iteration)
                point_factors = [factor[point] for factor in factors]
                results[i] = _krylov(
                    minus_i_h[point], point_factors, rates[i : i + 1], basis, rho[j].copy(), entry
                )
                left.append(j)


@dataclass
class _Track:
    """Stop-rule state of one point of a stacked jump-map iteration."""

    index: int  # position in the stacks given to _iterate
    best: float = math.inf
    best_at: int = 0
    step: float = math.inf
    slow: int = 0  # successive steps of at least JUMP_MAP_KRYLOV_RATIO times the one before
    flat: bool = False  # no new minimum for JUMP_MAP_PLATEAU_ITERATIONS iterations

    def enters(self, iteration: int) -> bool:
        """Whether a point that does not stop enters the Krylov phase with budget
        left for a restart: flat, or above JUMP_MAP_SLOW_STEP and contracting slowly."""
        slow = self.step > JUMP_MAP_SLOW_STEP and self.slow >= 3
        return JUMP_MAP_KRYLOV_ITERATIONS <= iteration < JUMP_MAP_MAX_ITERATIONS and (self.flat or slow)

    def stops(self, step: float, iteration: int) -> bool:
        """Record this iteration's scaled update; whether the iteration stops."""
        previous, self.step = self.step, step
        if step < self.best:
            self.best, self.best_at = step, iteration
        # step q / (1 - q) <= tol with q = step / previous, free of division
        tail = step * step <= JUMP_MAP_TAIL_TOL * (previous - step)
        converged = iteration > 1 and step <= JUMP_MAP_SLOW_STEP and step < previous and tail
        self.flat = iteration - self.best_at >= JUMP_MAP_PLATEAU_ITERATIONS
        self.slow = self.slow + 1 if step >= JUMP_MAP_KRYLOV_RATIO * previous else 0
        return converged or (self.flat and step <= JUMP_MAP_PLATEAU_TOL)


def _krylov(
    minus_i_h: np.ndarray,
    factors: list[np.ndarray],
    rates: np.ndarray,
    basis: FockBasis,
    state: np.ndarray,
    entry: SolveRecord,
) -> DensityMatrix | SteadyStateError:
    """Finish one point of :func:`_iterate` by restarted GMRES on the root of
    delta -> S^-1(L(delta)); its certified state or its error.

    minus_i_h, factors and rates are the point's slices of the stacks (its
    stacks of one), state its iterate and entry its loop record, whose S^-1
    applications the budget keeps counting here.  Each restart forms L(rho) at the
    current state, whose max |L(rho)| certifies the state if the phase
    stops there, and the loop's update S^-1(L(rho)), scaled as
    delta = W^1/2 Y W^1/2 with W the state's populations floored as in the
    loop (:func:`_population_floor`).  A cycle (:func:`_gmres_cycle`) then solves
    S^-1(L(delta)) = -update for Y packed as its upper triangle, row by
    row, in the state's dtype: real on the mirror line, complex off it,
    where the Krylov vectors are the float views of the packed entries.
    Each application unpacks an exactly Hermitian delta, each entry below
    the diagonal the conjugate of its mirror, and packs the Hermitian part
    of its image.  Off that subspace, roundoff gave the Krylov vectors
    anti-Hermitian parts, on which the generator's M + M^dag is not L, and
    GMRES stalled at 1e-7 to 1e-10.
    """
    d = basis.dim
    rho, r, x = np.empty((3, 1, d, d), dtype=state.dtype)
    jumps = _jump_views(basis, rates, rho, r, x)
    i, j = np.triu_indices(d)
    up, lo = i * d + j, j * d + i  # each entry of Y's upper triangle and its mirror
    packed = np.empty(len(up), dtype=state.dtype)
    vectors = np.empty((JUMP_MAP_KRYLOV_RESTART + 1, packed.view(float).size))
    t = np.empty_like(vectors[0])
    ww, iw = np.empty((2, len(up)))
    flat_rho, flat_r = rho.reshape(-1), r.reshape(-1)
    pairs = _pair_weights(basis)

    def unpack(y: np.ndarray) -> None:
        """W^1/2 Y W^1/2 into rho, with each entry below the diagonal the
        conjugate of its mirror."""
        np.multiply(y.view(state.dtype), ww, out=packed)
        flat_rho[up] = packed
        flat_rho[lo] = np.conjugate(packed, out=packed)

    def pack(out: np.ndarray) -> None:
        """The Hermitian part of S^-1(r), scaled by W^-1/2 on both sides, into out."""
        _eigenbasis_inverse(factors, r, x)
        entries = out.view(state.dtype)
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

    best, solved, calls = math.inf, False, entry.applications
    for restart in itertools.count(1):
        rho[0] = state
        _generator(minus_i_h, rho, r, x, jumps)
        calls += 1
        residual = float(np.max(np.abs(r)))
        populations = state.diagonal().real
        w = np.sqrt(np.maximum(populations, _population_floor(populations, pairs)))
        np.take(np.outer(w, w).reshape(-1), up, out=ww)
        np.divide(0.5, ww, out=iw)
        pack(vectors[0])
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

    Each moment is summed over its own row of one elementwise product, not
    by a BLAS product, whose order of summation can depend on the number of
    points: so a point's floor does not depend on its chunk."""
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

    At most JUMP_MAP_KRYLOV_RESTART and budget applications, fewer once the
    least-squares residual is at most JUMP_MAP_KRYLOV_TOL.  The basis is
    built for N, whose Krylov space is that of 1 + N and whose images cancel
    less on it: one classical Gram-Schmidt pass, and a second where it takes
    the norm below 0.7 times.  The Givens rotations run on Python floats.
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
    the full stacks that it slices to the active points: rho's block
    rho[:, step:, step:], out's block out[:, :-step, :-step] and a contiguous
    block of scratch for the term, with the mode's real weights
    kappa_c sqrt(n_i) sqrt(n_j) (fock.ladder), one stack per point, in a
    complex stack with each weight repeated for the real and imaginary part
    of its entry.  The weight stacks are allocated here; the caller moves
    them with its other stacks.

    The active points are always the first of each stack (:func:`_keep`), so
    view[:n] of a full stack is the same view of its first n points."""
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
    minus_i_h: np.ndarray,
    rho: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    jumps: Sequence[tuple[np.ndarray, ...]],
) -> np.ndarray:
    """L(rho) into out for a stack of Hermitian rho, given the stack of -i H'
    (or of B, on the mirror line):
    S(rho) = M + M^dag with M = -i H' rho, since rho H'^dag = (H' rho)^dag, and
    each jump term is one product of rho's block with its weights; rho, out and
    scratch are the first len(rho) points of the stacks whose
    :func:`_jump_views` are in jumps."""
    np.matmul(minus_i_h, rho, out=out)
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
    """Write the factors of S^-1 for a stack of H' (complex) or of mirror-line B
    (real) into out; True where they are usable, False, with that point's slices
    unusable, where the eigenvectors are near-singular or their eig or inversion
    raised.

    Both layouts hold V, V^-1 and then the middle step of S^-1, and no
    conjugate.  For H' = V diag(lam) V^-1, out[2] is 1 / the denominator of S:
    with rho = V X V^dag, S(rho) = V [-i (lam_i - conj(lam_j)) X_ij] V^dag.
    For B, out[0] to out[5] are P and P^-1 of its real block form B = P M P^-1
    and the four coefficient stacks of T^-1 (:func:`_block_form`).  Each stacked call acts
    on each point by the same LAPACK or BLAS call as on a point alone, and a
    stack whose eig or inversion raises is factored point by point, so no
    point's factors depend on its chunk-mates.
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
    # The 1-norm condition number needs no SVD, whose LAPACK code would
    # add ~1 MB to the peak resident memory.
    condition = np.linalg.norm(v, 1, axis=(1, 2)) * np.linalg.norm(out[1], 1, axis=(1, 2))
    if real:
        _mix_coefficients(lam, out[2:])
    else:
        np.subtract(lam[:, :, None], lam.conj()[:, None, :], out=out[2])
        out[2] *= -1j
        np.divide(1.0, out[2], out=out[2])
    return condition <= JUMP_MAP_MAX_EIGENBASIS_CONDITION


def _block_form(lam: np.ndarray, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """P of the real block form B = P M P^-1 into p, from the eigenpairs of a
    stack of real B; the eigenvalues in P's column order.

    Each point's columns are the real part p of the eigenvector of each
    eigenvalue alpha + i beta, beta > 0, in eig's order, then the real
    eigenvectors, then the imaginary parts q of the complex ones in reverse
    order, so that the pair partner of column i is column D - 1 - i.  As
    B (p + iq) = (alpha + i beta)(p + iq), M holds alpha on its diagonal and
    s_i = Im lam_i at (i, D - 1 - i): beta in p's row, -beta in q's.
    eig gives the second eigenvector of a pair as the exact conjugate of the
    first, so q is minus its imaginary part.
    """
    d = lam.shape[1]
    first, second = lam.imag > 0, lam.imag < 0
    real = ~(first | second)

    def rank(mask):
        return np.cumsum(mask, axis=1) - 1

    # Each eigenvalue's column, without a sort, whose code would add ~0.3 MB
    # to the peak resident memory.
    n_first = first.sum(axis=1, keepdims=True)
    column = np.select([first, second], [rank(first), d - 1 - rank(second)], n_first + rank(real))
    order = np.empty_like(column)
    np.put_along_axis(order, column, np.arange(d)[None, :], axis=1)
    p[...] = np.take_along_axis(np.where(second[:, None, :], -v.imag, v.real), order[:, None, :], axis=2)
    return np.take_along_axis(lam, order, axis=1)


def _mix_coefficients(lam: np.ndarray, out: np.ndarray) -> None:
    """The four coefficient stacks of T^-1, T(Y) = M Y + Y M^T, into out, from
    the eigenvalues lam in the column order of :func:`_block_form`.

    T(Y)_ij = a Y_ij + s_i Y_pi,j + s_j Y_i,pj with a = alpha_i + alpha_j,
    s = Im lam and pi the pair partner, so T couples the four entries
    (i, j), (pi, j), (i, pj), (pi, pj), and T^-1(Z) = c0 Z_ij + c1 Z_pi,j
    + c2 Z_i,pj + c3 Z_pi,pj with, over
    N = (a^2 + (s_i - s_j)^2) (a^2 + (s_i + s_j)^2),
    c0 = a (a^2 + s_i^2 + s_j^2) / N, c1 = -s_i (a^2 + s_i^2 - s_j^2) / N,
    c2 = -s_j (a^2 - s_i^2 + s_j^2) / N and c3 = 2 a s_i s_j / N.  For a real
    eigenvalue s_i = 0, so its c1 and c3 are exactly 0.  Where eig returns
    the near-kernel eigenvalue of a weakly driven point as exactly 0, a and
    N vanish; a is therefore held at most -eps max |lam| (on the decaying
    side), which changes only the contraction.
    """
    c0, c1, c2, c3 = out
    s_i, s_j = lam.imag[:, :, None], lam.imag[:, None, :]
    a = c0
    np.add(lam.real[:, :, None], lam.real[:, None, :], out=a)
    floor = np.finfo(float).eps * np.abs(lam).max(axis=1)
    np.minimum(a, -floor[:, None, None], out=a)
    a2 = a * a
    inv_n = (a2 + (s_i - s_j) ** 2) * (a2 + (s_i + s_j) ** 2)
    np.divide(1.0, inv_n, out=inv_n)
    np.multiply(2.0 * a * s_i * s_j, inv_n, out=c3)
    np.multiply(-s_i * (a2 + s_i**2 - s_j**2), inv_n, out=c1)
    np.multiply(-s_j * (a2 - s_i**2 + s_j**2), inv_n, out=c2)
    c0 *= (a2 + s_i**2 + s_j**2) * inv_n


def _eigenbasis_inverse(factors: list[np.ndarray], r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S^-1(r) into r for a stack of points in their eigenbases, with the stacked
    factors of _eigenbasis_factors: V^-1 r V^-dag, the product with 1 / the
    denominator or, on the mirror line, the four-term mix T^-1, then V X V^dag;
    each conjugate is formed for its product (conj() of a real factor is itself)."""
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
