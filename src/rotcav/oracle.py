"""Reference oracle: the dense Liouvillian, its LU steady state, RK4
evolution and the operator-route photon statistics, which the tests and
the benchmark compare the production path against.  Only the package's
__init__ imports it, to re-export the three names that the benchmark
takes from rotcav, and only :func:`steady_state` needs scipy.

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
(16 D^4 bytes, O(D^6) time).  It certifies its state as the jump-map solver does: residual
max |L(rho)| at most dynamics.STEADY_RESIDUAL_TOL against the full
generator, and :meth:`DensityMatrix.validate`.

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

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dynamics
from .dynamics import DensityMatrix, SteadyStateError, _certified, _check_input, decay_hamiltonian
from .fock import FockBasis, ModeOperator, annihilator_a, annihilator_b
from .observables import VACUUM_OCCUPATION_EPS, PhotonStatistics, VacuumModeError, _occupation, _real

TRACE_DRIFT_TOL = 1e-8


class NonUniqueSteadyStateError(SteadyStateError):
    """The Liouvillian nullspace has dimension > 1."""


class TraceDriftError(RuntimeError):
    """Trace drifted beyond tolerance during time evolution."""


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
        return float(np.max(np.abs(np.linalg.eigvalsh(self.hamiltonian))))


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
    import scipy.linalg  # only the dense oracle needs scipy

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
    if residual > dynamics.STEADY_RESIDUAL_TOL:
        _diagnose_singular(lio)
    return _certified(DensityMatrix(unvectorize(vec, d), lio.basis), residual)


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
    svals = np.linalg.svd(lio.matrix, compute_uv=False)
    scale = svals[0] if svals[0] > 0 else 1.0
    nullity = int(np.sum(svals < 1e-10 * scale))
    if nullity > 1:
        raise NonUniqueSteadyStateError(
            f"Liouvillian nullspace dimension {nullity}; steady state is not unique"
        )


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


class Mode(enum.Enum):
    A = "a"
    B = "b"


def _g2(rho: DensityMatrix, op: ModeOperator, label: str) -> float:
    c = op.matrix
    cd = op.dag()
    occupation = _real(np.trace(cd @ c @ rho.matrix), f"<{label}^dag {label}>")
    if occupation <= VACUUM_OCCUPATION_EPS:
        raise VacuumModeError(
            f"mode {label} occupation {occupation:.3e} below guard; g2 undefined"
        )
    pair = _occupation(_real(np.trace(cd @ cd @ c @ c @ rho.matrix), f"<{label}^dag^2 {label}^2>"))
    return pair / occupation**2


def g2_aa(rho: DensityMatrix, a: ModeOperator) -> float:
    """Zero-delay second-order correlation of the fundamental mode."""
    return _g2(rho, a, "a")


def g2_bb(rho: DensityMatrix, b: ModeOperator) -> float:
    """Zero-delay second-order correlation of the second-harmonic mode."""
    return _g2(rho, b, "b")


def mean_photon(rho: DensityMatrix, mode: Mode) -> float:
    """Mean occupation Tr{c^dag c rho} of the requested mode; never negative."""
    occ = rho.basis.occ_a if mode is Mode.A else rho.basis.occ_b
    diag = np.real(np.diag(rho.matrix))
    return _occupation(float(np.sum(diag * occ)))


def photon_statistics(
    rho: DensityMatrix, a: ModeOperator, b: ModeOperator
) -> PhotonStatistics:
    """All observables at once, from the operators; vacuum-undefined g2 values
    become None.  :func:`rotcav.observables.population_statistics` gives the
    same numbers from the populations alone."""
    g2 = {}
    for op, label in ((a, "a"), (b, "b")):
        try:
            g2[label] = _g2(rho, op, label)
        except VacuumModeError:
            g2[label] = None
    return PhotonStatistics(
        g2_aa=g2["a"],
        g2_bb=g2["b"],
        n_a=mean_photon(rho, Mode.A),
        n_b=mean_photon(rho, Mode.B),
    )
