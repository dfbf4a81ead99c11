"""Truncated two-mode Fock space and ladder operators.

The Hilbert space is spanned by number states |n_a, n_b> with
0 <= n_a <= na_cut (fundamental mode) and 0 <= n_b <= nb_cut
(second-harmonic mode).  States are flattened n_a-major,

    index(n_a, n_b) = n_a * (nb_cut + 1) + n_b,

so the vacuum |0,0> sits at index 0.  The layout is derived once, into
the read-only occupation arrays ``FockBasis.occ_a`` and ``occ_b``.
Every operator and superoperator built on this module inherits that
ordering, so it must not change.

Operators are stored as dense complex matrices, frozen after
construction; at the dimensions used here (D <= ~100) dense algebra is
exact and fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FockBasis:
    """Two-mode number basis truncated at (na_cut, nb_cut); occ_a[i] and
    occ_b[i] are the occupations of state i, the one place the layout is
    derived (left out of eq and hash)."""

    na_cut: int
    nb_cut: int
    dim: int = field(init=False)
    occ_a: np.ndarray = field(init=False, repr=False, compare=False)
    occ_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for cut in (self.na_cut, self.nb_cut):
            if isinstance(cut, bool) or not isinstance(cut, (int, np.integer)):
                raise ValueError(
                    f"cutoffs must be integers, got ({self.na_cut!r}, {self.nb_cut!r})"
                )
        for key in ("na_cut", "nb_cut"):  # Python ints, so that dim cannot wrap
            object.__setattr__(self, key, int(getattr(self, key)))
        if self.na_cut < 1 or self.nb_cut < 1:
            raise ValueError(
                f"cutoffs must be >= 1, got ({self.na_cut}, {self.nb_cut})"
            )
        dim = (self.na_cut + 1) * (self.nb_cut + 1)
        occ_a, occ_b = divmod(np.arange(dim), self.nb_cut + 1)
        occ_a.setflags(write=False)
        occ_b.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "occ_a", occ_a)
        object.__setattr__(self, "occ_b", occ_b)

    def index(self, n_a: int, n_b: int) -> int:
        """Flat index of |n_a, n_b>."""
        if not (0 <= n_a <= self.na_cut and 0 <= n_b <= self.nb_cut):
            raise ValueError(f"occupation ({n_a}, {n_b}) outside basis")
        return n_a * (self.nb_cut + 1) + n_b


@dataclass(frozen=True)
class ModeOperator:
    """A dense operator tied to the basis it acts on."""

    matrix: np.ndarray
    basis: FockBasis

    def __post_init__(self):
        d = self.basis.dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"operator shape {self.matrix.shape} does not match basis dim {d}"
            )
        self.matrix.setflags(write=False)

    def dag(self) -> np.ndarray:
        return self.matrix.conj().T


def build_basis(na_cut: int, nb_cut: int) -> FockBasis:
    """Construct the truncated basis; rejects non-integer cutoffs and cutoffs < 1."""
    return FockBasis(na_cut, nb_cut)


def ladder(basis: FockBasis, mode: str) -> tuple[int, np.ndarray]:
    """Stride s and sqrt(n) of mode "a" or "b": its annihilator takes state i + s
    to state i with amplitude sqrt(n)[i], 0 where that leaves the mode's block."""
    step, occ = (basis.nb_cut + 1, basis.occ_a) if mode == "a" else (1, basis.occ_b)
    return step, np.sqrt(occ[step:])


def _lowering(basis: FockBasis, mode: str) -> ModeOperator:
    step, sqrt_n = ladder(basis, mode)
    return ModeOperator(np.diag(sqrt_n, k=step).astype(complex), basis)


def annihilator_a(basis: FockBasis) -> ModeOperator:
    """Annihilator of the fundamental mode: a|n_a,n_b> = sqrt(n_a)|n_a-1,n_b>."""
    return _lowering(basis, "a")


def annihilator_b(basis: FockBasis) -> ModeOperator:
    """Annihilator of the second-harmonic mode: b|n_a,n_b> = sqrt(n_b)|n_a,n_b-1>."""
    return _lowering(basis, "b")
