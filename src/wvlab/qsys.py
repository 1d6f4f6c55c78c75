"""Finite-dimensional quantum-system states, observables, and the weak value.

States are plain complex vectors (or density matrices) of dimension d >= 2.
Everything is validated on construction and immutable afterwards, so all
operations here are pure functions safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NullVector, OrthogonalSelection

ORTHOGONALITY_THRESHOLD = 1e-12  # double-precision noise floor with safety margin


def _as_complex_vector(amplitudes) -> np.ndarray:
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    vec.setflags(write=False)
    return vec


def _as_complex_matrix(matrix) -> np.ndarray:
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class SystemState:
    """Pure state of the pre-/post-selected system, dimension d >= 2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = _as_complex_vector(self.amplitudes)
        object.__setattr__(self, "amplitudes", vec)
        if vec.size < 2:
            raise ValueError(f"system dimension must be >= 2, got {vec.size}")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than 1e-12")

    @classmethod
    def normalized(cls, amplitudes) -> "SystemState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm < 1e-300:
            raise NullVector("cannot normalize a zero vector")
        return cls(vec / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityState":
        return DensityState(np.outer(self.amplitudes, self.amplitudes.conj()))

    def orthogonal_qubit(self) -> "SystemState":
        """The unique (up to phase) state orthogonal to a qubit state."""
        if self.dim != 2:
            raise ValueError("orthogonal_qubit is defined for d = 2 only")
        a, b = self.amplitudes
        return SystemState(np.array([-np.conj(b), np.conj(a)]))


@dataclass(frozen=True)
class DensityState:
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if mat.shape[0] < 2:
            raise ValueError("system dimension must be >= 2")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(mat).real - 1.0) > 1e-12:
            raise ValueError("density matrix trace deviates from 1 by more than 1e-12")
        eigvals = np.linalg.eigvalsh(mat)
        if eigvals.min() < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {eigvals.min():.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Observable:
    """Hermitian operator of the system."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("observable is not Hermitian within 1e-12")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvector columns, read-only."""
        return self._eig

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        # once per observable, on first use: an import that makes the module's
        # constants would otherwise load LAPACK (about 1 MB resident) even in
        # a process that never decomposes them
        eig = tuple(np.linalg.eigh(self.matrix))
        for part in eig:
            part.setflags(write=False)
        return eig


# Pauli operators and |1><1|, used throughout the scheme catalog.
SIGMA_X = Observable(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Z = Observable(np.array([[1, 0], [0, -1]], dtype=complex))
PROJ_ONE = Observable(np.array([[0, 0], [0, 1]], dtype=complex))


def bloch_state(theta: float, phi: float) -> SystemState:
    """Qubit cos(theta/2)|0> + sin(theta/2) e^{i phi}|1>."""
    return SystemState(
        np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)])
    )


def weak_value(pre: SystemState, post: SystemState, a: Observable) -> complex:
    """<post|A|pre> / <post|pre>.

    Raises OrthogonalSelection when the overlap modulus is at or below
    ORTHOGONALITY_THRESHOLD, where the ratio is undefined.
    """
    overlap = np.vdot(post.amplitudes, pre.amplitudes)
    if abs(overlap) <= ORTHOGONALITY_THRESHOLD:
        raise OrthogonalSelection(
            f"|<post|pre>| = {abs(overlap):.3e} <= {ORTHOGONALITY_THRESHOLD:.1e}"
        )
    return complex(np.vdot(post.amplitudes, a.matrix @ pre.amplitudes) / overlap)


def optimal_postselection(pre: SystemState, a: Observable) -> SystemState:
    """A|pre> normalized: the post-selection concentrating the joint-state
    information into the post-selected meter in the weak-coupling regime."""
    vec = a.matrix @ pre.amplitudes
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise NullVector("observable annihilates the pre-selected state")
    return SystemState(vec / norm)
