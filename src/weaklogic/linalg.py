"""Dense complex linear algebra over small labelled Hilbert spaces.

States carry basis labels so that reports stay readable; operators are plain
complex numpy matrices. Everything is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotAProjectorError

#: Tolerance for structural matrix checks (projector, commutation, orthogonality).
STRUCT_TOL = 1e-10

#: Tolerance for scalar comparisons.
SCALAR_TOL = 1e-12


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")


def as_operator(entries, what: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix, rejecting NaN/Inf."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    _check_finite(m, what)
    return m


@dataclass(frozen=True, eq=False)
class State:
    """Complex amplitudes over a labelled basis."""

    amps: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("state amplitudes must form a non-empty vector")
        _check_finite(amps, "state")
        labels = tuple(str(lab) for lab in self.labels)
        if len(labels) != amps.size:
            raise ValueError(
                f"{len(labels)} labels for {amps.size} amplitudes"
            )
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "State":
        n = self.norm
        if n < SCALAR_TOL:
            raise ValueError("cannot normalize a zero state")
        return State(self.amps / n, self.labels)

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{lab}: {amp:.6g}" for lab, amp in zip(self.labels, self.amps)
        )
        return f"State({terms})"


def inner(u: State, v: State) -> complex:
    """Inner product <u|v>, conjugating u."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    if u.labels != v.labels:
        raise ValueError("basis label mismatch between states")
    return complex(np.vdot(u.amps, v.amps))


def apply(op: np.ndarray, v: State) -> State:
    """Apply an operator to a state; the result is not renormalized."""
    m = as_operator(op)
    if m.shape[0] != v.dim:
        raise ValueError(f"dimension mismatch: operator {m.shape[0]} vs state {v.dim}")
    return State(m @ v.amps, v.labels)


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator product a.b (apply b first)."""
    a = as_operator(a)
    b = as_operator(b)
    _check_same_dim(a, b)
    return a @ b


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_operator(a)
    b = as_operator(b)
    _check_same_dim(a, b)
    return a + b


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def basis_projector(labels: Sequence[str], members: Iterable[str]) -> np.ndarray:
    """Projector onto the span of the listed basis labels."""
    index = {lab: i for i, lab in enumerate(labels)}
    p = np.zeros((len(labels), len(labels)), dtype=complex)
    for member in members:
        if member not in index:
            raise ValueError(f"unknown basis label {member!r}")
        i = index[member]
        p[i, i] = 1.0
    return p


def is_projector(p: np.ndarray) -> bool:
    """Entrywise check of idempotence and self-adjointness."""
    p = as_operator(p)
    if np.max(np.abs(p @ p - p)) > STRUCT_TOL:
        return False
    return bool(np.max(np.abs(p - p.conj().T)) <= STRUCT_TOL)


def require_projector(p, what: str) -> np.ndarray:
    """The operator as a square complex matrix; NotAProjectorError if it is
    not a projector."""
    p = as_operator(p, what)
    if not is_projector(p):
        raise NotAProjectorError(f"{what} is not a projector")
    return p


def commutes(a: np.ndarray, b: np.ndarray) -> bool:
    a = as_operator(a)
    b = as_operator(b)
    _check_same_dim(a, b)
    return bool(np.max(np.abs(a @ b - b @ a)) <= STRUCT_TOL)


def orthogonal(p: np.ndarray, q: np.ndarray) -> bool:
    """True when the operator product p.q vanishes entrywise."""
    p = as_operator(p)
    q = as_operator(q)
    _check_same_dim(p, q)
    return bool(np.max(np.abs(p @ q)) <= STRUCT_TOL)
