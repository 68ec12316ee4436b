"""Complex linear algebra over small labelled Hilbert spaces.

States carry basis labels so that reports stay readable. An operator is a
complex square matrix or, for a real diagonal operator, its 1-D diagonal. Only
this module branches on the form: diagonals combine elementwise in O(d) with
the bits of the dense products, and a diagonal meeting a matrix becomes one.
Everything is immutable and pure.

Each public function that takes an operator coerces it with ``as_operator``,
which also scans it for NaN/Inf, and hands it to a private kernel (``_act``,
``_sum``, ``_compose``, ``_complement``, ``_proves_projector``) that does not
coerce again; the library's own callers use the kernels on operators that
were checked where they entered.

Every structural check (idempotence, self-adjointness, commutation,
orthogonality, a vanishing product, unitarity) passes exactly when
``np.max(np.abs(r)) <= STRUCT_TOL`` for its residual r, and decides that
through one test, ``_within_struct_tol``. Each residual is formed in a buffer
the check owns, in place: ``r = m.T.copy()`` conjugated and subtracted from
m, or ``r = p @ p`` less p, never a strided temporary. The test reads the
largest real or imaginary part of r first. As max(|Re z|, |Im z|) <= |z| <=
sqrt(2) max(|Re z|, |Im z|), a part above STRUCT_TOL fails the check and
parts all within STRUCT_TOL/2 pass it; only in between is |r| taken.
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
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")


def as_operator(entries, what: str = "operator") -> np.ndarray:
    """Coerce to a complex square matrix or non-empty diagonal, rejecting NaN/Inf.
    A complex diagonal becomes its matrix: its elementwise products can differ
    in the last bit from the dense ones, which use fused multiply-adds."""
    m = np.asarray(entries, dtype=complex)
    if not (m.ndim == 1 and m.size or m.ndim == 2 and m.shape[0] == m.shape[1]):
        raise ValueError(f"{what} must be a square matrix or its diagonal, got {m.shape}")
    _check_finite(m, what)
    return np.diag(m) if m.ndim == 1 and m.imag.any() else m


def _matrix(m: np.ndarray) -> np.ndarray:
    return np.diag(m) if m.ndim == 1 else m


def dense(entries, what: str = "operator") -> np.ndarray:
    """The operator as a square matrix."""
    return _matrix(as_operator(entries, what))


def _real_diagonal(m: np.ndarray) -> np.ndarray | None:
    """``diagonal`` of an operator that ``as_operator`` returned."""
    d = np.array(np.diagonal(m) if m.ndim == 2 else m)
    if d.imag.any() or m.ndim == 2 and np.diag(d).tobytes() != m.tobytes():
        return None
    d.setflags(write=False)
    return d


def diagonal(entries) -> np.ndarray | None:
    """The operator's real diagonal as a read-only copy, or None when ``dense``
    of it would not give back every bit of the operator, signed zeros included."""
    return _real_diagonal(as_operator(entries))


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
            raise ValueError(f"{len(labels)} labels for {amps.size} amplitudes")
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
        with np.errstate(over="ignore"):
            n = self.norm
        if not np.isfinite(n):
            raise ValueError("state norm overflows: scale the amplitudes down")
        if n < SCALAR_TOL:
            raise ValueError("state has zero norm")
        # scaled part by part with the 1/n that complex division by n uses,
        # which keeps the bits of its results and every signed zero
        return State((self.amps.view(float) * (1.0 / n)).view(complex), self.labels)

    def __repr__(self) -> str:
        terms = ", ".join(f"{lab}: {amp:.6g}" for lab, amp in zip(self.labels, self.amps))
        return f"State({terms})"


def inner(u: State, v: State) -> complex:
    """Inner product <u|v>, conjugating u."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    if u.labels != v.labels:
        raise ValueError("basis label mismatch between states")
    return complex(np.vdot(u.amps, v.amps))


def _act(m: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """``act`` of an operator that ``as_operator`` returned."""
    if len(m) != amps.size:
        raise ValueError(f"dimension mismatch: operator {len(m)} vs state {amps.size}")
    return m * amps + 0.0 if m.ndim == 1 else m @ amps


def act(op, amps: np.ndarray) -> np.ndarray:
    """The operator applied to an amplitude vector. A diagonal acts elementwise;
    adding 0.0 turns a -0.0 into the +0.0 that the matrix product's sum gives."""
    return _act(as_operator(op), amps)


def apply(op: np.ndarray, v: State) -> State:
    """Apply an operator to a state; the result is not renormalized."""
    return State(act(op, v.amps), v.labels)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b if a.ndim == 1 else a @ b


def _one_form(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two operators that ``as_operator`` returned, in one form: diagonals if
    both are, else matrices."""
    if a.ndim != b.ndim:
        a, b = _matrix(a), _matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Both operands coerced, in one form."""
    return _one_form(as_operator(a), as_operator(b))


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``compose`` of two operators that ``as_operator`` returned."""
    return _product(*_one_form(a, b))


def _sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``add`` of two operators that ``as_operator`` returned."""
    a, b = _one_form(a, b)
    return a + b


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator product a.b (apply b first)."""
    return _compose(as_operator(a), as_operator(b))


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _sum(as_operator(a), as_operator(b))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator in either form, in that form."""
    return m.conj() if m.ndim == 1 else m.conj().T


def _complement(m: np.ndarray) -> np.ndarray:
    """``complement`` of an operator that ``as_operator`` returned."""
    return (np.ones(len(m), dtype=complex) if m.ndim == 1 else identity(len(m))) - m


def complement(op) -> np.ndarray:
    """1 - op, in the operator's form."""
    return _complement(as_operator(op))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def basis_projector(labels: Sequence[str], members: Iterable[str]) -> np.ndarray:
    """Projector onto the span of the listed basis labels, as its diagonal."""
    index = {lab: i for i, lab in enumerate(labels)}
    p = np.zeros(len(labels), dtype=complex)
    for member in members:
        if member not in index:
            raise ValueError(f"unknown basis label {member!r}")
        p[index[member]] = 1.0
    return p


def _within_struct_tol(r: np.ndarray) -> bool:
    """Whether ``np.max(np.abs(r)) <= STRUCT_TOL`` for a complex residual r
    whose last axis is contiguous; a NaN fails. Reads the parts of r, and
    takes |r| only when its largest part lies in (STRUCT_TOL/2, STRUCT_TOL]."""
    parts = r.view(float)
    hi, lo = parts.max(), parts.min()
    if not (hi <= STRUCT_TOL and lo >= -STRUCT_TOL):
        return False
    if hi <= STRUCT_TOL / 2 and lo >= -STRUCT_TOL / 2:
        return True
    return bool(np.max(np.abs(r)) <= STRUCT_TOL)


def _self_adjoint(m: np.ndarray) -> bool:
    """Whether every entry of m - m^dagger is within STRUCT_TOL; a NaN fails.
    The residual is formed in a copy, so m is never written."""
    r = m.T.copy()
    np.conjugate(r, out=r)
    np.subtract(m, r, out=r)
    return _within_struct_tol(r)


def _proves_projector(p: np.ndarray) -> bool:
    """``is_projector`` of an operator that ``as_operator`` returned."""
    r = _product(p, p)
    r -= p
    return _within_struct_tol(r) and _self_adjoint(p)


def is_projector(p: np.ndarray) -> bool:
    """Entrywise check of idempotence and self-adjointness."""
    return _proves_projector(as_operator(p))


def require_projector(p, what: str) -> np.ndarray:
    """The operator as a complex array in its form; NotAProjectorError if it
    is not a projector."""
    p = as_operator(p, what)
    if not _proves_projector(p):
        raise NotAProjectorError(f"{what} is not a projector")
    return p


def commutes(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = _pair(a, b)
    r = _product(a, b)
    r -= _product(b, a)
    return _within_struct_tol(r)


def orthogonal(p: np.ndarray, q: np.ndarray) -> bool:
    """True when the operator product p.q vanishes entrywise."""
    return _within_struct_tol(_product(*_pair(p, q)))
