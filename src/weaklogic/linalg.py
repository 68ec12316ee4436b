"""Complex linear algebra over small labelled Hilbert spaces.

States carry basis labels so that reports stay readable. An operator is a
complex square matrix or, for a real diagonal operator, its 1-D diagonal. The
kernels here branch on the form: diagonals combine elementwise in O(d) with
the bits of the dense products, and a diagonal meeting a matrix becomes one.
Elsewhere only ``scenario._Record.product`` reads the form, to skip the
self-adjointness test of a product of two real diagonals. Everything is
immutable and pure: each array the library keeps, a state's amplitudes
included, is a ``_frozen`` copy, which no caller can make writable again.

Each public function that takes an operator coerces it with ``as_operator``,
which also scans it for NaN/Inf, and hands it to a private kernel (``_act``,
``_sum``, ``_compose``, ``_proves_projector``, ``_element``) that does not
coerce again; the library's own callers use the kernels, and
``_complement``, on operators that were checked where they entered and on
amplitudes that ``State`` scanned. A public function whose products or
result can overflow forms them under ``np.errstate(over="ignore",
invalid="ignore")`` and raises ValueError naming the overflow where one is
not finite. Of the kernels only ``_element`` is guarded: it takes every
matrix element the library forms, inner products included, and raises
where one is not finite. The others are not, as the library's own operands
are proven projectors, whose products are bounded.

Every structural check (idempotence, self-adjointness, commutation,
orthogonality, a vanishing product, unitarity) passes exactly when
``np.max(np.abs(r)) <= STRUCT_TOL`` for its residual r, and decides that
through one test, ``_within_struct_tol``. The thresholds are those of
``tolerances``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotAProjectorError
from .tolerances import SCALAR_TOL, STRUCT_TOL


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


def _frozen(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` over an immutable ``bytes`` buffer, with its bits:
    neither it nor its ``.base`` can be made writable again."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


def _real_diagonal(m: np.ndarray) -> np.ndarray | None:
    """The real diagonal of an operator that ``as_operator`` returned, as a
    ``_frozen`` copy, or None when ``dense`` of it would not give back every
    bit of the operator, signed zeros included."""
    d = np.diagonal(m) if m.ndim == 2 else m
    if d.imag.any() or m.ndim == 2 and np.diag(d).tobytes() != m.tobytes():
        return None
    return _frozen(d)


@dataclass(frozen=True, eq=False)
class State:
    """Complex amplitudes over a labelled basis."""

    amps: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("state amplitudes must form a non-empty vector")
        _check_finite(amps, "state")
        labels = tuple(str(lab) for lab in self.labels)
        if len(labels) != amps.size:
            raise ValueError(f"{len(labels)} labels for {amps.size} amplitudes")
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        object.__setattr__(self, "amps", _frozen(amps))
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
    """Inner product <u|v>, conjugating u; ValueError where it overflows."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")
    if u.labels != v.labels:
        raise ValueError("basis label mismatch between states")
    return _element(u.amps, v.amps)


def _element(bra: np.ndarray, ket: np.ndarray, *ops: np.ndarray) -> complex:
    """<bra|ops[0] ... ops[-1]|ket> of two amplitude vectors and operators
    that ``as_operator`` returned; the last operator acts first. Every
    matrix element of the library is one of these. Where it is not finite,
    as where a product overflows, it raises ValueError."""
    for op in reversed(ops):
        ket = _act(op, ket)
    value = complex(np.vdot(bra, ket))
    if not cmath.isfinite(value):
        raise ValueError("matrix element is not finite: the operator product overflows")
    return value


def _act(m: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """An operator that ``as_operator`` returned applied to an amplitude
    vector. A diagonal acts elementwise; adding 0.0 turns a -0.0 into the
    +0.0 that the matrix product's sum gives."""
    if len(m) != amps.size:
        raise ValueError(f"dimension mismatch: operator {len(m)} vs state {amps.size}")
    return m * amps + 0.0 if m.ndim == 1 else m @ amps


def apply(op: np.ndarray, v: State) -> State:
    """Apply an operator to a state; the result is not renormalized. A result
    that overflows raises ValueError."""
    op = as_operator(op)
    with np.errstate(over="ignore", invalid="ignore"):
        return State(_finite(_act(op, v.amps), "operator applied to the amplitudes"), v.labels)


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


def _finite(result: np.ndarray, what: str) -> np.ndarray:
    """``result``, or ValueError naming the overflow when it is not finite."""
    if not np.isfinite(result).all():
        raise ValueError(f"{what} is not finite: it overflows")
    return result


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator product a.b (apply b first). A product that overflows raises
    ValueError, without numpy's overflow warning; the library's own products,
    of proven projectors, are bounded and use ``_compose`` unguarded."""
    a, b = as_operator(a), as_operator(b)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_compose(a, b), "operator product")


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator sum a + b; ValueError where it overflows."""
    a, b = as_operator(a), as_operator(b)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(_sum(a, b), "operator sum")


def _complement(m: np.ndarray) -> np.ndarray:
    """1 - m, in the form of an operator that ``as_operator`` returned."""
    return (np.ones(len(m), dtype=complex) if m.ndim == 1 else identity(len(m))) - m


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
    """Whether ``np.max(np.abs(r)) <= STRUCT_TOL`` for a complex residual r;
    a NaN fails."""
    return bool(np.max(np.abs(r)) <= STRUCT_TOL)


def _self_adjoint(m: np.ndarray) -> bool:
    """Whether every entry of m - m^dagger is within STRUCT_TOL; a NaN fails."""
    return _within_struct_tol(m - m.T.conj())


def _bounded(m: np.ndarray) -> bool:
    """Whether no real or imaginary part of m exceeds 2 in magnitude: then
    each entry of a product of two such d x d matrices is at most 8d in
    modulus, far from overflow."""
    parts = np.ascontiguousarray(m).view(float)
    return parts.max() <= 2.0 and parts.min() >= -2.0


def _proves_projector(p: np.ndarray) -> bool:
    """``is_projector`` of an operator that ``as_operator`` returned. An
    operand with a real or imaginary part above 2 in magnitude fails before
    p.p is formed, which could overflow: |z| >= |part| > 2 for an entry z
    puts an eigenvalue of a self-adjoint p beyond 2 in magnitude, where
    lambda^2 - lambda exceeds 2, so p is not idempotent within STRUCT_TOL."""
    if not _bounded(p):
        return False
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
    """True when a.b - b.a vanishes entrywise; ValueError where either
    product overflows, whose residual would not decide it."""
    a, b = _pair(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        r = _finite(_product(a, b), "operator product")
        r -= _finite(_product(b, a), "operator product")
    return _within_struct_tol(r)


def orthogonal(p: np.ndarray, q: np.ndarray) -> bool:
    """True when the operator product p.q vanishes entrywise; ValueError
    where it overflows."""
    p, q = _pair(p, q)
    with np.errstate(over="ignore", invalid="ignore"):
        return _within_struct_tol(_finite(_product(p, q), "operator product"))
