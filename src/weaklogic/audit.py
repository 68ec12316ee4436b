"""Consistency audits of projector sums and products via weak values.

A sum of orthogonal projectors reads as OR, a product of commuting
projectors as AND. Each audit measures three weak values (both operands and
their combination) and classifies the zero-pattern:

    sum cases                       product cases
    ---------                       -------------
    I    (0, 0, 0)   consistent     i          (0, 0, 0)  consistent
    II   (n, n, n)   consistent     ii         (n, n, n)  consistent
    III  (n, n, 0)   inconsistent   iii        (n, n, 0)  inconsistent
    one operand zero -> degenerate, iv         (0, 0, n)  inconsistent
    consistent by additivity        v          (n, 0, 0)  consistent
                                    v_mirror   (0, n, 0)  consistent
    (n = non-zero)                  vi         (n, 0, n)  inconsistent
                                    vi_mirror  (0, n, n)  inconsistent

The mirror cases swap the roles of the two operands and carry the same
verdicts as their originals. The sum's weak value is the sum of its
operands', so when both operands vanish a sum numerator above the zero
tolerance can only come from the threshold itself; the sum is then reported
as vanishing, case I.

Both classifiers reject an operand that is not a projector. Each call
records which operators are proven in one ``scenario._Batch``: a channel of
the scenario was proved a projector once, when the scenario was built, and is
not proved again; in the expression text ``audit_all`` takes, a product of
proven factors is proven when it is self-adjoint within STRUCT_TOL, the step
by which ``classify_product`` also forms and tests its product; a product of
two proven diagonals is self-adjoint by its form and is not tested. Any other
operand, such as a sum, a non-commuting product or a copy of a channel, is
coerced, scanned for NaN/Inf and proved. The weak values are then taken of
the proven operands and their combination without checking them again.

One ``audit_all`` call takes each of these steps once for all its pairs and
keeps nothing past the call: it parses and folds each distinct operand text,
proves each operand that needs the full proof (one that fails is proved
again wherever it is named, so each error names its position), forms and
tests each product of two proven operands, and takes the weak value of each
proven operand. So the AND audit ``Lj | Lk`` reuses the ``Lj*Lk`` of the OR
audit ``Lj*Lk | Rj*Rk`` and its weak value. A near-pole weak value warns
once, from the classifier's line, when the call takes it; its reuses do not
warn again, and each verdict's weak values carry the ``near_pole`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .errors import AuditPreconditionError, ExpressionError, PhysicsError
from .linalg import _one_form, _product, _within_struct_tol
from .scenario import Scenario, _Batch
from .weak import WeakValue, _weak_value


class SumCase(Enum):
    I = "I"
    II = "II"
    III = "III"
    DEGENERATE = "I/II-degenerate"


class ProductCase(Enum):
    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"
    V = "v"
    VI = "vi"
    V_MIRROR = "v_mirror"
    VI_MIRROR = "vi_mirror"


INCONSISTENT_SUM_CASES = frozenset({SumCase.III})
INCONSISTENT_PRODUCT_CASES = frozenset(
    {ProductCase.III, ProductCase.IV, ProductCase.VI, ProductCase.VI_MIRROR}
)

_SUM_NARRATIVES = {
    SumCase.I: (
        "no meter registers: not in the first channel, not in the second, "
        "and not in their union; the OR reading is coherent"
    ),
    SumCase.II: (
        "all three meters register: in both channels and in their union; "
        "the OR reading is coherent"
    ),
    SumCase.III: (
        "each channel's meter registers on its own, yet the meter for their "
        "union stays silent; presence in either channel separately cannot be "
        "reconciled with absence from their union"
    ),
    SumCase.DEGENERATE: (
        "exactly one channel registers and the union follows it by "
        "additivity; the OR reading is coherent"
    ),
}

_PRODUCT_NARRATIVES = {
    ProductCase.I: (
        "no meter registers: not in either channel and not in both jointly; "
        "the AND reading is coherent"
    ),
    ProductCase.II: (
        "all three meters register: in each channel and in both jointly; "
        "the AND reading is coherent"
    ),
    ProductCase.III: (
        "each channel registers separately, yet the joint meter stays "
        "silent; being in each channel while not being in both defeats the "
        "AND reading"
    ),
    ProductCase.IV: (
        "neither channel registers, yet the joint meter does; being in both "
        "channels while being in neither defeats the AND reading"
    ),
    ProductCase.V: (
        "the first channel registers, the second does not, and the joint "
        "meter stays silent; the AND reading is coherent"
    ),
    ProductCase.V_MIRROR: (
        "the second channel registers, the first does not, and the joint "
        "meter stays silent; the AND reading is coherent"
    ),
    ProductCase.VI: (
        "the first channel registers and the second does not, yet the joint "
        "meter registers; presence in both without presence in each defeats "
        "the AND reading"
    ),
    ProductCase.VI_MIRROR: (
        "the second channel registers and the first does not, yet the joint "
        "meter registers; presence in both without presence in each defeats "
        "the AND reading"
    ),
}


@dataclass(frozen=True)
class AuditVerdict:
    kind: str  # "sum" or "product"
    case: Union[SumCase, ProductCase]
    consistent: bool
    weak_values: tuple[WeakValue, WeakValue, WeakValue]
    narrative: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case.value,
            "consistent": self.consistent,
            "weak_values": [
                {"re": w.value.real, "im": w.value.imag, "is_zero": w.is_zero}
                for w in self.weak_values
            ],
            "narrative": self.narrative,
        }


def _weak(s: Scenario, op: np.ndarray, batch: _Batch) -> WeakValue:
    """``_weak_value`` of a proven operand, taken once per batch. Near the
    pole it warns when taken, naming the caller's line; a reuse does not
    warn again, and its ``near_pole`` flag still says so."""
    w = batch.weak_values.get(id(op))
    if w is None:
        w = batch.weak_values[id(op)] = _weak_value(s, op, stacklevel=3)
    return w


def classify_sum(s: Scenario, pa: np.ndarray, pb: np.ndarray) -> AuditVerdict:
    """Audit the OR combination of two orthogonal projectors."""
    batch = _Batch(s)
    pa, pb = batch.prove(pa, "first operand"), batch.prove(pb, "second operand")
    return _classify_sum(s, pa, pb, batch)


def _classify_sum(s: Scenario, pa: np.ndarray, pb: np.ndarray, batch: _Batch) -> AuditVerdict:
    """``classify_sum`` of two proven projectors, their weak values taken
    through ``batch``."""
    a, b = _one_form(pa, pb)
    if not _within_struct_tol(_product(a, b)):
        raise AuditPreconditionError(
            "projectors are not orthogonal; their sum does not represent a "
            "disjunction of exclusive alternatives"
        )
    wa = _weak(s, pa, batch)
    wb = _weak(s, pb, batch)
    ws = _weak_value(s, a + b)
    if wa.is_zero and wb.is_zero:
        ws = replace(ws, is_zero=True)
        case = SumCase.I
    elif wa.is_zero != wb.is_zero:
        case = SumCase.DEGENERATE
    elif ws.is_zero:
        case = SumCase.III
    else:
        case = SumCase.II
    return AuditVerdict(
        kind="sum",
        case=case,
        consistent=case not in INCONSISTENT_SUM_CASES,
        weak_values=(wa, wb, ws),
        narrative=_SUM_NARRATIVES[case],
    )


_PRODUCT_TABLE = {
    (True, True, True): ProductCase.I,
    (False, False, False): ProductCase.II,
    (False, False, True): ProductCase.III,
    (True, True, False): ProductCase.IV,
    (False, True, True): ProductCase.V,
    (True, False, True): ProductCase.V_MIRROR,
    (False, True, False): ProductCase.VI,
    (True, False, False): ProductCase.VI_MIRROR,
}


def classify_product(s: Scenario, pa: np.ndarray, pb: np.ndarray) -> AuditVerdict:
    """Audit the AND combination of two commuting, non-orthogonal projectors."""
    batch = _Batch(s)
    pa, pb = batch.prove(pa, "first operand"), batch.prove(pb, "second operand")
    return _classify_product(s, pa, pb, batch)


def _classify_product(s: Scenario, pa: np.ndarray, pb: np.ndarray, batch: _Batch) -> AuditVerdict:
    """``classify_product`` of two proven projectors, their product formed
    and tested by the product step of ``batch`` and the weak values taken
    through it."""
    # (PQ)^dagger = QP: the product is self-adjoint, and so proven, exactly
    # when P, Q commute
    product = batch.product(pa, pb)
    if id(product) not in batch.proven:
        raise AuditPreconditionError(
            "projectors do not commute; their product is not a projector"
        )
    if _within_struct_tol(product):
        raise AuditPreconditionError(
            "projector product vanishes as an operator; the conjunction is "
            "trivially empty"
        )
    wa = _weak(s, pa, batch)
    wb = _weak(s, pb, batch)
    wp = _weak(s, product, batch)
    case = _PRODUCT_TABLE[(wa.is_zero, wb.is_zero, wp.is_zero)]
    return AuditVerdict(
        kind="product",
        case=case,
        consistent=case not in INCONSISTENT_PRODUCT_CASES,
        weak_values=(wa, wb, wp),
        narrative=_PRODUCT_NARRATIVES[case],
    )


@dataclass(frozen=True)
class AuditEntry:
    expr_a: str
    expr_b: str
    kind: str
    verdict: AuditVerdict | None
    error: str | None

    def to_dict(self) -> dict:
        base = {"expr_a": self.expr_a, "expr_b": self.expr_b, "kind": self.kind}
        if self.error is not None:
            base["error"] = self.error
        else:
            base.update(self.verdict.to_dict())
        return base


@dataclass(frozen=True)
class AuditReport:
    scenario: str
    dim: int
    post_overlap: complex
    channels: tuple[str, ...]
    entries: tuple[AuditEntry, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "dim": self.dim,
            "postselection_overlap": {
                "re": self.post_overlap.real,
                "im": self.post_overlap.imag,
            },
            "channels": list(self.channels),
            "pairs": [entry.to_dict() for entry in self.entries],
        }


def _audit_pair(s: Scenario, expr_a: str, expr_b: str, kind: str, batch=None) -> AuditVerdict:
    """Audit a pair of expressions: both are evaluated, then each is proved a
    projector, the first before the second. ``batch`` is ``audit_all``'s."""
    batch = batch or _Batch(s)
    pa, pb = batch.projectors((expr_a, "first operand"), (expr_b, "second operand"))
    classify = _classify_sum if kind == "sum" else _classify_product
    return classify(s, pa, pb, batch)


def audit_all(s: Scenario, pairs: Sequence[tuple[str, str, str]]) -> AuditReport:
    """Run a batch of sum/product audits given as expression pairs.

    Errors in individual pairs are collected as entries rather than raised,
    so one bad pair does not abort the rest of the report. The pairs share
    one ``_Batch``: each distinct operand text is folded and proved, each
    product of proven operands formed, and each weak value of a proven
    operand taken, once per call.
    """
    batch = _Batch(s)
    entries = []
    for expr_a, expr_b, kind in pairs:
        try:
            if kind not in ("sum", "product"):
                raise ValueError(f"audit kind must be 'sum' or 'product', got {kind!r}")
            verdict = _audit_pair(s, expr_a, expr_b, kind, batch)
            entries.append(AuditEntry(expr_a, expr_b, kind, verdict, None))
        except (ExpressionError, PhysicsError, ValueError) as exc:
            entries.append(AuditEntry(expr_a, expr_b, kind, None, str(exc)))
    return AuditReport(
        scenario=s.name,
        dim=s.dim,
        post_overlap=s.post_overlap,
        channels=tuple(s.channels),
        entries=tuple(entries),
    )
