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

Both classifiers reject an operand that is not a projector. A channel of the
scenario was proved a projector once, when the scenario was built, and is not
proved again. ``audit_all`` takes expression text, in which a product of
proven factors is proven when it is self-adjoint within STRUCT_TOL (for
projectors P, Q with PQ self-adjoint, PQ = QP and (PQ)^2 = PQ), the test
``classify_product`` applies to its own product. Such a product skips the
O(d^3) idempotence check, so its idempotence residual may exceed STRUCT_TOL;
every operand the full proof accepts is still accepted. Any other operand,
such as a sum, a non-commuting product or a copy of a channel, is coerced,
scanned for NaN/Inf and proved on every call. The weak values are then taken
of the proven operands and their combination without checking them again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .errors import AuditPreconditionError, ExpressionError, PhysicsError
from .linalg import STRUCT_TOL, _one_form, _product, _self_adjoint
from .scenario import Scenario, _expression_projectors, proven_projector
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


def _proven_operands(s: Scenario, pa, pb) -> tuple[np.ndarray, np.ndarray]:
    """Both operands proved projectors: a scenario channel by its proof at
    build, any other operator here, on every call."""
    return proven_projector(s, pa, "first operand"), proven_projector(s, pb, "second operand")


def classify_sum(s: Scenario, pa: np.ndarray, pb: np.ndarray) -> AuditVerdict:
    """Audit the OR combination of two orthogonal projectors."""
    return _classify_sum(s, *_proven_operands(s, pa, pb))


def _classify_sum(s: Scenario, pa: np.ndarray, pb: np.ndarray) -> AuditVerdict:
    """``classify_sum`` of two proven projectors."""
    a, b = _one_form(pa, pb)
    if np.max(np.abs(_product(a, b))) > STRUCT_TOL:
        raise AuditPreconditionError(
            "projectors are not orthogonal; their sum does not represent a "
            "disjunction of exclusive alternatives"
        )
    wa = _weak_value(s, pa)
    wb = _weak_value(s, pb)
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
    return _classify_product(s, *_proven_operands(s, pa, pb))


def _classify_product(s: Scenario, pa: np.ndarray, pb: np.ndarray) -> AuditVerdict:
    """``classify_product`` of two proven projectors."""
    product = _product(*_one_form(pa, pb))
    # (PQ)^dagger = QP: the product is self-adjoint exactly when P, Q commute
    if not _self_adjoint(product):
        raise AuditPreconditionError(
            "projectors do not commute; their product is not a projector"
        )
    if np.max(np.abs(product)) <= STRUCT_TOL:
        raise AuditPreconditionError(
            "projector product vanishes as an operator; the conjunction is "
            "trivially empty"
        )
    wa = _weak_value(s, pa)
    wb = _weak_value(s, pb)
    wp = _weak_value(s, product)
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


def _audit_pair(s: Scenario, expr_a: str, expr_b: str, kind: str) -> AuditVerdict:
    """Audit a pair of expressions: both are evaluated, then each is proved a
    projector, the first before the second."""
    pa, pb = _expression_projectors(s, (expr_a, "first operand"), (expr_b, "second operand"))
    classify = _classify_sum if kind == "sum" else _classify_product
    return classify(s, pa, pb)


def audit_all(s: Scenario, pairs: Sequence[tuple[str, str, str]]) -> AuditReport:
    """Run a batch of sum/product audits given as expression pairs.

    Errors in individual pairs are collected as entries rather than raised,
    so one bad pair does not abort the rest of the report.
    """
    entries = []
    for expr_a, expr_b, kind in pairs:
        try:
            if kind not in ("sum", "product"):
                raise ValueError(f"audit kind must be 'sum' or 'product', got {kind!r}")
            verdict = _audit_pair(s, expr_a, expr_b, kind)
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
