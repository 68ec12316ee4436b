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
as vanishing, case I. Each kind's verdicts and narratives are defined once,
in one table: ``_SUM_CASES`` by case, which the sum classifier's tests
choose, and ``_PRODUCT_CASES`` by zero pattern, which gives the case too.

Both classifiers reject an operand that is not a projector. Each call
records which operators are proven in a ``scenario._Record``: a channel of
the scenario was proved a projector once, when the scenario was built, and is
not proved again; in the expression text ``audit_all`` takes, a product of
proven factors is proven when it is self-adjoint within STRUCT_TOL, the step
by which ``classify_product`` also forms and tests its product; a product of
two proven diagonals is self-adjoint by its form and is not tested. Any other
operand, such as a sum, a non-commuting product or a copy of a channel, is
coerced, scanned for NaN/Inf and proved. The weak values are then taken of
the proven operands and their combination without checking them again.

Every call works in the record the scenario's channel table keeps when that
holds every operand as the very object, else in a fresh record of its own
(``_Channels._record``). ``audit_all`` takes expression text, which it folds
in the table's record; ``classify_sum`` and ``classify_product`` work there
on a channel or an operator the library returned, and on a caller's array,
which the caller may change in place, in a record of their own. The table's
record holds only what the library made and lives as long as the table (up
to 64 MiB of operators and texts; past that, the next call starts it over).
Each distinct operand text is parsed and folded, each operand that needs the
full proof proved, each product of two proven operands formed and tested,
each pair's orthogonality tested (the sum audit requires it, the product
audit refuses it: one test of PQ per pair, which the sum audit does not
keep), and each numerator <post|U P|pre> taken, of a proven operand or of an
orthogonal pair's sum, once per record: a second call on the same scenario
forms no product and takes no matrix element. A failed proof is not kept, so
an operand that fails is proved again wherever it is named, and each error
names its position. The ``WeakValue`` of each proven operand is built once
per call, in the call's own memo. So the AND audit ``Lj | Lk`` reuses the
``Lj*Lk`` of the OR audit ``Lj*Lk | Rj*Rk``, its numerator and, within the
call, its weak value. A near-pole weak value warns once per call, from the
classifier's line, when the call builds it; its reuses do not warn again,
and each verdict's weak values carry the ``near_pole`` flag. Threads may
share a scenario: each makes the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .errors import AuditPreconditionError, ExpressionError, PhysicsError
from .scenario import Scenario, _Record
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


#: Each sum case: whether the OR reading is consistent, and its narrative.
_SUM_CASES = {
    SumCase.I: (True, (
        "no meter registers: not in the first channel, not in the second, "
        "and not in their union; the OR reading is coherent"
    )),
    SumCase.II: (True, (
        "all three meters register: in both channels and in their union; "
        "the OR reading is coherent"
    )),
    SumCase.III: (False, (
        "each channel's meter registers on its own, yet the meter for their "
        "union stays silent; presence in either channel separately cannot be "
        "reconciled with absence from their union"
    )),
    SumCase.DEGENERATE: (True, (
        "exactly one channel registers and the union follows it by "
        "additivity; the OR reading is coherent"
    )),
}

#: Each zero pattern of the product audit (first, second, product vanishes):
#: its case, whether the AND reading is consistent, and its narrative.
_PRODUCT_CASES = {
    (True, True, True): (ProductCase.I, True, (
        "no meter registers: not in either channel and not in both jointly; "
        "the AND reading is coherent"
    )),
    (False, False, False): (ProductCase.II, True, (
        "all three meters register: in each channel and in both jointly; "
        "the AND reading is coherent"
    )),
    (False, False, True): (ProductCase.III, False, (
        "each channel registers separately, yet the joint meter stays "
        "silent; being in each channel while not being in both defeats the "
        "AND reading"
    )),
    (True, True, False): (ProductCase.IV, False, (
        "neither channel registers, yet the joint meter does; being in both "
        "channels while being in neither defeats the AND reading"
    )),
    (False, True, True): (ProductCase.V, True, (
        "the first channel registers, the second does not, and the joint "
        "meter stays silent; the AND reading is coherent"
    )),
    (True, False, True): (ProductCase.V_MIRROR, True, (
        "the second channel registers, the first does not, and the joint "
        "meter stays silent; the AND reading is coherent"
    )),
    (False, True, False): (ProductCase.VI, False, (
        "the first channel registers and the second does not, yet the joint "
        "meter registers; presence in both without presence in each defeats "
        "the AND reading"
    )),
    (True, False, False): (ProductCase.VI_MIRROR, False, (
        "the second channel registers and the first does not, yet the joint "
        "meter registers; presence in both without presence in each defeats "
        "the AND reading"
    )),
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


def _weak(s: Scenario, op: np.ndarray, record: _Record, weak_values: dict) -> WeakValue:
    """``_weak_value`` of a proven operand, built once per call from the
    numerator ``record`` keeps and memoized in the call's ``weak_values``,
    keyed by ``id(op)``. Near the pole it warns when built, naming the
    caller's line; a reuse does not warn again, and its ``near_pole`` flag
    still says so."""
    w = weak_values.get(id(op))
    if w is None:
        w = weak_values[id(op)] = _weak_value(s, lambda: record.amplitude(op), stacklevel=3)
    return w


def classify_sum(s: Scenario, pa: np.ndarray, pb: np.ndarray) -> AuditVerdict:
    """Audit the OR combination of two orthogonal projectors."""
    record = s.channels._record(pa, pb)
    pa, pb = record.prove(pa, "first operand"), record.prove(pb, "second operand")
    return _classify_sum(s, pa, pb, record, {})


def _classify_sum(s: Scenario, pa, pb, record: _Record, weak_values: dict) -> AuditVerdict:
    """``classify_sum`` of two proven projectors, their orthogonality tested
    and their numerators taken once per ``record``, and their weak values
    built once per ``weak_values``."""
    if not record.orthogonal_pair(pa, pb):
        raise AuditPreconditionError(
            "projectors are not orthogonal; their sum does not represent a "
            "disjunction of exclusive alternatives"
        )
    wa = _weak(s, pa, record, weak_values)
    wb = _weak(s, pb, record, weak_values)
    ws = _weak_value(s, lambda: record.amplitude(pa, pb))
    if wa.is_zero and wb.is_zero:
        ws = replace(ws, is_zero=True)
        case = SumCase.I
    elif wa.is_zero != wb.is_zero:
        case = SumCase.DEGENERATE
    elif ws.is_zero:
        case = SumCase.III
    else:
        case = SumCase.II
    consistent, narrative = _SUM_CASES[case]
    return AuditVerdict("sum", case, consistent, (wa, wb, ws), narrative)


def classify_product(s: Scenario, pa: np.ndarray, pb: np.ndarray) -> AuditVerdict:
    """Audit the AND combination of two commuting, non-orthogonal projectors."""
    record = s.channels._record(pa, pb)
    pa, pb = record.prove(pa, "first operand"), record.prove(pb, "second operand")
    return _classify_product(s, pa, pb, record, {})


def _classify_product(s: Scenario, pa, pb, record: _Record, weak_values: dict) -> AuditVerdict:
    """``classify_product`` of two proven projectors, their product formed
    and tested and their numerators taken once per ``record``, and their
    weak values built once per ``weak_values``."""
    # (PQ)^dagger = QP: the product is self-adjoint, and so proven, exactly
    # when P, Q commute
    product = record.product(pa, pb)
    if id(product) not in record.proven:
        raise AuditPreconditionError(
            "projectors do not commute; their product is not a projector"
        )
    if record.orthogonal_pair(pa, pb):
        raise AuditPreconditionError(
            "projector product vanishes as an operator; the conjunction is "
            "trivially empty"
        )
    wa = _weak(s, pa, record, weak_values)
    wb = _weak(s, pb, record, weak_values)
    wp = _weak(s, product, record, weak_values)
    case, consistent, narrative = _PRODUCT_CASES[(wa.is_zero, wb.is_zero, wp.is_zero)]
    return AuditVerdict("product", case, consistent, (wa, wb, wp), narrative)


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


def _audit_pair(s: Scenario, expr_a, expr_b, kind, record, weak_values) -> AuditVerdict:
    """Audit a pair of expressions in ``record``: both are evaluated, then
    each is proved a projector, the first before the second. Weak values
    are memoized in ``weak_values``, one dict per call."""
    pa, pb = record.projectors((expr_a, "first operand"), (expr_b, "second operand"))
    classify = _classify_sum if kind == "sum" else _classify_product
    return classify(s, pa, pb, record, weak_values)


def audit_all(s: Scenario, pairs: Sequence[tuple[str, str, str]]) -> AuditReport:
    """Run a batch of sum/product audits given as expression pairs.

    Errors in individual pairs are collected as entries rather than raised,
    so one bad pair does not abort the rest of the report. The pairs share
    the record the scenario's channel table keeps: each distinct operand text is
    folded and proved, each product of proven operands formed, each
    orthogonality tested and each numerator taken once per record, and each
    weak value of a proven operand built once per call.
    """
    record, weak_values = s.channels._record(), {}
    entries = []
    for expr_a, expr_b, kind in pairs:
        try:
            if kind not in ("sum", "product"):
                raise ValueError(f"audit kind must be 'sum' or 'product', got {kind!r}")
            verdict = _audit_pair(s, expr_a, expr_b, kind, record, weak_values)
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
