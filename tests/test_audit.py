import collections
import dataclasses
import json
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklogic import (
    CATALOG_NAMES,
    AblUndefinedError,
    AuditEntry,
    AuditPreconditionError,
    ExpressionError,
    MeterConfig,
    NearPoleWarning,
    NotAProjectorError,
    PhysicsError,
    ProductCase,
    SumCase,
    abl_prob,
    audit_all,
    basis_projector,
    born_prob,
    build_scenario,
    catalog,
    classify_product,
    classify_sum,
    collapse,
    commutes,
    cond_prob_post,
    default_audit_pairs,
    evaluate,
    evaluate_text,
    inner,
    load_scenario,
    measure_pointer,
    parse,
    sequential_disturbance,
    weak_limit_estimate,
    weak_value,
    weak_value_expr,
)
from weaklogic import linalg, scenario, tolerances
from weaklogic.audit import _audit_pair
from weaklogic.linalg import dense
from helpers import (
    bits,
    dproj,
    generic_labels,
    pigeonhole_document,
    random_basis_projector,
    random_projector_family,
    random_scenario,
    random_unit,
    random_unitary,
    rephased,
    rotated_pigeonhole,
    spy,
)

LABELS4 = ("w", "x", "y", "z")


def _overlap_scenario(post_amps):
    """Uniform preselection over four slots with a chosen postselection.

    The per-slot products conj(post) * pre then equal conj(post)/2 up to the
    post normalization, so zero-patterns can be dialed in directly.
    """
    return build_scenario("synthetic", LABELS4, [1, 1, 1, 1], post_amps)


# commuting, non-orthogonal pair: supports {0,1} and {0,2} overlap in slot 0
PA = dproj(4, [0, 1])
PB = dproj(4, [0, 2])


class TestClassifySum:
    def test_two_box_case_three(self):
        s = catalog("pigeonhole2")
        verdict = classify_sum(
            s, evaluate_text("L1*L2", s.channels), evaluate_text("R1*R2", s.channels)
        )
        assert verdict.case is SumCase.III
        assert not verdict.consistent
        wa, wb, ws = verdict.weak_values
        assert wa.value == pytest.approx(0.5j, abs=1e-12)
        assert wb.value == pytest.approx(-0.5j, abs=1e-12)
        assert ws.is_zero

    def test_three_box_a_or_c(self):
        s = catalog("three-box")
        verdict = classify_sum(s, s.channel("A"), s.channel("C"))
        assert verdict.case is SumCase.III
        assert not verdict.consistent

    def test_three_box_a_or_b_consistent(self):
        s = catalog("three-box")
        verdict = classify_sum(s, s.channel("A"), s.channel("B"))
        assert verdict.case is SumCase.II
        assert verdict.consistent
        values = [w.value for w in verdict.weak_values]
        assert values == pytest.approx([1.0, 1.0, 2.0], abs=1e-12)

    def test_hardy_case_three(self):
        s = catalog("hardy")
        verdict = classify_sum(s, s.channel("NpIe"), s.channel("NpNe"))
        assert verdict.case is SumCase.III
        assert not verdict.consistent

    def test_all_silent_case_one(self):
        s = _overlap_scenario([1, -1, 1, 1])  # slots 0 and 1 cancel pairwise
        verdict = classify_sum(s, dproj(4, [0, 1]), dproj(4, [2]))
        # first operand: conj(1) + conj(-1) = 0; second operand non-zero
        assert verdict.case is SumCase.DEGENERATE
        assert verdict.consistent

    def test_case_one_all_zero(self):
        s = _overlap_scenario([0, 0, 1, 1])
        verdict = classify_sum(s, dproj(4, [0]), dproj(4, [1]))
        assert verdict.case is SumCase.I
        assert verdict.consistent

    def test_non_orthogonal_pair_rejected(self):
        s = catalog("pigeonhole2")
        with pytest.raises(AuditPreconditionError, match="not orthogonal"):
            classify_sum(s, s.channel("L1"), s.channel("L2"))

    def test_non_projector_rejected(self):
        s = catalog("pigeonhole2")
        with pytest.raises(NotAProjectorError):
            classify_sum(s, 2.0 * s.channel("L1"), s.channel("R1"))

    def test_degenerate_patterns_never_breach_linearity(self):
        # orthogonal pairs: one-zero patterns force a non-zero sum value
        rng = np.random.default_rng(51)
        from helpers import random_projector_family, random_scenario

        for _ in range(100):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim)
            pa, pb, *_ = random_projector_family(rng, dim, min(dim, 3))
            verdict = classify_sum(s, pa, pb)
            wa, wb, ws = verdict.weak_values
            assert ws.value == pytest.approx(wa.value + wb.value, abs=1e-10)
            zeros = (wa.is_zero, wb.is_zero, ws.is_zero)
            assert zeros not in {(True, True, False), (True, False, True), (False, True, True)}


class TestSumAtTheZeroThreshold:
    """Operand numerators ~x/sqrt(3) on labels A, B around ZERO_TOL = 1e-12."""

    @staticmethod
    def _verdict(x, y):
        s = build_scenario("tiny", ("A", "B", "C"), [1, 1, 1], [x, y, 1])
        return classify_sum(s, dproj(3, [0]), dproj(3, [1]))

    def test_operands_below_sum_above_is_case_one(self):
        # operand numerators 9.0e-13 each, their sum 1.8e-12
        verdict = self._verdict(1.56e-12, 1.56e-12)
        wa, wb, ws = verdict.weak_values
        assert wa.is_zero and wb.is_zero
        assert abs(ws.numerator) > 1e-12
        assert ws.is_zero
        assert ws.value == wa.value + wb.value
        assert verdict.case is SumCase.I
        assert verdict.consistent

    @given(
        st.floats(5e-13, 4e-12),
        st.floats(5e-13, 4e-12),
        st.sampled_from([1, -1, 1j, -1j]),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_false_consistency_error(self, x, y, phase):
        verdict = self._verdict(x, phase * y)
        wa, wb, ws = verdict.weak_values
        if wa.is_zero and wb.is_zero:
            assert ws.is_zero and verdict.case is SumCase.I
        elif wa.is_zero != wb.is_zero:
            assert verdict.case is SumCase.DEGENERATE
        else:
            assert verdict.case is (SumCase.III if ws.is_zero else SumCase.II)


class TestClassifyProduct:
    def test_hardy_case_iii(self):
        s = catalog("hardy")
        verdict = classify_product(s, s.channel("Ip"), s.channel("Ie"))
        assert verdict.case is ProductCase.III
        assert not verdict.consistent

    def test_three_particle_case_iv(self):
        s = catalog("pigeonhole3")
        verdict = classify_product(s, s.channel("same12"), s.channel("same23"))
        assert verdict.case is ProductCase.IV
        assert not verdict.consistent
        wa, wb, wp = verdict.weak_values
        assert wa.is_zero and wb.is_zero
        assert wp.value == pytest.approx(-0.5, abs=1e-12)

    def test_three_particle_case_vi(self):
        s = catalog("pigeonhole3")
        verdict = classify_product(
            s, evaluate_text("L1*L2", s.channels), s.channel("same23")
        )
        assert verdict.case is ProductCase.VI
        assert not verdict.consistent
        wa, wb, wp = verdict.weak_values
        assert wa.value == pytest.approx(0.5j, abs=1e-12)
        assert wb.is_zero
        assert wp.value == pytest.approx(-(1 - 1j) / 4, abs=1e-12)

    def test_projector_with_itself_case_ii(self):
        s = catalog("three-box")
        verdict = classify_product(s, s.channel("A"), s.channel("A"))
        assert verdict.case is ProductCase.II
        assert verdict.consistent

    def test_non_commuting_rejected(self):
        s = build_scenario("qubit", ("u", "d"), [1, 0], [1, 1])
        up = dproj(2, [0])
        plus = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(AuditPreconditionError, match="commute"):
            classify_product(s, up, plus)

    def test_vanishing_product_rejected(self):
        s = catalog("three-box")
        with pytest.raises(AuditPreconditionError, match="vanishes"):
            classify_product(s, s.channel("A"), s.channel("B"))

    @pytest.mark.parametrize(
        "post,expected",
        [
            # per-slot weights are conj(post); operands read slots {0,1}, {0,2},
            # their product slot {0}, the overlap is the total
            ([0, 0, 0, 1], ProductCase.I),
            ([1, 1, 1, 1], ProductCase.II),
            ([0, 1, 1, 1], ProductCase.III),
            ([1, -1, -1, 2], ProductCase.IV),
            ([0, 1, 0, 1], ProductCase.V),
            ([0, 0, 1, 1], ProductCase.V_MIRROR),
            ([1, 1, -1, 1], ProductCase.VI),
            ([1, -1, 1, 1], ProductCase.VI_MIRROR),
        ],
    )
    def test_all_eight_zero_patterns_classified(self, post, expected):
        s = _overlap_scenario(post)
        verdict = classify_product(s, PA, PB)
        assert verdict.case is expected
        consistent_cases = {
            ProductCase.I,
            ProductCase.II,
            ProductCase.V,
            ProductCase.V_MIRROR,
        }
        assert verdict.consistent is (expected in consistent_cases)


class TestCommutationReadOffTheProduct:
    """classify_product reads commutation off the self-adjointness of the
    product it forms; its verdict must be the one ``commutes`` gives."""

    @staticmethod
    def _audit_commutes(s, pa, pb):
        try:
            classify_product(s, pa, pb)
        except AuditPreconditionError as exc:
            return "commute" not in str(exc)
        return True

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_verdict_matches_commutes(self, seed, dim, from_one_family):
        rng = np.random.default_rng(seed)
        s = random_scenario(rng, dim)
        if from_one_family:
            family = random_projector_family(rng, dim, dim)
            sizes = rng.integers(1, dim + 1, size=2)
            pa, pb = (sum(family[i] for i in rng.choice(dim, k, False)) for k in sizes)
            assert commutes(pa, pb)
        else:
            pa, pb = random_basis_projector(rng, dim), random_basis_projector(rng, dim)
        assert self._audit_commutes(s, pa, pb) == commutes(pa, pb)


class TestAuditAll:
    def test_three_particle_standard_audit(self):
        s = catalog("pigeonhole3")
        report = audit_all(s, default_audit_pairs("pigeonhole3"))
        cases = [entry.verdict.case for entry in report.entries]
        assert cases == [SumCase.III, ProductCase.IV, ProductCase.VI]
        assert all(not entry.verdict.consistent for entry in report.entries)
        assert report.post_overlap == pytest.approx(-(1 + 1j) / 4, abs=1e-12)

    def test_empty_pair_list(self):
        report = audit_all(catalog("three-box"), [])
        assert report.entries == ()
        assert report.scenario == "three-box"

    def test_errors_collected_not_fatal(self):
        s = catalog("pigeonhole2")
        report = audit_all(
            s,
            [
                ("L1", "L2", "sum"),        # not orthogonal
                ("L1*L2", "R1*R2", "sum"),  # fine
                ("L1", "R1", "oops"),       # bad kind
                ("nosuch", "L1", "product"),
            ],
        )
        assert [entry.error is None for entry in report.entries] == [
            False,
            True,
            False,
            False,
        ]
        assert report.entries[1].verdict.case is SumCase.III
        assert "orthogonal" in report.entries[0].error
        assert "kind" in report.entries[2].error
        assert "unknown channel" in report.entries[3].error

    def test_report_schema(self):
        s = catalog("three-box")
        doc = audit_all(s, default_audit_pairs("three-box")).to_dict()
        assert doc["scenario"] == "three-box"
        assert doc["dim"] == 3
        assert set(doc["postselection_overlap"]) == {"re", "im"}
        assert doc["channels"] == ["A", "B", "C"]
        first = doc["pairs"][0]
        assert set(first) == {
            "expr_a",
            "expr_b",
            "kind",
            "case",
            "consistent",
            "weak_values",
            "narrative",
        }
        assert len(first["weak_values"]) == 3
        assert set(first["weak_values"][0]) == {"re", "im", "is_zero"}

    def test_narratives_present(self):
        for name in ("pigeonhole2", "pigeonhole3", "three-box", "hardy"):
            report = audit_all(catalog(name), default_audit_pairs(name))
            for entry in report.entries:
                assert entry.error is None
                assert entry.verdict.narrative


class TestDiagonalPath:
    """audit_all evaluates expressions over basis channels as diagonals. Its
    report must carry the bits of the dense classification: the same weak
    values to the last bit and signed zero, the same cases and errors."""

    @staticmethod
    def _dense_entry(s, expr_a, expr_b, kind):
        """The entry over dense copies of the channels, which are not the
        scenario's own and so take the full projector proof."""
        try:
            matrices = {name: dense(p).copy() for name, p in s.channels.items()}
            pa, pb = (evaluate(parse(text), matrices) for text in (expr_a, expr_b))
            classify = classify_sum if kind == "sum" else classify_product
            return AuditEntry(expr_a, expr_b, kind, classify(s, pa, pb), None)
        except (ExpressionError, PhysicsError, ValueError) as exc:
            return AuditEntry(expr_a, expr_b, kind, None, str(exc))

    @staticmethod
    def _amplitudes(rng, dim):
        """A random unit vector, with some entries +-0 in either part."""
        v = random_unit(rng, dim)
        for i in np.flatnonzero(rng.random(dim) < 0.3):
            v[i] = complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0, v[i].imag]))
        return v if np.any(v) else np.ones(dim)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore")
    def test_report_has_the_bits_of_the_dense_path(self, seed, dim, with_evolution):
        rng = np.random.default_rng(seed)
        labels = generic_labels(dim)
        names = [f"C{i}" for i in range(int(rng.integers(1, 5)))]
        channels = {
            name: basis_projector(labels, [lab for lab in labels if rng.random() < 0.5])
            for name in names
        }
        evolution = random_unitary(rng, dim) if with_evolution else None
        pre, post = self._amplitudes(rng, dim), self._amplitudes(rng, dim)
        s = build_scenario("random", labels, pre, post, evolution, channels)
        assert all(s.channel(name).ndim == 1 for name in names)

        def term():
            return "*".join(rng.choice(names, size=int(rng.integers(1, 4))))

        pairs = [(term(), term(), kind) for kind in rng.choice(["sum", "product"], 8)]
        pairs.append((term(), "nosuch", str(rng.choice(["sum", "product"]))))
        got = audit_all(s, pairs).to_dict()["pairs"]
        want = [self._dense_entry(s, *pair).to_dict() for pair in pairs]
        assert json.dumps(got) == json.dumps(want)


class TestStrongContrast:
    def test_inconsistent_pairs_require_distinct_collapses(self):
        # the projective route to the same questions collapses onto visibly
        # different ensembles, which is why it carries no contradiction
        for name in ("pigeonhole2", "pigeonhole3", "three-box", "hardy"):
            s = catalog(name)
            report = audit_all(s, default_audit_pairs(name))
            for entry in report.entries:
                if entry.verdict is None or entry.verdict.consistent:
                    continue
                pa = evaluate_text(entry.expr_a, dict(s.channels))
                pb = evaluate_text(entry.expr_b, dict(s.channels))
                state_a = collapse(s.pre_state, pa).state
                state_b = collapse(s.pre_state, pb).state
                fidelity = abs(inner(state_a, state_b))
                assert fidelity < 1.0 - 1e-9


class TestPhaseStability:
    def test_cases_stable_under_boundary_phases(self):
        rng = np.random.default_rng(52)
        for name in ("pigeonhole2", "pigeonhole3", "three-box", "hardy"):
            s = catalog(name)
            pairs = default_audit_pairs(name)
            baseline = [entry.verdict.case for entry in audit_all(s, pairs).entries]
            for _ in range(5):
                t = rephased(
                    s,
                    np.exp(1j * rng.uniform(0, 2 * np.pi)),
                    np.exp(1j * rng.uniform(0, 2 * np.pi)),
                )
                cases = [entry.verdict.case for entry in audit_all(t, pairs).entries]
                assert cases == baseline


class TestProofCost:
    """A stored channel keeps the projector proof it got at build, and a
    self-adjoint product of proven factors in an expression is proven by
    that; any other operand is proved once per call. One audit_all call
    forms and tests each product of two proven operands once. Counted on
    the d x d product kernel, the self-adjointness test, the proof kernel,
    the residual test, the matrix element of an operator (``_element``,
    whose numerators <bra|P|pre> take one and whose <psi|P psi> takes
    none), the operator acting on a vector and the operator sum, on a
    pigeonhole whose channels are all dense, made afresh for each test and
    before the spies: the scenario keeps its products, proofs and
    numerators across calls."""

    @pytest.fixture
    def calls(self, monkeypatch, s):
        calls = collections.Counter()

        def product(a, b):
            calls["products"] += a.ndim == 2 and b.ndim == 2

        def self_adjoint(m):
            calls["self_adjoint"] += 1

        def proof(p):
            calls["proofs"] += 1

        def element(bra, ket, *ops):
            calls["amplitudes"] += bool(ops)

        spy(monkeypatch, linalg._product, product)
        spy(monkeypatch, linalg._self_adjoint, self_adjoint)
        spy(monkeypatch, linalg._proves_projector, proof)
        spy(monkeypatch, linalg._element, element)
        for name, kernel in (("struct_tol", linalg._within_struct_tol), ("act", linalg._act),
                             ("sums", linalg._sum)):
            spy(monkeypatch, kernel, lambda *args, name=name: calls.update([name]))
        return calls

    @pytest.fixture
    def s(self):
        s = rotated_pigeonhole(np.random.default_rng(7), 4)
        assert s.dim == 16 and all(p.ndim == 2 for p in s.channels.values())
        return s

    def test_product_pair_of_channels_is_one_product_and_no_proof(self, s, calls):
        (entry,) = audit_all(s, [("L1", "L2", "product")]).entries
        assert entry.verdict.case is ProductCase.II
        assert (calls["products"], calls["proofs"]) == (1, 0)

    def test_sum_pair_of_channel_products_is_three_products_and_no_proof(self, s, calls):
        # two products evaluate the operands, which their self-adjointness
        # proves, and one checks orthogonality
        (entry,) = audit_all(s, [("L1*L2", "R1*R2", "sum")]).entries
        assert entry.verdict.case is SumCase.III
        assert (calls["products"], calls["proofs"]) == (3, 0)

    @pytest.mark.parametrize("order", [1, -1])
    def test_a_product_pair_takes_its_product_from_a_sum_pair(self, s, calls, order):
        # L1*L2 is formed and tested once, for whichever pair comes first;
        # R1*R2 and the orthogonality check make the other two products
        pairs = [("L1*L2", "R1*R2", "sum"), ("L1", "L2", "product")][::order]
        cases = [entry.verdict.case for entry in audit_all(s, pairs).entries]
        assert cases[::order] == [SumCase.III, ProductCase.II]
        assert (calls["products"], calls["proofs"]) == (3, 0)

    @pytest.mark.parametrize("order", [1, -1])
    def test_an_orthogonal_pair_is_tested_once(self, s, calls, order):
        # the sum's orthogonality test and the product's vanishing test are
        # one test of L1*R1, made by whichever audit comes first. The
        # product audit forms, keeps and tests L1*R1 for self-adjointness;
        # the sum audit reads it when kept, and else forms it for the test
        # alone, so with the sum audit first it is formed twice
        pairs = [("L1", "R1", "sum"), ("L1", "R1", "product")][::order]
        entries = audit_all(s, pairs).entries[::order]
        assert entries[0].verdict.case is SumCase.II
        assert entries[1].error == (
            "projector product vanishes as an operator; the conjunction is trivially empty"
        )
        # one residual test of self-adjointness, one of the product itself
        products = 2 if order == 1 else 1
        assert (calls["products"], calls["self_adjoint"], calls["struct_tol"]) == (products, 1, 2)

    def test_pairs_sharing_an_operand_keep_their_own_flags_and_numerators(self, s):
        # each flag and each sum's numerator is keyed by both operands: L1
        # is orthogonal to R1 and to R1*L2, and its sums with them differ;
        # it is not orthogonal to L2
        pairs = [("L1", "R1", "sum"), ("L1", "R1*L2", "sum"),
                 ("L1", "R1", "product"), ("L1", "L2", "product")]
        alone = [audit_all(dataclasses.replace(s), [pair]).entries[0] for pair in pairs]
        assert [entry.error is None for entry in alone] == [True, True, False, True]
        for _ in range(2):
            assert bits(audit_all(s, pairs).entries) == bits(tuple(alone))

    def test_a_qubit_batch_forms_each_product_once(self, s, calls):
        # the benchmark's batch for qubit 1: 12 products and 9 tests when
        # each pair formed its own
        pairs = [
            pair
            for k in range(2, 5)
            for pair in ((f"L1*L{k}", f"R1*R{k}", "sum"), ("L1", f"L{k}", "product"))
        ]
        entries = audit_all(s, pairs).entries
        assert [entry.error for entry in entries] == [None] * 6
        assert (calls["products"], calls["self_adjoint"], calls["proofs"]) == (9, 6, 0)

    def test_a_second_call_forms_tests_and_proves_nothing(self, s, calls):
        # the scenario's record keeps the products of the first call, their
        # proofs, the orthogonality of each pair and the numerator of each
        # weak value; the repeated sum L1 + R1 keeps the proof it got in the
        # first call
        pairs = [
            pair
            for k in range(2, 5)
            for pair in ((f"L1*L{k}", f"R1*R{k}", "sum"), ("L1", f"L{k}", "product"),
                         ("L1 + R1", f"L{k}", "product"))
        ]
        first = audit_all(s, pairs)
        # 9 products and 6 tests of the sum pairs, 3 and 3 of (L1 + R1)*Lk,
        # and 1 and 1 in the proof of L1 + R1
        assert (calls["products"], calls["self_adjoint"], calls["proofs"]) == (13, 10, 1)
        # the 9 numerators of the sum pairs, whose 3 sums are formed for
        # them, and those of L1, the Lk, L1 + R1 and the (L1 + R1)*Lk; L1 +
        # R1 is the fourth sum
        assert (calls["amplitudes"], calls["act"], calls["sums"]) == (17, 17, 4)
        calls.clear()
        second = audit_all(s, pairs)
        # no product, residual test, proof, matrix element or sum
        assert calls == collections.Counter()
        assert bits(second) == bits(first)

    def test_a_warm_strong_step_forms_no_product(self, s, calls):
        # the benchmark's op on the rotated scenario: an audit batch, then
        # the strong and weak calls on the operator of one product text.
        # Warm, the one matrix-vector product left is born_prob's, which
        # takes no scenario
        pairs = [("L1*L2", "R1*R2", "sum"), ("L1", "L2", "product")]

        def op():
            audit_all(s, pairs)
            p = evaluate_text("L1*L2", s.channels)
            return bits((
                abl_prob(s, p), cond_prob_post(s, p), born_prob(s.pre_state, p),
                weak_value(s, p), weak_value_expr(s, "L1*L2"),
            ))

        first = op()
        calls.clear()
        assert op() == first
        assert (calls["products"], calls["act"], calls["amplitudes"], calls["sums"]) == (0, 1, 0, 0)

    def test_weak_value_expr_forms_its_product_once(self, s, calls):
        first = weak_value_expr(s, "L1*L2")
        assert calls["products"] == 1
        assert bits(weak_value_expr(s, "L1*L2")) == bits(first)
        assert calls["products"] == 1

    def test_a_replaced_scenario_starts_an_empty_record(self, s, calls):
        pairs = [("L1*L2", "R1*R2", "sum"), ("L1", "L2", "product")]
        audit_all(s, pairs)
        t = dataclasses.replace(s, name="replaced")
        calls.clear()
        assert bits(audit_all(t, pairs).entries) == bits(audit_all(s, pairs).entries)
        # t's calls form and test its products afresh; s's call forms none
        assert (calls["products"], calls["self_adjoint"], calls["proofs"]) == (3, 2, 0)

    def test_a_repeated_sum_is_proved_once(self, s, calls):
        # L1 + R1 is the identity: proved for the first pair that names it
        pairs = [("L1 + R1", f"L{k}", "product") for k in range(2, 5)]
        cases = [entry.verdict.case for entry in audit_all(s, pairs).entries]
        assert cases == [ProductCase.II] * 3
        assert calls["proofs"] == 1

    def test_a_failing_operand_is_proved_and_named_at_each_use(self, s, calls):
        pairs = [("L1 + L2", "L3", "product"), ("L3", "L1 + L2", "sum"), ("L1 + L2", "R3", "sum")]
        batch = [entry.error for entry in audit_all(s, pairs).entries]
        assert calls["proofs"] == 3
        alone = [audit_all(s, [pair]).entries[0].error for pair in pairs]
        assert batch == alone == [
            "first operand is not a projector",
            "second operand is not a projector",
            "first operand is not a projector",
        ]

    def test_a_sum_of_channel_products_is_proved(self, s, calls):
        # L1*L2 and R1*R2 are orthogonal, so their sum is a projector, but
        # only its full proof shows that: two products evaluate, one proves
        # and one forms the audited product
        (entry,) = audit_all(s, [("L1*L2 + R1*R2", "L3", "product")]).entries
        assert entry.error is None
        assert (calls["products"], calls["proofs"]) == (4, 1)

    def test_a_copy_of_a_channel_is_proved(self, s, calls):
        pa, pb = (np.array(s.channel(name)) for name in ("L1", "L2"))
        classify_product(s, pa, pb)
        assert (calls["products"], calls["proofs"]) == (3, 2)

    def test_the_meter_takes_channels_on_their_proof(self, s, calls):
        p, q = s.channel("L1"), s.channel("L2")
        measure_pointer(s, p, MeterConfig(sigma=1.0, g=0.1))
        weak_limit_estimate(s, p, 1.0, (1e-1, 1e-2, 1e-3))
        sequential_disturbance(s, p, q, 1.0, 0.05)
        assert calls["proofs"] == 0
        sequential_disturbance(s, np.array(p), q, 1.0, 0.05)
        assert calls["proofs"] == 1


class TestRecordKeepsWhatTheLibraryMade:
    """A scenario keeps the operators, proofs, products, orthogonality
    flags and numerators of the expression texts it was audited on, and
    nothing else: a caller's array is proved and weighed at each call, and
    the record starts over past its cap of bytes when a call starts."""

    @pytest.fixture
    def s(self):
        return rotated_pigeonhole(np.random.default_rng(7), 3)

    @pytest.mark.parametrize("kind", ["sum", "product"])
    def test_a_caller_array_changed_in_place_is_proved_again(self, s, kind):
        classify = classify_sum if kind == "sum" else classify_product
        pa = np.array(s.channel("L1"))
        pb = s.channel("R1" if kind == "sum" else "L2")
        classify(s, pa, pb)
        pa *= 2
        with pytest.raises(NotAProjectorError, match="^first operand is not a projector$"):
            classify(s, pa, pb)

    @pytest.mark.parametrize("kind", ["sum", "product"])
    def test_a_caller_array_rewritten_in_place_gets_new_weak_values(self, s, kind):
        # a copy of L1 rewritten as R1 keeps its id; for the sum, a copy of
        # R1 rewritten as L1 keeps the pair orthogonal
        classify = classify_sum if kind == "sum" else classify_product
        second = "R1" if kind == "sum" else "L2"
        pa, pb = np.array(s.channel("L1")), np.array(s.channel(second))
        before = classify(s, pa, pb)
        pa[...] = s.channel("R1")
        if kind == "sum":
            pb[...] = s.channel("L1")
        after = classify(s, pa, pb)
        want = classify(s, s.channel("R1"), s.channel("L1" if kind == "sum" else second))
        assert bits(after) == bits(want) != bits(before)

    def test_a_meter_coupling_changed_in_place_is_proved_again(self, s):
        p = np.array(s.channel("L1"))
        config = MeterConfig(sigma=1.0, g=0.1)
        measure_pointer(s, p, config)
        p *= 2
        with pytest.raises(NotAProjectorError, match="^meter coupling is not a projector$"):
            measure_pointer(s, p, config)

    @staticmethod
    def _held(s):
        """Bytes of the operators the record of ``s`` holds beyond its
        channels, each counted once."""
        record = s.channels._kept_record
        made = {id(m): m for held in (record.proven, record.operands, record.products)
                for m in held.values()}
        for p in s.channels.values():
            made.pop(id(p))
        return sum(m.nbytes for m in made.values())

    def test_the_record_starts_over_past_its_cap(self, s, monkeypatch):
        # each call forms two products of 1 KiB; past a cap of 3 KiB the
        # next call starts over, so the record never holds more than the
        # cap and one call's own
        calls = [[(f"L{j}*L{k}", f"R{j}*R{k}", "sum")] for j in range(1, 4) for k in range(1, 4)]
        one = dataclasses.replace(s)
        audit_all(one, calls[0])
        own = self._held(one)
        assert own == 2 * 16 * s.dim**2
        monkeypatch.setattr(scenario, "_RECORD_CAP", 3 * own // 2)
        held = []
        for pairs in calls:
            report = audit_all(s, pairs)
            assert bits(report) == bits(audit_all(dataclasses.replace(s), pairs))
            held.append(self._held(s))
        assert max(held) <= scenario._RECORD_CAP + own
        assert held == [own, 2 * own] * 4 + [own]

    def test_each_text_counts_toward_the_cap(self, s, monkeypatch):
        # whitespace variants fold to one product, but the record holds each
        # text, so 200 of them start it over before it holds them all
        monkeypatch.setattr(scenario, "_RECORD_CAP", 4096)
        want = bits(weak_value_expr(s, "L1*L2"))
        assert all(bits(weak_value_expr(s, "L1*L2" + " " * i)) == want for i in range(200))
        assert len(s.channels._kept_record.operands) < 100

    def test_threads_share_a_scenario_as_its_record_starts_over(self, monkeypatch):
        # 4 threads make 20 calls each on one scenario, whose record starts
        # over at nearly every call, while the other threads still use the
        # maps they started with; every report keeps the bits of a serial
        # call on a fresh scenario
        s = rotated_pigeonhole(np.random.default_rng(17), 3)
        orders = [TestBatchIsPairByPair.PAIRS, TestBatchIsPairByPair.PAIRS[::-1]]
        want = [bits(audit_all(dataclasses.replace(s), pairs)) for pairs in orders]
        monkeypatch.setattr(scenario, "_RECORD_CAP", 4 * 16 * s.dim**2)

        def calls(t):
            return [bits(audit_all(s, orders[(t + i) % 2])) == want[(t + i) % 2] for i in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = [ok for thread in pool.map(calls, range(4)) for ok in thread]
        finally:
            sys.setswitchinterval(interval)
        assert got == [True] * 80


class TestBatchCost:
    """One audit_all call parses each distinct operand text once and takes
    the weak value of each distinct proven operand once, and a product of
    two basis channels, a real diagonal, needs no self-adjointness test.
    Counted on one qubit's batch of an 8-qubit basis pigeonhole, as the
    benchmark audits it: 14 pairs name 28 texts, 22 of them distinct, and
    take 42 weak values of 29 distinct operators. A second call on the
    scenario keeps every numerator and test of the first."""

    def test_a_basis_qubit_batch_parses_and_weighs_each_operand_once(self, monkeypatch):
        s = load_scenario(json.dumps(pigeonhole_document(8)))
        calls = collections.Counter()
        spy(monkeypatch, parse, lambda text: calls.update(["parse"]))
        spy(monkeypatch, linalg._element, lambda *args: calls.update(["amplitudes"]))
        spy(monkeypatch, linalg._self_adjoint, lambda m: calls.update(["self_adjoint"]))
        spy(monkeypatch, linalg._within_struct_tol, lambda r: calls.update(["struct_tol"]))
        pairs = [
            pair
            for k in range(2, 9)
            for pair in ((f"L1*L{k}", f"R1*R{k}", "sum"), ("L1", f"L{k}", "product"))
        ]
        first = audit_all(s, pairs)
        cases = [entry.verdict.case for entry in first.entries]
        assert cases == [SumCase.III, ProductCase.II] * 7
        assert (calls["parse"], calls["amplitudes"], calls["self_adjoint"]) == (22, 29, 0)
        # each pair's orthogonality or vanishing test
        assert calls["struct_tol"] == 14
        calls.clear()
        assert bits(audit_all(s, pairs)) == bits(first)
        assert calls == collections.Counter()


class TestScanCost:
    """Each operand is scanned for NaN/Inf once, where it enters the library:
    a stored channel was scanned when the scenario was built, a product of
    channels proven by its self-adjointness is finite as they are, and any
    other composite operand or a copy is scanned by its proof. Counted on
    the scan kernel, on the dense pigeonhole of ``TestProofCost``."""

    @pytest.fixture
    def scans(self, monkeypatch):
        scans = []
        spy(monkeypatch, linalg._check_finite, lambda a, what: scans.append(what))
        return scans

    s = TestProofCost.s

    def test_sum_pair_of_channel_products_scans_nothing(self, s, scans):
        (entry,) = audit_all(s, [("L1*L2", "R1*R2", "sum")]).entries
        assert entry.verdict.case is SumCase.III
        assert scans == []
        audit_all(s, [("L1 + L2", "R1*R2", "sum")])
        assert scans == ["first operand"]

    def test_product_pair_of_channels_scans_nothing(self, s, scans):
        (entry,) = audit_all(s, [("L1", "L2", "product")]).entries
        assert entry.verdict.case is ProductCase.II
        assert scans == []

    @pytest.mark.parametrize("kind, second", [("sum", "R1"), ("product", "L2")])
    def test_each_copy_of_a_channel_is_scanned_once(self, s, scans, kind, second):
        classify = classify_sum if kind == "sum" else classify_product
        pa, pb = (np.array(s.channel(name)) for name in ("L1", second))
        classify(s, pa, pb)
        assert scans == ["first operand", "second operand"]
        classify(s, pa, s.channel(second))
        assert scans[2:] == ["first operand"]


class TestProofStillRuns:
    """Only the scenario's own channels skip the proof: an operand that is
    not a projector is still rejected, and the report is the one the full
    proof gives."""

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("kind", ["sum", "product"])
    def test_overlapping_sum_is_not_a_projector(self, rotated, kind):
        if rotated:
            s = rotated_pigeonhole(np.random.default_rng(5), 3)
        else:
            s = catalog("pigeonhole3")
        report = audit_all(s, [("L1 + L2", "R3", kind), ("R3", "L1 + L2", kind)])
        assert [entry.error for entry in report.entries] == [
            "first operand is not a projector",
            "second operand is not a projector",
        ]
        classify = classify_sum if kind == "sum" else classify_product
        with pytest.raises(NotAProjectorError, match="first operand is not a projector"):
            classify(s, evaluate_text("L1 + L2", s.channels), s.channel("R3"))

    @pytest.mark.parametrize("name", ["pigeonhole2", "pigeonhole3", "three-box", "hardy", "rotated"])
    def test_report_has_the_bits_of_the_full_proof(self, name):
        if name == "rotated":
            s = rotated_pigeonhole(np.random.default_rng(11), 4)
            pairs = [
                (f"{a}{j}", f"{b}{k}", kind)
                for j in range(1, 5)
                for k in range(1, 5)
                for a, b, kind in (("L", "L", "product"), ("L", "R", "sum"))
            ]
            pairs += [("L1*L2", "R1*R2", "sum"), ("L1 + L2", "R1", "sum"), ("L1", "nosuch", "product")]
        else:
            s = catalog(name)
            pairs = default_audit_pairs(name)
        got = audit_all(s, pairs).to_dict()["pairs"]
        want = [TestDiagonalPath._dense_entry(s, *pair).to_dict() for pair in pairs]
        assert json.dumps(got) == json.dumps(want)


class TestStructuralProof:
    """The product rule can fail: on a qubit whose channels |0><0| and
    |+><+| do not commute, A*B is not self-adjoint, and A*B*A is, but its
    step A*B is not; both get the full proof and are rejected. A product
    with a sum factor gets the full proof too."""

    calls = TestProofCost.calls

    @pytest.fixture(scope="class")
    def s(self):
        plus = np.full((2, 2), 0.5)
        channels = {"A": dproj(2, [0]), "B": plus, "C": np.eye(2) - plus}
        return build_scenario("qubit", ("0", "1"), [1, 1], [1, 0.5], channels=channels)

    @pytest.mark.parametrize("kind", ["sum", "product"])
    def test_products_of_non_commuting_channels_are_rejected(self, s, kind):
        pairs = [("A*B", "A", kind), ("A", "A*B*A", kind), ("B*A*B", "(A*B)*A", kind)]
        assert [entry.error for entry in audit_all(s, pairs).entries] == [
            "first operand is not a projector",
            "second operand is not a projector",
            "first operand is not a projector",
        ]

    def test_a_sum_factor_gets_the_full_proof(self, s, calls):
        (entry,) = audit_all(s, [("A*(B + C)", "A", "product")]).entries
        assert entry.verdict.case is ProductCase.II
        assert calls["proofs"] == 1

    def test_commuting_products_need_no_proof(self, s, calls):
        (entry,) = audit_all(s, [("A*A", "B*C", "sum")]).entries
        assert entry.verdict.case is SumCase.DEGENERATE
        assert calls["proofs"] == 0

    def test_a_stored_product_keeps_its_failure(self, s):
        # the sum pair forms A*B and finds it not self-adjoint; the product
        # pair takes that finding and still rejects A and B
        pairs = [("A*B", "C", "sum"), ("A", "B", "product")]
        batch = [entry.error for entry in audit_all(s, pairs).entries]
        alone = [audit_all(s, [pair]).entries[0].error for pair in pairs]
        assert batch == alone == [
            "first operand is not a projector",
            "projectors do not commute; their product is not a projector",
        ]


class TestBatchIsPairByPair:
    """One audit_all call shares across its pairs its channel table, the
    fold and proof of each operand text, its products and the weak value of
    each proven operand. Its report must be the one each pair gives audited
    alone, to the bit. Its NearPoleWarnings must be the pairs' own, in the
    same order from the same lines, less each repeat of a weak value the
    call already took: a weak value warns once, when it is taken. Checked
    on dense channels and on basis channels, whose products need no test."""

    PAIRS = [
        ("L1*L2", "R1*R2", "sum"),
        ("L1", "L2", "product"),
        ("L2", "L1", "product"),
        ("L1*L2*L3", "R1*R2*R3", "sum"),
        ("L1*L2", "L3", "product"),
        ("L1*L2", "L3", "product"),
        ("L1 + R1", "L2", "product"),
        ("L1 + R1", "L2", "product"),
        ("L1", "R1", "product"),
        ("L1*L2", "nosuch", "sum"),
    ]

    # the weak values each pair takes, in the order it warns: the operands,
    # then a product of proven operands, which the call forms once, or a sum
    # ("+"), taken afresh each time. L1*L2*L3 folds as (L1*L2)*L3, the
    # product of the fifth pair; the last two pairs fail before any is taken.
    TAKES = [
        ("L1*L2", "R1*R2", "+"),
        ("L1", "L2", "L1*L2"),
        ("L2", "L1", "L2*L1"),
        ("L1*L2*L3", "R1*R2*R3", "+"),
        ("L1*L2", "L3", "L1*L2*L3"),
        ("L1*L2", "L3", "L1*L2*L3"),
        ("L1 + R1", "L2", "(L1 + R1)*L2"),
        ("L1 + R1", "L2", "(L1 + R1)*L2"),
        (),
        (),
    ]

    @staticmethod
    def _recorded(audit):
        """The entries ``audit()`` returns, and the warnings it raised."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries = list(audit())
        return entries, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]

    @classmethod
    def _alone(cls, s, pairs):
        """Each pair audited alone, as entries, and the warnings a batch of
        them raises: each pair's own, less those of weak values taken before."""
        entries, kept, taken = [], [], set()
        for (expr_a, expr_b, kind), takes in zip(pairs, cls.TAKES):
            def one():
                try:
                    verdict = _audit_pair(s, expr_a, expr_b, kind)
                    return [AuditEntry(expr_a, expr_b, kind, verdict, None)]
                except (ExpressionError, PhysicsError, ValueError) as exc:
                    return [AuditEntry(expr_a, expr_b, kind, None, str(exc))]

            entry, caught = cls._recorded(one)
            entries += entry
            assert len(caught) in (0, len(takes))
            for w, key in zip(caught, takes):
                if key == "+" or key not in taken:
                    kept.append(w)
                taken.add(key)
        return entries, kept

    @staticmethod
    def _near_pole(s):
        """``s`` postselected nearly orthogonal to U|pre>: overlap 1e-7."""
        ket = s.pre_state.amps if s.evolution is None else s.evolution @ s.pre_state.amps
        w = random_unit(np.random.default_rng(3), s.dim)
        w -= np.vdot(ket, w) * ket
        post = w / np.linalg.norm(w) + 1e-7 * ket
        return build_scenario("near-pole", s.labels, s.pre_state.amps, post, s.evolution, s.channels)

    @pytest.mark.parametrize("which", ["rotated", "near-pole", "replaced", "basis", "basis-near-pole"])
    def test_batch_report_is_the_pairs_audited_alone(self, which):
        if which.startswith("basis"):
            s = load_scenario(json.dumps(pigeonhole_document(3)))
            assert all(p.ndim == 1 for p in s.channels.values())
        else:
            s = rotated_pigeonhole(np.random.default_rng(13), 3)
        if which.endswith("near-pole"):
            s = self._near_pole(s)
            assert 1e-12 < abs(s.post_overlap) < 1e-6
        elif which == "replaced":
            s = dataclasses.replace(s, name="replaced")
        got, got_warnings = self._recorded(lambda: audit_all(s, self.PAIRS).entries)
        want, want_warnings = self._alone(s, self.PAIRS)
        report = json.dumps([entry.to_dict() for entry in got])
        assert report == json.dumps([entry.to_dict() for entry in want])
        assert got_warnings == want_warnings
        poles = [w for w in got_warnings if w[0] is NearPoleWarning]
        # the eight pairs audited apart take 24 weak values, 12 of them distinct
        assert len(poles) == len(got_warnings) == (12 if which.endswith("near-pole") else 0)
        assert json.loads(report)[1]["case"] == "ii"

    @staticmethod
    def _hold_one(monkeypatch, kernel, call):
        """``call("held")`` in a thread held at its first call of ``kernel``,
        while ``call("free")`` runs to its end in this one."""
        held, release = threading.Event(), threading.Event()
        holder = threading.Thread(target=call, args=("held",))

        def hold(*args):
            if threading.current_thread() is holder and not held.is_set():
                held.set()
                release.wait(timeout=60)

        spy(monkeypatch, kernel, hold)
        holder.start()
        try:
            assert held.wait(timeout=60)
            call("free")
        finally:
            release.set()
            holder.join(timeout=60)
        assert not holder.is_alive()

    @staticmethod
    def _keys_name_held_operators(s):
        # every id that keys a flag or a numerator is that of an operator
        # the record holds, so no freed operator's id can be reused for
        # another while the record lives
        record = s.channels._kept_record
        held = {id(m) for kept in (record.proven, record.operands, record.products)
                for m in kept.values()}
        for key in (*record.orthogonal, *record.amplitudes):
            assert set(key if isinstance(key, tuple) else (key,)) <= held

    def test_threads_share_a_scenario(self, monkeypatch):
        # one thread is held inside the self-adjointness test of the first
        # product it forms, L1*L2 of a product pair, while the main thread
        # audits the same pairs on the scenario and reads its products and
        # numerators: it must not find L1*L2 before its proof. Both give
        # the report of a fresh scenario.
        s = rotated_pigeonhole(np.random.default_rng(17), 3)
        pairs = [("L1", "L2", "product"), *self.PAIRS]
        want = json.dumps(audit_all(dataclasses.replace(s), pairs).to_dict())
        got = {}

        def audit(who):
            got[who] = json.dumps(audit_all(s, pairs).to_dict())

        self._hold_one(monkeypatch, linalg._self_adjoint, audit)
        assert got == {"free": want, "held": want}
        self._keys_name_held_operators(s)
        # both threads go on with the L1*L2 stored first
        record = s.channels._kept_record
        assert record.operands["L1*L2"] is record.products[id(s.channel("L1")), id(s.channel("L2"))]

    def test_threads_weigh_one_operator_per_text(self, monkeypatch):
        # one thread is held inside the sum L1 + L2, an operator that no
        # proof keeps, while the main thread folds and weighs the same
        # text: both go on with the operator stored first, whose numerator
        # the record keeps
        s = rotated_pigeonhole(np.random.default_rng(17), 3)
        want = bits(weak_value_expr(dataclasses.replace(s), "L1 + L2"))
        got = {}

        def weigh(who):
            got[who] = bits(weak_value_expr(s, "L1 + L2"))

        self._hold_one(monkeypatch, linalg._sum, weigh)
        assert got == {"free": want, "held": want}
        self._keys_name_held_operators(s)


def _catalog_and_readme_texts():
    """(scenario, text) for each operand of a catalog scenario's default audit
    batch and each expression of a README command line."""
    texts = {
        (name, text)
        for name in CATALOG_NAMES
        for a, b, _ in default_audit_pairs(name)
        for text in (a, b)
    }
    readme = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "cli_readme.json"
    for entry in json.loads(readme.read_text(encoding="utf-8")):
        argv = entry["argv"]
        for flag in ("--expr", "--expr2"):
            if flag in argv:
                texts.add((argv[argv.index("--scenario") + 1], argv[argv.index(flag) + 1]))
    return sorted(texts)


class TestChannelTableFoldsThroughTheRecord:
    """``evaluate_text`` over a scenario's own table returns the operator
    its record keeps, and the strong, weak and meter calls reuse the
    numerators the record keeps for an operator it holds: that very object,
    never an equal copy. Each oracle here is a copy of the plain fold, which
    the record never holds, so it takes every numerator afresh, and its ABL
    probability is the quotient of two ``cond_prob_post`` calls."""

    CFG = MeterConfig(sigma=1.0, g=0.1)

    @staticmethod
    def _abl_quotient(s, p):
        """``abl_prob`` of p as hit / (hit + miss), with hit and miss the
        ``cond_prob_post`` of new arrays of p and of 1 - p."""
        hit = cond_prob_post(s, np.array(p))
        miss = cond_prob_post(s, linalg._complement(p))
        if hit + miss <= tolerances.NULL_PROB:
            raise AblUndefinedError("postselection is unreachable")
        return hit / (hit + miss)

    @classmethod
    def _values(cls, s, p, abl=abl_prob):
        """The bits of ``abl``, ``cond_prob_post``, ``weak_value`` and
        ``measure_pointer`` of p, or the kind of error each raises."""
        calls = (abl, cond_prob_post, weak_value, lambda s, p: measure_pointer(s, p, cls.CFG))
        values = []
        for call in calls:
            try:
                values.append(bits(call(s, p)))
            except (PhysicsError, ValueError) as exc:
                values.append(type(exc).__name__)
        return values

    @classmethod
    def _oracle(cls, s, p):
        """``_values`` of a new array of p, with the ABL quotient."""
        return cls._values(s, np.array(p), cls._abl_quotient)

    @pytest.mark.parametrize("name, text", _catalog_and_readme_texts())
    def test_each_text_is_one_read_only_operator_with_the_plain_bits(self, name, text):
        s = catalog(name)
        p = evaluate_text(text, s.channels)
        plain = evaluate_text(text, dict(s.channels))
        assert evaluate_text(text, s.channels) is p and not p.flags.writeable
        assert bits(p) == bits(plain)
        want = self._oracle(s, plain)
        for _ in range(2):  # the first call keeps the numerators, the second reads them
            assert self._values(s, p) == want

    def test_an_operator_of_a_record_started_over_goes_the_cold_way(self, monkeypatch):
        s = rotated_pigeonhole(np.random.default_rng(7), 3)
        texts = ("L1*L2", "L1 + R1", "L1 + L2", "L1*R2")
        want = {text: self._oracle(s, evaluate_text(text, dict(s.channels))) for text in texts}
        # each call that starts with anything in the record starts it over
        monkeypatch.setattr(scenario, "_RECORD_CAP", 0)
        for text in texts:
            p = evaluate_text(text, s.channels)
            assert self._values(s, p) == want[text]
            record = s.channels._kept_record
            assert not record.holds(p)
            assert id(p) not in record.amplitudes and (id(p),) not in record.amplitudes

    def test_a_caller_copy_changed_in_place_never_takes_a_kept_numerator(self):
        s = rotated_pigeonhole(np.random.default_rng(7), 3)
        p, q = (evaluate_text(text, s.channels) for text in ("L1*L2", "R1*R2"))
        copy = p.copy()
        assert copy.flags.writeable
        assert self._values(s, copy) == self._values(s, p) == self._oracle(s, p)
        copy[...] = q
        assert self._values(s, copy) == self._values(s, q) == self._oracle(s, q)
        assert self._values(s, copy) != self._values(s, p)
        record = s.channels._kept_record
        assert id(copy) not in record.held
        assert id(copy) not in record.amplitudes and (id(copy),) not in record.amplitudes

    def test_weak_values_and_their_warnings_stay_per_call(self):
        s = TestBatchIsPairByPair._near_pole(rotated_pigeonhole(np.random.default_rng(13), 3))
        p = evaluate_text("L1*L2", s.channels)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first, second = weak_value(s, p), weak_value(s, p)
        assert [w.category for w in caught] == [NearPoleWarning] * 2
        assert first is not second and bits(first) == bits(second)

    def test_threads_fold_one_operator_per_text(self, monkeypatch):
        # one thread is held inside the sum L1 + L2 while the main thread
        # folds the same text: both get the operator stored first, which
        # the record holds, so the numerators then kept for it are keyed
        # by the id of a held operator
        s = rotated_pigeonhole(np.random.default_rng(17), 3)
        got = {}

        def fold(who):
            got[who] = evaluate_text("L1 + L2", s.channels)

        TestBatchIsPairByPair._hold_one(monkeypatch, linalg._sum, fold)
        record = s.channels._kept_record
        assert got["free"] is got["held"] is record.operands["L1 + L2"]
        assert record.holds(got["held"])
        abl_prob(s, got["held"])
        TestBatchIsPairByPair._keys_name_held_operators(s)
        assert {id(got["held"]), (id(got["held"]),)} <= set(record.amplitudes)

    def test_threads_weigh_on_a_record_that_starts_over(self, monkeypatch):
        # 4 threads fold and weigh texts on one scenario, whose record starts
        # over at nearly every call: each value is the oracle's
        s = rotated_pigeonhole(np.random.default_rng(17), 3)
        texts = ("L1*L2", "L1 + R1", "L1 + L2", "R1*R2")
        want = {text: self._oracle(s, evaluate_text(text, dict(s.channels))) for text in texts}
        monkeypatch.setattr(scenario, "_RECORD_CAP", 16 * s.dim**2)

        def weigh(t):
            picks = [texts[(t + i) % len(texts)] for i in range(12)]
            return [self._values(s, evaluate_text(text, s.channels)) == want[text] for text in picks]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = [ok for thread in pool.map(weigh, range(4)) for ok in thread]
        finally:
            sys.setswitchinterval(interval)
        assert got == [True] * 48

    def test_the_table_does_not_keep_its_scenario_alive(self):
        s = catalog("three-box")
        scenario_ref, table = weakref.ref(s), s.channels
        p = evaluate_text("A + B", table)
        del s
        assert scenario_ref() is None  # freed on its last reference: no cycle
        # the table outlives its scenario, and still returns the read-only
        # operator its record keeps
        assert evaluate_text("A + B", table) is p and not p.flags.writeable
        assert bits(p) == bits(evaluate_text("A + B", dict(table)))
