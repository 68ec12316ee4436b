import collections
import dataclasses
import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklogic import (
    AuditEntry,
    AuditPreconditionError,
    ExpressionError,
    MeterConfig,
    NearPoleWarning,
    NotAProjectorError,
    PhysicsError,
    ProductCase,
    SumCase,
    audit_all,
    basis_projector,
    build_scenario,
    catalog,
    classify_product,
    classify_sum,
    collapse,
    commutes,
    default_audit_pairs,
    evaluate,
    evaluate_text,
    inner,
    load_scenario,
    measure_pointer,
    parse,
    sequential_disturbance,
    weak_limit_estimate,
)
from weaklogic import linalg
from weaklogic.audit import _audit_pair
from weaklogic.linalg import dense
from weaklogic.scenario import _amplitude
from helpers import (
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
                pa = evaluate_text(entry.expr_a, s.channels)
                pb = evaluate_text(entry.expr_b, s.channels)
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
    the d x d product kernel, the self-adjointness test and the proof
    kernel, on a pigeonhole whose channels are all dense."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()

        def product(a, b):
            calls["products"] += a.ndim == 2 and b.ndim == 2

        def self_adjoint(m):
            calls["self_adjoint"] += 1

        def proof(p):
            calls["proofs"] += 1

        spy(monkeypatch, linalg._product, product)
        spy(monkeypatch, linalg._self_adjoint, self_adjoint)
        spy(monkeypatch, linalg._proves_projector, proof)
        return calls

    @pytest.fixture(scope="class")
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


class TestBatchCost:
    """One audit_all call parses each distinct operand text once and takes
    the weak value of each distinct proven operand once, and a product of
    two basis channels, a real diagonal, needs no self-adjointness test.
    Counted on one qubit's batch of an 8-qubit basis pigeonhole, as the
    benchmark audits it: 14 pairs name 28 texts, 22 of them distinct, and
    take 42 weak values of 29 distinct operators."""

    def test_a_basis_qubit_batch_parses_and_weighs_each_operand_once(self, monkeypatch):
        s = load_scenario(json.dumps(pigeonhole_document(8)))
        calls = collections.Counter()
        spy(monkeypatch, parse, lambda text: calls.update(["parse"]))
        spy(monkeypatch, _amplitude, lambda s, *ops: calls.update(["amplitudes"]))
        spy(monkeypatch, linalg._self_adjoint, lambda m: calls.update(["self_adjoint"]))
        pairs = [
            pair
            for k in range(2, 9)
            for pair in ((f"L1*L{k}", f"R1*R{k}", "sum"), ("L1", f"L{k}", "product"))
        ]
        cases = [entry.verdict.case for entry in audit_all(s, pairs).entries]
        assert cases == [SumCase.III, ProductCase.II] * 7
        assert (calls["parse"], calls["amplitudes"], calls["self_adjoint"]) == (22, 29, 0)


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

    def test_threads_share_a_scenario(self):
        # each call keeps its products to itself, so calls on one scenario
        # from more threads than cores, switching often, give one report
        s = rotated_pigeonhole(np.random.default_rng(17), 3)
        want = json.dumps(audit_all(s, self.PAIRS).to_dict())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                reports = pool.map(lambda _: audit_all(s, self.PAIRS).to_dict(), range(32))
                got = [json.dumps(report) for report in reports]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 32
