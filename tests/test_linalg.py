import numpy as np
import pytest

from weaklogic import (
    NotAProjectorError,
    State,
    add,
    apply,
    basis_projector,
    commutes,
    compose,
    identity,
    inner,
    is_projector,
    orthogonal,
)
from weaklogic.linalg import require_projector
from helpers import random_basis_projector, random_unit

BOX2 = ("LL", "LR", "RL", "RR")
BOX3 = ("LLL", "LLR", "LRL", "LRR", "RLL", "RLR", "RRL", "RRR")

# hand-expanded two-box states: both particles split evenly over L and R,
# postselection uses the quarter-phase single-particle state
PRE2 = np.ones(4) / 2.0
POST2 = np.array([1, 1j, 1j, -1]) / 2.0


def _state(amps, labels):
    return State(np.asarray(amps, dtype=complex), labels)


class TestState:
    def test_normalize(self):
        unit = State([3.0, 4.0], ("a", "b")).normalize()
        assert unit.norm == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(unit.amps, [0.6, 0.8])

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            State([0.0, 0.0], ("a", "b")).normalize()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            State([np.nan, 1.0], ("a", "b"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            State([1.0, 0.0], ("a", "a"))

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            State([1.0, 0.0, 0.0], ("a", "b"))

    def test_amps_read_only(self):
        st = State([1.0, 0.0], ("a", "b"))
        with pytest.raises(ValueError):
            st.amps[0] = 2.0


class TestInner:
    def test_self_overlap_of_unit_vector(self):
        rng = np.random.default_rng(11)
        v = _state(random_unit(rng, 5), tuple("abcde"))
        assert inner(v, v) == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_two_box_postselection_overlap(self):
        # four-term sum (1 - 1 - i - i)/4
        assert inner(_state(POST2, BOX2), _state(PRE2, BOX2)) == pytest.approx(
            -0.5j, abs=1e-12
        )

    def test_three_box_overlap(self):
        pre = _state(np.ones(3) / np.sqrt(3), ("A", "B", "C"))
        post = _state(np.array([1, 1, -1]) / np.sqrt(3), ("A", "B", "C"))
        assert inner(post, pre) == pytest.approx(1 / 3, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner(_state([1, 0], ("a", "b")), _state([1, 0, 0], ("a", "b", "c")))

    def test_label_mismatch(self):
        with pytest.raises(ValueError, match="label mismatch"):
            inner(_state([1, 0], ("a", "b")), _state([1, 0], ("a", "c")))


class TestApply:
    def test_identity(self):
        v = _state(PRE2, BOX2)
        out = apply(identity(4), v)
        np.testing.assert_array_equal(out.amps, v.amps)

    def test_same_boxes_projection(self):
        same12 = basis_projector(BOX2, ["LL", "RR"])
        out = apply(same12, _state(PRE2, BOX2))
        np.testing.assert_allclose(out.amps, [0.5, 0, 0, 0.5], atol=1e-15)
        assert out.norm == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_box_a_projection(self):
        box_a = basis_projector(("A", "B", "C"), ["A"])
        pre = _state(np.ones(3) / np.sqrt(3), ("A", "B", "C"))
        out = apply(box_a, pre)
        np.testing.assert_allclose(out.amps, [1 / np.sqrt(3), 0, 0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply(identity(3), _state(PRE2, BOX2))


class TestOperatorAlgebra:
    def test_pair_correlators_compose_to_triple(self):
        same12 = basis_projector(BOX3, [l for l in BOX3 if l[0] == l[1]])
        same23 = basis_projector(BOX3, [l for l in BOX3 if l[1] == l[2]])
        triple = basis_projector(BOX3, ["LLL", "RRR"])
        np.testing.assert_allclose(compose(same12, same23), triple, atol=1e-15)

    def test_add_zero(self):
        p = basis_projector(BOX2, ["LL"])
        np.testing.assert_array_equal(add(p, np.zeros((4, 4))), p)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))
        with pytest.raises(ValueError):
            add(identity(2), identity(3))
        with pytest.raises(ValueError, match="square"):
            is_projector(np.ones((2, 3)))


class TestStructureChecks:
    def test_same_boxes_is_projector(self):
        assert is_projector(basis_projector(BOX2, ["LL", "RR"]))

    def test_pair_correlators_commute(self):
        same12 = basis_projector(BOX3, [l for l in BOX3 if l[0] == l[1]])
        same23 = basis_projector(BOX3, [l for l in BOX3 if l[1] == l[2]])
        assert commutes(same12, same23)

    def test_disjoint_supports_orthogonal(self):
        assert orthogonal(
            basis_projector(BOX2, ["LL"]), basis_projector(BOX2, ["RR"])
        )

    def test_non_projector_detected(self):
        assert not is_projector(2.0 * identity(3))
        assert not is_projector(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_require_projector_returns_complex_matrix(self):
        p = require_projector([[1, 0], [0, 0]], "coupling")
        assert p.dtype == complex
        np.testing.assert_array_equal(p, basis_projector(("u", "d"), ["u"]))

    def test_require_projector_names_the_operand(self):
        with pytest.raises(NotAProjectorError, match="first operand is not a projector"):
            require_projector(2.0 * identity(2), "first operand")
        with pytest.raises(ValueError, match="coupling must be a square"):
            require_projector(np.ones((2, 3)), "coupling")

    def test_non_commuting_detected(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        up = basis_projector(("u", "d"), ["u"])
        assert not commutes(plus, up)
        assert not orthogonal(plus, up)


class TestRandomizedProperties:
    def test_inner_product_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            labels = tuple(f"b{i}" for i in range(dim))
            u = _state(random_unit(rng, dim), labels)
            v = _state(random_unit(rng, dim), labels)
            assert abs(inner(u, v)) <= 1.0 + 1e-12

    def test_projector_trace_is_integer(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            p = random_basis_projector(rng, dim)
            assert is_projector(p)
            trace = np.trace(p).real
            assert trace >= -1e-9
            assert abs(trace - round(trace)) <= 1e-9
