import warnings

import numpy as np
import pytest

from weaklogic import (
    NearPoleWarning,
    audit_all,
    ParseError,
    PostselectionLostError,
    UnboundNameError,
    build_scenario,
    catalog,
    cond_prob_post,
    identity,
    weak_value,
    weak_value_expr,
)
from weaklogic import audit
from helpers import (
    random_basis_projector,
    random_projector_family,
    random_scenario,
    rephased,
)


class TestCatalogValues:
    def test_two_box_joint_channels(self):
        s = catalog("pigeonhole2")
        left = weak_value_expr(s, "L1*L2")
        assert left.value == pytest.approx(0.5j, abs=1e-12)
        assert not left.is_zero
        right = weak_value_expr(s, "R1*R2")
        assert right.value == pytest.approx(-0.5j, abs=1e-12)

    def test_two_box_correlator_vanishes(self):
        s = catalog("pigeonhole2")
        assert weak_value_expr(s, "same12").is_zero
        assert weak_value_expr(s, "L1*L2 + R1*R2").is_zero

    def test_three_box_values(self):
        s = catalog("three-box")
        assert weak_value_expr(s, "A").value == pytest.approx(1.0, abs=1e-12)
        assert weak_value_expr(s, "B").value == pytest.approx(1.0, abs=1e-12)
        assert weak_value_expr(s, "C").value == pytest.approx(-1.0, abs=1e-12)
        assert weak_value_expr(s, "A + C").is_zero
        assert weak_value_expr(s, "A + B").value == pytest.approx(2.0, abs=1e-12)

    def test_hardy_values(self):
        s = catalog("hardy")
        assert weak_value_expr(s, "Np*Ie").value == pytest.approx(1.0, abs=1e-12)
        assert weak_value_expr(s, "Ip*Ne").value == pytest.approx(1.0, abs=1e-12)
        assert weak_value_expr(s, "Np*Ne").value == pytest.approx(-1.0, abs=1e-12)
        assert weak_value_expr(s, "Np").is_zero
        assert weak_value_expr(s, "Ne").is_zero
        assert weak_value_expr(s, "Ip*Ie").is_zero
        assert weak_value_expr(s, "Ip").value == pytest.approx(1.0, abs=1e-12)
        assert weak_value_expr(s, "Ie").value == pytest.approx(1.0, abs=1e-12)

    def test_three_particle_joint_correlator(self):
        s = catalog("pigeonhole3")
        w = weak_value_expr(s, "same123")
        assert w.value == pytest.approx(-0.5, abs=1e-12)
        assert w.numerator == pytest.approx((1 + 1j) / 8, abs=1e-12)
        assert w.denominator == pytest.approx(-(1 + 1j) / 4, abs=1e-12)

    def test_identity_weak_value(self):
        for name in ("pigeonhole2", "pigeonhole3", "three-box", "hardy"):
            s = catalog(name)
            w = weak_value(s, identity(s.dim))
            assert w.value == pytest.approx(1.0 + 0j, abs=1e-12)
            assert not w.is_zero
            assert not w.near_pole


class TestErrorsAndFlags:
    def test_vanishing_overlap_is_an_error(self):
        s = build_scenario("dead", ("a", "b"), [1, 0], [0, 1])
        with pytest.raises(PostselectionLostError):
            weak_value(s, identity(2))

    def test_near_pole_warns_but_computes(self):
        eps = 1e-8
        s = build_scenario("pole", ("a", "b"), [1, 0], [eps, 1])
        p = np.full((2, 2), 0.5, dtype=complex)
        with pytest.warns(NearPoleWarning):
            w = weak_value(s, p)
        assert w.near_pole
        assert w.value == pytest.approx(w.numerator / w.denominator, rel=1e-12)

    def test_an_overflowing_ratio_is_a_value_error(self):
        # the numerator, about 1e302, is finite; its ratio to 1e-8 is not
        s = build_scenario("pole", ("a", "b"), [1, 0], [1e-8, 1])
        with pytest.warns(NearPoleWarning):
            with pytest.raises(ValueError, match="^weak value is not finite: it overflows$"):
                weak_value(s, np.full((2, 2), 1e302))

    @staticmethod
    def _near_pole_warnings(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert {w.category for w in caught} <= {NearPoleWarning}
        return [w.filename for w in caught]

    def test_near_pole_warning_names_the_caller(self):
        s = build_scenario("pole", ("a", "b"), [1, 0], [1e-8, 1], None, {"A": [1.0, 0.0]})
        assert self._near_pole_warnings(lambda: weak_value(s, np.eye(2))) == [__file__]
        assert self._near_pole_warnings(lambda: weak_value_expr(s, "A")) == [__file__]

    def test_an_audit_warns_once_per_weak_value(self):
        s = build_scenario(
            "pole", ("a", "b", "c"), [1, 1, 0], [1, -1 + 1e-8, 1], None,
            {"A": [1.0, 0.0, 0.0], "B": [0.0, 1.0, 0.0], "U": [1.0, 0.0, 1.0]},
        )
        pairs = [("A", "B", "sum"), ("A", "U", "product"), ("A", "nosuch", "sum")]
        # A, B and A + B of the sum; U and A*U of the product, whose A the
        # call took already; none of the failing pair
        files = self._near_pole_warnings(lambda: audit_all(s, pairs))
        assert files == [audit.__file__] * 5

    def test_each_call_warns_near_the_pole(self):
        # the scenario keeps the operators of its texts, not their weak
        # values: each call takes its own, and warns
        s = build_scenario(
            "pole", ("a", "b", "c"), [1, 1, 0], [1, -1 + 1e-8, 1], None,
            {"A": [1.0, 0.0, 0.0], "B": [0.0, 1.0, 0.0], "U": [1.0, 0.0, 1.0]},
        )
        pairs = [("A", "B", "sum"), ("A", "U", "product")]
        for _ in range(2):
            assert self._near_pole_warnings(lambda: audit_all(s, pairs)) == [audit.__file__] * 5
            assert self._near_pole_warnings(lambda: weak_value_expr(s, "A*U")) == [__file__]

    def test_parse_errors_propagate(self):
        s = catalog("three-box")
        with pytest.raises(ParseError):
            weak_value_expr(s, "A + ")
        with pytest.raises(UnboundNameError):
            weak_value_expr(s, "nosuch")

    def test_value_is_ratio_of_recorded_parts(self):
        s = catalog("pigeonhole3")
        w = weak_value_expr(s, "L1*L2")
        assert w.value == pytest.approx(w.numerator / w.denominator, abs=1e-12)
        assert w.value == pytest.approx(0.5j, abs=1e-12)


class TestProperties:
    def test_linearity(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ca = complex(rng.normal(), rng.normal())
            cb = complex(rng.normal(), rng.normal())
            combined = weak_value(s, ca * a + cb * b).value
            expected = ca * weak_value(s, a).value + cb * weak_value(s, b).value
            assert combined == pytest.approx(expected, abs=1e-10)

    def test_complete_family_sums_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim)
            parts = int(rng.integers(2, dim + 1))
            family = random_projector_family(rng, dim, parts)
            total = sum(weak_value(s, p).value for p in family)
            assert total == pytest.approx(1.0 + 0j, abs=1e-10)

    def test_numerator_consistent_with_postselected_probability(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            p = random_basis_projector(rng, dim)
            w = weak_value(s, p)
            assert abs(w.numerator) ** 2 == pytest.approx(
                cond_prob_post(s, p), abs=1e-12
            )

    def test_phase_invariance_of_zero_flag_and_magnitude(self):
        rng = np.random.default_rng(44)
        s = catalog("hardy")
        exprs = ("Np", "Ip", "Np*Ne", "Ip*Ie")
        for _ in range(10):
            t = rephased(
                s,
                np.exp(1j * rng.uniform(0, 2 * np.pi)),
                np.exp(1j * rng.uniform(0, 2 * np.pi)),
            )
            for text in exprs:
                original = weak_value_expr(s, text)
                phased = weak_value_expr(t, text)
                assert original.is_zero == phased.is_zero
                assert abs(phased.value) == pytest.approx(abs(original.value), abs=1e-12)

    def test_arbitrary_operators_accepted(self):
        rng = np.random.default_rng(45)
        s = random_scenario(rng, 4)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w = weak_value(s, op)
        direct = np.vdot(s.post_state.amps, op @ s.pre_state.amps) / s.post_overlap
        assert w.value == pytest.approx(direct, abs=1e-12)
