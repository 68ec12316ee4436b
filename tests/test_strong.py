import numpy as np
import pytest

from weaklogic import (
    AblUndefinedError,
    ConsistencyError,
    State,
    ZeroProbabilityError,
    abl_prob,
    bayes_check,
    born_prob,
    build_scenario,
    catalog,
    collapse,
    cond_prob_post,
    evaluate_text,
    identity,
)
from weaklogic import linalg
from weaklogic.strong import _checked_probability
from helpers import (
    bits,
    matrix,
    random_basis_projector,
    random_projector_family,
    random_scenario,
    rephased,
    rotated_pigeonhole,
    spy,
)


def _raw_cond(s, p):
    # independent route: plain numpy matrix elements from the stored states
    post = s.post_state.amps
    bra = post if s.evolution is None else s.evolution.conj().T @ post
    return abs(np.vdot(bra, matrix(p) @ s.pre_state.amps)) ** 2


class TestBornProb:
    def test_two_box_correlators(self):
        s = catalog("pigeonhole2")
        assert born_prob(s.pre_state, s.channel("same12")) == pytest.approx(0.5, abs=1e-12)
        assert born_prob(s.pre_state, s.channel("diff12")) == pytest.approx(0.5, abs=1e-12)

    def test_identity(self):
        s = catalog("three-box")
        assert born_prob(s.pre_state, identity(3)) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        s = catalog("three-box")
        with pytest.raises(ValueError, match="dimension mismatch"):
            born_prob(s.pre_state, identity(4))

    def test_out_of_range_expectation_rejected(self):
        s = catalog("three-box")
        with pytest.raises(ConsistencyError, match="outside"):
            born_prob(s.pre_state, 2.0 * identity(3))

    def test_non_real_expectation_rejected(self):
        s = catalog("three-box")
        skew = np.zeros((3, 3), dtype=complex)
        skew[0, 1] = 1.0j
        with pytest.raises(ConsistencyError, match="imaginary"):
            born_prob(s.pre_state, skew)

    def test_overflowing_product_rejected(self):
        # the product overflows to +-inf, and its inner product with the state is NaN
        state = State(np.array([0.8, 0.6]), ("a", "b"))
        huge = np.array([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]])
        s = build_scenario("x", state.labels, state.amps, [1, 0])
        calls = (
            lambda: born_prob(state, huge),
            lambda: cond_prob_post(s, huge),
            lambda: bayes_check(s, huge),
        )
        for call in calls:
            with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="^matrix element is not finite: the operator product overflows$"
            ):
                call()

    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
    def test_a_probability_that_is_not_a_number_fails_its_check(self, value):
        with np.errstate(all="ignore"), pytest.raises(ConsistencyError, match="outside"):
            _checked_probability(value, "probability")


class TestCollapse:
    def test_two_box_same_outcome(self):
        s = catalog("pigeonhole2")
        outcome = collapse(s.pre_state, s.channel("same12"))
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(outcome.state.amps, expected, atol=1e-12)
        assert outcome.state.norm == pytest.approx(1.0, abs=1e-12)

    def test_identity_collapse(self):
        s = catalog("three-box")
        outcome = collapse(s.pre_state, identity(3))
        assert outcome.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(outcome.state.amps, s.pre_state.amps, atol=1e-12)

    def test_box_a_collapse(self):
        s = catalog("three-box")
        outcome = collapse(s.pre_state, s.channel("A"))
        assert outcome.probability == pytest.approx(1 / 3, abs=1e-12)
        np.testing.assert_allclose(outcome.state.amps, [1, 0, 0], atol=1e-12)

    def test_zero_probability_collapse(self):
        s = catalog("three-box")
        with pytest.raises(ZeroProbabilityError):
            collapse(s.pre_state, np.zeros((3, 3), dtype=complex))

    def test_probability_equals_projected_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim)
            p = random_basis_projector(rng, dim)
            if born_prob(s.pre_state, p) < 1e-6:
                continue
            outcome = collapse(s.pre_state, p)
            projected = p @ s.pre_state.amps
            assert outcome.probability == pytest.approx(
                float(np.vdot(projected, projected).real), abs=1e-12
            )

    def test_the_projected_state_is_formed_once(self, monkeypatch):
        # P|psi> gives both the probability <psi|P|psi> and the collapsed
        # state: one matrix-vector product of a dense projector
        s = rotated_pigeonhole(np.random.default_rng(5), 3)
        p = s.channel("L1")
        products = []
        spy(monkeypatch, linalg._act, lambda m, amps: products.append(m.shape))
        outcome = collapse(s.pre_state, p)
        assert products == [(8, 8)]
        ket = p @ s.pre_state.amps
        assert bits(outcome.probability) == bits(born_prob(s.pre_state, p))
        assert bits(outcome.state.amps) == bits(State(ket, s.labels).normalize().amps)


class TestCondProbPost:
    def test_two_box_same_is_blocked(self):
        s = catalog("pigeonhole2")
        assert cond_prob_post(s, s.channel("same12")) == pytest.approx(0.0, abs=1e-12)

    def test_three_box_single_boxes(self):
        s = catalog("three-box")
        for name in ("A", "B", "C"):
            assert cond_prob_post(s, s.channel(name)) == pytest.approx(1 / 9, abs=1e-12)

    def test_three_box_a_or_b(self):
        s = catalog("three-box")
        p = evaluate_text("A + B", s.channels)
        assert cond_prob_post(s, p) == pytest.approx(4 / 9, abs=1e-12)

    def test_two_box_joint_left(self):
        s = catalog("pigeonhole2")
        p = evaluate_text("L1*L2", s.channels)
        assert _raw_cond(s, p) == pytest.approx(1 / 16, abs=1e-12)
        assert cond_prob_post(s, p) == pytest.approx(1 / 16, abs=1e-12)

    def test_non_additivity_of_postselected_probabilities(self):
        # the joint probability for the union vanishes although each
        # member alone passes postselection with probability 1/9
        s = catalog("three-box")
        assert cond_prob_post(s, evaluate_text("A + C", s.channels)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert cond_prob_post(s, s.channel("A")) == pytest.approx(1 / 9, abs=1e-12)
        assert cond_prob_post(s, s.channel("C")) == pytest.approx(1 / 9, abs=1e-12)

    @pytest.mark.parametrize("function", [cond_prob_post, abl_prob, bayes_check])
    def test_an_overflowing_square_fails_its_check(self, function):
        # |<post|P|pre>| is finite, but its square is beyond floating-point
        # range: a Python float's ** raises OverflowError there
        s = catalog("three-box")
        with pytest.raises(ConsistencyError, match="lies outside"):
            function(s, 1e200 * identity(3))


class TestAblProb:
    def test_three_box_values(self):
        s = catalog("three-box")
        assert abl_prob(s, s.channel("A")) == pytest.approx(1.0, abs=1e-12)
        assert abl_prob(s, s.channel("B")) == pytest.approx(1.0, abs=1e-12)
        assert abl_prob(s, s.channel("C")) == pytest.approx(0.2, abs=1e-12)

    def test_identity_outcome_is_certain(self):
        for name in ("pigeonhole2", "three-box", "hardy"):
            s = catalog(name)
            assert abl_prob(s, identity(s.dim)) == pytest.approx(1.0, abs=1e-12)

    def test_three_box_a_or_b(self):
        s = catalog("three-box")
        p = evaluate_text("A + B", s.channels)
        # matrix oracle: hit 4/9, complement passes via the C box with 1/9
        hit, miss = _raw_cond(s, p), _raw_cond(s, identity(3) - matrix(p))
        assert hit / (hit + miss) == pytest.approx(0.8, abs=1e-12)
        assert abl_prob(s, p) == pytest.approx(0.8, abs=1e-12)

    def test_undefined_when_postselection_unreachable(self):
        from weaklogic import build_scenario

        s = build_scenario("dead", ("a", "b"), [1, 0], [0, 1])
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(AblUndefinedError):
            abl_prob(s, p)


class TestBayesCheck:
    def test_fixtures(self):
        three_box = catalog("three-box")
        assert bayes_check(three_box, three_box.channel("A")) <= 1e-12
        two_box = catalog("pigeonhole2")
        assert bayes_check(two_box, two_box.channel("same12")) <= 1e-12

    def test_null_outcome_short_circuits(self):
        s = catalog("three-box")
        assert bayes_check(s, np.zeros((3, 3), dtype=complex)) == 0.0

    def test_random_draws(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            p = random_basis_projector(rng, dim)
            assert bayes_check(s, p) <= 1e-10


class TestInvariants:
    def test_complete_family_born_sums_to_one(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim)
            parts = int(rng.integers(2, dim + 1))
            family = random_projector_family(rng, dim, parts)
            total = sum(born_prob(s.pre_state, p) for p in family)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_abl_outcomes_sum_to_one(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            p = random_basis_projector(rng, dim)
            try:
                total = abl_prob(s, p) + abl_prob(s, identity(dim) - p)
            except AblUndefinedError:
                continue
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_postselection_only_cuts_probability(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            p = random_basis_projector(rng, dim)
            assert cond_prob_post(s, p) <= born_prob(s.pre_state, p) + 1e-12

    def test_phase_invariance(self):
        rng = np.random.default_rng(36)
        s = catalog("hardy")
        for _ in range(10):
            pre_phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            post_phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            t = rephased(s, pre_phase, post_phase)
            for name in ("Ip", "NpNe"):
                p = s.channel(name)
                assert abs(born_prob(t.pre_state, p) - born_prob(s.pre_state, p)) <= 1e-12
                assert abs(cond_prob_post(t, p) - cond_prob_post(s, p)) <= 1e-12
                assert abs(abl_prob(t, p) - abl_prob(s, p)) <= 1e-12
