import collections

import numpy as np
import pytest

from weaklogic import meter
from weaklogic import (
    MeterConfig,
    MeterGridError,
    NotAProjectorError,
    PostselectionLostError,
    SweepDivergenceError,
    build_scenario,
    catalog,
    evaluate_text,
    identity,
    measure_pointer,
    sequential_disturbance,
    weak_limit_estimate,
    weak_value,
)
from helpers import (
    pointer_oracle,
    random_basis_projector,
    random_scenario,
    rephased,
    split_amplitudes,
)

SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)


class TestMeterConfig:
    def test_default_halfwidth_tracks_sigma_and_g(self):
        cfg = MeterConfig(sigma=0.5, g=0.25)
        assert cfg.halfwidth == pytest.approx(12 * 0.5 + 2 * 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeterConfig(sigma=0.0, g=0.1)
        with pytest.raises(ValueError):
            MeterConfig(sigma=1.0, g=-0.1)
        with pytest.raises(ValueError):
            MeterConfig(sigma=1.0, g=0.1, grid_points=4)

    @pytest.mark.parametrize(
        "sigma,g", [(1.0, float("inf")), (float("inf"), 0.1), (1e-200, 0.0), (1e200, 0.1)]
    )
    def test_unusable_sigma_or_g_rejected(self, sigma, g):
        # 1e-200 and 1e200 are finite, but their squares under- and overflow
        with pytest.raises(ValueError):
            MeterConfig(sigma=sigma, g=g)


class TestMeasurePointer:
    def test_identity_shifts_pointer_by_g(self):
        s = catalog("pigeonhole2")
        g = 0.3
        stats = measure_pointer(s, identity(4), MeterConfig(sigma=1.0, g=g))
        assert stats.mean_q == pytest.approx(g, abs=1e-10)
        assert stats.mean_p == pytest.approx(0.0, abs=1e-12)
        assert stats.success_prob == pytest.approx(abs(s.post_overlap) ** 2, abs=1e-10)

    def test_zero_operator_leaves_pointer_alone(self):
        s = catalog("pigeonhole2")
        stats = measure_pointer(
            s, np.zeros((4, 4), dtype=complex), MeterConfig(sigma=1.0, g=0.2)
        )
        assert stats.mean_q == pytest.approx(0.0, abs=1e-12)
        assert stats.mean_p == pytest.approx(0.0, abs=1e-12)

    def test_small_coupling_tracks_weak_value(self):
        s = catalog("pigeonhole2")
        p = evaluate_text("L1*L2", s.channels)
        sigma, g = 1.0, 1e-3
        stats = measure_pointer(s, p, MeterConfig(sigma=sigma, g=g))
        assert stats.mean_q / g == pytest.approx(0.0, abs=1e-3)
        assert 2 * sigma**2 * stats.mean_p / g == pytest.approx(0.5, abs=1e-3)

    def test_grid_matches_closed_form_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            p = random_basis_projector(rng, dim)
            sigma = float(rng.uniform(0.5, 2.0))
            g = float(rng.uniform(1e-3, 0.5))
            stats = measure_pointer(s, p, MeterConfig(sigma=sigma, g=g))
            alpha, beta = split_amplitudes(s, p)
            mean_q, mean_p, weight = pointer_oracle(alpha, beta, g, sigma)
            assert stats.mean_q == pytest.approx(mean_q, abs=1e-9)
            assert stats.mean_p == pytest.approx(mean_p, abs=1e-9)
            assert stats.success_prob == pytest.approx(weight, abs=1e-9)

    def test_success_prob_approaches_bare_overlap(self):
        for name in ("pigeonhole2", "three-box", "hardy"):
            s = catalog(name)
            p = next(iter(s.channels.values()))
            stats = measure_pointer(s, p, MeterConfig(sigma=1.0, g=1e-4))
            assert stats.success_prob == pytest.approx(
                abs(s.post_overlap) ** 2, abs=1e-8
            )

    def test_grid_doubling_is_converged(self):
        s = catalog("hardy")
        p = s.channel("NpNe")
        base = measure_pointer(s, p, MeterConfig(sigma=1.0, g=0.05, grid_points=4096))
        fine = measure_pointer(s, p, MeterConfig(sigma=1.0, g=0.05, grid_points=8192))
        assert abs(base.mean_q - fine.mean_q) < 1e-10
        assert abs(base.mean_p - fine.mean_p) < 1e-10

    def test_phase_invariance_of_mean_q(self):
        s = catalog("three-box")
        t = rephased(s, np.exp(0.7j), np.exp(-1.1j))
        p = s.channel("C")
        cfg = MeterConfig(sigma=1.0, g=0.1)
        assert measure_pointer(t, p, cfg).mean_q == pytest.approx(
            measure_pointer(s, p, cfg).mean_q, abs=1e-12
        )

    def test_non_projector_rejected(self):
        s = catalog("three-box")
        with pytest.raises(NotAProjectorError):
            measure_pointer(s, 2.0 * identity(3), MeterConfig(sigma=1.0, g=0.1))

    def test_coarse_grid_rejected(self):
        # g / sigma = 3000 spreads 4096 points ~3 sigma apart; the quadrature
        # would report mean_q 0.745 where the closed form gives 0.6
        s = catalog("three-box")
        with pytest.raises(MeterGridError, match="coarse"):
            measure_pointer(s, s.channel("C"), MeterConfig(sigma=1e-3, g=3.0))

    def test_coupling_below_rounding_floor_rejected(self):
        # at sigma = 1e150, q - 0.1 == q on every grid point
        s = catalog("three-box")
        p = s.channel("C")
        with pytest.raises(MeterGridError, match="rounding floor"):
            measure_pointer(s, p, MeterConfig(sigma=1e150, g=0.1))
        with pytest.raises(MeterGridError, match="rounding floor"):
            sequential_disturbance(s, s.channel("A"), p, 1e150, 0.1)
        floor = np.finfo(float).eps * MeterConfig(sigma=1.0, g=0.0).halfwidth
        with pytest.raises(MeterGridError):
            measure_pointer(s, p, MeterConfig(sigma=1.0, g=floor))
        measure_pointer(s, p, MeterConfig(sigma=1.0, g=2 * floor))
        measure_pointer(s, p, MeterConfig(sigma=1.0, g=0.0))

    def test_grid_at_the_spacing_limit_matches_oracle(self):
        s = catalog("three-box")
        p = s.channel("C")
        # 52 points put the spacing at 0.494 sigma, 51 points at 0.504 sigma
        stats = measure_pointer(s, p, MeterConfig(sigma=1.0, g=0.3, grid_points=52))
        expected = pointer_oracle(*split_amplitudes(s, p), 0.3, 1.0)
        got = (stats.mean_q, stats.mean_p, stats.success_prob)
        assert got == pytest.approx(expected, abs=1e-14)
        with pytest.raises(MeterGridError):
            measure_pointer(s, p, MeterConfig(sigma=1.0, g=0.3, grid_points=51))

    def test_extinguished_postselection(self):
        s = build_scenario("dead", ("a", "b"), [1, 0], [0, 1])
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(PostselectionLostError):
            measure_pointer(s, p, MeterConfig(sigma=1.0, g=0.1))


class TestWeakLimitEstimate:
    @pytest.mark.parametrize(
        "scenario,expression,expected",
        [
            ("pigeonhole2", "L1*L2", 0.5j),
            ("three-box", "C", -1.0),
            ("hardy", "Np*Ne", -1.0),
        ],
    )
    def test_sweep_converges_to_weak_value(self, scenario, expression, expected):
        s = catalog(scenario)
        p = evaluate_text(expression, s.channels)
        estimate = weak_limit_estimate(s, p, 1.0, SWEEP)
        assert estimate == pytest.approx(expected, abs=1e-6)
        assert weak_value(s, p).value == pytest.approx(expected, abs=1e-12)

    def test_identity_estimate(self):
        s = catalog("three-box")
        assert weak_limit_estimate(s, identity(3), 1.0, SWEEP) == pytest.approx(
            1.0 + 0j, abs=1e-9
        )

    def test_sweep_validation(self):
        s = catalog("three-box")
        p = s.channel("A")
        with pytest.raises(ValueError, match="decreasing"):
            weak_limit_estimate(s, p, 1.0, [1e-3, 1e-2])
        with pytest.raises(ValueError, match="positive"):
            weak_limit_estimate(s, p, 1.0, [1e-2, 0.0])
        with pytest.raises(ValueError, match="at least two"):
            weak_limit_estimate(s, p, 1.0, [1e-2])

    @pytest.mark.parametrize("channel", ["same12", "diff12"])
    def test_rounding_noise_is_not_divergence(self, channel):
        # weak values 0 and 1: the estimates agree to rounding noise, which
        # 1/g amplifies to ~1e-12 at g = 1e-4
        s = catalog("pigeonhole2")
        p = s.channel(channel)
        exact = weak_value(s, p).value
        for sigma in np.linspace(0.5, 2.0, 16):
            estimate = weak_limit_estimate(s, p, float(sigma), SWEEP)
            assert estimate == pytest.approx(exact, abs=1e-9)

    def test_divergent_sweep_near_pole_reported(self):
        eps = 1e-6
        s = build_scenario("pole", ("a", "b"), [1, 0], [eps, 1])
        p = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(SweepDivergenceError):
            weak_limit_estimate(s, p, 1.0, SWEEP)


class TestCouplingCheckedOnce:
    """The sweep checks its projector and forms alpha and beta once, not at
    every coupling."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        for name in ("proven_projector", "_amplitude"):
            original = getattr(meter, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(meter, name, counted)
        return calls

    def test_sweep(self, calls):
        s = catalog("three-box")
        estimate = weak_limit_estimate(s, s.channel("C"), 1.0, SWEEP)
        assert calls == {"proven_projector": 1, "_amplitude": 2}
        assert estimate == pytest.approx(weak_value(s, s.channel("C")).value, abs=1e-6)

    def test_single_readout(self, calls):
        s = catalog("three-box")
        measure_pointer(s, s.channel("C"), MeterConfig(sigma=1.0, g=0.1))
        assert calls == {"proven_projector": 1, "_amplitude": 2}


class TestSequentialDisturbance:
    def test_zero_first_coupling_is_exactly_silent(self):
        s = catalog("pigeonhole2")
        p2 = evaluate_text("R1*R2", s.channels)
        zero = np.zeros((4, 4), dtype=complex)
        assert sequential_disturbance(s, zero, p2, 1.0, 0.05) == 0.0

    @pytest.mark.parametrize(
        "scenario,first,second",
        [
            ("pigeonhole2", "L1*L2", "R1*R2"),
            ("hardy", "Ip", "Ie"),
        ],
    )
    def test_quadratic_scaling(self, scenario, first, second):
        s = catalog(scenario)
        p1 = evaluate_text(first, s.channels)
        p2 = evaluate_text(second, s.channels)
        couplings = np.geomspace(1e-3, 1e-1, 5)
        values = [sequential_disturbance(s, p1, p2, 1.0, g) for g in couplings]
        assert all(v > 0 for v in values)
        slope = np.polyfit(np.log(couplings), np.log(values), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_hundredfold_shrink_per_decade(self):
        s = catalog("pigeonhole2")
        p1 = evaluate_text("L1*L2", s.channels)
        p2 = evaluate_text("R1*R2", s.channels)
        big = sequential_disturbance(s, p1, p2, 1.0, 1e-2)
        small = sequential_disturbance(s, p1, p2, 1.0, 1e-3)
        assert big / small == pytest.approx(100.0, rel=0.05)

    def test_validation(self):
        s = catalog("pigeonhole2")
        p = evaluate_text("L1*L2", s.channels)
        with pytest.raises(ValueError, match="positive"):
            sequential_disturbance(s, p, p, 1.0, 0.0)
        with pytest.raises(NotAProjectorError):
            sequential_disturbance(s, 2.0 * p, p, 1.0, 0.1)

    def test_extinguished_postselection(self):
        s = build_scenario("dead", ("a", "b"), [1, 0], [0, 1])
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(PostselectionLostError):
            sequential_disturbance(s, p, p, 1.0, 0.1)
