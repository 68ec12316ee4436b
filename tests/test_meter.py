import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    bits,
    pointer_oracle,
    quadrature_disturbance,
    random_basis_projector,
    random_scenario,
    readout_reference,
    rephased,
    split_amplitudes,
    weak_limit_reference,
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
        "sigma,g",
        [
            (1.0, float("inf")),
            (float("inf"), 0.1),
            # finite, but their squares under- and overflow
            (1e-200, 0.0),
            (1e200, 0.1),
            # the momentum integrand, of order halfwidth / sigma^3, overflows
            (1e-160, 0.0),
            (1e-158, 1e-159),
            # halfwidth^2 overflows
            (1e154, 1e151),
            (1.0, 1e308),
            # halfwidth^2 is finite, (halfwidth + g)^2, the square of q - g
            # at the grid's left edge, is not
            (1e152, 4.2e153),
            # numpy scalars, whose arithmetic warns where a Python float's
            # overflows to inf silently
            pytest.param(np.float64(1e200), 0.1, id="np-1e+200-0.1"),
            pytest.param(np.float64(1e-160), 0.1, id="np-1e-160-0.1"),
            pytest.param(np.float64(1e152), np.float64(4.2e153), id="np-1e+152-4.2e+153"),
            pytest.param(1.0, np.float64(1e308), id="1.0-np-1e+308"),
        ],
    )
    def test_unusable_sigma_or_g_rejected(self, sigma, g):
        with pytest.raises(ValueError):
            MeterConfig(sigma=sigma, g=g)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(
        st.floats(-170.0, 170.0),
        st.floats(0.0, 1e3),
        st.sampled_from(
            [("pigeonhole2", "L1", "L1*L2"), ("three-box", "A", "C"), ("hardy", "Ip", "Np*Ne")]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_an_accepted_config_reads_finite(self, log_sigma, ratio, job):
        # sigma log-uniform over [1e-170, 1e170], g / sigma over [0, 1e3]
        sigma = 10.0**log_sigma
        g = ratio * sigma
        try:
            cfg = MeterConfig(sigma=sigma, g=g)
        except ValueError:
            return
        name, first, expr = job
        s = catalog(name)
        p = evaluate_text(expr, s.channels)
        try:
            stats = measure_pointer(s, p, cfg)
        except (MeterGridError, PostselectionLostError):
            pass
        else:
            assert all(map(math.isfinite, (stats.mean_q, stats.mean_p, stats.success_prob)))
        if g / 2 > 0:
            try:
                estimate = weak_limit_estimate(s, p, sigma, [g, g / 2])
            except (MeterGridError, PostselectionLostError):
                pass
            else:
                assert np.isfinite(estimate)
            try:
                moved = sequential_disturbance(s, s.channel(first), p, sigma, g)
            except PostselectionLostError:
                pass
            else:
                assert math.isfinite(moved)


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
        # the disturbance builds no grid: all four packet overlaps round to 1
        # there, as they already do at sigma = 1e8, and the reading is 0
        far = sequential_disturbance(s, s.channel("A"), p, 1e150, 0.1)
        assert bits(far) == bits(sequential_disturbance(s, s.channel("A"), p, 1e8, 0.1))
        assert far == 0.0
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


def _real_scenario(rng, dim):
    """A scenario, evolution and projector with real entries, so that the
    split amplitudes are real and the sign of a zero mean_p shows."""
    for _ in range(500):
        pre, post = (v / np.linalg.norm(v) for v in rng.normal(size=(2, dim)))
        evolution = np.linalg.qr(rng.normal(size=(dim, dim)))[0] if rng.integers(2) else None
        s = build_scenario("real", [f"b{i}" for i in range(dim)], pre, post, evolution, {})
        if abs(s.post_overlap) >= 0.05:
            cols = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:, : rng.integers(1, dim)]
            return s, cols @ cols.T
    raise AssertionError("could not draw a scenario with usable overlap")


class TestReadoutBits:
    """The readouts keep the bits of three ``np.trapezoid`` calls per grid."""

    README = [
        ("pigeonhole2", "L1*L2", 1.0, 0.01, None),
        ("hardy", "Np*Ne", 1.0, None, SWEEP),
    ]

    def _check(self, s, p, sigma, g, sweep):
        alpha, beta = meter._split(s, p)
        stats = None
        if g is not None:
            expected = meter.PointerStats(*readout_reference(alpha, beta, sigma, g))
            stats = measure_pointer(s, p, MeterConfig(sigma=sigma, g=g))
            assert bits(stats) == bits(expected)
        if sweep is not None:
            expected = weak_limit_reference(alpha, beta, sigma, sweep)
            assert bits(weak_limit_estimate(s, p, sigma, sweep)) == bits(expected)
        return stats

    @pytest.mark.parametrize("name,expr,sigma,g,sweep", README)
    def test_readme_commands(self, name, expr, sigma, g, sweep):
        s = catalog(name)
        self._check(s, evaluate_text(expr, s.channels), sigma, g, sweep)

    def test_random_readouts(self):
        rng = np.random.default_rng(1307)
        real_zeros = 0
        for i in range(320):
            dim = int(rng.integers(2, 7))
            if i % 2:
                s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
                p = random_basis_projector(rng, dim)
            else:
                s, p = _real_scenario(rng, dim)
            sigma = float(rng.uniform(0.3, 3.0))
            g = sigma * float(rng.uniform(1e-4, 1.0))
            sweep = [g / 10.0**k for k in range(int(rng.integers(2, 5)))]
            stats = self._check(s, p, sigma, g, sweep)
            real_zeros += i % 2 == 0 and stats.mean_p == 0.0
        # the real draws do reach a zero mean_p, whose sign the bits compare
        assert real_zeros > 100


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


class TestSplitFormedOnce:
    """The sweep forms alpha and beta once, not at every coupling. The proof
    of its coupling is counted in ``test_scenario.py::TestOneProofRecord``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        original = meter._amplitude

        def counted(*args):
            calls["_amplitude"] += 1
            return original(*args)

        monkeypatch.setattr(meter, "_amplitude", counted)
        return calls

    def test_sweep(self, calls):
        s = catalog("three-box")
        estimate = weak_limit_estimate(s, s.channel("C"), 1.0, SWEEP)
        assert calls == {"_amplitude": 2}
        assert estimate == pytest.approx(weak_value(s, s.channel("C")).value, abs=1e-6)

    def test_single_readout(self, calls):
        s = catalog("three-box")
        measure_pointer(s, s.channel("C"), MeterConfig(sigma=1.0, g=0.1))
        assert calls == {"_amplitude": 2}


class TestSequentialDisturbance:
    def test_zero_first_coupling_is_exactly_silent(self):
        s = catalog("pigeonhole2")
        p2 = evaluate_text("R1*R2", s.channels)
        zero = np.zeros((4, 4), dtype=complex)
        assert sequential_disturbance(s, zero, p2, 1.0, 0.05) == 0.0

    def test_zero_first_coupling_still_needs_the_postselection(self):
        s = build_scenario(
            "lost", ["a", "b"], [1, 0], [0, 1], channels={"B": [0, 1], "Z": [0, 0]}
        )
        with pytest.raises(PostselectionLostError):
            measure_pointer(s, s.channel("B"), MeterConfig(1.0, 0.1))
        for first in ("Z", "B"):
            with pytest.raises(PostselectionLostError):
                sequential_disturbance(s, s.channel(first), s.channel("B"), 1.0, 0.1)

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

    @pytest.mark.parametrize("name", ["pigeonhole2", "pigeonhole3", "three-box", "hardy"])
    def test_closed_form_matches_quadrature_oracle(self, name):
        s = catalog(name)
        for (a, p1), (b, p2) in itertools.product(s.channels.items(), repeat=2):
            for sigma in (0.5, 1.0, 2.0):
                for g in np.geomspace(1e-3, 0.5, 5):
                    expected = quadrature_disturbance(s, p1, p2, sigma, float(g))
                    got = sequential_disturbance(s, p1, p2, sigma, float(g))
                    assert got == pytest.approx(expected, rel=0, abs=1e-12), (a, b, sigma, g)
