import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklogic import linalg, meter, tolerances
from weaklogic import (
    CATALOG_NAMES,
    MeterConfig,
    MeterGridError,
    NotAProjectorError,
    PostselectionLostError,
    SweepDivergenceError,
    basis_projector,
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
    spy,
    split_amplitudes,
    sweep_reference,
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
        with pytest.raises(TypeError):
            MeterConfig(sigma=1.0, g=0.1, grid_points=4096)

    @pytest.mark.parametrize(
        "sigma, g", [(math.nan, 0.1), (1.0, math.nan), (1.0, math.inf), (-math.inf, 0.1)]
    )
    def test_non_finite_parameters_are_named(self, sigma, g):
        with pytest.raises(ValueError, match="^sigma and coupling strength g must be finite$"):
            MeterConfig(sigma=sigma, g=g)

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
        base = measure_pointer(s, p, MeterConfig(sigma=1.0, g=0.05))
        alpha, beta = split_amplitudes(s, p)
        fine_q, fine_p, _ = readout_reference(alpha, beta, 1.0, 0.05, grid_points=8192)
        assert abs(base.mean_q - fine_q) < 1e-10
        assert abs(base.mean_p - fine_p) < 1e-10

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
        # 4096 points over 2 (12 sigma + 2 g) put the spacing at exactly
        # sigma/2 for g = 505.875 sigma; one ulp more of g puts it past that
        limit = 505.875
        stats = measure_pointer(s, p, MeterConfig(sigma=1.0, g=limit))
        expected = pointer_oracle(*split_amplitudes(s, p), limit, 1.0)
        got = (stats.mean_q, stats.mean_p, stats.success_prob)
        assert got == pytest.approx(expected, abs=1e-14)
        with pytest.raises(MeterGridError, match="coarse"):
            measure_pointer(s, p, MeterConfig(sigma=1.0, g=float(np.nextafter(limit, np.inf))))

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

    def test_trapezoid_keeps_every_signed_zero(self):
        # rows whose imaginary parts are all zeros of either sign, beside
        # real parts of one or either sign: the sum's sign is all that is left
        rng = np.random.default_rng(1812)
        parts = np.array([0.0, -0.0, -1.0, -5e-324, -2.5, 1.0, 5e-324, 0.7])
        for i in range(300):
            n = int(rng.integers(2, 40))
            q = np.cumsum(rng.uniform(0.1, 1.0, size=n))
            y = np.empty((3, n), dtype=complex)
            y.real = rng.choice(parts[1:5] if i % 3 == 0 else parts, size=(3, n))
            y.imag = rng.choice(parts[:2] if i % 3 < 2 else parts, size=(3, n))
            for rows in (y, y.real.copy()):
                sums = meter._trapezoid(rows, np.diff(q), np.empty_like(rows))
                for row, total in zip(rows, sums):
                    assert bits(total) == bits(np.trapezoid(row, q)), row

    def test_every_row_of_one_pass(self):
        rng = np.random.default_rng(1811)
        zeros = 0
        for i in range(200):
            sigma = float(10.0 ** rng.uniform(-2, 3))
            if i % 3 == 0:
                # real amplitudes of either sign, with signed-zero imaginary parts
                alpha, beta = (complex(rng.normal(), rng.choice([0.0, -0.0])) for _ in range(2))
            else:
                alpha, beta = (complex(*rng.normal(size=2)) for _ in range(2))
            ratios = 10.0 ** rng.uniform(-8, 0.5, size=int(rng.integers(2, 6)))
            configs = [
                MeterConfig(sigma=sigma, g=float(g))
                for g in sorted(sigma * ratios, reverse=True)
            ]
            try:
                rows = meter._readouts(alpha, beta, configs)
            except MeterGridError:
                continue
            assert len(rows) == len(configs)
            for cfg, stats in zip(configs, rows):
                expected = readout_reference(alpha, beta, sigma, cfg.g)
                assert bits(stats) == bits(meter.PointerStats(*expected)), (alpha, beta, cfg)
                zeros += stats.mean_p == 0.0
        assert zeros > 50


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

    def test_divergent_sweep_near_pole_reported(self, monkeypatch):
        eps = 1e-6
        s = build_scenario("pole", ("a", "b"), [1, 0], [eps, 1])
        p = np.full((2, 2), 0.5, dtype=complex)
        rows = []
        spy(monkeypatch, meter._readouts, lambda a, b, configs: rows.extend(c.g for c in configs))
        with pytest.raises(SweepDivergenceError):
            weak_limit_estimate(s, p, 1.0, SWEEP)
        # its message prints the grid's changes, so every point is read as a row
        assert sorted(rows, reverse=True) == list(SWEEP)


EPS = np.finfo(float).eps


def _sweep_scenario(alpha, beta):
    """A scenario and coupling whose split amplitudes are (alpha, beta) up
    to rounding: pre (sqrt2 alpha, sqrt2 beta, rest), post (1, 1, 0), and
    the projector onto the second label. Needs |alpha|^2 + |beta|^2 <= 1/2."""
    rest = math.sqrt(max(1.0 - 2.0 * (abs(alpha) ** 2 + abs(beta) ** 2), 0.0))
    pre = [math.sqrt(2.0) * alpha, math.sqrt(2.0) * beta, rest]
    s = build_scenario("sweep", ("a", "b", "c"), pre, [1, 1, 0])
    return s, np.array([0.0, 1.0, 0.0])


def _estimate(stats, sigma, g):
    """The weak-limit estimate of ``(mean_q, mean_p, weight)``."""
    mean_q, mean_p, _ = stats
    return mean_q / g + 1j * (2.0 * sigma**2 * mean_p / g)


def _knife_edge(alpha, beta, sigma, sweep):
    """The sweep with sweep[1] moved, by bisection between sweep[2] and
    sweep[0], to where the closed-form first change |e1 - e0| equals the
    last change |e[-1] - e[-2]| that the sweep compares it with, read on
    the grid; the sweep unchanged if no point between does."""
    e_min, e_prev = (
        _estimate(readout_reference(alpha, beta, sigma, g), sigma, g) for g in sweep[:-3:-1]
    )
    target = abs(e_min - e_prev)

    def first(g):
        e1, e0 = (_estimate(pointer_oracle(alpha, beta, x, sigma), sigma, x) for x in (g, sweep[0]))
        return abs(e1 - e0)

    lo, hi = sweep[2], sweep[0]
    if not first(lo) > target:
        return sweep
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if first(mid) > target else (lo, mid)
    return [sweep[0], hi, *sweep[2:]]


def _unit(rng):
    return complex(np.exp(2j * np.pi * rng.random()))


def _draw_sweep(rng, case):
    """(alpha, beta, sigma, sweep) of one case of the sweep property."""
    sigma = float(10.0 ** rng.uniform(-3, 4))
    n = int(rng.integers(2, 7))
    alpha, beta = (0.4 * complex(*rng.normal(size=2)) for _ in range(2))
    if case == "real":
        alpha, beta = alpha.real, beta.real
    ratios = 10.0 ** rng.uniform(-6, 0.7, size=n)
    if case == "extinction":
        if rng.random() < 0.5:
            # nearly opposite: the weight tends to |alpha + beta|^2 ~ EXTINCT
            gap = math.sqrt(tolerances.EXTINCT * 10.0 ** rng.uniform(-0.3, 0.3))
            alpha = -beta + gap * _unit(rng)
            ratios = 10.0 ** rng.uniform(-9, -4, size=n)
        else:
            # both small, at any angle: the weight crosses EXTINCT with g
            scale = math.sqrt(tolerances.EXTINCT * 10.0 ** rng.uniform(-0.5, 0.3) / 2)
            alpha, beta = scale * _unit(rng), scale * _unit(rng)
            ratios = 10.0 ** rng.uniform(-3, 0.5, size=n)
        if rng.random() < 0.3:
            ratios[0] = 12.0 * EPS * rng.uniform(0.5, 2.0)
    elif case == "spacing":
        ratios[0] = rng.uniform(500.0, 512.0)
    elif case == "floor":
        if rng.random() < 0.5:
            ratios = 10.0 ** rng.uniform(-15.5, -13, size=n)
        ratios[0] = 12.0 * EPS * rng.uniform(0.8, 1.5)
    elif case == "divergent":
        # near a pole of the weak value: alpha + beta small
        alpha = -beta + 10.0 ** rng.uniform(-7, -3) * _unit(rng)
        if rng.random() < 0.5:
            ratios = 10.0 ** -np.arange(1.0, n + 1) * rng.uniform(0.5, 2.0)
    sweep = sorted({float(sigma * r) for r in ratios}, reverse=True)
    if case == "divergent" and len(sweep) >= 3 and rng.random() < 0.5:
        # the first change down at the rounding noise of the estimates
        sweep[1] = sweep[0] * (1 - 10.0 ** rng.uniform(-15, -10))
    if case == "knife":
        ratios = 10.0 ** rng.uniform(-4, 0, size=max(n, 4))
        sweep = sorted({float(sigma * r) for r in ratios}, reverse=True)
        sweep = _knife_edge(alpha, beta, sigma, sweep)
    return alpha, beta, sigma, sweep


def _outcome(call):
    try:
        return bits(call())
    except (MeterGridError, PostselectionLostError, SweepDivergenceError) as exc:
        return type(exc), str(exc)


class TestSweepReadsOnlyNeededGrids:
    """The sweep reads on the grid only the points whose bits it needs, and
    gives the bits, or the error and message, of reading every point."""

    CASES = ["real", "complex", "extinction", "spacing", "floor", "knife", "divergent"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_reading_every_point(self, case):
        rng = np.random.default_rng([17, self.CASES.index(case)])
        kinds = collections.Counter()
        for _ in range(120):
            alpha, beta, sigma, sweep = _draw_sweep(rng, case)
            if len(sweep) < 2:
                continue
            s, p = _sweep_scenario(alpha, beta)
            split = meter._split(s, p)
            got = _outcome(lambda: weak_limit_estimate(s, p, sigma, sweep))
            expected = _outcome(lambda: sweep_reference(*split, sigma, sweep))
            assert got == expected, (alpha, beta, sigma, sweep)
            kinds[got[0] if issubclass(got[0], Exception) else "estimate"] += 1
        # each case reaches what it is drawn for
        reached = {
            "extinction": PostselectionLostError,
            "spacing": MeterGridError,
            "floor": MeterGridError,
            "knife": SweepDivergenceError,
            "divergent": SweepDivergenceError,
        }
        assert kinds["estimate"] > 0
        if case in reached:
            assert kinds[reached[case]] > 0, kinds

    @pytest.fixture
    def readouts(self, monkeypatch):
        """The couplings of the grid rows of each call of the readout kernel."""
        calls = []
        spy(monkeypatch, meter._readouts, lambda a, b, configs: calls.append([c.g for c in configs]))
        return calls

    def test_readme_sweep_reads_two_grids(self, readouts):
        s = catalog("hardy")
        weak_limit_estimate(s, evaluate_text("Np*Ne", s.channels), 1.0, SWEEP)
        assert readouts == [list(SWEEP[-2:])]  # two rows of one pass

    def test_single_readout_reads_one_grid(self, readouts):
        s = catalog("hardy")
        measure_pointer(s, s.channel("NpNe"), MeterConfig(sigma=1.0, g=0.1))
        assert readouts == [[0.1]]

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.4), (0.2 + 0.1j, -0.5j)])
    def test_knife_edge_reads_every_grid(self, readouts, alpha, beta):
        s, p = _sweep_scenario(alpha, beta)
        split = meter._split(s, p)
        sweep = _knife_edge(*split, 1.0, [0.3, 0.1, 1e-2, 1e-3])
        assert sweep[1] != 0.1
        got = _outcome(lambda: weak_limit_estimate(s, p, 1.0, sweep))
        assert got == _outcome(lambda: sweep_reference(*split, 1.0, sweep))
        assert sorted(itertools.chain(*readouts), reverse=True) == sweep

    def test_extinct_head_is_read_where_the_sweep_reaches_it(self, readouts):
        # both amplitudes tiny and aligned: the weight, |alpha|^2 + |beta|^2
        # at large g and |alpha + beta|^2 at small g, is below the cut only
        # at the first coupling; the last one lies below the rounding floor
        alpha = beta = math.sqrt(0.8 * tolerances.EXTINCT / 2)
        s, p = _sweep_scenario(alpha, beta)
        sweep = [10.0, 1e-3, 1e-4, 1e-16]
        with pytest.raises(PostselectionLostError):
            weak_limit_estimate(s, p, 1.0, sweep)
        assert readouts == [[10.0]]

    @pytest.mark.parametrize(
        "sweep,error",
        [
            # the second-smallest coupling loses the postselection: that
            # error comes first, though the smallest is below the rounding floor
            ([1e-9, 1e-16], PostselectionLostError),
            # the second-smallest grid is too coarse: that error comes
            # first, though the smallest coupling loses the postselection
            ([600.0, 1e-9], MeterGridError),
        ],
    )
    def test_rows_fail_in_sweep_order(self, readouts, sweep, error):
        # alpha = -beta: the weight 2 |beta|^2 (1 - k) vanishes as g shrinks
        s, p = _sweep_scenario(-0.3, 0.3)
        split = meter._split(s, p)
        got = _outcome(lambda: weak_limit_estimate(s, p, 1.0, sweep))
        assert got == _outcome(lambda: sweep_reference(*split, 1.0, sweep))
        assert got[0] is error
        assert readouts == [sweep]  # both couplings are rows of one call


class TestClosedForm:
    """The closed form behind the sweep's decisions, and the headroom of
    its rounding bound ``GRID_GAP``."""

    def test_agrees_with_pointer_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            alpha, beta = (complex(*rng.normal(size=2)) for _ in range(2))
            sigma = float(10.0 ** rng.uniform(-3, 4))
            g = sigma * float(10.0 ** rng.uniform(-6, 2.7))
            mean_q, mean_p, weight = pointer_oracle(alpha, beta, g, sigma)
            w, m = meter._moments(alpha, beta, meter._overlap(sigma, g))
            estimate = m / w
            assert w == pytest.approx(weight, rel=1e-14)
            assert estimate == pytest.approx(
                mean_q / g + 1j * (2.0 * sigma**2 * mean_p / g), rel=1e-12
            )

    def test_rounding_gap_has_headroom(self):
        rng = np.random.default_rng(23)
        worst_weight = worst_estimate = 0.0
        for i in range(1500):
            alpha, beta = (complex(*rng.normal(size=2)) for _ in range(2))
            if i % 3 == 0:
                alpha, beta = alpha.real, beta.real
            elif i % 3 == 1:
                alpha = -beta * (1 + 10.0 ** rng.uniform(-9, -1) * _unit(rng))
            scale = 10.0 ** rng.uniform(-7, 0)
            alpha, beta = complex(alpha) * scale, complex(beta) * scale
            sigma = float(10.0 ** rng.uniform(-3, 4))
            g = sigma * float(10.0 ** rng.uniform(-14, math.log10(505.8)))
            cfg = MeterConfig(sigma=sigma, g=g)
            try:
                (stats,) = meter._readouts(alpha, beta, [cfg])
            except (MeterGridError, PostselectionLostError):
                continue
            w, m = meter._moments(alpha, beta, meter._overlap(sigma, g))
            estimate = m / w
            grid = stats.mean_q / g + 1j * (2.0 * sigma**2 * stats.mean_p / g)
            units = abs(alpha) ** 2 + abs(beta) ** 2
            worst_weight = max(worst_weight, abs(stats.success_prob - w) / (EPS * units))
            worst_estimate = max(
                worst_estimate, abs(grid - estimate) / (EPS * cfg.halfwidth / g * units / w)
            )
        assert worst_estimate > 0 and worst_weight > 0
        assert max(worst_estimate, worst_weight) <= tolerances.GRID_GAP / 1000


class TestSplitFormedOnce:
    """The sweep forms alpha and beta once, not at every coupling; a channel
    is an operator the scenario's record holds, which keeps beta for the next
    call. The proof of its coupling is counted in
    ``test_scenario.py::TestOneProofRecord``. Counted on ``_element``,
    which takes every matrix element, once the scenario is built."""

    @pytest.fixture
    def s(self):
        return catalog("three-box")

    @pytest.fixture
    def calls(self, monkeypatch, s):
        calls = collections.Counter()
        spy(monkeypatch, linalg._element, lambda *args: calls.update(["_element"]))
        return calls

    def test_sweep(self, s, calls):
        estimate = weak_limit_estimate(s, s.channel("C"), 1.0, SWEEP)
        assert calls == {"_element": 2}
        assert bits(weak_limit_estimate(s, s.channel("C"), 1.0, SWEEP)) == bits(estimate)
        assert calls == {"_element": 3}
        assert estimate == pytest.approx(weak_value(s, s.channel("C")).value, abs=1e-6)

    def test_single_readout(self, s, calls):
        measure_pointer(s, s.channel("C"), MeterConfig(sigma=1.0, g=0.1))
        assert calls == {"_element": 2}
        # a copy of the channel is the caller's array: beta is taken again
        measure_pointer(s, np.array(s.channel("C")), MeterConfig(sigma=1.0, g=0.1))
        assert calls == {"_element": 4}


class TestSequentialDisturbance:
    def test_zero_first_coupling_is_exactly_silent(self):
        s = catalog("pigeonhole2")
        p2 = evaluate_text("R1*R2", s.channels)
        zero = np.zeros((4, 4), dtype=complex)
        assert sequential_disturbance(s, zero, p2, 1.0, 0.05) == 0.0

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_zero_first_coupling_is_exactly_silent_everywhere(self, name):
        s = catalog(name)
        zero = np.zeros((s.dim, s.dim), dtype=complex)
        for p2 in s.channels.values():
            for sigma, g in itertools.product((0.5, 1.0, 2.0), (1e-3, 0.1, 0.5)):
                assert sequential_disturbance(s, zero, p2, sigma, g) == 0.0

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_exactly_silent_where_the_packets_coincide(self, name):
        # at sigma = 1e8 the overlap k of a meter's two packets rounds to 1,
        # so 1 - k, which multiplies every cross-branch term, is 0
        s = catalog(name)
        assert meter._overlap(1e8, 0.1) == 1.0
        for p1, p2 in itertools.product(s.channels.values(), repeat=2):
            for g in (1e-3, 0.1):
                assert sequential_disturbance(s, p1, p2, 1e8, g) == 0.0

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

    # over labels JK, P1 projects onto J = 1 and P2 onto K = 1; they commute,
    # so c_JK = <bra|S2_K S1_J|pre> is conj(post_JK) pre_JK, set entry by entry
    LABELS = ("00", "01", "10", "11")
    P1 = basis_projector(LABELS, ["10", "11"])
    P2 = basis_projector(LABELS, ["01", "11"])

    def test_one_meter_extinction_fires_where_two_meters_would_not(self):
        # c = (1, 1, -1, -1)/4: both a_K = c_0K + c_1K vanish, so the one-meter
        # weight w0 is 0, while the two-meter weight, (1 - k^2)/4, is not
        s = build_scenario("x", self.LABELS, [1, 1, 1, 1], [1, 1, -1, -1])
        with pytest.raises(
            PostselectionLostError,
            match="^postselection extinguishes the meter state; no statistics exist$",
        ):
            sequential_disturbance(s, self.P1, self.P2, 1.0, 0.05)

    def test_two_meter_extinction_fires_where_one_meter_would_not(self):
        # c00 = c10 = a/2 and c01 = c11 = 0: w0 = |a|^2 = 1.5e-14 is above the
        # cut, the two-meter weight w0 (1 + k)/2, with k = e^-2 at g = 4, is not
        e = math.sqrt(7.5e-15)
        s = build_scenario("x", self.LABELS, [1, 0, 1, 0], [e, 1, e, 0])
        stats = measure_pointer(s, self.P2, MeterConfig(1.0, 4.0))
        assert stats.success_prob == pytest.approx(1.5e-14, rel=1e-9)
        with pytest.raises(
            PostselectionLostError,
            match="^postselection extinguishes the two-meter state; no statistics exist$",
        ):
            sequential_disturbance(s, self.P1, self.P2, 1.0, 4.0)

    @pytest.mark.parametrize("name", ["pigeonhole2", "pigeonhole3", "three-box", "hardy"])
    def test_closed_form_matches_quadrature_oracle(self, name):
        s = catalog(name)
        for (a, p1), (b, p2) in itertools.product(s.channels.items(), repeat=2):
            for sigma in (0.5, 1.0, 2.0):
                for g in np.geomspace(1e-3, 0.5, 5):
                    expected = quadrature_disturbance(s, p1, p2, sigma, float(g))
                    got = sequential_disturbance(s, p1, p2, sigma, float(g))
                    assert got == pytest.approx(expected, rel=0, abs=1e-12), (a, b, sigma, g)
