"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import json
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from weaklogic import (
    MeterConfig,
    ProductCase,
    SumCase,
    abl_prob,
    bayes_check,
    born_prob,
    build_scenario,
    catalog,
    classify_product,
    classify_sum,
    cond_prob_post,
    evaluate_text,
    identity,
    measure_pointer,
    sequential_disturbance,
    weak_limit_estimate,
    weak_value,
    weak_value_expr,
)
from weaklogic.cli import main
from helpers import (
    dproj,
    hardy_beamsplitter,
    pointer_oracle,
    random_basis_projector,
    random_projector_family,
    random_scenario,
    random_unitary,
    rephased,
    split_amplitudes,
)

TOL = 1e-12
SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"criterion {number:>2} ({title}): FAIL")
        raise
    print(f"criterion {number:>2} ({title}): PASS")


def test_criterion_1_two_box_born():
    with criterion(1, "pigeonhole-2 Born"):
        s = catalog("pigeonhole2")
        assert born_prob(s.pre_state, s.channel("same12")) == pytest.approx(0.5, abs=TOL)
        assert born_prob(s.pre_state, s.channel("diff12")) == pytest.approx(0.5, abs=TOL)


def test_criterion_2_two_box_postselection():
    with criterion(2, "pigeonhole-2 postselection"):
        s = catalog("pigeonhole2")
        assert cond_prob_post(s, s.channel("same12")) == pytest.approx(0.0, abs=TOL)
        joint_left = evaluate_text("L1*L2", s.channels)
        assert cond_prob_post(s, joint_left) == pytest.approx(1 / 16, abs=TOL)


def test_criterion_3_two_box_weak_values():
    with criterion(3, "pigeonhole-2 weak values"):
        s = catalog("pigeonhole2")
        assert weak_value_expr(s, "L1*L2").value == pytest.approx(0.5j, abs=TOL)
        assert weak_value_expr(s, "R1*R2").value == pytest.approx(-0.5j, abs=TOL)
        assert weak_value_expr(s, "same12").is_zero
        verdict = classify_sum(
            s, evaluate_text("L1*L2", s.channels), evaluate_text("R1*R2", s.channels)
        )
        assert verdict.case is SumCase.III
        assert not verdict.consistent


def test_criterion_4_three_particle_boxes():
    with criterion(4, "pigeonhole-3"):
        s = catalog("pigeonhole3")
        assert weak_value_expr(s, "same123").value == pytest.approx(-0.5, abs=TOL)
        verdict = classify_product(s, s.channel("same12"), s.channel("same23"))
        assert verdict.case is ProductCase.IV
        joint_left = evaluate_text("L1*L2", s.channels)
        verdict = classify_product(s, joint_left, s.channel("same23"))
        assert verdict.case is ProductCase.VI
        wa, wb, wp = verdict.weak_values
        assert wa.value == pytest.approx(0.5j, abs=TOL)
        assert abs(wb.value) <= TOL
        assert wp.value == pytest.approx(-(1 - 1j) / 4, abs=TOL)


def test_criterion_5_three_box_strong_and_abl():
    with criterion(5, "three-box strong/ABL"):
        s = catalog("three-box")
        for name in ("A", "B", "C"):
            assert cond_prob_post(s, s.channel(name)) == pytest.approx(1 / 9, abs=TOL)
        assert abl_prob(s, s.channel("A")) == pytest.approx(1.0, abs=TOL)
        assert abl_prob(s, s.channel("B")) == pytest.approx(1.0, abs=TOL)
        assert abl_prob(s, s.channel("C")) == pytest.approx(0.2, abs=TOL)
        assert cond_prob_post(s, evaluate_text("A + B", s.channels)) == pytest.approx(
            4 / 9, abs=TOL
        )
        assert cond_prob_post(s, evaluate_text("A + C", s.channels)) == pytest.approx(
            0.0, abs=TOL
        )


def test_criterion_6_three_box_weak_values():
    with criterion(6, "three-box weak values"):
        s = catalog("three-box")
        assert weak_value_expr(s, "A").value == pytest.approx(1.0, abs=TOL)
        assert weak_value_expr(s, "B").value == pytest.approx(1.0, abs=TOL)
        assert weak_value_expr(s, "C").value == pytest.approx(-1.0, abs=TOL)
        verdict = classify_sum(s, s.channel("A"), s.channel("C"))
        assert verdict.case is SumCase.III
        assert not verdict.consistent


def test_criterion_7_hardy():
    with criterion(7, "hardy"):
        u = hardy_beamsplitter()
        bright = np.array([1.0, 0.0], dtype=complex)
        dark = np.array([0.0, 1.0], dtype=complex)
        u_arm_i = u @ np.array([0.0, 1.0], dtype=complex)
        form1 = np.kron(u, u) @ (np.array([1, 1j, 1j, 0]) / np.sqrt(3))
        form2 = (
            np.kron(-dark + 1j * bright, dark)
            + 1j * np.kron(dark, bright)
            - 3 * np.kron(bright, bright)
        ) / np.sqrt(12)
        form3 = (
            -1j * np.sqrt(2) * np.kron(u_arm_i, dark)
            + 1j * np.kron(dark, bright)
            - 3 * np.kron(bright, bright)
        ) / np.sqrt(12)
        form4 = (
            -1j * np.sqrt(2) * np.kron(dark, u_arm_i)
            + 1j * np.kron(bright, dark)
            - 3 * np.kron(bright, bright)
        ) / np.sqrt(12)
        for form in (form2, form3, form4):
            np.testing.assert_allclose(form1, form, atol=TOL)

        s = catalog("hardy")
        assert weak_value_expr(s, "Np*Ie").value == pytest.approx(1.0, abs=TOL)
        assert weak_value_expr(s, "Ip*Ne").value == pytest.approx(1.0, abs=TOL)
        assert weak_value_expr(s, "Np*Ne").value == pytest.approx(-1.0, abs=TOL)
        assert weak_value_expr(s, "Np").is_zero
        assert weak_value_expr(s, "Ne").is_zero
        assert weak_value_expr(s, "Ip*Ie").is_zero
        assert weak_value_expr(s, "Ip").value == pytest.approx(1.0, abs=TOL)
        assert weak_value_expr(s, "Ie").value == pytest.approx(1.0, abs=TOL)
        product = classify_product(s, s.channel("Ip"), s.channel("Ie"))
        assert product.case is ProductCase.III
        union = classify_sum(s, s.channel("NpIe"), s.channel("NpNe"))
        assert union.case is SumCase.III


def test_criterion_8_meter_convergence():
    with criterion(8, "meter convergence"):
        fixtures = [
            ("pigeonhole2", "L1*L2"),
            ("three-box", "C"),
            ("hardy", "Np*Ne"),
        ]
        for name, expression in fixtures:
            s = catalog(name)
            p = evaluate_text(expression, s.channels)
            estimate = weak_limit_estimate(s, p, 1.0, SWEEP)
            assert estimate == pytest.approx(weak_value(s, p).value, abs=1e-6)
        s = catalog("pigeonhole2")
        stats = measure_pointer(s, identity(4), MeterConfig(sigma=1.0, g=0.3))
        assert stats.mean_q == pytest.approx(0.3, abs=1e-10)


def test_criterion_9_sequential_non_disturbance():
    with criterion(9, "sequential non-disturbance"):
        fixtures = [
            ("pigeonhole2", "L1*L2", "R1*R2"),
            ("hardy", "Ip", "Ie"),
        ]
        couplings = np.geomspace(1e-3, 1e-1, 5)
        for name, first, second in fixtures:
            s = catalog(name)
            p1 = evaluate_text(first, s.channels)
            p2 = evaluate_text(second, s.channels)
            values = [sequential_disturbance(s, p1, p2, 1.0, g) for g in couplings]
            slope = np.polyfit(np.log(couplings), np.log(values), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.1)


def _random_commuting_pair(rng, dim):
    """Commuting, non-orthogonal projector pair diagonal in a random frame."""
    v = random_unitary(rng, dim)
    shared = int(rng.integers(0, dim))
    others = [i for i in range(dim) if i != shared]
    rng.shuffle(others)
    extra_a = others[: max(0, int(rng.integers(0, len(others) // 2 + 1)))]
    extra_b = [i for i in others if i not in extra_a][: max(0, int(rng.integers(0, 2)))]
    idx_a = [shared, *extra_a]
    idx_b = [shared, *extra_b]
    pa = v[:, idx_a] @ v[:, idx_a].conj().T
    pb = v[:, idx_b] @ v[:, idx_b].conj().T
    return pa, pb


def test_criterion_10_property_suites():
    with criterion(10, "randomized property suites"):
        trials = 200

        rng = np.random.default_rng(101)
        for _ in range(trials):  # weak-value linearity
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ca = complex(rng.normal(), rng.normal())
            cb = complex(rng.normal(), rng.normal())
            lhs = weak_value(s, ca * a + cb * b).value
            rhs = ca * weak_value(s, a).value + cb * weak_value(s, b).value
            assert abs(lhs - rhs) <= 1e-10

        rng = np.random.default_rng(102)
        for _ in range(trials):  # complete projector family sums
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim)
            family = random_projector_family(rng, dim, int(rng.integers(2, dim + 1)))
            weak_total = sum(weak_value(s, p).value for p in family)
            assert abs(weak_total - 1.0) <= 1e-10
            born_total = sum(born_prob(s.pre_state, p) for p in family)
            assert abs(born_total - 1.0) <= 1e-10

        rng = np.random.default_rng(103)
        for _ in range(trials):  # two-outcome completeness and Bayes residual
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            p = random_basis_projector(rng, dim)
            assert bayes_check(s, p) <= 1e-10
            hit = cond_prob_post(s, p)
            miss = cond_prob_post(s, identity(dim) - p)
            if hit + miss > 1e-12:
                total = abl_prob(s, p) + abl_prob(s, identity(dim) - p)
                assert abs(total - 1.0) <= 1e-10

        rng = np.random.default_rng(104)
        for _ in range(trials):  # phase invariance of every exposed quantity
            dim = int(rng.integers(3, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            t = rephased(
                s,
                np.exp(1j * rng.uniform(0, 2 * np.pi)),
                np.exp(1j * rng.uniform(0, 2 * np.pi)),
            )
            p = random_basis_projector(rng, dim)
            assert abs(
                born_prob(t.pre_state, p) - born_prob(s.pre_state, p)
            ) <= 1e-12
            assert abs(cond_prob_post(t, p) - cond_prob_post(s, p)) <= 1e-12
            assert abs(
                abs(weak_value(t, p).value) - abs(weak_value(s, p).value)
            ) <= 1e-12
            pa, pb, *_ = random_projector_family(rng, dim, 3)
            assert classify_sum(t, pa, pb).case is classify_sum(s, pa, pb).case
            qa, qb = _random_commuting_pair(rng, dim)
            assert (
                classify_product(t, qa, qb).case is classify_product(s, qa, qb).case
            )

        # all eight product zero-patterns, dialed in via the postselection
        patterns = [
            ([0, 0, 0, 1], ProductCase.I),
            ([1, 1, 1, 1], ProductCase.II),
            ([0, 1, 1, 1], ProductCase.III),
            ([1, -1, -1, 2], ProductCase.IV),
            ([0, 1, 0, 1], ProductCase.V),
            ([0, 0, 1, 1], ProductCase.V_MIRROR),
            ([1, 1, -1, 1], ProductCase.VI),
            ([1, -1, 1, 1], ProductCase.VI_MIRROR),
        ]
        pa = dproj(4, [0, 1])
        pb = dproj(4, [0, 2])
        for post, expected in patterns:
            s = build_scenario("synthetic", ("w", "x", "y", "z"), [1, 1, 1, 1], post)
            assert classify_product(s, pa, pb).case is expected


def test_criterion_11_meter_oracle_agreement():
    with criterion(11, "grid vs closed-form meter oracle"):
        rng = np.random.default_rng(111)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            s = random_scenario(rng, dim, with_evolution=bool(rng.integers(2)))
            p = random_basis_projector(rng, dim)
            sigma = float(rng.uniform(0.5, 2.0))
            g = float(rng.uniform(1e-3, 0.5))
            stats = measure_pointer(s, p, MeterConfig(sigma=sigma, g=g))
            alpha, beta = split_amplitudes(s, p)
            mean_q, mean_p, weight = pointer_oracle(alpha, beta, g, sigma)
            assert abs(stats.mean_q - mean_q) <= 1e-9
            assert abs(stats.mean_p - mean_p) <= 1e-9
            assert abs(stats.success_prob - weight) <= 1e-9


def _cli(*argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_12_nested_mach_zehnder():
    with criterion(12, "nested Mach-Zehnder example"):
        scenario = ("--file", str(EXAMPLES / "nested-mzi.json"))
        for expr, expected in (("A", 1.0), ("B", -1.0), ("C", 1.0), ("E", 0.0), ("F", 0.0)):
            code, out, _ = _cli("weak", *scenario, "--expr", expr, "--format", "json")
            assert code == 0
            weak = json.loads(out)
            value = complex(weak["value"]["re"], weak["value"]["im"])
            assert weak["is_zero"] is (expected == 0.0)
            # E's numerator is a rounding residue of the normalization (about
            # 3e-18), not an exact zero; the flag, not the bits, marks it
            assert abs(value - expected) < (1e-15 if expected == 0.0 else TOL)
        pairs = str(EXAMPLES / "nested-mzi-pairs.json")
        code, out, _ = _cli("audit-all", *scenario, "--pairs", pairs, "--format", "json")
        assert code == 0
        verdicts = [
            (entry["kind"], entry["expr_a"], entry["expr_b"], entry.get("case", entry.get("error")))
            for entry in json.loads(out)["pairs"]
        ]
        assert verdicts == [
            ("sum", "A", "B", "III"),
            ("sum", "E", "F", "I"),
            ("sum", "A", "C", "II"),
            ("sum", "E", "C", "I/II-degenerate"),
            ("product", "A", "E", "projectors do not commute; their product is not a projector"),
        ]
        code, out, err = _cli("audit-product", *scenario, "--expr", "A", "--expr2", "E")
        assert (code, out) == (2, "")
        assert "projectors do not commute" in err
        for expr, expected in (("A", 1.0), ("B", 0.2), ("C", 1.0)):
            code, out, _ = _cli("abl", *scenario, "--expr", expr, "--format", "json")
            assert code == 0
            assert json.loads(out)["abl"] == pytest.approx(expected, abs=TOL)
