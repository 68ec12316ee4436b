"""Independent checks of the program's outputs, in plain Python.

Nothing here imports ``weaklogic`` or the repository's tests: the expected
weak values and split amplitudes come from raw numpy arithmetic in
``gen.py``, and the meter checks use the closed-form moments of a Gaussian
pointer. Each ``*_problem`` function returns ``None`` when the output is
right and a one-line description otherwise; ``selftest.py`` shows that each
of them rejects a perturbed output.
"""

from __future__ import annotations

import math

#: Weak values, probabilities and disturbance against raw arithmetic.
VALUE_TOL = 1e-9
#: Pointer moments against their closed form (acceptance criterion 11).
POINTER_TOL = 1e-9
#: Weak-limit extrapolation against the exact weak value (criterion 8).
ESTIMATE_TOL = 1e-6


def pointer_moments(alpha: complex, beta: complex, sigma: float, g: float):
    """Postselected (mean_q, mean_p, success weight) of a Gaussian pointer.

    The pointer state is alpha phi(q) + beta phi(q - g) with Var(Q) = sigma^2.
    The overlap of the two packets is k = exp(-g^2 / (8 sigma^2)).
    """
    k = math.exp(-g * g / (8.0 * sigma * sigma))
    cross = alpha.conjugate() * beta
    weight = abs(alpha) ** 2 + abs(beta) ** 2 + 2.0 * k * cross.real
    mean_q = g * (abs(beta) ** 2 + k * cross.real) / weight
    mean_p = g * k * cross.imag / (2.0 * sigma * sigma * weight)
    return mean_q, mean_p, weight


def disturbance(coeff, solo, sigma: float, g: float) -> float:
    """Closed form of ``sequential_disturbance``.

    ``coeff[j][k]`` is <bra| S2_k S1_j |pre> and ``solo[k]`` is
    <bra| S2_k |pre>, where S_0 = 1 - P and S_1 = P. Packet a is the pointer
    shifted by a*g; packets a and b overlap by exp(-(a-b)^2 g^2 / (8 sigma^2))
    and their q-moment is that overlap times (a+b) g / 2.
    """

    def overlap(a, b):
        return math.exp(-((a - b) * g) ** 2 / (8.0 * sigma * sigma))

    def q_moment(a, b):
        return overlap(a, b) * (a + b) * g / 2.0

    idx = (0, 1)
    weight = with_first = 0.0
    for J in idx:
        for K in idx:
            for j in idx:
                for k in idx:
                    c = (coeff[J][K].conjugate() * coeff[j][k]).real
                    weight += c * overlap(J, j) * overlap(K, k)
                    with_first += c * overlap(J, j) * q_moment(K, k)
    weight0 = without = 0.0
    for K in idx:
        for k in idx:
            c = (solo[K].conjugate() * solo[k]).real
            weight0 += c * overlap(K, k)
            without += c * q_moment(K, k)
    return abs(with_first / weight - without / weight0) / g


def value_problem(what: str, got: complex, want: complex, tol: float = VALUE_TOL):
    if abs(got - want) <= tol:
        return None
    return f"{what}: got {got!r}, expected {want!r} (tolerance {tol:g})"


def audit_problem(entry, expected_case: str, expected_values):
    """``entry`` is (error, case, (w_a, w_b, w_combined)) from one audit pair."""
    error, case, values = entry
    if error is not None:
        return f"audit pair raised: {error}"
    if case != expected_case:
        return f"audit case {case}, expected {expected_case}"
    for which, got, want in zip(("a", "b", "combined"), values, expected_values):
        problem = value_problem(f"weak value {which}", got, want)
        if problem:
            return problem
    return None


def pointer_problem(stats, alpha: complex, beta: complex, sigma: float, g: float):
    """``stats`` is (mean_q, mean_p, success_prob) from ``measure_pointer``."""
    want = pointer_moments(alpha, beta, sigma, g)
    for name, got, exact in zip(("mean_q", "mean_p", "success_prob"), stats, want):
        problem = value_problem(name, got, exact, POINTER_TOL)
        if problem:
            return problem
    return None


def estimate_problem(estimate: complex, exact: complex):
    return value_problem("weak-limit estimate", estimate, exact, ESTIMATE_TOL)


def divergence_problem(readouts, sigma: float, exact: complex):
    """Whether a sweep the program called divergent really fails to converge.

    ``readouts`` holds (g, mean_q, mean_p) at the sweep's two smallest
    couplings. Each gives the estimate mean_q / g + i 2 sigma^2 mean_p / g;
    their linear extrapolation to g = 0 must meet the exact weak value
    within ``ESTIMATE_TOL``, as a returned estimate must.
    """
    (g1, q1, p1), (g2, q2, p2) = readouts
    e1 = q1 / g1 + 1j * (2.0 * sigma * sigma * p1 / g1)
    e2 = q2 / g2 + 1j * (2.0 * sigma * sigma * p2 / g2)
    limit = (g1 * e2 - g2 * e1) / (g1 - g2)
    problem = value_problem("extrapolated sweep readouts", limit, exact, ESTIMATE_TOL)
    return problem and f"SweepDivergenceError on a sweep whose readouts diverge: {problem}"


def disturbance_problem(value: float, coeff, solo, sigma: float, g: float):
    return value_problem("disturbance", value, disturbance(coeff, solo, sigma, g))


def cli_problem(stdout: bytes, code: int, expected: dict):
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if stdout != expected["stdout"].encode("utf-8"):
        return "stdout differs from the recorded bytes"
    return None
