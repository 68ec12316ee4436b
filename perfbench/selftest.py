"""Self-tests of the benchmark's generator and oracles.

    PYTHONPATH=src python3 perfbench/selftest.py

1. The generated 2-qubit pigeonhole reproduces the catalog's
   ``pigeonhole2``: the same weak values of channels and products, and the
   same audit verdicts on the catalog's default pairs.
2. Every oracle check accepts the program's real output and rejects the
   same output perturbed past its tolerance.

Every measuring process runs these after its timed loop; a problem makes
the run's ``correct`` false.
"""

from __future__ import annotations

import json
import sys

import oracles
import pigeon

_SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)


def _split_coefficients(first: str, second: str):
    """(coeff, solo) of two pigeonhole2 channels by plain sums over basis states."""
    labs = pigeon.labels(2)
    pre, post = pigeon.amplitudes(2)
    norm = (sum(abs(z) ** 2 for z in pre) * sum(abs(z) ** 2 for z in post)) ** 0.5

    def amp(keep):
        return sum(post[x].conjugate() * pre[x] for x, lab in enumerate(labs) if keep(lab)) / norm

    coeff = [
        [amp(lambda lab: pigeon.in_channel(lab, first) == bool(j)
             and pigeon.in_channel(lab, second) == bool(k)) for k in (0, 1)]
        for j in (0, 1)
    ]
    solo = [amp(lambda lab: pigeon.in_channel(lab, second) == bool(k)) for k in (0, 1)]
    return coeff, solo


def _must_reject(what: str, problem) -> list[str]:
    return [] if problem else [f"oracle accepted a perturbed {what}"]


def _must_accept(what: str, problem) -> list[str]:
    return [f"oracle rejected the real {what}: {problem}"] if problem else []


def problems(wl) -> list[str]:
    out = []
    generated = wl.load_scenario(json.dumps(pigeon.document(2)))
    cat = wl.catalog("pigeonhole2")
    for expr in ("L1", "R1", "L2", "R2", "L1*L2", "R1*R2", "L1*L2 + R1*R2", "L1*R2"):
        a, b = wl.weak_value_expr(generated, expr), wl.weak_value_expr(cat, expr)
        if abs(a.value - b.value) > 1e-12 or a.is_zero != b.is_zero:
            out.append(f"generated pigeonhole2 weak value of {expr}: {a.value} vs {b.value}")
    pairs = wl.default_audit_pairs("pigeonhole2")
    mine, theirs = wl.audit_all(generated, pairs), wl.audit_all(cat, pairs)
    for ea, eb in zip(mine.entries, theirs.entries):
        if ea.verdict.case != eb.verdict.case or ea.verdict.case.value != pigeon.EXPECTED_CASE[ea.kind]:
            out.append(f"generated pigeonhole2 verdict {ea.verdict.case} vs {eb.verdict.case}")

    # Audit: weak values of the pigeonhole pairs in closed form.
    sum_entry, product_entry = mine.entries
    expected = {"sum": (0.5j, -0.5j, 0j), "product": ((1 + 1j) / 2, (1 + 1j) / 2, 0.5j)}
    for entry in (sum_entry, product_entry):
        values = tuple(w.value for w in entry.verdict.weak_values)
        got = (None, entry.verdict.case.value, values)
        want = (pigeon.EXPECTED_CASE[entry.kind], expected[entry.kind])
        out += _must_accept(f"{entry.kind} audit", oracles.audit_problem(got, *want))
        bent = (values[0], values[1] + 1e-7, values[2])
        out += _must_reject("weak value", oracles.audit_problem((None, got[1], bent), *want))
        out += _must_reject("case", oracles.audit_problem((None, "I", values), *want))
        out += _must_reject("audit error", oracles.audit_problem(("boom", got[1], values), *want))
        out += _must_reject(
            "probability", oracles.value_problem("p", abs(values[0]) + 1e-8, abs(values[0]))
        )

    # Meter on pigeonhole2 with L1*L2: beta = 1/4, alpha + beta = -i/2.
    p = wl.evaluate_text("L1*L2", cat.channels)
    alpha, beta = -0.5j - 0.25, 0.25
    stats = wl.measure_pointer(cat, p, wl.MeterConfig(sigma=1.0, g=0.3))
    real = (stats.mean_q, stats.mean_p, stats.success_prob)
    out += _must_accept("pointer", oracles.pointer_problem(real, alpha, beta, 1.0, 0.3))
    for k in range(3):
        bent = tuple(v + 1e-8 * (i == k) for i, v in enumerate(real))
        out += _must_reject("pointer moment", oracles.pointer_problem(bent, alpha, beta, 1.0, 0.3))
    estimate = wl.weak_limit_estimate(cat, p, 1.0, _SWEEP)
    exact = beta / (alpha + beta)
    out += _must_accept("estimate", oracles.estimate_problem(estimate, exact))
    out += _must_reject("estimate", oracles.estimate_problem(estimate + 2e-6, exact))
    readouts = []
    for g in _SWEEP[-2:]:
        stats = wl.measure_pointer(cat, p, wl.MeterConfig(sigma=1.0, g=g))
        readouts.append((g, stats.mean_q, stats.mean_p))
    out += _must_accept("sweep readouts", oracles.divergence_problem(readouts, 1.0, exact))
    for k in (1, 2):
        bent = [readouts[0], tuple(v + 1e-9 * (i == k) for i, v in enumerate(readouts[1]))]
        out += _must_reject("sweep readout", oracles.divergence_problem(bent, 1.0, exact))
    coeff, solo = _split_coefficients("L1", "L2")
    moved = wl.sequential_disturbance(cat, cat.channel("L1"), cat.channel("L2"), 1.0, 0.01)
    out += _must_accept("disturbance", oracles.disturbance_problem(moved, coeff, solo, 1.0, 0.01))
    out += _must_reject(
        "disturbance", oracles.disturbance_problem(moved + 1e-8, coeff, solo, 1.0, 0.01)
    )

    # CLI bytes.
    entry = {"exit": 0, "stdout": "weak  0.5+0.5i\n"}
    out += _must_accept("CLI output", oracles.cli_problem(b"weak  0.5+0.5i\n", 0, entry))
    out += _must_reject("CLI byte", oracles.cli_problem(b"weak  0.5+0.5j\n", 0, entry))
    out += _must_reject("CLI exit code", oracles.cli_problem(b"weak  0.5+0.5i\n", 2, entry))
    return out


if __name__ == "__main__":
    import weaklogic

    found = problems(weaklogic)
    for line in found:
        print(line)
    print("selftest:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
