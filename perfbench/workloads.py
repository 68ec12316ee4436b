"""The four workloads as seen by the measuring process.

Each workload loads its scenarios through the public loaders in ``setup``,
runs one op per ``op`` call through the package's public functions, and
judges the op's output in ``check``, outside the timed region. Calls go
through attributes of the ``weaklogic`` modules at call time, so that the
tracer's wrappers see them.

This module is imported before the timed import of ``weaklogic`` and must
not import numpy.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import time
from pathlib import Path

import oracles
import pigeon

#: Recorded stdout and exit code of the README command lines.
README_ORACLE = Path(__file__).resolve().parent / "data" / "cli_readme.json"


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def wall_time(argv, env: dict, cwd) -> float:
    """Wall time of one child process, which must exit with code 0."""
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


class _Workload:
    #: Untimed ops run before the first timed one, from the start of the sequence.
    warmup_ops = 0
    #: Ops in one pass of the op mix; a run measures whole passes.
    pass_length = 1

    @staticmethod
    def spurious(outcome) -> bool:
        """Whether the op hit the program's known spurious error (checked in ``check``)."""
        return False


class Audit(_Workload):
    """``audit-pigeon256`` and ``audit-rotated128``: one op is one qubit's batch.

    The batch holds the sum pair ``Lj*Lk | Rj*Rk`` and the product pair
    ``Lj | Lk`` for each partner k of the qubit. On the rotated scenario it
    is followed by ``abl_prob``, ``cond_prob_post``, ``born_prob`` and
    ``weak_value_expr`` on one ``Lj*Lk`` product.
    """

    warmup_ops = 1

    def __init__(self, inputs: dict, doc_text: str):
        self.batches = inputs["batches"]
        self.sequence = inputs["sequence"]
        self.doc_text = doc_text
        self.scenario = None

    def setup(self, wl) -> None:
        self.scenario = wl.load_scenario(self.doc_text)

    def op(self, wl, i: int):
        s = self.scenario
        batch = self.batches[self.sequence[i % len(self.sequence)]]
        report = wl.audit_all(s, batch["pairs"])
        strong = batch.get("strong")
        if strong is None:
            return batch, report, None
        p = wl.evaluate_text(strong["expr"], s.channels)
        values = (
            wl.abl_prob(s, p),
            wl.cond_prob_post(s, p),
            wl.born_prob(s.pre_state, p),
            wl.weak_value_expr(s, strong["expr"]).value,
        )
        return batch, report, values

    def check(self, i: int, outcome):
        batch, report, values = outcome
        if len(report.entries) != len(batch["pairs"]):
            return f"{len(report.entries)} audit entries for {len(batch['pairs'])} pairs"
        for entry, (_, _, kind), expected in zip(
            report.entries, batch["pairs"], batch["expected"]
        ):
            verdict = entry.verdict
            got = (
                entry.error,
                verdict and verdict.case.value,
                verdict and tuple(w.value for w in verdict.weak_values),
            )
            problem = oracles.audit_problem(
                got, pigeon.EXPECTED_CASE[kind], [_c(w) for w in expected]
            )
            if problem:
                return f"{entry.expr_a} | {entry.expr_b}: {problem}"
        if values is not None:
            strong = batch["strong"]
            wants = (strong["abl"], strong["cond_post"], strong["born"], _c(strong["weak"]))
            for what, got, want in zip(("abl", "cond_post", "born", "weak"), values, wants):
                problem = oracles.value_problem(f"{what} of {strong['expr']}", got, want)
                if problem:
                    return problem
        return None


class Meter(_Workload):
    """``meter-sweep``: one op is one meter job on a catalog scenario.

    A job couples a channel or README product at spread sigma and coupling
    g, runs the README weak-limit sweep, and measures the sequential
    disturbance of a commuting channel pair.

    The seed's ``weak_limit_estimate`` raises a spurious
    ``SweepDivergenceError`` on ~14% of these sweeps: its absolute 1e-12
    cut trips on rounding noise amplified by 1/g. Such an op completes and
    counts against ``success_ratio``, not as failed, once ``check`` has
    confirmed that the sweep converges: the readouts at the two smallest
    couplings must extrapolate to the exact weak value.
    """

    warmup_ops = 3

    def __init__(self, inputs: dict):
        self.names = inputs["scenarios"]
        self.candidates = inputs["candidates"]
        self.pairs = inputs["pairs"]
        self.jobs = inputs["jobs"]
        self.sweep = inputs["sweep"]
        self.scenarios = {}
        self.wl = None

    def setup(self, wl) -> None:
        self.wl = wl
        self.scenarios = {name: wl.catalog(name) for name in self.names}

    def op(self, wl, i: int):
        c, sigma, g, pair = self.jobs[i % len(self.jobs)]
        cand = self.candidates[c]
        s = self.scenarios[cand["scenario"]]
        p = wl.evaluate_text(cand["expr"], s.channels)
        stats = wl.measure_pointer(s, p, wl.MeterConfig(sigma=sigma, g=g))
        try:
            estimate = wl.weak_limit_estimate(s, p, sigma, self.sweep)
        except wl.SweepDivergenceError as exc:
            estimate = exc
        ab = self.pairs[cand["scenario"]][pair]
        moved = wl.sequential_disturbance(s, s.channel(ab["a"]), s.channel(ab["b"]), sigma, g)
        return stats, estimate, moved

    def check(self, i: int, outcome):
        c, sigma, g, pair = self.jobs[i % len(self.jobs)]
        cand = self.candidates[c]
        alpha, beta = _c(cand["alpha"]), _c(cand["beta"])
        stats, estimate, moved = outcome
        what = f"{cand['scenario']} {cand['expr']} sigma={sigma!r} g={g!r}"
        problem = oracles.pointer_problem(
            (stats.mean_q, stats.mean_p, stats.success_prob), alpha, beta, sigma, g
        )
        exact = beta / (alpha + beta)
        if problem is None and isinstance(estimate, Exception):
            problem = self._divergence_problem(cand, sigma, exact)
        elif problem is None:
            problem = oracles.estimate_problem(estimate, exact)
        if problem is None:
            ab = self.pairs[cand["scenario"]][pair]
            coeff = [[_c(x) for x in row] for row in ab["coeff"]]
            problem = oracles.disturbance_problem(
                moved, coeff, [_c(x) for x in ab["solo"]], sigma, g
            )
        return problem and f"{what}: {problem}"

    def _divergence_problem(self, cand: dict, sigma: float, exact: complex):
        """Whether a raised ``SweepDivergenceError`` hides a wrong readout."""
        wl = self.wl
        s = self.scenarios[cand["scenario"]]
        p = wl.evaluate_text(cand["expr"], s.channels)
        readouts = []
        for g in self.sweep[-2:]:
            stats = wl.measure_pointer(s, p, wl.MeterConfig(sigma=sigma, g=g))
            readouts.append((g, stats.mean_q, stats.mean_p))
        return oracles.divergence_problem(readouts, sigma, exact)

    @staticmethod
    def spurious(outcome) -> bool:
        return isinstance(outcome[1], Exception)


class Cli(_Workload):
    """``cli-readme``: one op is one README command line.

    In an untraced run it is a fresh ``python -m weaklogic.cli`` process;
    in a traced run, whose wrappers cannot reach into other processes, it
    is ``weaklogic.cli.main(argv)`` in-process with stdout captured.
    """

    warmup_ops = 1

    def __init__(self, inputs: dict, env: dict, cwd):
        self.commands = inputs["commands"]
        self.sequence = inputs["sequence"]
        self.pass_length = len(self.commands)
        self.env = env
        self.cwd = cwd
        self.in_process = False

    def setup(self, wl) -> None:
        """Nothing to load: each command line loads its own scenario."""

    def command(self, i: int) -> dict:
        return self.commands[self.sequence[i % len(self.sequence)]]

    def op(self, wl, i: int):
        argv = self.command(i)["argv"]
        if self.in_process:
            return run_main(wl, argv)
        proc = subprocess.run(
            [sys.executable, "-m", "weaklogic.cli", *argv],
            capture_output=True, env=self.env, cwd=self.cwd, timeout=60, check=False,
        )
        return proc.stdout, proc.returncode

    def check(self, i: int, outcome):
        stdout, code = outcome
        problem = oracles.cli_problem(stdout, code, self.command(i))
        return problem and f"{' '.join(self.command(i)['argv'])}: {problem}"


def run_main(wl, argv):
    """``weaklogic.cli.main(argv)`` with its stdout captured as bytes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wl.cli.main(list(argv))
    return buf.getvalue().encode("utf-8"), code


def make(name: str, inputs: dict, doc_text, env: dict, cwd):
    if name == "cli-readme":
        return Cli(inputs, env, cwd)
    if name == "meter-sweep":
        return Meter(inputs)
    return Audit(inputs, doc_text)
