"""Measuring process of the benchmark: one fresh interpreter per sample.

    python3 perfbench/worker.py --workload W --inputs PATH --mode MODE --seconds S

Run from the root of a checkout with ``src`` on PYTHONPATH; ``run.py``
does both and is the entry point. Modes:

- ``setup``: time from just before ``import weaklogic`` to the first timed
  op (import, loading the workload's scenarios, warm-up ops), then exit;
- ``run``: the same set-up, then one closed-loop client running ops for S
  seconds, each checked against the oracles outside its timed region;
- ``trace``: S seconds in which every other op is traced, then a traced
  probe (the README command lines in-process and the self-tests), CLI
  start-up probes and one pigeonhole audit batch at dim 16, 64 and 256.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import oracles
import pigeon
import workloads

#: Samples per CLI start-up probe.
PROBE_REPEATS = 5
PAIR_PROBE_QUBITS = (4, 6, 8)


def _loop(work, wl, seconds: float, tracer=None) -> dict:
    """Closed loop: the next op starts when the previous one has been checked.

    Runs for ``seconds``, then on to the end of the workload's current pass,
    so that every run holds whole passes of its op mix. With a tracer, every
    other op runs traced; ``traced`` flags which. Checks are never traced.
    An op fails when it raises or its output is wrong; ``spurious`` counts
    the ops that hit the program's known spurious error instead.
    """
    latencies, traced, failed, spurious, problems = [], [], 0, 0, []
    i = 0
    end = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = i
            (tracer.install if i % 2 else tracer.uninstall)()
        t0 = time.perf_counter()
        try:
            outcome = work.op(wl, i)
        except Exception as exc:  # counted as a failed, wrong op
            outcome, problem = None, f"op {i} raised {exc!r}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        traced.append(tracer is not None and i % 2 == 1)
        if tracer is not None:
            tracer.uninstall()
        if outcome is not None:
            problem = work.check(i, outcome)
        if problem:
            failed += 1
            problems.append(problem)
        elif work.spurious(outcome):
            spurious += 1
        i += 1
        if time.perf_counter() >= end and i % work.pass_length == 0:
            return {"latencies": latencies, "traced": traced, "failed": failed,
                    "spurious": spurious, "problems": problems}


def _blas_threads():
    """Threads OpenBLAS reports, asked through its own API; else the env setting."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def machine() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _readme_pass(wl, commands) -> tuple[list[float], list[str]]:
    times, problems = [], []
    for entry in commands:
        t0 = time.perf_counter()
        stdout, code = workloads.run_main(wl, entry["argv"])
        times.append(time.perf_counter() - t0)
        problem = oracles.cli_problem(stdout, code, entry)
        if problem:
            problems.append(f"in-process {' '.join(entry['argv'])}: {problem}")
    return times, problems


def _pair_probe(wl, n: int) -> tuple[float, list[str]]:
    """Median ms per pair of one full pigeonhole audit batch on n qubits."""
    s = wl.load_scenario(json.dumps(pigeon.document(n)))
    pairs = pigeon.audit_pairs(n)
    times, problems = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        report = wl.audit_all(s, pairs)
        times.append((time.perf_counter() - t0) / len(pairs))
        for entry, (_, _, kind) in zip(report.entries, pairs):
            case = entry.verdict and entry.verdict.case.value
            if case != pigeon.EXPECTED_CASE[kind]:
                problems.append(f"pigeonhole{n} {entry.expr_a} | {entry.expr_b}: case {case}")
    return statistics.median(times) * 1e3, problems


def _trace(work, wl, tracer, seconds: float, spans_path: str) -> dict:
    import selftest

    commands = json.loads(workloads.README_ORACLE.read_text(encoding="utf-8"))
    res = _loop(work, wl, seconds, tracer)
    tracer.install()
    tracer.op = "probe"
    _, problems = _readme_pass(wl, commands)
    problems += selftest.problems(wl)
    tracer.uninstall()
    layers = tracer.layer_metrics()
    main_times, more = _readme_pass(wl, commands)
    problems += more
    layers["cli.main_ms"] = statistics.median(main_times) * 1e3
    env, cwd = dict(os.environ), Path.cwd()
    interp = statistics.median(
        workloads.wall_time([sys.executable, "-c", "pass"], env, cwd) for _ in range(PROBE_REPEATS)
    )
    imported = statistics.median(
        workloads.wall_time([sys.executable, "-c", "import weaklogic"], env, cwd)
        for _ in range(PROBE_REPEATS)
    )
    layers["cli.interp_start_ms"] = interp * 1e3
    layers["cli.import_ms"] = (imported - interp) * 1e3
    for n in PAIR_PROBE_QUBITS:
        layers[f"audit.pair_ms.d{2**n}"], more = _pair_probe(wl, n)
        problems += more
    on = [t for t, flag in zip(res["latencies"], res["traced"]) if flag]
    off = [t for t, flag in zip(res["latencies"], res["traced"]) if not flag]
    layers["trace.overhead_ms"] = (statistics.median(on) - statistics.median(off)) * 1e3
    tracer.write(spans_path)
    return {
        "layers": layers,
        "attempted": len(res["latencies"]),
        "failed": res["failed"],
        "problems": res["problems"] + problems,
        "samples": {"untraced": len(off), "traced": len(on)},
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--doc")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    root = Path.cwd()
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    doc_text = Path(args.doc).read_text(encoding="utf-8") if args.doc else None
    work = workloads.make(args.workload, inputs, doc_text, dict(os.environ), root)

    t0 = time.perf_counter()
    import weaklogic as wl

    tracer = None
    if args.mode == "trace":
        import tracing
        import weaklogic.cli  # noqa: F401  (traced along with the other layers)

        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = "setup"
    work.setup(wl)
    problems = [work.check(i, work.op(wl, i)) for i in range(work.warmup_ops)]
    setup_s = time.perf_counter() - t0

    src = (root / "src").resolve()
    if src not in Path(wl.__file__).resolve().parents:
        print(f"error: imported {wl.__file__}, not the package under {src}", file=sys.stderr)
        return 3
    problems = [p for p in problems if p]
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "problems": problems}))
        return 0
    if args.mode == "trace":
        if isinstance(work, workloads.Cli):
            work.in_process = True
        result = _trace(work, wl, tracer, args.seconds, args.spans)
        result["problems"] = problems + result["problems"]
        result["machine"] = machine()
        print(json.dumps(result))
        return 0

    res = _loop(work, wl, args.seconds)
    who = resource.RUSAGE_CHILDREN if isinstance(work, workloads.Cli) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    import selftest

    print(json.dumps({
        "setup_s": setup_s,
        "latencies": res["latencies"],
        "failed": res["failed"],
        "spurious": res["spurious"],
        "problems": problems + res["problems"] + selftest.problems(wl),
        "peak_rss_mb": peak_rss_mb,
        "machine": machine(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
