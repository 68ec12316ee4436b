"""weaklogic benchmark: four seeded workloads, one closed-loop client each.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ``src/weaklogic``
there. Workloads (see ``gen.py`` and ``workloads.py``):

- ``cli-readme``: a fresh ``python -m weaklogic.cli`` process per README
  command line, compared byte for byte with ``data/cli_readme.json``;
- ``audit-pigeon256``: per-qubit ``audit_all`` batches on an 8-qubit
  pigeonhole with basis channels (dim 256);
- ``audit-rotated128``: the 7-qubit pigeonhole in a Haar-random basis with
  a Haar evolution, so every channel is a dense matrix (dim 128);
- ``meter-sweep``: pointer readout, README weak-limit sweep and sequential
  disturbance on catalog scenarios.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (median of several fresh processes), ``op_p50_ms``,
``op_p90_ms`` and ``ops_per_s`` (medians over windows of 100 ops),
``success_ratio`` (the share of ops that neither failed nor hit the known
spurious ``SweepDivergenceError``) and ``peak_rss_mb``. With ``--trace 1``
it reports the per-layer metrics of ``tracing.LAYER_METRICS``. The line
before it records the machine and sample counts; ``.bench_work/`` keeps the
full result and the spans of traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import tracing
import workloads

HERE = Path(__file__).resolve().parent

#: Fresh processes whose set-up is timed; setup_s is their median. Half
#: run before the timed loop and half after it, so that a slow phase of the
#: shared host, which lasts seconds, does not catch them all.
SETUP_SAMPLES = 7
#: Ops per window; op_p90_ms and ops_per_s are medians over windows.
WINDOW_OPS = 100
#: Longest a measuring process may run beyond its measured seconds.
GRACE_S = 120


def _env(root: Path) -> dict:
    """Child environment: the checkout's ``src`` first, BLAS capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        threads = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(threads)
    return env


def _worker(root: Path, env: dict, args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: measuring process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _windows(lat: list[float]) -> list[list[float]]:
    """Consecutive windows of ``WINDOW_OPS`` ops, the last taking the remainder.

    A run shorter than two windows is one window. A full window holds ten
    ops beyond its 90th percentile.
    """
    count = max(1, len(lat) // WINDOW_OPS)
    edges = [k * WINDOW_OPS for k in range(count)] + [len(lat)]
    return [lat[a:b] for a, b in zip(edges, edges[1:])]


def _setup_times(workload: str, root: Path, env: dict, common: list[str], count: int,
                 problems: list[str]) -> list[float]:
    """Set-up times of ``count`` fresh processes."""
    if workload == "cli-readme":
        return [
            workloads.wall_time([sys.executable, "-c", "import weaklogic"], env, root)
            for _ in range(count)
        ]
    times = []
    for _ in range(count):
        extra = _worker(root, env, [*common, "--mode", "setup"], GRACE_S)
        times.append(extra["setup_s"])
        problems += extra["problems"]
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "weaklogic" / "__init__.py").is_file():
        print(f"error: no src/weaklogic package under {root}", file=sys.stderr)
        return 2

    work_dir = root / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs, doc = gen.make_inputs(args.workload, args.seed, root)
    inputs_path = work_dir / f"{tag}-{os.getpid()}-inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    common = ["--workload", args.workload, "--inputs", str(inputs_path)]
    doc_path = None
    if doc is not None:
        doc_path = work_dir / f"{tag}-{os.getpid()}-scenario.json"
        doc_path.write_text(doc, encoding="utf-8")
        common += ["--doc", str(doc_path)]
    env = _env(root)
    timeout = args.seconds + GRACE_S
    try:
        if args.trace:
            spans_path = work_dir / f"{tag}-spans.jsonl"
            res = _worker(root, env, [*common, "--mode", "trace", "--seconds", str(args.seconds),
                                      "--spans", str(spans_path)], timeout)
            metrics = {
                name: _metric(res["layers"][name], unit)
                for name, (unit, _, _) in tracing.LAYER_METRICS.items()
            }
            attempted, failed = res["attempted"], res["failed"]
            samples = {**res["samples"], "spans": res["spans"]}
        else:
            problems = []
            setups = _setup_times(args.workload, root, env, common, SETUP_SAMPLES // 2,
                                  problems)
            res = _worker(root, env, [*common, "--mode", "run", "--seconds", str(args.seconds)],
                          timeout)
            res["problems"] += problems
            if args.workload != "cli-readme":
                setups.append(res["setup_s"])
            setups += _setup_times(args.workload, root, env, common,
                                   SETUP_SAMPLES - len(setups), res["problems"])
            lat = res["latencies"]
            windows = _windows(lat)
            p90s = [statistics.quantiles(w, n=10, method="inclusive")[8] for w in windows]
            attempted, failed = len(lat), res["failed"]
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
                "op_p90_ms": _metric(statistics.median(p90s) * 1e3, "ms"),
                "ops_per_s": _metric(statistics.median(len(w) / sum(w) for w in windows), "1/s"),
                "success_ratio": _metric(1.0 - (failed + res["spurious"]) / attempted,
                                         "ratio"),
                "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            }
            samples = {
                "ops": attempted,
                "windows": len(windows),
                "fewest_beyond_p90_in_a_window": min(
                    sum(x > p for x in w) for w, p in zip(windows, p90s)
                ),
                "spurious": res["spurious"],
                "setup": len(setups),
            }
    finally:
        inputs_path.unlink()
        if doc_path is not None:
            doc_path.unlink()

    problems = res["problems"]
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": res["machine"],
        "samples": samples,
        "problems": len(problems),
        "result": result,
    }
    if args.trace:
        record["moves"] = {name: moves for name, (_, _, moves) in
                           tracing.LAYER_METRICS.items()}
    (work_dir / f"{tag}-result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("# " + json.dumps({k: record[k] for k in ("machine", "seed", "samples", "problems")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
