"""Differential check of the CLI and ``audit_all`` against another revision.

    python tests/differential.py --against REV [--files N] [--seed S] [--expect CMD[:FIELD]]...
                                 [--env VAR=VALUE]...

The script checks REV out with ``git worktree add --detach`` into a
temporary directory (local git only) and removes it on exit. It writes N
seeded scenario documents and runs the same jobs on this tree and on REV,
in one subprocess per tree, both at once:

- every CLI command, in table and JSON form, on each document, plus
  ``list`` and each catalog scenario;
- the parser once per argv, as written: the top-level ``--help`` and that
  of each command, and usage errors (a missing or unknown flag value, an
  unknown command, both or neither of ``--g``/``--sweep`` and of
  ``--scenario``/``--file``, and missing files);
- each of ``BAD_EXPRESSIONS`` on ``three-box``, once as ``weak --expr`` and
  once as the second operand of ``audit-sum``;
- in-process on each document, loaded once: ``audit_all`` over the pairs
  of the golden corpus and a few more, ``audit_all`` again over the same
  pairs in reversed order, and ``weak_value_expr`` of each distinct operand
  text.

Job by job it compares stdout, stderr, exit code and warnings (category and
message) of each CLI run, and for each document the reports of both
``audit_all`` calls and the weak values, with the bits of every weak value,
numerator and denominator. It prints this tree's
runs by command and exit code, the differences by command and field, and
the first differences. It exits 1 if a difference is not named by an
``--expect``: ``CMD`` names every field of a command, ``CMD:FIELD`` one of
``stdout``, ``stderr``, ``exit`` and ``warnings``, or for ``audit_all``
``report``, ``repeat``, ``weak`` and ``warnings``. Each ``--env VAR=VALUE``
sets a variable for this tree's worker alone, so that
``--against HEAD --env OPENBLAS_CORETYPE=Haswell`` compares the tree with
itself under another BLAS kernel.

The documents cycle through the kinds of ``corpus.make_document`` (basis,
rotated and signed-zero channels, with or without evolution) and five more
families, and on a period of their own through ``OVERLAPS``, so that every
20 documents ask for 4 near-pole and 4 lost postselections. A document that
asks for one is of a kind in ``LOADING_KINDS`` and has at least two
dimensions, so that it loads and reaches its postselection. Only a
``near-zero`` document that asks for neither sets its own postselection:

- ``perturbed``: rotated channels, each with a Hermitian perturbation of
  size 1e-14 to 1e-9, around the tolerance of the projector proof;
- ``noncommuting``: A and B rank-1 projectors onto random vectors;
- ``rank1``: A, B and C each of rank 1 in a random basis;
- ``near-zero``: the postselection set so that the weak-value numerator
  of A is 1e-13 to 1e-10, around the tolerance of a vanishing weak value;
- ``overflow``: a state whose norm overflows, or one document number
  that is not finite (``1e400``, ``Infinity`` or ``NaN``).

Every document also meets meter couplings whose readout overflows.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

#: Differences printed in full.
SHOWN = 10

KINDS = (
    "basis", "rotated", "signed-zero", "perturbed", "noncommuting", "rank1", "near-zero", "overflow"
)

#: The kinds whose documents load, cycled in place of ``KINDS`` where a
#: document asks for a near-pole or lost postselection.
LOADING_KINDS = tuple(k for k in KINDS if k not in ("perturbed", "overflow"))

#: Postselections of ``corpus.make_document``, cycled beside the kinds: 5 is
#: prime to 6, so each loading kind meets each slot in 30 documents.
OVERLAPS = (None, None, None, "near-pole", "lost")

#: Pairs of ``audit-all --pairs`` and of the in-process ``audit_all``,
#: after the golden corpus's own.
EXTRA_PAIRS = [
    {"a": "A*B", "b": "C", "kind": "sum"},
    {"a": "A*B*A", "b": "A", "kind": "product"},
    {"a": "A*B", "b": "B", "kind": "product"},
    {"a": "A + B + C", "b": "U", "kind": "product"},
    {"a": "U*W", "b": "A", "kind": "sum"},
    {"a": "W", "b": "W", "kind": "product"},
]

#: Per-document runs, each made in table and JSON form.
DOC_RUNS = [
    ["show"],
    *(["weak", "--expr", e] for e in ("A", "A + B", "A*U", "A + U", "W", "A*B")),
    *(["strong", "--expr", e] for e in ("A", "A + B", "U", "A*B", "A*U")),
    *(["abl", "--expr", e] for e in ("A", "C", "A*U", "W")),
    *(["audit-sum", "--expr", a, "--expr2", b] for a, b in (("A", "B"), ("A", "U"), ("A*B", "C"))),
    *(
        ["audit-product", "--expr", a, "--expr2", b]
        for a, b in (("A", "U"), ("A", "B"), ("U", "W"), ("A*B", "B"))
    ),
    ["audit-all"],
    ["meter", "--expr", "A", "--g", "0.1"],
    ["meter", "--expr", "U", "--sigma", "2", "--g", "0.5"],
    ["meter", "--expr", "A + U", "--g", "0.1"],
    ["meter", "--expr", "A", "--sweep", "1e-1,1e-2,1e-3"],
    ["meter", "--expr", "U", "--sweep", "1e-1,1e-2,1e-3,1e-4"],
    # couplings whose readout over- or underflows
    ["meter", "--expr", "A", "--sigma", "1e200", "--g", "0.1"],
    ["meter", "--expr", "A", "--g", "1e307"],
    ["meter", "--expr", "A", "--sigma", "1e-200", "--g", "0"],
    ["meter", "--expr", "A", "--sigma", "1e200", "--sweep", "1e-1,1e-2"],
]


#: Malformed expressions, an unknown channel name, and the nesting limit:
#: 50 nested parentheses parse, 51 fail at the 51st '('.
BAD_EXPRESSIONS = (
    "", "   ", "A +", "+A", "A B", "(A", "A)", "()", "A $ B", "A*(B+", "Nowhere",
    *("(" * depth + "A" + ")" * depth for depth in (50, 51)),
)


#: Every CLI command, each of whose ``--help`` is a run.
COMMANDS = (
    "list", "show", "strong", "abl", "weak", "audit-sum", "audit-product", "audit-all", "meter"
)


def _parser_runs(missing: str) -> list[list[str]]:
    """Help and usage-error argvs, run as written; ``missing`` names no file."""
    three_box = ["--scenario", "three-box"]
    return [
        ["--help"],
        *([cmd, "--help"] for cmd in COMMANDS),
        ["frobnicate"],
        ["weak", *three_box],
        ["audit-sum", *three_box, "--expr", "A"],
        ["show", *three_box, "--format", "xml"],
        ["meter", *three_box, "--expr", "A", "--sigma", "wide", "--g", "0.1"],
        ["meter", *three_box, "--expr", "A", "--g", "0.1", "--sweep", "1e-1,1e-2"],
        ["meter", *three_box, "--expr", "A"],
        ["show", *three_box, "--file", missing],
        ["show"],
        ["show", "--file", missing],
        ["audit-all", *three_box, "--pairs", missing],
        *(["weak", *three_box, "--expr", text] for text in BAD_EXPRESSIONS),
        *(["audit-sum", *three_box, "--expr", "A", "--expr2", text] for text in BAD_EXPRESSIONS),
    ]


def _pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _matrix(m) -> dict:
    return {"matrix": [_pairs(row) for row in m]}


def _document(kind: str, overlap: str | None, seed: int, rng) -> str:
    """The text of one document of ``kind`` and ``overlap``; ``rng`` draws
    its shape."""
    import numpy as np

    from corpus import make_document
    from helpers import random_unit, random_unitary

    # a one-dimensional postselection is the preselection's, up to phase:
    # never near the pole, and lost only as the zero vector, which fails to load
    dim = int(rng.integers(2 if overlap else 1, 7))
    evolution = bool(rng.integers(2))
    base = kind if kind in ("basis", "signed-zero") else "rotated"
    with np.errstate(invalid="ignore"):  # a lost postselection of a zero vector
        doc = make_document(seed, dim, base, evolution, overlap)
    draw = np.random.default_rng(seed + 1)
    channels = doc["channels"]
    if kind == "perturbed":
        for spec in channels.values():
            h = draw.normal(size=(dim, dim)) + 1j * draw.normal(size=(dim, dim))
            h = (h + h.conj().T) / np.abs(h + h.conj().T).max()
            m = np.array(spec["matrix"]).view(complex)[..., 0]
            spec["matrix"] = _matrix(m + 10 ** draw.uniform(-14, -9) * h)["matrix"]
    elif kind == "noncommuting":
        for name in ("A", "B"):
            v = random_unit(draw, dim)
            channels[name] = _matrix(np.outer(v, v.conj()))
    elif kind == "rank1":
        v = random_unitary(draw, dim)
        cols = {"A": [0], "B": [1], "C": [2], "U": [0, 2]}
        for name, idx in cols.items():
            c = v[:, [i for i in idx if i < dim]]
            channels[name] = _matrix(c @ c.conj().T)
    elif kind == "near-zero" and dim > 1 and overlap is None:
        # the bra orthogonal to A|pre>, then tilted towards it by delta
        a = np.array(channels["A"]["matrix"]).view(complex)[..., 0]
        pre = np.array(doc["pre"]).view(complex)[:, 0]
        ket = a @ pre / np.linalg.norm(pre)
        if np.linalg.norm(ket) > 1e-3:
            ket /= np.linalg.norm(ket)
            bra = random_unit(draw, dim)
            bra -= np.vdot(ket, bra) * ket
            bra = bra / np.linalg.norm(bra) + 10 ** draw.uniform(-13, -10) * ket
            u = np.array(doc["evolution"]).view(complex)[..., 0] if evolution else np.eye(dim)
            doc["post"] = _pairs(u @ bra)
    text = json.dumps(doc)
    if kind == "overflow":
        if draw.random() < 0.3:
            doc["pre"] = [[1e308 * re, im] for re, im in doc["pre"]]
            return json.dumps(doc)
        field = draw.choice(["pre", "post", "channels"] + ["evolution"] * evolution)
        if field == "channels":
            name = sorted(channels)[int(draw.integers(len(channels)))]
            if "basis" in channels[name]:
                channels[name] = _matrix(np.eye(dim))
            entries = channels[name]["matrix"]
        else:
            entries = doc[field]
        while isinstance(entries[0][0], list):
            entries = entries[int(draw.integers(len(entries)))]
        entries[int(draw.integers(len(entries)))][int(draw.integers(2))] = "__NONFINITE__"
        number = ["1e400", "Infinity", "NaN"][int(draw.integers(3))]
        text = json.dumps(doc).replace('"__NONFINITE__"', number)
    return text


def _jobs(files: int, seed: int, where: Path) -> dict:
    """Write the documents and the pair list under ``where``; the jobs."""
    import numpy as np

    from corpus import PAIR_LIST
    from weaklogic import CATALOG_NAMES, catalog

    pairs = PAIR_LIST + EXTRA_PAIRS
    pairs_path = where / "pairs.json"
    pairs_path.write_text(json.dumps(pairs), encoding="utf-8")
    runs = [["list"]]
    for name in CATALOG_NAMES:
        scenario = ["--scenario", name]
        runs += [["show", *scenario], ["audit-all", *scenario]]
        for channel in catalog(name).channels:
            expr = ["--expr", channel]
            runs += [[cmd, *scenario, *expr] for cmd in ("weak", "strong", "abl")]
            runs.append(["meter", *scenario, *expr, "--g", "0.1"])
    audits = []
    rng = np.random.default_rng(seed)
    for i in range(files):
        overlap = OVERLAPS[i % len(OVERLAPS)]
        kinds = KINDS if overlap is None else LOADING_KINDS
        kind = kinds[i % len(kinds)]
        path = where / f"d{i:03d}-{kind}.json"
        path.write_text(_document(kind, overlap, int(rng.integers(2**31)), rng), encoding="utf-8")
        audits.append([str(path), [[p["a"], p["b"], p["kind"]] for p in pairs]])
        for cmd, *rest in DOC_RUNS + [["audit-all", "--pairs", str(pairs_path)]]:
            runs.append([cmd, "--file", str(path), *rest])
    cli = [[*argv, "--format", fmt] for argv in runs for fmt in ("table", "json")]
    cli += _parser_runs(str(where / "missing.json"))
    return {"cli": cli, "audit": audits}


def _caught(caught) -> list[str]:
    return [f"{w.category.__name__}: {w.message}" for w in caught]


def _hex(z) -> list[str]:
    return [float(z.real).hex(), float(z.imag).hex()]


def _run_cli(argv) -> dict:
    from weaklogic.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # an escaped exception is an outcome to compare
                code = f"raised {type(exc).__name__}: {exc}"
    return {
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "exit": code,
        "warnings": _caught(caught),
    }


def _attempt(call):
    """What ``call()`` returns, or the exception it raises as text."""
    try:
        return call()
    except Exception as exc:  # an escaped exception is an outcome to compare
        return f"raised {type(exc).__name__}: {exc}"


def _weak_bits(w) -> list:
    return [*_hex(w.value), *_hex(w.numerator), *_hex(w.denominator), w.is_zero, w.near_pole]


def _texts(pairs) -> list[str]:
    """The distinct operand texts of audit pairs, in order."""
    return list(dict.fromkeys(text for a, b, _ in pairs for text in (a, b)))


def _entries(report) -> list:
    return [
        entry.error if entry.verdict is None else [
            entry.verdict.case.value,
            entry.verdict.consistent,
            [_weak_bits(w) for w in entry.verdict.weak_values],
        ]
        for entry in report.entries
    ]


def _run_audit(path, pairs) -> dict:
    """One document loaded once, then audited twice, the second time in
    reversed pair order, and the weak value of each distinct operand text
    taken; a scenario that keeps stale state across calls shows here."""
    from weaklogic import audit_all, load_scenario, weak_value_expr

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = _attempt(lambda: load_scenario(Path(path).read_text(encoding="utf-8")))
        if isinstance(s, str):
            results = {"report": s, "repeat": s, "weak": s}
        else:
            results = {
                "report": _attempt(lambda: _entries(audit_all(s, pairs))),
                "repeat": _attempt(lambda: _entries(audit_all(s, pairs[::-1]))),
                "weak": [
                    _attempt(lambda: _weak_bits(weak_value_expr(s, text))) for text in _texts(pairs)
                ],
            }
    return {**results, "warnings": _caught(caught)}


def worker(jobs_path: str, out_path: str) -> None:
    """Run the jobs on the ``weaklogic`` that this process imports."""
    import weaklogic

    jobs = json.loads(Path(jobs_path).read_text(encoding="utf-8"))
    results = {
        "module": weaklogic.__file__,
        "cli": [_run_cli(argv) for argv in jobs["cli"]],
        "audit": [_run_audit(path, [tuple(p) for p in pairs]) for path, pairs in jobs["audit"]],
    }
    Path(out_path).write_text(json.dumps(results), encoding="utf-8")


def _git(*args) -> str:
    cmd = ["git", "-C", str(ROOT), *args]
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()


def _run_trees(trees: dict, jobs_path: Path, where: Path, extra: dict) -> dict:
    """Each tree's results, from one worker subprocess per tree, run at once;
    the worker of this tree alone also gets the variables ``extra``."""
    procs = {}
    for label, tree in trees.items():
        out = where / f"results-{label}.json"
        cmd = [sys.executable, __file__, "--worker", str(jobs_path), str(out)]
        env = {**os.environ, **(extra if label == "this" else {}), "PYTHONPATH": str(tree / "src")}
        proc = subprocess.Popen(cmd, cwd=tree, env=env, stderr=subprocess.PIPE, text=True)
        procs[label] = out, proc
    results = {}
    for label, (out, proc) in procs.items():
        _, err = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"worker for {label} failed:\n{err}")
        results[label] = json.loads(out.read_text(encoding="utf-8"))
        if not results[label]["module"].startswith(str(trees[label])):
            raise SystemExit(f"worker for {label} imported {results[label]['module']}")
    return results


def _expected(expect: list[str], command: str, field: str) -> bool:
    return command in expect or f"{command}:{field}" in expect


def _short(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value)
    return text if len(text) <= 300 else text[:300] + "..."


def compare(jobs: dict, base: dict, this: dict, expect: list[str]) -> int:
    """Print the summary; the number of differences no ``--expect`` names."""
    runs = collections.Counter()
    diffs = collections.Counter()
    listed = []
    labelled = [
        (argv[0], " ".join(Path(a).name if "/" in a else a for a in argv), b, t)
        for argv, b, t in zip(jobs["cli"], base["cli"], this["cli"])
    ] + [
        ("audit_all", f"audit_all {Path(path).name}", b, t)
        for (path, _), b, t in zip(jobs["audit"], base["audit"], this["audit"])
    ]
    for command, label, b, t in labelled:
        runs[command, t.get("exit", "-")] += 1
        for field in t:
            if b[field] != t[field]:
                diffs[command, field] += 1
                if len(listed) < SHOWN:
                    listed.append((label, field, b[field], t[field]))
    print("runs by command and exit code (this tree):")
    for command in sorted({c for c, _ in runs}):
        codes = sorted((str(code), n) for (c, code), n in runs.items() if c == command)
        print(f"  {command:<14} " + "  ".join(f"exit {code}: {n}" for code, n in codes))
    unexpected = sum(n for (c, f), n in diffs.items() if not _expected(expect, c, f))
    print(f"differences: {sum(diffs.values())}, not expected: {unexpected}")
    for (command, field), n in sorted(diffs.items()):
        note = " (expected)" if _expected(expect, command, field) else ""
        print(f"  {command}:{field}  {n}{note}")
    for label, field, b, t in listed:
        print(f"- {label} [{field}]\n    against: {_short(b)}\n    this:    {_short(t)}")
    return unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision to compare this tree with")
    parser.add_argument("--files", type=int, default=100, help="number of documents (default 100)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the documents (default 0)")
    parser.add_argument(
        "--expect", action="append", default=[], metavar="CMD[:FIELD]",
        help="a difference that is meant; may be repeated",
    )
    parser.add_argument(
        "--env", action="append", default=[], metavar="VAR=VALUE",
        help="a variable set for this tree's worker alone; may be repeated",
    )
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(*args.worker)
        return 0
    if not args.against:
        parser.error("--against is required")
    if not all("=" in item for item in args.env):
        parser.error("--env takes VAR=VALUE")
    extra = dict(item.split("=", 1) for item in args.env)
    commit = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="weaklogic-differential-") as tmp:
        where = Path(tmp)
        checkout = where / "against"
        _git("worktree", "add", "--detach", "--quiet", str(checkout), commit)
        try:
            jobs = _jobs(args.files, args.seed, where)
            jobs_path = where / "jobs.json"
            jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
            results = _run_trees({"against": checkout, "this": ROOT}, jobs_path, where, extra)
        finally:
            _git("worktree", "remove", "--force", str(checkout))
    texts = len(_texts(jobs["audit"][0][1])) if jobs["audit"] else 0
    print(f"against {args.against} ({commit[:12]}): {args.files} documents, seed {args.seed}, "
          f"{len(jobs['cli'])} CLI runs per tree; on each document that loads, 2 audit_all "
          f"calls and {texts} weak_value_expr calls")
    if extra:
        print("this tree under " + " ".join(args.env))
    return 1 if compare(jobs, results["against"], results["this"], args.expect) else 0


if __name__ == "__main__":
    sys.exit(main())
