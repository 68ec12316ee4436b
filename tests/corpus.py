"""Golden CLI corpus: seeded scenario documents and the digests of what the CLI
prints for them.

Each document under ``tests/data/corpus/`` has the channels A, B, C (a
partition of the basis, some parts possibly empty) and U (A together with
part of C); the rotated documents add W, the projector onto one random
vector. For each document ``commands`` lists the CLI runs, and ``outcome``
runs one in-process and digests its stdout, stderr, exit code and the
warnings it raised (category and message; the file and line a warning
names depend on the checkout). ``tests/test_corpus.py`` replays them.

Re-record the digests, only when a change is meant to alter CLI output, with
the command below; it writes only the documents that are missing.

    PYTHONPATH=src python tests/corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from weaklogic.cli import main
from helpers import random_unit, random_unitary

CORPUS = Path(__file__).resolve().parent / "data" / "corpus"
GOLDEN = CORPUS / "golden.json"
PAIRS = CORPUS / "pairs.json"

#: Audit pairs run by ``audit-all --pairs`` on every document, error cases included.
PAIR_LIST = [
    {"a": "A", "b": "B", "kind": "sum"},
    {"a": "A + B", "b": "C", "kind": "sum"},
    {"a": "A*U", "b": "B", "kind": "sum"},
    {"a": "A", "b": "U", "kind": "product"},
    {"a": "U", "b": "U", "kind": "product"},
    {"a": "(A + B)*U", "b": "U", "kind": "product"},
    {"a": "A", "b": "U", "kind": "sum"},
    {"a": "A", "b": "B", "kind": "product"},
    {"a": "A + U", "b": "B", "kind": "sum"},
    {"a": "A", "b": "W", "kind": "product"},
    {"a": "W", "b": "C", "kind": "sum"},
    {"a": "A", "b": "nosuch", "kind": "sum"},
    {"a": "A +", "b": "B", "kind": "sum"},
    {"a": "A", "b": "B", "kind": "xor"},
]

#: (seed, dim, kind, evolution, overlap): kind is basis, rotated or signed-zero;
#: overlap "near-pole" makes <post|U|pre> about 1e-8, "lost" makes it vanish.
SPECS = [
    (1, 1, "basis", False, None),
    (2, 1, "rotated", True, None),
    (3, 2, "basis", False, None),
    (4, 2, "rotated", False, None),
    (5, 2, "signed-zero", True, None),
    (6, 3, "basis", True, None),
    (7, 3, "rotated", True, None),
    (8, 3, "signed-zero", False, None),
    (9, 3, "basis", False, "near-pole"),
    (10, 4, "basis", False, None),
    (11, 4, "rotated", False, None),
    (12, 4, "signed-zero", True, None),
    (13, 4, "rotated", True, "near-pole"),
    (14, 5, "basis", True, None),
    (15, 5, "rotated", True, None),
    (16, 5, "signed-zero", False, None),
    (17, 5, "basis", False, "lost"),
    (18, 6, "basis", False, None),
    (19, 6, "rotated", True, None),
    (20, 6, "signed-zero", True, None),
    (21, 6, "rotated", False, "near-pole"),
]


def _pairs(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _signed_zero_matrix(rng, members, dim) -> list:
    """The projector onto basis ``members`` as a matrix document whose zeros
    carry random signs: on the diagonal only for about half of the channels,
    which are then held as their diagonal, and everywhere for the others,
    which keep their matrix form."""
    off_diagonal = rng.random() < 0.5
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            re = 1.0 if i == j and i in members else 0.0
            signed = i == j or off_diagonal
            if signed and re == 0.0 and rng.random() < 0.5:
                re = -0.0
            im = -0.0 if signed and rng.random() < 0.3 else 0.0
            row.append([re, im])
        rows.append(row)
    return rows


def make_document(seed, dim, kind, with_evolution, overlap) -> dict:
    rng = np.random.default_rng(seed)
    labels = [f"s{i}" for i in range(dim)]
    order = rng.permutation(dim)
    cut1 = int(rng.integers(1, dim + 1))
    cut2 = int(rng.integers(cut1, dim + 1))
    parts = {"A": order[:cut1], "B": order[cut1:cut2], "C": order[cut2:]}
    parts["U"] = np.concatenate([parts["A"], parts["C"][: (len(parts["C"]) + 1) // 2]])

    evolution = random_unitary(rng, dim) if with_evolution else None
    if kind == "signed-zero" and with_evolution:
        # a signed permutation: its zeros keep their signs through the product
        evolution = np.zeros((dim, dim), dtype=complex)
        for i, j in enumerate(rng.permutation(dim)):
            evolution[i, j] = rng.choice([1.0, -1.0, 1j, -1j])
        evolution = evolution + np.where(rng.random((dim, dim)) < 0.5, -0.0, 0.0)

    v = random_unitary(rng, dim) if kind == "rotated" else None
    channels = {}
    for name, members in parts.items():
        members = sorted(int(i) for i in members)
        if kind == "basis":
            channels[name] = {"basis": [labels[i] for i in members]}
        elif kind == "signed-zero":
            channels[name] = {"matrix": _signed_zero_matrix(rng, members, dim)}
        else:
            cols = v[:, members]
            channels[name] = {"matrix": [_pairs(row) for row in cols @ cols.conj().T]}
    if kind == "rotated":
        w = random_unit(rng, dim)
        channels["W"] = {"matrix": [_pairs(row) for row in np.outer(w, w.conj())]}

    pre = random_unit(rng, dim)
    post = random_unit(rng, dim)
    if kind == "signed-zero":
        pre = np.where(rng.random(dim) < 0.3, -0.0, pre.real) + 1j * np.where(
            rng.random(dim) < 0.5, -0.0, pre.imag
        )
    if overlap is not None:
        # pull the postselection onto the orthogonal complement of U|pre>
        evolved = pre if evolution is None else evolution @ pre
        evolved = evolved / np.linalg.norm(evolved)
        if dim == 1:
            post = np.array([1e-8 if overlap == "near-pole" else 0.0])
        else:
            post = post - np.vdot(evolved, post) * evolved
            post = post / np.linalg.norm(post)
            if overlap == "near-pole":
                post = post + 1e-8 * evolved
    doc = {
        "name": f"corpus-{seed}",
        "dim": dim,
        "labels": labels,
        "pre": _pairs(pre),
        "post": _pairs(post),
    }
    if evolution is not None:
        doc["evolution"] = [_pairs(row) for row in evolution]
    doc["channels"] = channels
    return doc


def document_path(seed, dim, kind, with_evolution, overlap) -> Path:
    tags = [f"s{seed:02d}", f"d{dim}", kind] + ["evolved"] * with_evolution
    return CORPUS / ("-".join(tags + ([overlap] if overlap else [])) + ".json")


def commands() -> list[list[str]]:
    """Every recorded argv; ``--file`` names a corpus document relative to
    ``CORPUS`` and ``--pairs`` the shared pair list."""
    runs = []
    for spec in SPECS:
        name = document_path(*spec).name
        per_doc = [
            ["show"],
            *(["weak", "--expr", e] for e in ("A", "A + B", "A*U", "A + U", "W")),
            *(["strong", "--expr", e] for e in ("A", "A + B", "U", "A + U")),
            *(["abl", "--expr", e] for e in ("A", "C", "A*U")),
            ["audit-sum", "--expr", "A", "--expr2", "B"],
            ["audit-sum", "--expr", "A", "--expr2", "U"],
            ["audit-product", "--expr", "A", "--expr2", "U"],
            ["audit-product", "--expr", "A", "--expr2", "B"],
            ["audit-product", "--expr", "U", "--expr2", "W"],
            ["audit-all", "--pairs", PAIRS.name],
            ["meter", "--expr", "A", "--g", "0.1"],
            ["meter", "--expr", "U", "--sigma", "2", "--g", "0.5"],
            ["meter", "--expr", "A + U", "--g", "0.1"],
            ["meter", "--expr", "A", "--sweep", "1e-1,1e-2,1e-3"],
            ["meter", "--expr", "U", "--sweep", "1e-1,1e-2,1e-3,1e-4"],
        ]
        for argv in per_doc:
            for fmt in ("table", "json"):
                runs.append([argv[0], "--file", name, *argv[1:], "--format", fmt])
    return runs


def _resolved(argv: list[str]) -> list[str]:
    return [
        str(CORPUS / arg) if prev in ("--file", "--pairs") else arg
        for prev, arg in zip([None, *argv], argv)
    ]


def outcome(argv: list[str]) -> str:
    """sha256 of one in-process run's stdout, stderr, exit code and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_resolved(argv))
    raised = [f"{w.category.__name__}: {w.message}" for w in caught]
    record = json.dumps([out.getvalue(), err.getvalue(), code, raised])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def record() -> int:
    CORPUS.mkdir(parents=True, exist_ok=True)
    for spec in SPECS:
        path = document_path(*spec)
        if not path.exists():  # a recorded document stays as it is
            path.write_text(json.dumps(make_document(*spec), indent=1) + "\n", encoding="utf-8")
    PAIRS.write_text(json.dumps(PAIR_LIST, indent=1) + "\n", encoding="utf-8")
    entries = [{"argv": argv, "sha256": outcome(argv)} for argv in commands()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} digests in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(record())
