"""Seeded inputs for each workload, with expected results from raw numpy.

Runs in the benchmark's parent process, never in the measuring process, so
input generation stays out of ``setup_s``. Expected values are computed
here from the raw amplitudes with ``np.vdot`` over index masks, in the
unrotated basis, sharing no code with ``weaklogic``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import pigeon
import workloads

WORKLOADS = ("cli-readme", "audit-pigeon256", "audit-rotated128", "meter-sweep")

#: The README's weak-limit sweep.
SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)

#: Ops generated per run; a run cycles through them if it gets further.
SEQUENCE_LENGTH = 20000

CATALOG = ("pigeonhole2", "pigeonhole3", "three-box", "hardy")
README_PRODUCTS = (("pigeonhole2", "L1*L2"), ("hardy", "Np*Ne"))


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _haar(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _mask(n: int, expr: str) -> np.ndarray:
    """Boolean basis mask of a product of ``Lj``/``Rj`` factors."""
    labs = pigeon.labels(n)
    mask = np.ones(len(labs), dtype=bool)
    for factor in expr.split("*"):
        mask &= np.array([pigeon.in_channel(lab, factor) for lab in labs])
    return mask


def _weak(bra: np.ndarray, pre: np.ndarray, mask: np.ndarray) -> complex:
    return complex(np.vdot(bra, np.where(mask, pre, 0)) / np.vdot(bra, pre))


def _batches(rng, n: int, bra: np.ndarray, pre: np.ndarray, with_strong: bool):
    """One audit batch per qubit: its pairs in seeded order, with expected values."""
    bra_n = bra / np.linalg.norm(bra)
    pre_n = pre / np.linalg.norm(pre)
    batches = []
    for q in range(1, n + 1):
        pairs = pigeon.audit_pairs(n, q)
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        expected = []
        for a, b, kind in pairs:
            ma, mb = _mask(n, a), _mask(n, b)
            mc = ma | mb if kind == "sum" else ma & mb
            expected.append([_pair(_weak(bra, pre, m)) for m in (ma, mb, mc)])
        batch = {"pairs": pairs, "expected": expected}
        if with_strong:
            partner = int(rng.choice([k for k in range(1, n + 1) if k != q]))
            expr = f"L{min(q, partner)}*L{max(q, partner)}"
            m = _mask(n, expr)
            hit = abs(np.vdot(bra_n, np.where(m, pre_n, 0))) ** 2
            miss = abs(np.vdot(bra_n, np.where(m, 0, pre_n))) ** 2
            batch["strong"] = {
                "expr": expr,
                "born": float(np.sum(abs(pre_n[m]) ** 2)),
                "cond_post": float(hit),
                "abl": float(hit / (hit + miss)),
                "weak": _pair(_weak(bra, pre, m)),
            }
        batches.append(batch)
    return batches


def _sequence(rng, count: int) -> list[int]:
    """Batch indices: seeded permutations of range(count), pass after pass."""
    out: list[int] = []
    while len(out) < SEQUENCE_LENGTH:
        out.extend(int(i) for i in rng.permutation(count))
    return out


def _audit_pigeon256(rng) -> tuple[dict, str]:
    n = 8
    pre_phase, post_phase = _phase(rng), _phase(rng)
    doc = pigeon.document(n, pre_phase, post_phase)
    pre, post = (np.array(v) for v in pigeon.amplitudes(n, pre_phase, post_phase))
    batches = _batches(rng, n, post, pre, with_strong=False)
    return {"batches": batches, "sequence": _sequence(rng, n)}, json.dumps(doc)


def _audit_rotated128(rng) -> tuple[dict, str]:
    """7-qubit pigeonhole seen through a Haar basis change V and evolved by U.

    Channels are V P V^dagger, pre is V pre and post is U V post, so every
    weak value and verdict equals the unrotated case, which the expected
    values are computed in.
    """
    n = 7
    pre_phase, post_phase = _phase(rng), _phase(rng)
    pre, post = (np.array(v) for v in pigeon.amplitudes(n, pre_phase, post_phase))
    v, u = _haar(rng, 2**n), _haar(rng, 2**n)
    channels = {}
    for name in pigeon.channel_names(n):
        m = _mask(n, name)
        proj = (v[:, m] @ v[:, m].conj().T)
        channels[name] = {"matrix": [pigeon.as_pairs(row) for row in proj]}
    doc = {
        "name": f"rotated-pigeonhole{n}",
        "dim": 2**n,
        "labels": pigeon.labels(n),
        "pre": pigeon.as_pairs(v @ pre),
        "post": pigeon.as_pairs(u @ v @ post),
        "evolution": [pigeon.as_pairs(row) for row in u],
        "channels": channels,
    }
    batches = _batches(rng, n, post, pre, with_strong=True)
    return {"batches": batches, "sequence": _sequence(rng, n)}, json.dumps(doc)


def _raw_catalog(root: Path, name: str):
    """(bra, pre, channel matrices) of a catalog scenario, read from its JSON file."""
    doc = json.loads(
        (root / "src" / "weaklogic" / "data" / "scenarios" / f"{name}.json").read_text()
    )
    labels = doc["labels"]

    def vec(rows):
        return np.array([complex(re, im) for re, im in rows])

    pre, post = vec(doc["pre"]), vec(doc["post"])
    pre, post = pre / np.linalg.norm(pre), post / np.linalg.norm(post)
    if doc.get("evolution") is not None:
        u = np.array([vec(row) for row in doc["evolution"]])
        post = u.conj().T @ post
    channels = {}
    for ch, spec in doc["channels"].items():
        if "basis" in spec:
            channels[ch] = np.diag([1.0 + 0j if lab in spec["basis"] else 0j for lab in labels])
        else:
            channels[ch] = np.array([vec(row) for row in spec["matrix"]])
    return post, pre, channels


def _meter_sweep(rng, root: Path) -> tuple[dict, None]:
    candidates, pairs = [], {}
    for name in CATALOG:
        bra, pre, channels = _raw_catalog(root, name)
        exprs = [(ch, p) for ch, p in channels.items()]
        exprs += [
            (expr, np.linalg.multi_dot([channels[f] for f in expr.split("*")]))
            for scen, expr in README_PRODUCTS if scen == name
        ]
        for expr, p in exprs:
            beta = complex(np.vdot(bra, p @ pre))
            alpha = complex(np.vdot(bra, pre)) - beta
            candidates.append(
                {"scenario": name, "expr": expr, "alpha": _pair(alpha), "beta": _pair(beta)}
            )
        one = np.eye(len(pre))
        pairs[name] = []
        for a, pa in channels.items():
            for b, pb in channels.items():
                if a == b or np.max(np.abs(pa @ pb - pb @ pa)) > 1e-12:
                    continue
                s1, s2 = (one - pa, pa), (one - pb, pb)
                coeff = [[_pair(np.vdot(bra, s2[k] @ s1[j] @ pre)) for k in (0, 1)] for j in (0, 1)]
                solo = [_pair(np.vdot(bra, s2[k] @ pre)) for k in (0, 1)]
                pairs[name].append({"a": a, "b": b, "coeff": coeff, "solo": solo})
    jobs = []
    for _ in range(SEQUENCE_LENGTH):
        c = int(rng.integers(len(candidates)))
        sigma = float(rng.uniform(0.5, 2.0))
        g = float(rng.uniform(1e-3, 0.5))
        pair = int(rng.integers(len(pairs[candidates[c]["scenario"]])))
        jobs.append([c, sigma, g, pair])
    inputs = {
        "scenarios": list(CATALOG),
        "candidates": candidates,
        "pairs": pairs,
        "jobs": jobs,
        "sweep": list(SWEEP),
    }
    return inputs, None


def _cli_readme(rng) -> tuple[dict, None]:
    commands = json.loads(workloads.README_ORACLE.read_text(encoding="utf-8"))
    order = _sequence(rng, len(commands))
    return {"commands": commands, "sequence": order}, None


def make_inputs(workload: str, seed: int, root: Path) -> tuple[dict, str | None]:
    """Inputs for one run, and the scenario document text it loads (if any)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "audit-pigeon256":
        return _audit_pigeon256(rng)
    if workload == "audit-rotated128":
        return _audit_rotated128(rng)
    if workload == "meter-sweep":
        return _meter_sweep(rng, root)
    if workload == "cli-readme":
        return _cli_readme(rng)
    raise ValueError(f"unknown workload {workload!r}")
