"""n-qubit pigeonhole scenarios as scenario documents, built without numpy.

Qubit j sits in box L or R. The preselected state is (L+R)^n and the
postselected state (L+iR)^n, each times a global phase. Basis labels are
strings over {L, R} with qubit 1 first, so n = 2 reproduces the labels of
the catalog's ``pigeonhole2``. Every sum pair ``Lj*Lk | Rj*Rk`` is case III
and every product pair ``Lj | Lk`` is case ii, whatever the phases.

This module is imported by the benchmark's measuring process before the
timed import of ``weaklogic``, so it must not import numpy.
"""

from __future__ import annotations

import itertools

_I_POWERS = (1, 1j, -1, -1j)


def labels(n: int) -> list[str]:
    return ["".join(t) for t in itertools.product("LR", repeat=n)]


def channel_names(n: int) -> list[str]:
    return [f"{side}{j}" for j in range(1, n + 1) for side in "LR"]


def in_channel(label: str, name: str) -> bool:
    """Whether basis state ``label`` lies in channel ``name`` (``Lj`` or ``Rj``)."""
    return label[int(name[1:]) - 1] == name[0]


def amplitudes(n: int, pre_phase: complex = 1, post_phase: complex = 1):
    pre = [complex(pre_phase)] * 2**n
    post = [post_phase * _I_POWERS[lab.count("R") % 4] for lab in labels(n)]
    return pre, post


def as_pairs(vec) -> list[list[float]]:
    return [[z.real, z.imag] for z in map(complex, vec)]


def document(n: int, pre_phase: complex = 1, post_phase: complex = 1) -> dict:
    """Scenario document in the ``load_scenario`` format, with basis channels."""
    labs = labels(n)
    pre, post = amplitudes(n, pre_phase, post_phase)
    return {
        "name": f"pigeonhole{n}",
        "dim": 2**n,
        "labels": labs,
        "pre": as_pairs(pre),
        "post": as_pairs(post),
        "channels": {
            name: {"basis": [lab for lab in labs if in_channel(lab, name)]}
            for name in channel_names(n)
        },
    }


def audit_pairs(n: int, qubit: int | None = None) -> list[tuple[str, str, str]]:
    """Sum pair ``Lj*Lk | Rj*Rk`` and product pair ``Lj | Lk`` for each j < k.

    With ``qubit`` set, only the pairs that involve that qubit.
    """
    out = []
    for j, k in itertools.combinations(range(1, n + 1), 2):
        if qubit is None or qubit in (j, k):
            out.append((f"L{j}*L{k}", f"R{j}*R{k}", "sum"))
            out.append((f"L{j}", f"L{k}", "product"))
    return out


#: Case every pair of each kind must come out as.
EXPECTED_CASE = {"sum": "III", "product": "ii"}
