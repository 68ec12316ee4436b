"""Shared randomized builders and independent closed-form oracles.

The pointer oracle here is pure scalar algebra (Gaussian overlap integrals
evaluated analytically) so it shares no code path with the grid quadratures
it is used to check.
"""

import dataclasses
import itertools
import sys

import numpy as np

from weaklogic import build_scenario


def random_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def generic_labels(dim):
    return tuple(f"b{i}" for i in range(dim))


def random_scenario(rng, dim, with_evolution=False, min_overlap=0.05, channels=None):
    """Draw a random scenario whose postselection overlap is usable."""
    for _ in range(500):
        pre = random_unit(rng, dim)
        post = random_unit(rng, dim)
        evolution = random_unitary(rng, dim) if with_evolution else None
        s = build_scenario(
            "random", generic_labels(dim), pre, post, evolution, channels or {}
        )
        if abs(s.post_overlap) >= min_overlap:
            return s
    raise AssertionError("could not draw a scenario with usable overlap")


def pigeonhole_document(n):
    """Scenario document of n qubits in boxes L and R, preselected in
    (L+R)^n and postselected in (L+iR)^n, with a basis channel Lj and Rj
    for each qubit j."""
    labels = ["".join(t) for t in itertools.product("LR", repeat=n)]
    phases = ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0])
    return {
        "name": f"pigeonhole{n}",
        "dim": 2**n,
        "labels": labels,
        "pre": [[1.0, 0.0]] * 2**n,
        "post": [phases[lab.count("R") % 4] for lab in labels],
        "channels": {
            f"{side}{j}": {"basis": [lab for lab in labels if lab[j - 1] == side]}
            for j in range(1, n + 1)
            for side in "LR"
        },
    }


def rotated_pigeonhole(rng, n):
    """The scenario of ``pigeonhole_document(n)`` seen through a random basis
    change V and evolved by a random unitary U: channels V P V^dagger, pre
    V pre, post U V post. Every channel is a dense matrix, and every weak
    value is that of the unrotated scenario."""
    doc = pigeonhole_document(n)
    labels = doc["labels"]
    v, u = random_unitary(rng, 2**n), random_unitary(rng, 2**n)
    pre, post = (np.array([complex(*z) for z in doc[k]]) for k in ("pre", "post"))
    channels = {}
    for name, spec in doc["channels"].items():
        cols = v[:, [lab in spec["basis"] for lab in labels]]
        channels[name] = cols @ cols.conj().T
    return build_scenario("rotated", labels, v @ pre, u @ v @ post, u, channels)


def random_projector_family(rng, dim, parts):
    """Complete orthogonal projector family from grouped unitary columns."""
    v = random_unitary(rng, dim)
    if parts > 1:
        cuts = sorted(rng.choice(np.arange(1, dim), size=parts - 1, replace=False))
    else:
        cuts = []
    bounds = [0, *cuts, dim]
    return [
        v[:, a:b] @ v[:, a:b].conj().T for a, b in zip(bounds, bounds[1:])
    ]


def random_basis_projector(rng, dim):
    v = random_unitary(rng, dim)
    size = int(rng.integers(1, dim + 1))
    idx = rng.choice(dim, size=size, replace=False)
    cols = v[:, idx]
    return cols @ cols.conj().T


def rephased(s, pre_phase=1.0, post_phase=1.0):
    """Rebuild a scenario with unit-phase factors on its boundary states."""
    return build_scenario(
        s.name,
        s.labels,
        s.pre_state.amps * pre_phase,
        s.post_state.amps * post_phase,
        s.evolution,
        s.channels,
    )


def hardy_beamsplitter():
    """Single-particle 50-50 beamsplitter behind the hardy catalog entry.

    Matrix rows index the outgoing detector basis (bright, dark), columns the
    incoming arm basis (non-interacting, interacting). The overall sign is
    pinned by requiring all printed forms of the hardy preselected state to
    coincide; the catalog's two-particle evolution is this matrix tensored
    with itself.
    """
    return -np.array([[1j, 1.0], [1.0, 1j]], dtype=complex) / np.sqrt(2.0)


def dproj(dim, idxs):
    """Diagonal projector onto the listed basis indices."""
    p = np.zeros((dim, dim), dtype=complex)
    for i in idxs:
        p[i, i] = 1.0
    return p


def matrix(p):
    """An operator given as a matrix or as its 1-D diagonal, as a matrix."""
    return np.diag(p) if np.ndim(p) == 1 else np.asarray(p)


def split_amplitudes(s, p):
    """Postselected (unshifted, shifted) amplitudes via raw numpy."""
    post = s.post_state.amps
    bra = post if s.evolution is None else s.evolution.conj().T @ post
    total = np.vdot(bra, s.pre_state.amps)
    beta = np.vdot(bra, matrix(p) @ s.pre_state.amps)
    return total - beta, beta


def pointer_oracle(alpha, beta, g, sigma):
    """Closed-form postselected pointer statistics.

    With k = exp(-g^2 / (8 sigma^2)) and cross = conj(alpha) beta:

        weight = |alpha|^2 + |beta|^2 + 2 k Re(cross)
        mean_q = g (|beta|^2 + k Re(cross)) / weight
        mean_p = g k Im(cross) / (2 sigma^2 weight)
    """
    k = np.exp(-g * g / (8.0 * sigma * sigma))
    cross = np.conj(alpha) * beta
    weight = abs(alpha) ** 2 + abs(beta) ** 2 + 2.0 * k * cross.real
    mean_q = g * (abs(beta) ** 2 + k * cross.real) / weight
    mean_p = g * k * cross.imag / (2.0 * sigma * sigma * weight)
    return float(mean_q), float(mean_p), float(weight)


def bits(x):
    """A result with every number as its bytes, so that equality demands the
    same last bits and the same signed zeros."""
    if isinstance(x, np.ndarray):
        return x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(bits(v) for v in x)
    if isinstance(x, (float, complex)):
        return type(x), np.array(x).tobytes()
    return x


def spy(monkeypatch, kernel, record):
    """Wrap a function in every weaklogic module that holds it; each call
    passes its arguments to ``record`` first."""

    def spied(*args):
        record(*args)
        return kernel(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "weaklogic":
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, spied)
