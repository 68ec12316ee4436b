"""Shared randomized builders and independent closed-form oracles.

The pointer oracle here is pure scalar algebra (Gaussian overlap integrals
evaluated analytically) so it shares no code path with the grid quadratures
it is used to check.
"""

import dataclasses

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


def split_amplitudes(s, p):
    """Postselected (unshifted, shifted) amplitudes via raw numpy."""
    post = s.post_state.amps
    bra = post if s.evolution is None else s.evolution.conj().T @ post
    total = np.vdot(bra, s.pre_state.amps)
    beta = np.vdot(bra, p @ s.pre_state.amps)
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
