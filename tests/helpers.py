"""Shared randomized builders and independent oracles.

``pointer_oracle`` is pure scalar algebra (Gaussian overlap integrals
evaluated analytically), so it shares no code path with the grid
quadratures it checks. The other way round, ``quadrature_disturbance``
integrates the packets on a grid with ``np.trapezoid`` to check the closed
form of ``sequential_disturbance``, and ``readout_reference`` keeps the
``np.trapezoid`` readout whose bits the meter's readouts must keep.
``within_struct_tol``, ``self_adjoint_oracle`` and ``projector_oracle``
keep the structural checks as the library once wrote them, each residual
formed as a fresh temporary and measured by its largest ``np.abs``.
"""

import dataclasses
import itertools
import sys

import numpy as np

from weaklogic import STRUCT_TOL, build_scenario


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
    bra = _bra(s)
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


def _bra(s):
    post = s.post_state.amps
    return post if s.evolution is None else s.evolution.conj().T @ post


def _pointer_grid(sigma, g, grid_points):
    halfwidth = 12.0 * sigma + 2.0 * g
    return np.linspace(-halfwidth, halfwidth, grid_points)


def _gaussian(q, sigma):
    return (2.0 * np.pi * sigma**2) ** -0.25 * np.exp(-(q**2) / (4.0 * sigma**2))


def quadrature_disturbance(s, p1, p2, sigma, g, grid_points=4096):
    """``sequential_disturbance`` with its packet integrals taken by
    ``np.trapezoid`` on a grid, from raw numpy amplitudes."""
    q = _pointer_grid(sigma, g, grid_points)
    packets = (_gaussian(q, sigma), _gaussian(q - g, sigma))
    overlap = np.array([[np.trapezoid(a * b, q) for b in packets] for a in packets])
    q_moment = np.array([[np.trapezoid(q * a * b, q) for b in packets] for a in packets])

    bra, pre = _bra(s), s.pre_state.amps
    one = np.eye(s.dim)
    splits1 = (one - matrix(p1), matrix(p1))
    splits2 = (one - matrix(p2), matrix(p2))
    solo = np.array([np.vdot(bra, sk @ pre) for sk in splits2])
    coeff = np.array([[np.vdot(bra, sk @ sj @ pre) for sk in splits2] for sj in splits1])

    weight0 = np.einsum("K,k,Kk->", solo.conj(), solo, overlap).real
    without_first = np.einsum("K,k,Kk->", solo.conj(), solo, q_moment).real / weight0
    weight = np.einsum("JK,jk,Jj,Kk->", coeff.conj(), coeff, overlap, overlap).real
    with_first = (
        np.einsum("JK,jk,Jj,Kk->", coeff.conj(), coeff, overlap, q_moment).real / weight
    )
    return abs(with_first - without_first) / g


def readout_reference(alpha, beta, sigma, g, grid_points=4096):
    """(mean_q, mean_p, success) of the grid readout as three
    ``np.trapezoid`` calls, each forming its own steps; the meter's
    readouts must give the same bits."""
    q = _pointer_grid(sigma, g, grid_points)
    phi0, phig = _gaussian(q, sigma), _gaussian(q - g, sigma)
    psi = alpha * phi0 + beta * phig
    density = np.abs(psi) ** 2
    success = float(np.trapezoid(density, q))
    mean_q = float(np.trapezoid(q * density, q)) / success
    sig2 = 2.0 * sigma**2
    dpsi = alpha * (-q / sig2) * phi0 + beta * (-(q - g) / sig2) * phig
    mean_p = float(np.trapezoid(np.conj(psi) * dpsi, q).imag) / success
    return mean_q, mean_p, success


def weak_limit_reference(alpha, beta, sigma, sweep):
    """The weak-limit extrapolation of ``readout_reference`` readouts at the
    sweep's two smallest couplings."""
    estimates = []
    for g in sweep[-2:]:
        mean_q, mean_p, _ = readout_reference(alpha, beta, sigma, g)
        estimates.append(mean_q / g + 1j * (2.0 * sigma**2 * mean_p / g))
    (g_prev, g_min), (e_prev, e_min) = sweep[-2:], estimates
    return (g_prev * e_min - g_min * e_prev) / (g_prev - g_min)


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


def within_struct_tol(r):
    """Whether every entry of a residual is within STRUCT_TOL; a NaN fails."""
    return bool(np.max(np.abs(r)) <= STRUCT_TOL)


def self_adjoint_oracle(m):
    """m - m^dagger within STRUCT_TOL, for a matrix or a diagonal."""
    return within_struct_tol(m - m.conj().T)


def projector_oracle(p):
    """p^2 - p and p - p^dagger within STRUCT_TOL, for a matrix or a diagonal."""
    square = p * p if p.ndim == 1 else p @ p
    return within_struct_tol(square - p) and self_adjoint_oracle(p)
