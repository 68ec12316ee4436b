"""Finite-strength von Neumann pointer simulation for projector observables.

The meter starts in a Gaussian wavepacket phi(q) with Var(Q) = sigma^2,
i.e. phi(q) proportional to exp(-q^2 / (4 sigma^2)). Coupling a projector P
to the pointer momentum splits the joint state into an unshifted component
(1 - P)|pre> . phi(q) and a shifted component P|pre> . phi(q - g); after
postselection the pointer wavefunction is

    psi(q) = alpha phi(q) + beta phi(q - g),
    alpha = <post|U (1 - P)|pre>,  beta = <post|U P|pre>.

The readouts (measure_pointer, weak_limit_estimate) are quadratures on a
uniform grid over [-(12 sigma + 2 g), 12 sigma + 2 g]. The grid spacing
must not exceed sigma / 2, or MeterGridError is raised: up to that spacing
the trapezoid sums match the closed-form moments to about 1e-16, at a
spacing near sigma they can be off by 1e-7, and beyond it the readouts are
wrong. A non-zero coupling at or below eps * halfwidth raises
MeterGridError too: there q - g rounds to q on the grid and the shift is
lost. The q-derivative needed for the momentum mean is evaluated from the
exact derivative of the Gaussian components; finite differences at the
default grid resolution bias the momentum readout by more than the
advertised tolerances. With this convention mean_q / g tends to Re and
2 sigma^2 mean_p / g to Im of the weak value as g tends to zero.

sequential_disturbance builds no grid. Packet a, the pointer shifted by
a g, overlaps packet b by exp(-((a - b) g)^2 / (8 sigma^2)), and their
q-moment is that overlap times (a + b) g / 2; both integrals are exact.

A weak-limit sweep counts as divergent only when its last change exceeds
both its first change and the rounding floor of one estimate,
eps * halfwidth(g_min) / g_min: a readout carries rounding noise of order
eps times the grid halfwidth, and the estimate divides it by g.

A sweep builds the grids of its two smallest couplings, whose readouts make
the estimate. Every larger coupling gets the grid checks without a grid, and
the closed-form weight w of the exact packet moments: when w, less its bound
_GRID_GAP * eps * (|alpha|^2 + |beta|^2), exceeds the extinction cut, the
grid cannot lose the postselection, and otherwise the point is read on its
grid where the sweep reaches it. The first change is the only other use of
the larger couplings; it is taken from the closed-form estimates when it
differs from the last change by more than their bound _GRID_GAP * eps *
(halfwidth / g) (|alpha|^2 + |beta|^2) / w, and read on the grid otherwise.
A divergent sweep reads every point, so its message prints the grid's
changes. _GRID_GAP, the C of these bounds, is over 1000 times the largest
rounding gap measured between a grid readout and its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeterGridError, PostselectionLostError, SweepDivergenceError
from .linalg import _complement
from .scenario import Scenario, _Batch, _amplitude

#: Success weights at or below this count as extinguished postselection.
_EXTINCT = 1e-14

#: C, the bound on the rounding gap between a grid readout and its closed
#: form in units of eps: the grid's success weight is within
#: C eps (|alpha|^2 + |beta|^2) of w, and its weak-limit estimate within
#: C eps (halfwidth / g) (|alpha|^2 + |beta|^2) / w of the closed form's.
#: Over 20,000 random draws (sigma from 1e-3 to 1e4, g from the rounding
#: floor to the spacing limit; real, complex and nearly opposite alpha and
#: beta) the worst gaps were 15 units for the weight and 3.2 for the
#: estimate, both near the spacing limit: C keeps over 1000 times that.
_GRID_GAP = 1e5


@dataclass(frozen=True)
class MeterConfig:
    """Pointer discretization parameters.

    The grid spans ``halfwidth`` = 12 sigma + 2 g on either side of zero,
    wide enough that the pointer density at the edges is negligible. Sigma
    and g are rejected when a readout term would overflow: the square of
    the widest packet offset |q - g| = halfwidth + g, and the momentum
    integrand, of order (halfwidth + g) / sigma^3.
    """

    sigma: float
    g: float
    grid_points: int = 4096

    def __post_init__(self):
        # Python floats, so that the range checks below overflow to inf
        # silently rather than warn as numpy scalar arithmetic does
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "g", float(self.g))
        if not (math.isfinite(self.sigma) and math.isfinite(self.g)):
            raise ValueError("sigma and coupling strength g must be finite")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.sigma * self.sigma < math.inf:
            raise ValueError(
                f"sigma {self.sigma:g} is out of range: its square over- or underflows"
            )
        if self.g < 0:
            raise ValueError("coupling strength g must be non-negative")
        if self.grid_points < 16:
            raise ValueError("grid_points must be at least 16")
        # x * x, not x**2: a Python float's ** raises OverflowError
        reach = self.halfwidth + self.g
        if not (
            reach * reach < math.inf
            and reach / self.sigma / (self.sigma * self.sigma) < math.inf
        ):
            raise ValueError(
                f"sigma {self.sigma:g} and g {self.g:g} are out of range: "
                "the pointer readout overflows"
            )

    @property
    def halfwidth(self) -> float:
        return 12.0 * self.sigma + 2.0 * self.g


@dataclass(frozen=True)
class PointerStats:
    """Postselected pointer readout: position mean, momentum mean, and the
    probability that the run survives postselection."""

    mean_q: float
    mean_p: float
    success_prob: float


def _check_grid(cfg: MeterConfig) -> None:
    """The grid's two MeterGridError checks, without building it. The
    spacing is ``np.linspace``'s step, the same quotient with the same bits."""
    floor = np.finfo(float).eps * cfg.halfwidth
    if 0.0 < cfg.g <= floor:
        raise MeterGridError(
            f"coupling g = {cfg.g:.3e} is at or below the grid's rounding floor "
            f"eps * halfwidth = {floor:.3e}; the pointer shift is lost"
        )
    spacing = (cfg.halfwidth - -cfg.halfwidth) / (cfg.grid_points - 1)
    if spacing > cfg.sigma / 2:
        raise MeterGridError(
            f"grid spacing {spacing:.3e} exceeds sigma/2 = {cfg.sigma / 2:.3e}; "
            f"{cfg.grid_points} points are too coarse for g/sigma = {cfg.g / cfg.sigma:.3g}"
        )


def _packet(q: np.ndarray, sigma: float) -> np.ndarray:
    return (2.0 * np.pi * sigma**2) ** -0.25 * np.exp(-(q**2) / (4.0 * sigma**2))


def _split(s: Scenario, p: np.ndarray) -> tuple[complex, complex]:
    """alpha = <post|U (1 - P)|pre> and beta = <post|U P|pre> of a checked P."""
    beta = _amplitude(s, _Batch(s).prove(p, "meter coupling"))
    return _amplitude(s) - beta, beta


def measure_pointer(s: Scenario, p: np.ndarray, cfg: MeterConfig) -> PointerStats:
    """Postselected pointer statistics for a single projector coupling."""
    return _readout(*_split(s, p), cfg)


def _trapezoid(y: np.ndarray, steps: np.ndarray):
    """``np.trapezoid(y, q)`` with ``steps = np.diff(q)`` formed once per grid:
    the same expression, so the same bits."""
    return (steps * (y[1:] + y[:-1]) / 2.0).sum()


def _readout(alpha: complex, beta: complex, cfg: MeterConfig) -> PointerStats:
    _check_grid(cfg)
    q = np.linspace(-cfg.halfwidth, cfg.halfwidth, cfg.grid_points)
    steps = np.diff(q)
    shifted = q - cfg.g
    phi0, phig = _packet(q, cfg.sigma), _packet(shifted, cfg.sigma)
    psi = alpha * phi0 + beta * phig
    density = np.abs(psi) ** 2
    success = float(_trapezoid(density, steps))
    if success <= _EXTINCT:
        raise PostselectionLostError(
            "postselection extinguishes the meter state; no statistics exist"
        )
    mean_q = float(_trapezoid(q * density, steps)) / success
    sig2 = 2.0 * cfg.sigma**2
    dpsi = alpha * (-q / sig2) * phi0 + beta * (-shifted / sig2) * phig
    mean_p = float(_trapezoid(np.conj(psi) * dpsi, steps).imag) / success
    return PointerStats(mean_q=mean_q, mean_p=mean_p, success_prob=success)


def _overlap(sigma: float, g: float) -> float:
    """Overlap of the pointer packet with its copy shifted by g."""
    return math.exp(-g * g / (8.0 * sigma * sigma))


def _closed_form(alpha: complex, beta: complex, sigma: float, g: float) -> tuple[float, complex]:
    """Postselection weight w and weak-limit estimate of the exact packet
    moments: with k the packet overlap and cross = conj(alpha) beta,

        w = |alpha|^2 + |beta|^2 + 2 k Re(cross),
        mean_q / g + i 2 sigma^2 mean_p / g = (|beta|^2 + k cross) / w.

    The estimate is NaN where w is not positive."""
    k = _overlap(sigma, g)
    cross = alpha.conjugate() * beta
    w = abs(alpha) ** 2 + abs(beta) ** 2 + 2.0 * k * cross.real
    return w, (abs(beta) ** 2 + k * cross) / w if w > 0.0 else complex(math.nan, math.nan)


def weak_limit_estimate(
    s: Scenario,
    p: np.ndarray,
    sigma: float,
    g_sweep,
) -> complex:
    """Extrapolate pointer readouts to zero coupling.

    Each sweep point yields the estimate mean_q / g + i 2 sigma^2 mean_p / g;
    the two smallest couplings are combined by linear extrapolation to g = 0.
    The finite-coupling bias of a Gaussian pointer is even in g, so the
    smallest couplings dominate the refinement; a fit across the whole sweep
    would drag the large-g bias into the intercept.

    Only the two smallest couplings are read on the grid unless another
    point's bits are needed (see the module docstring); the result and every
    error are those of reading them all.
    """
    sweep = [float(g) for g in g_sweep]
    if len(sweep) < 2:
        raise ValueError("g_sweep needs at least two couplings")
    if any(g <= 0 for g in sweep):
        raise ValueError("all sweep couplings must be positive")
    if any(b >= a for a, b in zip(sweep, sweep[1:])):
        raise ValueError("g_sweep must be strictly decreasing")

    configs = [MeterConfig(sigma=sigma, g=g) for g in sweep]
    alpha, beta = _split(s, p)
    eps = np.finfo(float).eps
    scale = abs(alpha) ** 2 + abs(beta) ** 2

    estimates = {}  # sweep index: grid estimate

    def read(i: int) -> complex:
        if i not in estimates:
            stats = _readout(alpha, beta, configs[i])
            g = sweep[i]
            estimates[i] = stats.mean_q / g + 1j * (2.0 * sigma**2 * stats.mean_p / g)
        return estimates[i]

    n = len(sweep)
    bounded = {}  # head index: (closed-form estimate, its _GRID_GAP bound)
    for i, cfg in enumerate(configs[:-2]):
        _check_grid(cfg)
        w, estimate = _closed_form(alpha, beta, cfg.sigma, cfg.g)
        if w - _GRID_GAP * eps * scale > _EXTINCT:
            bounded[i] = estimate, _GRID_GAP * eps * cfg.halfwidth / cfg.g * scale / w
        else:
            read(i)  # raises PostselectionLostError where the grid would
    e_prev, e_min = read(n - 2), read(n - 1)

    g_prev, g_min = sweep[-2], sweep[-1]
    floor = eps * configs[-1].halfwidth / g_min
    last = abs(e_min - e_prev)
    if n >= 3 and last > floor:
        # diffs[0], decided in closed form where the gap exceeds the bounds
        # of its estimates and C eps of itself, the rounding of abs(b - a)
        (a, da), (b, db) = (bounded.get(i) or (read(i), 0.0) for i in (0, 1))
        change = abs(b - a)
        if not abs(last - change) > da + db + _GRID_GAP * eps * change:
            change = abs(read(1) - read(0))
        if last > change:
            diffs = [abs(read(i + 1) - read(i)) for i in range(n - 1)]
            raise SweepDivergenceError(
                "weak-limit estimates move apart as g shrinks; "
                f"successive changes {[f'{d:.3e}' for d in diffs]}"
            )

    return (g_prev * e_min - g_min * e_prev) / (g_prev - g_min)


def sequential_disturbance(
    s: Scenario,
    p1: np.ndarray,
    p2: np.ndarray,
    sigma: float,
    g: float,
    grid_points: int = 4096,
) -> float:
    """Change in the second meter's reading caused by a preceding coupling.

    Both projectors couple at strength g to independent Gaussian pointers;
    after postselection the second pointer's position mean is compared with
    and without the first coupling. The readings are normalized by g (a
    reading is itself of order g), so the returned disturbance measures the
    shift of the extracted weak-value estimate and scales as g^2.

    The packet integrals are the closed forms of the module docstring, so
    no grid is built. ``grid_points`` is validated through ``MeterConfig``
    but unused; it stays only because the benchmark tracer
    (``perfbench/tracing.py``) reads it from this signature.
    """
    if g <= 0:
        raise ValueError("coupling strength g must be positive")
    batch = _Batch(s)
    p1, p2 = batch.prove(p1, "first meter coupling"), batch.prove(p2, "second meter coupling")

    MeterConfig(sigma=sigma, g=g, grid_points=grid_points)
    k = _overlap(sigma, g)
    overlap = np.array([[1.0, k], [k, 1.0]])
    q_moment = overlap * np.array([[0.0, g / 2.0], [g / 2.0, g]])

    splits2 = (_complement(p2), p2)
    solo = np.array([_amplitude(s, pk) for pk in splits2])
    weight0 = np.einsum("K,k,Kk->", solo.conj(), solo, overlap).real
    if weight0 <= _EXTINCT:
        raise PostselectionLostError(
            "postselection extinguishes the meter state; no statistics exist"
        )
    if not np.any(p1):
        return 0.0  # no first coupling at all
    without_first = np.einsum("K,k,Kk->", solo.conj(), solo, q_moment).real / weight0

    splits1 = (_complement(p1), p1)
    coeff = np.array([[_amplitude(s, pk, pj) for pk in splits2] for pj in splits1])
    weight = np.einsum("JK,jk,Jj,Kk->", coeff.conj(), coeff, overlap, overlap).real
    if weight <= _EXTINCT:
        raise PostselectionLostError(
            "postselection extinguishes the two-meter state; no statistics exist"
        )
    with_first = (
        np.einsum("JK,jk,Jj,Kk->", coeff.conj(), coeff, overlap, q_moment).real
        / weight
    )

    return abs(with_first - without_first) / g
