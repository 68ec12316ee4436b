"""Finite-strength von Neumann pointer simulation for projector observables.

The meter starts in a Gaussian wavepacket phi(q) with Var(Q) = sigma^2,
i.e. phi(q) proportional to exp(-q^2 / (4 sigma^2)). Coupling a projector P
to the pointer momentum splits the joint state into an unshifted component
(1 - P)|pre> . phi(q) and a shifted component P|pre> . phi(q - g); after
postselection the pointer wavefunction is

    psi(q) = alpha phi(q) + beta phi(q - g),
    alpha = <post|U (1 - P)|pre>,  beta = <post|U P|pre>.

The readouts (measure_pointer, weak_limit_estimate) are quadratures on a
uniform grid of 4,096 points over [-(12 sigma + 2 g), 12 sigma + 2 g]. The
grid spacing must not exceed sigma / 2, so g at most 505.875 sigma, or
MeterGridError is raised: up to that spacing the trapezoid sums match the
closed-form moments to about 1e-16, at a spacing near sigma they can be
off by 1e-7, and beyond it the readouts are wrong. A non-zero coupling at
or below eps * halfwidth raises MeterGridError too: there q - g rounds to
q on the grid and the shift is lost. The q-derivative needed for the
momentum mean is evaluated from the exact derivative of the Gaussian
components; finite differences at the grid's resolution bias the momentum
readout by more than the advertised tolerances. With this convention mean_q / g tends to Re and
2 sigma^2 mean_p / g to Im of the weak value as g tends to zero.

One kernel reads every grid: the couplings of one call are the rows of a
single 2-D pass, written in place into one workspace, and each row keeps
the bits of three np.trapezoid calls on its own grid. measure_pointer
reads one row, a weak-limit sweep its two smallest couplings as two rows.

sequential_disturbance builds no grid. Packet a, the pointer shifted by
a g, overlaps packet b by exp(-((a - b) g)^2 / (8 sigma^2)), and their
q-moment is that overlap times (a + b) g / 2; both integrals are exact.
With k the overlap of the two packets of a meter, the two-meter weight and
q-moment are the one-meter ones, w0 and m0 (the weight and the real part of
the moment of _moments, whose m / w is a sweep's closed-form estimate), less
(1 - k) times the terms W_x and M_x in which the first meter's branches
differ. With q-moments in units of g, the disturbance is
(1 - k) |m0 W_x - w0 M_x| / (w0 w), for w the two-meter weight: no two
readings are subtracted, and it is exactly 0 where k rounds to 1 or the
first projector is 0.

A weak-limit sweep counts as divergent only when its last change exceeds
both its first change and the rounding floor of one estimate,
eps * halfwidth(g_min) / g_min: a readout carries rounding noise of order
eps times the grid halfwidth, and the estimate divides it by g.

A sweep builds the grids of its two smallest couplings, whose readouts make
the estimate. Every larger coupling gets the grid checks without a grid, and
the closed-form weight w of the exact packet moments: when w, less its bound
GRID_GAP * eps * (|alpha|^2 + |beta|^2), exceeds the extinction cut, the
grid cannot lose the postselection, and otherwise the point is read on its
grid where the sweep reaches it. The first change is the only other use of
the larger couplings; it is taken from the closed-form estimates when it
differs from the last change by more than their bound GRID_GAP * eps *
(halfwidth / g) (|alpha|^2 + |beta|^2) / w, and read on the grid otherwise.
A divergent sweep reads every point, so its message prints the grid's
changes. GRID_GAP, the C of these bounds, is over 1000 times the largest
rounding gap measured between a grid readout and its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeterGridError, PostselectionLostError, SweepDivergenceError
from .scenario import Scenario, _amplitude
from .tolerances import EXTINCT, GRID_GAP

#: The float rounding unit eps.
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MeterConfig:
    """Pointer width sigma and coupling strength g.

    The grid has ``grid_points`` = 4,096 points, a constant of the class,
    over ``halfwidth`` = 12 sigma + 2 g on either side of zero, wide enough
    that the pointer density at the edges is negligible. Sigma and g are
    rejected when a readout term would overflow: the square of the widest
    packet offset |q - g| = halfwidth + g, and the momentum integrand, of
    order (halfwidth + g) / sigma^3.
    """

    sigma: float
    g: float
    grid_points = 4096

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
    floor = _EPS * cfg.halfwidth
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


def _packets(x: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    """The pointer packet at each offset in ``x``, written to ``out``: the
    steps and bits of (2 pi sigma^2)^(-1/4) exp(-x^2 / (4 sigma^2))."""
    phi = np.square(x, out=out)
    phi /= -(4.0 * sigma**2)  # -(x^2) / d and x^2 / -d are one rounding of one value
    np.exp(phi, out=phi)
    phi *= (2.0 * np.pi * sigma**2) ** -0.25
    return phi


def _split(s: Scenario, p: np.ndarray) -> tuple[complex, complex]:
    """alpha = <post|U (1 - P)|pre> and beta = <post|U P|pre> of a checked P;
    beta, and the proof of P, kept in the scenario's record when that holds
    P."""
    record = s.channels._record(p)
    beta = record.amplitude(record.prove(p, "meter coupling"))
    return _amplitude(s) - beta, beta


def measure_pointer(s: Scenario, p: np.ndarray, cfg: MeterConfig) -> PointerStats:
    """Postselected pointer statistics for a single projector coupling."""
    return _readouts(*_split(s, p), [cfg])[0]


def _trapezoid(y: np.ndarray, steps: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``np.trapezoid(y, q)`` of each row along the last axis, with ``steps =
    np.diff(q)`` formed once per grid and the terms written to ``scratch``
    (y's shape): the same bits. Halving is exact, so the parts of each term
    are multiplied by 0.5. numpy's division of a finite complex term by 2.0
    differs from that only in the sign of a zero part, and a sum, which numpy
    starts at +0, never shows that sign."""
    terms = np.add(y[..., 1:], y[..., :-1], out=scratch[..., 1:])
    terms *= steps
    parts = terms.view(float)
    parts *= 0.5
    return terms.sum(axis=-1)


def _complex(planes: np.ndarray) -> np.ndarray:
    """Two contiguous float planes as one complex plane of their row shape."""
    return planes.reshape(-1).view(complex).reshape(planes.shape[1:])


def _readouts(alpha: complex, beta: complex, configs: list[MeterConfig]) -> list[PointerStats]:
    """Readouts of configs with one sigma, each config one row of a single
    2-D pass. Each row keeps the bits of three ``np.trapezoid`` calls on its
    own grid. Errors follow the configs' order: a row's grid
    checks, then its extinction cut.

    Every array of the pass is a view of one workspace of 13 float planes,
    written in place: one allocation per call, where fresh temporaries for
    each step let the allocator hand their pages back to the system and
    fault them in again on the next call."""
    rows, failure = [], None
    for cfg in configs:
        try:
            _check_grid(cfg)
        except MeterGridError as exc:
            failure = exc
            break
        rows.append(cfg)
    stats = []
    if rows:
        sigma, n = rows[0].sigma, rows[0].grid_points
        halfwidth = np.array([[cfg.halfwidth] for cfg in rows])
        work = np.empty((13, len(rows), n))
        offsets, packets, moments, scratch = work[0:2], work[2:4], work[4:6], work[6:8]
        psi, dpsi, steps = _complex(work[8:10]), _complex(work[10:12]), work[12, :, 1:]

        # offsets: q = np.linspace(-halfwidth, halfwidth, n) and q - g
        spacing = (halfwidth - -halfwidth) / (n - 1)
        q = np.multiply(np.arange(n, dtype=float), spacing, out=offsets[0])
        q -= halfwidth
        q[:, -1] = halfwidth[:, 0]
        np.subtract(q, [[cfg.g] for cfg in rows], out=offsets[1])
        np.subtract(q[:, 1:], q[:, :-1], out=steps)
        phi0, phig = _packets(offsets, sigma, out=packets)

        np.multiply(alpha, phi0, out=psi)
        term = np.multiply(beta, phig, out=_complex(scratch))
        psi += term
        density = np.abs(psi, out=moments[0])
        np.square(density, out=density)
        np.multiply(q, density, out=moments[1])
        success, q_sum = _trapezoid(moments, steps, scratch)

        # dpsi from the packets' exact slopes -offset / (2 sigma^2)
        slopes = np.divide(offsets, -(2.0 * sigma**2), out=offsets)
        np.multiply(alpha, slopes[0], out=dpsi)
        dpsi *= phi0
        np.multiply(beta, slopes[1], out=term)
        term *= phig
        dpsi += term
        flux = np.conj(psi, out=psi)
        flux *= dpsi
        p_sum = _trapezoid(flux, steps, dpsi).imag

        for w, mq, mp in zip(success.tolist(), q_sum.tolist(), p_sum.tolist()):
            if w <= EXTINCT:
                raise PostselectionLostError(
                    "postselection extinguishes the meter state; no statistics exist"
                )
            stats.append(PointerStats(mean_q=mq / w, mean_p=mp / w, success_prob=w))
    if failure is not None:
        raise failure
    return stats


def _overlap(sigma: float, g: float) -> float:
    """Overlap of the pointer packet with its copy shifted by g."""
    return math.exp(-g * g / (8.0 * sigma * sigma))


def _moments(alpha: complex, beta: complex, k: float) -> tuple[float, complex]:
    """Postselection weight w and complex q-moment m, in units of g, of the
    pointer state alpha phi(q) + beta phi(q - g) whose two packets overlap
    by k: with cross = conj(alpha) beta,

        w = |alpha|^2 + |beta|^2 + 2 k Re(cross),
        m = |beta|^2 + k cross,

    so that m / w = mean_q / g + i 2 sigma^2 mean_p / g, the weak-limit
    estimate, where w is positive."""
    cross = alpha.conjugate() * beta
    return abs(alpha) ** 2 + abs(beta) ** 2 + 2.0 * k * cross.real, abs(beta) ** 2 + k * cross


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

    Only the two smallest couplings are read on the grid, as two rows of
    one pass, unless another point's bits are needed (see the module
    docstring); the result and every error are those of reading them all.
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
    scale = abs(alpha) ** 2 + abs(beta) ** 2

    estimates = {}  # sweep index: grid estimate

    def read(*indices: int) -> list[complex]:
        """The grid estimates at ``indices``, the unread ones as rows of one pass."""
        unread = [i for i in indices if i not in estimates]
        for i, stats in zip(unread, _readouts(alpha, beta, [configs[i] for i in unread])):
            g = sweep[i]
            estimates[i] = stats.mean_q / g + 1j * (2.0 * sigma**2 * stats.mean_p / g)
        return [estimates[i] for i in indices]

    n = len(sweep)
    bounded = {}  # head index: (closed-form estimate, its GRID_GAP bound)
    for i, cfg in enumerate(configs[:-2]):
        _check_grid(cfg)
        w, m = _moments(alpha, beta, _overlap(cfg.sigma, cfg.g))
        if w - GRID_GAP * _EPS * scale > EXTINCT:
            bounded[i] = m / w, GRID_GAP * _EPS * cfg.halfwidth / cfg.g * scale / w
        else:
            read(i)  # raises PostselectionLostError where the grid would
    e_prev, e_min = read(n - 2, n - 1)

    g_prev, g_min = sweep[-2], sweep[-1]
    floor = _EPS * configs[-1].halfwidth / g_min
    last = abs(e_min - e_prev)
    if n >= 3 and last > floor:
        # diffs[0], decided in closed form where the gap exceeds the bounds
        # of its estimates and C eps of itself, the rounding of abs(b - a)
        (a, da), (b, db) = (bounded.get(i) or (*read(i), 0.0) for i in (0, 1))
        change = abs(b - a)
        if not abs(last - change) > da + db + GRID_GAP * _EPS * change:
            a, b = read(0, 1)
            change = abs(b - a)
        if last > change:
            grid = read(*range(n))
            diffs = [abs(b - a) for a, b in zip(grid, grid[1:])]
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
    no grid is built. ``grid_points`` is ignored; it stays only because the
    benchmark tracer (``perfbench/tracing.py``) reads it from this
    signature.
    """
    if g <= 0:
        raise ValueError("coupling strength g must be positive")
    record = s.channels._record(p1, p2)
    p1, p2 = record.prove(p1, "first meter coupling"), record.prove(p2, "second meter coupling")

    MeterConfig(sigma=sigma, g=g)
    k = _overlap(sigma, g)
    # <P1> and <P2> from the record, which keeps those of operators it
    # holds; <P2 P1> formed here, as a kept product would move its bits
    one, first = _amplitude(s), record.amplitude(p1)
    second, both = record.amplitude(p2), _amplitude(s, p2, p1)
    # a_K = <bra|S2_K|pre> and c_JK = <bra|S2_K S1_J|pre>, with S_0 = 1 - P
    # and S_1 = P; the moments below are q-moments in units of g
    a0, a1 = one - second, second
    c10, c11 = first - both, both
    c00, c01 = a0 - c10, second - both

    def re(x: complex, y: complex) -> float:
        return (x.conjugate() * y).real

    w0, m0 = _moments(a0, a1, k)
    if w0 <= EXTINCT:
        raise PostselectionLostError(
            "postselection extinguishes the meter state; no statistics exist"
        )
    m0 = m0.real
    # the terms of the first meter's differing branches (J != j), whose
    # packets overlap by k where the one-meter sums count them at 1
    w_cross = 2.0 * (re(c00, c10) + re(c01, c11) + k * (re(c00, c11) + re(c01, c10)))
    m_cross = 2.0 * re(c01, c11) + k * (re(c00, c11) + re(c01, c10))
    lost = 1.0 - k
    w = w0 - lost * w_cross
    if w <= EXTINCT:
        raise PostselectionLostError(
            "postselection extinguishes the two-meter state; no statistics exist"
        )
    # (m0 - lost m_cross) / w - m0 / w0, which never subtracts two readings
    return lost * abs(m0 * w_cross - w0 * m_cross) / (w0 * w)
