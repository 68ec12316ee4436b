"""Projective (strong) measurement statistics with and without postselection.

Probabilities are clamped to [0, 1] only after a tolerance check; values
outside [-1e-10, 1 + 1e-10], and NaN, raise instead of being hidden.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AblUndefinedError, ConsistencyError, ZeroProbabilityError
from .linalg import State, _act, _complement, as_operator
from .scenario import Scenario, _amplitude

_BOUNDS_TOL = 1e-10
_REAL_TOL = 1e-12

#: Squared-amplitude threshold below which a probability counts as zero.
_NULL_PROB = 1e-24


def _checked_probability(value: float, what: str) -> float:
    if not -_BOUNDS_TOL <= value <= 1.0 + _BOUNDS_TOL:  # a NaN fails too
        raise ConsistencyError(f"{what} = {value!r} lies outside [0, 1]")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class CollapseOutcome:
    """Result of projecting a state: outcome probability and the
    renormalized post-measurement state."""

    probability: float
    state: State


def born_prob(state: State, p: np.ndarray) -> float:
    """Outcome probability <psi|P|psi> for a projective measurement; ValueError on overflow."""
    return _born(state, as_operator(p))


def _born(state: State, p: np.ndarray) -> float:
    """``born_prob`` of an operator that ``as_operator`` returned."""
    value = complex(np.vdot(state.amps, _act(p, state.amps)))
    if not cmath.isfinite(value):
        raise ValueError("matrix element is not finite: the operator product overflows")
    if abs(value.imag) > _REAL_TOL:
        raise ConsistencyError(
            f"expectation value has imaginary part {value.imag!r}; not a projector?"
        )
    return _checked_probability(value.real, "Born probability")


def collapse(state: State, p: np.ndarray) -> CollapseOutcome:
    """Project a state and renormalize."""
    p = as_operator(p)
    probability = _born(state, p)
    if probability <= _NULL_PROB:
        raise ZeroProbabilityError("cannot collapse onto a zero-probability outcome")
    return CollapseOutcome(probability, State(_act(p, state.amps), state.labels).normalize())


def cond_prob_post(s: Scenario, p: np.ndarray) -> float:
    """Probability of passing postselection after the outcome p.

    This is |<post|U P|pre>|^2, the joint probability of the intermediate
    outcome and the final postselection; it factorizes as
    prob(post | outcome) * prob(outcome | pre).
    """
    return _cond_post(s, as_operator(p))


def _cond_post(s: Scenario, p: np.ndarray) -> float:
    """``cond_prob_post`` of an operator that ``as_operator`` returned. A
    square beyond floating-point range counts as inf, which the range check
    rejects."""
    try:
        value = abs(_amplitude(s, p)) ** 2
    except OverflowError:  # a Python float's ** raises where x * x gives inf
        value = math.inf
    return _checked_probability(value, "conditional probability")


def _hit_miss(s: Scenario, p: np.ndarray) -> tuple[float, float]:
    """``cond_prob_post`` of p and of 1 - p, each formed once for the
    two-outcome measurement {p, 1 - p}, of a p that ``as_operator``
    returned."""
    return _cond_post(s, p), _cond_post(s, _complement(p))


def abl_prob(s: Scenario, p: np.ndarray) -> float:
    """Probability of the outcome p given both pre- and postselection,
    for the two-outcome measurement {p, 1 - p}."""
    hit, miss = _hit_miss(s, as_operator(p))
    denominator = hit + miss
    if denominator <= _NULL_PROB:
        raise AblUndefinedError(
            "postselection is unreachable under this measurement; "
            "the conditional probability is undefined"
        )
    return _checked_probability(hit / denominator, "conditioned probability")


def bayes_check(s: Scenario, p: np.ndarray) -> float:
    """Residual of the consistency relation tying the two conditional
    probabilities together.

    Left side: prob(outcome | post, pre) * prob(post | pre); right side:
    prob(post | outcome, pre) * prob(outcome | pre), with prob(post | pre)
    evaluated for the two-outcome measurement {p, 1 - p}. Returns 0 when
    the outcome probability vanishes (conditioning on a null event).
    """
    p = as_operator(p)
    outcome_prob = _born(s.pre_state, p)
    if outcome_prob <= _NULL_PROB:
        return 0.0
    hit, miss = _hit_miss(s, p)
    post_prob = hit + miss
    if post_prob <= _NULL_PROB:
        return 0.0
    lhs = _checked_probability(hit / post_prob, "conditioned probability") * post_prob
    rhs = (hit / outcome_prob) * outcome_prob
    return abs(lhs - rhs)
