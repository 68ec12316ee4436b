"""Projective (strong) measurement statistics with and without postselection.

Probabilities are clamped to [0, 1] only after a tolerance check; values
outside [-BOUNDS_TOL, 1 + BOUNDS_TOL], and NaN, raise instead of being
hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AblUndefinedError, ConsistencyError, ZeroProbabilityError
from .linalg import State, _act, _element, as_operator
from .scenario import Scenario, _Record
from .tolerances import BOUNDS_TOL, NULL_PROB, SCALAR_TOL


def _checked_probability(value: float, what: str) -> float:
    if not -BOUNDS_TOL <= value <= 1.0 + BOUNDS_TOL:  # a NaN fails too
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
    p = as_operator(p)
    with np.errstate(over="ignore", invalid="ignore"):
        return _born(state, _act(p, state.amps))


def _born(state: State, ket: np.ndarray) -> float:
    """``born_prob`` from ket = P|psi>, of a P that ``as_operator`` returned."""
    value = _element(state.amps, ket)
    if abs(value.imag) > SCALAR_TOL:
        raise ConsistencyError(
            f"expectation value has imaginary part {value.imag!r}; not a projector?"
        )
    return _checked_probability(value.real, "Born probability")


def collapse(state: State, p: np.ndarray) -> CollapseOutcome:
    """Project a state and renormalize; ValueError on overflow."""
    p = as_operator(p)
    with np.errstate(over="ignore", invalid="ignore"):
        ket = _act(p, state.amps)
        probability = _born(state, ket)
        if probability <= NULL_PROB:
            raise ZeroProbabilityError("cannot collapse onto a zero-probability outcome")
        return CollapseOutcome(probability, State(ket, state.labels).normalize())


def cond_prob_post(s: Scenario, p: np.ndarray) -> float:
    """Probability of passing postselection after the outcome p.

    This is |<post|U P|pre>|^2, the joint probability of the intermediate
    outcome and the final postselection; it factorizes as
    prob(post | outcome) * prob(outcome | pre). ValueError on overflow.
    The numerator <post|U P|pre> of an operator the scenario's record holds
    is kept there.
    """
    record, p = s.channels._operator(p)
    with np.errstate(over="ignore", invalid="ignore"):
        return _cond_post(record.amplitude(p))


def _cond_post(amplitude: complex) -> float:
    """``cond_prob_post`` of its numerator <post|U P|pre>. A square beyond
    floating-point range counts as inf, which the range check rejects."""
    try:
        value = abs(amplitude) ** 2
    except OverflowError:  # a Python float's ** raises where x * x gives inf
        value = math.inf
    return _checked_probability(value, "conditional probability")


def _hit_miss(record: _Record, p: np.ndarray) -> tuple[float, float]:
    """``cond_prob_post`` of p and of 1 - p, each formed once for the
    two-outcome measurement {p, 1 - p}, of the operator and record that
    ``_Channels._operator`` returned. Both numerators of an operator the
    scenario's record holds are kept there."""
    return _cond_post(record.amplitude(p)), _cond_post(record.miss_amplitude(p))


def abl_prob(s: Scenario, p: np.ndarray) -> float:
    """Probability of the outcome p given both pre- and postselection,
    for the two-outcome measurement {p, 1 - p}. ValueError on overflow.
    The numerators of p and of 1 - p, for a p the scenario's record holds,
    are kept there."""
    record, p = s.channels._operator(p)
    with np.errstate(over="ignore", invalid="ignore"):
        hit, miss = _hit_miss(record, p)
    denominator = hit + miss
    if denominator <= NULL_PROB:
        raise AblUndefinedError(
            "postselection is unreachable under this measurement; "
            "the conditional probability is undefined"
        )
    # hit and miss are checked in [0, 1] and their sum, above NULL_PROB,
    # rounds to at least hit: the ratio needs no range check
    return hit / denominator


def bayes_check(s: Scenario, p: np.ndarray) -> float:
    """Residual of the consistency relation tying the two conditional
    probabilities together.

    Left side: prob(outcome | post, pre) * prob(post | pre); right side:
    prob(post | outcome, pre) * prob(outcome | pre), with prob(post | pre)
    evaluated for the two-outcome measurement {p, 1 - p}. Returns 0 when
    the outcome probability vanishes (conditioning on a null event).
    ValueError on overflow.
    """
    record, p = s.channels._operator(p)
    with np.errstate(over="ignore", invalid="ignore"):
        outcome_prob = _born(s.pre_state, _act(p, s.pre_state.amps))
        if outcome_prob <= NULL_PROB:
            return 0.0
        hit, miss = _hit_miss(record, p)
    post_prob = hit + miss
    if post_prob <= NULL_PROB:
        return 0.0
    lhs = (hit / post_prob) * post_prob
    rhs = (hit / outcome_prob) * outcome_prob
    return abs(lhs - rhs)
