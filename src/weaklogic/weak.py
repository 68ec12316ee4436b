"""Weak values of operators between pre- and postselected states."""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NearPoleWarning, PostselectionLostError
from .linalg import as_operator
from .scenario import Scenario, _numerators
from .tolerances import POLE_TOL, ZERO_TOL


@dataclass(frozen=True)
class WeakValue:
    """Complex weak value with its defining matrix elements.

    ``is_zero`` tests the numerator <post|U A|pre> against an absolute
    tolerance, not the ratio, so vanishing is well defined even near a small
    denominator. A non-vanishing numerator is exactly the condition for the
    measuring meter to register at all, which is what channel-presence
    statements rest on. ``near_pole`` warns that the denominator is small
    enough for the ratio to be unrepresentative of meter readings.
    """

    value: complex
    numerator: complex
    denominator: complex
    is_zero: bool
    near_pole: bool


def weak_value(s: Scenario, op: np.ndarray) -> WeakValue:
    """Weak value <post|U A|pre> / <post|U|pre> of an arbitrary operator;
    ValueError where the numerator or the ratio overflows. The numerator of
    an operator the scenario's record holds is kept there; the
    ``WeakValue`` is built, and warns near the pole, at each call."""
    op = as_operator(op)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _weak_value(s, lambda: _numerators(s, op).amplitude(op), stacklevel=3)
    if not cmath.isfinite(w.value):
        raise ValueError("weak value is not finite: it overflows")
    return w


def _weak_value(s: Scenario, amplitude: Callable[[], complex], stacklevel: int = 2) -> WeakValue:
    """A new ``WeakValue`` whose numerator ``amplitude()`` takes, once the
    postselection is known not to be lost. A NearPoleWarning names the frame
    ``stacklevel`` up: by default the caller, which ``weak_value`` passes on
    as its own caller."""
    denominator = s.post_overlap
    if abs(denominator) <= ZERO_TOL:
        raise PostselectionLostError(
            "postselection overlap vanishes; no weak value exists"
        )
    numerator = amplitude()
    near_pole = abs(denominator) < POLE_TOL
    if near_pole:
        warnings.warn(
            f"postselection overlap {abs(denominator):.3e} is below {POLE_TOL:g}; "
            "weak value may not be representative of meter readings",
            NearPoleWarning,
            stacklevel=stacklevel,
        )
    return WeakValue(
        value=numerator / denominator,
        numerator=numerator,
        denominator=denominator,
        is_zero=abs(numerator) <= ZERO_TOL,
        near_pole=near_pole,
    )


def weak_value_expr(s: Scenario, text: str) -> WeakValue:
    """Weak value of a projector expression over the scenario's channels. The
    text's operator and its numerator are taken once per scenario, in the
    record that ``audit_all`` also keeps (``scenario._Record``); the
    ``WeakValue`` is built, and warns near the pole, at each call."""
    record = s.channels._kept()
    op = record.fold(text)
    return _weak_value(s, lambda: record.amplitude(op), stacklevel=3)
