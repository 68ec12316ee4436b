"""The threshold table and one boundary test per threshold.

Each test puts an exactly representable value at the cut of one check, and
its ``np.nextafter`` just beyond, through that check, and asserts the side
that ``weaklogic.tolerances`` documents: ``<=`` for every threshold but
POLE_TOL, which is strict.
"""

import ast
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weaklogic
from weaklogic import (
    AblUndefinedError,
    ConsistencyError,
    NearPoleWarning,
    PostselectionLostError,
    ScenarioError,
    State,
    ZeroProbabilityError,
    abl_prob,
    born_prob,
    build_scenario,
    catalog,
    collapse,
    is_projector,
    linalg,
    meter,
    sequential_disturbance,
    tolerances,
    weak_value,
)
from weaklogic.strong import _checked_probability
from helpers import readout_reference, within_struct_tol

PACKAGE = Path(weaklogic.__file__).parent

#: The documented cuts, written out: the tests below put values at these
#: and not at the library's names, so that a moved threshold fails them.
STRUCT_TOL = 1e-10
SCALAR_TOL = 1e-12
ZERO_TOL = 1e-12
POLE_TOL = 1e-6
BOUNDS_TOL = 1e-10
NULL_PROB = 1e-24
EXTINCT = 1e-14


def _up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def _down(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


class TestTable:
    def test_only_the_table_assigns_a_threshold(self):
        # a module-level name bound to float literals, or to arithmetic on
        # them, is a threshold; tolerances.py alone has them
        found = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                    literals = [n for n in ast.walk(node.value) if isinstance(n, ast.Constant)]
                    if literals and all(isinstance(n.value, float) for n in literals):
                        found.append(path.name)
        assert set(found) == {"tolerances.py"}

    def test_seven_independent_values(self):
        values = {
            name: value for name, value in vars(tolerances).items() if name.isupper()
        }
        assert values == {
            "STRUCT_TOL": STRUCT_TOL, "SCALAR_TOL": SCALAR_TOL, "ZERO_TOL": ZERO_TOL,
            "POLE_TOL": POLE_TOL, "BOUNDS_TOL": BOUNDS_TOL, "NULL_PROB": NULL_PROB,
            "EXTINCT": EXTINCT, "GRID_GAP": 1e5,
        }
        # NULL_PROB is derived, and bit for bit the 1e-24 it replaced
        assert tolerances.NULL_PROB == tolerances.ZERO_TOL * tolerances.ZERO_TOL
        assert tolerances.NULL_PROB.hex() == NULL_PROB.hex()

    def test_the_library_reads_the_table(self):
        assert linalg.STRUCT_TOL is weaklogic.STRUCT_TOL is tolerances.STRUCT_TOL
        assert linalg.SCALAR_TOL is weaklogic.SCALAR_TOL is tolerances.SCALAR_TOL
        assert meter.EXTINCT is tolerances.EXTINCT and meter.GRID_GAP is tolerances.GRID_GAP

    def test_meter_config_has_no_grid_option(self):
        assert [f.name for f in dataclasses.fields(meter.MeterConfig)] == ["sigma", "g"]


class TestStructTol:
    """``is_projector``: p = [[1, t], [0, 0]] is idempotent in exact
    arithmetic and in floats, and its self-adjointness residual has t and
    -t off the diagonal."""

    @staticmethod
    def _tilted(t):
        return np.array([[1.0, t], [0.0, 0.0]], dtype=complex)

    def test_at_the_cut_is_a_projector(self):
        assert is_projector(self._tilted(STRUCT_TOL))
        assert is_projector(self._tilted(-STRUCT_TOL * 1j))

    def test_just_beyond_is_not(self):
        assert not is_projector(self._tilted(_up(STRUCT_TOL)))
        assert not is_projector(self._tilted(-_up(STRUCT_TOL) * 1j))


#: Residual entries: a modulus from the band (STRUCT_TOL/2, STRUCT_TOL] at a
#: random phase, a part at most one ulp from STRUCT_TOL or
#: STRUCT_TOL/sqrt(2), or NaN.
_BAND = st.builds(
    lambda fraction, phase: STRUCT_TOL * fraction * complex(math.cos(phase), math.sin(phase)),
    st.floats(0.5, 1.0, exclude_min=True),
    st.floats(0.0, 2 * math.pi),
)
_ULPS = st.builds(
    lambda base, re, im: complex(re, im) * base,
    st.sampled_from(
        [f(t) for t in (STRUCT_TOL, STRUCT_TOL / math.sqrt(2)) for f in (_down, float, _up)]
    ),
    st.sampled_from([1.0, -1.0, 0.0]),
    st.sampled_from([1.0, -1.0, 0.0]),
)
_ENTRY = st.one_of(_BAND, _ULPS, st.just(complex(np.nan, 0.0)), st.just(complex(0.0, np.nan)))


class TestPlainResidualTest:
    """``_within_struct_tol`` is the single comparison ``np.max(np.abs(r))
    <= STRUCT_TOL``: the same decision as the test oracle on every input,
    including those where the old two-stage shortcut took the moduli."""

    @given(st.lists(_ENTRY, min_size=1, max_size=9), st.booleans())
    @settings(max_examples=500, deadline=None)
    @example([complex(STRUCT_TOL, 0.0)], False)
    @example([complex(_up(STRUCT_TOL), 0.0)], True)
    @example([complex(0.9 * STRUCT_TOL, 0.9 * STRUCT_TOL)], False)
    def test_agrees_with_the_oracle(self, entries, square):
        r = np.array(entries, dtype=complex)
        if square:
            r = np.resize(r, (3, 3))
        assert linalg._within_struct_tol(r) is within_struct_tol(r)
        assert linalg._self_adjoint(r) is within_struct_tol(r - r.conj().T)


class TestScalarTol:
    def test_imaginary_part_of_a_born_probability(self):
        state = State([1.0, 0.0], ("a", "b"))

        def tilted(t):
            return np.array([[0.5 + t * 1j, 0.0], [0.0, 0.0]])

        assert born_prob(state, tilted(SCALAR_TOL)) == 0.5
        assert born_prob(state, tilted(-SCALAR_TOL)) == 0.5
        with pytest.raises(ConsistencyError, match="imaginary part"):
            born_prob(state, tilted(_up(SCALAR_TOL)))

    def test_a_norm_below_it_is_zero(self):
        # the one strict use: a norm of SCALAR_TOL still normalizes
        assert State([SCALAR_TOL, 0.0], ("a", "b")).norm == SCALAR_TOL
        assert State([SCALAR_TOL, 0.0], ("a", "b")).normalize().amps[0] == 1.0
        with pytest.raises(ValueError, match="zero norm"):
            State([_down(SCALAR_TOL), 0.0], ("a", "b")).normalize()

    def test_unit_norm_of_a_state(self):
        # |n - 1| is a multiple of 2^-52, which SCALAR_TOL is not: the cut
        # lies between the largest accepted norm and the float above it
        n = 1.0 + math.floor(SCALAR_TOL / 2.0**-52) * 2.0**-52
        s = catalog("three-box")
        for norm, ok in ((n, True), (_up(n), False)):
            st_ = State([norm, 0.0, 0.0], s.labels)
            assert st_.norm == norm
            if ok:
                dataclasses.replace(s, pre_state=st_)
            else:
                with pytest.raises(ScenarioError, match="unit norm"):
                    dataclasses.replace(s, pre_state=st_)


def _postselected(pre, post):
    """A two-level scenario with these exact states, not renormalized."""
    base = build_scenario("cut", ("a", "b"), [1.0, 0.0], [1.0, 0.0])
    labels = base.labels
    return dataclasses.replace(
        base, pre_state=State(pre, labels), post_state=State(post, labels)
    )


class TestZeroTol:
    def test_lost_postselection(self):
        # <post|pre> = conj(post[0]) exactly
        a = np.array([1.0, 0.0])
        with pytest.raises(PostselectionLostError):
            weak_value(_postselected([1.0, 0.0], [ZERO_TOL, 1.0]), a)
        with pytest.warns(NearPoleWarning):
            w = weak_value(_postselected([1.0, 0.0], [_up(ZERO_TOL), 1.0]), a)
        assert w.denominator == _up(ZERO_TOL)

    def test_vanishing_numerator(self):
        # pre = [1, 2^-30] has norm 1.0 in floats; <post|A|pre> = post[0]
        a = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearPoleWarning)
            at = weak_value(_postselected([1.0, 2.0**-30], [ZERO_TOL, 1.0]), a)
            beyond = weak_value(_postselected([1.0, 2.0**-30], [_up(ZERO_TOL), 1.0]), a)
        assert at.numerator == ZERO_TOL and at.is_zero
        assert beyond.numerator == _up(ZERO_TOL) and not beyond.is_zero


class TestPoleTol:
    def test_near_pole_is_strict(self):
        a = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", NearPoleWarning)
            at = weak_value(_postselected([1.0, 0.0], [POLE_TOL, 1.0]), a)
        assert at.denominator == POLE_TOL and not at.near_pole
        with pytest.warns(NearPoleWarning, match="below 1e-06"):
            below = weak_value(_postselected([1.0, 0.0], [_down(POLE_TOL), 1.0]), a)
        assert below.near_pole


class TestBoundsTol:
    def test_probability_range(self):
        top = 1.0 + BOUNDS_TOL
        assert _checked_probability(-BOUNDS_TOL, "p") == 0.0
        assert _checked_probability(top, "p") == 1.0
        for value in (_down(-BOUNDS_TOL), _up(top)):
            with pytest.raises(ConsistencyError, match="outside"):
                _checked_probability(value, "p")

    def test_through_born_prob(self):
        state = State([1.0], ("a",))
        assert born_prob(state, [[-BOUNDS_TOL]]) == 0.0
        with pytest.raises(ConsistencyError):
            born_prob(state, [[_down(-BOUNDS_TOL)]])


class TestNullProb:
    def test_collapse(self):
        # <psi|M|psi> = c for psi = (1, 0), and M psi = (c, 1) normalizes
        state = State([1.0, 0.0], ("a", "b"))

        def m(c):
            return np.array([[c, 0.0], [1.0, 0.0]])

        with pytest.raises(ZeroProbabilityError):
            collapse(state, m(NULL_PROB))
        assert collapse(state, m(_up(NULL_PROB))).probability == _up(NULL_PROB)

    def test_abl_prob(self):
        # hit = |<post|P|pre>|^2 = post[0]^2 and miss = 0: ZERO_TOL squared
        # is NULL_PROB to the bit, the float above squares a few ulps above
        p = np.array([1.0, 0.0])
        at = _postselected([1.0, 0.0], [ZERO_TOL, 1.0])
        beyond = _postselected([1.0, 0.0], [_up(ZERO_TOL), 1.0])
        with pytest.raises(AblUndefinedError):
            abl_prob(at, p)
        assert abl_prob(beyond, p) == 1.0


class TestExtinct:
    """The meter's postselection weight at the cut is extinguished."""

    #: sequential_disturbance's amplitudes (<post|U|pre>, <post|U P1|pre>,
    #: <post|U P2|pre>, <post|U P2 P1|pre>), at a coupling whose packets are
    #: apart (overlap 0), that put a weight exactly at the cut and at the
    #: float above it: the one-meter weight |one - second|^2 + |second|^2,
    #: and the two-meter weight (one - first)^2 + first^2 where the
    #: one-meter weight one^2 is 1.87e-14. Python scalar arithmetic, so the
    #: same bits on every host.
    WEIGHTS = {
        "meter": (
            (float.fromhex("0x1.ad7f2dabcaefcp-24"), 0.0, 2.0**-46, 0.0),
            (float.fromhex("0x1.ad7f2babcaf36p-24"), 0.0, 2.0**-47, 0.0),
        ),
        "two-meter": (
            (float.fromhex("0x1.255a45eada923p-23"), float.fromhex("0x1.ad815c9efb1a4p-25"), 0.0, 0.0),
            (float.fromhex("0x1.255b6f4af3f53p-23"), float.fromhex("0x1.ad8c5b5eebd6fp-25"), 0.0, 0.0),
        ),
    }

    @staticmethod
    def _disturbance(monkeypatch, amplitudes):
        values = iter(amplitudes)
        monkeypatch.setattr(meter, "_amplitude", lambda s, *ops: complex(next(values)))
        s = catalog("three-box")
        assert meter._overlap(1.0, 100.0) == 0.0
        return sequential_disturbance(s, s.channel("A"), s.channel("B"), 1.0, 100.0)

    @pytest.mark.parametrize("state", sorted(WEIGHTS))
    def test_two_meter_readout(self, monkeypatch, state):
        at, above = self.WEIGHTS[state]
        with pytest.raises(PostselectionLostError, match=f"extinguishes the {state} state"):
            self._disturbance(monkeypatch, at)
        assert self._disturbance(monkeypatch, above) >= 0.0

    def test_grid_readout(self):
        # the grid weight of alpha phi(q) is about alpha^2; the readout
        # oracle, whose bits the meter keeps, finds an alpha and g putting
        # it exactly at the cut and one the float above it
        cut, above = EXTINCT, _up(EXTINCT)
        found = {}
        root = math.sqrt(cut)
        for g in (0.1, 0.2, 0.3, 0.5, 1.0, 2.0):
            for k in range(-100, 100):
                alpha = complex(root + k * np.spacing(root))
                w = readout_reference(alpha, 0j, 1.0, g)[2]
                if w in (cut, above):
                    found.setdefault(w, (alpha, g))
        assert set(found) == {cut, above}
        alpha, g = found[cut]
        with pytest.raises(PostselectionLostError, match="extinguishes the meter state"):
            meter._readouts(alpha, 0j, [meter.MeterConfig(sigma=1.0, g=g)])
        alpha, g = found[above]
        assert meter._readouts(alpha, 0j, [meter.MeterConfig(sigma=1.0, g=g)])[0].success_prob == above
