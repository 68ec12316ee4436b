"""Two-state time symmetry: a scenario read backwards keeps every verdict.

The reversed scenario swaps pre and post, takes U to U^dagger and maps each
channel P to U P U^dagger. A weak value <post|U P|pre> / <post|U|pre> then
becomes <pre|P U^dagger|post> / <pre|U^dagger|post>, its complex conjugate
(Aharonov, Bergmann & Lebowitz, PR 134, B1410 (1964)). Zero patterns are
kept, so each audit pair keeps its error or its case.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklogic import CATALOG_NAMES, audit_all, build_scenario, catalog, default_audit_pairs
from helpers import rotated_pigeonhole

#: Largest |w - conj(w_reversed)| allowed for a weak value of an audit.
WEAK_TOL = 1e-13


def reversed_scenario(s):
    """``s`` read backwards: pre <-> post, U -> U^dagger, P -> U P U^dagger."""
    channels, evolution = s.channels, s.evolution
    if evolution is not None:
        channels = {
            name: evolution @ (np.diag(p) if p.ndim == 1 else p) @ evolution.conj().T
            for name, p in channels.items()
        }
        evolution = evolution.conj().T
    return build_scenario(
        f"{s.name}-reversed", s.labels, s.post_state.amps, s.pre_state.amps, evolution, channels
    )


def assert_time_symmetric(s, pairs):
    forward = audit_all(s, pairs).entries
    backward = audit_all(reversed_scenario(s), pairs).entries
    assert len(forward) == len(backward) == len(pairs)
    for f, b in zip(forward, backward):
        where = f"{f.kind} {f.expr_a} | {f.expr_b}"
        assert b.error == f.error, where
        if f.verdict is None:
            continue
        assert b.verdict.case is f.verdict.case, where
        for wf, wb in zip(f.verdict.weak_values, b.verdict.weak_values):
            assert abs(wb.value - wf.value.conjugate()) <= WEAK_TOL, where


def pigeonhole_pairs(n):
    """Every pair of the n-particle pigeonhole's channels, as a sum and as a
    product, and each pair of particles together in L or together in R."""
    names = [f"{side}{j}" for j in range(1, n + 1) for side in "LR"]
    pairs = [
        (a, b, kind) for a, b in itertools.combinations(names, 2) for kind in ("sum", "product")
    ]
    pairs += [
        (f"L{i}*L{j}", f"R{i}*R{j}", "sum") for i, j in itertools.combinations(range(1, n + 1), 2)
    ]
    return pairs


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_default_pairs(name):
    assert_time_symmetric(catalog(name), default_audit_pairs(name))


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_rotated_evolved_pigeonhole(seed, n):
    s = rotated_pigeonhole(np.random.default_rng(seed), n)
    assert_time_symmetric(s, pigeonhole_pairs(n))
