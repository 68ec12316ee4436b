"""Copies of a scenario that keep every verdict.

Time symmetry: the reversed scenario swaps pre and post, takes U to
U^dagger and maps each channel P to U P U^dagger. A weak value
<post|U P|pre> / <post|U|pre> then becomes <pre|P U^dagger|post> /
<pre|U^dagger|post>, its complex conjugate (Aharonov, Bergmann & Lebowitz,
PR 134, B1410 (1964)). A global phase on pre or on post cancels between
numerator and denominator, and a permutation of the basis, applied to the
labels, the states, U and every channel, leaves every inner product as it
was: both copies keep each weak value. Zero patterns are kept, so each
audit pair keeps its error or its case.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklogic import CATALOG_NAMES, audit_all, build_scenario, catalog, default_audit_pairs
from helpers import rephased, rotated_pigeonhole

#: Largest distance allowed between a weak value of an audit, mapped, and
#: its copy's.
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


def rephased_copy(s, rng):
    """``s`` with a random global phase on pre and one on post."""
    pre_phase, post_phase = np.exp(2j * np.pi * rng.random(2))
    return rephased(s, pre_phase, post_phase)


def relabelled(s, rng):
    """``s`` in its basis reordered by one random permutation: the labels,
    pre, post, U and every channel."""
    order = rng.permutation(s.dim)
    square = np.ix_(order, order)
    evolution = None if s.evolution is None else s.evolution[square]
    channels = {name: p[order] if p.ndim == 1 else p[square] for name, p in s.channels.items()}
    return build_scenario(
        f"{s.name}-relabelled", [s.labels[i] for i in order], s.pre_state.amps[order],
        s.post_state.amps[order], evolution, channels,
    )


def assert_verdicts_kept(s, copy, weak_map, pairs):
    """``copy`` of ``s`` gives each pair the error or the case it has in
    ``s``, and each weak value w of ``s`` reads ``weak_map(w)`` in it."""
    original = audit_all(s, pairs).entries
    copied = audit_all(copy, pairs).entries
    assert len(original) == len(copied) == len(pairs)
    for o, c in zip(original, copied):
        where = f"{o.kind} {o.expr_a} | {o.expr_b}"
        assert c.error == o.error, where
        if o.verdict is None:
            continue
        assert c.verdict.case is o.verdict.case, where
        for wo, wc in zip(o.verdict.weak_values, c.verdict.weak_values):
            assert abs(wc.value - weak_map(wo.value)) <= WEAK_TOL, where


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
    s = catalog(name)
    assert_verdicts_kept(s, reversed_scenario(s), complex.conjugate, default_audit_pairs(name))


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_rotated_evolved_pigeonhole(seed, n):
    s = rotated_pigeonhole(np.random.default_rng(seed), n)
    assert_verdicts_kept(s, reversed_scenario(s), complex.conjugate, pigeonhole_pairs(n))


# ``complex`` maps a weak value to itself
@pytest.mark.parametrize("make_copy", [rephased_copy, relabelled])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_copies_keep_weak_values(name, make_copy):
    s = catalog(name)
    copy = make_copy(s, np.random.default_rng(CATALOG_NAMES.index(name)))
    assert_verdicts_kept(s, copy, complex, default_audit_pairs(name))


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_rotated_pigeonhole_copies_keep_weak_values(seed, n):
    rng = np.random.default_rng(seed)
    s = rotated_pigeonhole(rng, n)
    for make_copy in (rephased_copy, relabelled):
        assert_verdicts_kept(s, make_copy(s, rng), complex, pigeonhole_pairs(n))
