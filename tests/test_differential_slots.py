"""The differential's documents load and get the postselection their slot asks for."""

import collections
import warnings

import pytest

import differential
from weaklogic import ScenarioError, load_scenario


@pytest.fixture(scope="module")
def slots(tmp_path_factory):
    """(file name, slot, |<post|U|pre>| or the load error) of each document
    of the default 100-document sample that asks for a near-pole or a lost
    postselection."""
    jobs = differential._jobs(100, 0, tmp_path_factory.mktemp("differential"))
    found = []
    for i, (path, _) in enumerate(jobs["audit"]):
        slot = differential.OVERLAPS[i % len(differential.OVERLAPS)]
        if slot is None:
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                overlap = abs(load_scenario(text).post_overlap)
        except ScenarioError as exc:
            overlap = f"does not load: {exc}"
        found.append((path, slot, overlap))
    return found


def test_every_slot_is_asked_for(slots):
    assert collections.Counter(slot for _, slot, _ in slots) == {"near-pole": 20, "lost": 20}


def test_every_slot_document_loads(slots):
    assert [(path, o) for path, _, o in slots if isinstance(o, str)] == []


def test_a_loaded_near_pole_document_is_near_the_pole(slots):
    for path, slot, overlap in slots:
        if slot == "near-pole":
            assert 1e-12 < overlap < 1e-6, path


def test_a_lost_document_is_lost(slots):
    for path, slot, overlap in slots:
        if slot == "lost":
            assert overlap <= 1e-12, path
