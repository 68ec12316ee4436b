"""Replay of the golden CLI corpus (see ``corpus.py``).

Every recorded run of ``show``, ``weak``, ``strong``, ``abl``,
``audit-sum``, ``audit-product``, ``audit-all --pairs`` and ``meter`` (``--g``
and ``--sweep``), in table and JSON format, on each seeded document under
``tests/data/corpus/`` must print the same stdout and stderr bytes, exit with
the same code and raise the same warnings as when it was recorded: a change
that keeps every printed figure passes untouched.

A change meant to alter output re-records on purpose, with
``PYTHONPATH=src python tests/corpus.py``. ROADMAP item 2, the closed-form
meter, is such a change: its readouts may differ from the grid quadratures in
the last bits, so it must re-record the ``meter`` entries and say so.
"""

import json

import pytest

from corpus import GOLDEN, outcome

ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_every_command():
    assert len(ENTRIES) >= 800
    commands = {entry["argv"][0] for entry in ENTRIES}
    assert commands == {
        "show", "weak", "strong", "abl", "audit-sum", "audit-product", "audit-all", "meter"
    }
    assert {"--g", "--sweep"} <= {arg for e in ENTRIES if e["argv"][0] == "meter" for arg in e["argv"]}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_output_is_byte_identical(entry):
    assert outcome(entry["argv"]) == entry["sha256"]
