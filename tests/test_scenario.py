import cmath
import contextlib
import copy
import dataclasses
import io
import json
import pickle
import re
import tracemalloc
from importlib import resources
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklogic import (
    CATALOG_NAMES,
    MeterConfig,
    ParseError,
    PhysicsError,
    ScenarioError,
    UnboundNameError,
    State,
    audit_all,
    build_scenario,
    catalog,
    classify_product,
    classify_sum,
    default_audit_pairs,
    effective_bra,
    evaluate_text,
    identity,
    inner,
    is_projector,
    load_scenario,
    measure_pointer,
    parse,
    parse_audit_pairs,
    scenario_document,
    sequential_disturbance,
    weak_limit_estimate,
    weak_value,
    weak_value_expr,
)
from weaklogic import linalg
from weaklogic.cli import main
from weaklogic.expr import Name
from weaklogic.linalg import as_operator, dense
from weaklogic.scenario import _amplitude
from helpers import (
    bits,
    hardy_beamsplitter,
    pigeonhole_document,
    random_projector_family,
    random_scenario,
    random_unitary,
    rotated_pigeonhole,
    spy,
)

THREE_BOX_TEXT = json.dumps(
    {
        "name": "boxes",
        "dim": 3,
        "labels": ["A", "B", "C"],
        "pre": [[1, 0], [1, 0], [1, 0]],
        "post": [[1, 0], [1, 0], [-1, 0]],
        "channels": {
            "A": {"basis": ["A"]},
            "B": {"basis": ["B"]},
            "C": {"basis": ["C"]},
        },
    }
)


def _with(doc_updates=None, **replacements):
    doc = json.loads(THREE_BOX_TEXT)
    doc.update(doc_updates or {})
    doc.update(replacements)
    return json.dumps(doc)


class TestLoadScenario:
    def test_states_normalized_on_load(self):
        s = load_scenario(THREE_BOX_TEXT)
        assert s.name == "boxes"
        assert s.dim == 3
        assert s.pre_state.norm == pytest.approx(1.0, abs=1e-15)
        assert s.post_state.norm == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(s.pre_state.amps, np.ones(3) / np.sqrt(3), atol=1e-15)
        np.testing.assert_allclose(
            s.post_state.amps, np.array([1, 1, -1]) / np.sqrt(3), atol=1e-15
        )
        assert s.evolution is None
        assert s.post_overlap == pytest.approx(1 / 3, abs=1e-12)

    def test_omitted_evolution_means_identity(self):
        s = load_scenario(THREE_BOX_TEXT)
        bra = effective_bra(s)
        np.testing.assert_array_equal(bra.amps, s.post_state.amps)

    def test_matrix_channel_accepted(self):
        matrix = [[[1, 0], [0, 0], [0, 0]],
                  [[0, 0], [0, 0], [0, 0]],
                  [[0, 0], [0, 0], [0, 0]]]
        s = load_scenario(_with({"channels": {"onlyA": {"matrix": matrix}}}))
        np.testing.assert_array_equal(dense(s.channel("onlyA")), np.diag([1, 0, 0]))

    def test_missing_field(self):
        doc = json.loads(THREE_BOX_TEXT)
        del doc["post"]
        with pytest.raises(ScenarioError, match="missing 'post'"):
            load_scenario(json.dumps(doc))

    def test_unknown_field(self):
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            load_scenario(_with(extra=1))

    def test_invalid_json(self):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario("{not json")

    def test_duplicate_keys_rejected(self):
        text = THREE_BOX_TEXT.replace(
            '"A": {"basis": ["A"]}', '"A": {"basis": ["A"]}, "A": {"basis": ["B"]}'
        )
        with pytest.raises(ScenarioError, match="duplicate key"):
            load_scenario(text)

    def test_zero_pre_state(self):
        with pytest.raises(ScenarioError, match="zero norm"):
            load_scenario(_with(pre=[[0, 0], [0, 0], [0, 0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pre_state_whose_norm_overflows(self):
        with pytest.raises(ScenarioError, match="^pre state norm overflows"):
            load_scenario(_with(pre=[[1e200, 0], [1e200, 0], [0, 0]]))

    def test_non_unitary_evolution(self):
        ev = [[[2, 0], [0, 0], [0, 0]],
              [[0, 0], [1, 0], [0, 0]],
              [[0, 0], [0, 0], [1, 0]]]
        with pytest.raises(ScenarioError, match="not unitary"):
            load_scenario(_with(evolution=ev))

    def test_non_projector_channel(self):
        matrix = [[[0, 0], [1, 0], [0, 0]],
                  [[0, 0], [0, 0], [0, 0]],
                  [[0, 0], [0, 0], [0, 0]]]
        with pytest.raises(ScenarioError, match="not a projector"):
            load_scenario(_with({"channels": {"bad": {"matrix": matrix}}}))

    @pytest.mark.parametrize("last", [1, [True, 0], ["1", 0], [None, 0], [[1], 0]])
    def test_bad_amplitude_pair(self, last):
        with pytest.raises(ScenarioError, match="re, im"):
            load_scenario(_with(pre=[[1, 0], [1, 0], last]))

    def test_number_beyond_float_range_rejected(self):
        evolution = [[[1, 0], [0, 0], [0, 0]],
                     [[0, 0], [1, 0], [0, 0]],
                     [[0, 0], [0, 0], [10**400, 0]]]
        with pytest.raises(ScenarioError, match="'evolution' has a number beyond"):
            load_scenario(_with(evolution=evolution))

    @pytest.mark.parametrize("token", ["NaN", "-Infinity", "1e400"])
    @pytest.mark.parametrize(
        "field, what",
        [
            ("pre", "'pre'"), ("post", "'post'"),
            ("evolution", "'evolution'"), ("matrix", "channel 'M'"),
        ],
    )
    def test_non_finite_number_rejected(self, field, what, token):
        # json.loads accepts each token as a float that is not finite
        identity_pairs = [[[float(i == j), 0] for j in range(3)] for i in range(3)]
        doc = json.loads(_with(evolution=identity_pairs))
        doc["channels"]["M"] = {"matrix": identity_pairs}
        rows = {
            "pre": doc["pre"], "post": doc["post"],
            "evolution": doc["evolution"][1], "matrix": doc["channels"]["M"]["matrix"][1],
        }
        rows[field][1] = ["HOLE", 0]
        text = json.dumps(doc).replace('"HOLE"', token)
        with pytest.raises(ScenarioError, match=f"^{re.escape(what)} has a non-finite number$"):
            load_scenario(text)

    def test_bad_channel_spec(self):
        with pytest.raises(ScenarioError, match="'basis'.*or.*'matrix'"):
            load_scenario(_with({"channels": {"A": {"rows": []}}}))

    def test_unknown_basis_label_in_channel(self):
        with pytest.raises(ScenarioError, match="unknown basis label"):
            load_scenario(_with({"channels": {"A": {"basis": ["Z"]}}}))

    def test_invalid_channel_name(self):
        with pytest.raises(ScenarioError, match="not a valid identifier"):
            load_scenario(_with({"channels": {"2bad": {"basis": ["A"]}}}))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "scenario document must be a JSON object"),
            ('"boxes"', "scenario document must be a JSON object"),
            (_with(name=""), "'name' must be a non-empty string"),
            (_with(name=3), "'name' must be a non-empty string"),
            (_with(dim=True), "'dim' must be a positive integer"),
            (_with(dim=0), "'dim' must be a positive integer"),
            (_with(dim=3.0), "'dim' must be a positive integer"),
            (_with(channels=[]), "'channels' must be an object"),
            (_with({"channels": {"A": {"basis": "A"}}}), "channel 'A': 'basis' must list labels"),
            (_with({"channels": {"A": {"basis": [1]}}}), "channel 'A': 'basis' must list labels"),
        ],
        ids=[
            "list", "string", "empty name", "numeric name", "dim true", "dim zero",
            "dim float", "channels list", "basis string", "basis number",
        ],
    )
    def test_each_document_check_names_its_field(self, text, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(text)

    def test_label_count_mismatch(self):
        with pytest.raises(ScenarioError, match="list of 3 strings"):
            load_scenario(_with(labels=["A", "B"]))

    def test_document_round_trip(self):
        original = catalog("hardy")
        reloaded = load_scenario(json.dumps(scenario_document(original)))
        np.testing.assert_allclose(reloaded.pre_state.amps, original.pre_state.amps, atol=1e-15)
        np.testing.assert_allclose(reloaded.post_state.amps, original.post_state.amps, atol=1e-15)
        np.testing.assert_allclose(reloaded.evolution, original.evolution, atol=1e-15)
        assert set(reloaded.channels) == set(original.channels)
        for name in original.channels:
            np.testing.assert_allclose(
                reloaded.channel(name), original.channel(name), atol=1e-15
            )


class TestBuildScenario:
    def test_duplicate_labels(self):
        with pytest.raises(ScenarioError, match="unique"):
            build_scenario("x", ("a", "a"), [1, 0], [0, 1])

    @pytest.mark.parametrize("source", [*CATALOG_NAMES, *range(6)])
    def test_post_overlap_is_the_raw_inner_product_bit_for_bit(self, source):
        # a catalog name, or the seed of a random scenario with evolution
        if isinstance(source, str):
            s = catalog(source)
        else:
            rng = np.random.default_rng(source)
            s = random_scenario(rng, int(rng.integers(1, 7)), with_evolution=True)
        pre = s.pre_state.amps
        ket = pre if s.evolution is None else s.evolution @ pre
        assert bits(s.post_overlap) == bits(complex(np.vdot(s.post_state.amps, ket)))

    def test_no_labels(self):
        with pytest.raises(ScenarioError, match="^scenario needs at least one basis label$"):
            build_scenario("x", (), [], [])

    def test_evolution_dimension_enforced(self):
        with pytest.raises(ScenarioError, match="^evolution must be 3x3, got 2x2$"):
            build_scenario("x", ("a", "b", "c"), [1, 0, 0], [0, 1, 0], identity(2))

    @given(
        st.one_of(
            st.text(),
            st.text(alphabet="aZz09_ +*()\n\t\u00e9\u0661"),
            st.from_regex(r"[A-Za-z][A-Za-z0-9_]*", fullmatch=True),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_a_channel_name_is_exactly_an_expression_name(self, text):
        try:
            is_name = parse(text) == Name(text)
        except ParseError:
            is_name = False
        try:
            build_scenario("x", ("a",), [1], [1], None, {text: [1.0]})
        except ScenarioError as exc:
            assert str(exc) == f"channel name {text!r} is not a valid identifier"
            accepted = False
        else:
            accepted = True
        assert accepted is is_name

    def test_channel_dimension_enforced(self):
        with pytest.raises(ScenarioError, match="must be 2x2"):
            build_scenario("x", ("a", "b"), [1, 0], [0, 1], None, {"p": identity(3)})

    def test_overlap_recorded(self):
        rng = np.random.default_rng(2)
        from helpers import random_unit, random_unitary

        pre, post = random_unit(rng, 4), random_unit(rng, 4)
        ev = random_unitary(rng, 4)
        s = build_scenario("x", ("a", "b", "c", "d"), pre, post, ev)
        assert s.post_overlap == pytest.approx(np.vdot(post, ev @ pre), abs=1e-12)

    @pytest.mark.parametrize("name", ["three-box", "hardy"])
    def test_a_replaced_scenario_derives_its_own_overlap_and_bra(self, name):
        # a copy postselected on its own preselection has the dim, bra and
        # overlap that build_scenario gives those states, to the bit
        s = catalog(name)
        t = dataclasses.replace(s, post_state=s.pre_state)
        pre = s.pre_state.amps
        u = build_scenario(s.name, s.labels, pre, pre, s.evolution, s.channels)
        assert bits(u.post_state) == bits(s.pre_state)  # normalizing keeps its bits
        for field in ("dim", "post_overlap", "bra"):
            assert bits(getattr(t, field)) == bits(getattr(u, field))
        channel = next(iter(s.channels))
        assert bits(weak_value_expr(t, channel)) == bits(weak_value_expr(u, channel))
        if name == "three-box":
            assert weak_value_expr(t, "A").value == pytest.approx(1 / 3)
            assert t.post_overlap == pytest.approx(1.0)

    def test_the_constructor_takes_no_derived_field(self):
        s = catalog("three-box")
        for field in ("dim", "post_overlap", "bra"):
            with pytest.raises(ValueError, match=field):
                dataclasses.replace(s, **{field: getattr(s, field)})


class TestValidByConstruction:
    """The constructor, and so ``dataclasses.replace``, checks what
    ``build_scenario`` checks, and fails as it does."""

    def test_motivating_substitutions_raise(self):
        s = catalog("three-box")
        count = r"^pre state must have 2 amplitudes, got shape \(3,\)$"
        with pytest.raises(ScenarioError, match=count):
            dataclasses.replace(s, labels=("A", "B"))
        with pytest.raises(ScenarioError, match="^evolution is not unitary$"):
            dataclasses.replace(s, evolution=2 * identity(3))
        scaled = State(3 * s.pre_state.amps, s.labels)
        with pytest.raises(ScenarioError, match="^pre state does not have unit norm$"):
            dataclasses.replace(s, pre_state=scaled)
        with pytest.raises(ScenarioError, match="^channel 'X' is not a projector$"):
            dataclasses.replace(s, channels={"X": [2, 0, 0]})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("labels", ()),
            ("labels", ("A", "B")),
            ("labels", ("A", "A", "B")),
            ("evolution", 2 * identity(3)),
            ("evolution", identity(2)),
            ("evolution", np.ones((3, 2))),
            ("evolution", np.full((3, 3), np.inf)),
            ("channels", {"2bad": [1, 0, 0]}),
            ("channels", {7: [1, 0, 0]}),
            ("channels", {"X": identity(2)}),
            ("channels", {"X": np.ones((3, 2))}),
            ("channels", {"X": [np.nan, 0, 0]}),
            ("channels", {"A": [1, 0, 0], "X": [0.5, 0, 0]}),
        ],
    )
    def test_replace_fails_as_build_scenario_does(self, field, value):
        s = catalog("three-box")
        raw = {
            "labels": s.labels, "evolution": s.evolution, "channels": dict(s.channels),
            field: value,
        }
        args = s.name, raw["labels"], s.pre_state.amps, s.post_state.amps
        with pytest.raises((ScenarioError, ValueError)) as built:
            build_scenario(*args, raw["evolution"], raw["channels"])
        with pytest.raises(built.type, match=f"^{re.escape(str(built.value))}$"):
            dataclasses.replace(s, **{field: value})

    def test_a_state_over_other_labels_is_rejected(self):
        s = catalog("three-box")
        relabelled = State(s.post_state.amps, ("A", "B", "Z"))
        with pytest.raises(ScenarioError, match="^post state is not over the labels"):
            dataclasses.replace(s, post_state=relabelled)

    def test_a_replaced_evolution_is_held_as_a_read_only_copy(self):
        s = catalog("hardy")
        u = np.array(s.evolution)
        t = dataclasses.replace(s, evolution=u)
        assert not np.shares_memory(t.evolution, u) and not t.evolution.flags.writeable
        assert t.evolution.tobytes() == s.evolution.tobytes()
        assert t.channels is not s.channels and not isinstance(t.channels, dict)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_replacing_a_field_by_itself_keeps_every_bit(self, seed, dim, with_evolution):
        rng = np.random.default_rng(seed)
        channels = {
            f"D{k}": np.diag((rng.random(dim) < 0.5).astype(float)) for k in range(2)
        }
        for k, p in enumerate(random_projector_family(rng, dim, min(dim, 2))):
            channels[f"M{k}"] = p
        s = random_scenario(rng, dim, with_evolution, channels=channels)
        if dim > 1:
            assert {p.ndim for p in s.channels.values()} == {1, 2}
        names = list(s.channels)
        pairs = [(a, b, kind) for a in names for b in names for kind in ("sum", "product")]
        pairs += [(f"{a}*{b}", names[0], "sum") for a in names for b in names]
        want = json.dumps(audit_all(s, pairs).to_dict())
        for f in dataclasses.fields(s):
            if not f.init:
                continue
            t = dataclasses.replace(s, **{f.name: getattr(s, f.name)})
            assert list(t.channels) == names
            assert [bits(p) for p in t.channels.values()] == [bits(p) for p in s.channels.values()]
            assert bits(t.bra) == bits(s.bra)
            assert bits(t.post_overlap) == bits(s.post_overlap)
            assert json.dumps(audit_all(t, pairs).to_dict()) == want


class TestDiagonals:
    def test_basis_channels_are_held_as_read_only_diagonals(self):
        for name in CATALOG_NAMES:
            s = catalog(name)
            data = resources.files("weaklogic").joinpath(f"data/scenarios/{name}.json")
            doc = json.loads(data.read_text(encoding="utf-8"))
            for channel, d in s.channels.items():
                assert d.ndim == 1
                members = doc["channels"][channel]["basis"]
                want = [1.0 if lab in members else 0.0 for lab in s.labels]
                np.testing.assert_array_equal(d, np.array(want, dtype=complex))
                with pytest.raises(ValueError):
                    d[0] = 0.5

    def test_only_exactly_real_diagonal_matrices_qualify(self):
        rotated = random_unitary(np.random.default_rng(3), 2)
        channels = {
            "diag": np.diag([0.0, 1.0]),
            "signed_diagonal": np.diag([1.0, -0.0]),
            "signed": np.array([[1.0, -0.0], [0.0, -0.0]]),
            "tilted": np.diag([1.0, 1e-12j]),  # a projector within STRUCT_TOL
            "rotated": rotated[:, :1] @ rotated[:, :1].conj().T,
            "flat": [1.0, 0.0],
        }
        s = build_scenario("x", ("a", "b"), [1, 1], [1, 0], None, channels)
        forms = {name: p.ndim for name, p in s.channels.items()}
        assert forms == {
            "diag": 1, "signed_diagonal": 1, "signed": 2, "tilted": 2, "rotated": 2, "flat": 1
        }
        for name, p in s.channels.items():
            assert dense(p).tobytes() == dense(channels[name]).tobytes()
            assert not p.flags.writeable

    def test_a_diagonal_channel_owns_its_entries(self):
        # a matrix channel's diagonal is copied, so the matrix is not kept
        # alive, and the caller's arrays stay the caller's to change
        matrix = np.diag([1.0, 0.0]).astype(complex)
        flat = np.array([0.0, 1.0], dtype=complex)
        s = build_scenario("x", ("a", "b"), [1, 1], [1, 0], None, {"M": matrix, "F": flat})
        assert not np.shares_memory(s.channel("M"), matrix)
        assert not np.shares_memory(s.channel("F"), flat)
        matrix[0, 0] = flat[1] = 0.0
        assert list(s.channel("M")) == [1, 0] and list(s.channel("F")) == [0, 1]

    def test_load_builds_no_matrix_per_basis_channel(self):
        # 20 basis channels of dimension 1024: their matrices would take 335 MB
        text = json.dumps(pigeonhole_document(10))
        tracemalloc.start()
        try:
            s = load_scenario(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.shape == (1024,) for p in s.channels.values())
        assert peak < 4e6

    def test_diagonal_channels_are_checked_on_the_diagonal(self):
        for entries in (np.diag([1.0, 0.5]), [1.0, 0.5], np.diag([1.0, 1e-9j])):
            with pytest.raises(ScenarioError, match="channel 'p' is not a projector"):
                build_scenario("x", ("a", "b"), [1, 1], [1, 0], None, {"p": entries})

    def test_evaluation_over_channels_picks_the_form(self):
        s = catalog("three-box")
        assert evaluate_text("A + B*C", s.channels).ndim == 1
        matrices = {name: dense(p) for name, p in s.channels.items()}
        np.testing.assert_array_equal(
            np.diag(evaluate_text("A + B*C", s.channels)), evaluate_text("A + B*C", matrices)
        )
        mixed = build_scenario(
            "x", ("a", "b"), [1, 1], [1, 0], None,
            {"D": np.diag([1.0, 0.0]), "M": np.full((2, 2), 0.5)},
        )
        assert evaluate_text("D", mixed.channels).ndim == 1
        assert evaluate_text("D*M", mixed.channels).shape == (2, 2)
        with pytest.raises(UnboundNameError) as exc:
            evaluate_text("A + Z", s.channels)
        with pytest.raises(UnboundNameError) as dense_exc:
            evaluate_text("A + Z", matrices)
        assert str(exc.value) == str(dense_exc.value)


class TestFrozen:
    """Every array a scenario keeps is a ``linalg._frozen`` copy over an
    immutable buffer: neither it nor its ``.base`` can be made writable
    again, so no caller can change a channel the scenario proved, a state
    it took a matrix element of, or an operator whose numerator its record
    keeps."""

    KINDS = ["diagonal channel", "matrix channel", "evolution", "pre", "post", "bra",
             "folded sum", "kept product"]

    @staticmethod
    def _kept():
        """One array of each kind, by kind."""
        s = rotated_pigeonhole(np.random.default_rng(7), 2)
        basis = load_scenario(json.dumps(pigeonhole_document(2)))
        audit_all(s, [("L1", "L2", "product")])
        l1, l2 = s.channel("L1"), s.channel("L2")
        return {
            "diagonal channel": basis.channel("L1"),
            "matrix channel": l1,
            "evolution": s.evolution,
            "pre": s.pre_state.amps,
            "post": s.post_state.amps,
            "bra": s.bra.amps,
            "folded sum": evaluate_text("L1 + R2", s.channels),
            "kept product": s.channels._kept_record.products[id(l1), id(l2)],
        }

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_kept_array_cannot_be_reopened(self, kind):
        a = self._kept()[kind]
        assert kind != "diagonal channel" or a.ndim == 1
        assert kind != "matrix channel" or a.ndim == 2
        for array in (a, a.base):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="^cannot set WRITEABLE flag to True"):
                array.setflags(write=True)

    def test_a_folded_operator_keeps_its_numerator_honest(self):
        # reopened and zeroed, A + B would still weigh 2, the kept numerator
        s = catalog("three-box")
        p = evaluate_text("A + B", s.channels)
        with pytest.raises(ValueError, match="^cannot set WRITEABLE flag to True"):
            p.setflags(write=True)
        assert weak_value(s, p).value == weak_value(s, np.array(p)).value == 2

    def test_a_state_keeps_the_overlap_honest(self):
        # reopened and zeroed, hardy's pre amplitudes would make Ie weigh 0
        s = catalog("hardy")
        with pytest.raises(ValueError, match="^cannot set WRITEABLE flag to True"):
            s.pre_state.amps.setflags(write=True)
        assert weak_value_expr(s, "Ie").value == pytest.approx(1)


class TestCopies:
    """A channel table's record keys its entries by the ids of its
    scenario's operators. So ``copy.copy`` of a scenario or of its table
    shares the table and its record, ``dataclasses.replace`` starts an
    empty one, and ``copy.deepcopy`` and ``pickle``, whose copies would read
    entries keyed by ids a freed original's operators gave up, raise."""

    PAIRS = [("L1*L2", "R1*R2", "sum"), ("L1", "L2", "product")]

    @pytest.fixture(params=["catalog", "rotated"])
    def s(self, request):
        if request.param == "catalog":
            s = catalog("pigeonhole3")
        else:
            s = rotated_pigeonhole(np.random.default_rng(7), 3)
        audit_all(s, self.PAIRS)
        return s

    @pytest.mark.parametrize("copier", [copy.deepcopy, pickle.dumps])
    def test_a_deep_copy_or_pickle_raises(self, s, copier):
        with pytest.raises(TypeError, match=r"dataclasses\.replace\(s\) or scenario_document\(s\)"):
            copier(s)

    def test_a_shallow_copy_shares_the_table_and_its_record(self, s):
        t = copy.copy(s)
        assert t.channels is s.channels
        assert bits(audit_all(t, self.PAIRS)) == bits(audit_all(dataclasses.replace(s), self.PAIRS))

    @pytest.mark.parametrize("copier", [copy.deepcopy, pickle.dumps])
    def test_a_shallow_copy_of_the_table_is_the_table(self, s, copier):
        assert copy.copy(s.channels) is s.channels
        with pytest.raises(TypeError, match=r"dataclasses\.replace\(s\) or scenario_document\(s\)"):
            copier(s.channels)


class TestProvedOnce:
    """The scenario owns the evolution and channels it proved, so a channel
    can keep its proof for the scenario's lifetime."""

    @staticmethod
    def _tilted():
        v = random_unitary(np.random.default_rng(2), 2)
        return v, v[:, :1] @ v[:, :1].conj().T

    def test_the_callers_arrays_stay_the_callers(self):
        u, m = self._tilted()
        s = build_scenario("x", ("a", "b"), [1, 0], [1, 1], u, {"P": m})
        assert u.flags.writeable and m.flags.writeable
        assert not np.shares_memory(s.evolution, u)
        assert not np.shares_memory(s.channel("P"), m)
        kept = s.evolution.tobytes(), s.channel("P").tobytes()
        u[:] = 0.0
        m[:] = 0.0
        assert (s.evolution.tobytes(), s.channel("P").tobytes()) == kept
        assert not s.evolution.flags.writeable and not s.channel("P").flags.writeable

    def test_each_channel_is_scanned_and_proved_once(self, monkeypatch):
        scans, proofs = [], []
        spy(monkeypatch, linalg._check_finite, lambda a, what: scans.append(what))
        spy(monkeypatch, linalg._proves_projector, proofs.append)
        _, m = self._tilted()
        build_scenario("x", ("a", "b"), [1, 0], [1, 1], None, {"P": m, "D": [1.0, 0.0]})
        assert scans.count("channel 'P'") == scans.count("channel 'D'") == 1
        assert "operator" not in scans
        assert len(proofs) == 2

    @pytest.mark.parametrize(
        "entries, error, match",
        [
            ([2, 0, 0], ScenarioError, "channel 'X' is not a projector"),
            ([np.nan, 0, 0], ValueError, "channel 'X' contains non-finite entries"),
        ],
    )
    def test_a_substituted_channel_is_checked(self, entries, error, match):
        # checked where it enters the scenario, so no audit meets it unproven
        s = catalog("three-box")
        forged = MappingProxyType({"X": np.array(entries, dtype=complex)})
        with pytest.raises(error, match=f"^{match}$"):
            dataclasses.replace(s, channels=forged)

    def test_a_replaced_scenario_proves_its_channels_at_the_replace(self, monkeypatch):
        s = catalog("three-box")
        proofs = []
        spy(monkeypatch, linalg._proves_projector, proofs.append)
        t = dataclasses.replace(s, name="copy")
        assert len(proofs) == 3
        for name, p in t.channels.items():
            assert p is not s.channel(name) and bits(p) == bits(s.channel(name))
        classify_sum(t, t.channel("A"), t.channel("C"))
        assert len(proofs) == 3


def _cli(command):
    """``weaklogic <command> --expr TEXT`` on the catalog scenario, once per
    run; its error line, or None."""

    def run(s, runs):
        errors = []
        for (text,) in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                main([command, "--scenario", s.name, "--expr", text])
            errors.append(err.getvalue().strip() or None)
        return errors

    return run


def _each(function):
    """``function`` of operand arrays, once per run, each distinct text of a
    run evaluated once over a plain copy of the channel table, so that no
    operand comes from the scenario's record: a repeated text passes one
    array at each position, and a channel name passes the scenario's
    channel itself."""

    def run(s, runs):
        errors = []
        for texts in runs:
            ops = {text: evaluate_text(text, dict(s.channels)) for text in texts}
            try:
                function(s, *(ops[text] for text in texts))
                errors.append(None)
            except PhysicsError as exc:
                errors.append(str(exc))
        return errors

    return run


def _audit_all(kind):
    """One ``audit_all`` call for all the runs, each a pair of ``kind``."""

    def run(s, runs):
        return [entry.error for entry in audit_all(s, [(a, b, kind) for a, b in runs]).entries]

    return run


class TestOneProofRecord:
    """Each call records which operators are proven projectors in one
    ``_Record``, counted here on ``require_projector``, the full proof. A
    channel is passed on the proof it got when the scenario was built, and
    so is a product of two commuting channels that an expression or
    ``classify_product`` forms, by its self-adjointness. Any other projector
    is proved once per call, wherever it appears; an operand that fails is
    not recorded, so it is proved again, and named, at each position."""

    CFG = MeterConfig(sigma=1.0, g=0.1)
    # name: (run over a list of operand-text tuples, the name of each position)
    CALLERS = {
        "audit_all-sum": (_audit_all("sum"), ("first operand", "second operand")),
        "audit_all-product": (_audit_all("product"), ("first operand", "second operand")),
        "classify_sum": (_each(classify_sum), ("first operand", "second operand")),
        "classify_product": (_each(classify_product), ("first operand", "second operand")),
        "measure_pointer": (
            _each(lambda s, p: measure_pointer(s, p, TestOneProofRecord.CFG)),
            ("meter coupling",),
        ),
        "weak_limit_estimate": (
            _each(lambda s, p: weak_limit_estimate(s, p, 1.0, (1e-1, 1e-2, 1e-3))),
            ("meter coupling",),
        ),
        "sequential_disturbance": (
            _each(lambda s, p1, p2: sequential_disturbance(s, p1, p2, 1.0, 0.05)),
            ("first meter coupling", "second meter coupling"),
        ),
        "cli-strong": (_cli("strong"), ("error: expression 'L1 + L2'",)),
        "cli-abl": (_cli("abl"), ("error: expression 'L1 + L2'",)),
    }

    @pytest.fixture
    def proofs(self, monkeypatch):
        proofs = []
        spy(monkeypatch, linalg.require_projector, lambda op, what: proofs.append(what))
        return proofs

    @staticmethod
    def _run(caller, *texts):
        """One run of ``caller`` on as many of ``texts`` as it takes."""
        run, positions = TestOneProofRecord.CALLERS[caller]
        return run(catalog("pigeonhole2"), [texts[: len(positions)]])

    @pytest.mark.parametrize("caller", CALLERS)
    def test_a_channel_is_not_proved_again(self, caller, proofs):
        s = catalog("pigeonhole2")
        assert evaluate_text("(L1)", s.channels) is s.channel("L1")
        (error,) = self._run(caller, "L1", "L2")
        assert error is None or "not a projector" not in error
        assert proofs == []

    @pytest.mark.parametrize(
        "caller, texts",
        [
            ("audit_all-sum", ("L1*L2", "R1*R2")),
            ("audit_all-product", ("L1*L2", "L1")),
            ("classify_product", ("L1", "L2")),  # forms L1*L2 itself
            ("cli-strong", ("L1*L2",)),
            ("cli-abl", ("L1*L2",)),
        ],
    )
    def test_a_product_of_commuting_channels_is_not_proved(self, caller, texts, proofs):
        (error,) = self._run(caller, *texts)
        assert error is None
        assert proofs == []

    @pytest.mark.parametrize("caller", CALLERS)
    def test_another_projector_is_proved_once_per_call(self, caller, proofs):
        # L1 + R1 is the identity, a projector that is no channel
        for calls in (1, 2):
            (error,) = self._run(caller, "L1 + R1", "L1 + R1")
            assert error is None or "not a projector" not in error
            assert len(proofs) == calls

    @pytest.mark.parametrize("caller", CALLERS)
    def test_a_failing_operand_is_proved_and_named_at_each_position(self, caller, proofs):
        run, positions = self.CALLERS[caller]
        runs = [
            tuple("L1 + L2" if i == j else "L2" for j in range(len(positions)))
            for i in range(len(positions))
        ]
        errors = run(catalog("pigeonhole2"), runs * 2)
        assert errors == [f"{what} is not a projector" for what in positions] * 2
        assert len(proofs) == 2 * len(positions)


class TestCatalog:
    def test_names(self):
        assert CATALOG_NAMES == ("pigeonhole2", "pigeonhole3", "three-box", "hardy")
        for name in CATALOG_NAMES:
            assert catalog(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            catalog("nope")

    def test_dims(self):
        assert catalog("pigeonhole2").dim == 4
        assert catalog("pigeonhole3").dim == 8
        assert catalog("three-box").dim == 3
        assert catalog("hardy").dim == 4

    def test_states_normalized_and_channels_projectors(self):
        for name in CATALOG_NAMES:
            s = catalog(name)
            assert abs(s.pre_state.norm - 1.0) <= 1e-12
            assert abs(s.post_state.norm - 1.0) <= 1e-12
            for channel in s.channels.values():
                assert is_projector(channel)

    def test_channel_names_are_expression_identifiers(self):
        for name in CATALOG_NAMES:
            for channel_name in catalog(name).channels:
                assert parse(channel_name) == Name(channel_name)

    def test_two_box_same_channel_matrix(self):
        s = catalog("pigeonhole2")
        expected = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
        np.testing.assert_allclose(dense(s.channel("same12")), expected, atol=1e-15)

    def test_two_box_channels_complete_and_orthogonal(self):
        s = catalog("pigeonhole2")
        same12, diff12 = dense(s.channel("same12")), dense(s.channel("diff12"))
        np.testing.assert_allclose(same12 @ diff12, np.zeros((4, 4)), atol=1e-12)
        np.testing.assert_allclose(same12 + diff12, identity(4), atol=1e-12)

    def test_hardy_single_particle_channels_complete(self):
        s = catalog("hardy")
        np.testing.assert_allclose(
            dense(s.channel("Ip")) + dense(s.channel("Np")), identity(4), atol=1e-12
        )
        np.testing.assert_allclose(
            dense(s.channel("Ie")) + dense(s.channel("Ne")), identity(4), atol=1e-12
        )

    @pytest.mark.parametrize(
        "scenario,channel,expression",
        [
            ("pigeonhole2", "same12", "L1*L2 + R1*R2"),
            ("pigeonhole2", "diff12", "L1*R2 + R1*L2"),
            ("pigeonhole3", "same12", "L1*L2 + R1*R2"),
            ("pigeonhole3", "same23", "L2*L3 + R2*R3"),
            ("pigeonhole3", "same13", "L1*L3 + R1*R3"),
            ("pigeonhole3", "same123", "same12 * same23"),
            ("hardy", "NpIe", "Np*Ie"),
            ("hardy", "NpNe", "Np*Ne"),
            ("hardy", "IpNe", "Ip*Ne"),
            ("hardy", "IpIe", "Ip*Ie"),
        ],
    )
    def test_precomputed_channels_match_expressions(self, scenario, channel, expression):
        s = catalog(scenario)
        np.testing.assert_allclose(
            s.channel(channel), evaluate_text(expression, s.channels), atol=1e-12
        )


class TestHardyConstruction:
    def test_beamsplitter_unitary(self):
        u = hardy_beamsplitter()
        np.testing.assert_allclose(u.conj().T @ u, identity(2), atol=1e-12)

    def test_catalog_evolution_is_tensored_beamsplitter(self):
        u = hardy_beamsplitter()
        np.testing.assert_allclose(catalog("hardy").evolution, np.kron(u, u), atol=1e-15)

    def test_all_four_printed_forms_coincide(self):
        # The preselected state admits one arm-basis form and three
        # detector-basis rewrites; under the catalog beamsplitter they must
        # be the same vector. This pins the overall sign of the beamsplitter,
        # which the quadratic two-particle evolution alone would not.
        u = hardy_beamsplitter()
        bright = np.array([1.0, 0.0], dtype=complex)
        dark = np.array([0.0, 1.0], dtype=complex)
        u_arm_n = u @ np.array([1.0, 0.0], dtype=complex)
        u_arm_i = u @ np.array([0.0, 1.0], dtype=complex)

        form1 = np.kron(u, u) @ (np.array([1, 1j, 1j, 0]) / np.sqrt(3))
        form2 = (
            np.kron(-dark + 1j * bright, dark)
            + 1j * np.kron(dark, bright)
            - 3 * np.kron(bright, bright)
        ) / np.sqrt(12)
        form3 = (
            -1j * np.sqrt(2) * np.kron(u_arm_i, dark)
            + 1j * np.kron(dark, bright)
            - 3 * np.kron(bright, bright)
        ) / np.sqrt(12)
        form4 = (
            -1j * np.sqrt(2) * np.kron(dark, u_arm_i)
            + 1j * np.kron(bright, dark)
            - 3 * np.kron(bright, bright)
        ) / np.sqrt(12)

        np.testing.assert_allclose(form1, form2, atol=1e-12)
        np.testing.assert_allclose(form3, form2, atol=1e-12)
        np.testing.assert_allclose(form4, form2, atol=1e-12)

    def test_catalog_pre_state_is_arm_basis_form(self):
        s = catalog("hardy")
        np.testing.assert_allclose(
            s.pre_state.amps, np.array([1, 1j, 1j, 0]) / np.sqrt(3), atol=1e-15
        )


class TestEffectiveBra:
    def test_identity_evolution_returns_post_state(self):
        s = catalog("three-box")
        assert effective_bra(s) is s.post_state

    def test_two_box_overlap(self):
        s = catalog("pigeonhole2")
        assert inner(effective_bra(s), s.pre_state) == pytest.approx(-0.5j, abs=1e-12)
        assert s.post_overlap == pytest.approx(-0.5j, abs=1e-12)

    def test_hardy_overlap(self):
        s = catalog("hardy")
        expected = -1 / np.sqrt(12)
        assert inner(effective_bra(s), s.pre_state) == pytest.approx(expected, abs=1e-12)
        assert s.post_overlap == pytest.approx(expected, abs=1e-12)

    def test_effective_bra_is_unit_norm_state(self):
        s = catalog("hardy")
        bra = effective_bra(s)
        assert isinstance(bra, State)
        assert bra.norm == pytest.approx(1.0, abs=1e-12)

    def test_bra_is_pulled_back_once_at_build_time(self):
        s = catalog("hardy")
        assert effective_bra(s) is s.bra
        np.testing.assert_array_equal(
            s.bra.amps, s.evolution.conj().T @ s.post_state.amps
        )


class TestAmplitude:
    def test_matches_raw_numpy_bit_for_bit(self):
        rng = np.random.default_rng(8)
        from helpers import random_scenario

        s = random_scenario(rng, 5, with_evolution=True)
        a, b = (
            as_operator(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))) for _ in range(2)
        )
        bra, pre = s.bra.amps, s.pre_state.amps
        assert _amplitude(s) == complex(np.vdot(bra, pre))
        assert _amplitude(s, a) == complex(np.vdot(bra, a @ pre))
        # the last operator acts first, and the products keep that order
        assert _amplitude(s, a, b) == complex(np.vdot(bra, a @ (b @ pre)))
        assert _amplitude(s) == pytest.approx(s.post_overlap, abs=1e-12)

    def test_dimension_checked(self):
        with pytest.raises(ValueError, match="^dimension mismatch: operator 4 vs state 3$"):
            _amplitude(catalog("three-box"), identity(3), identity(4))

    def test_overflowing_product_rejected(self):
        s = catalog("three-box")
        huge = as_operator(1e308 * identity(3))
        assert cmath.isfinite(_amplitude(s, huge))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                ValueError, match="^matrix element is not finite: the operator product overflows$"
            ):
                _amplitude(s, huge, huge)


class TestAuditPairData:
    def test_defaults_exist_for_catalog(self):
        for name in CATALOG_NAMES:
            pairs = default_audit_pairs(name)
            assert pairs
            for a, b, kind in pairs:
                assert kind in ("sum", "product")
                s = catalog(name)
                evaluate_text(a, dict(s.channels))
                evaluate_text(b, dict(s.channels))

    def test_unknown_scenario(self):
        with pytest.raises(ScenarioError):
            default_audit_pairs("nope")

    def test_parse_audit_pairs_validation(self):
        assert parse_audit_pairs('[{"a": "x", "b": "y", "kind": "sum"}]') == (
            ("x", "y", "sum"),
        )
        with pytest.raises(ScenarioError, match="JSON list"):
            parse_audit_pairs("{}")
        with pytest.raises(ScenarioError, match="keys 'a', 'b', 'kind'"):
            parse_audit_pairs('[{"a": "x"}]')
        with pytest.raises(ScenarioError, match="invalid JSON"):
            parse_audit_pairs("nope")

    @pytest.mark.parametrize("field", ["a", "b", "kind"])
    def test_a_field_that_is_not_a_string(self, field):
        item = {"a": "x", "b": "y", "kind": "sum", field: 1}
        with pytest.raises(ScenarioError, match="^audit pair #1 fields must be strings$"):
            parse_audit_pairs(json.dumps([{"a": "x", "b": "y", "kind": "sum"}, item]))
        with pytest.raises(ScenarioError, match="duplicate key 'kind'"):
            parse_audit_pairs('[{"a": "x", "b": "y", "kind": "sum", "kind": "product"}]')
