import cmath
import dataclasses
import json
import tracemalloc
from importlib import resources
from types import MappingProxyType

import numpy as np
import pytest

from weaklogic import (
    CATALOG_NAMES,
    NotAProjectorError,
    ScenarioError,
    UnboundNameError,
    State,
    audit_all,
    build_scenario,
    catalog,
    classify_sum,
    default_audit_pairs,
    effective_bra,
    evaluate_text,
    identity,
    inner,
    is_projector,
    load_scenario,
    parse,
    parse_audit_pairs,
    scenario_document,
)
from weaklogic import linalg
from weaklogic.expr import Name
from weaklogic.linalg import dense
from weaklogic.scenario import amplitude, expression_operator, proven_projector
from helpers import hardy_beamsplitter, pigeonhole_document, random_unitary, spy

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

    def test_bad_channel_spec(self):
        with pytest.raises(ScenarioError, match="'basis'.*or.*'matrix'"):
            load_scenario(_with({"channels": {"A": {"rows": []}}}))

    def test_unknown_basis_label_in_channel(self):
        with pytest.raises(ScenarioError, match="unknown basis label"):
            load_scenario(_with({"channels": {"A": {"basis": ["Z"]}}}))

    def test_invalid_channel_name(self):
        with pytest.raises(ScenarioError, match="not a valid identifier"):
            load_scenario(_with({"channels": {"2bad": {"basis": ["A"]}}}))

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
        assert s.channel("M").base is None and s.channel("F").base is None
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

    def test_expression_operator_picks_the_form(self):
        s = catalog("three-box")
        assert expression_operator(s, "A + B*C").ndim == 1
        matrices = {name: dense(p) for name, p in s.channels.items()}
        np.testing.assert_array_equal(
            np.diag(expression_operator(s, "A + B*C")), evaluate_text("A + B*C", matrices)
        )
        mixed = build_scenario(
            "x", ("a", "b"), [1, 1], [1, 0], None,
            {"D": np.diag([1.0, 0.0]), "M": np.full((2, 2), 0.5)},
        )
        assert expression_operator(mixed, "D").ndim == 1
        assert expression_operator(mixed, "D*M").shape == (2, 2)
        with pytest.raises(UnboundNameError) as exc:
            expression_operator(s, "A + Z")
        with pytest.raises(UnboundNameError) as dense_exc:
            evaluate_text("A + Z", matrices)
        assert str(exc.value) == str(dense_exc.value)


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

    def test_only_the_scenarios_own_channels_keep_their_proof(self):
        _, m = self._tilted()
        s = build_scenario("x", ("a", "b"), [1, 0], [1, 1], None, {"P": m, "Q": m})
        p = s.channel("P")
        assert proven_projector(s, p, "op") is p
        assert expression_operator(s, "(P)") is p
        for op in (m + m, expression_operator(s, "P + Q")):
            with pytest.raises(NotAProjectorError, match="op is not a projector"):
                proven_projector(s, op, "op")
        np.testing.assert_array_equal(proven_projector(s, m, "op"), p)

    @pytest.mark.parametrize(
        "entries, error, match",
        [
            ([2, 0, 0], NotAProjectorError, "first operand is not a projector"),
            ([np.nan, 0, 0], ValueError, "first operand contains non-finite entries"),
        ],
    )
    def test_a_substituted_channel_is_checked(self, entries, error, match):
        s = catalog("three-box")
        forged = MappingProxyType({"X": np.array(entries, dtype=complex)})
        t = dataclasses.replace(s, channels=forged)
        with pytest.raises(error, match=match):
            classify_sum(t, t.channel("X"), s.channel("C"))
        # nor does a product of them prove itself by its self-adjointness
        (entry,) = audit_all(t, [("X*X", "X", "sum")]).entries
        assert entry.error == match

    def test_a_scenario_made_another_way_trusts_no_channel(self, monkeypatch):
        s = catalog("three-box")
        proofs = []
        spy(monkeypatch, linalg._proves_projector, proofs.append)
        classify_sum(s, s.channel("A"), s.channel("C"))
        assert proofs == []
        t = dataclasses.replace(s, name="copy")
        classify_sum(t, t.channel("A"), t.channel("C"))
        assert len(proofs) == 2


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
        a, b = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) for _ in range(2))
        bra, pre = s.bra.amps, s.pre_state.amps
        assert amplitude(s) == complex(np.vdot(bra, pre))
        assert amplitude(s, a) == complex(np.vdot(bra, a @ pre))
        # the last operator acts first, and the products keep that order
        assert amplitude(s, a, b) == complex(np.vdot(bra, a @ (b @ pre)))
        assert amplitude(s) == pytest.approx(s.post_overlap, abs=1e-12)

    @pytest.mark.parametrize(
        "op, match",
        [
            (np.ones((3, 2)), "square"),
            (np.full((3, 3), np.nan), "non-finite"),
            (identity(4), "dimension mismatch"),
        ],
    )
    def test_operator_checked(self, op, match):
        s = catalog("three-box")
        with pytest.raises(ValueError, match=match):
            amplitude(s, identity(3), op)

    def test_overflowing_product_rejected(self):
        s = catalog("three-box")
        huge = 1e308 * identity(3)
        assert cmath.isfinite(amplitude(s, huge))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="not finite"):
                amplitude(s, huge, huge)


class TestAuditPairData:
    def test_defaults_exist_for_catalog(self):
        for name in CATALOG_NAMES:
            pairs = default_audit_pairs(name)
            assert pairs
            for a, b, kind in pairs:
                assert kind in ("sum", "product")
                s = catalog(name)
                evaluate_text(a, s.channels)
                evaluate_text(b, s.channels)

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
        with pytest.raises(ScenarioError, match="duplicate key 'kind'"):
            parse_audit_pairs('[{"a": "x", "b": "y", "kind": "sum", "kind": "product"}]')
