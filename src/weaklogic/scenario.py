"""Pre/postselected scenarios: validation, JSON loading, built-in catalog.

A scenario bundles a preselected state, a postselected state, an optional
unitary applied between the intermediate measurement and the postselection,
and a table of named channel projectors that expressions can reference.
"""

from __future__ import annotations

import cmath
import json
import re
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ScenarioError
from .expr import _fold, evaluate_text, parse
from .linalg import (
    STRUCT_TOL,
    State,
    _act,
    _compose,
    _proves_projector,
    _real_diagonal,
    _self_adjoint,
    _sum,
    apply,
    as_operator,
    basis_projector,
    dense,
    identity,
    inner,
    require_projector,
)

CATALOG_NAMES = ("pigeonhole2", "pigeonhole3", "three-box", "hardy")

_CHANNEL_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated, immutable pre/postselected setup.

    ``post_overlap`` is the postselection amplitude <post|U|pre> and ``bra``
    the postselected state pulled back through the evolution, U^dagger
    |post>, against which intermediate-time matrix elements are taken; both
    are recorded once at validation time. ``evolution`` of ``None`` means
    identity, and then ``bra`` is ``post_state`` itself.
    ``channels`` holds each channel, read-only, in one form: its 1-D
    diagonal when that is real and rebuilds the channel bit for bit (every
    basis channel), else its matrix. ``linalg.dense`` gives the matrix.
    Each channel and ``evolution`` is the scenario's own copy, checked once
    in ``build_scenario``. ``build_scenario`` also records, by id, the
    channel arrays it proved projectors; ``proven_projector`` trusts exactly
    those, and holding them keeps their ids from being reused. A scenario
    made another way, ``dataclasses.replace`` included, records none.
    """

    name: str
    dim: int
    labels: tuple[str, ...]
    pre_state: State
    post_state: State
    evolution: np.ndarray | None
    channels: Mapping[str, np.ndarray]
    post_overlap: complex
    bra: State
    _proven: Mapping[int, np.ndarray] = field(init=False, repr=False, default_factory=dict)

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.channels[name]
        except KeyError:
            known = ", ".join(sorted(self.channels))
            raise ScenarioError(
                f"scenario {self.name!r} has no channel {name!r} (channels: {known})"
            ) from None


def effective_bra(s: Scenario) -> State:
    """State against which intermediate-time matrix elements are taken:
    U^dagger |post>, or |post> itself under identity evolution."""
    return s.bra


def amplitude(s: Scenario, *ops) -> complex:
    """Matrix element <bra|ops[0] ... ops[-1]|pre>, i.e. <post|U ops|pre>;
    the last operator acts first.

    Every weak-value numerator, ABL amplitude and meter split is one of
    these. Each operator is coerced and scanned for NaN/Inf here, once, and
    must have the scenario's dimension; a product that overflows raises
    ValueError. With no operators this is <post|U|pre> taken through the
    bra, which may differ from ``post_overlap`` in the last bits.
    """
    return _amplitude(s, *map(as_operator, ops))


def _amplitude(s: Scenario, *ops: np.ndarray) -> complex:
    """``amplitude`` of operators that ``as_operator`` returned."""
    ket = s.pre_state.amps
    for op in reversed(ops):
        ket = _act(op, ket)
    value = complex(np.vdot(s.bra.amps, ket))
    if not cmath.isfinite(value):
        raise ValueError("matrix element is not finite: the operator product overflows")
    return value


def expression_operator(s: Scenario, text: str) -> np.ndarray:
    """Operator of a projector expression over the scenario's channels: a
    diagonal when every channel it uses is one, else a matrix, not proved a
    projector. The audits and the CLI's ``strong`` and ``abl`` form the same
    operator and prove it, a product of proven factors by its
    self-adjointness."""
    return evaluate_text(text, s.channels)


def proven_projector(s: Scenario, op, what: str) -> np.ndarray:
    """``op`` itself when it is a channel array that ``build_scenario``
    proved a projector for this scenario (a bare channel name evaluates to
    that object); any other operator through ``require_projector``, so
    coerced, scanned for NaN/Inf and NotAProjectorError if it is not a
    projector. An array does not record how it was formed, so a product of
    channels passed here is proved in full."""
    if s._proven.get(id(op)) is op:
        return op
    return require_projector(op, what)


def _product_step(a: tuple, b: tuple) -> tuple[np.ndarray, bool]:
    """A product step of ``_expression_projectors``: PQ of projectors P, Q
    is a projector when it is self-adjoint, for then PQ = (PQ)^dagger = QP
    and (PQ)^2 = PPQQ = PQ."""
    m = _compose(a[0], b[0])
    return m, a[1] and b[1] and _self_adjoint(m)


def _sum_step(a: tuple, b: tuple) -> tuple[np.ndarray, bool]:
    """A sum step of ``_expression_projectors``: never proven by its parts."""
    return _sum(a[0], b[0]), False


def _expression_projectors(s: Scenario, *operands: tuple[str, str]) -> list[np.ndarray]:
    """The operators of projector expressions, given as ``(text, what)``
    pairs, each proven a projector. Every text is evaluated, bit for bit as
    ``expression_operator`` does, before the first operator is proved.

    A channel ``build_scenario`` proved is proven, and so is a product step
    whose factors are both proven and whose result is self-adjoint within
    STRUCT_TOL, the test ``classify_product`` applies. Its idempotence is not
    checked: (PQ)^2 - PQ = P(QP - PQ)Q is at most QP - PQ = (PQ)^dagger - PQ
    in norm. Any other operator (a sum, a product with an unproven factor,
    A*B*A whose step A*B is not self-adjoint) goes through
    ``require_projector`` as ``what``.
    """
    table = {name: (op, s._proven.get(id(op)) is op) for name, op in s.channels.items()}
    folded = [_fold(parse(text), table, _sum_step, _product_step) for text, _ in operands]
    return [
        op if proven else require_projector(op, what)
        for (op, proven), (_, what) in zip(folded, operands)
    ]


def build_scenario(
    name: str,
    labels,
    pre,
    post,
    evolution=None,
    channels: Mapping[str, np.ndarray] | None = None,
) -> Scenario:
    """Validate raw scenario data and assemble a Scenario.

    Raw pre/post amplitudes may be unnormalized; they are normalized here.
    The evolution and every channel are copied, so the caller's arrays stay
    the caller's, and each channel is proved a projector here, once.
    Raises ScenarioError on any violated invariant.
    """
    labels = tuple(str(lab) for lab in labels)
    dim = len(labels)
    if dim == 0:
        raise ScenarioError("scenario needs at least one basis label")
    if len(set(labels)) != dim:
        raise ScenarioError("basis labels must be unique")

    def _state(raw, which: str) -> State:
        amps = np.asarray(raw, dtype=complex)
        if amps.shape != (dim,):
            raise ScenarioError(
                f"{which} state must have {dim} amplitudes, got shape {amps.shape}"
            )
        st = State(amps, labels)
        try:
            return st.normalize()
        except ValueError as exc:
            raise ScenarioError(f"{which} {exc}") from None

    pre_state = _state(pre, "pre")
    post_state = _state(post, "post")

    ev = None
    if evolution is not None:
        ev = dense(evolution, "evolution").copy()
        if ev.shape != (dim, dim):
            raise ScenarioError(
                f"evolution must be {dim}x{dim}, got {ev.shape[0]}x{ev.shape[1]}"
            )
        if np.max(np.abs(ev.conj().T @ ev - identity(dim))) > STRUCT_TOL:
            raise ScenarioError("evolution is not unitary")
        ev.setflags(write=False)

    table: dict[str, np.ndarray] = {}
    for ch_name, entries in (channels or {}).items():
        if not _CHANNEL_NAME_RE.match(ch_name):
            raise ScenarioError(f"channel name {ch_name!r} is not a valid identifier")
        p = as_operator(entries, f"channel {ch_name!r}")
        if len(p) != dim:
            raise ScenarioError(f"channel {ch_name!r} must be {dim}x{dim}")
        d = _real_diagonal(p)
        p = p.copy() if d is None else d
        if not _proves_projector(p):
            raise ScenarioError(f"channel {ch_name!r} is not a projector")
        p.setflags(write=False)
        table[ch_name] = p

    evolved = apply(ev, pre_state) if ev is not None else pre_state
    overlap = inner(post_state, evolved)
    bra = post_state if ev is None else State(ev.conj().T @ post_state.amps, labels)

    s = Scenario(
        name=str(name),
        dim=dim,
        labels=labels,
        pre_state=pre_state,
        post_state=post_state,
        evolution=ev,
        channels=MappingProxyType(table),
        post_overlap=overlap,
        bra=bra,
    )
    proven = MappingProxyType({id(p): p for p in table.values()})
    object.__setattr__(s, "_proven", proven)
    return s


def _complex_array(obj, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A JSON field of [re, im] pairs, checked and converted as one array:
    int or float leaves (not bool) nested as ``(*shape, 2)``, viewed as
    complex so that every bit, signed zeros included, is kept."""
    leaves = np.array(obj, dtype=object)
    if leaves.shape != (*shape, 2) or not set(map(type, leaves.flat)) <= {int, float}:
        layout = ("a list of {}" if len(shape) == 1 else "a {}x{} array of").format(*shape)
        raise ScenarioError(f"{what} must be {layout} [re, im] pairs")
    try:
        return leaves.astype(float).view(complex).reshape(shape)
    except OverflowError:
        raise ScenarioError(f"{what} has a number beyond floating-point range") from None


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r} in JSON object")
        seen.add(key)
    return dict(pairs)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    The document is UTF-8 JSON with fields:

    - ``name``: string
    - ``dim``: positive integer
    - ``labels``: list of ``dim`` unique basis-label strings
    - ``pre``, ``post``: lists of ``dim`` amplitudes, each a ``[re, im]``
      pair; they may be unnormalized and are normalized on load
    - ``evolution``: optional ``dim x dim`` array of ``[re, im]`` pairs
      (omitted means identity); must be unitary
    - ``channels``: object mapping channel names to either
      ``{"basis": [label, ...]}`` (projector onto the span of the listed
      basis states) or ``{"matrix": <dim x dim [re, im] array>}``

    Raises ScenarioError on malformed input or violated invariants.
    """
    return build_scenario(*_document_fields(text))


def _document_fields(text: str) -> tuple:
    """The ``build_scenario`` arguments of a scenario document. The parsed
    document is dropped on return, before ``build_scenario`` copies the
    arrays, so the copies do not raise the peak of a load."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")

    for field in ("name", "dim", "labels", "pre", "post", "channels"):
        if field not in doc:
            raise ScenarioError(f"scenario file is missing {field!r}")
    known = {"name", "dim", "labels", "pre", "post", "evolution", "channels"}
    for field in doc:
        if field not in known:
            raise ScenarioError(f"unknown scenario field {field!r}")

    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("'name' must be a non-empty string")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ScenarioError("'dim' must be a positive integer")
    labels = doc["labels"]
    if (
        not isinstance(labels, list)
        or len(labels) != dim
        or not all(isinstance(lab, str) for lab in labels)
    ):
        raise ScenarioError(f"'labels' must be a list of {dim} strings")

    pre = _complex_array(doc["pre"], (dim,), "'pre'")
    post = _complex_array(doc["post"], (dim,), "'post'")
    evolution = None
    if "evolution" in doc and doc["evolution"] is not None:
        evolution = _complex_array(doc["evolution"], (dim, dim), "'evolution'")

    if not isinstance(doc["channels"], dict):
        raise ScenarioError("'channels' must be an object")
    channels = {}
    for ch_name, spec in doc["channels"].items():
        if not isinstance(spec, dict) or set(spec) not in ({"basis"}, {"matrix"}):
            raise ScenarioError(
                f"channel {ch_name!r} must be {{'basis': [...]}} or {{'matrix': [...]}}"
            )
        if "basis" in spec:
            members = spec["basis"]
            if not isinstance(members, list) or not all(
                isinstance(m, str) for m in members
            ):
                raise ScenarioError(f"channel {ch_name!r}: 'basis' must list labels")
            try:
                channels[ch_name] = basis_projector(labels, members)
            except ValueError as exc:
                raise ScenarioError(f"channel {ch_name!r}: {exc}") from None
        else:
            channels[ch_name] = _complex_array(
                spec["matrix"], (dim, dim), f"channel {ch_name!r}"
            )

    return name, labels, pre, post, evolution, channels


def scenario_document(s: Scenario) -> dict:
    """Scenario as a JSON-ready document in the ``load_scenario`` format."""

    def _pairs(vec):
        return [[float(z.real), float(z.imag)] for z in vec]

    doc = {
        "name": s.name,
        "dim": s.dim,
        "labels": list(s.labels),
        "pre": _pairs(s.pre_state.amps),
        "post": _pairs(s.post_state.amps),
    }
    if s.evolution is not None:
        doc["evolution"] = [_pairs(row) for row in s.evolution]
    doc["channels"] = {
        name: {"matrix": [_pairs(row) for row in dense(p)]}
        for name, p in s.channels.items()
    }
    return doc


def _data_text(kind: str, name: str) -> str:
    if name not in CATALOG_NAMES:
        raise ScenarioError(
            f"unknown scenario {name!r} (catalog: {', '.join(CATALOG_NAMES)})"
        )
    res = resources.files("weaklogic").joinpath(f"data/{kind}/{name}.json")
    return res.read_text(encoding="utf-8")


def catalog(name: str) -> Scenario:
    """Load one of the built-in scenarios by name."""
    return load_scenario(_data_text("scenarios", name))


def parse_audit_pairs(text: str) -> tuple[tuple[str, str, str], ...]:
    """Parse an audit-pair document: a JSON list of {a, b, kind} objects."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise ScenarioError("audit-pair document must be a JSON list")
    pairs = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or set(item) != {"a", "b", "kind"}:
            raise ScenarioError(
                f"audit pair #{i} must be an object with keys 'a', 'b', 'kind'"
            )
        if not all(isinstance(item[k], str) for k in ("a", "b", "kind")):
            raise ScenarioError(f"audit pair #{i} fields must be strings")
        pairs.append((item["a"], item["b"], item["kind"]))
    return tuple(pairs)


def default_audit_pairs(name: str) -> tuple[tuple[str, str, str], ...]:
    """Built-in audit pairs shipped alongside each catalog scenario."""
    return parse_audit_pairs(_data_text("audits", name))
