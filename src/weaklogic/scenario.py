"""Pre/postselected scenarios: validation, JSON loading, built-in catalog.

A scenario bundles a preselected state, a postselected state, an optional
unitary applied between the intermediate measurement and the postselection,
and a table of named channel projectors that expressions can reference.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ScenarioError
from .expr import _NAME_RE, _fold, parse
from .linalg import (
    State,
    _act,
    _bounded,
    _complement,
    _compose,
    _element,
    _frozen,
    _proves_projector,
    _real_diagonal,
    _self_adjoint,
    _sum,
    _within_struct_tol,
    as_operator,
    basis_projector,
    dense,
    identity,
    require_projector,
)
from .tolerances import SCALAR_TOL

CATALOG_NAMES = ("pigeonhole2", "pigeonhole3", "three-box", "hardy")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable pre/postselected setup, valid by construction.

    The constructor, and so ``dataclasses.replace``, raises as
    ``build_scenario`` does at the first invariant that fails: labels
    non-empty and unique; both states over them with unit norm within
    SCALAR_TOL (checked, not renormalized); ``evolution`` (``None`` means
    identity) a ``dim x dim`` unitary; each channel named by an identifier
    and a projector. The evolution and each channel are coerced, scanned and
    proved here, once, and held as the scenario's own ``linalg._frozen``
    copy, as are the amplitudes of every ``State``: a channel as its 1-D
    diagonal when that is real and rebuilds it bit for bit (every basis
    channel), else as its matrix (``linalg.dense``). ``dim``,
    ``post_overlap`` = <post|U|pre> and ``bra`` = U^dagger |post>, against
    which intermediate-time matrix elements are taken, are derived, not
    arguments. ``channels`` is the read-only table ``_Channels``, which
    owns the record of expression texts that ``_Record`` describes:
    ``evaluate_text(text, s.channels)`` returns the frozen operator the
    record keeps for the text, and every call weighs its operands in that
    record when it holds every one of them, else in a record of its own
    (``_Channels._record``). ``copy.copy`` shares the table and its record,
    ``dataclasses.replace`` builds a new table with an empty record, and
    ``copy.deepcopy`` and ``pickle`` raise TypeError.
    """

    name: str
    dim: int = field(init=False)
    labels: tuple[str, ...]
    pre_state: State
    post_state: State
    evolution: np.ndarray | None
    channels: Mapping[str, np.ndarray]
    post_overlap: complex = field(init=False)
    bra: State = field(init=False)

    def __post_init__(self):
        labels = _labels(self.labels)
        dim = len(labels)
        pre, post = self.pre_state, self.post_state
        for which, st in (("pre", pre), ("post", post)):
            if st.dim != dim:
                raise ScenarioError(
                    f"{which} state must have {dim} amplitudes, got shape {st.amps.shape}"
                )
            if st.labels != labels:
                raise ScenarioError(f"{which} state is not over the labels {labels}")
            with np.errstate(over="ignore"):
                if not abs(st.norm - 1.0) <= SCALAR_TOL:
                    raise ScenarioError(f"{which} state does not have unit norm")
        ev = self.evolution
        if ev is not None:
            ev = _frozen(dense(ev, "evolution"))
            if ev.shape != (dim, dim):
                raise ScenarioError(
                    f"evolution must be {dim}x{dim}, got {ev.shape[0]}x{ev.shape[1]}"
                )
            # a part beyond 2 puts its column's norm beyond 2, so such an ev
            # fails before ev^dagger ev, which could overflow, is formed
            if not (_bounded(ev) and _within_struct_tol(ev.conj().T @ ev - identity(dim))):
                raise ScenarioError("evolution is not unitary")
        table: dict[str, np.ndarray] = {}
        for ch_name, entries in self.channels.items():
            if not (isinstance(ch_name, str) and _NAME_RE.fullmatch(ch_name)):
                raise ScenarioError(f"channel name {ch_name!r} is not a valid identifier")
            p = as_operator(entries, f"channel {ch_name!r}")
            if len(p) != dim:
                raise ScenarioError(f"channel {ch_name!r} must be {dim}x{dim}")
            d = _real_diagonal(p)
            p = _frozen(p) if d is None else d
            if not _proves_projector(p):
                raise ScenarioError(f"channel {ch_name!r} is not a projector")
            table[ch_name] = p
        evolved = () if ev is None else (ev,)
        bra = post if ev is None else State(_act(ev.conj().T, post.amps), labels)
        for attr, value in (
            ("labels", labels), ("dim", dim), ("evolution", ev),
            ("channels", _Channels(table, bra.amps, pre.amps)),
            ("post_overlap", _element(post.amps, pre.amps, *evolved)),
            ("bra", bra),
        ):
            object.__setattr__(self, attr, value)

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


def _amplitude(s: Scenario, *ops: np.ndarray) -> complex:
    """Matrix element <bra|ops[0] ... ops[-1]|pre>, i.e. <post|U ops|pre>,
    of operators that ``as_operator`` returned; the last operator acts first.

    The meter's matrix elements are these; a record's numerators are the
    same ``_element`` against the bra and pre amplitudes its table holds.
    Each operator must have the scenario's dimension; a product that
    overflows raises ValueError. With no operators this is <post|U|pre>
    taken through the bra, which may differ from ``post_overlap`` in the
    last bits.
    """
    return _element(s.bra.amps, s.pre_state.amps, *ops)


class _Channels(Mapping):
    """A scenario's channel table: read-only, and the owner of the record
    its calls weigh operands in.

    Every call picks its record by one rule, ``_record(*ops)``: the
    table's record when it holds every operand as the very object, else a
    call's own, which the call drops when it returns. ``_operator(p)``
    pairs that record with the operand to weigh in it. ``expr.evaluate_text``
    over the table calls ``_evaluate_text``, which folds the text through
    the table's record (``_Record.fold``). The table holds the channels, the
    bra and pre amplitudes and the records made from them, and no reference
    to its scenario: the scenario is freed on its last reference, and a
    table that outlives it still folds through its record. ``copy.copy``
    returns the table itself. It refuses ``copy.deepcopy`` and ``pickle``,
    as a copied record would key its entries by the ids of the original's
    operators."""

    def __init__(self, table: dict[str, np.ndarray], bra: np.ndarray, pre: np.ndarray):
        self._table, self._amps = table, (bra, pre)
        self._kept_record = self._fresh()

    def __getitem__(self, name: str) -> np.ndarray:
        return self._table[name]

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._table!r})"

    def __copy__(self) -> _Channels:
        return self

    def __reduce__(self):
        raise TypeError("a scenario cannot be deep-copied or pickled: "
                        "use dataclasses.replace(s) or scenario_document(s)")

    def _fresh(self) -> _Record:
        """A new, empty record over the table."""
        return _Record(self._table, *self._amps)

    def _record(self, *ops) -> _Record:
        """The record a call on ``ops`` weighs them in: the one the table
        keeps when that holds every operand as the very object, or when
        there are none, else a fresh one. A held operator was scanned and
        proved, or folded from proven channels, and frozen when the library
        made it; a caller's array, read-only or not, is another object,
        weighed afresh. When a call starts with more than ``_RECORD_CAP``
        bytes in the kept record, an empty one replaces it in one step; a
        call in progress keeps the one it started with."""
        record = self._kept_record
        if record.nbytes > _RECORD_CAP:
            record = self._kept_record = self._fresh()
        return record if all(map(record.holds, ops)) else self._fresh()

    def _operator(self, p) -> tuple[_Record, np.ndarray]:
        """``_record(p)`` and the operator to weigh in it: ``p`` itself when
        that record holds it, else ``as_operator(p)``, coerced and scanned
        for NaN/Inf."""
        record = self._record(p)
        return record, (p if record.holds(p) else as_operator(p))

    def _evaluate_text(self, text: str) -> np.ndarray:
        return self._record().fold(text)


#: Bytes of operators and texts that a scenario's record may hold when a
#: call starts; past them the call starts the record over.
_RECORD_CAP = 64 << 20


class _Record:
    """A record of which operators are proven projectors, and an evaluation of
    expressions over a channel table, each step made once.

    ``proven`` maps ``id(P)`` to P for each proven P: the scenario's
    channels, all proved when it was made (a bare channel name evaluates to
    that object); each operator ``prove`` passed through
    ``require_projector``; and each product PQ of proven factors that is
    self-adjoint within STRUCT_TOL, for then PQ = (PQ)^dagger = QP and
    (PQ)^2 = PPQQ = PQ. Its idempotence is not checked: (PQ)^2 - PQ =
    P(QP - PQ)Q is at most QP - PQ in norm. ``held`` maps ``id(P)`` to P
    for each operator the record holds: the channels and each operator
    ``fold`` returned. Holding each value, these maps keep its id from being
    reused while the record lives, and so the record may key the products,
    orthogonality flags and matrix elements of the operators it holds by id.
    Whether it holds an operator a caller passes is a test of identity,
    ``holds``: an equal copy is another object.

    A call weighs its operands in the table's record when that holds every
    one of them, else in a call's own (``_Channels._record``). So the
    table's record holds only what the library made, each operator
    ``_frozen``: the operator of each text it folded, the proofs of those,
    each product of proven operands, whether each pair of proven operands
    the audits tested is orthogonal, and the numerator <bra|P|pre> of each
    operator it holds and of each orthogonal pair's sum, and of 1 - P for
    each P whose ABL probability was asked. A failed proof is not kept. So
    the calls on one scenario fold, prove, multiply, test and take each
    matrix element of these once, whether they name an operator by its
    text or pass the operator the record returned. ``nbytes`` counts the
    bytes of each operator the record made and of each text it holds, so
    that whitespace variants of one text count too; ``_Channels._record``
    reads it against ``_RECORD_CAP``. Threads sharing a scenario may both
    make a step; each makes the same bits, and both go on with the operator
    stored first. Two threads that add to ``nbytes`` at once may lose one
    entry's bytes, which only delays the start-over.
    """

    def __init__(self, channels: dict[str, np.ndarray], bra: np.ndarray, pre: np.ndarray):
        self.channels, self.bra, self.pre = channels, bra, pre
        self.proven = {id(p): p for p in channels.values()}
        self.held, self.nbytes = dict(self.proven), 0
        self.operands, self.products, self.orthogonal, self.amplitudes = {}, {}, {}, {}

    def product(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """PQ, formed and tested once when P and Q are both proven, and then
        proven itself when self-adjoint. A proven diagonal is real
        (``as_operator`` makes a complex one a matrix), and real diagonals
        multiply to a real diagonal, which is not tested. PQ is proven
        before it is stored, so no other thread finds it unproven; of two
        threads that form it at once, both return the one stored first."""
        if id(p) not in self.proven or id(q) not in self.proven:
            return _compose(p, q)
        m = self.products.get((id(p), id(q)))
        if m is None:
            m = _frozen(_compose(p, q))
            if m.ndim == 1 or _self_adjoint(m):
                self.proven[id(m)] = m
            self.nbytes += m.nbytes
            m = self.products.setdefault((id(p), id(q)), m)
        return m

    def orthogonal_pair(self, p: np.ndarray, q: np.ndarray) -> bool:
        """Whether PQ of proven P and Q vanishes within STRUCT_TOL, tested
        once per record: the sum audit requires it, and the product audit
        refuses it. The test reads the kept ``product`` PQ where there is
        one, and else forms PQ for itself alone."""
        key = (id(p), id(q))
        flag = self.orthogonal.get(key)
        if flag is None:
            m = self.products.get(key)
            flag = self.orthogonal[key] = _within_struct_tol(_compose(p, q) if m is None else m)
        return flag

    def amplitude(self, p: np.ndarray, q: np.ndarray | None = None) -> complex:
        """<bra|P|pre> of an operator the record holds, or with ``q`` that of
        the sum P + Q of an orthogonal pair, keyed like ``orthogonal``;
        taken once per record."""
        key = id(p) if q is None else (id(p), id(q))
        value = self.amplitudes.get(key)
        if value is None:
            op = p if q is None else _sum(p, q)
            value = self.amplitudes[key] = _element(self.bra, self.pre, op)
        return value

    def miss_amplitude(self, p: np.ndarray) -> complex:
        """<bra|1 - P|pre>, for the other outcome of the measurement
        {P, 1 - P}, of an operator P the record holds; keyed by the
        one-tuple ``(id(P),)``, apart from P's own, and taken once per
        record."""
        key = (id(p),)
        value = self.amplitudes.get(key)
        if value is None:
            value = self.amplitudes[key] = _element(self.bra, self.pre, _complement(p))
        return value

    def holds(self, p) -> bool:
        """Whether the record holds the very object ``p``."""
        return self.held.get(id(p)) is p

    def fold(self, text: str) -> np.ndarray:
        """The operator of ``text``, bit for bit as ``evaluate`` forms it over
        the channel table, folded once per record, frozen and held. Of two
        threads that fold it at once, both return the one stored first, so
        that the record holds each operator whose numerator it keeps."""
        op = self.operands.get(text)
        if op is None:
            op = _fold(parse(text), self.channels, self.product)
            size = sys.getsizeof(text)
            if op.flags.writeable:  # neither a channel nor a kept product
                op = _frozen(op)
                size += op.nbytes
            self.nbytes += size
            op = self.operands.setdefault(text, op)
            self.held[id(op)] = op
        return op

    def prove(self, op, what: str) -> np.ndarray:
        """``op`` if it is proven, else ``require_projector(op, what)``: coerced,
        scanned and proved in full, and recorded. A failure is not kept, so
        an operand that fails is proved, and named, again at each use."""
        if id(op) in self.proven:
            return op
        op = require_projector(op, what)
        self.proven[id(op)] = op
        return op

    def projectors(self, *operands: tuple[str, str]) -> list:
        """The operators of projector expressions, given as ``(text, what)``
        pairs, each through ``prove`` as ``what``. Every text is folded
        before the first operator is proved."""
        ops = [self.fold(text) for text, _ in operands]
        return [self.prove(op, what) for op, (_, what) in zip(ops, operands)]


def build_scenario(
    name: str, labels, pre, post, evolution=None, channels: Mapping[str, np.ndarray] | None = None
) -> Scenario:
    """A Scenario from raw data: the labels as strings, and the pre/post
    amplitudes, which may be unnormalized, normalized over them. The
    ``Scenario`` constructor checks the rest, copies the evolution and each
    channel, and proves each channel a projector, once. Raises ScenarioError
    on any violated invariant."""
    labels = _labels(labels)
    dim = len(labels)

    def _state(raw, which: str) -> State:
        amps = np.asarray(raw, dtype=complex)
        if amps.shape != (dim,):
            raise ScenarioError(f"{which} state must have {dim} amplitudes, got shape {amps.shape}")
        st = State(amps, labels)
        try:
            return st.normalize()
        except ValueError as exc:
            raise ScenarioError(f"{which} {exc}") from None

    pre_state, post_state = _state(pre, "pre"), _state(post, "post")
    return Scenario(str(name), labels, pre_state, post_state, evolution, channels or {})


def _labels(raw) -> tuple[str, ...]:
    """Basis labels as strings; ScenarioError unless non-empty and unique."""
    labels = tuple(str(lab) for lab in raw)
    if not labels:
        raise ScenarioError("scenario needs at least one basis label")
    if len(set(labels)) != len(labels):
        raise ScenarioError("basis labels must be unique")
    return labels


def _complex_array(obj, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A JSON field of [re, im] pairs, checked and converted as one array:
    finite int or float leaves (not bool) nested as ``(*shape, 2)``, viewed
    as complex so that every bit, signed zeros included, is kept."""
    leaves = np.array(obj, dtype=object)
    if leaves.shape != (*shape, 2) or not set(map(type, leaves.flat)) <= {int, float}:
        layout = ("a list of {}" if len(shape) == 1 else "a {}x{} array of").format(*shape)
        raise ScenarioError(f"{what} must be {layout} [re, im] pairs")
    try:
        parts = leaves.astype(float)
    except OverflowError:
        raise ScenarioError(f"{what} has a number beyond floating-point range") from None
    if not np.isfinite(parts).all():  # JSON's NaN, Infinity, or a float such as 1e400
        raise ScenarioError(f"{what} has a non-finite number")
    return parts.view(complex).reshape(shape)


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
