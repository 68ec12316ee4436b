import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaklogic import (
    STRUCT_TOL,
    MeterConfig,
    NotAProjectorError,
    State,
    abl_prob,
    add,
    apply,
    basis_projector,
    bayes_check,
    born_prob,
    catalog,
    classify_product,
    classify_sum,
    collapse,
    commutes,
    compose,
    cond_prob_post,
    evaluate_text,
    identity,
    inner,
    is_projector,
    measure_pointer,
    orthogonal,
    sequential_disturbance,
    weak_limit_estimate,
    weak_value,
)
from weaklogic import linalg
from weaklogic.linalg import (
    act,
    adjoint,
    as_operator,
    complement,
    dense,
    diagonal,
    require_projector,
)
from weaklogic.scenario import amplitude
from helpers import (
    bits,
    generic_labels,
    projector_oracle,
    random_basis_projector,
    random_unit,
    self_adjoint_oracle,
    spy,
    within_struct_tol,
)

BOX2 = ("LL", "LR", "RL", "RR")
BOX3 = ("LLL", "LLR", "LRL", "LRR", "RLL", "RLR", "RRL", "RRR")

# hand-expanded two-box states: both particles split evenly over L and R,
# postselection uses the quarter-phase single-particle state
PRE2 = np.ones(4) / 2.0
POST2 = np.array([1, 1j, 1j, -1]) / 2.0


def _state(amps, labels):
    return State(np.asarray(amps, dtype=complex), labels)


class TestState:
    def test_normalize(self):
        unit = State([3.0, 4.0], ("a", "b")).normalize()
        assert unit.norm == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(unit.amps, [0.6, 0.8])

    def test_normalize_keeps_signed_zeros_and_the_bits_of_division(self):
        # a part that is not zero gets the bits that complex division by the
        # norm gives it; a zero part keeps its sign, which that division loses
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = random_unit(rng, 6) * 10.0 ** float(rng.integers(-5, 6))
            parts = v.view(float)
            parts[rng.random(12) < 0.3] = rng.choice([0.0, -0.0])
            want = (v / np.linalg.norm(v)).view(float)
            want[parts == 0] = parts[parts == 0]
            unit = State(v, generic_labels(6)).normalize()
            assert unit.amps.tobytes() == want.tobytes()

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            State([0.0, 0.0], ("a", "b")).normalize()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_rejected(self):
        # the squared amplitudes sum past the float range: the norm is inf
        with pytest.raises(ValueError, match="norm overflows"):
            State([1e200, 1e200], ("a", "b")).normalize()
        # just inside the range it normalizes as before
        unit = State([1e153, 1e153], ("a", "b")).normalize()
        assert unit.norm == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            State([np.nan, 1.0], ("a", "b"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            State([1.0, 0.0], ("a", "a"))

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            State([1.0, 0.0, 0.0], ("a", "b"))

    def test_amps_read_only(self):
        st = State([1.0, 0.0], ("a", "b"))
        with pytest.raises(ValueError):
            st.amps[0] = 2.0


class TestInner:
    def test_self_overlap_of_unit_vector(self):
        rng = np.random.default_rng(11)
        v = _state(random_unit(rng, 5), tuple("abcde"))
        assert inner(v, v) == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_two_box_postselection_overlap(self):
        # four-term sum (1 - 1 - i - i)/4
        assert inner(_state(POST2, BOX2), _state(PRE2, BOX2)) == pytest.approx(
            -0.5j, abs=1e-12
        )

    def test_three_box_overlap(self):
        pre = _state(np.ones(3) / np.sqrt(3), ("A", "B", "C"))
        post = _state(np.array([1, 1, -1]) / np.sqrt(3), ("A", "B", "C"))
        assert inner(post, pre) == pytest.approx(1 / 3, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner(_state([1, 0], ("a", "b")), _state([1, 0, 0], ("a", "b", "c")))

    def test_label_mismatch(self):
        with pytest.raises(ValueError, match="label mismatch"):
            inner(_state([1, 0], ("a", "b")), _state([1, 0], ("a", "c")))


class TestApply:
    def test_identity(self):
        v = _state(PRE2, BOX2)
        out = apply(identity(4), v)
        np.testing.assert_array_equal(out.amps, v.amps)

    def test_same_boxes_projection(self):
        same12 = basis_projector(BOX2, ["LL", "RR"])
        out = apply(same12, _state(PRE2, BOX2))
        np.testing.assert_allclose(out.amps, [0.5, 0, 0, 0.5], atol=1e-15)
        assert out.norm == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_box_a_projection(self):
        box_a = basis_projector(("A", "B", "C"), ["A"])
        pre = _state(np.ones(3) / np.sqrt(3), ("A", "B", "C"))
        out = apply(box_a, pre)
        np.testing.assert_allclose(out.amps, [1 / np.sqrt(3), 0, 0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply(identity(3), _state(PRE2, BOX2))


class TestOperatorAlgebra:
    def test_pair_correlators_compose_to_triple(self):
        same12 = basis_projector(BOX3, [l for l in BOX3 if l[0] == l[1]])
        same23 = basis_projector(BOX3, [l for l in BOX3 if l[1] == l[2]])
        triple = basis_projector(BOX3, ["LLL", "RRR"])
        np.testing.assert_allclose(compose(same12, same23), triple, atol=1e-15)

    def test_add_zero(self):
        p = basis_projector(BOX2, ["LL"])
        np.testing.assert_array_equal(add(p, np.zeros((4, 4))), dense(p))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))
        with pytest.raises(ValueError):
            add(identity(2), identity(3))
        with pytest.raises(ValueError, match="square"):
            is_projector(np.ones((2, 3)))


class TestStructureChecks:
    def test_same_boxes_is_projector(self):
        assert is_projector(basis_projector(BOX2, ["LL", "RR"]))

    def test_pair_correlators_commute(self):
        same12 = basis_projector(BOX3, [l for l in BOX3 if l[0] == l[1]])
        same23 = basis_projector(BOX3, [l for l in BOX3 if l[1] == l[2]])
        assert commutes(same12, same23)

    def test_disjoint_supports_orthogonal(self):
        assert orthogonal(
            basis_projector(BOX2, ["LL"]), basis_projector(BOX2, ["RR"])
        )

    def test_non_projector_detected(self):
        assert not is_projector(2.0 * identity(3))
        assert not is_projector(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_require_projector_returns_complex_matrix(self):
        p = require_projector([[1, 0], [0, 0]], "coupling")
        assert p.dtype == complex
        np.testing.assert_array_equal(p, dense(basis_projector(("u", "d"), ["u"])))

    def test_require_projector_scans_its_operand_once(self, monkeypatch):
        scans = []
        spy(monkeypatch, linalg._check_finite, lambda a, what: scans.append(what))
        v = random_unit(np.random.default_rng(1), 4)
        p = np.outer(v, v.conj())
        assert require_projector(p, "operand") is p
        assert scans == ["operand"]

    def test_require_projector_names_the_operand(self):
        with pytest.raises(NotAProjectorError, match="first operand is not a projector"):
            require_projector(2.0 * identity(2), "first operand")
        with pytest.raises(ValueError, match="coupling must be a square"):
            require_projector(np.ones((2, 3)), "coupling")

    def test_a_nan_is_not_self_adjoint(self):
        assert linalg._self_adjoint(np.eye(2, dtype=complex))
        assert not linalg._self_adjoint(np.array([[np.nan, 0], [0, 1]], dtype=complex))
        assert not linalg._self_adjoint(np.array([np.nan, 0.0]))

    def test_non_commuting_detected(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        up = basis_projector(("u", "d"), ["u"])
        assert not commutes(plus, up)
        assert not orthogonal(plus, up)


def _ulps(x: float, k: int) -> float:
    """x moved k ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


#: A real or imaginary part: a signed zero, NaN, an infinity, an arbitrary
#: small float, or a few ulps from a bound of the structural test: STRUCT_TOL,
#: STRUCT_TOL/2, and STRUCT_TOL/sqrt(2), where two equal parts put |z| at
#: STRUCT_TOL.
_PART = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
    st.builds(
        lambda base, k, sign: sign * _ulps(base, k),
        st.sampled_from([STRUCT_TOL, STRUCT_TOL / 2, STRUCT_TOL / np.sqrt(2)]),
        st.integers(-4, 4),
        st.sampled_from([1.0, -1.0]),
    ),
    st.floats(-2 * STRUCT_TOL, 2 * STRUCT_TOL),
)

#: Random entries' scale: none, well within, about and above STRUCT_TOL.
_SCALE = st.sampled_from([0.0, STRUCT_TOL / 4, STRUCT_TOL, 1.0])


def _operator(seed: int, dim: int, form: str, scale: float, entries) -> np.ndarray:
    """A ``form`` operator ("hermitian", "general" or "diagonal") of random
    entries times ``scale``, with each (i, j, re, im) of ``entries`` added at
    (i, j) mod dim, or at i mod dim of a diagonal."""
    rng = np.random.default_rng(seed)
    shape = (dim,) if form == "diagonal" else (dim, dim)
    m = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    if form == "hermitian":
        m = (m + m.conj().T) / 2
    with np.errstate(invalid="ignore"):
        for i, j, re, im in entries:
            index = (i % dim,) if form == "diagonal" else (i % dim, j % dim)
            m[index] += complex(re, im)
    return m


_OPERATORS = st.builds(
    _operator,
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
    st.sampled_from(["hermitian", "general", "diagonal"]),
    _SCALE,
    st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63), _PART, _PART), max_size=4),
)

#: Residual entries the two bounds of the test must not misjudge.
_BOUNDARY = [
    complex(STRUCT_TOL, 0.0),
    complex(_ulps(STRUCT_TOL, 1), 0.0),
    complex(-0.0, -STRUCT_TOL),
    complex(0.6 * STRUCT_TOL, 0.0),  # decided by |z|, which passes
    complex(0.9 * STRUCT_TOL, 0.9 * STRUCT_TOL),  # every part within, |z| not
    complex(STRUCT_TOL / 2, STRUCT_TOL / 2),
    complex(_ulps(STRUCT_TOL / 2, 1), STRUCT_TOL / 2),
    complex(STRUCT_TOL / np.sqrt(2), STRUCT_TOL / np.sqrt(2)),
    complex(_ulps(STRUCT_TOL / np.sqrt(2), 2), -_ulps(STRUCT_TOL / np.sqrt(2), 2)),
    complex(np.nan, 0.0),
    complex(0.0, -np.inf),
]


class TestStructuralResidual:
    """Every structural check decides ``np.max(np.abs(r)) <= STRUCT_TOL``
    through ``linalg._within_struct_tol``, which reads the residual's parts
    first; its verdicts must be the oracles' on every input, at the bounds
    of its shortcut and on NaN and infinities."""

    @pytest.mark.parametrize("z", _BOUNDARY, ids=repr)
    @pytest.mark.parametrize("form", ["diagonal", "matrix"])
    def test_boundary_entries(self, z, form):
        r = np.zeros(5 if form == "diagonal" else (5, 5), dtype=complex)
        r[(2,) if form == "diagonal" else (2, 3)] = z
        assert linalg._within_struct_tol(r) is within_struct_tol(r)
        assert linalg._self_adjoint(r) is self_adjoint_oracle(r)

    def test_boundary_verdicts(self):
        verdicts = [linalg._within_struct_tol(np.array([z])) for z in _BOUNDARY]
        assert verdicts == [
            True, False, True, True, False, True, True, True, False, False, False
        ]

    @given(_OPERATORS)
    @settings(max_examples=400, deadline=None)
    @example(np.full(3, complex(0.9 * STRUCT_TOL, 0.9 * STRUCT_TOL)))
    @example(np.full((2, 2), complex(0.6 * STRUCT_TOL, -0.0)))
    def test_agrees_with_the_oracles(self, m):
        with np.errstate(all="ignore"):
            assert linalg._within_struct_tol(m) is within_struct_tol(m)
            assert linalg._self_adjoint(m) is self_adjoint_oracle(m)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 64),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63), _PART, _PART), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_projector_proof_agrees_with_the_oracle(self, seed, dim, as_diagonal, entries):
        # a 0/1 diagonal perturbed entry by entry: its residuals take the
        # perturbations' own values, so they meet the bounds of the test
        rng = np.random.default_rng(seed)
        p = _operator(seed, dim, "diagonal" if as_diagonal else "general", 0.0, entries)
        flags = (rng.random(dim) < 0.5).astype(complex)
        if as_diagonal:
            p += flags
        else:
            p[np.diag_indices(dim)] += flags
        with np.errstate(all="ignore"):
            assert linalg._proves_projector(p) is projector_oracle(p)

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[1.0 + 2.0j]]),
            np.array([[0.5 + 0.0j]]),
            np.asfortranarray(np.arange(9).reshape(3, 3) * (1 + 1j)),
            np.asfortranarray(np.eye(4, dtype=complex)),
            np.array([0.5 + 0.0j, 1.0]),
        ],
        ids=["d1", "d1-real", "fortran", "fortran-hermitian", "diagonal"],
    )
    @pytest.mark.parametrize("writeable", [True, False])
    def test_self_adjoint_leaves_its_argument_unchanged(self, m, writeable):
        # a transposed view of a 1 x 1 or F-ordered matrix is C-contiguous,
        # so a residual formed in it would write into the argument
        m = m.copy(order="K")
        m.setflags(write=writeable)
        before = bits(m), m.flags.c_contiguous, m.flags.f_contiguous
        linalg._self_adjoint(m)
        assert (bits(m), m.flags.c_contiguous, m.flags.f_contiguous) == before
        assert m.flags.writeable is writeable


class TestRandomizedProperties:
    def test_inner_product_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            labels = tuple(f"b{i}" for i in range(dim))
            u = _state(random_unit(rng, dim), labels)
            v = _state(random_unit(rng, dim), labels)
            assert abs(inner(u, v)) <= 1.0 + 1e-12

    def test_projector_trace_is_integer(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            p = random_basis_projector(rng, dim)
            assert is_projector(p)
            trace = np.trace(p).real
            assert trace >= -1e-9
            assert abs(trace - round(trace)) <= 1e-9


# every public function that takes an operator, called on operands a and b;
# results that are operators are compared as matrices
_OPERATOR_FUNCTIONS = {
    "as_operator": lambda s, a, b: dense(as_operator(a)),
    "dense": lambda s, a, b: dense(a),
    "diagonal": lambda s, a, b: (diagonal(a), diagonal(add(a, b))),
    "compose": lambda s, a, b: dense(compose(add(a, b), a)),
    "add": lambda s, a, b: dense(add(a, b)),
    # conjugation gives a matrix -0.0 imaginary parts off the diagonal, which
    # a diagonal does not hold; the adjoint is compared as it is used, in a sum
    "adjoint": lambda s, a, b: dense(add(a, adjoint(as_operator(b)))),
    "complement": lambda s, a, b: dense(complement(a)),
    "is_projector": lambda s, a, b: (is_projector(a), is_projector(add(a, a))),
    "require_projector": lambda s, a, b: dense(require_projector(a, "a")),
    "commutes": lambda s, a, b: commutes(a, b),
    "orthogonal": lambda s, a, b: (orthogonal(a, b), orthogonal(a, a)),
    "act": lambda s, a, b: act(a, s.bra.amps),
    "apply": lambda s, a, b: apply(a, s.pre_state),
    "amplitude": lambda s, a, b: amplitude(s, complement(a), b, a),
    "weak_value": lambda s, a, b: weak_value(s, add(a, b)),
    "born_prob": lambda s, a, b: born_prob(s.pre_state, a),
    "collapse": lambda s, a, b: collapse(s.pre_state, a),
    "cond_prob_post": lambda s, a, b: cond_prob_post(s, a),
    "abl_prob": lambda s, a, b: abl_prob(s, a),
    "bayes_check": lambda s, a, b: bayes_check(s, a),
    "classify_sum": lambda s, a, b: classify_sum(s, a, b),
    "classify_product": lambda s, a, b: classify_product(s, add(a, b), a),
    "measure_pointer": lambda s, a, b: measure_pointer(s, a, MeterConfig(1.0, 0.1)),
    "weak_limit_estimate": lambda s, a, b: weak_limit_estimate(
        s, a, 1.0, [1e-1, 1e-2, 1e-3, 1e-4]
    ),
    "sequential_disturbance": lambda s, a, b: sequential_disturbance(s, a, b, 1.0, 0.05),
}


def _outcome(function, *args):
    try:
        return bits(function(*args))
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestDiagonalForm:
    """A real diagonal operator may be passed as its 1-D diagonal. Every
    function must then give the bits of its matrix, or the same error."""

    @pytest.mark.parametrize("name", sorted(_OPERATOR_FUNCTIONS))
    @pytest.mark.parametrize("forms", ["diagonal, diagonal", "diagonal, matrix", "matrix, diagonal"])
    @pytest.mark.parametrize("scenario, a, b", [("three-box", "C", "A"), ("hardy", "Np", "Ip")])
    def test_same_bits_as_the_matrix(self, name, forms, scenario, a, b):
        s = catalog(scenario)
        operands = [
            s.channels[channel] if form == "diagonal" else dense(s.channels[channel])
            for form, channel in zip(forms.split(", "), (a, b))
        ]
        assert operands[0].ndim + operands[1].ndim == (3 if "matrix" in forms else 2)
        function = _OPERATOR_FUNCTIONS[name]
        want = _outcome(function, s, dense(s.channels[a]), dense(s.channels[b]))
        assert _outcome(function, s, *operands) == want

    @pytest.mark.parametrize(
        "entry, projector", [(0.5, False), (1 + 1e-9j, False), (1 + 1e-11, True), (-1e-9, False)]
    )
    def test_structure_decisions_match_off_the_projectors(self, entry, projector):
        d = np.array([1, entry, 0], dtype=complex)
        m = np.diag(d)
        other = np.array([0, 1, 1], dtype=complex)
        assert is_projector(d) == is_projector(m)
        for x, y in ((d, other), (other, d), (d, d)):
            assert orthogonal(x, y) == orthogonal(dense(x), dense(y))
            assert commutes(x, y) == commutes(dense(x), dense(y))
        assert is_projector(d) == projector

    def test_only_a_real_diagonal_keeps_its_form(self):
        assert as_operator([1.0, 0.0]).ndim == 1
        assert as_operator([1.0, 1e-300j]).shape == (2, 2)
        assert diagonal(np.diag([1.0, 0.0])).ndim == 1
        assert diagonal(np.diag([1.0, 1e-300j])) is None
        assert diagonal(np.array([[1, 1e-300], [0, 0]])) is None
        with pytest.raises(ValueError, match="square matrix or its diagonal"):
            as_operator(np.zeros(0))

    def test_mixed_operands_become_a_matrix(self):
        d = np.array([1.0, 0.0, 1.0], dtype=complex)
        assert compose(d, d).ndim == add(d, d).ndim == 1
        assert compose(d, identity(3)).shape == add(identity(3), d).shape == (3, 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            add(d, identity(2))


S = catalog("three-box")
GOOD = S.channel("A")
CFG = MeterConfig(sigma=1.0, g=0.1)

#: Each public function that takes an operator, with the name its message gives it.
ENTRY_POINTS = {
    "act": (lambda op: act(op, S.pre_state.amps), "operator"),
    "apply": (lambda op: apply(op, S.pre_state), "operator"),
    "compose": (lambda op: compose(GOOD, op), "operator"),
    "compose first": (lambda op: compose(op, GOOD), "operator"),
    "add": (lambda op: add(GOOD, op), "operator"),
    "complement": (complement, "operator"),
    "is_projector": (is_projector, "operator"),
    "require_projector": (lambda op: require_projector(op, "P"), "P"),
    "amplitude": (lambda op: amplitude(S, GOOD, op), "operator"),
    "weak_value": (lambda op: weak_value(S, op), "operator"),
    "born_prob": (lambda op: born_prob(S.pre_state, op), "operator"),
    "collapse": (lambda op: collapse(S.pre_state, op), "operator"),
    "cond_prob_post": (lambda op: cond_prob_post(S, op), "operator"),
    "abl_prob": (lambda op: abl_prob(S, op), "operator"),
    "classify_sum": (lambda op: classify_sum(S, op, GOOD), "first operand"),
    "classify_sum second": (lambda op: classify_sum(S, GOOD, op), "second operand"),
    "classify_product": (lambda op: classify_product(S, op, GOOD), "first operand"),
    "classify_product second": (
        lambda op: classify_product(S, GOOD, op), "second operand"
    ),
    "measure_pointer": (lambda op: measure_pointer(S, op, CFG), "meter coupling"),
    "weak_limit_estimate": (
        lambda op: weak_limit_estimate(S, op, 1.0, (1e-1, 1e-2)), "meter coupling"
    ),
    "sequential_disturbance": (
        lambda op: sequential_disturbance(S, op, GOOD, 1.0, 0.05), "first meter coupling"
    ),
    "sequential_disturbance second": (
        lambda op: sequential_disturbance(S, GOOD, op, 1.0, 0.05), "second meter coupling"
    ),
}


class TestEveryEntryPointRejectsNonFinite:
    """Each public function that takes an operator scans it for NaN/Inf where
    it enters the library, and raises the message that names the operand."""

    @pytest.mark.parametrize("call", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "bad",
        [np.array([1.0, np.nan, 0.0]), np.diag([1.0, 0.0, np.inf]), np.full((3, 3), -np.inf)],
        ids=["nan diagonal", "inf matrix", "all -inf"],
    )
    def test_rejected_with_the_operands_name(self, call, bad):
        function, what = ENTRY_POINTS[call]
        with pytest.raises(ValueError, match=f"^{what} contains non-finite entries$"):
            function(bad)

    def test_a_non_finite_table_evaluates_and_its_consumer_rejects_it(self):
        table = {"a": np.array([np.nan, 0.0, 0.0], dtype=complex), "b": GOOD}
        p = evaluate_text("a + b*b", table)
        with pytest.raises(ValueError, match="^operator contains non-finite entries$"):
            weak_value(S, p)
        with pytest.raises(ValueError, match="^first operand contains non-finite entries$"):
            classify_sum(S, p, GOOD)
