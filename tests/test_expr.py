import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklogic import (
    NotAProjectorError,
    ParseError,
    UnboundNameError,
    build_scenario,
    evaluate,
    evaluate_text,
    parse,
    unparse,
)
from weaklogic.expr import MAX_NESTING, Name, Product, Sum
from weaklogic.linalg import add, as_operator, compose
from helpers import dproj


class TestParse:
    def test_sum_of_products(self):
        assert parse("L1*L2 + R1*R2") == Sum(
            (Product((Name("L1"), Name("L2"))), Product((Name("R1"), Name("R2"))))
        )

    def test_single_name(self):
        assert parse("A") == Name("A")

    def test_dangling_operator_position(self):
        with pytest.raises(ParseError) as exc:
            parse("A + ")
        assert exc.value.position == 4

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty expression"):
            parse("")
        with pytest.raises(ParseError, match="empty expression"):
            parse("   ")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse("A + $B")
        assert exc.value.position == 4

    def test_unclosed_group(self):
        with pytest.raises(ParseError, match="expected"):
            parse("(A + B")

    def test_trailing_junk(self):
        with pytest.raises(ParseError) as exc:
            parse("A B")
        assert exc.value.position == 2

    def test_chains_are_flat(self):
        a, b, c = Name("a"), Name("b"), Name("c")
        assert parse("a + b + c") == Sum((a, b, c))
        assert parse("a*b*c") == Product((a, b, c))

    def test_grouping(self):
        a, b, c = Name("a"), Name("b"), Name("c")
        assert parse("(a + b)*c") == Product((Sum((a, b)), c))
        assert parse("a*(b*c)") == Product((a, Product((b, c))))
        assert parse("(a + b) + c") == Sum((Sum((a, b)), c))
        assert parse("((a))") == a

    def test_whitespace_insignificant(self):
        assert parse(" a +b* c ") == parse("a+b*c")

    def test_identifier_shapes(self):
        assert parse("same12") == Name("same12")
        assert parse("N_p2") == Name("N_p2")
        with pytest.raises(ParseError):
            parse("2same")


class TestParseCalls:
    """``parse`` depends on nothing but its text: each call of a text gives
    an equal tree, or the same error, in any thread."""

    TEXTS = ["L3*L5", "L1*L2 + R1*R2", "A*(B + C)", "((A))", "x_1 + y*z + w"]

    @pytest.mark.parametrize("text, position", [("A + * B", 4), ("A +", 3), ("(A", 2), ("", 0)])
    def test_an_error_is_raised_on_every_call(self, text, position):
        for _ in range(3):
            with pytest.raises(ParseError) as caught:
                parse(text)
            assert caught.value.position == position

    def test_threads_get_equal_trees(self):
        # more threads than cores, switching often
        texts = [f"{t} + Q{i}" for i in range(200) for t in self.TEXTS[:2]]
        want = [parse(text) for text in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [pool.submit(lambda: [parse(t) for t in texts]) for _ in range(4)]
                got = [future.result(timeout=60) for future in results]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 4


class TestEvaluate:
    @pytest.fixture()
    def channels(self):
        rng = np.random.default_rng(9)
        table = {}
        for name in ("a", "b", "c"):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            table[name] = m
        return table

    def test_precedence(self, channels):
        got = evaluate_text("a + b*c", channels)
        expected = add(channels["a"], compose(channels["b"], channels["c"]))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_group_overrides_precedence(self, channels):
        got = evaluate_text("(a + b)*c", channels)
        expected = compose(add(channels["a"], channels["b"]), channels["c"])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_products_compose_left_to_right(self, channels):
        got = evaluate_text("a*b*c", channels)
        expected = compose(compose(channels["a"], channels["b"]), channels["c"])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_named_channel_matches_expansion(self):
        table = {
            "L1": dproj(4, [0, 1]),
            "L2": dproj(4, [0, 2]),
            "R1": dproj(4, [2, 3]),
            "R2": dproj(4, [1, 3]),
            "same12": dproj(4, [0, 3]),
        }
        np.testing.assert_allclose(
            evaluate_text("L1*L2 + R1*R2", table), table["same12"], atol=1e-15
        )

    def test_unbound_name(self):
        with pytest.raises(UnboundNameError, match="unknown channel 'X'"):
            evaluate_text("X", {})

    def test_dimension_mismatch_between_channels(self):
        table = {"a": np.eye(2, dtype=complex), "b": np.eye(3, dtype=complex)}
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate_text("a + b", table)


class _Operator:
    """An operator whose '+' and '*' are ``add`` and ``compose``, so Python's
    own parser, with the same precedence and left associativity, groups it."""

    def __init__(self, m):
        self.m = m

    def __add__(self, other):
        return _Operator(add(self.m, other.m))

    def __mul__(self, other):
        return _Operator(compose(self.m, other.m))


def _tables():
    rng = np.random.default_rng(20)
    names = ("a", "b1", "Xx", "n_2")
    diag = {n: as_operator(rng.normal(size=3)) for n in names}
    dense = {
        n: as_operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for n in names
    }
    mixed = {n: (diag if i % 2 else dense)[n] for i, n in enumerate(names)}
    return {"diagonal": diag, "dense": dense, "mixed": mixed}


_TABLES = _tables()
_texts = st.recursive(
    st.sampled_from(sorted(_TABLES["dense"])),
    lambda children: st.one_of(
        st.lists(children, min_size=2).map(" + ".join),
        st.lists(children, min_size=2).map("*".join),
        children.map(lambda t: f"({t})"),
    ),
    max_leaves=12,
)


def _python_eval(text, table):
    env = {name: _Operator(m) for name, m in table.items()}
    return eval(text, {"__builtins__": {}}, env).m


def _assert_same_bits(got, expected):
    assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
    assert got.tobytes() == expected.tobytes()


class TestGroupingAgainstPython:
    @pytest.mark.parametrize("kind", sorted(_TABLES))
    @given(text=_texts)
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_pythons_parse(self, kind, text):
        table = _TABLES[kind]
        _assert_same_bits(evaluate_text(text, table), _python_eval(text, table))

    def test_right_grouped_product_keeps_its_bits(self):
        table = _TABLES["dense"]
        grouped = evaluate_text("a*(b1*Xx)", table)
        _assert_same_bits(grouped, compose(table["a"], compose(table["b1"], table["Xx"])))
        # the two groupings round differently, so a dropped grouping would show
        assert grouped.tobytes() != evaluate_text("a*b1*Xx", table).tobytes()


class TestLimits:
    def test_nesting_beyond_the_limit_rejected_where_crossed(self):
        assert parse("(" * MAX_NESTING + "a" + ")" * MAX_NESTING) == Name("a")
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}") as exc:
            parse("(" * 400 + "a" + ")" * 400)
        assert exc.value.position == MAX_NESTING

    def test_long_chains_fold_without_recursion(self):
        table = {"a": dproj(2, [0]), "b": dproj(2, [1])}
        text = " + ".join(["a"] * 3000) + " + " + "*".join(["b"] * 3000)
        np.testing.assert_array_equal(evaluate_text(text, table), np.diag([3000, 1]))
        assert unparse(parse(text)) == text

    def test_long_chains_compare_hash_and_print(self):
        text = "+".join(["A"] * 3000)
        tree = parse(text)
        assert tree == parse(text)
        assert tree != parse(text + "+A")
        assert hash(tree) == hash(parse(text))
        assert repr(tree) == "Sum(operands=(" + ", ".join(["Name(ident='A')"] * 3000) + "))"

    def test_deepest_nesting_compares_hashes_prints_and_evaluates(self):
        # each parenthesis level adds a Sum and a Product to the tree's depth;
        # every method that walks the tree runs with 500 frames left
        text = "a"
        for _ in range(MAX_NESTING):
            text = f"a + a*({text})"
        tree, twin = parse(text), parse(text)
        s = build_scenario("deep", ("0", "1"), [1, 1], [1, 1], channels={"a": dproj(2, [0])})

        def proof():
            with pytest.raises(NotAProjectorError, match="deep is not a projector"):
                s.channels._fresh().projectors((text, "deep"))

        assert _with_frames_left(500, lambda: tree == twin)
        assert _with_frames_left(500, lambda: hash(tree)) == hash(twin)
        assert _with_frames_left(500, lambda: repr(tree)).count("Product(") == MAX_NESTING
        assert parse(unparse(tree)) == tree
        np.testing.assert_array_equal(
            _with_frames_left(500, lambda: evaluate(tree, s.channels)),
            np.array([MAX_NESTING + 1, 0]),
        )
        _with_frames_left(500, proof)


def _with_frames_left(frames, f):
    """``f()``, called where only ``frames`` frames remain below the
    recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def descend(n):
        return descend(n - 1) if n else f()

    return descend(sys.getrecursionlimit() - frames - depth)


_names = st.sampled_from(["a", "b1", "Xx", "n_2", "same12"])
_trees = st.recursive(
    _names.map(Name),
    lambda children: st.one_of(
        st.lists(children, min_size=2).map(tuple).map(Sum),
        st.lists(children, min_size=2).map(tuple).map(Product),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @given(_trees)
    @settings(max_examples=100, deadline=None)
    def test_unparse_parse_round_trip(self, tree):
        assert parse(unparse(tree)) == tree

    @given(_trees, st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_whitespace_insensitive(self, tree, seed):
        rng = np.random.default_rng(seed)
        text = unparse(tree)
        padded = "".join(
            " " * int(rng.integers(0, 3)) + ch + " " * int(rng.integers(0, 3))
            if ch in "+*()"
            else ch
            for ch in text
        )
        assert parse(padded) == tree

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_input_never_panics(self, text):
        try:
            node = parse(text)
        except ParseError:
            return
        assert isinstance(node, (Name, Sum, Product))

    @given(st.binary(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_never_panic(self, raw):
        try:
            node = parse(raw.decode("latin1"))
        except ParseError:
            return
        assert isinstance(node, (Name, Sum, Product))
