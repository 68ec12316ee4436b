import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklogic import ParseError, UnboundNameError, evaluate_text, parse, unparse
from weaklogic.expr import MAX_NESTING, Group, Name, Product, Sum
from weaklogic.linalg import add, compose
from helpers import dproj


class TestParse:
    def test_sum_of_products(self):
        assert parse("L1*L2 + R1*R2") == Sum(
            Product(Name("L1"), Name("L2")), Product(Name("R1"), Name("R2"))
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

    def test_left_associativity(self):
        assert parse("a + b + c") == Sum(Sum(Name("a"), Name("b")), Name("c"))
        assert parse("a*b*c") == Product(Product(Name("a"), Name("b")), Name("c"))

    def test_grouping(self):
        assert parse("(a + b)*c") == Product(Group(Sum(Name("a"), Name("b"))), Name("c"))

    def test_whitespace_insignificant(self):
        assert parse(" a +b* c ") == parse("a+b*c")

    def test_identifier_shapes(self):
        assert parse("same12") == Name("same12")
        assert parse("N_p2") == Name("N_p2")
        with pytest.raises(ParseError):
            parse("2same")


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


class TestLimits:
    def test_nesting_beyond_the_limit_rejected_where_crossed(self):
        assert isinstance(parse("(" * MAX_NESTING + "a" + ")" * MAX_NESTING), Group)
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
        assert repr(tree) == "Sum(left=" * 2999 + "Name(ident='A')" + ", right=Name(ident='A'))" * 2999


_names = st.sampled_from(["a", "b1", "Xx", "n_2", "same12"])
_trees = st.recursive(
    _names.map(Name),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda lr: Sum(*lr)),
        st.tuples(children, children).map(lambda lr: Product(*lr)),
        children.map(Group),
    ),
    max_leaves=12,
)


# the dataclass Sum and Product whose equality and repr the chain walk keeps
_RECURSIVE = {
    cls: dataclasses.make_dataclass(cls.__name__, ["left", "right"], frozen=True)
    for cls in (Sum, Product)
}


def _recursive(node):
    if isinstance(node, (Sum, Product)):
        return _RECURSIVE[type(node)](_recursive(node.left), _recursive(node.right))
    if isinstance(node, Group):
        return Group(_recursive(node.inner))
    return node


class TestTreeMethods:
    @given(_trees, _trees)
    @settings(max_examples=200, deadline=None)
    def test_agree_with_the_recursive_dataclass(self, a, b):
        for x, y in ((a, b), (a, parse(unparse(a))), (parse(unparse(a)), parse(unparse(a)))):
            assert (x == y) == (_recursive(x) == _recursive(y))
            assert x != y or hash(x) == hash(y)
        assert repr(a) == repr(_recursive(a))


class TestRoundTrip:
    @given(_trees)
    @settings(max_examples=100, deadline=None)
    def test_unparse_parse_round_trip(self, tree):
        # arbitrary trees may encode associativity the grammar cannot spell,
        # so canonicalize through one parse first; the printed form of any
        # parsed tree must then reparse to the identical tree
        canonical = parse(unparse(tree))
        assert parse(unparse(canonical)) == canonical

    @given(_trees, st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_whitespace_insensitive(self, tree, seed):
        rng = np.random.default_rng(seed)
        canonical = parse(unparse(tree))
        text = unparse(canonical)
        padded = "".join(
            " " * int(rng.integers(0, 3)) + ch + " " * int(rng.integers(0, 3))
            if ch in "+*()"
            else ch
            for ch in text
        )
        assert parse(padded) == canonical

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_input_never_panics(self, text):
        try:
            node = parse(text)
        except ParseError:
            return
        assert isinstance(node, (Name, Sum, Product, Group))

    @given(st.binary(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_never_panic(self, raw):
        try:
            node = parse(raw.decode("latin1"))
        except ParseError:
            return
        assert isinstance(node, (Name, Sum, Product, Group))
