"""Projector expressions over a scenario's named channels.

Grammar (whitespace insignificant, both operators left-associative,
'*' binding tighter than '+'):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := NAME | '(' expr ')'
    NAME   := [A-Za-z][A-Za-z0-9_]*

A sum of projectors reads as a non-exclusive OR of the named channels, a
product as an AND; evaluation performs no physics validation, so the result
need not itself be a projector. Parentheses may nest at most ``MAX_NESTING``
deep; a chain of '+' or '*' may be of any length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Union

import numpy as np

from .errors import ParseError, UnboundNameError
from .linalg import add, compose


@dataclass(frozen=True)
class Name:
    ident: str


class _Chain:
    """A binary node's dataclass equality and repr, and a hash that agrees,
    computed over its left-deep chain of one operator in a loop."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _operands(self) == _operands(other)

    def __hash__(self):
        return hash((self.__class__, *_operands(self)))

    def __repr__(self):
        first, *rest = _operands(self)
        head = f"{self.__class__.__name__}(left=" * len(rest) + repr(first)
        return head + "".join(f", right={op!r})" for op in rest)


@dataclass(frozen=True, eq=False, repr=False)
class Sum(_Chain):
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Product(_Chain):
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Group:
    inner: "Node"


Node = Union[Name, Sum, Product, Group]

#: Deepest parenthesis nesting ``parse`` accepts.
MAX_NESTING = 100

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SINGLE = {"+": "PLUS", "*": "STAR", "(": "LPAREN", ")": "RPAREN"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = depth = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SINGLE:
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            tokens.append((_SINGLE[ch], ch, pos))
            pos += 1
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(("NAME", m.group(), pos))
            pos = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("END", "", len(text)))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self._tokens = tokens
        self._i = 0

    def peek(self) -> tuple[str, str, int]:
        return self._tokens[self._i]

    def take(self) -> tuple[str, str, int]:
        tok = self._tokens[self._i]
        self._i += 1
        return tok


def _parse_expr(ts: _TokenStream) -> Node:
    node = _parse_term(ts)
    while ts.peek()[0] == "PLUS":
        ts.take()
        node = Sum(node, _parse_term(ts))
    return node


def _parse_term(ts: _TokenStream) -> Node:
    node = _parse_factor(ts)
    while ts.peek()[0] == "STAR":
        ts.take()
        node = Product(node, _parse_factor(ts))
    return node


def _parse_factor(ts: _TokenStream) -> Node:
    kind, text, pos = ts.take()
    if kind == "NAME":
        return Name(text)
    if kind == "LPAREN":
        node = _parse_expr(ts)
        kind, _, pos = ts.take()
        if kind != "RPAREN":
            raise ParseError("expected ')'", pos)
        return Group(node)
    if kind == "END":
        raise ParseError("expected a channel name or '('", pos)
    raise ParseError(f"unexpected {text!r}", pos)


def parse(text: str) -> Node:
    """Parse a projector expression into its syntax tree."""
    ts = _TokenStream(_tokenize(text))
    if ts.peek()[0] == "END":
        raise ParseError("empty expression", ts.peek()[2])
    node = _parse_expr(ts)
    kind, tok, pos = ts.peek()
    if kind != "END":
        raise ParseError(f"unexpected {tok!r} after expression", pos)
    return node


def _operands(node: Union[Sum, Product]) -> list[Node]:
    """Operands of a left-deep chain of one operator, left to right."""
    kind = type(node)
    rights = []
    while type(node) is kind:
        rights.append(node.right)
        node = node.left
    return [node, *reversed(rights)]


def names(text: str) -> set[str]:
    """Channel names a parsable expression uses."""
    return set(_NAME_RE.findall(text))


def unparse(node: Node) -> str:
    """Render a tree back to canonical text; reparsing yields an equal tree."""
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, (Sum, Product)):
        separator = " + " if isinstance(node, Sum) else "*"
        return separator.join(unparse(operand) for operand in _operands(node))
    if isinstance(node, Group):
        return f"({unparse(node.inner)})"
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Node, channels: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate a tree against a channel table.

    Sums map to ``add`` and products to left-to-right ``compose``, in the
    table's operator form. Callers that need a projector must check the
    result with ``is_projector``.
    """
    if isinstance(node, Name):
        try:
            return channels[node.ident]
        except KeyError:
            raise UnboundNameError(node.ident, channels.keys()) from None
    if isinstance(node, (Sum, Product)):
        combine = add if isinstance(node, Sum) else compose
        return reduce(combine, (evaluate(op, channels) for op in _operands(node)))
    if isinstance(node, Group):
        return evaluate(node.inner, channels)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_text(text: str, channels: Mapping[str, np.ndarray]) -> np.ndarray:
    """Parse and evaluate in one step."""
    return evaluate(parse(text), channels)
