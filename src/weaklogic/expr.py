"""Projector expressions over a scenario's named channels.

Grammar (whitespace insignificant, both operators left-associative,
'*' binding tighter than '+'):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := NAME | '(' expr ')'
    NAME   := [A-Za-z][A-Za-z0-9_]*

A sum of projectors reads as a non-exclusive OR of the named channels, a
product as an AND; evaluation performs no physics validation, so the result
need not itself be a projector. A chain of '+' or '*' parses into one flat
``Sum`` or ``Product`` of any length; a parenthesised chain stays one
operand of its parent, so the tree keeps the grouping the text spelled.
Parentheses may nest at most ``MAX_NESTING`` deep, so a tree is at most 101
levels deep, and its dataclass methods, ``evaluate`` and every other walk of
it need fewer than 500 frames of Python's default recursion limit of 1,000.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Mapping, Union

import numpy as np

from .errors import ParseError, UnboundNameError
from .linalg import _compose, _sum


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Sum:
    operands: tuple["Node", ...]


@dataclass(frozen=True)
class Product:
    operands: tuple["Node", ...]


Node = Union[Name, Sum, Product]

#: Deepest parenthesis nesting ``parse`` accepts.
MAX_NESTING = 50

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
    operands = [_parse_term(ts)]
    while ts.peek()[0] == "PLUS":
        ts.take()
        operands.append(_parse_term(ts))
    return Sum(tuple(operands)) if len(operands) > 1 else operands[0]


def _parse_term(ts: _TokenStream) -> Node:
    operands = [_parse_factor(ts)]
    while ts.peek()[0] == "STAR":
        ts.take()
        operands.append(_parse_factor(ts))
    return Product(tuple(operands)) if len(operands) > 1 else operands[0]


def _parse_factor(ts: _TokenStream) -> Node:
    kind, text, pos = ts.take()
    if kind == "NAME":
        return Name(text)
    if kind == "LPAREN":
        node = _parse_expr(ts)
        kind, _, pos = ts.take()
        if kind != "RPAREN":
            raise ParseError("expected ')'", pos)
        return node
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


def unparse(node: Node) -> str:
    """Render a tree back to canonical text; reparsing yields an equal tree."""
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, (Sum, Product)):
        separator = " + " if isinstance(node, Sum) else "*"
        # a Sum under a Product, or a chain under its own kind, was grouped
        grouped = (Sum, type(node))
        return separator.join(
            f"({unparse(op)})" if isinstance(op, grouped) else unparse(op)
            for op in node.operands
        )
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Node, channels: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate a tree against a channel table of operator arrays.

    The table is combined as given, neither coerced nor scanned for NaN/Inf:
    each chain folds left to right, sums elementwise, in the table's operator
    form (a diagonal meeting a matrix becomes one). Each consumer of the
    result checks it once where it takes it; a ``Scenario``'s channels were
    checked when it was built. Callers that need a projector take the result
    through ``require_projector``, or ``proven_projector``, which passes a
    channel the scenario already proved. The audits fold the tree the same
    way and prove a product of proven factors by its self-adjointness.
    """
    return _fold(node, channels, _sum, _compose)


def _fold(node: Node, table: Mapping[str, Any], add: Callable, multiply: Callable) -> Any:
    """``evaluate`` over any table: each name looked up, each chain folded
    left to right with ``add`` or ``multiply``."""
    if isinstance(node, Name):
        try:
            return table[node.ident]
        except KeyError:
            raise UnboundNameError(node.ident, table.keys()) from None
    if isinstance(node, (Sum, Product)):
        combine = add if isinstance(node, Sum) else multiply
        return reduce(combine, (_fold(op, table, add, multiply) for op in node.operands))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_text(text: str, channels: Mapping[str, np.ndarray]) -> np.ndarray:
    """Parse and evaluate in one step."""
    return evaluate(parse(text), channels)
