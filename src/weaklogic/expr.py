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
One rule reads both chains: a chain of '+' over chains of '*' over factors.
Parentheses may nest at most ``MAX_NESTING`` deep, so a tree is at most 101
levels deep, and its dataclass methods, ``evaluate`` and every other walk of
it need fewer than 500 frames of Python's default recursion limit of 1,000.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping, Union

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

#: The chains from loosest to tightest binding: each level reads a chain of
#: its operator over the next level, and the level past the last a factor.
_CHAINS = (("+", Sum), ("*", Product))


def _tokenize(text: str) -> list[tuple[str, int]]:
    """The (text, position) tokens, last first after an end token
    ``("", len(text))``, so that ``pop`` takes the next one."""
    tokens = []
    pos = depth = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch in "+*()":
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", pos)
            tokens.append((ch, pos))
            pos += 1
        elif m := _NAME_RE.match(text, pos):
            tokens.append((m.group(), pos))
            pos = m.end()
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("", len(text)))
    return tokens[::-1]


def _parse(tokens: list[tuple[str, int]], level: int = 0) -> Node:
    """Read a chain of ``_CHAINS[level]`` off ``tokens``, or past the last
    level a factor: a name or a parenthesised expression."""
    if level < len(_CHAINS):
        op, chain = _CHAINS[level]
        operands = [_parse(tokens, level + 1)]
        while tokens[-1][0] == op:
            tokens.pop()
            operands.append(_parse(tokens, level + 1))
        return chain(tuple(operands)) if len(operands) > 1 else operands[0]
    tok, pos = tokens.pop()
    if tok == "(":
        node = _parse(tokens)
        tok, pos = tokens.pop()
        if tok != ")":
            raise ParseError("expected ')'", pos)
        return node
    if tok[:1].isalpha():  # only the tokenizer makes tokens: this is a name
        return Name(tok)
    if not tok:
        raise ParseError("expected a channel name or '('", pos)
    raise ParseError(f"unexpected {tok!r}", pos)


def parse(text: str) -> Node:
    """Parse a projector expression into its syntax tree."""
    tokens = _tokenize(text)
    if not tokens[-1][0]:
        raise ParseError("empty expression", tokens[-1][1])
    node = _parse(tokens)
    tok, pos = tokens[-1]
    if tok:
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
    through ``require_projector``. The audits fold the tree the same way,
    with a product step that proves a product of proven factors by its
    self-adjointness.
    """
    return _fold(node, channels, _compose)


def _fold(node: Node, channels: Mapping[str, np.ndarray], multiply: Callable) -> np.ndarray:
    """``evaluate`` with its product step ``multiply``: each name looked up,
    each chain folded left to right with ``_sum`` or ``multiply``."""
    if isinstance(node, Name):
        try:
            return channels[node.ident]
        except KeyError:
            raise UnboundNameError(node.ident, channels.keys()) from None
    if isinstance(node, (Sum, Product)):
        combine = _sum if isinstance(node, Sum) else multiply
        return reduce(combine, (_fold(op, channels, multiply) for op in node.operands))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_text(text: str, channels: Mapping[str, np.ndarray]) -> np.ndarray:
    """Parse and evaluate in one step.

    Over a scenario's own table ``s.channels``, which offers the fold as its
    method ``_evaluate_text``, the text folds through the scenario's record:
    the result is the operator the record keeps, read-only and the same
    object at each call, with the bits ``evaluate`` gives over a plain copy
    of the table, ``dict(s.channels)``. Copy it before changing it.
    """
    fold = getattr(type(channels), "_evaluate_text", None)
    return evaluate(parse(text), channels) if fold is None else fold(channels, text)
