"""The key-only core of propositional sentences.

Connective tables and the base of the sentence errors.  Past this
layer, every command reads a sentence only as its key (alpha, f, class
mask): its number of distinct variables, its bit size and its model set
over its own variables, numbered by first appearance.  The sentence
objects of :mod:`avgsat.formula`, the enumeration and evaluation that
the tests hold the keys against, build on this module and re-export it.
The table text format and the families of every truth function of an
arity live in :mod:`avgsat.tables`, which loads only where a table file
is read or a family is built.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import AvgsatError


class FormulaError(AvgsatError):
    """Base class for sentence-level errors."""


class Connective(namedtuple("Connective", "arity bits symbol")):
    """A named truth function.

    ``bits`` packs the truth table: bit ``r`` is the output for the
    argument tuple whose binary reading (first argument = most
    significant bit) equals ``r``.
    """

    __slots__ = ()

    def __new__(cls, arity: int, bits: int, symbol: str):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        if not 0 <= bits < (1 << (1 << arity)):
            raise ValueError("truth bits out of range for arity")
        if len(symbol) != 1:
            raise ValueError("connective symbols are single characters")
        return super().__new__(cls, arity, bits, symbol)


class ConnectiveTable:
    """An ordered collection of connectives with unique symbols."""

    def __init__(self, connectives: Iterable[Connective]):
        conns = tuple(connectives)
        if not conns:
            raise ValueError("a connective table cannot be empty")
        symbols = [c.symbol for c in conns]
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate connective symbols")
        self.connectives = conns
        self.arities = tuple(c.arity for c in conns)
        self.truth_bits = tuple(c.bits for c in conns)
        self._hash = hash(conns)

    def __len__(self) -> int:
        return len(self.connectives)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConnectiveTable) and self.connectives == other.connectives

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ConnectiveTable({[c.symbol for c in self.connectives]})"

    def negation_strategy(self) -> tuple[str, int] | None:
        """How sentences from this table can be negated.

        Prefers a unary NOT; otherwise a binary NAND or NOR applied to
        a duplicated operand.  Returns (kind, slot) or None.
        """
        for i, c in enumerate(self.connectives):
            if c.arity == 1 and c.bits == 0b01:  # "10"
                return ("not", i)
        for i, c in enumerate(self.connectives):
            if c.arity == 2 and c.bits in (0b0111, 0b0001):  # NAND "1110", NOR "1000"
                return ("dup", i)
        return None

    @classmethod
    def standard(cls) -> "ConnectiveTable":
        """NOT / AND / OR (truth bits "10", "0001" and "0111")."""
        return cls([Connective(1, 0b01, "¬"), Connective(2, 0b1000, "∧"),
                    Connective(2, 0b1110, "∨")])
