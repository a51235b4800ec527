"""The key-only core of propositional sentences.

Connective tables and the sentence errors.  Past this layer, every
command reads a sentence only as its key (alpha, f, class mask): its
number of distinct variables, its bit size and its model set over its
own variables, numbered by first appearance.  The sentence objects of
:mod:`avgsat.formula`, the enumeration and evaluation that the tests
hold the keys against, build on this module and re-export it.  The
table text format and the families of every truth function of an
arity live in :mod:`avgsat.tables`, which loads only where a table file
is read or a family is built.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .errors import AvgsatError


class FormulaError(AvgsatError):
    """Base class for sentence-level errors."""


class MalformedRpn(FormulaError):
    """Token sequence violates reverse-Polish stack discipline."""


class UnknownSymbol(FormulaError):
    """Token is neither ``p<decimal>`` nor a known connective symbol."""


class VariableOutOfRange(FormulaError):
    """A variable index is not covered by the assignment width."""


_VAR_TOKEN = re.compile(r"^p(\d+)$")


def _frozen(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of the immutable value types."""
    from dataclasses import FrozenInstanceError  # loaded only on this error path
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


class _Frozen:
    """Base of the immutable value types: the fields are the names in
    ``__slots__``, set once by ``__init__`` in that order; equality,
    hash and repr read them all."""

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()


class Connective(_Frozen):
    """A named truth function.

    ``bits`` packs the truth table: bit ``r`` is the output for the
    argument tuple whose binary reading (first argument = most
    significant bit) equals ``r``.
    """

    __slots__ = ("cid", "arity", "bits", "symbol")

    def __init__(self, cid: int, arity: int, bits: int, symbol: str):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        if not 0 <= bits < (1 << (1 << arity)):
            raise ValueError("truth bits out of range for arity")
        if len(symbol) != 1:
            raise ValueError("connective symbols are single characters")
        super().__init__(cid, arity, bits, symbol)


class ConnectiveTable:
    """An ordered collection of connectives with unique ids and symbols."""

    def __init__(self, connectives: Iterable[Connective]):
        conns = tuple(connectives)
        if not conns:
            raise ValueError("a connective table cannot be empty")
        ids = [c.cid for c in conns]
        symbols = [c.symbol for c in conns]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate connective ids")
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate connective symbols")
        for c in conns:
            if _VAR_TOKEN.match(c.symbol):
                raise ValueError("connective symbol shadows a variable token")
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
        return cls([Connective(0, 1, 0b01, "¬"), Connective(1, 2, 0b1000, "∧"),
                    Connective(2, 2, 0b1110, "∨")])
