"""The key-only core of propositional sentences.

Connective tables, model sets, the sentence errors, and a sentence's
key: its number of distinct variables alpha, its bit size f and its
class mask.  Every command reads sentences through these alone; the
sentence objects of :mod:`avgsat.formula` build on them and re-export
them.

Assignments are integers: variable ``i`` reads bit ``i`` of the
assignment (least-significant bit is ``p0``).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

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

# Binary connectives indexed by truth-table number 0..15 (the 4 truth
# bits read most-significant-first over argument tuples 00,01,10,11).
_BINARY_SYMBOLS = [
    "⊥", "∧", "↛", "◁", "↚", "▷", "⊕", "∨",
    "⊽", "↔", "▶", "←", "◀", "→", "⊼", "⊤",
]
_UNARY_SYMBOLS = ["Ⓕ", "ι", "¬", "Ⓣ"]


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

    def truth(self, args: tuple[int, ...]) -> int:
        if len(args) != self.arity:
            raise ValueError("argument count does not match arity")
        r = 0
        for b in args:
            r = (r << 1) | (b & 1)
        return (self.bits >> r) & 1

    def truth_string(self) -> str:
        """The 2^arity truth bits as a 0/1 string, tuple 0 first."""
        return "".join(str((self.bits >> r) & 1) for r in range(1 << self.arity))


def _bits_from_string(s: str) -> int:
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"bad truth-bit string {s!r}")
    bits = 0
    for r, c in enumerate(s):
        if c == "1":
            bits |= 1 << r
    return bits


def _truth_number(arity: int, bits: int) -> int:
    """Truth bits read most-significant-first (tuple 0 = top bit)."""
    width = 1 << arity
    return int("".join(str((bits >> r) & 1) for r in range(width)), 2)


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
        self._by_symbol = {c.symbol: i for i, c in enumerate(conns)}
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

    def slot_of_symbol(self, symbol: str) -> int:
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise UnknownSymbol(f"unknown connective symbol {symbol!r}") from None

    def negation_strategy(self) -> tuple[str, int] | None:
        """How sentences from this table can be negated.

        Prefers a unary NOT; otherwise a binary NAND or NOR applied to
        a duplicated operand.  Returns (kind, slot) or None.
        """
        for i, c in enumerate(self.connectives):
            if c.arity == 1 and _truth_number(1, c.bits) == 2:  # "10"
                return ("not", i)
        for i, c in enumerate(self.connectives):
            if c.arity == 2 and _truth_number(2, c.bits) in (14, 8):  # NAND, NOR
                return ("dup", i)
        return None

    # --- presets -----------------------------------------------------

    @classmethod
    def standard(cls) -> "ConnectiveTable":
        """NOT / AND / OR."""
        return cls([
            Connective(0, 1, _bits_from_string("10"), "¬"),
            Connective(1, 2, _bits_from_string("0001"), "∧"),
            Connective(2, 2, _bits_from_string("0111"), "∨"),
        ])

    @classmethod
    def all_binary(cls) -> "ConnectiveTable":
        """All 16 distinct binary truth functions."""
        return cls(cls._arity_connectives(2, base_id=0))

    @classmethod
    def all_of_arity(cls, arity: int) -> "ConnectiveTable":
        """All 2^(2^arity) distinct truth functions of one arity (arity <= 3)."""
        return cls(cls._arity_connectives(arity, base_id=0))

    @classmethod
    def all_up_to(cls, k: int) -> "ConnectiveTable":
        """Every distinct truth function of each arity 1..k (k <= 3)."""
        if k < 1:
            raise ValueError("k must be at least 1")
        conns = []
        for a in range(1, k + 1):
            conns.extend(cls._arity_connectives(a, base_id=len(conns)))
        return cls(conns)

    @staticmethod
    def _arity_connectives(arity: int, base_id: int) -> list[Connective]:
        if arity == 1:
            symbols = _UNARY_SYMBOLS
        elif arity == 2:
            symbols = _BINARY_SYMBOLS
        elif arity == 3:
            symbols = [chr(0x2800 + t) for t in range(256)]
        else:
            raise ValueError("single-character symbol pool covers arities 1 to 3 only")
        out = []
        width = 1 << arity
        for t in range(1 << width):
            # t is the truth-table number; unpack to per-tuple bits
            bits = 0
            for r in range(width):
                if (t >> (width - 1 - r)) & 1:
                    bits |= 1 << r
            out.append(Connective(base_id + t, arity, bits, symbols[t]))
        return out

    # --- plain-text table format ------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ConnectiveTable":
        """Parse ``symbol arity truth-bits`` lines (# comments allowed).

        Truth bits are 2^arity characters of 0/1; character r is the
        output for the argument tuple read as the binary number r with
        the first argument as the most significant bit.
        """
        conns = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'symbol arity truth-bits'")
            symbol, arity_s, tt = parts
            arity = int(arity_s)
            if len(tt) != (1 << arity):
                raise ValueError(f"line {lineno}: need {1 << arity} truth bits")
            bits = 0
            for r, c in enumerate(tt):
                if c not in "01":
                    raise ValueError(f"line {lineno}: truth bits must be 0/1")
                if c == "1":
                    bits |= 1 << r
            conns.append(Connective(len(conns), arity, bits, symbol))
        return cls(conns)

    @classmethod
    def from_file(cls, path) -> "ConnectiveTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        lines = [f"{c.symbol} {c.arity} {c.truth_string()}" for c in self.connectives]
        return "\n".join(lines) + "\n"


class ModelSet(_Frozen):
    """Satisfying assignments of a sentence over n variables, as a bit set.

    Bit ``m`` is set iff assignment ``m`` satisfies the sentence.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if not 0 <= bits < (1 << (1 << n)):
            raise ValueError("bit set wider than 2^n assignments")
        # set here, not through _Frozen.__init__: sat_scan builds one per key
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __contains__(self, m: int) -> bool:
        return 0 <= m < (1 << self.n) and bool((self.bits >> m) & 1)

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def members(self) -> Iterator[int]:
        for m in range(1 << self.n):
            if (self.bits >> m) & 1:
                yield m

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def complement(self) -> "ModelSet":
        full = (1 << (1 << self.n)) - 1
        return ModelSet(self.n, full & ~self.bits)


def codes_size(codes: tuple[int, ...]) -> int:
    """Bit length of the canonical rendering of the sentence with these
    codes: 8 bits per character."""
    # each token is followed by a space except the last; a connective
    # symbol is one character and variable i is "p" plus its digits
    chars = 2 * len(codes) - 1
    for c in codes:
        if c >= 0:
            chars += len(str(c))
    return 8 * chars


def sentence_key(x) -> tuple[int, int, int]:
    """(alpha, size f, class mask) of a sentence: its number of distinct
    variables, its bit size and its model set over its own variables
    (numbered by first appearance), the only things the cost models and
    the class weightings read.  A key, a tuple, is its own key; a
    sentence object supplies its own (see ``avgsat.formula.Formula.key``)."""
    if isinstance(x, tuple):
        return x
    return x.key()
