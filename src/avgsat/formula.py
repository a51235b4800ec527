"""Propositional sentences in reverse Polish form.

Syntax, canonical text encoding, truth-table semantics, exhaustive
shortlex enumeration, and stratification into length-minimal layers of
logically equivalent sentences.

A sentence is a token sequence over variables ``p0, p1, ...`` and the
connectives of a :class:`ConnectiveTable`.  Its canonical rendering is
the tokens joined by single spaces, and its bit size is 8 bits per
character of that rendering.  Assignments are integers: variable ``i``
reads bit ``i`` of the assignment (least-significant bit is ``p0``).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from . import _kernel


class FormulaError(Exception):
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


class Formula(_Frozen):
    """A sentence as a tuple of token codes over a connective table.

    Codes >= 0 are variable indices; code ``-j-1`` is connective slot
    ``j``.  Construction validates reverse-Polish discipline.

    The hash covers the codes only, so dict and cache lookups never
    hash the table; equality still compares both fields.  It is
    computed once, at construction.
    """

    __slots__ = ("codes", "table", "_hash")

    def __init__(self, codes: tuple[int, ...], table: ConnectiveTable):
        depth = 0
        for c in codes:
            if c >= 0:
                depth += 1
            else:
                j = -c - 1
                if j >= len(table):
                    raise MalformedRpn(f"connective slot {j} not in table")
                a = table.arities[j]
                if depth < a:
                    raise MalformedRpn("operator applied to too few operands")
                depth -= a - 1
        if depth != 1:
            raise MalformedRpn(f"sequence leaves {depth} values on the stack")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "table", table)
        # CPython hashes -1 like -2, so hash(codes) would not tell NOT
        # (code -1) from AND (code -2); shifted connective codes skip -1
        object.__setattr__(self, "_hash", hash(tuple(
            [c - 1 if c < 0 else c for c in codes])))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.codes == other.codes and self.table == other.table

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Formula({render(self)!r})"

    def __reduce__(self):
        return Formula, (self.codes, self.table)


class ModelSet(_Frozen):
    """Satisfying assignments of a sentence over n variables, as a bit set.

    Bit ``m`` is set iff assignment ``m`` satisfies the sentence.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if not 0 <= bits < (1 << (1 << n)):
            raise ValueError("bit set wider than 2^n assignments")
        # set here, not through _Frozen.__init__: sampling builds one per draw
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


def parse_rpn(text: str, table: ConnectiveTable) -> Formula:
    """Parse a whitespace-separated RPN token string."""
    codes = []
    depth = 0
    tokens = text.split()
    if not tokens:
        raise MalformedRpn("empty token string")
    for tok in tokens:
        m = _VAR_TOKEN.match(tok)
        if m:
            codes.append(int(m.group(1)))
            depth += 1
            continue
        j = table.slot_of_symbol(tok)
        a = table.arities[j]
        if depth < a:
            raise MalformedRpn(f"operator {tok!r} applied to {depth} operands, needs {a}")
        depth -= a - 1
        codes.append(-j - 1)
    if depth != 1:
        raise MalformedRpn(f"sequence leaves {depth} values on the stack")
    return Formula(tuple(codes), table)


def render(x: Formula) -> str:
    """Canonical text: tokens joined by single spaces."""
    parts = []
    for c in x.codes:
        if c >= 0:
            parts.append(f"p{c}")
        else:
            parts.append(x.table.connectives[-c - 1].symbol)
    return " ".join(parts)


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


def size_f(x: Formula) -> int:
    """Bit length of the canonical rendering: 8 bits per character."""
    return codes_size(x.codes)


def var_count_alpha(x: Formula) -> int:
    """Number of distinct variable indices occurring."""
    return len({c for c in x.codes if c >= 0})


def leaf_sequence(x: Formula) -> tuple[int, ...]:
    """Variable indices in token order (one entry per variable token)."""
    return tuple(c for c in x.codes if c >= 0)


def evaluate(x: Formula, m: int, n: int) -> int:
    """Truth value of x under assignment m over n variables."""
    if not 0 <= m < (1 << n):
        raise ValueError(f"assignment {m} outside [0, 2^{n})")
    stack = []
    for c in x.codes:
        if c >= 0:
            if c >= n:
                raise VariableOutOfRange(f"p{c} needs at least {c + 1} variables, got {n}")
            stack.append((m >> c) & 1)
        else:
            conn = x.table.connectives[-c - 1]
            a = conn.arity
            args = tuple(stack[len(stack) - a:])
            del stack[len(stack) - a:]
            stack.append(conn.truth(args))
    return stack[-1]


def model_set(x: Formula, n: int) -> ModelSet:
    """All satisfying assignments over n variables, by exhaustive scan."""
    for c in x.codes:
        if c >= n:
            raise VariableOutOfRange(f"p{c} needs at least {c + 1} variables, got {n}")
    bits = _kernel.eval_mask(x.codes, n, x.table.arities, x.table.truth_bits)
    return ModelSet(n, bits)


# bounded above the 38,152 entries of `sat-oclass --n 3`, the most any command adds
@lru_cache(maxsize=2 ** 16)
def compact_model_set(x: Formula) -> ModelSet:
    """Model set over the sentence's own variables.

    Distinct variable indices are compacted to 0..alpha-1 in order of
    first appearance, so the result has exactly alpha(x) variables.
    """
    bits, alpha = _kernel.eval_mask_compact(x.codes, x.table.arities, x.table.truth_bits)
    return ModelSet(alpha, bits)


def _length_range(table: ConnectiveTable, max_tokens, exact_connectives):
    if max_tokens is None and exact_connectives is None:
        raise ValueError("need a max token count or an exact connective count")
    if exact_connectives is not None:
        if exact_connectives < 0:
            raise ValueError("connective count must be non-negative")
        arities = table.arities
        lo = exact_connectives + 1 + exact_connectives * (min(arities) - 1)
        hi = exact_connectives + 1 + exact_connectives * (max(arities) - 1)
        if max_tokens is not None:
            hi = min(hi, max_tokens)
        return range(max(lo, 1), hi + 1)
    return range(1, max_tokens + 1)


def enumerate_formulas(table: ConnectiveTable, n_vars: int, max_tokens: int | None = None,
                       exact_connectives: int | None = None,
                       alpha: int | None = None) -> Iterator[Formula]:
    """Every valid sentence over variables p0..p(n_vars-1), exactly once,
    in shortlex order (token count, then variables by index before
    connectives in table order).

    The limit is a maximum token count and/or an exact number of
    connective tokens; ``alpha`` restricts to sentences with exactly
    that many distinct variables.  Sentences with no variables at all
    are never produced.
    """
    if n_vars < 1:
        raise ValueError("need at least one variable")
    ec = -1 if exact_connectives is None else exact_connectives
    af = -1 if alpha is None else alpha
    for length in _length_range(table, max_tokens, exact_connectives):
        for codes, a_x in _kernel.enumerate_length(
                n_vars, table.arities, length, exact_conns=ec, alpha=af):
            if a_x == 0:
                continue
            yield Formula(codes, table)


def stratify_min_layers(space: Iterable[Formula], n: int,
                        count: Mapping[Formula, int] | None = None) -> list:
    """Split sentences into layers of shortest representatives.

    Sentences are grouped by logical equivalence (identical model set
    over the given n variables).  Layer 0 takes from each group one
    member of minimal bit size (ties broken by canonical rendering);
    layer i+1 repeats on the remainder.  Layers are disjoint, cover the
    input, and contain at most one member per equivalence group.

    With ``count``, sentence x stands for ``count[x]`` sentences of its
    size and model sets, which fill that many consecutive ranks of its
    group and so join that many consecutive layers.  The layers are
    then returned as runs: (repeats, layer) pairs, each standing for
    ``repeats`` consecutive layers with the same members.  This is the
    layering of the sentences themselves whenever, within each group,
    the sentences one item stands for are consecutive in (size,
    rendering) order, as they are for alpha = n <= 2 sentences over
    p0..p(n-1), whose first token fixes the order in which their
    variables first appear.
    """
    # One sort by (size, rendering) orders every group; walking the
    # sorted sentences, each takes the next free ranks of its group,
    # and layer i holds the sentences whose ranks include i.
    ranked = sorted(space, key=lambda x: (size_f(x), render(x)))
    # starts[r] / stops[r]: positions in ranked of the sentences whose
    # ranks begin at r / end just before r
    free: dict[int, int] = {}   # group -> its next free rank
    starts: dict[int, list[int]] = {}
    stops: dict[int, list[int]] = {}
    for i, x in enumerate(ranked):
        bits = model_set(x, n).bits
        start = free.get(bits, 0)
        free[bits] = start + (1 if count is None else count[x])
        starts.setdefault(start, []).append(i)
        stops.setdefault(free[bits], []).append(i)
    cuts = sorted(starts.keys() | stops.keys())
    active: set[int] = set()
    runs = []
    for lo, hi in zip(cuts, cuts[1:]):
        active.difference_update(stops.get(lo, ()))
        active.update(starts.get(lo, ()))
        runs.append((hi - lo, [ranked[i] for i in sorted(active)]))
    if count is None:
        return [layer for _, layer in runs]
    return runs
