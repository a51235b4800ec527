"""Connective tables and the primitives that the counting DP, the
sampling walk and the census share: variable masks, a connective's
algebraic normal form and its application to masks, the
completion-count table, and the count, read from that table, of the
sequences that use every variable.

Conventions:

* A sentence is a sequence of integer token codes: ``code >= 0`` is the
  propositional variable with that index; ``code < 0`` is the connective
  in table slot ``-code - 1``.
* A connective packs its truth table in ``bits``: bit ``r`` is the
  output for the argument tuple whose binary reading (most-significant
  bit = first argument) is ``r``.  Table slot ``j`` has arity
  ``arities[j]`` and truth bits ``tts[j]`` (a table's ``truth_bits``).
* A connective is applied to masks only through its algebraic normal
  form, ``_anf``: the counting DP, the sampling walk and the test-side
  evaluator of :mod:`avgsat.formula` all read it.
* A truth-table mask over ``n`` variables is an integer whose bit ``m``
  is set iff assignment ``m`` satisfies the sentence, where variable
  ``i`` reads bit ``i`` of ``m`` (least-significant bit is variable 0).
* Every count of valid sequences comes from one table,
  ``completion_counts``.

Each definition that only one module calls lives there: the enumeration
and evaluation of code sequences in :mod:`avgsat.formula`, the
closed-form census in :mod:`avgsat.analytic`, the sampler's slot runs
in :mod:`avgsat.commands.sampling` and the table text format and
families in :mod:`avgsat.tables`, so that a command compiles only the
code it runs.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable
from functools import lru_cache


def __getattr__(name):
    """``census_length``, ``enumerate_length``, ``eval_mask`` and
    ``eval_mask_compact``, from the modules of their only callers
    (:mod:`avgsat.analytic`, :mod:`avgsat.formula`), which this lookup
    loads: the benchmark's tracer finds them by these names."""
    if name == "census_length":
        from .analytic import _census_length
        return _census_length
    if name in ("enumerate_length", "eval_mask", "eval_mask_compact"):
        from . import formula
        return getattr(formula, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Connective(namedtuple("Connective", "arity bits symbol")):
    """A named truth function, its truth table packed in ``bits``."""

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


def var_mask(i, n):
    """Mask over 2^n assignments whose bit m is set iff bit i of m is set."""
    half = 1 << i
    mask = ((1 << half) - 1) << half
    width = half << 1
    total = 1 << n
    while width < total:
        mask |= mask << width
        width <<= 1
    return mask


@lru_cache(maxsize=None)
def _anf(a, tt):
    """The algebraic normal form (Zhegalkin polynomial) of the connective
    of arity ``a`` with truth bits ``tt``: the sets of argument indices
    whose ANDs the connective XORs, the empty set being the constant 1.
    Bit ``s`` of the Moebius transform of the truth bits says whether
    the set read as ``s`` (most-significant bit = first argument) is a
    term."""
    for i in range(a):
        # each row with bit i set takes the XOR of the row without it
        tt ^= (tt & ~var_mask(i, a)) << (1 << i)
    return tuple(tuple(k for k in range(a) if s >> (a - 1 - k) & 1)
                 for s in range(1 << a) if tt >> s & 1)


def _apply(anf, args, full):
    """Mask of a connective, given as ``_anf`` gives it, applied to
    argument masks whose all-true mask is ``full``."""
    acc = 0
    for term in anf:
        t = full
        for k in term:
            t &= args[k]
        acc ^= t
    return acc


def completion_counts(n_vars, arities, length):
    """cnt[r][d]: valid completions from stack depth d in exactly r tokens.

    A completion ends with exactly one value on the stack.  Entries with
    ``r + d <= length + 1`` are exact, which covers every state a
    sequence of at most ``length`` tokens passes through.
    """
    by_arity = Counter(arities).items()
    cnt = [[0] * (length + 2) for _ in range(length + 1)]
    cnt[0][1] = 1
    for r in range(1, length + 1):
        prev = cnt[r - 1]
        row = cnt[r]
        for d in range(length + 1):
            total = n_vars * prev[d + 1]
            for a, mult in by_arity:
                if d >= a:
                    total += mult * prev[d - a + 1]
            row[d] = total
    return cnt


def alpha_count(arities, n: int, max_tokens: int) -> int:
    """The sequences of at most ``max_tokens`` tokens over p0..p(n-1)
    that use all n variables: by inclusion-exclusion over the variables
    left out, from the sequences over each k of them.  It is 0 exactly
    when no sentence within ``max_tokens`` tokens has n variables, a
    negative budget holding none."""
    return sum((-1) ** (n - k) * math.comb(n, k)
               * sum(row[0] for row in completion_counts(k, arities, max(max_tokens, 0)))
               for k in range(n + 1))
