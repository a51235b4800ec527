"""Propositional sentences in reverse Polish form.

Syntax, canonical text encoding, truth-table semantics, exhaustive
shortlex enumeration, and stratification into length-minimal layers of
logically equivalent sentences.

A sentence is a token sequence over variables ``p0, p1, ...`` and the
connectives of a :class:`ConnectiveTable`.  Its canonical rendering is
the tokens joined by single spaces, and its bit size is 8 bits per
character of that rendering.  Assignments are integers: variable ``i``
reads bit ``i`` of the assignment (least-significant bit is ``p0``).

Connective tables, which the commands load with :mod:`avgsat._kernel`,
and the base error, :class:`~avgsat.errors.FormulaError`, are
re-exported here; no command loads this module.  Its own are
the errors that only it raises, the model sets and sentence objects
(frozen dataclasses), and the enumeration and evaluation of code
sequences (with the conventions of :mod:`avgsat._kernel`): the commands
read a sentence only as its key (alpha, f, class mask), which
:meth:`Formula.key` gives, and the tests hold the keys that the
commands count against these.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from ._kernel import Connective, ConnectiveTable, _anf, _apply, completion_counts, var_mask
from .errors import FormulaError

_VAR_TOKEN = re.compile(r"^p(\d+)$")


class MalformedRpn(FormulaError):
    """Token sequence violates reverse-Polish stack discipline."""


class UnknownSymbol(FormulaError):
    """Token is neither ``p<decimal>`` nor a known connective symbol."""


class VariableOutOfRange(FormulaError):
    """A variable index is not covered by the assignment width."""


def truth(conn: Connective, args: tuple[int, ...]) -> int:
    """The value of the connective at the argument bits ``args``."""
    if len(args) != conn.arity:
        raise ValueError("argument count does not match arity")
    r = 0
    for b in args:
        r = (r << 1) | (b & 1)
    return (conn.bits >> r) & 1


def slot_of_symbol(table: ConnectiveTable, symbol: str) -> int:
    """The slot of the table's connective written ``symbol``."""
    for j, c in enumerate(table.connectives):
        if c.symbol == symbol:
            return j
    raise UnknownSymbol(f"unknown connective symbol {symbol!r}")


# --- code sequences ---------------------------------------------------


def eval_mask(codes, n, arities, tts):
    """Truth-table mask of an RPN code sequence over n variables."""
    full = (1 << (1 << n)) - 1
    vmasks = [var_mask(i, n) for i in range(n)]
    stack = []
    for c in codes:
        if c >= 0:
            stack.append(vmasks[c])
            continue
        a = arities[-c - 1]
        args = stack[len(stack) - a:]
        del stack[len(stack) - a:]
        stack.append(_apply(_anf(a, tts[-c - 1]), args, full))
    return stack[-1]


def compact_codes(codes):
    """(codes, alpha): the codes with their variables renumbered 0, 1, ...
    in order of first appearance, and the number of distinct variables."""
    slot = {}
    return [slot.setdefault(c, len(slot)) if c >= 0 else c for c in codes], len(slot)


def eval_mask_compact(codes, arities, tts):
    """Mask over the sentence's own variables, compacted by first appearance.

    Returns (mask, alpha) where alpha is the number of distinct variables.
    """
    remapped, alpha = compact_codes(codes)
    return eval_mask(remapped, alpha, arities, tts), alpha


def enumerate_length(n_vars, arities, length, exact_conns=-1, alpha=-1):
    """All valid RPN code sequences of exactly ``length`` tokens, in
    lexicographic order: variables (by index) before connectives (by
    slot).

    ``exact_conns`` (if >= 0) keeps only sentences with that many
    connective tokens; ``alpha`` (if >= 0) keeps only sentences with
    that many distinct variables.  Returns a list of (codes, alpha)
    pairs.
    """
    cnt = completion_counts(n_vars, arities, length)
    n_conns = len(arities)
    out = []
    codes = []

    def rec(depth, used, conns_used):
        pos = len(codes)
        if pos == length:
            a_x = bin(used).count("1")
            if alpha >= 0 and a_x != alpha:
                return
            if exact_conns >= 0 and conns_used != exact_conns:
                return
            out.append((tuple(codes), a_x))
            return
        rem = length - pos - 1
        if exact_conns >= 0 and conns_used + rem + 1 < exact_conns:
            return
        if cnt[rem][depth + 1]:
            for v in range(n_vars):
                codes.append(v)
                rec(depth + 1, used | (1 << v), conns_used)
                codes.pop()
        if exact_conns >= 0 and conns_used >= exact_conns:
            return
        for j in range(n_conns):
            a = arities[j]
            if depth >= a and cnt[rem][depth - a + 1]:
                codes.append(-j - 1)
                rec(depth - a + 1, used, conns_used + 1)
                codes.pop()

    rec(0, 0, 0)
    return out


# --- sentence objects -------------------------------------------------


@dataclass(frozen=True, slots=True)
class ModelSet:
    """Satisfying assignments of a sentence over n variables, as a bit set.

    Bit ``m`` is set iff assignment ``m`` satisfies the sentence.
    """

    n: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError("bit set wider than 2^n assignments")

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


@dataclass(frozen=True, slots=True)
class Formula:
    """A sentence as a tuple of token codes over a connective table.

    Codes >= 0 are variable indices; code ``-j-1`` is connective slot
    ``j``.  Construction validates reverse-Polish discipline.

    The hash covers the codes only, so dict and cache lookups never
    hash the table; equality still compares both fields.  It is
    computed once, at construction.
    """

    codes: tuple[int, ...]
    table: ConnectiveTable
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        codes, table = self.codes, self.table
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
        # CPython hashes -1 like -2, so hash(codes) would not tell NOT
        # (code -1) from AND (code -2); shifted connective codes skip -1
        object.__setattr__(self, "_hash", hash(tuple(
            [c - 1 if c < 0 else c for c in codes])))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"Formula({render(self)!r})"

    def __reduce__(self):
        return Formula, (self.codes, self.table)

    def key(self) -> tuple[int, int, int]:
        """This sentence's key (alpha, size f, class mask): its number of
        distinct variables, its bit size and its model set over its own
        variables (numbered by first appearance), all that the cost models
        and the class weightings read."""
        K = compact_model_set(self)
        return K.n, size_f(self), K.bits


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
        j = slot_of_symbol(table, tok)
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


def size_f(x: Formula) -> int:
    """Bit length of the canonical rendering: 8 bits per character."""
    # each token is followed by a space except the last; a connective
    # symbol is one character and variable i is "p" plus its digits
    chars = 2 * len(x.codes) - 1
    for c in x.codes:
        if c >= 0:
            chars += len(str(c))
    return 8 * chars


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
            stack.append(truth(conn, args))
    return stack[-1]


def model_set(x: Formula, n: int) -> ModelSet:
    """All satisfying assignments over n variables, by exhaustive scan."""
    for c in x.codes:
        if c >= n:
            raise VariableOutOfRange(f"p{c} needs at least {c + 1} variables, got {n}")
    bits = eval_mask(x.codes, n, x.table.arities, x.table.truth_bits)
    return ModelSet(n, bits)


# no command keys sentences; the bound keeps the memory of keying a whole
# enumeration, as the tests' sentence-by-sentence oracles do, within 2^16 entries
@lru_cache(maxsize=2 ** 16)
def compact_model_set(x: Formula) -> ModelSet:
    """Model set over the sentence's own variables.

    Distinct variable indices are compacted to 0..alpha-1 in order of
    first appearance, so the result has exactly alpha(x) variables.
    """
    bits, alpha = eval_mask_compact(x.codes, x.table.arities, x.table.truth_bits)
    return ModelSet(alpha, bits)


def length_range(arities, max_tokens, exact_connectives):
    """The token counts of the sentences with at most ``max_tokens``
    tokens and/or exactly ``exact_connectives`` connective tokens."""
    if max_tokens is None and exact_connectives is None:
        raise ValueError("need a max token count or an exact connective count")
    if exact_connectives is not None:
        if exact_connectives < 0:
            raise ValueError("connective count must be non-negative")
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
    for length in length_range(table.arities, max_tokens, exact_connectives):
        for codes, a_x in enumerate_length(
                n_vars, table.arities, length, exact_conns=ec, alpha=af):
            if a_x == 0:
                continue
            yield Formula(codes, table)


def stratify_min_layers(space: Iterable[Formula], n: int) -> list[list[Formula]]:
    """Split sentences into layers of shortest representatives.

    Sentences are grouped by logical equivalence (identical model set
    over the given n variables).  Layer 0 takes from each group one
    member of minimal bit size (ties broken by canonical rendering);
    layer i+1 repeats on the remainder.  Layers are disjoint, cover the
    input, and contain at most one member per equivalence group.
    """
    layers: list[list[Formula]] = []
    rank: dict[int, int] = {}   # group -> members placed so far
    for x in sorted(space, key=lambda x: (size_f(x), render(x))):
        bits = model_set(x, n).bits
        i = rank[bits] = rank.get(bits, -1) + 1
        if i == len(layers):
            layers.append([])
        layers[i].append(x)
    return layers
