"""Instrumented algorithms with exact abstract-time cost models.

Three deliberately naive programs over RPN sentences, each with a
closed-form integer cost in abstract time units:

* rewrite: copy the input; cost = bit size f(x).
* tabulate: produce the full truth table over the sentence's own
  variables; cost = 2^alpha(x) * f(x).
* sat_scan: try assignments 0, 1, 2, ... and stop at the first
  satisfying one; cost = f(x) * (min_n(K(x)) + 1), where min_n of an
  empty model set is 2^n (every assignment was tried and rejected).

Costs are the declared models, not measurements; they are exact
integers with no noise.  Each reads a sentence only through its key
(alpha, f, class mask; see :func:`~avgsat.formula.sentence_key`), so
each takes a :class:`Formula` or a key.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .formula import ConnectiveTable, Formula, ModelSet, sentence_key


class NoNegation(Exception):
    """The active connective table cannot express negation."""


class CostedRun(NamedTuple):
    """An algorithm's output together with its exact integer cost."""

    payload: Any
    time_units: int


def rewrite_cost(x) -> CostedRun:
    """Copy the input; one time unit per bit read and written back."""
    return CostedRun(payload=x, time_units=sentence_key(x)[1])


def tabulate(x) -> CostedRun:
    """Full truth table over the sentence's own (compacted) variables."""
    alpha, f, mask = sentence_key(x)
    return CostedRun(payload=ModelSet(alpha, mask), time_units=(1 << alpha) * f)


def min_n(K: ModelSet) -> int:
    """Smallest member of K, or 2^n when K is empty."""
    if K.bits == 0:
        return 1 << K.n
    return (K.bits & -K.bits).bit_length() - 1


def sat_scan(x) -> CostedRun:
    """Scan assignments in increasing order until one satisfies x.

    The payload is the smallest satisfying assignment over the
    compacted variables, or None when x is unsatisfiable (in which
    case all 2^alpha assignments were tried, plus the initial read).
    """
    alpha, f, mask = sentence_key(x)
    m = min_n(ModelSet(alpha, mask))
    return CostedRun(payload=m if mask else None, time_units=f * (m + 1))


def _negation(table: ConnectiveTable) -> tuple[str, int]:
    strategy = table.negation_strategy()
    if strategy is None:
        raise NoNegation(f"{table!r} has no negation")
    return strategy


def negated(x: Formula) -> Formula:
    """Top-level negation of x using the sentence's own table.

    Uses a unary NOT when available, otherwise NAND/NOR with the whole
    operand duplicated.  Raises NoNegation when the table has neither.
    """
    kind, slot = _negation(x.table)
    if kind == "not":
        return Formula(x.codes + (-slot - 1,), x.table)
    return Formula(x.codes + x.codes + (-slot - 1,), x.table)


def negated_key(key: tuple[int, int, int], table: ConnectiveTable) -> tuple[int, int, int]:
    """The key of :func:`negated` of every sentence with this key: the
    same alpha, the complemented class, and a size that depends on f
    alone (a NOT adds two characters; a duplicated operand doubles them
    and adds three)."""
    kind, _ = _negation(table)
    alpha, f, mask = key
    return (alpha, f + 16 if kind == "not" else 2 * f + 24,
            ((1 << (1 << alpha)) - 1) ^ mask)
