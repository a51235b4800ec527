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
integers with no noise.  Each is a function of a sentence's key
(alpha, f, class mask): its number of distinct variables, its bit size
and its model set over its own variables, numbered by first
appearance.  Each takes that key and returns the time.
"""

from __future__ import annotations

Key = tuple[int, int, int]


class NoNegation(Exception):
    """The active connective table cannot express negation."""


def rewrite_cost(key: Key) -> int:
    """Copy the input; one time unit per bit read and written back."""
    return key[1]


def tabulate(key: Key) -> int:
    """Full truth table over the sentence's own (compacted) variables.
    It reads alpha and f alone, so it prices a shortest-code key
    (n, length) of :func:`avgsat.analytic.shannon_space` too."""
    return (1 << key[0]) * key[1]


def min_n(key: Key) -> int:
    """The sentence's first model over its own variables, or 2^alpha
    when it has none."""
    alpha, _, mask = key
    return (mask & -mask).bit_length() - 1 if mask else 1 << alpha


def sat_scan(key: Key) -> int:
    """Scan assignments in increasing order until one satisfies the
    sentence: f time units for each of assignments 0 to min_n; when it
    is unsatisfiable, all 2^alpha were tried, plus the initial read."""
    return key[1] * (min_n(key) + 1)


def negated(x):
    """Top-level negation of the sentence x using its own table.

    Uses a unary NOT when available, otherwise NAND/NOR with the whole
    operand duplicated.  Raises NoNegation when the table has neither.
    """
    from .formula import Formula  # sentence objects: loaded only by their users
    strategy = x.table.negation_strategy()
    if strategy is None:
        raise NoNegation(f"{x.table!r} has no negation")
    kind, slot = strategy
    if kind == "not":
        return Formula(x.codes + (-slot - 1,), x.table)
    return Formula(x.codes + x.codes + (-slot - 1,), x.table)
