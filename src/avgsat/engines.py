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
integers with no noise.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .formula import Formula, ModelSet, compact_model_set, size_f, var_count_alpha


class NoNegation(Exception):
    """The active connective table cannot express negation."""


class CostedRun(NamedTuple):
    """An algorithm's output together with its exact integer cost."""

    payload: Any
    time_units: int


def rewrite_cost(x: Formula) -> CostedRun:
    """Copy the input; one time unit per bit read and written back."""
    return CostedRun(payload=x, time_units=size_f(x))


def tabulate(x: Formula) -> CostedRun:
    """Full truth table over the sentence's own (compacted) variables."""
    return CostedRun(payload=compact_model_set(x),
                     time_units=(1 << var_count_alpha(x)) * size_f(x))


def min_n(K: ModelSet) -> int:
    """Smallest member of K, or 2^n when K is empty."""
    if K.bits == 0:
        return 1 << K.n
    return (K.bits & -K.bits).bit_length() - 1


def sat_scan(x: Formula) -> CostedRun:
    """Scan assignments in increasing order until one satisfies x.

    The payload is the smallest satisfying assignment over the
    compacted variables, or None when x is unsatisfiable (in which
    case all 2^alpha assignments were tried, plus the initial read).
    """
    K = compact_model_set(x)
    m = min_n(K)
    witness = None if K.bits == 0 else m
    return CostedRun(payload=witness, time_units=size_f(x) * (m + 1))


def negated(x: Formula) -> Formula:
    """Top-level negation of x using the sentence's own table.

    Uses a unary NOT when available, otherwise NAND/NOR with the whole
    operand duplicated.  Raises NoNegation when the table has neither.
    """
    strategy = x.table.negation_strategy()
    if strategy is None:
        raise NoNegation(f"{x.table!r} has no negation")
    kind, slot = strategy
    if kind == "not":
        return Formula(x.codes + (-slot - 1,), x.table)
    return Formula(x.codes + x.codes + (-slot - 1,), x.table)
