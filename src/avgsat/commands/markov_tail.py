"""markov-tail: Markov's tail bound at a multiple of the scanner's mean
time, checked exactly over a class's covering space."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

from .. import engines, measure
from ..cli import FAIL, PASS, Options, _frac
from . import _load_table


class MarkovTail(namedtuple("MarkovTail", "mean bound empirical ok")):
    __slots__ = ()


def markov_tail(T: Callable, mu: Mapping, Y: Iterable, multiplier) -> MarkovTail:
    """Markov's tail bound at a multiple of the mean, checked exactly:
    P(T >= a | Y) <= avg(T | Y) / a = 1 / multiplier at
    a = multiplier * avg(T | Y).  The threshold needs the mean, so the
    tail is read in a second walk."""
    items = list(Y)
    mean = measure.avg_time(T, mu, items)
    a = Fraction(multiplier) * mean
    if a <= 0:
        raise ValueError("threshold must be positive")
    empirical = measure.avg_time(lambda x: T(x) >= a, mu, items)
    return MarkovTail(mean, mean / a, empirical, empirical <= mean / a)


def cmd_markov_tail(opts: Options):
    n = opts.get("n")
    multiplier = opts.get("multiplier")
    table = _load_table(opts)
    space = measure.space(table, [n], None)
    mu = measure.uniform_over_model_classes(space)
    result = markov_tail(engines.sat_scan, mu, space.items, multiplier)
    header = ["n", "multiplier", "avg_num", "avg_den", "bound_num", "bound_den",
              "empirical_num", "empirical_den", "status"]
    rows = [[str(n), str(multiplier), *_frac(result.mean), *_frac(result.bound),
             *_frac(result.empirical), PASS if result.ok else FAIL]]
    return header, rows
