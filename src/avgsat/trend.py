"""Partial-average trend scans: finiteness evidence for an unconditional
expected running time.

``tractability`` averages T over growing prefixes of one-point classes,
in one streaming pass whose memory does not grow with the prefixes.
A step does the arithmetic of each segment of the pass, and ``terms``
builds it from a running time and weights, whose type the sums take:
floats stay floats, and ints or Fractions stay exact.  The module loads
nothing of :mod:`avgsat.measure`.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import namedtuple
from collections.abc import Callable
from itertools import chain, islice

from .errors import ZeroMassSubset

# DIVERGENT_TREND needs a rise of more than GROWTH_MARGIN from the 0.1%
# prefix to the end, and CONVERGENT the last TAIL_WINDOW increments level
GROWTH_MARGIN = 1.0
TAIL_WINDOW = 10


class Verdict(enum.Enum):
    CONVERGENT = "convergent"
    DIVERGENT_TREND = "divergent-trend"
    INCONCLUSIVE = "inconclusive"


class TractabilityResult(namedtuple("TractabilityResult", "checkpoints verdict")):
    """Partial averages at prefixes 1, 10, 100, ... below the class
    count and at the count itself, in that order, and the verdict."""

    __slots__ = ()

    @property
    def final(self):
        return next(reversed(self.checkpoints.values()))


def terms(T: Callable, mu: Callable) -> Callable:
    """The step of :func:`tractability` for a running time ``T`` and
    weights ``mu``, each called once per class.

    The sums start as the driver passes them (the int 0) and add
    ``T(x) * mu(x)`` and ``mu(x)`` as they are, so float weights give
    float partials and Fraction weights exact ones (int weights give
    exact sums and their float quotients)."""
    def step(xs, num, den, prev, monotone):
        for x in xs:
            w = mu(x)
            num += T(x) * w
            den += w
            if not den:
                raise ZeroMassSubset("class prefix has zero mass")
            cur = num / den
            if not cur >= prev:
                monotone = False
            prev = cur
        return num, den, prev, monotone
    return step


def tractability(step: Callable, start, count: int, eps: float = 1e-12,
                 cap: float = 1e6) -> TractabilityResult:
    """Partial expected running times over growing class prefixes.

    The ``count`` indices ``start, start + 1, ...``, in order, are each
    their own one-point class.  One counter steps by 1 of the type of
    ``start``: an int start gives ints, and a float start floats, each
    the one before plus 1.0 (exact within 2^53), where a step of the int
    1 would convert it on every class.  After each class the running
    average of T over the classes seen so far is a partial.  One pass
    keeps only the partials the verdict and the checkpoints read, so
    memory does not grow with ``count``.

    The pass runs in segments that end at each prefix a checkpoint or
    the tail window reads.  ``step(xs, num, den, prev, monotone)`` runs
    one segment: for each index of the iterator ``xs`` it adds T times
    the class's weight to ``num`` and the weight to ``den`` (the weight
    may be unnormalized: averages are invariant under scaling), raises
    ZeroMassSubset on a zero mass, takes the partial ``num / den`` and
    clears ``monotone`` if it falls below ``prev``, the partial before
    it; it returns the four values as they end.  :func:`terms` builds
    the step of a T and a weight function; a case may write its own,
    with the same operations in the same order.  Such a step may instead
    show that no partial of its segment falls below the one before it
    and that the mass stays positive, and then take only the last
    partial: the flag and the sums end as they would.

    The verdict is evidence, not proof: CONVERGENT when the last
    ``TAIL_WINDOW`` relative increments stay below ``eps`` and the
    value stays below ``cap``; DIVERGENT_TREND when the sequence is
    monotone nondecreasing and either exceeds ``cap`` or grows by more
    than ``GROWTH_MARGIN`` between the 0.1% prefix and the end; else
    INCONCLUSIVE.  Finite truncation cannot certify an infinite sum.
    """
    if count < 1:
        raise ZeroMassSubset("no classes supplied")
    marks = []
    k = 1
    while k < count:
        marks.append(k)
        k *= 10
    marks.append(count)
    early = max(1, count // 1000)   # the 0.1% prefix
    kept = dict.fromkeys([*marks, early])
    window = min(TAIL_WINDOW, count - 1)
    tail = count - window           # the increments after this prefix must level
    leveled = window >= 1 or count == 1
    monotone = True
    num = den = 0
    cur = -math.inf   # the first partial has nothing to fall below
    # Past ``tail`` every segment is one class, and its leveled test
    # compares the partial with the one before the segment.
    rest = itertools.count(start, type(start)(1))
    done = 0
    for stop in chain(sorted(k for k in kept if k < tail), range(tail, count + 1)):
        before = cur
        num, den, cur, monotone = step(islice(rest, stop - done), num, den, cur, monotone)
        done = stop
        if stop > tail and leveled:
            scale = max(abs(cur), abs(before))
            if scale != 0 and abs(cur - before) / scale >= eps:
                leveled = False
        if stop in kept:
            kept[stop] = cur

    final = cur
    if leveled and final <= cap:
        verdict = Verdict.CONVERGENT
    elif monotone and (final > cap or final - kept[early] > GROWTH_MARGIN):
        verdict = Verdict.DIVERGENT_TREND
    else:
        verdict = Verdict.INCONCLUSIVE
    return TractabilityResult({k: kept[k] for k in marks}, verdict)
