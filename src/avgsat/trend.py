"""Partial-average trend scans: finiteness evidence for an unconditional
expected running time.

``tractability`` averages T over growing prefixes of one-point classes,
in one streaming pass whose memory does not grow with the prefixes.
Its sums take the type of the weights: floats stay floats, and ints or
Fractions stay exact.  It loads nothing of :mod:`avgsat.measure`.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import chain, islice

from .errors import ZeroMassSubset


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


def tractability(T: Callable, mu: Callable, indices: Sequence[int],
                 eps: float = 1e-12, cap: float = 1e6, growth_margin: float = 1.0,
                 tail_window: int = 10) -> TractabilityResult:
    """Partial expected running times over growing class prefixes.

    Each index of ``indices``, in order, is its own one-point class;
    ``mu`` may be unnormalized (averages are invariant under scaling).
    After each class the running average of T over the classes seen so
    far is a partial.  One pass keeps only the partials the verdict and
    the checkpoints read, so memory does not grow with ``len(indices)``.
    The sums start at the int 0 and add ``T(x) * mu(x)`` and ``mu(x)``
    as they are, so float weights give float partials and Fraction
    weights exact ones (int weights give exact sums and their float
    quotients).

    The verdict is evidence, not proof: CONVERGENT when the last
    ``tail_window`` relative increments stay below ``eps`` and the
    value stays below ``cap``; DIVERGENT_TREND when the sequence is
    monotone nondecreasing and either exceeds ``cap`` or grows by more
    than ``growth_margin`` between the 0.1% prefix and the end; else
    INCONCLUSIVE.  Finite truncation cannot certify an infinite sum.
    """
    count = len(indices)
    if not count:
        raise ZeroMassSubset("no classes supplied")
    marks = []
    k = 1
    while k < count:
        marks.append(k)
        k *= 10
    marks.append(count)
    early = max(1, count // 1000)   # the 0.1% prefix
    kept = dict.fromkeys([*marks, early])
    window = min(tail_window, count - 1)
    tail = count - window           # the increments after this prefix must level
    leveled = window >= 1 or count == 1
    monotone = True
    num = den = 0
    prev = -math.inf   # the first partial has nothing to fall below
    # Run in segments that end at each prefix a checkpoint or the tail
    # window reads, so a step in between only accumulates and tracks
    # monotonicity.  Past ``tail`` every step ends a segment, and its
    # leveled test compares the partial with the one before the segment.
    rest = iter(indices)
    done = 0
    for stop in chain(sorted(k for k in kept if k < tail), range(tail, count + 1)):
        before = prev
        for x in islice(rest, stop - done):
            w = mu(x)
            num += T(x) * w
            den += w
            if not den:
                raise ZeroMassSubset("class prefix has zero mass")
            cur = num / den
            if not cur >= prev:
                monotone = False
            prev = cur
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
    elif monotone and (final > cap or final - kept[early] > growth_margin):
        verdict = Verdict.DIVERGENT_TREND
    else:
        verdict = Verdict.INCONCLUSIVE
    return TractabilityResult({k: kept[k] for k in marks}, verdict)
