"""Weightings and averages that no command builds: the tests' reference
definitions beside :mod:`avgsat.measure`.

* ``uniform_on``, ``weights_proportional`` and ``power_law_length`` --
  distributions over a space's inputs;
* ``validate`` -- the check that a distribution is normalized as it
  says;
* ``relative_avg`` -- the average over one size class;
* ``nu_from_H`` -- the per-item reweighting by H(alpha) / F(f), which
  :func:`~avgsat.measure.check_property_2_2` and
  :func:`~avgsat.measure.check_property_2_3` read as per-class sums.

No command loads this module, so no start compiles it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Iterable

from .errors import ZeroMass, ZeroMassSubset
from .measure import Distribution, InputSpace, Normalization, _dot, _sum, avg_time


def validate(mu: Distribution, space: InputSpace) -> None:
    """Raise ValueError unless mu's weights are non-negative and sum to
    exactly 1 over the space (GLOBAL) or over each class (PER_CLASS)."""
    for x, w in mu.weights.items():
        if w < 0:
            raise ValueError(f"negative weight on {x!r}")
    if mu.normalization is Normalization.GLOBAL:
        if mu.mass(space.items) != 1:
            raise ValueError("global weights must sum to exactly 1")
    elif mu.normalization is Normalization.PER_CLASS:
        for n in space.attained_classes():
            if mu.mass(space.class_items(n)) != 1:
                raise ValueError(f"class {n} weights must sum to exactly 1")


def uniform_on(space: InputSpace, subset: Iterable | None = None) -> Distribution:
    """Equal weight on each input of the subset (default: the whole space)."""
    items = list(subset) if subset is not None else space.items
    if not items:
        raise ZeroMassSubset("cannot spread mass over an empty subset")
    total = space.total(items)
    return Distribution({x: Fraction(space.count[x], total) for x in items},
                        Normalization.GLOBAL)


def weights_proportional(space: InputSpace, weight: Callable) -> Distribution:
    """Normalize per-input weights to total mass 1 (exact)."""
    raw = {x: weight(x) * space.count[x] for x in space.items}
    total = _dot((w,) for w in raw.values())
    if total == 0:
        raise ZeroMass("all weights vanish")
    return Distribution({x: Fraction(w) / total for x, w in raw.items() if w},
                        Normalization.GLOBAL)


def power_law_length(space: InputSpace, p: int) -> Distribution:
    """Weight proportional to f(x)^(-p)."""
    return weights_proportional(space, lambda x: Fraction(1, x[1] ** p))


def relative_avg(space: InputSpace, T: Callable, mu: Distribution, n: int) -> Fraction:
    """Average T over the size class f = n; defined as 1 on empty mass."""
    items = [x for x in space.items if x[1] == n]
    if mu.mass(items) == 0:
        return Fraction(1)
    return avg_time(T, mu, items)


class HMode(enum.Enum):
    EQUALITY = "equality"
    DOMINATED = "dominated"


def nu_from_H(space: InputSpace, H: Callable[[int], object],
              F: Callable[[int], object], mu: Distribution,
              mode: HMode = HMode.EQUALITY) -> Distribution:
    """Reweight mu by H(alpha(x)) / F(f(x)), one item at a time.

    EQUALITY scales by the unique constant making the total mass 1;
    DOMINATED returns the raw pointwise product (a sub-distribution
    used as an upper bound).  This is the definition the property checks
    are tested against; no command builds it, since H reads the class
    alone and both checks take its expectations from per-class sums.
    """
    w = mu.weights.get
    raw = {}
    for x in space.items:
        m = w(x, 0)
        if m:
            q = Fraction(H(x[0])) / Fraction(F(x[1])) * m
            if q < 0:
                raise ValueError("H produced a negative weight")
            if q:
                raw[x] = q
    if mode is HMode.DOMINATED:
        return Distribution(raw, Normalization.RAW)
    total = _sum(raw.values())
    if total == 0:
        raise ZeroMass("H vanishes on every positive-mass item")
    return Distribution({x: q / total for x, q in raw.items()}, Normalization.GLOBAL)
