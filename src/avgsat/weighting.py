"""Weightings and averages that no command builds: the tests' reference
definitions beside :mod:`avgsat.measure`.

* ``uniform_on``, ``weights_proportional`` and ``power_law_length`` --
  distributions over a space's inputs, as weight dicts;
* ``validate`` -- the check that weights are a distribution;
* ``relative_avg`` -- the average over one size class;
* ``nu_from_H`` -- the per-item reweighting by H(alpha) / F(f), which
  ``check_property_2_2`` and ``check_property_2_3`` (each in its
  command's module of :mod:`avgsat.commands`) read as per-class sums.

No command loads this module, so no start compiles it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import ZeroMass, ZeroMassSubset
from .measure import InputSpace, sums


def validate(mu: Mapping, space: InputSpace) -> None:
    """Raise ValueError unless mu's weights are non-negative and sum to
    exactly 1 over the space."""
    for x, w in mu.items():
        if w < 0:
            raise ValueError(f"negative weight on {x!r}")
    if sums(mu, space.items)[0] != 1:
        raise ValueError("weights must sum to exactly 1")


def uniform_on(space: InputSpace, subset: Iterable | None = None) -> dict:
    """Equal weight on each input of the subset (default: the whole space)."""
    items = list(subset) if subset is not None else space.items
    if not items:
        raise ZeroMassSubset("cannot spread mass over an empty subset")
    total = space.total(items)
    return {x: Fraction(space.count[x], total) for x in items}


def weights_proportional(space: InputSpace, weight: Callable) -> dict:
    """Normalize per-input weights to total mass 1 (exact)."""
    raw = {x: weight(x) * space.count[x] for x in space.items}
    total = sums(raw, raw)[0]
    if total == 0:
        raise ZeroMass("all weights vanish")
    return {x: Fraction(w) / total for x, w in raw.items() if w}


def power_law_length(space: InputSpace, p: int) -> dict:
    """Weight proportional to f(x)^(-p)."""
    return weights_proportional(space, lambda x: Fraction(1, x[1] ** p))


def relative_avg(space: InputSpace, T: Callable, mu: Mapping, n: int) -> Fraction:
    """Average T over the size class f = n; defined as 1 on empty mass."""
    total, t = sums(mu, (x for x in space.items if x[1] == n), [lambda x: (T(x),)])
    return t / total if total else Fraction(1)


class HMode(enum.Enum):
    EQUALITY = "equality"
    DOMINATED = "dominated"


def nu_from_H(space: InputSpace, H: Callable[[int], object],
              F: Callable[[int], object], mu: Mapping,
              mode: HMode = HMode.EQUALITY) -> dict:
    """Reweight mu by H(alpha(x)) / F(f(x)), one item at a time.

    EQUALITY scales by the unique constant making the total mass 1;
    DOMINATED returns the raw pointwise product (a sub-distribution
    used as an upper bound).  This is the definition the property checks
    are tested against; no command builds it, since H reads the class
    alone and both checks take its expectations from per-class sums.
    """
    w = mu.get
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
        return raw
    total = sums(raw, raw)[0]
    if total == 0:
        raise ZeroMass("H vanishes on every positive-mass item")
    return {x: q / total for x, q in raw.items()}
