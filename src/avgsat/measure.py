"""Probability-weighted average running time framework.

Expected running times are taken over an explicit weighted input
space, not over size classes alone.  The core objects:

* :class:`InputSpace` — a finite space of counted keys.  A key stands
  for ``count[key]`` inputs that every check reads alike: its alpha (an
  orthogonal partition; for sentences, the number of distinct
  variables) is ``key[0]`` and its bit size f is ``key[1]``; further
  fields, such as a sentence's class mask, follow.  Every cost is a
  function of a key (see :mod:`avgsat.engines`).
* weights — a plain ``dict`` from key to the exact ``Fraction`` mass of
  the inputs the key stands for; a key it lacks has mass 0.
* ``sums`` / ``class_sums`` — the one summing pass, over some keys or
  over each alpha-class's: each weight read once, the total weight and
  the sum of each term against the weights.  Every check builds on it.
* ``oclass_member`` — generalized O(F) membership: in every positive-
  mass alpha-class, the expected value of T(x)/F(f(x)) is at most 1
  (constant factor exactly 1, no asymptotic cutoff, every class); one
  :class:`BoundRow` per such class.
* ``space`` — the counted sentence space of an exact command.

This module holds what two or more commands run.  A check that one
command alone runs lives with that command in :mod:`avgsat.commands`:
the property checks, the Markov tail and the layer weights.  All masses
and averages on finite spaces are exact ``Fraction`` values.  The trend
scan over very large synthetic spaces lives in :mod:`avgsat.trend`, and
the weightings and averages that no command builds (``uniform_on``,
``nu_from_H`` and the rest) in :mod:`avgsat.weighting`; the names of
these that the benchmark's tracer reads are also read here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

from ._kernel import ConnectiveTable, _anf
from .errors import ClassUncovered, MeasureError, ZeroMassSubset

# the names the benchmark's tracer reads here, by the module they live in
_FORWARDS = {
    "avgsat.trend": ("tractability",),
    "avgsat.weighting": ("uniform_on", "weights_proportional", "power_law_length",
                         "relative_avg", "nu_from_H"),
    "avgsat.commands.property_2_2": ("check_property_2_2",),
    "avgsat.commands.property_2_3": ("check_property_2_3",),
    "avgsat.commands.markov_tail": ("markov_tail",),
    "avgsat.commands.tab_oclass": ("uniform_within_min_layers",),
}


def __getattr__(name):
    """The names of ``_FORWARDS``, from the modules they live in, each
    loaded only on that lookup: :mod:`avgsat.trend` loads without this
    module, no command loads :mod:`avgsat.weighting`, and a command
    module's checks serve that command alone."""
    for module, names in _FORWARDS.items():
        if name in names:
            from importlib import import_module
            return getattr(import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_ZERO = Fraction(0)


def _sum(parts: Iterable[Fraction]) -> Fraction:
    """Exact sum of Fractions, added in pairs, then pairs of pairs: a
    running total would grow to the common denominator early and make
    every later addition pay for its size."""
    parts = list(parts)
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1:]
    return parts[0] if parts else _ZERO


class InputSpace:
    """A finite input space of counted keys.

    Key x stands for ``count[x]`` inputs with alpha ``x[0]``, size
    ``x[1]`` and whatever else the checks read of it.  Weights give x
    the total mass of the inputs it stands for, so every check sums over
    keys exactly as over the inputs themselves.
    """

    def __init__(self, count: Mapping[tuple, int]):
        self.count = dict(count)
        self.items = list(self.count)
        self.classes: dict[int, list] = {}
        for x, c in self.count.items():
            if x[1] < 1:
                raise ValueError(f"size of {x!r} must be >= 1, got {x[1]}")
            if c < 1:
                raise ValueError(f"count of {x!r} must be >= 1, got {c}")
            self.classes.setdefault(x[0], []).append(x)

    def total(self, items: Iterable) -> int:
        """Number of inputs the given items stand for."""
        return sum(self.count[x] for x in items)

    def attained_classes(self) -> list[int]:
        return sorted(self.classes)

    def class_items(self, n: int) -> list:
        return self.classes.get(n, [])

    def __len__(self) -> int:
        return len(self.items)


def sums(mu: Mapping, items: Iterable, terms: Sequence[Callable] = ()) -> list[Fraction]:
    """The total weight of the items, then the sum of each term against
    the weights, exact, from one walk that reads each weight once.

    A term maps an item to a tuple of factors (ints, Fractions or floats,
    which convert exactly).  Numerator products are added as integers,
    keyed by their common denominator, and one Fraction is built per
    distinct denominator.  No term reads an item of weight 0."""
    get = mu.get
    mass, *accs = totals = [{} for _ in range(len(terms) + 1)]
    pairs = list(zip(terms, accs))
    for x in items:
        wn, wd = get(x, 0).as_integer_ratio()
        if not wn:
            continue
        mass[wd] = mass.get(wd, 0) + wn
        for term, acc in pairs:
            num, den = wn, wd
            for q in term(x):
                n, d = q.as_integer_ratio()
                num *= n
                den *= d
            acc[den] = acc.get(den, 0) + num
    return [_sum(Fraction(n, d) for d, n in acc.items()) for acc in totals]


def class_sums(space: InputSpace, mu: Mapping,
               terms: Sequence[Callable] = ()) -> dict[int, list[Fraction]]:
    """:func:`sums` over each alpha-class of positive mass, by class in
    class order: one walk over the class's keys."""
    out = {n: sums(mu, space.class_items(n), terms) for n in space.attained_classes()}
    return {n: s for n, s in out.items() if s[0] != 0}


def over_F(T: Callable, F: Callable[[int], object]) -> Callable:
    """The term T(x) / F(f(x)) of :func:`sums`, F evaluated once per
    distinct size; raises ValueError where F is below 1."""
    inv_F: dict[int, Fraction] = {}

    def term(x):
        if x[1] not in inv_F:
            Fv = Fraction(F(x[1]))
            if Fv < 1:
                raise ValueError(f"F({x[1]}) = {Fv} < 1")
            inv_F[x[1]] = 1 / Fv
        return T(x), inv_F[x[1]]
    return term


class BoundRow(namedtuple("BoundRow", "n lhs rhs passed")):
    """Class n's membership row: lhs against rhs, passed if lhs <= rhs."""

    __slots__ = ()


def member_rows(totals: dict[int, list[Fraction]], i: int = 1) -> dict[int, BoundRow]:
    """The membership rows of the i-th sum of :func:`class_sums`: that sum
    (lhs) against the class's mass (rhs), by class."""
    return {n: BoundRow(n, s[i], s[0], s[i] <= s[0]) for n, s in totals.items()}


def avg_time(T: Callable, mu: Mapping, Y: Iterable) -> Fraction:
    """Expected T(x) conditioned on x in Y (exact)."""
    total, t = sums(mu, Y, [lambda x: (T(x),)])
    if total == 0:
        raise ZeroMassSubset("conditioning subset has probability zero")
    return t / total


def oclass_member(space: InputSpace, T: Callable, F: Callable[[int], object],
                  mu: Mapping) -> dict[int, BoundRow]:
    """Generalized O(F) membership test.

    For each alpha-class of positive mass, checks

        sum over the class of  T(x) / F(f(x)) * mu(x)  <=  mu(class)

    in exact rational arithmetic (the coefficient on F is exactly 1),
    and returns the rows by class, in class order.
    """
    return member_rows(class_sums(space, mu, [over_F(T, F)]))


def _reweighted(H: Callable[[int], object],
                totals: dict[int, list[Fraction]]) -> list[Fraction]:
    """The sums of F(f(x)), T(x) and 1 against H(alpha(x)) / F(f(x)) * mu(x).

    H reads the class alone, so each is a sum over the classes n of H(n)
    times a sum of ``totals[n]``, the class's sums of 1, T/F and 1/F.
    """
    hs = {n: H(n) for n in totals}
    if any(h < 0 for h in hs.values()):
        raise ValueError("H produced a negative weight")
    return sums(hs, totals, [lambda n, i=i: (totals[n][i],) for i in range(3)])[1:]


# --- distribution constructors ---------------------------------------


def uniform_over_model_classes(space: InputSpace, per_class: bool = False) -> dict:
    """Equal mass to each of the 2^(2^n) model classes within each
    alpha-class n, spread uniformly over the inputs of the class present.
    An item's model class is its third field, a key's class mask.

    Every attained alpha-class carries an equal share of mass 1, or
    mass 1 each when ``per_class``: the same weights on a space of one
    class.  Raises ClassUncovered when the space is empty or an
    alpha-class does not inhabit all of its model classes.
    """
    targets = space.attained_classes()
    if not targets:
        raise ClassUncovered("an empty space inhabits no model class")
    shares = 1 if per_class else len(targets)
    weights: dict = {}
    for m in targets:
        groups: dict[int, list] = {}
        for x in space.class_items(m):
            groups.setdefault(x[2], []).append(x)
        needed = 1 << (1 << m)
        if len(groups) != needed:
            raise ClassUncovered(
                f"alpha-class {m} inhabits {len(groups)} of {needed} model classes")
        share = Fraction(1, shares * needed)
        for members in groups.values():
            w = share / space.total(members)
            for x in members:
                weights[x] = w * space.count[x]
    return weights


# --- counted sentence spaces -----------------------------------------


def formula_space(table: ConnectiveTable, ns: Sequence[int], max_tokens: int) -> InputSpace:
    """The sentences over exactly n variables up to a token budget, for
    each class n of ``ns``, as keys (n, f, class mask) counting the
    canonical sentences of each, from one count (see
    :func:`avgsat._counting.sentence_keys` and its refusals).

    Each canonical sentence stands for its n! renamings, which share its
    key, so weights uniform over classes or over sentences are the same
    on canonical counts; n! times a count is a number of sentences."""
    from ._counting import sentence_keys  # loaded only where a space is counted
    return InputSpace(sentence_keys(table, ns, max_tokens))


def _monotone(a: int, f: int) -> bool:
    return all(f >> r & 1 <= f >> (r | 1 << i) & 1
               for r in range(1 << a) for i in range(a))


# Post's five maximal clones, as properties of a truth table (arity a,
# bit r the value at argument tuple r).  Variables have all five, and a
# sentence whose connectives all have one has it too, so such a table
# reaches only the functions with it, whatever the depth.
_POST_CLONES = (
    ("0-preserving", lambda a, f: not f & 1),
    ("1-preserving", lambda a, f: f >> ((1 << a) - 1) & 1 == 1),
    ("monotone", _monotone),
    ("self-dual", lambda a, f: all(f >> r & 1 != f >> (r ^ ((1 << a) - 1)) & 1
                                   for r in range(1 << a))),
    ("affine", lambda a, f: all(len(term) < 2 for term in _anf(a, f))),
)


# The token depth at which a covering space that still misses a model
# class is refused
COVER_DEPTH_CAP = 24


def covering_space(table: ConnectiveTable, ns: Sequence[int]) -> InputSpace:
    """The sentences over exactly n variables up to the smallest token
    depth at which they inhabit all 2^(2^n) model classes, for each
    class n of ``ns``, as keys like :func:`formula_space`, from one count.

    Raises ClassUncovered at ``COVER_DEPTH_CAP`` tokens, and at once
    when every connective lies in one of Post's maximal clones and that
    clone misses some n-ary function; raises MeasureError at once unless
    1 <= n <= 3: at n = 4 a counting state would hold 65,536 masks.
    """
    from ._counting import _check_vars, sentence_keys  # loaded only where a space is counted
    for n in sorted(ns):
        _check_vars(n)
        if n > 3:
            raise MeasureError(f"covering spaces stop at n = 3, got {n}: at n = 4 "
                               "a counting state would hold 65,536 masks")
        needed = 1 << (1 << n)
        for name, has in _POST_CLONES:
            if all(has(a, f) for a, f in zip(table.arities, table.truth_bits)):
                reach = sum(1 for f in range(needed) if has(n, f))
                if reach < needed:
                    raise ClassUncovered(
                        f"every connective is {name}, so at most {reach} of "
                        f"{needed} model classes are reachable at n = {n}")
    return InputSpace(sentence_keys(table, ns, COVER_DEPTH_CAP, cover=True))


def space(table: ConnectiveTable, ns: Sequence[int], max_tokens: int | None) -> InputSpace:
    """One space of every class of ns from one count: their covering
    spaces, or their sentences within max_tokens, none of them empty."""
    return (covering_space(table, ns) if max_tokens is None
            else formula_space(table, ns, max_tokens))
