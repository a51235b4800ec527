"""Probability-weighted average running time framework.

Expected running times are taken over an explicit weighted input
space, not over size classes alone.  The core objects:

* :class:`InputSpace` — a finite space of counted keys.  A key stands
  for ``count[key]`` inputs that every check reads alike: its alpha (an
  orthogonal partition; for sentences, the number of distinct
  variables) is ``key[0]`` and its bit size f is ``key[1]``; further
  fields, such as a sentence's class mask, follow.  Every cost is a
  function of a key (see :mod:`avgsat.engines`).
* :class:`Distribution` — exact rational weights, normalized globally
  or per alpha-class.
* ``oclass_member`` — generalized O(F) membership: in every positive-
  mass alpha-class, the expected value of T(x)/F(f(x)) is at most 1
  (constant factor exactly 1, no asymptotic cutoff, every class).
* ``check_property_2_2`` / ``check_property_2_3`` — executable forms
  of the reweighting equivalences that transfer per-class O(F) bounds
  to whole-space expectations.

All masses and averages on finite spaces are exact ``Fraction``
values.  The trend scan over very large synthetic spaces lives in
:mod:`avgsat.trend`, and the weightings and averages that no command
builds (``uniform_on``, ``nu_from_H`` and the rest) in
:mod:`avgsat.weighting`; their traced names are also read here.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import permutations
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from ._formula_core import ConnectiveTable, _Frozen
from ._kernel import _anf
from .errors import ClassUncovered, MeasureError, PreconditionFailed, ZeroMassSubset


def __getattr__(name):
    """Names the benchmark's tracer reads here, from the modules they live
    in: ``tractability``, ``Verdict`` and ``TractabilityResult`` from
    :mod:`avgsat.trend`, which loads without this module, and
    ``uniform_on``, ``weights_proportional``, ``power_law_length``,
    ``relative_avg`` and ``nu_from_H`` from :mod:`avgsat.weighting`,
    which no command loads."""
    if name in ("tractability", "Verdict", "TractabilityResult"):
        from . import trend
        return getattr(trend, name)
    if name in ("uniform_on", "weights_proportional", "power_law_length", "relative_avg",
                "nu_from_H"):
        from . import weighting
        return getattr(weighting, name)
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


def _dot(terms: Iterable[tuple]) -> Fraction:
    """Exact sum over ``terms`` of the product of each tuple's factors.

    Factors are ints, Fractions or floats (floats convert exactly).
    Numerator products are added as integers, keyed by their common
    denominator, and one Fraction is built per distinct denominator, so
    a term costs integer work only.
    """
    sums: dict[int, int] = {}
    for factors in terms:
        num = den = 1
        for q in factors:
            n, d = q.as_integer_ratio()
            num *= n
            den *= d
        sums[den] = sums.get(den, 0) + num
    return _sum(Fraction(n, d) for d, n in sums.items())


class InputSpace:
    """A finite input space of counted keys.

    Key x stands for ``count[x]`` inputs with alpha ``x[0]``, size
    ``x[1]`` and whatever else the checks read of it.  Distributions
    give x the total mass of the inputs it stands for, so every check
    sums over keys exactly as over the inputs themselves.
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


class Normalization(enum.Enum):
    GLOBAL = "global"     # total mass 1
    PER_CLASS = "per-class"  # each alpha-class has mass 1
    RAW = "raw"           # unnormalized (dominating sub-distribution)


class Distribution(_Frozen):
    """Exact non-negative rational weights over a space's items.

    Items absent from ``weights`` have weight 0.
    """

    __slots__ = ("weights", "normalization")

    def __init__(self, weights: Mapping,
                 normalization: Normalization = Normalization.GLOBAL):
        super().__init__(weights, normalization)

    def of(self, x) -> Fraction:
        return self.weights.get(x, _ZERO)

    def mass(self, items: Iterable) -> Fraction:
        w = self.weights.get
        return _dot((w(x, 0),) for x in items)


class BoundRow(NamedTuple):
    n: int
    lhs: Fraction
    rhs: Fraction
    passed: bool
    note: str = ""


class BoundReport:
    """Per-class verdicts for a bound check, in exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[BoundRow] | None = None):
        self.rows = [] if rows is None else rows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"BoundReport(rows={self.rows!r})"

    @property
    def overall(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, n: int) -> BoundRow:
        for r in self.rows:
            if r.n == n:
                return r
        raise KeyError(n)


def avg_time(T: Callable, mu: Distribution, Y: Iterable) -> Fraction:
    """Expected T(x) conditioned on x in Y (exact)."""
    items = list(Y)
    denom = mu.mass(items)
    if denom == 0:
        raise ZeroMassSubset("conditioning subset has probability zero")
    w = mu.weights.get
    return _dot((T(x), w(x, 0)) for x in items) / denom


def oclass_member(space: InputSpace, T: Callable, F: Callable[[int], object],
                  mu: Distribution) -> BoundReport:
    """Generalized O(F) membership test.

    For each alpha-class of positive mass, checks

        sum over the class of  T(x) / F(f(x)) * mu(x)  <=  mu(class)

    in exact rational arithmetic (the coefficient on F is exactly 1).
    F is evaluated once per distinct size.
    """
    w = mu.weights.get
    inv_F: dict[int, Fraction] = {}
    report = BoundReport()
    for n in space.attained_classes():
        items = space.class_items(n)
        rhs = mu.mass(items)
        if rhs == 0:
            continue
        for k in dict.fromkeys(x[1] for x in items):
            if k not in inv_F:
                Fv = Fraction(F(k))
                if Fv < 1:
                    raise ValueError(f"F({k}) = {Fv} < 1")
                inv_F[k] = 1 / Fv
        lhs = _dot((T(x), w(x, 0), inv_F[x[1]]) for x in items)
        report.rows.append(BoundRow(n, lhs, rhs, lhs <= rhs))
    return report


def _over_F(space: InputSpace, F: Callable[[int], object], mu: Distribution) -> list[Fraction]:
    """The sum of mu/F over each positive-mass class, in the order of
    :func:`oclass_member`'s rows."""
    return [r.lhs for r in oclass_member(space, lambda x: 1, F, mu).rows]


def _reweighted(H: Callable[[int], object], oc: BoundReport,
                over_F: list[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    """The sums of T(x), F(f(x)) and 1 against H(alpha(x)) / F(f(x)) * mu(x).

    H reads the class alone, so each is a sum over the classes n of
    ``oc``'s rows of H(n) times a sum over the class against mu: of T/F
    (the row's lhs), of 1 (its rhs) or of 1/F (``over_F``).
    """
    hs = [H(r.n) for r in oc.rows]
    if any(h < 0 for h in hs):
        raise ValueError("H produced a negative weight")
    return (_dot(zip(hs, [r.lhs for r in oc.rows])), _dot(zip(hs, [r.rhs for r in oc.rows])),
            _dot(zip(hs, over_F)))


class HRow(NamedTuple):
    label: str
    lhs: Fraction   # expected T under nu
    rhs: Fraction   # expected F(f) under nu
    ok: bool


class Prop22Result(NamedTuple):
    """Both directions of the bound/reweighting equivalence.

    ``oclass`` holds the per-class membership rows; ``h_rows`` holds,
    for each tested H, the comparison of expected T against expected
    F(f) under the H-reweighted distribution.  The class rows and the
    characteristic-function rows must agree verdict by verdict.
    """

    oclass: BoundReport
    h_rows: list[HRow]
    per_class_agreement: bool

    @property
    def biconditional_ok(self) -> bool:
        return self.per_class_agreement and (
            self.oclass.overall == all(r.ok for r in self.h_rows))


def check_property_2_2(space: InputSpace, T: Callable, F: Callable[[int], object],
                       mu: Distribution,
                       extra_H: Sequence[tuple[str, Callable]] = ()) -> Prop22Result:
    """Exact verification of the membership/reweighting equivalence.

    The H family is every characteristic function of an attained
    alpha-class plus any user-supplied (label, H) pairs.  For each H
    with a normalizable reweighting, expected T must not exceed
    expected F(f) under the reweighted distribution exactly when the
    per-class membership rows pass.  Both expectations are read from
    per-class sums (see :func:`_reweighted`), so no reweighted
    distribution is built.
    """
    oc = oclass_member(space, T, F, mu)
    over_F = _over_F(space, F, mu)
    families = [(f"chi_{r.n}", r.n, (lambda n: lambda k: 1 if k == n else 0)(r.n))
                for r in oc.rows]
    families.extend((label, None, H) for label, H in extra_H)
    h_rows = []
    per_class = True
    for label, n, H in families:
        lhs, rhs, total = _reweighted(H, oc, over_F)
        if not total:  # H vanishes on every positive-mass class
            continue
        lhs, rhs = lhs / total, rhs / total
        row = HRow(label, lhs, rhs, lhs <= rhs)
        h_rows.append(row)
        if n is not None and row.ok != oc.row(n).passed:
            per_class = False
    return Prop22Result(oc, h_rows, per_class)


class Prop23Result(NamedTuple):
    """Transfer of a per-class O(F) bound to a whole-space expectation.

    ``expectation`` is the exact sum of T against the dominating
    sub-distribution H(alpha)/F(f) * mu (mu normalized per class); the
    certified bound is the sum of H over attained classes.  The
    sub-distribution's total mass is reported alongside; dividing the
    expectation by it gives the conditional average, which the bound
    does not cover when the mass is below 1.
    """

    bound: Fraction
    expectation: Fraction
    dominated_mass: Fraction
    ok: bool


def check_property_2_3(space: InputSpace, T: Callable, F: Callable[[int], object],
                       mu: Distribution, H: Callable[[int], object]) -> Prop23Result:
    """Certify expected T <= sum of H(n) under the dominated reweighting.

    Precondition: mu is normalized per class and the O(F) membership
    rows all pass (raises PreconditionFailed otherwise).  The sums are
    read per class, as in :func:`check_property_2_2`.
    """
    if mu.normalization is not Normalization.PER_CLASS:
        raise PreconditionFailed("mu must be normalized once per class")
    oc = oclass_member(space, T, F, mu)
    if not oc.overall:
        raise PreconditionFailed("O(F) membership fails on this space")
    expectation, _, mass = _reweighted(H, oc, _over_F(space, F, mu))
    bound = _dot((H(n),) for n in space.attained_classes())
    return Prop23Result(bound, expectation, mass, expectation <= bound)


class MarkovTail(NamedTuple):
    bound: Fraction
    empirical: Fraction
    ok: bool


def markov_tail(T: Callable, mu: Distribution, Y: Iterable, a) -> MarkovTail:
    """Tail bound P(T >= a | Y) <= avg(T | Y) / a, checked exactly."""
    a = Fraction(a)
    if a <= 0:
        raise ValueError("threshold must be positive")
    items = list(Y)
    total = mu.mass(items)
    if total == 0:
        raise ZeroMassSubset("conditioning subset has probability zero")
    bound = avg_time(T, mu, items) / a
    w = mu.weights.get
    tail = _dot((w(x, 0),) for x in items if T(x) >= a)
    empirical = tail / total
    return MarkovTail(bound, empirical, empirical <= bound)


# --- distribution constructors ---------------------------------------


def uniform_over_model_classes(space: InputSpace, n: int | None = None,
                               per_class: bool = False) -> Distribution:
    """Equal mass to each of the 2^(2^n) model classes within each
    alpha-class, spread uniformly over the inputs of the class present.
    An item's model class is its third field, a key's class mask.

    With ``n`` given, only that alpha-class carries mass (totaling 1).
    Otherwise every attained alpha-class carries an equal share, or mass
    1 each when ``per_class``.  Raises ClassUncovered when a targeted
    alpha-class does not inhabit all of its model classes.
    """
    targets = [n] if n is not None else space.attained_classes()
    shares = 1 if per_class or n is not None else len(targets)
    weights: dict = {}
    for m in targets:
        items = space.class_items(m)
        groups: dict[int, list] = {}
        for x in items:
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
    norm = Normalization.PER_CLASS if per_class else Normalization.GLOBAL
    if n is not None:
        norm = Normalization.GLOBAL
    return Distribution(weights, norm)


def layer_blocks(space: InputSpace, n: int) -> InputSpace:
    """The alpha = n sentences of a key space (from :func:`formula_space`)
    as blocks (n, f, model set over p0..p(n-1)), each counting every
    sentence of that size and model set.

    A canonical key's sentences are its canonical sentences with their
    variables renamed, once per permutation sigma of the n variables;
    renaming keeps f and moves the mask, so only masks are renamed.
    Only the costs that read alpha and f alone (``tabulate`` and
    ``rewrite_cost``) read a block as they read its sentences.
    """
    keys = space.class_items(n)
    count: dict[tuple, int] = {}
    # with no key, skip the renamings (10! of them at n = 10)
    for sigma in permutations(range(n)) if keys else ():
        # assignment x of the renamed variables, read by the canonical ones
        reads = [sum(((x >> v) & 1) << i for i, v in enumerate(sigma))
                 for x in range(1 << n)]
        for key in keys:
            block = (n, key[1], sum(((key[2] >> y) & 1) << x for x, y in enumerate(reads)))
            count[block] = count.get(block, 0) + space.count[key]
    return InputSpace(count)


def uniform_within_min_layers(space: InputSpace, n: int) -> Distribution:
    """Equal weight to all sentences of each minimal-length layer, and
    equal mass to each layer.

    The space holds blocks (see :func:`layer_blocks`).  Within a model
    set's group, sentences are ranked by size (ties by rendering, as
    :func:`~avgsat.formula.stratify_min_layers` breaks them), and layer
    i holds the sentences of rank i: one from each of the g(i) groups
    with more than i sentences, of L layers in all, L the largest group.
    A block holds all of its group's sentences of its size, so it fills
    consecutive ranks [a, b) whatever the order among them, and gets the
    sum of 1/(L * g(i)) over them.  g is constant between consecutive
    group sizes, so the sums are prefix sums taken at those sizes.
    """
    free: dict[int, int] = {}   # group -> its next free rank
    spans = {}                  # block -> the ranks [a, b) it fills
    for x in sorted(space.class_items(n), key=itemgetter(1)):
        a = free.get(x[2], 0)
        b = free[x[2]] = a + space.count[x]
        spans[x] = a, b
    if not spans:
        raise ZeroMassSubset(f"alpha-class {n} is empty")
    sizes = sorted(free.values())
    cuts = [0, *sorted(set(sizes))]
    # below cuts[j], sum of 1/g(i) is prefix[j]; from there to cuts[j+1],
    # g is the number of groups of cuts[j+1] sentences or more
    g = [len(sizes) - bisect_left(sizes, c) for c in cuts[1:]]
    prefix = [_ZERO]
    for j, groups in enumerate(g):
        prefix.append(prefix[j] + Fraction(cuts[j + 1] - cuts[j], groups))

    def upto(t: int) -> Fraction:
        j = bisect_right(cuts, t) - 1
        return prefix[j] if t == cuts[j] else prefix[j] + Fraction(t - cuts[j], g[j])

    layers = cuts[-1]
    return Distribution({x: (upto(b) - upto(a)) / layers for x, (a, b) in spans.items()},
                        Normalization.GLOBAL)


# --- counted sentence spaces -----------------------------------------


def formula_space(table: ConnectiveTable, n: int, max_tokens: int) -> InputSpace:
    """All alpha = n sentences over exactly n variables up to a token
    budget, as keys (n, f, class mask) counting the canonical sentences
    of each (see :func:`avgsat._counting.sentence_keys`, which raises
    MeasureError unless 1 <= n <= 10, and, before counting, past
    ``MAX_TOKENS`` or ``MAX_WORK``).

    Each canonical sentence stands for its n! renamings, which share its
    key, so weights uniform over classes or over sentences are the same
    on canonical counts; n! times a count is a number of sentences."""
    from ._counting import sentence_keys  # loaded only where a space is counted
    return InputSpace(sentence_keys(table, n, max_tokens))


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


def covering_space(table: ConnectiveTable, n: int, depth_cap: int = 24,
                   ) -> InputSpace:
    """All alpha = n sentences over exactly n variables up to the
    smallest token depth at which they inhabit all 2^(2^n) model
    classes, as keys like :func:`formula_space`.

    Raises ClassUncovered at the cap, and at once when every connective
    lies in one of Post's maximal clones and that clone misses some
    n-ary function; raises MeasureError at once unless 1 <= n <= 3: at
    n = 4 a counting state would hold 65,536 masks.
    """
    from ._counting import SentenceCounts, _check_vars  # loaded only where a space is counted
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
    counts = SentenceCounts(n, table.arities, table.truth_bits, depth_cap)
    classes: set[int] = set()
    for t in range(1, depth_cap + 1):
        counts.extend()
        classes.update(mask for _, mask, _ in counts.top(t))
        if len(classes) == needed:
            return InputSpace(counts.keys())
    raise ClassUncovered(
        f"only {len(classes)} of {needed} model classes within {depth_cap} tokens")
