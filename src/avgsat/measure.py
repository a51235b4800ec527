"""Probability-weighted average running time framework.

Expected running times are taken over an explicit weighted input
space, not over size classes alone.  The core objects:

* :class:`InputSpace` — a finite list of inputs with a bit-size map f
  and an orthogonal partition alpha (for sentences: the number of
  distinct variables).  An item may stand for several inputs that
  every check reads alike: a sentence space's items are keys
  (alpha, f, class mask), with counts.
* :class:`Distribution` — exact rational weights, normalized globally
  or per alpha-class.
* ``oclass_member`` — generalized O(F) membership: in every positive-
  mass alpha-class, the expected value of T(x)/F(f(x)) is at most 1
  (constant factor exactly 1, no asymptotic cutoff, every class).
* ``tractability`` — finiteness evidence for the unconditional
  expected running time, via partial averages over class prefixes,
  in one streaming pass whose memory does not grow with the prefixes.
* ``check_property_2_2`` / ``check_property_2_3`` — executable forms
  of the reweighting equivalences that transfer per-class O(F) bounds
  to whole-space expectations.

All masses and averages on finite spaces are exact ``Fraction``
values; floats only appear in trend scans over very large synthetic
spaces and in CSV rendering.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from itertools import chain, islice, permutations
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from ._formula_core import ConnectiveTable, _Frozen, sentence_key
from .errors import AvgsatError


class MeasureError(AvgsatError):
    """A space, distribution or check that cannot be built or run."""


class ZeroMassSubset(MeasureError):
    """Conditioning on a subset of probability zero."""


class ZeroMass(MeasureError):
    """A reweighting produced an everywhere-zero distribution."""


class ClassUncovered(MeasureError):
    """A sentence space is missing some model classes."""


class PreconditionFailed(MeasureError):
    """A check's stated precondition does not hold on this space."""


CostMap = Callable[[object], int] | Mapping[object, int]


def _fn(m):
    """Normalize a mapping-or-callable to a callable."""
    if callable(m):
        return m
    return m.__getitem__


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
    """A finite input space with a size map f and a partition alpha.

    Item x stands for ``count[x]`` inputs (default 1) with its size, its
    alpha and whatever else the checks read of it.  Distributions give
    x the total mass of the inputs it stands for, so every check sums
    over items exactly as over the inputs themselves.
    """

    def __init__(self, items: Iterable, f: CostMap, alpha: CostMap,
                 count: CostMap | None = None):
        self.items = list(items)
        ff, aa = _fn(f), _fn(alpha)
        self.f = {x: ff(x) for x in self.items}
        self.alpha = {x: aa(x) for x in self.items}
        cc = (lambda x: 1) if count is None else _fn(count)
        self.count = {x: cc(x) for x in self.items}
        if len(self.f) != len(self.items):
            raise ValueError("duplicate items in input space")
        for x, v in self.f.items():
            if v < 1:
                raise ValueError(f"size of {x!r} must be >= 1, got {v}")
        for x, c in self.count.items():
            if c < 1:
                raise ValueError(f"count of {x!r} must be >= 1, got {c}")
        self.classes: dict[int, list] = {}
        for x in self.items:
            self.classes.setdefault(self.alpha[x], []).append(x)

    @classmethod
    def from_formulas(cls, formulas: Iterable, count: CostMap | None = None) -> "InputSpace":
        """A space whose items are :class:`~avgsat.formula.Formula` objects."""
        from .formula import size_f, var_count_alpha  # loaded only by its users
        return cls(formulas, size_f, var_count_alpha, count)

    @classmethod
    def from_keys(cls, count: Mapping[tuple, int]) -> "InputSpace":
        """A space whose items are keys (alpha, f, mask), each standing
        for ``count[key]`` inputs."""
        return cls(count, itemgetter(1), itemgetter(0), count)

    def total(self, items: Iterable) -> int:
        """Number of inputs the given items stand for."""
        return sum(self.count[x] for x in items)

    def attained_classes(self) -> list[int]:
        return sorted(self.classes)

    def class_items(self, n: int) -> list:
        return self.classes.get(n, [])

    def f_class_items(self, n: int) -> list:
        return [x for x in self.items if self.f[x] == n]

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

    def validate(self, space: InputSpace) -> None:
        for x, w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight on {x!r}")
        if self.normalization is Normalization.GLOBAL:
            if self.mass(space.items) != 1:
                raise ValueError("global weights must sum to exactly 1")
        elif self.normalization is Normalization.PER_CLASS:
            for n in space.attained_classes():
                if self.mass(space.class_items(n)) != 1:
                    raise ValueError(f"class {n} weights must sum to exactly 1")


class BoundRow(NamedTuple):
    n: int
    lhs: Fraction
    rhs: Fraction
    passed: bool
    note: str = ""


class BoundReport:
    """Per-class verdicts for a bound check, exact and as floats."""

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

    CSV_HEADER = ["n", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
                  "lhs_float", "rhs_float", "pass"]

    def csv_rows(self, status=None) -> list[list[str]]:
        """Rows in the stable schema; ``status`` may remap the pass column."""
        out = []
        for r in sorted(self.rows, key=lambda r: r.n):
            verdict = "pass" if r.passed else "fail"
            if status is not None:
                verdict = status(r)
            out.append([str(r.n),
                        str(r.lhs.numerator), str(r.lhs.denominator),
                        str(r.rhs.numerator), str(r.rhs.denominator),
                        repr(float(r.lhs)), repr(float(r.rhs)), verdict])
        return out


def avg_time(T: CostMap, mu: Distribution, Y: Iterable) -> Fraction:
    """Expected T(x) conditioned on x in Y (exact)."""
    Tf = _fn(T)
    items = list(Y)
    denom = mu.mass(items)
    if denom == 0:
        raise ZeroMassSubset("conditioning subset has probability zero")
    w = mu.weights.get
    return _dot((Tf(x), w(x, 0)) for x in items) / denom


def relative_avg(space: InputSpace, T: CostMap, mu: Distribution, n: int) -> Fraction:
    """Average T over the size class f = n; defined as 1 on empty mass."""
    items = space.f_class_items(n)
    if mu.mass(items) == 0:
        return Fraction(1)
    return avg_time(T, mu, items)


def oclass_member(space: InputSpace, T: CostMap, F: Callable[[int], object],
                  mu: Distribution) -> BoundReport:
    """Generalized O(F) membership test.

    For each alpha-class of positive mass, checks

        sum over the class of  T(x) / F(f(x)) * mu(x)  <=  mu(class)

    in exact rational arithmetic (the coefficient on F is exactly 1).
    F is evaluated once per distinct size.
    """
    Tf = _fn(T)
    w = mu.weights.get
    inv_F: dict[int, Fraction] = {}
    report = BoundReport()
    for n in space.attained_classes():
        items = space.class_items(n)
        rhs = mu.mass(items)
        if rhs == 0:
            continue
        for k in dict.fromkeys(space.f[x] for x in items):
            if k not in inv_F:
                Fv = Fraction(F(k))
                if Fv < 1:
                    raise ValueError(f"F({k}) = {Fv} < 1")
                inv_F[k] = 1 / Fv
        lhs = _dot((Tf(x), w(x, 0), inv_F[space.f[x]]) for x in items)
        report.rows.append(BoundRow(n, lhs, rhs, lhs <= rhs))
    return report


class Verdict(enum.Enum):
    CONVERGENT = "convergent"
    DIVERGENT_TREND = "divergent-trend"
    INCONCLUSIVE = "inconclusive"


class TractabilityResult(NamedTuple):
    """Partial averages at prefixes 1, 10, 100, ... below the class
    count and at the count itself, in that order, and the verdict."""

    checkpoints: dict
    verdict: Verdict

    @property
    def final(self):
        return next(reversed(self.checkpoints.values()))


def tractability(T: CostMap, mu: CostMap, indices: Sequence[int],
                 eps: float = 1e-12, cap: float = 1e6, growth_margin: float = 1.0,
                 exact: bool = False, tail_window: int = 10) -> TractabilityResult:
    """Partial expected running times over growing class prefixes.

    Each index of ``indices``, in order, is its own one-point class;
    ``mu`` may be unnormalized (averages are invariant under scaling).
    After each class the running average of T over the classes seen so
    far is a partial.  One pass keeps only the partials the verdict and
    the checkpoints read, so memory does not grow with ``len(indices)``.

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
    Tf, muf = _fn(T), _fn(mu)
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
    num = den = Fraction(0) if exact else 0.0
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
            w = muf(x)
            if not exact:
                w = float(w)
            num += Tf(x) * w
            den += w
            if den == 0:
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


class HMode(enum.Enum):
    EQUALITY = "equality"
    DOMINATED = "dominated"


def nu_from_H(space: InputSpace, H: Callable[[int], object],
              F: Callable[[int], object], mu: Distribution,
              mode: HMode = HMode.EQUALITY) -> Distribution:
    """Reweight mu by H(alpha(x)) / F(f(x)).

    EQUALITY scales by the unique constant making the total mass 1;
    DOMINATED returns the raw pointwise product (a sub-distribution
    used as an upper bound).  Weights are computed, and normalized,
    once per distinct (alpha, f, mu) key and shared by its items.  A
    weight is kept as an integer numerator over a positive integer
    denominator until it is final, and the total sums the numerators
    per denominator, as :func:`_dot` does.
    """
    w = mu.weights.get
    h_at: dict[int, tuple[int, int]] = {}      # alpha -> H(alpha), as a ratio
    inv_F: dict[int, tuple[int, int]] = {}     # f -> 1 / F(f), as a ratio
    weight: dict[tuple, tuple[int, int]] = {}  # key -> (numerator, denominator)
    key_of = {}   # items of nonzero weight -> their key
    for x in space.items:
        key = (space.alpha[x], space.f[x], *w(x, 0).as_integer_ratio())
        q = weight.get(key)
        if q is None:
            a, k, num, den = key
            if a not in h_at:
                h_at[a] = Fraction(H(a)).as_integer_ratio()
            if k not in inv_F:
                inv_F[k] = (1 / Fraction(F(k))).as_integer_ratio()
            (hn, hd), (fn, fd) = h_at[a], inv_F[k]
            q = weight[key] = hn * fn * num, hd * fd * den
            if q[0] < 0:
                raise ValueError("H produced a negative weight")
        if q[0]:
            key_of[x] = key
    if mode is HMode.DOMINATED:
        scaled = {key: Fraction(num, den) for key, (num, den) in weight.items() if num}
        return Distribution({x: scaled[key] for x, key in key_of.items()},
                            Normalization.RAW)
    sums: dict[int, int] = {}
    for key in key_of.values():
        num, den = weight[key]
        sums[den] = sums.get(den, 0) + num
    total = _sum(Fraction(num, den) for den, num in sums.items())
    if total == 0:
        raise ZeroMass("H vanishes on every positive-mass item")
    scaled = {key: Fraction(num, den) / total for key, (num, den) in weight.items() if num}
    return Distribution({x: scaled[key] for x, key in key_of.items()},
                        Normalization.GLOBAL)


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


def check_property_2_2(space: InputSpace, T: CostMap, F: Callable[[int], object],
                       mu: Distribution,
                       extra_H: Sequence[tuple[str, Callable]] = ()) -> Prop22Result:
    """Exact verification of the membership/reweighting equivalence.

    The H family is every characteristic function of an attained
    alpha-class plus any user-supplied (label, H) pairs.  For each H
    with a normalizable reweighting, expected T must not exceed
    expected F(f) under the reweighted distribution exactly when the
    per-class membership rows pass.
    """
    Tf = _fn(T)
    times = {x: Tf(x) for x in space.items}
    oc = oclass_member(space, times, F, mu)
    F_at = {k: F(k) for k in set(space.f.values())}
    tested_classes = [r.n for r in oc.rows]
    h_rows = []
    per_class = True
    families = [(f"chi_{n}", (lambda n: lambda k: 1 if k == n else 0)(n))
                for n in tested_classes]
    families.extend(extra_H)
    for label, H in families:
        try:
            nu = nu_from_H(space, H, F, mu, HMode.EQUALITY)
        except ZeroMass:
            continue
        lhs = _dot((times[x], q) for x, q in nu.weights.items())
        rhs = _dot((F_at[space.f[x]], q) for x, q in nu.weights.items())
        row = HRow(label, lhs, rhs, lhs <= rhs)
        h_rows.append(row)
        if label.startswith("chi_"):
            n = int(label[4:])
            if row.ok != oc.row(n).passed:
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


def check_property_2_3(space: InputSpace, T: CostMap, F: Callable[[int], object],
                       mu: Distribution, H: Callable[[int], object]) -> Prop23Result:
    """Certify expected T <= sum of H(n) under the dominated reweighting.

    Precondition: mu is normalized per class and the O(F) membership
    rows all pass (raises PreconditionFailed otherwise).
    """
    if mu.normalization is not Normalization.PER_CLASS:
        raise PreconditionFailed("mu must be normalized once per class")
    Tf = _fn(T)
    times = {x: Tf(x) for x in space.items}
    oc = oclass_member(space, times, F, mu)
    if not oc.overall:
        raise PreconditionFailed("O(F) membership fails on this space")
    nu = nu_from_H(space, H, F, mu, HMode.DOMINATED)
    expectation = _dot((times[x], q) for x, q in nu.weights.items())
    mass = nu.mass(space.items)
    bound = _dot((H(n),) for n in space.attained_classes())
    return Prop23Result(bound, expectation, mass, expectation <= bound)


class MarkovTail(NamedTuple):
    bound: Fraction
    empirical: Fraction
    ok: bool


def markov_tail(T: CostMap, mu: Distribution, Y: Iterable, a) -> MarkovTail:
    """Tail bound P(T >= a | Y) <= avg(T | Y) / a, checked exactly."""
    a = Fraction(a)
    if a <= 0:
        raise ValueError("threshold must be positive")
    Tf = _fn(T)
    items = list(Y)
    total = mu.mass(items)
    if total == 0:
        raise ZeroMassSubset("conditioning subset has probability zero")
    bound = avg_time(T, mu, items) / a
    w = mu.weights.get
    tail = _dot((w(x, 0),) for x in items if Tf(x) >= a)
    empirical = tail / total
    return MarkovTail(bound, empirical, empirical <= bound)


# --- distribution constructors ---------------------------------------


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
    return weights_proportional(space, lambda x: Fraction(1, space.f[x] ** p))


def model_class_of(x) -> int:
    """Class key: the truth-table bits over the sentence's own variables
    (a key's mask)."""
    return sentence_key(x)[2]


def uniform_over_model_classes(space: InputSpace, n: int | None = None,
                               class_masses: Mapping[int, Fraction] | None = None,
                               per_class: bool = False) -> Distribution:
    """Equal mass to each of the 2^(2^n) model classes within each
    alpha-class, spread uniformly over the inputs of the class present.

    With ``n`` given, only that alpha-class carries mass (totaling 1).
    Otherwise every attained alpha-class carries ``class_masses[n]``
    (default: equal shares, or mass 1 each when ``per_class``).
    Raises ClassUncovered when a targeted alpha-class does not inhabit
    all of its model classes.
    """
    targets = [n] if n is not None else space.attained_classes()
    if class_masses is None:
        if per_class or n is not None:
            class_masses = {m: Fraction(1) for m in targets}
        else:
            class_masses = {m: Fraction(1, len(targets)) for m in targets}
    weights: dict = {}
    for m in targets:
        items = space.class_items(m)
        groups: dict[int, list] = {}
        for x in items:
            groups.setdefault(model_class_of(x), []).append(x)
        needed = 1 << (1 << m)
        if len(groups) != needed:
            raise ClassUncovered(
                f"alpha-class {m} inhabits {len(groups)} of {needed} model classes")
        share = Fraction(class_masses[m], needed)
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
    return InputSpace.from_keys(count)


def min_layer_runs(space: InputSpace, n: int) -> list[tuple[int, list]]:
    """The minimal-length layers of a block space's alpha-class n, as
    runs: (repeats, blocks) pairs, each standing for ``repeats``
    consecutive layers whose members are those blocks' sentences.

    Within a model set's group, sentences are ranked by size (ties by
    rendering, as :func:`~avgsat.formula.stratify_min_layers` breaks
    them), and layer i holds the sentences of rank i.  A block holds all
    of its group's sentences of its size, so it fills consecutive ranks
    whatever the order among them.
    """
    free: dict[int, int] = {}   # group -> its next free rank
    starts: dict[int, list] = {}
    stops: dict[int, list] = {}
    for x in sorted(space.class_items(n), key=space.f.__getitem__):
        start = free.get(x[2], 0)
        stop = free[x[2]] = start + space.count[x]
        starts.setdefault(start, []).append(x)
        stops.setdefault(stop, []).append(x)
    cuts = sorted(starts.keys() | stops.keys())
    active: dict = {}
    runs = []
    for lo, hi in zip(cuts, cuts[1:]):
        for x in stops.get(lo, ()):
            del active[x]
        active.update(dict.fromkeys(starts.get(lo, ())))
        runs.append((hi - lo, list(active)))
    return runs


def uniform_within_min_layers(space: InputSpace, n: int,
                              layer_masses: Sequence[Fraction] | None = None) -> Distribution:
    """Equal weight to all sentences of each minimal-length layer.

    The space holds blocks (see :func:`layer_blocks`); layers come from
    :func:`min_layer_runs`, and a block gets the mass of each of its
    sentences, whose ranks it fills.  Layer masses default to equal
    shares of 1.
    """
    runs = min_layer_runs(space, n)
    if not runs:
        raise ZeroMassSubset(f"alpha-class {n} is empty")
    n_layers = sum(repeats for repeats, _ in runs)
    if layer_masses is not None and len(layer_masses) != n_layers:
        raise ValueError("one mass per layer required")
    parts: dict = {}   # block -> {denominator: numerator} of its mass
    start = 0
    for repeats, layer in runs:
        mass = (Fraction(repeats, n_layers) if layer_masses is None
                else _dot((q,) for q in layer_masses[start:start + repeats]))
        num, den = (mass / len(layer)).as_integer_ratio()
        start += repeats
        for x in layer:
            sums = parts.setdefault(x, {})
            sums[den] = sums.get(den, 0) + num
    return Distribution({x: sum((Fraction(num, den) for den, num in sums.items()), _ZERO)
                         for x, sums in parts.items()}, Normalization.GLOBAL)


# --- counted sentence spaces -----------------------------------------


def _check_vars(n: int) -> None:
    # sizes are counted as 8 * (2 * tokens - 1 + variable tokens), which
    # holds while every variable is p0..p9
    if not 1 <= n <= 10:
        raise MeasureError(f"sentence spaces need 1 to 10 variables, got {n}")


def formula_space(table: ConnectiveTable, n: int, max_tokens: int) -> InputSpace:
    """All alpha = n sentences over exactly n variables up to a token
    budget, as keys (n, f, class mask) counting the canonical sentences
    of each (see :class:`~avgsat._counting.SentenceCounts`).

    Each canonical sentence stands for its n! renamings, which share its
    key, so weights uniform over classes or over sentences are the same
    on canonical counts; n! times a count is a number of sentences.
    Raises MeasureError unless 1 <= n <= 10."""
    _check_vars(n)
    from ._counting import SentenceCounts  # loaded only to build a space
    counts = SentenceCounts(n, table.arities, table.truth_bits, max_tokens)
    for _ in range(max_tokens):
        counts.extend()
    return InputSpace.from_keys(counts.keys())


def _monotone(a: int, f: int) -> bool:
    return all(f >> r & 1 <= f >> (r | 1 << i) & 1
               for r in range(1 << a) for i in range(a))


def _affine(a: int, f: int) -> bool:
    c = f & 1
    linear = sum((f >> (1 << i) & 1 ^ c) << i for i in range(a))
    return all(f >> r & 1 == c ^ bin(r & linear).count("1") & 1
               for r in range(1 << a))


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
    ("affine", _affine),
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
    from ._counting import SentenceCounts  # loaded only to build a space
    counts = SentenceCounts(n, table.arities, table.truth_bits, depth_cap)
    classes: set[int] = set()
    for t in range(1, depth_cap + 1):
        counts.extend()
        classes.update(mask for _, mask, _ in counts.top(t))
        if len(classes) == needed:
            return InputSpace.from_keys(counts.keys())
    raise ClassUncovered(
        f"only {len(classes)} of {needed} model classes within {depth_cap} tokens")
