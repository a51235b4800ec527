"""Closed forms and bound verifiers.

Catalan-style sentence shape counts, exact censuses of sentences with
a fixed number of connectives, the expected first-witness identity for
the satisfiability scanner, geometric moment sums with certified tail
bounds, and the shortest-code (information-theoretic lower bound)
model for the tabulation cost analysis.

Everything returns exact integers or rationals; floats are rendering
only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import _kernel, measure
from ._formula_core import ConnectiveTable, _Frozen


def gamma_count(N: int) -> int:
    """Number of shapes of sentences built from N binary connectives.

    Defined by the convolution recursion G(0) = 1,
    G(n+1) = sum of G(i) * G(n-i) over i = 0..n.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    g = [1]
    for n in range(N):
        g.append(sum(g[i] * g[n - i] for i in range(n + 1)))
    return g[N]


def catalan_binomial(N: int) -> int:
    """Independent closed form: binomial(2N, N) / (N + 1)."""
    return math.comb(2 * N, N) // (N + 1)


def sentence_count(N: int) -> int:
    """Sentences with exactly N binary connectives over a fixed pool of
    N+1 variables, one representative per nonempty variable subset:
    shapes * 16^N connective choices * (2^(N+1) - 1) subsets.
    """
    return gamma_count(N) * 16 ** N * (2 ** (N + 1) - 1)


def is_canonical_sentence(x) -> bool:
    """Whether the sentence x (a :class:`~avgsat.formula.Formula`)
    carries the canonical leaf labeling for its variable set.

    The canonical labeling is the lexicographically smallest one using
    exactly that set: the smallest variable fills the surplus leading
    leaves, then each remaining variable appears once in increasing
    order.
    """
    leaves = [c for c in x.codes if c >= 0]
    used = sorted(set(leaves))
    surplus = len(leaves) - len(used) + 1
    return leaves == [used[0]] * surplus + used[1:]


class Census(NamedTuple):
    """Counts of the canonical sentences with exactly N connectives."""

    N: int
    count: int
    pow2_alpha_sum: int

    @property
    def read_total(self) -> int:
        """Total symbol-reading time: 2N+1 symbols per sentence."""
        return (2 * self.N + 1) * self.count

    @property
    def tabulate_total(self) -> int:
        """Total tabulation time: (2N+1) * 2^alpha per sentence."""
        return (2 * self.N + 1) * self.pow2_alpha_sum


def census(N: int, table: ConnectiveTable | None = None) -> Census:
    """Count the canonical sentences with exactly N connectives over
    variables p0..pN (see ``is_canonical_sentence``).

    The count is the closed form of ``_kernel.census_length``: the
    connective-labelled shapes, from the stack-depth completion DP,
    times one labeling per nonempty variable subset.  Every connective
    of ``table`` (default: the 16 binary ones) must have one arity
    ``a >= 1``; otherwise ``ValueError``.
    """
    if table is None:
        table = ConnectiveTable.all_binary()
    total = 0
    pow2 = 0
    for length in _kernel.length_range(table.arities, None, N):
        c, s = _kernel.census_length(N + 1, table.arities, length)
        total += c
        pow2 += s
    return Census(N, total, pow2)


class Totals(NamedTuple):
    read_total: int
    tabulate_total: int
    ratio: Fraction  # tabulate/read scaled by (2N+1)^(-p)


def totals_and_ratio(N: int, p: int) -> Totals:
    """Closed-form totals for the exact-N-connective census and the
    per-N term of the expected-cost series under length-power-law
    weights: (3^(N+1)-1)/(2^(N+1)-1) * (2N+1)^(-p).
    """
    base = (2 * N + 1) * gamma_count(N) * 16 ** N
    read = base * (2 ** (N + 1) - 1)
    tab = base * (3 ** (N + 1) - 1)
    ratio = Fraction(3 ** (N + 1) - 1, 2 ** (N + 1) - 1) / (2 * N + 1) ** p
    return Totals(read, tab, ratio)


def ratio_partial_sums(N_max: int, p: int) -> list[Fraction]:
    """Exact partial sums of the per-N cost ratio series."""
    out = []
    acc = Fraction(0)
    for N in range(N_max + 1):
        acc += totals_and_ratio(N, p).ratio
        out.append(acc)
    return out


class MinExpectation(NamedTuple):
    """Expected (first witness + 1) for the satisfiability scanner over
    all subsets of {0..2^n-1} with equal probability.

    ``brute`` scans every subset (n <= 4); ``closed`` is
    2 - 2^(-2^n); ``nonempty_sum`` drops the empty set's 2^n + 1 term
    (the series as usually displayed).  All are below 2.
    """

    n: int
    closed: Fraction
    brute: Fraction | None
    nonempty_sum: Fraction


def expected_min_plus_one(n: int, brute_limit: int = 4) -> MinExpectation:
    if n < 0:
        raise ValueError("n must be non-negative")
    M = 1 << n
    S = 1 << M  # number of subsets
    closed = 2 - Fraction(1, S)
    # one division of the integer numerators, not one Fraction per term
    nonempty = Fraction(sum(i << (M - i) for i in range(1, M + 1)), S)
    brute = None
    if n <= brute_limit:
        total = 0
        for K in range(S):
            m = M  # empty set: every assignment tried, plus the read
            for i in range(M):
                if (K >> i) & 1:
                    m = i
                    break
            total += m + 1
        brute = Fraction(total, S)
        if brute != closed:
            raise AssertionError(
                f"brute force {brute} disagrees with closed form {closed} at n={n}")
    return MinExpectation(n, closed, brute, nonempty)


class MomentSum(NamedTuple):
    """Certified approximation of sum over i >= 1 of i^m / 2^i."""

    m: int
    partial: Fraction
    tail_bound: Fraction
    cutoff: int

    @property
    def upper(self) -> Fraction:
        return self.partial + self.tail_bound


def geometric_moment_sum(m: int, tol: Fraction | float = Fraction(1, 10 ** 12)) -> MomentSum:
    """Partial sum of i^m / 2^i with a proven remainder below tol.

    Beyond i = cutoff >= 4m the term ratio is at most
    ((c+1)/c)^m / 2 < 0.65, so the tail is bounded by the next term
    times a geometric factor.  The cutoff doubles until the bound
    undercuts tol.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    cutoff = max(4 * m, 8)
    while True:
        ratio = Fraction((cutoff + 1) ** m, cutoff ** m * 2)
        next_term = Fraction((cutoff + 1) ** m, 2 ** (cutoff + 1))
        tail = next_term / (1 - ratio)
        if tail < tol:
            break
        cutoff *= 2
    num = sum(i ** m << (cutoff - i) for i in range(1, cutoff + 1))
    partial = Fraction(num, 1 << cutoff)
    return MomentSum(m, partial, tail, cutoff)


def moment_oclass_constant(m: int) -> Fraction:
    """The moment-bound constant 2.5 * m^(m+1) (m >= 2)."""
    if m < 2:
        raise ValueError("the constant is defined for m >= 2")
    return Fraction(5, 2) * m ** (m + 1)


class ConstantComparison(NamedTuple):
    computed: int       # m^m + 2*m^(m+1) at m = 3
    reference: int      # backtrack-coloring constant for 3 colors
    rel_gap: Fraction


def wilf_comparison() -> ConstantComparison:
    """Evaluate m^m + 2*m^(m+1) at m=3 against the reference 197."""
    m = 3
    computed = m ** m + 2 * m ** (m + 1)
    reference = 197
    return ConstantComparison(computed, reference,
                              Fraction(abs(computed - reference), reference))


# --- shortest-code model ----------------------------------------------


class ShannonModel(_Frozen):
    """Information-theoretic lower-bound sizes for one layer of
    pairwise-inequivalent sentences on n variables.

    A layer holds one sentence per Boolean function, 2^(2^n) in all;
    the least possible multiset of bit sizes takes every code of each
    length 1..2^n - 1 and fills the remaining two slots at length 2^n
    (``repair=False`` keeps a single top-length slot, leaving the layer
    one short of 2^(2^n)).
    """

    __slots__ = ("n", "repair")

    def __init__(self, n: int, repair: bool = True):
        super().__init__(n, repair)

    @property
    def slot_count(self) -> int:
        full = 1 << (1 << self.n)
        return full if self.repair else full - 1

    def length_counts(self) -> list[tuple[int, int]]:
        """(code length, number of slots) pairs."""
        top = 1 << self.n
        counts = [(i, 1 << i) for i in range(1, top)]
        counts.append((top, 2 if self.repair else 1))
        return counts

    def lengths(self) -> list[int]:
        out = []
        for length, count in self.length_counts():
            out.extend([length] * count)
        return out


class ChainStep(NamedTuple):
    label: str
    lhs: Fraction
    rhs: Fraction
    ok: bool


class TabulatorBound(NamedTuple):
    """Exact evaluation of the cubic bound on the shortest-code model.

    ``lhs`` is the expected T(x)/f(x)^3 over one uniformly weighted
    layer with tabulation cost T = 2^n * f; ``rhs`` is the layer mass
    1.  ``chain`` reports each intermediate inequality of the coarse
    estimate separately, and ``single_top_lhs`` is the sum with the
    unrepaired single top-length slot.
    """

    n: int
    lhs: Fraction
    rhs: Fraction
    passed: bool
    chain: tuple[ChainStep, ...]
    single_top_lhs: Fraction


def tabulator_class_bound(n: int) -> TabulatorBound:
    if n < 1:
        raise ValueError("n must be at least 1")
    model = ShannonModel(n, repair=True)
    S = model.slot_count
    pow2n = 1 << n
    inv_sq = sum((Fraction(count, length * length)
                  for length, count in model.length_counts()), Fraction(0))
    lhs = Fraction(pow2n, S) * inv_sq
    rhs = Fraction(1)

    # coarse chain: fold the top slots into a full 2^n term, then bound
    # every term of the sum by the largest one
    folded = Fraction(pow2n, S) * sum(
        (Fraction(1 << i, i * i) for i in range(1, pow2n + 1)), Fraction(0))
    coarse = Fraction(pow2n, S) * pow2n * Fraction(1 << pow2n, pow2n * pow2n)
    chain = (
        ChainStep("exact layer sum vs folded-top sum", lhs, folded, lhs <= folded),
        ChainStep("folded-top sum vs largest-term bound", folded, coarse,
                  folded <= coarse),
        ChainStep("largest-term bound vs layer mass", coarse, rhs, coarse <= rhs),
    )

    single = ShannonModel(n, repair=False)
    single_lhs = Fraction(pow2n, S) * sum(
        (Fraction(count, length * length)
         for length, count in single.length_counts()), Fraction(0))
    return TabulatorBound(n, lhs, rhs, lhs <= rhs, chain, single_lhs)


def shannon_space(ns: list[int], repair: bool = True):
    """An input space of shortest-code slots for several layer sizes.

    Items are (n, slot index); f is the slot's code length; alpha is
    n.  Returns the space, the tabulation cost map, and the per-class
    uniform distribution (mass 1 on each class).
    """
    items = []
    f = {}
    for n in ns:
        for idx, length in enumerate(ShannonModel(n, repair).lengths()):
            item = (n, idx)
            items.append(item)
            f[item] = length
    space = measure.InputSpace(items, f, lambda it: it[0])
    T = {it: (1 << it[0]) * f[it] for it in items}
    weights = {}
    for n in ns:
        members = space.class_items(n)
        w = Fraction(1, len(members))
        for it in members:
            weights[it] = w
    mu = measure.Distribution(weights, measure.Normalization.PER_CLASS)
    return space, T, mu
