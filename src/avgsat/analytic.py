"""Closed forms and bound verifiers.

Catalan-style sentence shape counts, exact censuses of sentences with
a fixed number of connectives, the expected first-witness identity for
the satisfiability scanner, and the shortest-code (information-theoretic
lower bound) model for the tabulation cost analysis.  The geometric
moment sums live in :mod:`avgsat.moments`, which only their command
loads.

Everything returns exact integers or rationals; floats are rendering
only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import _kernel
from ._formula_core import ConnectiveTable


# G(0), G(1), ... as far as gamma_count has been asked
_GAMMA = [1]


def gamma_count(N: int) -> int:
    """Number of shapes of sentences built from N binary connectives.

    Defined by the convolution recursion G(0) = 1,
    G(n+1) = sum of G(i) * G(n-i) over i = 0..n.  The counts are kept
    and extended, so asking for every N up to N_max takes about N_max^2
    steps in all.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    g = _GAMMA
    for n in range(len(g) - 1, N):
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


def _census_length(n_vars, arities, length, counts=None):
    """Count the canonical sentences of exactly ``length`` tokens over
    ``n_vars`` variables, in closed form.

    A sentence is canonical when its leaves carry the lexicographically
    smallest labeling that uses its variable set: repeats of the
    smallest variable, then each remaining one once in increasing
    order.  Each connective-labelled shape with ``k`` leaves thus has
    one canonical labeling per nonempty subset of at most ``k`` of the
    variables.  With every connective of one arity ``a >= 1``, a
    sentence of ``length`` tokens has ``k = length - (length - 1) / a``
    leaves; other tables raise ``ValueError``.

    The shape count is read from ``counts``, a
    ``_kernel.completion_counts(1, arities, L)`` table with
    ``L >= length`` (built here if None).

    Returns (count, sum_pow2_alpha) where the second component is the
    sum of 2^alpha over counted sentences.
    """
    distinct = set(arities)
    if len(distinct) != 1 or 0 in distinct:
        raise ValueError("the closed-form census needs every connective "
                         "of one arity a >= 1")
    (a,) = distinct
    if counts is None:
        counts = _kernel.completion_counts(1, arities, length)
    shapes = counts[length][0]
    leaves = length - (length - 1) // a
    subsets = [math.comb(n_vars, s) for s in range(1, min(leaves, n_vars) + 1)]
    return (shapes * sum(subsets),
            shapes * sum(c << s for s, c in enumerate(subsets, start=1)))


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


def census(N: int, table: ConnectiveTable | None = None, counts=None) -> Census:
    """Count the canonical sentences with exactly N connectives over
    variables p0..pN (see ``is_canonical_sentence``).

    The count is the closed form of ``_census_length``: the
    connective-labelled shapes, from the stack-depth completion DP
    (``counts``, if given, as ``_census_length`` reads it), times one
    labeling per nonempty variable subset.  Every connective of
    ``table`` (default: the 16 binary ones) must have one arity
    ``a >= 1``; otherwise ``ValueError``.
    """
    if table is None:
        from .tables import all_binary  # loaded only where the family is built
        table = all_binary()
    total = 0
    pow2 = 0
    for length in _kernel.length_range(table.arities, None, N):
        c, s = _census_length(N + 1, table.arities, length, counts)
        total += c
        pow2 += s
    return Census(N, total, pow2)


def censuses(N_max: int, table: ConnectiveTable | None = None) -> list[Census]:
    """``census(N, table)`` for N = 0..N_max, every shape count read
    from one completion table up to the longest length: its entries are
    exact for ``r + d <= length + 1``, so its depth-0 column holds the
    count at every shorter length too."""
    if N_max < 0:
        return []
    if table is None:
        from .tables import all_binary  # loaded only where the family is built
        table = all_binary()
    longest = _kernel.length_range(table.arities, None, N_max)[-1]
    counts = _kernel.completion_counts(1, table.arities, longest)
    return [census(N, table, counts) for N in range(N_max + 1)]


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


def expected_min_plus_one(n: int) -> MinExpectation:
    if n < 0:
        raise ValueError("n must be non-negative")
    M = 1 << n
    S = 1 << M  # number of subsets
    closed = 2 - Fraction(1, S)
    # one division of the integer numerators, not one Fraction per term
    nonempty = Fraction(sum(i << (M - i) for i in range(1, M + 1)), S)
    brute = None
    if n <= 4:
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


def shannon_lengths(n: int) -> list[tuple[int, int]]:
    """Information-theoretic lower-bound sizes for one layer of
    pairwise-inequivalent sentences on n variables, as (code length,
    number of slots) pairs.

    A layer holds one sentence per Boolean function, 2^(2^n) in all;
    the least possible multiset of bit sizes takes every code of each
    length 1..2^n - 1 and fills the remaining two slots at length 2^n.
    """
    top = 1 << n
    return [(i, 1 << i) for i in range(1, top)] + [(top, 2)]


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
    estimate separately, and ``single_top_lhs`` is the sum with a single
    top-length slot, one short of 2^(2^n).
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
    S = 1 << (1 << n)
    pow2n = 1 << n
    inv_sq = sum((Fraction(count, length * length)
                  for length, count in shannon_lengths(n)), Fraction(0))
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

    # one top slot fewer drops one term 1/(2^n)^2 of the sum
    return TabulatorBound(n, lhs, rhs, lhs <= rhs, chain, lhs - Fraction(1, S * pow2n))


def shannon_space(ns: list[int]):
    """An input space of shortest-code keys for several layer sizes.

    Key (n, length) stands for the layer's slots of that code length; f
    is the length and alpha is n, so its tabulation cost is
    :func:`avgsat.engines.tabulate`, 2^n * length.  Returns the space and
    the per-class uniform distribution (each slot 1/2^(2^n) of its
    class, mass 1 on each class).
    """
    from . import measure  # loaded only by the commands that check the model
    count = {(n, length): slots
             for n in ns for length, slots in shannon_lengths(n)}
    mu = measure.Distribution({key: Fraction(slots, 1 << (1 << key[0]))
                               for key, slots in count.items()},
                              measure.Normalization.PER_CLASS)
    return measure.InputSpace(count), mu
