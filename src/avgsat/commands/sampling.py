"""The seeded sampling commands: montecarlo and explore-min.

Draws are uniform ranks of sentences in shortlex order (see
:class:`SequenceSampler`), tallied per rank and unranked straight to
their keys (alpha, f, class mask) with no codes and no sentence object,
sorted ranks of one length in one walk, and scored by the cost models
of :mod:`avgsat.engines`, which read keys alone.  The walk applies a
binary connective from its coefficients, with no call.  An exact mean
(``--exact-check``, ``--exhaustive``) is the quotient of two integer
sums over the keys that :mod:`avgsat._counting` counts, taken by int
true division, the correctly rounded float, so no run loads
:mod:`avgsat.measure` or :mod:`fractions`.  :mod:`avgsat.cli` names the
sampler too, and loads it from here.

A draw below ``G`` is ``getrandbits(G.bit_length())`` repeated until it
falls below ``G``: the rejection loop that ``Random.randrange(G)`` runs
(CPython 3.10 to 3.13), made of C iterators (:func:`_draws`), so the
seeded bytes are those of ``randrange``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from functools import lru_cache, partial
from itertools import islice, repeat

from .. import _kernel, engines
from ..cli import FAIL, INFO, PASS, Options, _float
from ..errors import AvgsatError
from . import _load_table


# the most variables explore-min draws over: 65 tokens at arity 2 (the
# declared maximum of --target-tokens) and 49 at arity 3
MAX_POOL = 33

# a round of draws holds each of its distinct ranks and their keys until
# it is scored: at most HELD_BITS mask bits, a key's mask having up to
# 2^v bits over the sampler's v variables, and at most HELD_RANKS ranks,
# each costing over 100 bytes beside its mask (a tally entry, an int, a
# list slot and a key reference)
HELD_BITS = 1 << 20
HELD_RANKS = 1 << 17

# the most token steps a sampling run's expected draws may take: a draw
# walks up to --max-tokens tokens (montecarlo) or exactly --target-tokens
# (explore-min), and a step on masks of 2^n bits costs about
# 1 + 2^n / 2^15 steps on narrow ones.  On 2 vCPUs (Python 3.11),
# montecarlo took about 0.35 ms a draw within 200 tokens at --n 2 and
# 0.96 ms at --n 16; explore-min, whose masks are 2^alpha bits with alpha
# near 2/3 of its pool, about 8 us a draw at 9 tokens, 0.33 ms at 49 and
# 1.5 ms at 57, and 10 ms at 65 (pool 33), so this is some 10 to 20 s
# of drawing
MAX_DRAW_STEPS = 10 ** 7


class SampleError(AvgsatError):
    """A sampling command was asked for samples from a space with no
    sentences in it, or none it could accept, or with more variables
    than it draws over, or for too few samples to check or too many to
    draw."""


@lru_cache(maxsize=None)
def _var_masks(n):
    """The masks of variables 0..n-1 over 2^n assignments."""
    return tuple(_kernel.var_mask(i, n) for i in range(n))


@lru_cache(maxsize=None)
def slot_runs(arities, tts):
    """The connective slots of a table as runs of consecutive slots of
    one arity: (arity, number of slots, one entry per slot),
    read from each slot's ``_kernel._anf``.  A binary slot's entry is the
    coefficients (c0, cx, cy, cxy) of its terms, each -1 or 0, such that
    it is ``(full & c0) ^ (x & cx) ^ (y & cy) ^ (x & y & cxy)`` with ``x``
    the first argument, for a caller to apply in place; any other
    slot's is ``_kernel._apply`` bound to its form."""
    runs = []
    for a, tt in zip(arities, tts):
        anf = _kernel._anf(a, tt)
        op = (tuple(-(term in anf) for term in ((), (0,), (1,), (0, 1))) if a == 2
              else partial(_kernel._apply, anf))
        if runs and runs[-1][0] == a:
            runs[-1][1].append(op)
        else:
            runs.append((a, [op]))
    return tuple((a, len(ops), tuple(ops)) for a, ops in runs)


def _unrank(ranks, length: int, n_vars: int, runs, cnt,
            base: int = 0) -> list[tuple[int, int, int]]:
    """The keys (alpha, size f, class mask), in one walk, of the valid
    sequences of ``length`` tokens at ``ranks``: sorted, distinct, and
    each ``base`` more than its sequence's position in lexicographic
    order.  Each token is unranked through the completion
    counts ``cnt`` (Nijenhuis and Wilf), sized, and applied to a stack of
    masks over the variables seen so far, numbered by first appearance.
    The walk descends only into subtrees that hold ranks, so a prefix
    that several ranks share is unranked once: where the ranks part, the
    state is saved for the later ones and the walk goes on with the
    first.  ``runs`` are the table's connective slots as
    ``slot_runs`` groups them: a binary slot is evaluated in
    place from its coefficients, any other through its function.  The
    walk holds the variable masks of the current alpha and fetches them
    again only when a new variable appears."""
    keys = []
    # equal keys are one tuple: a walk over many ranks returns far more
    # keys than there are distinct ones, and holds them all until it ends
    interned = {}
    var_mask, var_masks = _kernel.var_mask, _var_masks
    vm = ()          # the variable masks over alpha variables, while alpha <= 16
    parted = []      # per parting of the ranks: the later ones and the state they resume from
    stack = []       # the masks of the operands so far; d of them
    d = 0
    slot = [-1] * n_vars  # each variable's number by first appearance
    alpha = 0
    full = 1         # the all-true mask over the alpha variables seen so far
    chars = 2 * length - 1   # a symbol or "p" per token, spaces between; then digits
    top = length     # the tokens still to unrank
    i, j = 0, len(ranks)     # the ranks under the prefix so far are ranks[i:j]
    many = j > 1
    lo = base                # the first rank under the prefix, while many
    u = ranks[0] - base      # ranks[i] less the first rank under the prefix
    while True:
        for r in range(top - 1, -1, -1):
            row = cnt[r]
            block = row[d + 1]
            vb = n_vars * block
            if u < vb:
                v, u = divmod(u, block)
                span = block
                op = None
            else:
                u -= vb
                # each slot of a run of one arity spans the same block of ranks
                for a, k, ops in runs:
                    if d < a:
                        continue
                    span = row[d - a + 1]
                    if u < k * span:
                        q, u = divmod(u, span)
                        break
                    u -= k * span
                else:
                    raise AssertionError("unrank index out of range")
                op = ops[q]
            if many:
                # the ranks under this token are those below `end`; the
                # rest resume from the state before it
                start = ranks[i] - u
                end = start + span
                if ranks[j - 1] >= end:
                    e = bisect_left(ranks, end, i + 1, j)
                    parted.append((e, j, lo, r + 1, d, stack[:], slot[:],
                                   alpha, full, vm, chars))
                    j = e
                    many = e - i > 1
                lo = start
            if op is None:
                w = slot[v]
                if w < 0:
                    # a new variable doubles the width: each mask so far is
                    # independent of it
                    w = slot[v] = alpha
                    alpha += 1
                    half = 1 << w
                    for m in range(d):
                        stack[m] |= stack[m] << half
                    full |= full << half
                    # a variable's mask is as wide as the stack's: the
                    # kernel's cached masks serve up to 16 variables (8 KB
                    # a mask); a wider one is built when it is pushed, and
                    # none is kept
                    vm = var_masks(alpha) if alpha <= 16 else None
                stack.append(var_mask(w, alpha) if vm is None else vm[w])
                chars += 1 if v < 10 else len(str(v))
                d += 1
            elif a == 2:
                # from the connective's coefficients, in place
                c0, cx, cy, cxy = op
                y = stack.pop()
                x = stack[-1]
                stack[-1] = (full & c0) ^ (x & cx) ^ (y & cy) ^ (x & y & cxy)
                d -= 1
            else:
                d -= a
                stack[d:] = (op(stack[d:], full),)
                d += 1
        key = (alpha, 8 * chars, stack[0])
        keys.append(interned.setdefault(key, key))
        if not parted:
            return keys
        i, j, lo, top, d, stack, slot, alpha, full, vm, chars = parted.pop()
        many = j - i > 1
        u = ranks[i] - lo


class SequenceSampler:
    """Uniform sampling over all valid RPN sequences of ``shortest`` to
    ``max_tokens`` tokens: a sample is a uniform rank ``u``, and rank
    ``u`` names the ``u``-th such sequence in shortlex order."""

    def __init__(self, table, n_vars: int, max_tokens: int, shortest: int = 1):
        self.table = table
        self.n_vars = max(n_vars, 0)  # negative sizes have no sequences
        # one table serves every length up to max_tokens
        self.cnt = _kernel.completion_counts(self.n_vars, table.arities, max(max_tokens, 0))
        self.runs = slot_runs(table.arities, table.truth_bits)
        self.totals = [(L, c) for L in range(max(shortest, 1), max_tokens + 1)
                       if (c := self.cnt[L][0])]
        self.grand_total = sum(c for _, c in self.totals)

    def keys_at(self, ranks) -> list[tuple[int, int, int]]:
        """The keys of the sentences at ``ranks``, sorted and distinct in
        ``[0, grand_total)``, in their order: one walk for the ranks of
        each length."""
        keys = []
        i = end = 0
        for L, c in self.totals:
            start, end = end, end + c
            e = bisect_left(ranks, end, i)
            if e > i:
                keys += _unrank(ranks[i:e], L, self.n_vars, self.runs, self.cnt, start)
                i = e
        return keys

    def sample(self, rng):
        """A uniform sentence, as an :class:`avgsat.formula.Formula`: the
        one at a uniform rank in :func:`avgsat.formula.enumerate_length`,
        whose order the ranks follow.  No command calls it: only the
        tests and ``bench/tracer.py`` do."""
        from ..formula import Formula, enumerate_length  # loaded only by their users
        u = rng.randrange(self.grand_total)
        for L, c in self.totals:
            if u < c:
                codes, _ = enumerate_length(self.n_vars, self.table.arities, L)[u]
                return Formula(codes, self.table)
            u -= c


def _mean_stderr(count: int, sx: int, sxx: int) -> tuple[float, float]:
    """Mean and standard error of ``count`` integers with sum ``sx`` and
    sum of squares ``sxx``.

    The mean is the float sum over the count, as ``statistics.fmean``
    takes it.  The standard deviation is the correctly rounded square
    root of the exact sample variance (count*sxx - sx^2) / (count*(count-1)),
    as ``statistics.stdev`` takes it since Python 3.11.
    """
    mean = float(sx) / count
    if count < 2:
        return mean, 0.0
    num, den = count * sxx - sx * sx, count * (count - 1)
    # an integer root of at least 55 bits, rounded to odd, then rounded
    # once to a 53-bit float is the correctly rounded root
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    stdev = float(root << q) if q >= 0 else root / (1 << -q)
    return mean, stdev / count ** 0.5


def _counted_moments(table: _kernel.ConnectiveTable, n: int,
                     max_tokens: int) -> tuple[int, int, int]:
    """(count, sum, sum of squares) of the scan times of the counted keys
    of the sentences over exactly n variables within max_tokens
    (:func:`avgsat._counting.sentence_keys`), each key's value times its
    count; their exact mean is the quotient of the first two."""
    from .._counting import sentence_keys  # loaded only for an exact mean
    keys = sentence_keys(table, [n], max_tokens)
    count = sx = sxx = 0
    for x, c in keys.items():
        v = engines.sat_scan(x)
        count += c
        sx += c * v
        sxx += c * v * v
    return count, sx, sxx


def _draws(rng: random.Random, total: int):
    """Uniform ranks below ``total`` from ``rng``: each is
    ``rng.getrandbits(total.bit_length())`` repeated until it falls below
    ``total``, and a draw is made only when the next rank is asked for."""
    return filter(total.__gt__, map(rng.getrandbits, repeat(total.bit_length())))


def _check_draws(draws: int, n: int, tokens: int, request: str) -> None:
    """Refuse ``draws`` draws of up to ``tokens`` tokens on masks of up
    to 2^n bits whose token steps pass ``MAX_DRAW_STEPS``; ``request``
    says what was asked."""
    if draws * tokens * (1 + (1 << n >> 15)) > MAX_DRAW_STEPS:
        raise SampleError(f"{request} would take more than the {MAX_DRAW_STEPS:.0e} "
                          "token steps a sampling run takes")


def _scan_moments(sampler: SequenceSampler, samples: int, rng: random.Random,
                  score) -> tuple[int, int, int]:
    """(accepted, sum, sum of squares) of the values of the first
    ``samples`` uniform ranks of ``sampler`` drawn from ``rng``
    (:func:`_draws`) that ``score`` accepts: it maps a list of keys to
    their values, None for a rejected key.

    The draws come in rounds.  A round takes as many ranks as
    acceptances are still missing, so it makes no draw past the last
    acceptance, but no more than it may hold: ``HELD_RANKS``, and
    ``HELD_BITS`` over masks of 2^v bits for the sampler's v variables.
    It tallies them per rank, unranks its new distinct ranks in one walk
    per length, scores them, and adds count * value.  The sums are exact
    integers, so the rounds' sizes change no result.  Values are kept
    across rounds only when the space holds no more ranks than
    ``samples``: then ranks repeat, and no more ranks are held than
    there are samples.  The draws end only with the last acceptance, so
    ``score`` must accept some rank.
    """
    draws = _draws(rng, sampler.grand_total)
    held = max(1, min(HELD_RANKS, HELD_BITS >> sampler.n_vars))
    memo = {} if sampler.grand_total <= samples else None
    accepted = sx = sxx = 0
    while accepted < samples:
        tally = Counter(islice(draws, min(samples - accepted, held)))
        fresh = sorted(tally if memo is None else tally.keys() - memo.keys())
        values = score(sampler.keys_at(fresh))
        if memo is None:
            pairs = zip(map(tally.__getitem__, fresh), values)
        else:
            memo.update(zip(fresh, values))
            pairs = zip(tally.values(), map(memo.__getitem__, tally))
        for c, value in pairs:
            if value is not None:
                accepted += c
                sx += c * value
                sxx += c * value * value
    return accepted, sx, sxx


def cmd_montecarlo(opts: Options):
    seed = opts.get("seed")
    n = opts.get("n")
    max_tokens = opts.get("max_tokens")
    exhaustive = opts.get("exhaustive")
    exact_check = opts.get("exact_check")
    table = _load_table(opts)
    exact_mean = z = ""
    status = PASS
    if exhaustive:
        count, sx, sxx = _counted_moments(table, n, max_tokens)
        # int true division rounds correctly: the float of Fraction(sx, count)
        exact = sx / count
        # a key counts canonical sentences, each standing for n! sentences
        renamings = math.factorial(n)
        samples, sx, sxx = renamings * count, renamings * sx, renamings * sxx
        mean, se = _mean_stderr(samples, sx, sxx)
        exact_mean = _float(exact)
        status = PASS if mean == exact else FAIL
    else:
        samples = opts.get("samples")
        if exact_check and samples < 2:
            raise SampleError(f"--exact-check needs at least 2 samples, got {samples}")
        request = f"{samples} samples over {n} variables within {max_tokens} tokens"
        # before any table is built; below 0 variables there is no mask
        _check_draws(samples, max(n, 0), max_tokens, request)
        sampler = SequenceSampler(table, n, max_tokens)
        total = sampler.grand_total
        # 0 when no sentence within max_tokens holds n variable tokens,
        # and when there is no sentence at all
        hits = _kernel.alpha_count(table.arities, n, max_tokens)
        if not hits:
            raise SampleError(f"no sentences with {n} distinct variables within "
                              f"{max_tokens} tokens")
        # `samples` acceptances take about samples * total / hits draws
        _check_draws(samples * total // hits, n, max_tokens,
                     f"{request}, where {hits / total:.2g} of the sentences have {n} "
                     "distinct variables,")
        if exact_check:  # first, as it may refuse its own space
            count, sx, _ = _counted_moments(table, n, max_tokens)
            exact = sx / count  # correctly rounded, as with --exhaustive
        scan = engines.sat_scan
        accepted, sx, sxx = _scan_moments(
            sampler, samples, random.Random(seed),
            lambda keys: [scan(k) if k[0] == n else None for k in keys])
        mean, se = _mean_stderr(accepted, sx, sxx)
        if exact_check:
            exact_mean = _float(exact)
            gap = mean - exact
            # with no spread among the samples, only an exact hit passes
            zval = gap / se if se else math.copysign(math.inf, gap) if gap else 0.0
            z = _float(zval)
            status = PASS if abs(zval) <= 4 else FAIL
    header = ["space", "n", "max_tokens", "samples", "seed", "mean", "stderr",
              "exact_mean", "z", "status"]
    rows = [["sat", str(n), str(max_tokens), str(samples), str(seed),
             _float(mean), _float(se), exact_mean, z, status]]
    return header, rows


def cmd_explore_min(opts: Options):
    seed = opts.get("seed")
    target = opts.get("target_tokens")
    arity = opts.get("arity")
    samples = opts.get("samples")
    from ..tables import all_of_arity  # loaded only where a family is built
    table = all_of_arity(arity)
    # a sentence of L tokens over arity-a connectives has at most
    # 1 + (L-1)*(a-1)/a leaves; use that many variables
    pool = 1 + (target - 1) * (arity - 1) // arity
    if pool > MAX_POOL:
        raise SampleError(f"--target-tokens {target} at arity {arity} needs {pool} "
                          f"variables; at most {MAX_POOL} are sampled")
    _check_draws(samples, 2 * max(pool, 0) // 3, target,  # below 0 tokens, no pool
                 f"{samples} samples of {target} tokens at arity {arity}")
    sampler = SequenceSampler(table, pool, target, shortest=target)
    if not sampler.grand_total:
        raise SampleError(f"no sentences with exactly {target} tokens at arity {arity}")
    # every draw is accepted
    _, sx, sxx = _scan_moments(sampler, samples, random.Random(seed),
                               lambda keys: list(map(engines.min_n, keys)))
    mean, se = _mean_stderr(samples, sx, sxx)
    header = ["target_tokens", "arity", "pool", "samples", "seed", "mean",
              "stderr", "status"]
    rows = [[str(target), str(arity), str(pool), str(samples), str(seed),
             _float(mean), _float(se), INFO]]
    return header, rows
