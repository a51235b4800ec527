"""The seeded sampling commands: montecarlo and explore-min.

Draws are uniform ranks of sentences in shortlex order (see
:class:`SequenceSampler`), each unranked straight to its key (alpha, f,
class mask) with no codes and no sentence object; only an exact mean
loads :mod:`avgsat.measure`.  :mod:`avgsat.cli` names the sampler too,
and loads it from here.

A draw below ``G`` is ``getrandbits(G.bit_length())`` repeated until it
falls below ``G``: the rejection loop that ``Random.randrange(G)`` runs
(CPython 3.10 to 3.13), made inline, so the seeded bytes are those of
``randrange``.
"""

from __future__ import annotations

import math
import random

from .. import _kernel, engines
from .._formula_core import ConnectiveTable
from ..cli import FAIL, INFO, PASS, Options, _float
from ..errors import AvgsatError
from . import _load_table


# the most variables explore-min draws over: 65 tokens at arity 2 (the
# declared maximum of --target-tokens) and 49 at arity 3
MAX_POOL = 33


class SampleError(AvgsatError):
    """A sampling command was asked for samples from a space with no
    sentences in it, or none it could accept, or with more variables
    than it draws over, or for too few samples to check."""


def _unrank(u: int, length: int, n_vars: int, runs, cnt, codes=None) -> tuple[int, int, int]:
    """The key (alpha, size f, class mask) of the ``u``-th valid sequence
    of ``length`` tokens in lexicographic order, in one walk: each token
    is unranked through the completion counts ``cnt`` (Nijenhuis and
    Wilf), sized, and applied to a stack of masks over the variables seen
    so far, numbered by first appearance.  ``runs`` are the table's
    connective slots as ``_kernel.slot_runs`` groups them; the codes are
    appended to ``codes`` if it is given."""
    stack = []       # the masks of the operands so far; d of them
    d = 0
    slot = [-1] * n_vars  # each variable's number by first appearance
    alpha = 0
    vmasks = []      # each numbered variable's mask
    full = 1         # the all-true mask over the alpha variables seen so far
    chars = 2 * length - 1   # a symbol or "p" per token, spaces between; then digits
    for r in range(length - 1, -1, -1):
        row = cnt[r]
        block = row[d + 1]
        vb = n_vars * block
        if u < vb:
            v, u = divmod(u, block)
            if codes is not None:
                codes.append(v)
            i = slot[v]
            if i < 0:
                # a new variable doubles the width: each mask so far is
                # independent of it, and it is true on the upper half
                i = slot[v] = alpha
                alpha += 1
                half = 1 << i
                for j in range(d):
                    stack[j] |= stack[j] << half
                for j in range(i):
                    vmasks[j] |= vmasks[j] << half
                vmasks.append(full << half)
                full |= full << half
            stack.append(vmasks[i])
            chars += 1 if v < 10 else len(str(v))
            d += 1
            continue
        u -= vb
        # each slot of a run of one arity spans the same block of ranks
        for a, first, k, ops in runs:
            if d < a:
                continue
            bj = row[d - a + 1]
            span = k * bj
            if u < span:
                q, u = divmod(u, bj)
                break
            u -= span
        else:
            raise AssertionError("unrank index out of range")
        if codes is not None:
            codes.append(-first - q - 1)
        d -= a
        args = stack[d:]
        del stack[d:]
        stack.append(ops[q](args, full))
        d += 1
    return alpha, 8 * chars, stack[0]


class SequenceSampler:
    """Uniform sampling over all valid RPN sequences of bounded length:
    a sample is a uniform rank ``u``, and rank ``u`` names the ``u``-th
    sequence in shortlex order."""

    def __init__(self, table, n_vars: int, max_tokens: int):
        self.table = table
        self.n_vars = max(n_vars, 0)  # negative sizes have no sequences
        # one table serves every length up to max_tokens
        self.cnt = _kernel.completion_counts(self.n_vars, table.arities, max(max_tokens, 0))
        self.runs = _kernel.slot_runs(table.arities, table.truth_bits)
        self.totals = [(L, c) for L in range(1, max_tokens + 1) if (c := self.cnt[L][0])]
        self.grand_total = sum(c for _, c in self.totals)

    def key_at(self, u: int, codes=None) -> tuple[int, int, int]:
        """The key of the sentence of rank ``u``, for ``0 <= u <
        grand_total``, its codes appended to ``codes`` if it is given."""
        for L, c in self.totals:
            if u < c:
                return _unrank(u, L, self.n_vars, self.runs, self.cnt, codes)
            u -= c
        raise AssertionError("sampler index out of range")

    def sample(self, rng):
        """A uniform sentence, as an :class:`avgsat.formula.Formula`."""
        from ..formula import Formula  # sentence objects: loaded only by their users
        codes = []
        self.key_at(rng.randrange(self.grand_total), codes)
        return Formula(tuple(codes), self.table)


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


def _counted_mean(table: ConnectiveTable, n: int, max_tokens: int):
    """The counted space of the sentences over exactly n variables within
    max_tokens, and their exact mean scan time."""
    from .. import measure  # loaded only for an exact mean
    space = measure.formula_space(table, n, max_tokens)
    if not space.items:
        raise SampleError(f"no sentences with {n} distinct variables within {max_tokens} tokens")
    return space, measure.avg_time(engines.sat_scan_time, measure.uniform_on(space), space.items)


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
        space, exact = _counted_mean(table, n, max_tokens)
        # one (value, count) pair per key, never one value per sentence;
        # a key counts canonical sentences, each standing for n! sentences
        renamings = math.factorial(n)
        samples = sx = sxx = 0
        for x in space.items:
            c, v = renamings * space.count[x], engines.sat_scan_time(x)
            samples += c
            sx += c * v
            sxx += c * v * v
        mean, se = _mean_stderr(samples, sx, sxx)
        exact_mean = _float(exact)
        status = PASS if mean == float(exact) else FAIL
    else:
        samples = opts.get("samples")
        if exact_check and samples < 2:
            raise SampleError(f"--exact-check needs at least 2 samples, got {samples}")
        leaves = _kernel.max_leaves(table.arities, max_tokens)
        if n > leaves:
            raise SampleError(f"no sentences with {n} distinct variables within {max_tokens} "
                              f"tokens (they hold at most {leaves} variable tokens)")
        sampler = SequenceSampler(table, n, max_tokens)
        total = sampler.grand_total
        if total == 0:
            raise SampleError(f"no sentences over {n} variables within {max_tokens} tokens")
        getrandbits, k = random.Random(seed).getrandbits, total.bit_length()
        accepted = rejected = sx = sxx = 0
        # a draw's value depends on its rank alone: rank -> scan time, or
        # None when alpha != n, kept for at most `samples` distinct ranks
        value_of: dict[int, int | None] = {}
        while accepted < samples:
            u = getrandbits(k)
            while u >= total:
                u = getrandbits(k)
            if u in value_of:
                value = value_of[u]
            else:
                alpha, f, mask = sampler.key_at(u)
                # sat_scan's time: f times one more than the first model
                value = (f * ((mask & -mask).bit_length() if mask else (1 << alpha) + 1)
                         if alpha == n else None)
                if len(value_of) < samples:
                    value_of[u] = value
            if value is not None:
                accepted += 1
                sx += value
                sxx += value * value
            else:
                rejected += 1
                if rejected > 1000 * (accepted + samples):
                    raise SampleError(
                        f"no sentences with {n} distinct variables within "
                        f"{max_tokens} tokens (rejected {rejected} samples)")
        mean, se = _mean_stderr(accepted, sx, sxx)
        if exact_check:
            _, exact = _counted_mean(table, n, max_tokens)
            exact_mean = _float(exact)
            gap = mean - float(exact)
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
    table = ConnectiveTable.all_of_arity(arity)
    # a sentence of L tokens over arity-a connectives has at most
    # 1 + (L-1)*(a-1)/a leaves; use that many variables
    pool = 1 + (target - 1) * (arity - 1) // arity
    if pool > MAX_POOL:
        raise SampleError(f"--target-tokens {target} at arity {arity} needs {pool} "
                          f"variables; at most {MAX_POOL} are sampled")
    sampler = SequenceSampler(table, pool, target)
    total = sampler.cnt[max(target, 0)][0]  # a negative length has none, like zero
    if total == 0:
        raise SampleError(f"no sentences with exactly {target} tokens at arity {arity}")
    getrandbits, k = random.Random(seed).getrandbits, total.bit_length()
    # the ranks of exactly `target` tokens are the sampler's last `total`;
    # draws almost never repeat here, so each is unranked to its key
    sx = sxx = 0
    for _ in range(samples):
        u = getrandbits(k)
        while u >= total:
            u = getrandbits(k)
        alpha, _, mask = _unrank(u, target, pool, sampler.runs, sampler.cnt)
        m = (mask & -mask).bit_length() - 1 if mask else 1 << alpha
        sx += m
        sxx += m * m
    mean, se = _mean_stderr(samples, sx, sxx)
    header = ["target_tokens", "arity", "pool", "samples", "seed", "mean",
              "stderr", "status"]
    rows = [[str(target), str(arity), str(pool), str(samples), str(seed),
             _float(mean), _float(se), INFO]]
    return header, rows
