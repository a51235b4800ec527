"""The seeded sampling commands: montecarlo and explore-min.

Draws are uniform ranks of sentences in shortlex order (see
:class:`avgsat.cli.SequenceSampler`), scored from their codes with no
sentence object; only an exact mean loads :mod:`avgsat.measure`.
"""

from __future__ import annotations

import math
import random

from .. import _kernel, engines
from .._formula_core import ConnectiveTable, ModelSet, codes_size
from ..cli import FAIL, INFO, PASS, Options, SequenceSampler, _float, _unrank
from ..errors import AvgsatError
from . import _load_table


class SampleError(AvgsatError):
    """A sampling command was asked for samples from a space with no
    sentences in it, or for too few samples to check."""


def _first_witness(codes: tuple[int, ...], table: ConnectiveTable,
                   alpha: int | None = None) -> int | None:
    """``min_n`` of the model set, over its own variables, of the valid
    sentence with these codes; None, with no mask evaluated, when
    ``alpha`` is given and the sentence has another number of distinct
    variables.  Builds no Formula and adds no ``compact_model_set``
    entry."""
    remapped, a = _kernel.compact_codes(codes)
    if alpha is not None and a != alpha:
        return None
    return engines.min_n(ModelSet(a, _kernel.eval_mask(remapped, a, table.arities,
                                                       table.truth_bits)))


def _scan_units(codes: tuple[int, ...], table: ConnectiveTable, n: int) -> int | None:
    """``sat_scan``'s time units on the valid sentence with these codes,
    or None when it does not have exactly n distinct variables."""
    m = _first_witness(codes, table, n)
    return None if m is None else codes_size(codes) * (m + 1)


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
        sampler = SequenceSampler(table, n, max_tokens)
        if sampler.grand_total == 0:
            raise SampleError(f"no sentences over {n} variables within {max_tokens} tokens")
        rng = random.Random(seed)
        accepted = rejected = sx = sxx = 0
        # a draw's value depends on its rank alone: rank -> scan time, or
        # None when alpha != n, kept for at most `samples` distinct ranks
        value_of: dict[int, int | None] = {}
        while accepted < samples:
            u = rng.randrange(sampler.grand_total)
            if u in value_of:
                value = value_of[u]
            else:
                value = _scan_units(sampler.codes_at(u), table, n)
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
    length = max(target, 0)  # a negative length has no sentences, like zero
    cnt = _kernel.completion_counts(pool, table.arities, length)
    total = cnt[length][0]
    if total == 0:
        raise SampleError(f"no sentences with exactly {target} tokens at arity {arity}")
    rng = random.Random(seed)
    # draws almost never repeat here, so each is scored from its codes,
    # which are valid by construction
    sx = sxx = 0
    for _ in range(samples):
        m = _first_witness(_unrank(rng.randrange(total), target, pool, table.arities, cnt),
                           table)
        sx += m
        sxx += m * m
    mean, se = _mean_stderr(samples, sx, sxx)
    header = ["target_tokens", "arity", "pool", "samples", "seed", "mean",
              "stderr", "status"]
    rows = [[str(target), str(arity), str(pool), str(samples), str(seed),
             _float(mean), _float(se), INFO]]
    return header, rows
