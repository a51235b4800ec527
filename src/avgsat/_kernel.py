"""The primitives that the counting DP, the sampling walk and the
census share: variable masks, a connective's algebraic normal form and
its application to masks, and the completion-count table.

Conventions:

* A sentence is a sequence of integer token codes: ``code >= 0`` is the
  propositional variable with that index; ``code < 0`` is the connective
  in table slot ``-code - 1``.
* Connective slot ``j`` has arity ``arities[j]`` and packed truth bits
  ``tts[j]``: bit ``r`` of ``tts[j]`` is the output for the argument
  tuple whose binary reading (most-significant bit = first argument)
  is ``r``.
* A connective is applied to masks only through its algebraic normal
  form, ``_anf``: the counting DP, the sampling walk and the test-side
  evaluator of :mod:`avgsat.formula` all read it.
* A truth-table mask over ``n`` variables is an integer whose bit ``m``
  is set iff assignment ``m`` satisfies the sentence, where variable
  ``i`` reads bit ``i`` of ``m`` (least-significant bit is variable 0).
* Every count of valid sequences comes from one table,
  ``completion_counts``.

Each definition that only one module calls lives there: the enumeration
and evaluation of code sequences in :mod:`avgsat.formula`, the
closed-form census in :mod:`avgsat.analytic` and the sampler's slot runs
in :mod:`avgsat.commands.sampling`, so that a command compiles only the
code it runs.
"""

from collections import Counter
from functools import lru_cache


def __getattr__(name):
    """``census_length``, ``enumerate_length``, ``eval_mask`` and
    ``eval_mask_compact``, from the modules of their only callers
    (:mod:`avgsat.analytic`, :mod:`avgsat.formula`), which this lookup
    loads: the benchmark's tracer finds them by these names."""
    if name == "census_length":
        from .analytic import _census_length
        return _census_length
    if name in ("enumerate_length", "eval_mask", "eval_mask_compact"):
        from . import formula
        return getattr(formula, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def var_mask(i, n):
    """Mask over 2^n assignments whose bit m is set iff bit i of m is set."""
    half = 1 << i
    mask = ((1 << half) - 1) << half
    width = half << 1
    total = 1 << n
    while width < total:
        mask |= mask << width
        width <<= 1
    return mask


@lru_cache(maxsize=None)
def _anf(a, tt):
    """The algebraic normal form (Zhegalkin polynomial) of the connective
    of arity ``a`` with truth bits ``tt``: the sets of argument indices
    whose ANDs the connective XORs, the empty set being the constant 1.
    Bit ``s`` of the Moebius transform of the truth bits says whether
    the set read as ``s`` (most-significant bit = first argument) is a
    term."""
    for i in range(a):
        # each row with bit i set takes the XOR of the row without it
        tt ^= (tt & ~var_mask(i, a)) << (1 << i)
    return tuple(tuple(k for k in range(a) if s >> (a - 1 - k) & 1)
                 for s in range(1 << a) if tt >> s & 1)


def _apply(anf, args, full):
    """Mask of a connective, given as ``_anf`` gives it, applied to
    argument masks whose all-true mask is ``full``."""
    acc = 0
    for term in anf:
        t = full
        for k in term:
            t &= args[k]
        acc ^= t
    return acc


def completion_counts(n_vars, arities, length):
    """cnt[r][d]: valid completions from stack depth d in exactly r tokens.

    A completion ends with exactly one value on the stack.  Entries with
    ``r + d <= length + 1`` are exact, which covers every state a
    sequence of at most ``length`` tokens passes through.
    """
    by_arity = Counter(arities).items()
    cnt = [[0] * (length + 2) for _ in range(length + 1)]
    cnt[0][1] = 1
    for r in range(1, length + 1):
        prev = cnt[r - 1]
        row = cnt[r]
        for d in range(length + 1):
            total = n_vars * prev[d + 1]
            for a, mult in by_arity:
                if d >= a:
                    total += mult * prev[d - a + 1]
            row[d] = total
    return cnt


def length_range(arities, max_tokens, exact_connectives):
    """The token counts of the sentences with at most ``max_tokens``
    tokens and/or exactly ``exact_connectives`` connective tokens."""
    if max_tokens is None and exact_connectives is None:
        raise ValueError("need a max token count or an exact connective count")
    if exact_connectives is not None:
        if exact_connectives < 0:
            raise ValueError("connective count must be non-negative")
        lo = exact_connectives + 1 + exact_connectives * (min(arities) - 1)
        hi = exact_connectives + 1 + exact_connectives * (max(arities) - 1)
        if max_tokens is not None:
            hi = min(hi, max_tokens)
        return range(max(lo, 1), hi + 1)
    return range(1, max_tokens + 1)


