"""The tests' oracles: slow, independent references that no command runs.

- the negated key space, against which the ``co`` row of ``sat-oclass``
  (its ``sat`` row written again) is checked;
- the canonical-labelling predicate, which filters the enumeration
  against the closed-form census;
- the moment estimate's constant against the backtrack-coloring
  constant, and the closed form of the cubic bound on the shortest-code
  model with its coarse chain;
- the family of every truth function of arities 1..k;
- the sampling walk against the enumeration's sentences, evaluated by
  :mod:`avgsat.formula`;
- for the counting DP at the depth the commands read: the shapes of
  sentences by tokens and leaves, Stirling numbers of the second kind,
  and the subtrees of each state by their truth values at a few points;
- a reference command-line parser, argparse built from the declarations
  of :mod:`avgsat.cli`, against which ``cli._read`` is checked.
"""

import argparse
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache, reduce

from avgsat import _kernel, cli, engines, formula, tables
from avgsat.analytic import shannon_lengths
from avgsat.commands import sampling


# --- negation ---------------------------------------------------------


def negated_keys(count: dict, table) -> dict:
    """The keys of :func:`avgsat.engines.negated` of the sentences of each
    key, with their counts: the same alpha, the complemented class, and a
    size that depends on f alone (a NOT adds two characters; a duplicated
    operand doubles them and adds three).  Negation maps keys one to one,
    so each keeps its count.  Raises NoNegation like ``negated``."""
    strategy = table.negation_strategy()
    if strategy is None:
        raise engines.NoNegation(f"{table!r} has no negation")
    dup = strategy[0] == "dup"
    return {(alpha, 2 * f + 24 if dup else f + 16, ((1 << (1 << alpha)) - 1) ^ mask): c
            for (alpha, f, mask), c in count.items()}


# --- censuses ---------------------------------------------------------


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


def all_up_to(k: int) -> _kernel.ConnectiveTable:
    """Every distinct truth function of each arity 1..k (k <= 3)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _kernel.ConnectiveTable(c for a in range(1, k + 1)
                                   for c in tables.all_of_arity(a).connectives)


# --- constants and the shortest-code model ----------------------------


ConstantComparison = namedtuple("ConstantComparison", "computed reference rel_gap")


def wilf_comparison() -> ConstantComparison:
    """m^m + 2*m^(m+1) at m = 3 (computed) against the backtrack-coloring
    constant 197 for 3 colors (reference), and their relative gap."""
    m = 3
    computed = m ** m + 2 * m ** (m + 1)
    reference = 197
    return ConstantComparison(computed, reference,
                              Fraction(abs(computed - reference), reference))


# one labelled inequality lhs <= rhs of a chain, ok if it holds
ChainStep = namedtuple("ChainStep", "label lhs rhs ok")

# The cubic bound on the shortest-code model: ``lhs`` is the expected
# T(x)/f(x)^3 over one uniformly weighted layer with tabulation cost
# T = 2^n * f; ``rhs`` is the layer mass 1.  ``chain`` reports each
# intermediate inequality of the coarse estimate, and ``single_top_lhs``
# is the sum with a single top-length slot, one short of 2^(2^n).
TabulatorBound = namedtuple("TabulatorBound", "n lhs rhs passed chain single_top_lhs")


def tabulator_class_bound(n: int) -> TabulatorBound:
    """The cubic bound on the shortest-code layer of n variables, in
    closed form."""
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


# --- the sampling walk ------------------------------------------------


def sentence_key(codes, length, arities, tts):
    """The key (alpha, size f, class mask) of a code sequence of
    ``length`` tokens, from :func:`avgsat.formula.eval_mask_compact`."""
    mask, alpha = formula.eval_mask_compact(codes, arities, tts)
    digits = sum(len(str(c)) for c in codes if c >= 0)
    return alpha, 8 * (2 * length - 1 + digits), mask


def sentence_at(n_vars, arities, length, u):
    """The codes of the ``u``-th valid sequence of ``length`` tokens in
    the order of :func:`avgsat.formula.enumerate_length`, one token at a
    time from the completion counts: a rank's sentence where the
    enumeration is too long to list."""
    cnt = _kernel.completion_counts(n_vars, arities, length)
    codes, depth = [], 0
    for rem in range(length - 1, -1, -1):
        tokens = [(v, depth + 1) for v in range(n_vars)]
        tokens += [(-j - 1, depth - a + 1) for j, a in enumerate(arities) if depth >= a]
        for code, after in tokens:
            if u < cnt[rem][after]:
                break
            u -= cnt[rem][after]
        else:
            raise IndexError("rank past the sequences of this length")
        codes.append(code)
        depth = after
    return tuple(codes)


def walk_against_eval(table, n_vars, max_tokens):
    """Every rank of every length up to max_tokens, unranked in one walk
    per length and one rank at a time, against the keys of the
    enumeration's sequences, evaluated by :mod:`avgsat.formula`."""
    arities, tts = table.arities, table.truth_bits
    runs = sampling.slot_runs(arities, tts)
    cnt = _kernel.completion_counts(n_vars, arities, max_tokens)
    for length in range(1, max_tokens + 1):
        sequences = [codes for codes, _ in formula.enumerate_length(n_vars, arities, length)]
        assert len(sequences) == cnt[length][0]
        if not sequences:  # a walk takes at least one rank
            continue
        expected = [sentence_key(codes, length, arities, tts) for codes in sequences]
        ranks = list(range(len(sequences)))
        assert sampling._unrank(ranks, length, n_vars, runs, cnt) == expected
        for u in ranks[::7]:
            assert sampling._unrank([u], length, n_vars, runs, cnt) == [expected[u]]


# --- the counting DP at depth -----------------------------------------


def shapes(arities, depth):
    """shapes[t][l]: the valid RPN sequences of t tokens with l variable
    tokens, each variable token one unlabelled leaf, by stack depth."""
    states = {(0, 0): 1}  # (stack depth, variable tokens) -> sequences
    out = [{}]
    for _ in range(depth):
        step = Counter()
        for (d, l), c in states.items():
            step[d + 1, l + 1] += c
            for a in arities:
                if d >= a:
                    step[d - a + 1, l] += c
        states = step
        out.append({l: c for (d, l), c in states.items() if d == 1})
    return out


def stirling2(l, n):
    """The ways to split l labelled leaves into n nonempty blocks."""
    row = [1] + [0] * n  # S(0, k)
    for _ in range(l):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)]
    return row[n]


def point_counts(table, n, points, depth):
    """counts[t][ki, ko]: the subtrees of state (t, ki, ko) (see
    SentenceCounts) by their truth values at the assignments ``points``,
    a list indexed by the value whose bit i is the truth value at
    ``points[i]``, from a DP that applies each connective's truth bits
    to argument values: no masks, superset sums, normal form or packed
    digits."""
    size = 1 << len(points)
    # variable v's value: its bit in each point
    leaf = [sum((p >> v & 1) << i for i, p in enumerate(points)) for v in range(n)]
    counts = [{}]  # no subtree has 0 tokens
    memo = {}

    def args(a, t, ki, ko):
        """Argument values -> the ways a subtrees, in order, of t tokens
        in all introduce ki..ko-1 and take those values."""
        key = (a, t, ki, ko)
        if key not in memo:
            out = Counter()
            if a == 0:
                out[()] = int((t, ki) == (0, ko))
            else:
                for t1 in range(1, t + 1):
                    for k1 in range(ki, ko + 1):
                        rest = args(a - 1, t - t1, k1, ko)
                        for v, c in enumerate(counts[t1].get((ki, k1), ())):
                            if c:
                                for vs, r in rest.items():
                                    out[v, *vs] += c * r
            memo[key] = out
        return memo[key]

    def applied(conn, vs):
        """The connective's value at argument values ``vs``: at each
        point, row r of its truth bits, the first argument r's top bit."""
        value = 0
        for i in range(len(points)):
            r = reduce(lambda r, v: r << 1 | v >> i & 1, vs, 0)
            value |= (conn.bits >> r & 1) << i
        return value

    values = {}  # (slot, argument values) -> the connective's value
    for t in range(1, depth + 1):
        states = {}
        for ki in range(n + 1):
            for ko in range(ki, n + 1):
                c = [0] * size
                if t == 1:  # p(ki) introduces a variable; p0..p(ki-1) reuse one
                    for v in [ki] if ko == ki + 1 else range(ki) if ko == ki else ():
                        c[leaf[v]] += 1
                for j, conn in enumerate(table.connectives):
                    for vs, k in args(conn.arity, t - 1, ki, ko).items():
                        if (j, vs) not in values:
                            values[j, vs] = applied(conn, vs)
                        c[values[j, vs]] += k
                if any(c):
                    states[ki, ko] = c
        counts.append(states)
    return counts


# --- the command line ---------------------------------------------------


class _Answer(Exception):
    """How the reference parser ended a line: ("help", the command or
    None) or ("refused", its message)."""


class _Parser(argparse.ArgumentParser):
    """argparse, answering help and refusals by raising, not exiting."""

    def error(self, message):
        raise _Answer("refused", message)

    def print_help(self, file=None):
        # the prog of a command's parser is "avgsat <command>"
        raise _Answer("help", self.prog.partition(" ")[2] or None)


def _checked(opt):
    """opt's type, refusing a value that breaks its declaration: NaN, or
    (in each entry of a list) past its least or greatest value."""
    def convert(raw):
        value = opt.type(raw)
        for v in value if isinstance(value, list) else [value]:
            if v != v or (opt.minimum is not None and v < opt.minimum
                          or opt.maximum is not None and v > opt.maximum):
                raise ValueError(f"{v} breaks the declaration")
        return value
    return convert


def _add_option(parser, opt, default) -> None:
    kind = (dict(action="store_true") if opt.type is bool
            else dict(type=_checked(opt), choices=opt.choices))
    parser.add_argument(opt.flag, default=default, help=opt.help, **kind)


@cache
def reference_parser():
    """The argparse parser of every command, from the declarations of
    :mod:`avgsat.cli`.  Command options default to None, so that an unset
    flag defers to the config file; globals are set only where given."""
    common = _Parser(add_help=False)
    for opt in cli.GLOBALS:
        _add_option(common, opt, argparse.SUPPRESS)
    parser = _Parser(prog="avgsat", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in cli.COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, parents=[common])
        for opt in cmd.options:
            _add_option(p, opt, None)
    return parser


def reference_answer(argv):
    """The reference parser's answer to argv: ("help", the command or
    None), ("refused", its message) or ("values", the parsed options)."""
    try:
        return "values", vars(reference_parser().parse_args(argv))
    except _Answer as answer:
        return answer.args
