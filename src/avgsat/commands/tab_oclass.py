"""tab-oclass: the cubic bound of the tabulator, in each class of the
shortest-code model or of a counted space's minimal-length layers,
checked exactly."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import permutations
from operator import itemgetter

from .. import engines, measure
from ..cli import EXPECTED_FAIL, FAIL, PASS, Options
from ..errors import ZeroMassSubset
from . import BOUND_HEADER, _load_table, bound_rows

# (model, n) pairs whose bound is known not to hold; --audit reports
# them as expected_fail instead of fail.
KNOWN_DEVIATIONS = {("shannon", 1), ("shannon", 2)}


def layer_blocks(space: measure.InputSpace, n: int) -> measure.InputSpace:
    """The alpha = n sentences of a key space of one or more classes as
    blocks (n, f, model set over p0..p(n-1)), each counting every
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
    return measure.InputSpace(count)


def uniform_within_min_layers(space: measure.InputSpace, n: int) -> dict:
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
    prefix = [Fraction(0)]
    for j, groups in enumerate(g):
        prefix.append(prefix[j] + Fraction(cuts[j + 1] - cuts[j], groups))

    def upto(t: int) -> Fraction:
        j = bisect_right(cuts, t) - 1
        return prefix[j] if t == cuts[j] else prefix[j] + Fraction(t - cuts[j], g[j])

    layers = cuts[-1]
    return {x: (upto(b) - upto(a)) / layers for x, (a, b) in spans.items()}


def cmd_tab_oclass(opts: Options):
    audit = opts.get("audit")
    model = opts.get("model")
    ns = opts.get("n_list", [opts.get("n")])
    if model == "shannon":
        from .. import analytic  # loaded only by the commands that use it
    else:
        counted = measure.space(_load_table(opts), ns, opts.get("max_tokens"))
    rows = []
    for n in sorted(ns):
        if model == "shannon":
            space, mu = analytic.shannon_space([n])
        else:
            space = layer_blocks(counted, n)
            mu = uniform_within_min_layers(space, n)
        known = audit and (model, n) in KNOWN_DEVIATIONS
        report = measure.oclass_member(space, engines.tabulate, lambda k: k ** 3, mu)
        rows.extend(bound_rows(report, lambda r: PASS if r.passed
                               else EXPECTED_FAIL if known else FAIL))
    return BOUND_HEADER, rows
