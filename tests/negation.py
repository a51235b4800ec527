"""The negated key space: the reference that the ``co`` row of
``sat-oclass``, its ``sat`` row written again, is checked against."""

from avgsat import engines


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
