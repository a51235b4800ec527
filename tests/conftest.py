import pytest
from hypothesis import settings

from avgsat import measure, tables
from avgsat.formula import ConnectiveTable, enumerate_formulas

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def std():
    return ConnectiveTable.standard()


@pytest.fixture(scope="session")
def all_binary():
    return tables.all_binary()


@pytest.fixture(scope="session")
def space1(std):
    return measure.covering_space(std, 1)


@pytest.fixture(scope="session")
def space2(std):
    return measure.covering_space(std, 2)


@pytest.fixture(scope="session")
def sentence_space():
    """A space of the given sentences, one item each: its key (alpha, f,
    class mask), which the costs read as ``item[:3]``, then its codes,
    which tell apart the sentences of one key."""
    return lambda formulas: measure.InputSpace(
        dict.fromkeys(((*x.key(), x.codes) for x in formulas), 1))


@pytest.fixture(scope="session")
def expanded1(std, sentence_space):
    """space1 with one item per sentence (covering depth 4)."""
    return sentence_space(enumerate_formulas(std, 1, max_tokens=4, alpha=1))
