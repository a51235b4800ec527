"""The base of every error the command line reports on one line, and the
errors of spaces, distributions, checks and trend scans.

They live apart from the modules that raise them, so that ``avgsat.cli``
can catch all of them without loading those modules, and a trend scan
can raise them without loading :mod:`avgsat.measure`.
"""


class AvgsatError(Exception):
    """An input avgsat refuses: a bad option, config file, table file
    or output path, a space it cannot build, or a request it cannot
    sample.  The command line prints it and exits with status 2."""


class MeasureError(AvgsatError):
    """A space, distribution or check that cannot be built or run."""


class ZeroMassSubset(MeasureError):
    """Conditioning on a subset of probability zero."""


class ZeroMass(MeasureError):
    """A reweighting produced an everywhere-zero distribution."""


class ClassUncovered(MeasureError):
    """A sentence space is missing some model classes."""


class PreconditionFailed(MeasureError):
    """A check's stated precondition does not hold on this space."""
