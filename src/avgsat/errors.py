"""The base of every error the command line reports on one line.

It lives apart from the modules that raise it, so that ``avgsat.cli``
can catch all of them without loading those modules.
"""


class AvgsatError(Exception):
    """An input avgsat refuses: a bad option, config file, table file
    or output path, a space it cannot build, or a request it cannot
    sample.  The command line prints it and exits with status 2."""
