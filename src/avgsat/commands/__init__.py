"""The bodies of the avgsat commands, grouped by the modules they load.

``avgsat.cli`` declares every command and imports only the module of
the one that runs:

* :mod:`.exact` -- the exact verdicts over sentence spaces (measure,
  engines, the counting DP; analytic for the Shannon model, and the
  moment sums of :mod:`avgsat.moments` for moments);
* :mod:`.series` -- closed forms and trend scans (analytic or trend);
* :mod:`.sampling` -- seeded sampling (the kernel and engines; the
  counting DP only for exact means).
"""


def _load_table(opts):
    """The --table file's connective table (a
    :class:`~avgsat._formula_core.ConnectiveTable`), or NOT/AND/OR."""
    # loaded here, so that a command that reads no table loads no core
    from .._formula_core import ConnectiveTable, FormulaError
    path = opts.get("table")
    if not path:
        return ConnectiveTable.standard()
    from ..tables import from_file  # the text format, only for a table file
    try:
        return from_file(path)
    except OSError as exc:
        raise FormulaError(f"table {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise FormulaError(f"table {path}: {exc}") from exc
