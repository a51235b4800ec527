"""The bodies of the avgsat commands, grouped by the modules they load.

``avgsat.cli`` declares every command and imports only the module of
the one that runs:

* :mod:`.exact` -- the exact verdicts over sentence spaces (measure,
  engines, the counting DP; analytic for the Shannon model and moments);
* :mod:`.series` -- closed forms and trend scans (analytic or measure);
* :mod:`.sampling` -- seeded sampling (the kernel and engines; measure
  only for exact means).
"""

from .._formula_core import ConnectiveTable, FormulaError


def _load_table(opts) -> ConnectiveTable:
    """The --table file's connective table, or NOT/AND/OR."""
    path = opts.get("table")
    if not path:
        return ConnectiveTable.standard()
    try:
        return ConnectiveTable.from_file(path)
    except OSError as exc:
        raise FormulaError(f"table {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise FormulaError(f"table {path}: {exc}") from exc
