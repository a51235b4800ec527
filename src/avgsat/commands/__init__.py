"""The bodies of the avgsat commands, grouped by the modules they load.

``avgsat.cli`` declares every command and imports only the module of
the one that runs:

* one module per exact verdict, named as its command, with the checks
  that it alone runs (measure, engines, the counting DP; analytic for
  the Shannon model; :mod:`.moments` holds the moment sums);
* :mod:`.series` -- closed forms and trend scans (analytic or trend);
* :mod:`.sampling` -- seeded sampling (the kernel and engines; the
  counting DP only for exact means).

This module holds what several share: the --table file's connective
table and the rows of a bound report.
"""

from __future__ import annotations

from ..cli import FAIL, PASS, _float, _frac

# the columns of a bound report's rows, after any label columns
BOUND_HEADER = ["n", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "lhs_float", "rhs_float",
                "pass"]


def comparison(lhs, rhs) -> list[str]:
    """The cells of an exact comparison: lhs and rhs as numerator and
    denominator, then each as a float."""
    return [*_frac(lhs), *_frac(rhs), _float(lhs), _float(rhs)]


def bound_rows(report: dict, status=lambda r: PASS if r.passed else FAIL):
    """The rows of a report of :func:`~avgsat.measure.member_rows`: the
    class, the comparison of lhs with rhs, and ``status`` of the row."""
    return [[str(r.n), *comparison(r.lhs, r.rhs), status(r)] for r in report.values()]


def _load_table(opts):
    """The --table file's connective table (a
    :class:`~avgsat._kernel.ConnectiveTable`), or NOT/AND/OR."""
    # loaded here, so that a command that reads no table loads no kernel
    from .._kernel import ConnectiveTable
    from ..errors import FormulaError
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
