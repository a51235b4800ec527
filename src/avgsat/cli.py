"""Experiment runner.

Deterministic exact experiments, seeded Monte Carlo estimation,
and CSV report emission over the library's spaces and bounds.

Every command writes one UTF-8 CSV (header row included) to --out or
stdout, sorted deterministically; exact rationals are emitted as
num/den integer column pairs next to float renderings.  Reruns with
the same configuration and seed are byte-identical.

Exit status is 0 iff no emitted row carries status "fail".  Known
small-class deviations (the cubic tabulation bound on the shortest-
code model at n = 1, 2) are downgraded to "expected_fail" under
--audit, so audited runs distinguish "bound reproduced" from "bound
audited and found not to hold".  A refused input (see
:class:`~avgsat.errors.AvgsatError`) prints one line and exits 2.

This module declares every command and is the one reader of the
command line; a command's body lives in :mod:`avgsat.commands` and is
imported only when it runs.
"""

from __future__ import annotations

import importlib
import sys
from types import SimpleNamespace

from .errors import AvgsatError

PASS = "pass"
FAIL = "fail"
EXPECTED_FAIL = "expected_fail"
INFO = "info"


class OptionError(AvgsatError):
    """A command line or --config file that cannot be read (a bad flag,
    line, key or value), or an --out that cannot be written."""


def _frac(q) -> list[str]:
    """An int or Fraction as its numerator and denominator."""
    num, den = q.as_integer_ratio()
    # Exact values may have more digits than int-to-str converts by
    # default (a limit since Python 3.10.7; 0 means none); lift it here.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return [str(num), str(den)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _float(v) -> str:
    """A number as a float; one past the float range as inf or -inf."""
    try:
        return repr(float(v))
    except OverflowError:
        # by the rational's sign: math.copysign would convert it again
        return "inf" if v > 0 else "-inf"


def _int_list(raw: str) -> list[int]:
    """The comma-separated ints of raw, each once, in the order of their
    first entry: a repeated entry would repeat its rows and their work.
    A list with no entries is refused: it would check nothing and pass."""
    values = list(dict.fromkeys(int(part) for part in raw.split(",") if part != ""))
    if not values:
        raise ValueError("expected at least one integer")
    return values


class Option:
    """A command's option: its flag, type (int, float, str, _int_list or
    bool) and default; if set, the choices it must be one of, the least
    and greatest value of it (or of each entry of its list), and its help.
    Its name is its attribute name and config key."""

    __slots__ = ("flag", "type", "default", "choices", "minimum", "maximum", "help", "name")

    def __init__(self, flag: str, type, default=None, *,
                 choices: tuple | None = None, minimum: float | None = None,
                 maximum: float | None = None, help: str | None = None):
        self.flag, self.type, self.default, self.help = flag, type, default, help
        self.choices, self.minimum, self.maximum = choices, minimum, maximum
        self.name = flag[2:].replace("-", "_")


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _value(opt: Option, raw: str, where: str):
    """raw converted by opt's type (a bool by _BOOLEANS) and checked
    against its choices and bounds; a refusal names ``where``."""
    try:
        value = _BOOLEANS[raw.lower()] if opt.type is bool else opt.type(raw)
    except KeyError:
        raise OptionError(f"{where}: expected {', '.join(_BOOLEANS)}") from None
    except ValueError as exc:
        raise OptionError(f"{where}: {exc}") from exc
    if opt.choices is not None and value not in opt.choices:
        raise OptionError(f"{where}: choose from {', '.join(opt.choices)}")
    if value != value:  # NaN, which every comparison of a bound would pass
        raise OptionError(f"{where}: expected a number")
    values = value if isinstance(value, list) else [value]
    if opt.minimum is not None and min(values) < opt.minimum:
        raise OptionError(f"{where}: must be at least {opt.minimum}")
    if opt.maximum is not None and max(values) > opt.maximum:
        raise OptionError(f"{where}: must be at most {opt.maximum}")
    return value


class Options:
    """Option resolution against the running command's declaration: its
    flag (read and checked by :func:`_read`), then its config value,
    checked when it is read, then the declared default."""

    def __init__(self, args, cfg: dict[str, tuple[str, str]]):
        self.args, self.cfg = args, cfg
        self.declared = {o.name: o for o in (*GLOBALS, *COMMANDS[args.command].options)}

    def get(self, name: str, default=None):
        """The value of option ``name``.  ``default`` stands in for a
        declared default of None: one that depends on another option."""
        opt = self.declared[name]
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name not in self.cfg:
            return default if opt.default is None else opt.default
        raw, line = self.cfg[name]
        return _value(opt, raw, f"{line}: {name} = {raw}")


def _emit(out_path: str | None, header: list[str], rows: list[list[str]]) -> None:
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OptionError(f"out {out_path}: {exc.strerror}") from exc


def __getattr__(name):
    """The sentence sampler, ``_unrank`` and ``SequenceSampler``: it lives
    with the sampling commands and loads with them, and is named here
    too, where the benchmark's tracer finds it."""
    if name in ("_unrank", "SequenceSampler"):
        from .commands import sampling
        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Command:
    """A command: where its function is, as "module:function", its help
    line and its options."""

    __slots__ = ("target", "help", "options")

    def __init__(self, target: str, help: str, options: tuple[Option, ...]):
        self.target, self.help, self.options = target, help, options

    def load(self):
        """The command's function, importing its module (and no other
        command's)."""
        module, _, name = self.target.partition(":")
        return getattr(importlib.import_module(module), name)


# options that several commands declare alike
_TABLE = Option("--table", str)
_MAX_TOKENS = Option("--max-tokens", int)
_N_LIST = Option("--n-list", _int_list, (1, 2))
# the Shannon model's exact sums run over 2^n code lengths per class
_SHANNON_N_LIST = Option("--n-list", _int_list, minimum=1, maximum=13)

# the modules of the command bodies: each exact verdict its own, and the
# others by what they load
_COMMANDS = "avgsat.commands."
_SERIES = "avgsat.commands.series:"
_SAMPLING = "avgsat.commands.sampling:"

# every command: its function, its help line and its own options.  What
# each limit keeps a run to, with its timings, is in the README (CLI).
COMMANDS = {
    "expected-min": Command(_SERIES + "cmd_expected_min", "expected first-witness bound", (
        # the exact sums have denominators of 2^n bits: 65,536 at n = 16
        Option("--n", int, 1, minimum=0, maximum=16),
        Option("--upto", bool, False, help="emit every n from 0 to --n"))),
    "sat-oclass": Command(_COMMANDS + "sat_oclass:cmd_sat_oclass",
                          "linear bound for the satisfiability scanner", (
        Option("--n", int, 1), _MAX_TOKENS, _TABLE)),
    "tab-oclass": Command(_COMMANDS + "tab_oclass:cmd_tab_oclass",
                          "cubic bound for the tabulator", (
        Option("--n", int, 3, minimum=1, maximum=13),  # as _SHANNON_N_LIST
        _SHANNON_N_LIST,  # default [--n]
        Option("--model", str, "shannon", choices=("shannon", "enumerated")),
        Option("--max-tokens", int, 7), _TABLE)),
    "moments": Command(_COMMANDS + "moments:cmd_moments", "higher-moment sums and bounds", (
        # each m sums i^m / 2^i to a cutoff whose tail is below
        # 10^-tol_exp, at about the square of its bits
        Option("--m-list", _int_list, (2, 3), minimum=1, maximum=500), _N_LIST,
        Option("--tol-exp", int, 12, minimum=0, maximum=10 ** 4), _TABLE)),
    "counting": Command(_SERIES + "cmd_counting",
                        "sentence shape counts and cost-ratio series", (
        # commands.series.MAX_COUNTING_WORK bounds --n-max and --p
        # together; a negative --p divided by a float power that
        # underflowed to 0
        Option("--n-max", int, 10, minimum=0),
        Option("--p", int, 2, minimum=0),
        Option("--enum-limit", int, 3))),
    "tractability": Command(_SERIES + "cmd_tractability", "partial-average trend scans", (
        # the cases of commands.series._CASES, named here so no start loads them
        Option("--case", str, "harmonic", choices=("constant", "geometric", "harmonic")),
        Option("--budget", int, minimum=1),  # default and limit by --case
        # a negative --eps never lets the tail level
        Option("--eps", float, 1e-12, minimum=0.0), Option("--cap", float, 1e6))),
    "montecarlo": Command(_SAMPLING + "cmd_montecarlo",
                          "seeded sampling estimate of the average time", (
        # the completion table holds about L^2 integers of up to
        # L*log2(n + 3) bits, and a draw's masks are up to 2^n bits wide
        Option("--n", int, 2, maximum=20), Option("--max-tokens", int, 8, maximum=200),
        Option("--samples", int, 100000, minimum=1), Option("--exhaustive", bool, False),
        Option("--exact-check", bool, False), _TABLE)),
    "explore-min": Command(_SAMPLING + "cmd_explore_min",
                           "sampled expected first witness at fixed length", (
        # a draw's masks are 2^alpha bits wide, and alpha nears 2/3 of the
        # variable pool; commands.sampling holds the pool to 33 at every
        # arity, and --samples to its MAX_DRAW_STEPS
        Option("--target-tokens", int, 9, maximum=65),
        Option("--arity", int, 2, minimum=1, maximum=3),  # the tables all_of_arity builds
        Option("--samples", int, 10000, minimum=1))),
    "property-2-2": Command(_COMMANDS + "property_2_2:cmd_property_2_2",
                            "bound/reweighting equivalence check", (
        _N_LIST, _MAX_TOKENS, Option("--break-class", int),
        # the broken class's running times are multiplied by --inflate:
        # below 1 they are zero or negative
        Option("--inflate", int, 4, minimum=1),
        _TABLE)),
    "property-2-3": Command(_COMMANDS + "property_2_3:cmd_property_2_3",
                            "summable-weights tractability transfer", (
        Option("--model", str, "sat", choices=("sat", "shannon")),
        _SHANNON_N_LIST,  # default by --model
        # H(n) = n^-e has e * log2(n) bits, and the exact sums over the
        # classes cost about the square of their bits
        _MAX_TOKENS, Option("--h-exponent", int, 2, minimum=0, maximum=10 ** 4), _TABLE)),
    "markov-tail": Command(_COMMANDS + "markov_tail:cmd_markov_tail",
                           "tail frequency against the mean", (
        Option("--n", int, 2), Option("--multiplier", int, 100, minimum=1), _TABLE)),
}

# options of every command, given before or after its name
GLOBALS = (
    Option("--config", str, help="flat key = value option file"),
    Option("--out", str, help="CSV output path (default stdout)"),
    Option("--seed", int, 0, help="Monte Carlo seed"),
    Option("--audit", bool, False, help="report known deviations as expected_fail"),
)

# the flags read before a command's name, and those read after it
_GLOBAL_FLAGS = {o.flag: o for o in GLOBALS}
_FLAGS = {name: {**_GLOBAL_FLAGS, **{o.flag: o for o in cmd.options}}
          for name, cmd in COMMANDS.items()}


def _read(argv: list[str]) -> SimpleNamespace:
    """argv read from the declarations: the global flags, the command's
    name, then its own flags and the global ones, each named in full or
    by a unique prefix, as ``--flag value`` or ``--flag=value`` (a bool
    flag bare); the last of a repeated flag wins.  A separate value
    starting with '-' must be '-', a negative number or hold a space;
    ``--flag=--`` is the value ``--``.  :func:`_value` checks each value.
    The first help token (``-h``, or ``--help`` or a prefix of it) or
    refused token, in order, decides: help answers with ``help=True``
    and the command (None before it), and a refusal raises OptionError."""
    args = {}
    flags = _GLOBAL_FLAGS
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            if "command" in args or token not in COMMANDS:
                raise OptionError(f"{token!r}: not " + ("an option" if "command" in args
                                                        else "a command"))
            # a global given before the command keeps its value: no
            # command declares a global's name
            args.update(dict.fromkeys(o.name for o in COMMANDS[token].options), command=token)
            flags = _FLAGS[token]
            continue
        flag, eq, value = token.partition("=")
        opt = flags.get(flag)
        if opt is None or eq and opt.type is bool:
            from ._cli_rare import _flag  # loaded only for a prefix, help or a refusal
            opt = _flag(token, flags)
            if opt is None:
                return SimpleNamespace(help=True, command=args.get("command"))
        if opt.type is not bool and not eq:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and value != "-":
                from ._cli_rare import _separate  # loaded only for such a value
                _separate(opt, value, flags)
        args[opt.name] = True if opt.type is bool else _value(opt, value, f"{opt.flag} {value}")
    if "command" not in args:
        raise OptionError(f"expected a command: {', '.join(COMMANDS)}")
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _read(sys.argv[1:] if argv is None else argv)
        if getattr(args, "help", False):
            from ._cli_rare import _help  # loaded only for help
            return _help(args.command)
        config, cfg = getattr(args, "config", None), {}
        if config:
            from ._cli_rare import _read_config  # loaded only for a --config file
            cfg = _read_config(config)
        opts = Options(args, cfg)
        header, rows = COMMANDS[args.command].load()(opts)
        _emit(opts.get("out"), header, rows)
    except AvgsatError as exc:
        print(f"avgsat: {exc}".replace("\n", "\\n"), file=sys.stderr)  # one line
        return 2
    failed = [(i, row) for i, row in enumerate(rows, start=1) if row and row[-1] == FAIL]
    for i, row in failed:
        cells = ", ".join(f"{name}={cell}" for name, cell in zip(header, row[:3]))
        print(f"avgsat: fail: row {i} of {len(rows)}: {cells}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
