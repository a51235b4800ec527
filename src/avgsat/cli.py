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

This module declares every command and parses its options; a command's
body lives in :mod:`avgsat.commands` and is imported only when it runs.
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
    """A --config file cannot be read or holds a bad line, key or value,
    an option's value is not one its command accepts, or --out cannot
    be written."""


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


class Options:
    """Option resolution against the running command's declaration: its
    flag, then its config value parsed with the declared type, then the
    declared default.  A config value is parsed when it is read."""

    def __init__(self, args, cfg: dict[str, tuple[str, str]]):
        self.args, self.cfg = args, cfg
        self.declared = {o.name: o for o in (*GLOBALS, *COMMANDS[args.command].options)}

    def get(self, name: str, default=None):
        """The value of option ``name``.  ``default`` stands in for a
        declared default of None: one that depends on another option."""
        opt = self.declared[name]
        value = getattr(self.args, name, None)
        if value is not None:
            shown = ",".join(map(str, value)) if isinstance(value, list) else value
            where = f"{opt.flag} {shown}"
        elif name not in self.cfg:
            return default if opt.default is None else opt.default
        else:
            raw, line = self.cfg[name]
            where = f"{line}: {name} = {raw}"
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


# --- entry point ------------------------------------------------------


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
# the Shannon model's exact sums run over 2^n code lengths per class:
# at n = 13 tab-oclass takes about 1 s and property-2-3 about 1.3 s, and
# n = 14 about 4.6 s (2 vCPU, Python 3.11)
_SHANNON_N_LIST = Option("--n-list", _int_list, minimum=1, maximum=13)

# the modules of the command bodies: each exact verdict its own, and the
# others by what they load
_COMMANDS = "avgsat.commands."
_SERIES = "avgsat.commands.series:"
_SAMPLING = "avgsat.commands.sampling:"

# every command: its function, its help line and its own options
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
        # each m sums i^m / 2^i to a cutoff past 4m whose tail is below
        # 10^-tol_exp, and the sum costs about the square of its bits.  On
        # 2 vCPUs (Python 3.11) at --n-list 1, --tol-exp 10^4 took 0.44 s,
        # 3 * 10^4 2.8 s and 4 * 10^4 5.8 s; --m-list 500 took
        # 0.25 s, 1000 0.96 s and 1500 2.3 s.  Together they cost more:
        # --m-list 500 --tol-exp 10^4 took 1.2 s (2.4 s with --n-list 1,2,3)
        # where --m-list 1000 --tol-exp 20000 took 10 s
        Option("--m-list", _int_list, (2, 3), minimum=1, maximum=500), _N_LIST,
        Option("--tol-exp", int, 12, minimum=0, maximum=10 ** 4), _TABLE)),
    "counting": Command(_SERIES + "cmd_counting",
                        "sentence shape counts and cost-ratio series", (
        # the partial sums' numerators and denominators grow as
        # N (N + 9.4 p) / 11 digits at row N, and writing them costs the
        # square of that: on 2 vCPUs (Python 3.11) --n-max 500 took 2.2 s
        # and 700 10.5 s; --p 10^4 took 1.0 s and 10^5 87 s at --n-max 10.
        # commands.series.MAX_COUNTING_WORK bounds them together, so
        # neither declares a maximum of its own: the longest runs it
        # accepts, such as --n-max 527 (2.8 s) or --n-max 2 --p 10^5
        # (0.9 s), take under 3 s.  --p is at least 0: a negative --p
        # divided by a float power that underflowed to 0
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
        # the completion table holds about L^2 integers of up to L*log2(n + 3)
        # bits; at --n 2 --samples 10 it took 0.09 s/18 MB at 100 tokens,
        # 0.13 s/18 MB at 200, 0.31 s/23 MB at 300 and 0.52 s/33 MB at 400.
        # A draw's masks are up to 2^n bits wide: at 200 tokens ten draws
        # took 0.49 s/18 MB at --n 16, 0.80 s/21 MB at 20, 1.23 s/34 MB at
        # 22 and 3.3 s/67 MB at 24
        Option("--n", int, 2, maximum=20), Option("--max-tokens", int, 8, maximum=200),
        Option("--samples", int, 100000, minimum=1), Option("--exhaustive", bool, False),
        Option("--exact-check", bool, False), _TABLE)),
    "explore-min": Command(_SAMPLING + "cmd_explore_min",
                           "sampled expected first witness at fixed length", (
        # a draw's masks are 2^alpha bits wide, and alpha nears 2/3 of the
        # variable pool: at 65 tokens (pool 33) ten draws took up to 0.5 s
        # and 96 MB over five seeds, and each 2 tokens more about doubled
        # both; commands.sampling holds the pool to 33 at every arity, and
        # --samples to its MAX_DRAW_STEPS
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
        # classes cost about the square of their bits.  On 2 vCPUs (Python
        # 3.11) the Shannon model at --n-list 3,...,13 took 1.4 s at e = 2
        # (the n = 13 sum), 1.6 s at 5,000, 2.4 s at 10^4, 4.2 s at
        # 2 * 10^4 and 69 s at 10^5; --n-list 1,2 took 8.6 s at 10^6
        _MAX_TOKENS, Option("--h-exponent", int, 2, minimum=0, maximum=10 ** 4), _TABLE)),
    "markov-tail": Command(_COMMANDS + "markov_tail:cmd_markov_tail",
                           "tail frequency against the mean", (
        Option("--n", int, 2), Option("--multiplier", int, 100, minimum=1), _TABLE)),
}

# options of every command, given before or after its name
GLOBALS = (
    Option("--config", str, help="flat key = value option file"),
    Option("--out", str, help="CSV output path (default stdout)"),
    Option("--seed", int, 0, help="Monte Carlo seed (default 0)"),
    Option("--audit", bool, False, help="report known deviations as expected_fail"),
)

# the flags read before a command's name, and those read after it
_GLOBAL_FLAGS = {o.flag: o for o in GLOBALS}
_FLAGS = {name: {**_GLOBAL_FLAGS, **{o.flag: o for o in cmd.options}}
          for name, cmd in COMMANDS.items()}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """argv read from the declarations, if it is well formed: the global
    flags, the command's name, then its own flags and the global ones,
    each as ``--flag value`` or ``--flag=value`` (a bool flag bare), the
    last of a repeated flag winning.  None for anything else: help,
    ``--``, an abbreviated or unknown flag, a separate value that starts
    with '-', a missing value or command, an extra positional, or a
    value its type or choices refuse."""
    args = {}
    flags = _GLOBAL_FLAGS
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            if "command" in args or token not in COMMANDS:
                return None
            # a global given before the command keeps its value: no
            # command declares a global's name
            args.update(dict.fromkeys(o.name for o in COMMANDS[token].options), command=token)
            flags = _FLAGS[token]
            continue
        flag, eq, value = token.partition("=")
        opt = flags.get(flag)
        if opt is None:
            return None
        if opt.type is bool:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "-")  # a missing value defers, as "-x" does
                if value[:1] == "-":
                    return None
            try:
                value = opt.type(value)
            except (TypeError, ValueError):
                return None
            if opt.choices is not None and value not in opt.choices:
                return None
        args[opt.name] = value
    return SimpleNamespace(**args) if "command" in args else None


def _parse(argv: list[str]):
    """The full parser's parse of argv, which argparse makes only when
    ``_read`` cannot: for help and errors it answers with argparse's text
    and exit code."""
    args = _read(argv)
    if args is None:
        from ._cli_rare import _build_parser  # loaded only for help and errors
        args = _build_parser().parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        config, cfg = getattr(args, "config", None), {}
        if config:
            from ._cli_rare import _read_config  # loaded only for a --config file
            cfg = _read_config(config)
        opts = Options(args, cfg)
        header, rows = COMMANDS[args.command].load()(opts)
        _emit(opts.get("out"), header, rows)
    except AvgsatError as exc:
        print(f"avgsat: {exc}", file=sys.stderr)
        return 2
    failed = [(i, row) for i, row in enumerate(rows, start=1) if row and row[-1] == FAIL]
    for i, row in failed:
        cells = ", ".join(f"{name}={cell}" for name, cell in zip(header, row[:3]))
        print(f"avgsat: fail: row {i} of {len(rows)}: {cells}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
