"""What the command line needs only on some starts, so that no other
start compiles it: the --config reader, the help text, and what
:func:`avgsat.cli._read` asks of a token that names no flag in full."""

from __future__ import annotations

import re

from .cli import COMMANDS, GLOBALS, Option, OptionError, _int_list

# the config keys some command takes (a config file cannot name another)
_KEYS = {o.name for c in COMMANDS.values() for o in (*GLOBALS, *c.options)} - {"config"}

# a negative number, which a separate value may be
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_config(path: str) -> dict[str, tuple[str, str]]:
    """key -> (value, "PATH:LINE" where it was set), for keys that some
    command declares."""
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except OSError as exc:
        raise OptionError(f"{path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise OptionError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise OptionError(f"{path}:{lineno}: {key} = {value}: no command takes it")
        cfg[key] = value, f"{path}:{lineno}"
    return cfg


def _named(token: str, flags: dict[str, Option]) -> list[str]:
    """The flags of ``flags``, -h and --help that a token may name: the
    one its part before '=' names, else each long flag that part of a
    ``--`` token begins, else -h for a token starting with it."""
    name, scope = token.partition("=")[0], [*flags, "-h", "--help"]
    if name in scope:
        return [name]
    if token[:2] == "--":
        return [flag for flag in scope if flag.startswith(name)]
    return ["-h"] if token[:2] == "-h" else []


def _flag(token: str, flags: dict[str, Option]) -> Option | None:
    """The option a token names, or None for help: -h, or --help or a
    prefix of it, with no value.  A bool flag takes no value either."""
    named = _named(token, flags)
    if len(named) != 1:
        raise OptionError(f"{token}: could be {', '.join(named)}" if named
                          else f"{token}: no such option")
    opt = flags.get(named[0])
    if "=" in token and (opt is None or opt.type is bool) or named[0] == "-h" and token != "-h":
        raise OptionError(f"{token}: {named[0]} takes no value")
    return opt


def _separate(opt: Option, value: str | None, flags: dict[str, Option]) -> None:
    """Refuse the token after opt's flag unless it is a value (see _read)."""
    if value is None or value != "-" and not _NEGATIVE.match(value) and (
            " " not in value or _named(value, flags)):
        raise OptionError(f"{opt.flag}: expected a value")


_METAVARS = {int: "INT", float: "FLOAT", str: "PATH", _int_list: "INT,..."}


def _help(command: str | None) -> int:
    """Print avgsat's help (None) or a command's: its flags, each with its
    value (its choices, if it has them), help and default; 0."""
    lines = [f"usage: avgsat [global options] {command or '<command>'} [options]", "",
             COMMANDS[command].help if command else "commands:",
             *(f"  {name:<21} {cmd.help}" for name, cmd in COMMANDS.items() if not command),
             "", "options:", f"  {'-h, --help':<21} show this help and exit"]
    for opt in (*COMMANDS[command].options, *GLOBALS) if command else GLOBALS:
        shown = "{" + ",".join(opt.choices) + "}" if opt.choices else _METAVARS.get(opt.type, "")
        default = ",".join(map(str, opt.default)) if isinstance(opt.default, tuple) else opt.default
        notes = [opt.help, default is not None and opt.type is not bool and f"default {default}"]
        lines.append(f"  {opt.flag + ' ' + shown:<21} {'; '.join(filter(None, notes))}".rstrip())
    print("\n".join(lines))
    return 0
