"""What the command line needs only on some starts: the reader of a
--config file, and the full argparse parser, which answers help and
errors.  :mod:`avgsat.cli` imports this module only for those, so that
no other start compiles it."""

from __future__ import annotations

from .cli import COMMANDS, GLOBALS, Option, OptionError

# the config keys some command takes; any other key is an error
_KEYS = {o.name for o in GLOBALS} | {o.name for c in COMMANDS.values() for o in c.options}


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


def _add_option(parser, opt: Option, default) -> None:
    kind = (dict(action="store_true") if opt.type is bool
            else dict(type=opt.type, choices=opt.choices))
    parser.add_argument(opt.flag, default=default, help=opt.help, **kind)


def _build_parser():
    """The argparse parser of every command, which answers help and
    errors.  Command options default to None, so that an unset flag
    defers to the config file."""
    import argparse  # loaded only for help and errors, not for a config file
    common = argparse.ArgumentParser(add_help=False)
    for opt in GLOBALS:
        _add_option(common, opt, argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="avgsat", parents=[common],
        description="Average running time experiments over propositional sentence spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, parents=[common])
        for opt in cmd.options:
            _add_option(p, opt, None)
    return parser
