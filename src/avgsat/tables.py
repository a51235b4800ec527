"""Connective tables from text, and the families of every truth
function of an arity.

A table file holds ``symbol arity truth-bits`` lines; see
:func:`from_text`.  This module loads only where a table file is read
or a family is built: the default table,
:meth:`~avgsat._kernel.ConnectiveTable.standard`, needs neither.
"""

from __future__ import annotations

from ._kernel import Connective, ConnectiveTable

# Binary connectives indexed by truth-table number 0..15 (the 4 truth
# bits read most-significant-first over argument tuples 00,01,10,11).
_BINARY_SYMBOLS = [
    "⊥", "∧", "↛", "◁", "↚", "▷", "⊕", "∨",
    "⊽", "↔", "▶", "←", "◀", "→", "⊼", "⊤",
]
_UNARY_SYMBOLS = ["Ⓕ", "ι", "¬", "Ⓣ"]


# --- families ---------------------------------------------------------


def all_of_arity(arity: int) -> ConnectiveTable:
    """All 2^(2^arity) distinct truth functions of one arity (arity <= 3)."""
    if arity == 1:
        symbols = _UNARY_SYMBOLS
    elif arity == 2:
        symbols = _BINARY_SYMBOLS
    elif arity == 3:
        symbols = [chr(0x2800 + t) for t in range(256)]
    else:
        raise ValueError("single-character symbol pool covers arities 1 to 3 only")
    out = []
    width = 1 << arity
    for t in range(1 << width):
        # t is the truth-table number; unpack to per-tuple bits
        bits = 0
        for r in range(width):
            if (t >> (width - 1 - r)) & 1:
                bits |= 1 << r
        out.append(Connective(arity, bits, symbols[t]))
    return ConnectiveTable(out)


# --- plain-text table format ------------------------------------------


def _bits_from_string(s: str) -> int:
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"bad truth-bit string {s!r}")
    bits = 0
    for r, c in enumerate(s):
        if c == "1":
            bits |= 1 << r
    return bits


def truth_string(conn: Connective) -> str:
    """The connective's 2^arity truth bits as a 0/1 string, tuple 0 first."""
    return "".join(str((conn.bits >> r) & 1) for r in range(1 << conn.arity))


def from_text(text: str) -> ConnectiveTable:
    """Parse ``symbol arity truth-bits`` lines (# comments allowed).

    Truth bits are 2^arity characters of 0/1; character r is the
    output for the argument tuple read as the binary number r with
    the first argument as the most significant bit.
    """
    conns = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'symbol arity truth-bits'")
        symbol, arity_s, tt = parts
        try:
            arity = int(arity_s)
        except ValueError:  # not an integer, or past int's digit limit
            arity = -1
        if arity < 0:
            raise ValueError(f"line {lineno}: arity must be a non-negative integer")
        # compared with the string's length before any shift, so the
        # file's arity does not size an integer
        if arity >= len(tt).bit_length():
            raise ValueError(f"line {lineno}: arity {arity} needs more than "
                             f"{len(tt)} truth bits")
        if len(tt) != (1 << arity):
            raise ValueError(f"line {lineno}: need {1 << arity} truth bits")
        try:
            bits = _bits_from_string(tt)
        except ValueError:
            raise ValueError(f"line {lineno}: truth bits must be 0/1") from None
        conns.append(Connective(arity, bits, symbol))
    return ConnectiveTable(conns)


def from_file(path) -> ConnectiveTable:
    with open(path, encoding="utf-8") as fh:
        return from_text(fh.read())


def to_text(table: ConnectiveTable) -> str:
    lines = [f"{c.symbol} {c.arity} {truth_string(c)}" for c in table.connectives]
    return "\n".join(lines) + "\n"
