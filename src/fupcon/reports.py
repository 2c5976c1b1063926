"""Deterministic report rendering and the exit codes.

Reports are JSON with sorted keys and a schema version; identical inputs
must produce byte-identical reports, so nothing time- or environment-
dependent is ever placed in them.  All rationals are exact 'p/q' strings.

A report is a tree of dicts with `str` keys, lists and tuples, `str`,
`int`, `bool` and `None`; any other type, `float` included, raises
`TypeError`.  Its byte form is exactly
`json.dumps(report, sort_keys=True, indent=2) + "\\n"`, written here by a
recursive writer over that domain that quotes strings with json's C
encoder (json's own indented encoder runs in pure Python).  An int past
exact_arith.digit_limit() raises SizeGuardExceeded.
"""

from json.encoder import encode_basestring_ascii as _quote

from .exact_arith import SizeGuardExceeded, digit_limit

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_SIZE = 3
EXIT_IO = 4


def render_report(report: dict) -> str:
    """Canonical byte form: sorted keys, two-space indent, trailing newline."""
    out: list[str] = []
    try:
        _write(report, "\n", out)
    except ValueError as exc:  # an int past the interpreter's int-to-str digit limit
        raise SizeGuardExceeded("of a report integer", f"10^{digit_limit()}") from exc
    out.append("\n")
    return "".join(out)


# the text of each scalar type, by exact type: a bool is not written as an int
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of value to out; newline is "\\n" plus the
    current indent."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(value))
        return
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"{kind.__name__} is not a report value")
    if not value:
        out.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        for key in sorted(value):  # _quote raises TypeError on a non-str key
            item = value[key]
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(sep + _quote(key) + ": ")
                _write(item, inner, out)
            else:
                out.append(sep + _quote(key) + ": " + scalar(item))
            sep = "," + inner
        out.append(newline + "}")
    else:
        sep = "[" + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(sep)
                _write(item, inner, out)
            else:
                out.append(sep + scalar(item))
            sep = "," + inner
        out.append(newline + "]")
