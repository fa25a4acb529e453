"""Deterministic JSON and CSV emission with 17-significant-digit floats.

The stdlib json module always formats floats with repr; the file
formats here pin 17 significant digits so output is byte-stable across
platforms and every value round-trips exactly.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote


def fmt17(x: float) -> str:
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError("non-finite number in serialized output")
        return format(x, ".17g")
    return str(x)


def dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, keys in order."""
    pad = " " * indent
    out = [pad]
    _emit(obj, pad, out)
    return "".join(out)


def _emit(obj, pad: str, out: list) -> None:
    """Append the JSON text of obj to out, its inner lines indented by
    pad plus two spaces.  Strings, keys included, go through the
    encoder json.dumps uses for them, true, false and null are written
    as literals, so the text is what json.dumps would give piece by
    piece, without a call per piece."""
    if isinstance(obj, float):
        out.append(fmt17(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for k, v in obj.items():
            out += (sep, inner, _quote(str(k)), ": ")
            _emit(v, inner, out)
            sep = ",\n"
        out += ("\n", pad, "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n"
        for v in obj:
            out += (sep, inner)
            _emit(v, inner, out)
            sep = ",\n"
        out += ("\n", pad, "]")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_line(values) -> str:
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(fmt17(v))
        else:
            out.append(str(v))
    return ",".join(out)
