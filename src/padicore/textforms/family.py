"""The forms of the summation laboratory: families, grids, partitions
into blocks, and the exponent of an l^r norm."""

import json

from ..errors import ParseError
from ..sumlab import FiniteFamily
from . import _fraction, _items, _json


def _labels(data, what):
    """Index labels: the items of data, none an array or an object."""
    labels = _items(data, what)
    if any(isinstance(label, (list, dict)) for label in labels):
        raise ParseError(f"bad {what}: a label is an array or an object")
    return labels


def parse_family(text):
    """A FiniteFamily from JSON.

    Rational: {"mode": "rational", "labels": [...], "values": ["1", "-1/2"]}.
    P-adic:   {"mode": "padic", "labels": [...], "values": [<padic json>...]}.
    Labels default to 0..n-1.
    """
    return family_from_json(_json(text))


def family_from_json(data):
    try:
        mode = data["mode"]
        raw_values = _items(data["values"], "family JSON")
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad family JSON: {e}") from None
    if mode not in ("rational", "padic"):
        raise ParseError(f"unknown family mode {mode!r}")
    values = _values(mode, raw_values)
    if "labels" in data:
        labels = _labels(data["labels"], "family JSON")
    else:
        labels = range(len(values))
    return FiniteFamily(labels, values)


def _values(mode, raw_values):
    """Rationals in mode "rational"; p-adic JSON in any other mode, whose
    reader alone loads the p-adic core."""
    if mode != "rational":
        from .padic import padic_from_json

        return [padic_from_json(v) for v in raw_values]
    return [_fraction(str(v), "rational value") for v in raw_values]


def parse_grid(text):
    """The rows of a grid: {"mode": "rational", "rows": [["1", "2"], ...]}.

    Values are read as in a family, except that every mode other than
    "rational" reads p-adic JSON.
    """
    data = _json(text, "grid JSON")
    try:
        mode = data["mode"]
        rows = data["rows"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad grid JSON: {e}") from None
    return [_values(mode, _items(row, "grid JSON")) for row in _items(rows, "grid JSON")]


def parse_blocks(text):
    """A partition of a family's labels: an array of arrays of labels."""
    blocks = _items(_json(text, "blocks JSON"), "blocks JSON")
    return [_labels(block, "blocks JSON") for block in blocks]


# The largest finite r of an l^r norm.  The norm sums |v|**r exactly, and
# |v|**r has r times the digits of |v|: at this limit a value of 16
# digits still gives an answer that prints.
MAX_NORM_EXPONENT = 256


def parse_norm_exponent(text):
    """The r of an l^r norm: "inf" or an integer up to MAX_NORM_EXPONENT.

    The norm itself checks r >= 1.
    """
    if text == "inf":
        return "inf"
    try:
        r = int(text)
    except ValueError:
        raise ParseError(f"r must be an integer or 'inf', got {text!r}") from None
    if r > MAX_NORM_EXPONENT:
        raise ParseError(f"r {r} exceeds the limit of {MAX_NORM_EXPONENT}")
    return r


def family_to_json(fam):
    if fam.mode == "rational":
        values = [str(v) for v in fam.values]
    else:
        values = [v.to_json_dict() for v in fam.values]
    return json.dumps(
        {"labels": list(fam.labels), "mode": fam.mode, "values": values},
        sort_keys=True,
    )
