"""Deterministic report serialization.

Floats are printed with 17 significant digits, which round-trips every
IEEE double exactly; dict insertion order is preserved, so two runs with
the same configuration emit byte-identical files.
"""

import csv

import numpy as np

INDENT = 2  # spaces per JSON nesting level


def format_float(x):
    if isinstance(x, float) and (np.isnan(x) or np.isinf(x)):
        return '"nan"' if np.isnan(x) else ('"inf"' if x > 0 else '"-inf"')
    return f"{x:.17g}"


def _json_value(obj, parts, level):
    pad = " " * (INDENT * level)
    pad_in = " " * (INDENT * (level + 1))
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'"{escaped}"')
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(f'{pad_in}"{k}": ')
            _json_value(v, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, v in enumerate(seq):
            parts.append(pad_in)
            _json_value(v, parts, level + 1)
            parts.append(",\n" if i + 1 < len(seq) else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj):
    parts = []
    _json_value(obj, parts, 0)
    return "".join(parts) + "\n"


def emit_report(report, path, fmt="json"):
    """Write a report dict as JSON or as a flattened CSV table."""
    if fmt == "csv":
        write_csv(path, ("key", "value"), _flatten(report))
    elif fmt == "json":
        with open(path, "w", newline="\n") as fh:
            fh.write(dumps_json(report))
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        for i, v in enumerate(seq):
            yield from _flatten(v, f"{prefix}{i}.")
    elif obj is None:
        yield prefix[:-1], ""
    elif isinstance(obj, bool):
        yield prefix[:-1], "true" if obj else "false"
    else:
        yield prefix[:-1], obj


def _csv_cell(x):
    # nan and inf unquoted: the writer quotes the cells that need it
    return format_float(x).strip('"') if isinstance(x, (float, np.floating)) else str(x)


def write_csv(path, header, rows):
    """Rows as CSV; a cell holding a comma, quote or newline is quoted."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        out.writerow(header)
        out.writerows([_csv_cell(x) for x in row] for row in rows)
