"""The one comma-separated file format of polarot: '#'-prefixed key=value
metadata lines, a mandatory header row, then data rows of the header's
width. Blank lines are skipped; '#' lines may appear anywhere and those
without '=' are plain comments. Cells are strings; callers format them
and read numeric cells with row_floats."""

from __future__ import annotations

import math
import re

__all__ = ["read_csv", "read_labeled", "row_floats", "unsigned_zeros", "write_csv"]


def read_csv(path, header: str) -> tuple[dict[str, str], list[list[str]]]:
    """Read a file of the format above. The first non-comment line must
    equal `header` (spaces ignored) and every data row must have as many
    cells; returns the metadata and the stripped cells of each row."""
    metadata, rows = {}, []
    width = len(header.split(","))
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if not header_seen:
                if line.replace(" ", "") != header:
                    raise ValueError(f"{path}: bad header {line!r}, "
                                     f"expected {header!r}")
                header_seen = True
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if len(cells) != width:
                raise ValueError(f"{path}: row {line!r} has {len(cells)} "
                                 f"cells, expected {width}")
            rows.append(cells)
    if not header_seen:
        raise ValueError(f"{path}: no header row {header!r}")
    return metadata, rows


def row_floats(path, row: list[str], start: int) -> list[float]:
    """The cells row[start:] of a data row of `path` as floats; errors name file and row."""
    try:
        return [float(cell) for cell in row[start:]]
    except ValueError as exc:
        raise ValueError(f"{path}: row {','.join(row)!r}: {exc}") from None


def read_labeled(path, header: str, labels: tuple, noun: str, known: str):
    """Read a file of the format above whose rows each start with a label:
    the row's leading cells, comma-joined, name one of `labels` (letter case
    ignored), and its other cells are finite numbers. Each label occurs
    exactly once. Returns the metadata and the numbers of each label in the
    order of `labels`. Every error names the file: a row that names no
    `known`, a row that repeats its `noun`, a row with a non-finite value,
    and the missing `noun` rows."""
    width = labels[0].count(",") + 1
    index = {label.upper(): k for k, label in enumerate(labels)}
    metadata, rows = read_csv(path, header)
    values = [None] * len(labels)
    for row in rows:
        k = index.get(",".join(row[:width]).upper())
        if k is None:
            raise ValueError(f"{path}: row {','.join(row)!r} names no {known}")
        if values[k] is not None:
            raise ValueError(f"{path}: row {','.join(row)!r} repeats {noun} {labels[k]}")
        values[k] = row_floats(path, row, width)
        if not all(map(math.isfinite, values[k])):
            raise ValueError(f"{path}: row {','.join(row)!r} holds a non-finite value")
    missing = [label for label, v in zip(labels, values) if v is None]
    if missing:
        raise ValueError(f"{path} is missing {noun} rows: {missing}")
    return metadata, values


def unsigned_zeros(text: str) -> str:
    """text with each six-decimal negative zero, -0.000000, written
    0.000000: the sign of a value that rounds to zero is round-off, and it
    follows the BLAS kernel."""
    if "-0.000000" not in text:  # the common case costs one scan
        return text
    return re.sub(r"-0\.000000(?!\d)", "0.000000", text)


def write_csv(path, metadata_items, header: str, rows) -> None:
    """Write `# key=value` lines in the given order, the header, then one
    line per row of already formatted cells, all in one write."""
    lines = [f"# {key}={value}" for key, value in metadata_items]
    lines.append(header)
    lines.extend(",".join(cells) for cells in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

