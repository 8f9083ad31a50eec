"""The one comma-separated file format of polarot: '#'-prefixed key=value
metadata lines, a mandatory header row, then data rows of the header's
width. Blank lines are skipped; '#' lines may appear anywhere and those
without '=' are plain comments. Cells are strings; callers format them
and read numeric cells with row_floats."""

from __future__ import annotations

import math
import re

__all__ = ["read_csv", "row_floats", "unsigned_zeros", "write_csv"]


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
    """row[start:] of a data row of `path` as finite floats; errors name file and row."""
    try:
        values = [float(cell) for cell in row[start:]]
    except ValueError as exc:
        raise ValueError(f"{path}: row {','.join(row)!r}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: row {','.join(row)!r} holds a non-finite value")
    return values


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

