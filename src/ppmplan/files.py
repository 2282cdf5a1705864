"""The file formats: every JSON and CSV file is written here. Standard library only."""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path


def fmt(value) -> str:
    """A CSV cell: "" for None, true/false, floats to 6 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def is_number(value, types=(int, float)) -> bool:
    """An instance of `types` that is not a bool (JSON true/false). Where
    floats are accepted, an int too large for one is not a number: JSON
    reads 1 followed by 400 zeros exactly, and it would overflow where it
    is used as a float."""
    if not isinstance(value, types) or isinstance(value, bool):
        return False
    return not issubclass(float, types) or isinstance(value, float) or abs(value) <= sys.float_info.max


def content_hash(payload: dict) -> str:
    """First 16 hex digits of the sha256 of `payload` as compact, key-sorted JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_json(path: str | Path, payload: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline; path "-" is stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def write_csv(path: str | Path, header, rows, config_hash: str | None = None) -> None:
    """UTF-8 CSV in the default dialect, after a "# config_hash=" line when a
    hash is given."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_object(path: str | Path) -> dict:
    """The JSON object in the file at `path`. Other JSON, text that is not
    JSON and bytes that are not UTF-8 are ValueErrors naming the file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def read_csv(path: str | Path, columns: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    """(line, row) pairs: each row keyed by the header, and the file line
    it ends on. "#" lines before the header and blank lines are skipped. A
    header without one of `columns`, the ones the caller reads, or with a
    column twice, a row with more or fewer cells than the header, and bytes
    that are not UTF-8 are ValueErrors naming the file (and the line)."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    skipped = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    reader = csv.reader(lines[skipped:])
    rows = []
    try:
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path} has no {', '.join(missing)} column")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise ValueError(f"{path} has the {', '.join(repeated)} column more than once")
        for cells in reader:
            if not cells:  # a blank line
                continue
            line = skipped + reader.line_num
            if len(cells) != len(header):
                raise ValueError(f"{path}: line {line} has {len(cells)} cells, "
                                 f"not the header's {len(header)}")
            rows.append((line, dict(zip(header, cells))))
    except csv.Error as exc:
        raise ValueError(f"{path}: line {skipped + reader.line_num}: {exc}") from None
    return rows


def int_cell(path, where: str, row: dict[str, str], column: str, rule: str, ok) -> int:
    """`row[column]` as an int passing `ok`; otherwise a ValueError naming the
    file, the row (`where`), the column and `rule`."""
    try:
        value = int(row[column])
    except ValueError:
        value = None
    if value is None or not ok(value):
        raise ValueError(f"{path}: {where} has {column} {row[column]!r}, not {rule}")
    return value
