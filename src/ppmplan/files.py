"""The file formats: every JSON and CSV file is written here. Standard library only."""

from __future__ import annotations

import csv
import hashlib
import itertools
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
    """An instance of `types` that is not a bool (JSON true/false)."""
    return isinstance(value, types) and not isinstance(value, bool)


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


def read_csv(path: str | Path) -> list[dict[str, str]]:
    """Rows as dicts keyed by the header; "#" lines before the header are skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = itertools.dropwhile(lambda line: line.startswith("#"), fh)
        return list(csv.DictReader(lines))
