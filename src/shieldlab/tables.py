"""Tabular results and their CSV / JSON-sidecar serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ShieldlabError


@dataclass
class ResultTable:
    """Rectangular table of plot-ready values plus reproducibility metadata.

    ``metadata`` must make the table reproducible bit-identically: it
    carries the config hash, the seed and the library version, and nothing
    time- or host-dependent.
    """

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ShieldlabError(
                f"row has {len(values)} values for {len(self.columns)} columns")
        self.rows.append(tuple(values))


def format_cell(value) -> str:
    """Render one cell: floats at 17 significant digits, '.' decimal point."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit(table: ResultTable, path) -> Path:
    """Write ``table`` as UTF-8 CSV plus a ``.meta.json`` sidecar.

    The byte stream is fully determined by the table contents ('\\n' line
    ends, fixed float formatting), so identical tables emit identical files.
    Returns the CSV path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(table.columns)]
    lines.extend(",".join(format_cell(v) for v in row) for row in table.rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(
        json.dumps(table.metadata, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return path
