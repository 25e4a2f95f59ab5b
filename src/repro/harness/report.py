"""Paper-style reporting: aligned tables and experiment records.

Every benchmark prints the series of the figure/table it regenerates and
appends a machine-readable record under ``results/experiments/`` so
EXPERIMENTS.md can cite the exact numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

__all__ = ["Series", "format_table", "write_experiment_record"]


@dataclass
class Series:
    """One plotted line: a name plus (x, y) points."""

    name: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one (x, y) point."""
        self.x.append(float(x))
        self.y.append(float(y))

    def as_rows(self) -> list[tuple[float, float]]:
        """Points as (x, y) tuples (table-friendly)."""
        return list(zip(self.x, self.y))


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Fixed-width aligned table (what the benches print to stdout)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(x: object) -> str:
    if isinstance(x, float):
        if x == 0:
            return "0"
        if abs(x) >= 1e5 or abs(x) < 1e-3:
            return f"{x:.3e}"
        return f"{x:.4g}"
    return str(x)


def write_experiment_record(
    exp_id: str,
    *,
    description: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: str = "",
    results_dir: str | Path = "results/experiments",
) -> Path:
    """Persist a benchmark's regenerated series as JSON under
    ``results/experiments/``."""
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{exp_id}.json"
    payload = {
        "experiment": exp_id,
        "description": description,
        "headers": list(headers),
        "rows": [list(map(_json_safe, row)) for row in rows],
        "notes": notes,
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def _json_safe(x: object):
    if hasattr(x, "item"):
        return x.item()
    return x
