"""Paper-style output for the benchmark harness.

Each bench regenerates one figure or table of the paper; these helpers
print the same *rows/series* the paper plots (series = one line per index
or algorithm over a swept parameter; tables = labelled cells), and can
persist results as JSON for EXPERIMENTS.md bookkeeping.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from pathlib import Path


def format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.001 or abs(value) >= 1e6:
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def print_table(title: str, rows: Sequence[Mapping[str, object]]) -> None:
    """Render a list of dict rows as an aligned text table."""
    print(f"\n== {title} ==")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    rendered = [[format_value(row.get(col, "")) for col in columns]
                for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    print(header)
    print("-" * len(header))
    for row in rendered:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def print_series(title: str, x_label: str, x_values: Sequence[object],
                 series: Mapping[str, Sequence[object]]) -> None:
    """Render figure-style series: one row per x value, one column per line."""
    rows = []
    for i, x in enumerate(x_values):
        row: dict[str, object] = {x_label: x}
        for name, values in series.items():
            row[name] = values[i] if i < len(values) else ""
        rows.append(row)
    print_table(title, rows)


def save_results(path: str | Path, experiment: str, payload: object) -> None:
    """Append one experiment's results to a JSON results file."""
    path = Path(path)
    existing: dict = {}
    if path.exists():
        existing = json.loads(path.read_text())
    existing[experiment] = payload
    path.write_text(json.dumps(existing, indent=2, sort_keys=True))
