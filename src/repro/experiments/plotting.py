"""Dependency-free ASCII charts for experiment series.

`ascii_chart` renders one or more (x, y) series on a character grid with
per-series markers and a legend — enough to eyeball Figure 7's shape in a
terminal or a CI log without any plotting stack.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["ascii_chart", "figure7_chart"]

MARKERS = "ox*+#@%&"


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render labelled point series on a ``width × height`` grid.

    Points are mapped linearly into the plot area; collisions show the
    later-drawn series' marker.  Returns a multi-line string.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data to chart)"
    if width < 10 or height < 4:
        raise ValueError("chart too small")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    y_lo = min(y_lo, 0.0) if y_lo > 0 else y_lo  # anchor at zero when natural
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, pts) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_hi:.3g}"
    bottom_label = f"{y_lo:.3g}"
    gutter = max(len(top_label), len(bottom_label), len(y_label)) + 1
    for i, row in enumerate(grid):
        if i == 0:
            prefix = top_label.rjust(gutter)
        elif i == height - 1:
            prefix = bottom_label.rjust(gutter)
        elif i == height // 2:
            prefix = y_label.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix}|{''.join(row)}|")
    lines.append(
        " " * gutter + f"+{'-' * width}+"
    )
    x_axis = f"{x_lo:.3g}".ljust(width // 2) + x_label.center(0) + f"{x_hi:.3g}".rjust(width // 2)
    lines.append(" " * (gutter + 1) + x_axis)
    legend = "  ".join(
        f"{MARKERS[i % len(MARKERS)]}={label}"
        for i, label in enumerate(series)
    )
    lines.append(" " * (gutter + 1) + legend)
    return "\n".join(lines)


def figure7_chart(result) -> str:
    """Figure 7 as the paper draws it: time vs problem size, one series
    per disconnection count."""
    series = {}
    for d in result.disconnections:
        pts = [
            (n * n, result.times[(n, d)])
            for n in result.ns
            if (n, d) in result.times
        ]
        if pts:
            series[f"{d} disc"] = pts
    return ascii_chart(
        series,
        width=60,
        height=16,
        title="Execution time vs problem size (cf. paper Fig. 7)",
        x_label="size",
        y_label="time",
    )
