"""EXPERIMENTS.md quotes the tables the benchmarks record under
``benchmarks/results/``: a quoted table that differs from its recorded
source is stale."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quoted_block(doc: str, heading: str) -> list[str]:
    """Lines of the first fenced block in the section under ``heading``."""
    section = doc.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
    return section.split("```\n", 2)[1].split("\n```", 1)[0].splitlines()


def recorded_table(text: str) -> list[str]:
    """The header, rule and rows of the first table in a results file."""
    lines = text.splitlines() + [""]
    start = next(i for i, line in enumerate(lines)
                 if line.lstrip().startswith("n |"))
    return lines[start:lines.index("", start)]


def test_figure7_table_matches_the_recorded_results():
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    recorded = (ROOT / "benchmarks" / "results" / "figure7.txt").read_text()
    assert quoted_block(doc, "Figure 7") == recorded_table(recorded)


def test_iterations_table_matches_the_recorded_results():
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    recorded = (ROOT / "benchmarks" / "results" / "iterations_vs_n.txt").read_text()
    assert quoted_block(doc, "Claim C1") == recorded_table(recorded)
