"""No ``numpy`` draw is made on a node derived for that one draw.

``RngTree.child(...)`` costs a SHA-256 derivation; a ``numpy`` draw on the
child (``generator``, ``uniform``, ``integers``, ``exponential``) then
builds a ``Generator`` (~20 µs) that serves one decision and is dropped.
That shape, ``rng.child(...).uniform()``, is what ``RngTree.unit`` and
``RngTree.picks`` replace (``repro.util.rng``): a one-shot decision draws
through them, with its index as the stream.  A long-lived stream bound to
a name first (``jitter = rng.child("links")``, drawn from many times)
is what a ``Generator`` is for, and is not matched.

The check walks the parsed code under ``src/repro``; it keeps no list of
exceptions.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
NUMPY_DRAWS = frozenset({"generator", "uniform", "integers", "exponential"})


def one_shot_generators(source: str) -> list[int]:
    """Line numbers of ``<expr>.child(...).<numpy draw>`` in ``source``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in NUMPY_DRAWS
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "child"
    )


def test_the_check_matches_the_one_shot_shape_only():
    source = "\n".join([
        "a = rng.child('class', i).uniform(0, 1)",
        "b = rng.child('victim').generator.integers(0, 4)",
        "c = self.rng.child('times', i).exponential(1.0)",
        "links = rng.child('links')",
        "d = links.uniform()",
        "e = rng.child('phase').unit()",
        "f = rng.child('round', n).picks(32, 2)",
        "g = rng.uniform()",
    ])
    assert one_shot_generators(source) == [1, 2, 3]


def test_src_draws_no_numpy_value_from_a_node_derived_for_it():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in one_shot_generators(path.read_text())
    ]
    assert found == [], (
        "one Generator per decision; draw with .unit(stream) or "
        ".picks(m, k, stream) instead: " + ", ".join(found))
