"""No public definition under ``src/repro`` is reachable from tests alone.

Lists every public top-level ``def``/``class`` and every public method of a
top-level class, then looks for its name, as a whole word, in every file
under ``src/``, ``benchmarks/``, ``ledger/``, ``examples/`` and
``scripts/``.  Two kinds of occurrence do not count: the definition's own
``def``/``class`` line, and a package ``__init__`` re-export (an ``import``
statement or an ``__all__`` entry of an ``__init__.py``).  A name with no
other occurrence is code only a test reaches; the list must stay empty.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "ledger", "examples", "scripts")


def public_definitions():
    """``[(name, "file:line")]`` for each public def, class and method."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(ROOT)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [m for m in node.body if isinstance(m, ast.FunctionDef)]
            found += [(m.name, f"{where}:{m.lineno}") for m in members
                      if not m.name.startswith("_")]
    return found


def reexport_lines(path, text):
    """Line numbers of an ``__init__.py``'s imports and ``__all__``."""
    if path.name != "__init__.py":
        return set()
    lines = set()
    for node in ast.parse(text).body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        if is_all or isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def word_sites():
    """``{word: {"file:line", ...}}`` over the searched trees, minus the
    re-export lines of package ``__init__`` files."""
    sites = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                text = path.read_text()
            except UnicodeDecodeError:
                continue
            skip = reexport_lines(path, text) if path.suffix == ".py" else set()
            where = path.relative_to(ROOT)
            for lineno, line in enumerate(text.splitlines(), 1):
                if lineno in skip:
                    continue
                for word in set(re.findall(r"\w+", line)):
                    sites.setdefault(word, set()).add(f"{where}:{lineno}")
    return sites


def test_every_public_definition_is_reached_outside_tests():
    sites = word_sites()
    unreached = sorted(
        f"{site} {name}" for name, site in public_definitions()
        if not sites.get(name, set()) - {site}
    )
    assert unreached == [], "\n".join(unreached)
