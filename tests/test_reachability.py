"""Everything under ``src/repro`` is reached from outside the tests, and
every import is used.

Three checks, all over parsed code rather than text:

* **Reachability by reference.**  Lists every public top-level
  ``def``/``class`` and every public method of a top-level class, then
  collects the names that code under ``src/``, ``benchmarks/``,
  ``ledger/``, ``examples/`` and ``scripts/`` refers to: an
  ``ast.Name``, an ``ast.Attribute``, or a string constant that is not a
  docstring (RMI method names travel as strings).  An identifier inside
  a code span of ``docs/api.md`` counts too: documented API is
  functionality.  A definition's own ``def``/``class``, ``__all__``
  entries and import statements (so ``__init__`` re-exports) refer to
  nothing.  A definition nobody refers to is code only a test reaches;
  the list must stay empty.
* **Imports resolve.**  Every ``from repro... import name``, at module
  level or inside a function, in ``src/``, ``tests/``, ``benchmarks/``,
  ``examples/``, ``ledger/`` and ``scripts/`` names a module or an
  attribute that exists, so a deletion cannot leave an import dangling
  on a path no test runs.
* **Imports are used.**  Every name an ``import`` binds, in the same six
  trees, is referred to in its own module: as an ``ast.Name`` (which
  covers ``module.attr``), inside a quoted annotation, or as an
  ``__all__`` entry (a re-export).  An import kept for its side effect
  carries ``# noqa: F401`` on its line; ``from __future__`` imports are
  directives, not names.
"""

import ast
import importlib
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "ledger", "examples", "scripts")
IMPORTERS = SEARCHED + ("tests",)
API_DOC = ROOT / "docs" / "api.md"


def python_files(tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path


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


def _docstrings(tree):
    """The ids of every docstring constant in ``tree``."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _dunder_all_constants(tree):
    """The ids of the string constants of every ``__all__`` assignment."""
    ids = set()
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            ids.update(id(c) for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant))
    return ids


def referenced_names():
    """Every name the searched code and ``docs/api.md`` refer to."""
    names = set()
    for path in python_files(SEARCHED):
        tree = ast.parse(path.read_text())
        skipped = _docstrings(tree) | _dunder_all_constants(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in skipped):
                names.add(node.value)
    doc = API_DOC.read_text()
    spans = re.findall(r"```.*?```", doc, re.S)
    spans += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", doc, flags=re.S))
    for span in spans:
        # ``dirty-channel`` is a scenario name, not the identifier ``channel``
        names.update(re.findall(r"(?<![\w-])[A-Za-z_]\w*(?![\w-])", span))
    return names


def test_every_public_definition_is_reached_outside_tests():
    names = referenced_names()
    unreached = sorted(f"{site} {name}" for name, site in public_definitions()
                       if name not in names)
    assert unreached == [], "\n".join(unreached)


def repro_imports():
    """``[("file:line", module, name)]`` for every ``from repro... import``."""
    found = []
    for path in python_files(IMPORTERS):
        where = path.relative_to(ROOT)
        top = ROOT / "src" if path.is_relative_to(ROOT / "src") else ROOT
        package = ".".join(path.relative_to(top).parts[:-1])
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level:
                module = importlib.util.resolve_name(
                    "." * node.level + module, package)
            if module != "repro" and not module.startswith("repro."):
                continue
            found += [(f"{where}:{node.lineno}", module, alias.name)
                      for alias in node.names]
    return found


def test_every_repro_import_resolves():
    found = repro_imports()
    dangling = []
    for site, module, name in found:
        try:
            owner = importlib.import_module(module)
        except ImportError as exc:
            dangling.append(f"{site} {module}: {exc}")
            continue
        if name == "*" or hasattr(owner, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            dangling.append(f"{site} from {module} import {name}")
    assert len(found) > 1000
    assert dangling == [], "\n".join(dangling)


def _names_used(tree) -> set[str]:
    """Names ``tree`` refers to: ``ast.Name`` ids, the names inside quoted
    annotations and the entries of ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = (node.annotation if isinstance(node, (ast.arg,
                                                           ast.AnnAssign))
                      else node.returns if isinstance(
                          node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      else None)
        if (isinstance(annotation, ast.Constant)
                and isinstance(annotation.value, str)):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value,
                                                         mode="eval"))
                        if isinstance(n, ast.Name))
    exported = _dunder_all_constants(tree)
    used.update(node.value for node in ast.walk(tree) if id(node) in exported)
    return used


def unused_imports():
    """``["file:line name"]`` for every imported name its module never
    refers to."""
    found = []
    for path in python_files(IMPORTERS):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = _names_used(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or (alias.name.partition(".")[0]
                                        if isinstance(node, ast.Import)
                                        else alias.name)
                if name == "*" or name in used or any(
                        "# noqa: F401" in lines[line - 1]
                        for line in (node.lineno, alias.lineno)):
                    continue
                found.append(f"{path.relative_to(ROOT)}:{alias.lineno} "
                             f"{name}")
    return found


def test_every_import_is_used():
    assert unused_imports() == [], "\n".join(unused_imports())
