"""Everything under ``src/repro`` is reached from outside the tests, every
option is set and every attribute read there, and every import is used.

Five checks, all over parsed code rather than text:

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
* **Every option has a caller.**  Every defaulted parameter of a public
  function, method or class (``__init__``) and every defaulted record
  field (a ``default_factory`` is state, not an option) is set by the
  searched code: a keyword, or a positional argument that reaches its
  slot, at a call of that name (the class or a subclass that inherits
  its ``__init__``; ``super().__init__``), ``functools.partial(f, ...)``
  of it, an RMI ``call``/``oneway``/``prepare_oneway`` naming the method,
  or a keyword to ``dict`` (a keyword set later splatted).  ``**mapping``
  passes on its caller's keywords when the mapping is the function's own
  ``**kwargs``, and otherwise sets the names its module spells as
  strings.  A record field also counts as set when the code stores it
  (``obj.field = ...``: state) or names it in ``with_``/``replace``.  In
  ``docs/api.md``, ``owner(..., name=value)`` in a code span sets it
  unless ``value`` restates the default.  An option no caller sets is a
  configuration only tests exercise; ``ALLOWED`` lists the few kept
  on purpose.
* **Every attribute is read.**  Every public attribute of a public
  class (a record field, or an ``self.name = ...`` in a method) is read
  by the searched code as an attribute load or named as a string
  constant, or appears in a code span of ``docs/api.md`` or
  ``docs/observability.md``.
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
OBS_DOC = ROOT / "docs" / "observability.md"
#: the RMI sends, and the keywords the runtime itself consumes
RMI_SENDS = ("call", "oneway", "prepare_oneway")
RMI_OPTIONS = {"timeout", "reliable", "size"}

#: the options and attributes kept although no searched caller sets or reads
#: them, one entry per reason
ALLOWED = {
    "P2PConfig(superpeer_port=, daemon_port=, standby_port=)":
        "deployment settings: a real deployment picks its ports",
    "build_cluster(loss_rate=)":
        "E2's lossy links, driven only by tests/test_message_loss.py",
    "RunSpec(n_superpeers=)":
        "the tiered_wheel golden run's four leaf Super-Peers",
    "RunSpec(trace_sink=, trace_capacity=, trace_path=)":
        "the JSONL spill sink a swarm-scale traced run needs",
    "Backup.created_at":
        "8 bytes of every Backup on the wire: dropping it moves every timeline",
}


def allowed(entry):
    """Whether the finding ``"owner(name=)"``/``"owner.name"`` is listed in
    :data:`ALLOWED`."""
    for kept in ALLOWED:
        owner, _, names = kept.partition("(")
        if entry in (kept, *(f"{owner}({name.strip()})"
                             for name in names.rstrip(")").split(",")
                             if names)):
            return True
    return False


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


def code_spans(doc):
    """The inline and fenced code spans of the markdown file ``doc``."""
    text = doc.read_text()
    spans = re.findall(r"```.*?```", text, re.S)
    return spans + re.findall(r"`([^`]+)`",
                              re.sub(r"```.*?```", "", text, flags=re.S))


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
    for span in code_spans(API_DOC):
        # ``dirty-channel`` is a scenario name, not the identifier ``channel``
        names.update(re.findall(r"(?<![\w-])[A-Za-z_]\w*(?![\w-])", span))
    return names


def test_every_public_definition_is_reached_outside_tests():
    names = referenced_names()
    unreached = sorted(f"{site} {name}" for name, site in public_definitions()
                       if name not in names)
    assert unreached == [], "\n".join(unreached)


def _name_of(node):
    """The called name of a call's ``func`` (or of a ``partial`` target)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _decorators(node):
    return {_name_of(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list}


def _is_record(cls):
    return ("dataclass" in _decorators(cls)
            or any(_name_of(b) == "NamedTuple" for b in cls.bases))


def _kw_only(cls):
    return any(isinstance(d, ast.Call) and any(
        k.arg == "kw_only" and getattr(k.value, "value", False)
        for k in d.keywords) for d in cls.decorator_list)


def _field_default(stmt):
    """A record field's default expression; ``None`` without one, for a
    ``default_factory`` and for an ``init=False`` field."""
    value = stmt.value
    if isinstance(value, ast.Call) and _name_of(value.func) == "field":
        given = {k.arg: k.value for k in value.keywords}
        return None if "init" in given else given.get("default")
    return value


def _src_classes():
    """``{name: ClassDef}`` for every top-level class under ``src/repro``."""
    return {node.name: node
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef)}


def _record_fields(name, classes):
    """``[(field, AnnAssign, owner)]`` in ``__init__`` order, inherited
    record fields first."""
    node = classes[name]
    fields = []
    for base in map(_name_of, node.bases):
        if base in classes and _is_record(classes[base]):
            fields += _record_fields(base, classes)
    return fields + [
        (stmt.target.id, stmt, name) for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.unparse(stmt.annotation)]


def options(classes):
    """``[(owner, name, slot, default, is_field, "file:line")]`` for every
    defaulted parameter of a public function, method or class and every
    defaulted field of a public record.  ``owner`` is the name call sites
    use; ``slot`` the positional index (``None`` when keyword-only)."""
    found = []

    def params(owner, fn, skip, where):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for slot, (arg, default) in enumerate(
                zip(positional[first:], args.defaults), first - skip):
            found.append((owner, arg.arg, slot, default, False,
                          f"{where}:{arg.lineno}"))
        found.extend((owner, arg.arg, None, default, False,
                      f"{where}:{arg.lineno}")
                     for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None)

    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(ROOT)
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                params(node.name, node, 0, where)
                continue
            if _is_record(node):
                keyword_only = _kw_only(node)
                for slot, (name, stmt, owner) in enumerate(
                        _record_fields(node.name, classes)):
                    default = _field_default(stmt)
                    if owner == node.name and default is not None:
                        found.append((owner, name,
                                      None if keyword_only else slot,
                                      default, True, f"{where}:{stmt.lineno}"))
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                decorators = _decorators(method)
                if method.name == "__init__":
                    params(node.name, method, 1, where)
                elif not (method.name.startswith("_")
                          or "property" in decorators):
                    params(method.name, method,
                           0 if "staticmethod" in decorators else 1, where)
    return found


def call_sites():
    """``(calls, loose, replaced)``: ``calls[name]`` holds one ``(positional
    count, starred, keywords)`` per call of ``name``; ``loose`` the keywords
    given to ``dict``; ``replaced`` the fields named to ``with_``/
    ``replace``."""
    calls, loose, replaced, forwards = {}, set(), set(), []

    def record(name, args, keywords, strings, scope):
        names = {k.arg for k in keywords if k.arg}
        for k in keywords:
            if k.arg is not None:
                continue
            if (scope is not None and scope.args.kwarg is not None
                    and isinstance(k.value, ast.Name)
                    and k.value.id == scope.args.kwarg.arg):
                forwards.append((scope.name, name))
            else:
                names |= strings
        calls.setdefault(name, []).append((
            sum(not isinstance(a, ast.Starred) for a in args),
            any(isinstance(a, ast.Starred) for a in args), names))

    def visit(tree, strings, base, scope):
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.ClassDef):
                visit(node, strings,
                      _name_of(node.bases[0]) if node.bases else None, scope)
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node, strings, base, node)
                continue
            if isinstance(node, ast.Call):
                name = _name_of(node.func)
                args, keywords = node.args, node.keywords
                if name == "__init__" and base:
                    # super().__init__(...), or Base.__init__(self, ...)
                    # whose first argument is the instance
                    skip = 0 if isinstance(node.func.value, ast.Call) else 1
                    record(base, args[skip:], keywords, strings, scope)
                elif name == "partial" and args:
                    record(_name_of(args[0]), args[1:], keywords, strings, scope)
                elif name == "dict":
                    loose.update(k.arg for k in keywords if k.arg)
                elif name in ("with_", "replace"):
                    for k in keywords:
                        replaced.update([k.arg] if k.arg else strings)
                elif name in RMI_SENDS:
                    for i, arg in enumerate(args[:2]):
                        if isinstance(arg, ast.Constant) and isinstance(
                                arg.value, str):
                            record(arg.value, args[i + 1:],
                                   [k for k in keywords
                                    if k.arg not in RMI_OPTIONS],
                                   strings, scope)
                            break
                if name:
                    record(name, args, keywords, strings, scope)
            visit(node, strings, base, scope)

    for path in python_files(SEARCHED):
        tree = ast.parse(path.read_text())
        skipped = _docstrings(tree)
        visit(tree, {node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)
                     and id(node) not in skipped}, None, None)
    grown = True
    while grown:
        grown = False
        for outer, inner in forwards:
            passed = set().union(*(kws for *_, kws in calls.get(outer, [])))
            if not passed <= set().union(*(kws for *_, kws in
                                           calls.get(inner, []))):
                calls.setdefault(inner, []).append((0, False, passed))
                grown = True
    return calls, loose, replaced


def documented_settings():
    """``{(owner, name): [value, ...]}`` for every ``owner(..., name=value)``
    in a code span of ``docs/api.md``."""
    found = {}
    for span in code_spans(API_DOC):
        for call in re.finditer(r"([A-Za-z_]\w*)\(", span):
            depth, start, pieces = 1, call.end(), []
            for i in range(call.end(), len(span)):
                depth += (span[i] in "([{") - (span[i] in ")]}")
                if depth == 0 or (depth == 1 and span[i] == ","):
                    pieces.append(span[start:i])
                    start = i + 1
                if depth == 0:
                    break
            for piece in pieces:
                given = re.match(r"\s*([A-Za-z_]\w*)\s*=(?!=)(.*)", piece, re.S)
                if given:
                    found.setdefault((call.group(1), given.group(1)),
                                     []).append(given.group(2).strip())
    return found


def stored_attributes():
    """Every attribute name the searched code assigns to."""
    return {node.attr for path in python_files(SEARCHED)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)}


def unset_options():
    """``["file:line owner(name=)"]`` for every option no caller sets."""
    classes = _src_classes()
    calls, loose, replaced = call_sites()
    stored = stored_attributes()
    documented = documented_settings()
    heirs = {}
    for name, node in classes.items():
        if not any(isinstance(m, ast.FunctionDef) and m.name == "__init__"
                   for m in node.body):
            for base in map(_name_of, node.bases):
                heirs.setdefault(base, []).append(name)

    def callers(owner):
        names, todo = {owner}, [owner]
        while todo:
            new = set(heirs.get(todo.pop(), ())) - names
            names |= new
            todo += new
        return names

    unset = []
    for owner, name, slot, default, is_field, site in options(classes):
        if (name in loose
                or is_field and (name in stored or name in replaced)
                or any(name in kws or slot is not None and (count > slot
                                                            or starred)
                       for caller in callers(owner)
                       for count, starred, kws in calls.get(caller, ()))
                or any(value != ast.unparse(default)
                       for value in documented.get((owner, name), ()))):
            continue
        unset.append(f"{site} {owner}({name}=)")
    return unset


def test_every_option_is_set_outside_tests():
    assert len(ALLOWED) <= 5
    unset = [entry for entry in unset_options()
             if not allowed(entry.split()[1])]
    assert unset == [], "\n".join(unset)


def attributes():
    """``[(class, attribute, "file:line")]`` for each public attribute of a
    public class: record fields and ``self.name`` assignments."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(ROOT)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            first = {}
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    first.setdefault(stmt.target.id, stmt.lineno)
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                for sub in ast.walk(stmt):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        first.setdefault(sub.attr, sub.lineno)
            found += [(node.name, attr, f"{where}:{line}")
                      for attr, line in first.items()
                      if not attr.startswith("_")]
    return found


def read_names():
    """Attribute loads, non-docstring string constants and the identifiers
    in the code spans of ``docs/api.md`` and ``docs/observability.md``."""
    names = set()
    for path in python_files(SEARCHED):
        tree = ast.parse(path.read_text())
        skipped = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and id(node) not in skipped):
                names.add(node.value)
    for doc in (API_DOC, OBS_DOC):
        for span in code_spans(doc):
            names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def test_every_attribute_is_read_outside_tests():
    names = read_names()
    unread = [f"{site} {owner}.{attr}" for owner, attr, site in attributes()
              if attr not in names and not allowed(f"{owner}.{attr}")]
    assert unread == [], "\n".join(unread)


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
