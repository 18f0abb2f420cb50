"""Every ``benchmarks/bench_*.py`` module must import under the project's
warning filters, and the benchmarks stay one system: ``BENCHMARK.json``
(the ledger) gates wall-clock, each benchmark asserts its own bounds.

Only ``bench_obs_overhead.py`` is in tier-1's ``testpaths``, so a benchmark
whose module-level code trips ``filterwarnings = error:repro\\.`` (a
deprecated in-tree API) or names something that no longer exists would
otherwise stay uncollectable until a CI bench job runs it.  Nor may a
benchmark body read ``NAME.attr`` off one of its module's globals when that
attribute is gone: such a read only fails once the body runs.  Collection
only: nothing is timed and nothing is written.
"""

import ast
import importlib.util
import pathlib
import shutil
import subprocess

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"


@pytest.mark.parametrize("path", sorted(BENCHMARKS_DIR.glob("bench_*.py")),
                         ids=lambda p: p.stem)
def test_benchmark_module_imports(path):
    # a private module name: bench_obs_overhead is also collected by pytest
    # itself, and the two must not share a sys.modules entry
    spec = importlib.util.spec_from_file_location(f"_collect_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
    assert list(_unresolved_attribute_reads(module, path.read_text())) == []


def _unresolved_attribute_reads(module, source):
    """``line: NAME.attr`` for each read in ``source`` whose ``NAME`` is a
    global of the imported ``module`` that has no attribute ``attr``."""
    names = vars(module)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in names
                and not hasattr(names[node.value.id], node.attr)):
            yield f"{node.lineno}: {node.value.id}.{node.attr}"


def test_benchmarks_have_no_knobs():
    """A benchmark measures one fixed configuration: no environment
    overrides and no pytest command-line options."""
    knobs = {"environ", "getenv", "pytest_addoption"}
    offenders = []
    for path in sorted(BENCHMARKS_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # os.environ / os.getenv attributes, `from os import ...`
            # aliases and hook definitions all carry the name here
            name = getattr(node, "attr", None) or getattr(node, "name", None)
            if name in knobs:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_ledger_is_the_only_gate_table():
    """No committed JSON baselines beside ``BENCHMARK.json``."""
    baselines = [p.name for p in REPO_ROOT.glob("BENCH*.json")
                 if p.name != "BENCHMARK.json"]
    assert baselines == []


def test_bench_results_are_all_tracked():
    """Benchmarks write only the tracked ``results/*.txt`` tables, so a
    tier-1 run (``bench_obs_overhead.py`` is collected first) leaves no
    untracked or ignored file behind."""
    if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listing = subprocess.run(
        ["git", "ls-files", "--others", "--", "benchmarks/results"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if listing.returncode != 0:  # e.g. a checkout owned by another user
        pytest.skip(f"git ls-files failed: {listing.stderr.strip()}")
    assert listing.stdout.split() == []
