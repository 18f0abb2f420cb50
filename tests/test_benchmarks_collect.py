"""Every ``benchmarks/bench_*.py`` module must import under the project's
warning filters.

Only ``bench_obs_overhead.py`` is in tier-1's ``testpaths``, so a benchmark
whose module-level code trips ``filterwarnings = error:repro\\.`` (a
deprecated in-tree API) or names something that no longer exists would
otherwise stay uncollectable until a CI bench job runs it.  Collection
only: nothing is timed and nothing is written.
"""

import importlib.util
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("path", sorted(BENCH_DIR.glob("bench_*.py")),
                         ids=lambda p: p.stem)
def test_benchmark_module_imports(path):
    # a private module name: bench_obs_overhead is also collected by pytest
    # itself, and the two must not share a sys.modules entry
    spec = importlib.util.spec_from_file_location(f"_collect_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
