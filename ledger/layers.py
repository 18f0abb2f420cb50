"""Layer map: one layer per package under ``src/repro/``.

A layer is a package directory; the top-level modules (``cli.py``,
``errors.py``, ...) share the layer ``top``.  ``--selfcheck`` fails when a
package appears under ``src/repro/`` that this table does not name, so a new
subsystem cannot land in an "other" row unnoticed.
"""

from __future__ import annotations

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

TOP = "top"
LAYERS = (
    "apps", "baselines", "checkpoint", "churn", "compute", "convergence",
    "des", "exec", "experiments", "faults", "gossip", "local", "net",
    "numerics", "obs", "p2p", "rmi", "util", TOP,
)

_PREFIX = str(PACKAGE) + "/"


def layer_of(filename: str) -> str | None:
    """Layer of a profile frame's file, or None for frames outside repro."""
    if not filename.startswith(_PREFIX):
        return None
    head, sep, _ = filename[len(_PREFIX):].partition("/")
    return head if sep else TOP


def coverage_errors() -> list[str]:
    """Packages under ``src/repro/`` without a layer, and layers without a
    package."""
    found = {
        p.name for p in PACKAGE.iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }
    if any(p.suffix == ".py" for p in PACKAGE.iterdir()):
        found.add(TOP)
    errors = [f"package src/repro/{name}/ has no layer in ledger/layers.py"
              for name in sorted(found - set(LAYERS))]
    errors += [f"layer {name!r} has no package under src/repro/"
               for name in sorted(set(LAYERS) - found)]
    return errors
