"""Import comblab from the ``src`` directory of the checkout that holds this
benchmark, and from nowhere else.

A benchmark that silently measured an installed copy of the package would
report numbers for the wrong code, so any other location is an error.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/comblab`` package to measure."""


def load_comblab():
    """Return the ``comblab`` module imported from ``<checkout>/src``."""
    package = SRC / "comblab" / "__init__.py"
    if not package.is_file():
        raise MissingSource(f"no comblab package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("comblab")
    if Path(module.__file__).resolve() != package.resolve():
        raise MissingSource(f"comblab was imported from {module.__file__}, "
                            f"not from {package}")
    return module
