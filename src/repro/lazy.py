"""Package re-exports imported on first use (PEP 562 ``__getattr__``).

``repro.annealing`` and ``repro.joinorder`` re-export names whose
modules import networkx or ``scipy.optimize``.  Serving needs neither
package's heavy half, so those names are resolved on first access and
a serving process never loads the two libraries.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` taking ``name`` from submodule ``exports[name]``."""

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{exports[name]}"), name)

    return __getattr__
