"""Lazy package façades (PEP 562).

A package ``__init__`` re-exports names from its submodules without
importing them: it hands :func:`lazy_exports` a table of defining
modules and the names each provides, and binds the returned
``__all__``, ``__getattr__`` and ``__dir__``.  A name's defining module
is imported the first time the name is read from the package; the value
is then stored in the package's globals, so every later read is a plain
attribute lookup that never reaches ``__getattr__`` again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


def lazy_exports(
    package: str,
    table: Dict[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package named ``package``.

    ``table`` maps each defining module (an absolute module name) to the
    names the package re-exports from it; ``submodules`` lists the
    package's own submodules that are public attributes (``repro.obs``
    exports ``export``, ``ledger``, ...).
    """
    owners: Dict[str, Tuple[str, Optional[str]]] = {
        name: (module, name) for module, names in table.items() for name in names
    }
    for name in submodules:
        owners[name] = (f"{package}.{name}", None)
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = owners[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module)
        if attribute is not None:
            value = getattr(value, attribute)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return sorted(owners), __getattr__, __dir__
