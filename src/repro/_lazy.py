"""Lazy package surfaces (PEP 562).

Every ``repro`` package re-exports its public names through one table
mapping a submodule to the names it provides::

    __getattr__, __dir__, __all__ = lazy_surface(__name__, {
        ".alarm": ("Alarm", "RepeatKind"),
        ".queue": ("AlarmQueue",),
    })

``import repro.core`` then runs none of its submodules: the first
``from repro.core import Alarm`` (or ``repro.core.Alarm``) imports
``repro.core.alarm`` and caches the name on the package, so later
lookups are plain attribute reads.  A name that is not in the table is
an ``AttributeError``, as on any module, which is what
``from package import submodule`` relies on to fall back to importing the
submodule.
"""

from __future__ import annotations

import sys
import types
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


class _Surface(types.ModuleType):
    """A package whose exported names outrank same-named submodules.

    Importing ``package.fuzz`` binds the submodule on the package as
    ``fuzz``.  Where the package exports a *function* ``fuzz`` from that
    submodule, the binding is skipped, so the name stays the export
    whichever of the two was imported first.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if name in self.__dict__.get("_exported", ()) and isinstance(
            value, types.ModuleType
        ):
            return
        super().__setattr__(name, value)


def lazy_surface(
    package: str, table: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``table`` maps each relative submodule name to the names it exports,
    in ``__all__`` order.
    """
    origin: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    namespace = sys.modules[package].__dict__
    namespace["_exported"] = frozenset(origin)
    sys.modules[package].__class__ = _Surface

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
