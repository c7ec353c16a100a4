"""Package re-exports that load their submodule on first access (PEP 562)."""

from __future__ import annotations

import importlib


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """A module `__getattr__` for package that resolves each name listed
    under a submodule (`{".spin": ("SpinSystem", ...)}`) by importing that
    submodule, and the package's `__all__`: those names in table order.
    Nothing is cached on the package: every access reads the submodule's
    attribute, so a name patched there is seen through the package too."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(home[name], package), name)

    return __getattr__, list(home)
