"""The public surface: what ``ahx`` re-exports is what its modules export."""
import ast
import importlib
from pathlib import Path

import ahx


def test_package_names_match_module_all():
    tree = ast.parse(Path(ahx.__file__).read_text(encoding="utf-8"))
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    modules = {m: importlib.import_module(f"ahx.{m}") for m, _ in reexports}
    missing = [f"{m}.{name}" for m, name in reexports
               if name not in modules[m].__all__]
    assert missing == [], "re-exported but not in the module's __all__"
    unresolved = [f"{m}.{name}" for m, mod in modules.items()
                  for name in mod.__all__ if not hasattr(mod, name)]
    assert unresolved == [], "__all__ names nothing of that name"
