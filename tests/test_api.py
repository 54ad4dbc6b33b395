"""The public surface: what ``ahx`` re-exports is what its modules export,
and no module imports a name it does not use."""
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


def _unused_imports(source: str) -> list:
    """Names a module imports and never reads; ``__all__`` entries count as
    read, so a deliberate re-export is not flagged."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(ahx.__file__).parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"
              for names in [_unused_imports(path.read_text(encoding="utf-8"))]
              if names}
    assert unused == {}


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level private names (one leading underscore, not dunder) that
    a module defines by ``def``, ``class`` or assignment, with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def test_no_private_name_is_unused():
    # a private name counts as read when its own module reads it, or when
    # another module of the package reads it by import or as an attribute
    package = Path(ahx.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = {(module, name): line for module, tree in trees.items()
               for name, line in _private_definitions(tree).items()}
    assert defined
    unused = sorted(f"{module}: {name} (line {line})"
                    for (module, name), line in defined.items()
                    if name not in read)
    assert unused == []


def _private_members(tree: ast.Module) -> dict:
    """Private members (one leading underscore, not dunder) of every class
    a module defines: methods and properties, fields of the class body and
    the ``self._x`` attributes its methods assign, with their lines."""
    defined = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = []
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names.append((node.name, node.lineno))
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                names.append((node.target.id, node.lineno))
            elif isinstance(node, ast.Assign):
                names += [(t.id, node.lineno) for t in node.targets
                          if isinstance(t, ast.Name)]
        names += [(node.attr, node.lineno) for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"]
        defined.update(((cls.name, name), line) for name, line in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def test_no_private_class_member_is_unread():
    # a private member counts as read when any module of the package reads
    # an attribute of that name; assigning it is not a read
    package = Path(ahx.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    defined = {(module, cls, name): line for module, tree in trees.items()
               for (cls, name), line in _private_members(tree).items()}
    assert defined
    unread = sorted(f"{module}: {cls}.{name} (line {line})"
                    for (module, cls, name), line in defined.items()
                    if name not in read)
    assert unread == []
