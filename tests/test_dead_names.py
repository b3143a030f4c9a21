"""Every top-level name and class method under src/kstensor is read somewhere in it.

A name counts as read when some module of the package loads it (a call, an
attribute access, an annotation) or when `__init__` exports it. Names that
stay for readers outside the package are listed in ALLOWED with the reason.
"""

import ast
from pathlib import Path

import kstensor

PACKAGE = Path(kstensor.__file__).parent

ALLOWED = {
    # the bench tracer lists it; it goes with the bench change that traces
    # solve_potential_v instead (ROADMAP item 1)
    "solve_potential_gradient": "traced by perfbench",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _defined(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assigned names, and each class's methods as Class.method."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{f.name}" for f in node.body if isinstance(f, ast.FunctionDef)]
    return [name for name in names if not name.split(".")[-1].startswith("__")]


def _read(modules: dict[str, ast.Module]) -> set[str]:
    """Names loaded anywhere in the package, attribute names accessed, and __init__'s exports."""
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    for node in ast.walk(modules["__init__"]):
        if isinstance(node, ast.ImportFrom):
            read.update(alias.asname or alias.name for alias in node.names)
    return read


def _unread() -> set[str]:
    modules = _modules()
    read = _read(modules)
    return {
        name for tree in modules.values() for name in _defined(tree)
        if name.split(".")[-1] not in read
    }


def test_every_name_is_read_or_exported():
    dead = _unread() - set(ALLOWED)
    assert not dead, f"defined under src/kstensor but read nowhere there and not exported: {sorted(dead)}"


def test_allowlist_is_current():
    # an allowed name that is gone, or read again, leaves the list
    assert _unread() >= set(ALLOWED), sorted(set(ALLOWED) - _unread())
