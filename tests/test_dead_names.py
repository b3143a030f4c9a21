"""Every top-level name and class method under src/kstensor is read somewhere in it,
and every defaulted parameter of its functions is given a second value somewhere.

A name counts as read when some module of the package loads it (a call, an
attribute access, an annotation) or when `__init__` exports it. Names that
stay for readers outside the package are listed in ALLOWED with the reason.
A parameter with one value in use is a constant; ONE_VALUE_ALLOWED lists any
that stays a parameter anyway, with the reason.
"""

import ast
from pathlib import Path

import kstensor

PACKAGE = Path(kstensor.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
# where a call may give a package function's parameter its second value
CALLERS = (PACKAGE, ROOT / "tests", ROOT / "tools", ROOT / "perfbench")

ALLOWED = {
    # the bench tracer lists it; it goes with the bench change that traces
    # solve_potential_v instead (ROADMAP item 1)
    "solve_potential_gradient": "traced by perfbench",
}
ONE_VALUE_ALLOWED: dict[str, str] = {}  # "function.parameter": reason


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


def _defaulted(tree: ast.Module) -> dict[str, tuple[list[str], dict[str, ast.expr]]]:
    """Each function with a defaulted parameter: its positional parameter names and the defaults."""
    out = {}
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            pos = [arg.arg for arg in a.posonlyargs + a.args][id(node) in methods:]  # no self/cls
            defaults = dict(zip(pos[len(pos) - len(a.defaults):], a.defaults))
            defaults.update((k.arg, d) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            if defaults:
                out[node.name] = (pos, defaults)
    return out


def _same(arg: ast.expr, default: ast.expr) -> bool:
    """Whether a passed argument is the default literal; a non-literal one is another value."""
    try:
        return ast.literal_eval(arg) == ast.literal_eval(default)
    except ValueError:
        return ast.dump(arg) == ast.dump(default)


def _one_value() -> set[str]:
    """`function.parameter` for each defaulted parameter that no call passes another value.

    Calls match a function by its name, however it is reached (`f(...)` or `mod.f(...)`).
    A starred argument gives the positions from it on another value, and a `**` mapping
    every parameter.
    """
    functions = {}
    for tree in _modules().values():
        functions.update(_defaulted(tree))
    unvaried = {f"{fn}.{p}" for fn, (_, defaults) in functions.items() for p in defaults}
    for path in sorted(p for d in CALLERS for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            fn = getattr(node.func, "id", getattr(node.func, "attr", None))
            if fn not in functions:
                continue
            pos, defaults = functions[fn]
            passed = dict(zip(pos, node.args))
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    passed.update((p, arg) for p in pos[i:])
            passed.update((kw.arg, kw.value) for kw in node.keywords if kw.arg is not None)
            if any(kw.arg is None for kw in node.keywords):
                passed.update((p, node) for p in defaults)  # the call itself: not a literal
            unvaried -= {f"{fn}.{p}" for p, arg in passed.items() if p in defaults and not _same(arg, defaults[p])}
    return unvaried


def test_every_option_takes_a_second_value():
    one_value = _one_value() - set(ONE_VALUE_ALLOWED)
    assert not one_value, f"defaulted, but no call passes another value: make each a constant: {sorted(one_value)}"
