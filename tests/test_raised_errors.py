"""Every error raised under src/kstensor is one the command line reports.

`kstensor` turns a KSTensorError or a ValueError into a message and exit
code 1. Any other exception type raised in the package would reach the user
as a traceback, so each `raise` must name a KSTensorError subclass or a
ValueError (a bare `raise` re-raises what was caught and is left alone).
"""

import ast
import builtins
from pathlib import Path

from kstensor import errors
from kstensor.errors import KSTensorError

PACKAGE = Path(errors.__file__).parent


def _raised() -> list[tuple[str, int, str]]:
    """(file, line, name) of the exception each `raise` under the package names."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
                found.append((path.name, node.lineno, name))
    return found


def _reported(name: str) -> bool:
    cls = getattr(errors, name, None) or getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, (KSTensorError, ValueError))


def test_raises_are_found():
    names = {name for _, _, name in _raised()}
    assert {"BadParameter", "ConfigInvalid", "ValueError"} <= names


def test_every_raise_is_reported_by_the_cli():
    stray = [f"{file}:{line} raises {name}" for file, line, name in _raised() if not _reported(name)]
    assert not stray, stray
