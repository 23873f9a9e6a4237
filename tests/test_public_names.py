"""Every public name of the library is run by the program itself.

A name in a module's ``__all__``, and a public method or property of a
class listed there, stays only if the CLI, another module of the package,
``scripts/`` or ``perfbench/`` uses it: it must appear as a Python name (not
in a string or a comment) somewhere under ``src/``, ``scripts/`` or
``perfbench/`` besides its own ``def`` or ``class`` line.  Code that only
checks results belongs in ``tests/helpers.py``.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expriordan"


def _name_uses() -> Counter:
    """How often each NAME token occurs, not counting the name a ``def`` or
    ``class`` statement defines."""
    uses: Counter = Counter()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            previous = ""
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    uses[tok.string] += 1
                previous = tok.string
    return uses


def _public_names() -> list[tuple[str, str]]:
    """(module, name) for every ``__all__`` name, and (module, Class.method)
    for every public method or property of a class in ``__all__``."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text()).body
        exported = ()
        for node in body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = ast.literal_eval(node.value)
                names += [(path.stem, name) for name in exported]
        for node in body:
            if isinstance(node, ast.ClassDef) and node.name in exported:
                names += [
                    (path.stem, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return names


def test_every_public_name_is_used_by_the_program():
    names = _public_names()
    assert {module for module, _ in names} >= {"series", "riordan", "production", "catalog"}
    assert ("series", "Series.truncate") in names
    uses = _name_uses()
    unused = [f"{module}.{name}" for module, name in names if uses[name.split(".")[-1]] == 0]
    assert unused == []
