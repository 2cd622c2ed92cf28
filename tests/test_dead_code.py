"""Every function, class and method in ``src/draa`` is reached by the
package or the benchmark, not only by tests.

A name counts as used where it is read (a name or an attribute) or
spelled as a string (``getattr`` and the benchmark's rebinding by name),
in ``src/draa`` or ``perfbench``.  Imports and
``__all__`` do not count, and names are matched regardless of their
owner, so the scan is conservative: it only reports a name that occurs
nowhere but at its own definition.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "draa"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions(tree: ast.Module):
    """Module-level functions and classes and the methods of those
    classes, except dunders."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("__"):
                    yield item.name


def _all_strings(tree: ast.Module) -> set[int]:
    """ids of the string nodes of ``__all__`` assignments."""
    ids = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            ids.update(id(n) for n in ast.walk(node.value))
    return ids


def uses(tree: ast.Module) -> Counter:
    skip = _all_strings(tree)
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier() and id(node) not in skip):
            found[node.value] += 1
    return found


def test_no_code_only_tests_reach():
    used = Counter()
    for directory in CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            used.update(uses(_parse(path)))
    unused = sorted(
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in definitions(_parse(path))
        if not used[name])
    assert not unused, f"reached by nothing outside tests: {unused}"
