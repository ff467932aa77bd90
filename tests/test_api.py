"""The public API: every name the package exports has a caller."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sectorcalc"


def exported_names():
    """Names bound by the imports of ``sectorcalc/__init__.py``."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced(tree):
    """Identifiers a module uses: names, attributes and string constants
    (the spelling of a ``getattr`` or a patch target)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def readme_quickstart():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library quickstart", 1)[1]
    return block.split("```python\n", 1)[1].split("```", 1)[0]


def unreferenced_exports():
    """Exported names with no use outside their own definition.

    Uses count in ``src/`` (except the export list itself), in the
    acceptance criteria, in README's library quickstart and in
    ``perfbench/``.  A use inside the definition of another exported name
    that has no caller does not count either, so a dead chain fails whole.
    """
    names = exported_names()
    outside = set()
    for path in [ROOT / "tests" / "test_acceptance.py",
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
        outside |= referenced(ast.parse(path.read_text()))
    outside |= referenced(ast.parse(readme_quickstart()))
    # src: top-level definitions by name; everything else is module-level use
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(referenced(node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                outside |= referenced(node)
    dead = set()
    while True:
        live = set(outside)
        for name, bodies in defs.items():
            if name in dead:
                continue
            for body in bodies:
                live |= body - {name}
        newly = {name for name in names - dead if name not in live}
        if not newly:
            return sorted(dead)
        dead |= newly


def test_every_export_has_a_caller():
    assert unreferenced_exports() == []
