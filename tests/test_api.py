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


# Defaulted parameters a caller may pass only through code the scan cannot
# see: perfbench's norm wrapper hands them to the wrapped original.
PASSED_THROUGH = {("operator_norm", "tol"), ("operator_norm", "maxiter"),
                  ("operator_norm", "return_info")}


def defaulted_parameters():
    """(callee name, parameter, position among the call's positional
    arguments) of every defaulted parameter of a ``src/`` function or method.

    A method's position skips ``self``; ``__init__`` is called by the class
    name.  A keyword-only parameter has position None.
    """
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {id(item): node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            name, skip = node.name, 0
            if id(node) in owners:
                skip = 1
                if name == "__init__":
                    name = owners[id(node)]
            args = node.args.posonlyargs + node.args.args
            first = len(args) - len(node.args.defaults)
            out += [(name, arg.arg, pos - skip)
                    for pos, arg in enumerate(args) if pos >= first]
            out += [(name, arg.arg, None) for arg, default
                    in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if default is not None]
    return out


def calls_by_name(trees):
    """Callee name -> (positional count, keyword names) of each call.  A
    starred argument counts as every position, a ``**`` mapping as the
    keyword None, which passes every parameter."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg for kw in node.keywords}
            out.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), keywords))
    return out


def uncalled_parameters():
    """Defaulted ``src/`` parameters that no call passes, by keyword or by
    position, in ``src/``, the acceptance criteria, ``perfbench/`` or
    README's quickstart.  Calls are matched by the callee's name."""
    paths = [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = [ast.parse(path.read_text()) for path in paths]
    trees.append(ast.parse(readme_quickstart()))
    calls = calls_by_name(trees)
    missing = []
    for name, param, pos in defaulted_parameters():
        if (name, param) in PASSED_THROUGH:
            continue
        if not any(param in keywords or None in keywords
                   or (pos is not None and n_pos > pos)
                   for n_pos, keywords in calls.get(name, [])):
            missing.append(f"{name}({param}=)")
    return sorted(missing)


def test_every_keyword_parameter_has_a_caller():
    assert uncalled_parameters() == []
