"""The public API: every exported name, every defaulted parameter and every
``src/`` function, method and class has a caller."""

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


def definitions():
    """(qualified name, name, identifiers its body uses) of every module-level
    function and class in ``src/`` and every method of such a class.

    A class's body is its own statements (bases, decorators, fields), not
    its methods, which are definitions of their own; a function's body
    includes its nested functions.
    """
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{path.stem}.{node.name}", node.name, referenced(node)))
            elif isinstance(node, ast.ClassDef):
                own = set()
                for item in node.bases + node.decorator_list + node.body:
                    if isinstance(item, ast.FunctionDef):
                        out.append((f"{path.stem}.{node.name}.{item.name}", item.name,
                                    referenced(item)))
                    else:
                        own |= referenced(item)
                out.append((f"{path.stem}.{node.name}", node.name, own))
    return out


def outside_references():
    """Identifiers used outside every ``src/`` definition: module-level code
    in ``src/`` (except the export list), the acceptance criteria,
    README's library quickstart and ``perfbench/``."""
    outside = set()
    for path in [ROOT / "tests" / "test_acceptance.py",
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
        outside |= referenced(ast.parse(path.read_text()))
    outside |= referenced(ast.parse(readme_quickstart()))
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                     ast.Import, ast.ImportFrom)):
                outside |= referenced(node)
    return outside


def dead_names(candidates):
    """The candidate names with no use outside their own definition.

    A use counts outside every definition (:func:`outside_references`) or
    in the body of a definition of another name, unless that name is dead
    itself, so a dead chain fails whole.  Uses are matched by name.
    """
    defs = definitions()
    outside = outside_references()
    dead = set()
    while True:
        live = set(outside)
        for _, name, body in defs:
            if name not in dead:
                live |= body - {name}
        newly = {name for name in candidates - dead if name not in live}
        if not newly:
            return dead
        dead |= newly


def unreferenced_exports():
    """Exported names with no use outside their own definition."""
    return sorted(dead_names(exported_names()))


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


# Dunder methods are called by the language; a printer is not, so
# ``__repr__`` and ``__str__`` need a caller like any other name.
UNCALLED_DUNDERS = {"__repr__", "__str__"}


def uncalled_definitions():
    """Qualified names of the ``src/`` functions, methods and classes whose
    name has no use outside its own definition (see :func:`dead_names`)."""
    defs = definitions()
    names = {name for _, name, _ in defs
             if not (name.startswith("__") and name.endswith("__"))
             or name in UNCALLED_DUNDERS}
    dead = dead_names(names)
    return sorted(qual for qual, name, _ in defs if name in dead)


def test_every_definition_has_a_caller():
    assert uncalled_definitions() == []
