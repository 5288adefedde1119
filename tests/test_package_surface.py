"""The package keeps only what the program runs.

Every top-level function and class in `src/skygrid`, and every non-dunder
method, must be referred to somewhere other than its own definition: by code
in another place of `src/skygrid` (the package's `__init__` re-exports do not
count) or in `perfbench/`, whose span table looks functions up by name. A
method is reached only as an attribute (`.name`) or by name in a string, so
a local variable of the same name does not count for it. Code
that only tests call belongs with the tests (`conftest.py` holds the
independent oracles). Every name a module imports is used in that module.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "skygrid"

# Defined but referred to only from outside the program, one reason each.
ALLOWED = {
    "sim.run_scenario": "the library entry point the README documents",
    "pso.trajectory_cost": "the paper's cost J; the planner scores with _Scorer through optimize, perfbench with penalized_cost",
}


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of the top-level functions and classes and the
    non-dunder methods of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out.append((f"{node.name}.{item.name}", item))
    return out


def references(tree: ast.AST) -> tuple[Counter, Counter]:
    """Bare names; and attributes with the identifiers inside string literals
    other than docstrings (perfbench's span table names functions in strings)."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                attributes.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names, attributes


def unreferenced() -> list[str]:
    """Definitions in the package whose name occurs nowhere outside their
    own body, in the package or in perfbench."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    names, attributes = Counter(), Counter()
    for path, tree in trees.items():
        if path != PACKAGE / "__init__.py":
            tree_names, tree_attributes = references(tree)
            names.update(tree_names)
            attributes.update(tree_attributes)
    found = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, node in definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            own_names, own_attributes = references(node)
            used = attributes[name] - own_attributes[name]
            if "." not in qualified:  # a top-level definition is also used by bare name
                used += names[name] - own_names[name]
            if not used:
                found.append(f"{path.stem}.{qualified}")
    return found


def test_every_definition_in_the_package_is_used_by_the_program():
    flagged = [name for name in unreferenced() if name not in ALLOWED]
    assert flagged == [], "only tests refer to these; move them into tests/: " + ", ".join(flagged)


def test_every_allowlist_entry_is_still_defined_and_still_unreferenced():
    assert sorted(unreferenced()) == sorted(ALLOWED)


def unused_imports() -> list[str]:
    """`module.name` for each name a package module imports and never uses.
    The `__init__` re-exports and `__future__` features are not uses to find."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.stem}.{name}" for name in imported if name not in used]
    return found


def test_every_import_in_the_package_is_used():
    assert unused_imports() == []
