"""Source hygiene that a linter would check: no module imports a name it
never uses, and no package module reads another object's private
attributes.

Every module of the package and of the test suite is parsed, not imported.
An imported name counts as used when some expression of its module reads
it, or when the module lists it in ``__all__`` (a package re-export).  A
private attribute has one leading underscore; a package module may read
one only through ``self`` or ``cls``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rodfem").glob("*.py"))
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py")))


def imported_names(tree):
    """{bound name: line} for every name an import statement binds."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Names some expression reads, plus the strings listed in __all__."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted((line, name)
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, ", ".join(f"{name} (line {line})"
                                 for line, name in unused)


def private_reads(tree):
    """(line, expression) of every read of an attribute with one leading
    underscore from an object other than self or cls."""
    return sorted(
        (node.lineno, ast.unparse(node)) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls")))


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_module_reads_a_private_attribute_of_another_object(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = private_reads(tree)
    assert not reads, ", ".join(f"{expr} (line {line})"
                                for line, expr in reads)
