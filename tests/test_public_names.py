"""Every public function and class is something the library runs.

A name in ``liqlab.__all__`` must be used by the package's own code outside
its definition, by an acceptance criterion or by the benchmark's workloads.
A function that only its own tests call belongs in those tests, as an
oracle.  Uses are the identifiers in the code (names, attributes and
imports), so a mention in a docstring or a comment does not count, and
neither does ``liqlab/__init__.py``, which imports every public name.  In
the same places, every field of a public dataclass must be read.  The
tests read those files and edit none.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import liqlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(liqlab.__file__).resolve().parent


def _identifiers(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_is_reached():
    reached = (_identifiers(_parse(ROOT / "tests" / "test_acceptance.py"))
               | _identifiers(_parse(ROOT / "liqbench" / "workloads.py")))
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in _parse(path).body:
            # a definition's use of its own name is recursion, not a caller
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            reached |= _identifiers(stmt) - {own}
    unreached = [f"{getattr(liqlab, name).__module__}.{name}" for name in liqlab.__all__
                 if (inspect.isfunction(getattr(liqlab, name))
                     or inspect.isclass(getattr(liqlab, name)))
                 and name not in reached]
    assert unreached == []


def _field_reads(path: Path) -> set[str]:
    tree = _parse(path)
    # ``f(seed=path.seed)`` only hands a field on under its own name
    copies = {id(kw.value) for node in ast.walk(tree) if isinstance(node, ast.Call)
              for kw in node.keywords
              if isinstance(kw.value, ast.Attribute) and kw.value.attr == kw.arg}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in copies
            and not (path.name == "cli.py" and isinstance(node.value, ast.Name)
                     and node.value.id == "args")}


def test_every_public_field_is_read():
    # A field is read where an attribute of its name is loaded (``x.field``),
    # except in a keyword argument of the same name and on cli.py's argparse
    # ``args``.  The match is by name alone, so a field can still escape when
    # another object there has an attribute of the same name.
    read = set()
    for path in [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py",
                 ROOT / "liqbench" / "workloads.py"]:
        read |= _field_reads(path)
    unread = [f"{name}.{field.name}" for name in liqlab.__all__
              if inspect.isclass(getattr(liqlab, name))
              and dataclasses.is_dataclass(getattr(liqlab, name))
              for field in dataclasses.fields(getattr(liqlab, name))
              if field.name not in read]
    assert unread == []
