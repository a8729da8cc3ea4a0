"""The package surface: what `qca1d` exports, what its code reaches, and the
names that the benchmark's tracer patches."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path
from types import ModuleType

import qca1d

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qca1d"
README = (ROOT / "README.md").read_text(encoding="utf-8")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", README, re.S)


def imported_from_package(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "qca1d" for alias in node.names}


def test_readme_example_runs():
    blocks = readme_python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert callable(qca1d.verdict_from_json)  # the README's way to read verify --json back


def test_package_exports_what_demos_and_readme_import():
    used = set().union(*map(imported_from_package, readme_python_blocks()),
                       *(imported_from_package(path.read_text(encoding="utf-8"))
                         for path in (ROOT / "demos").glob("*.py")))
    # qca1d.<name> in the prose, the submodules aside
    used |= {name for name in re.findall(r"\bqca1d\.(\w+)\b(?!\.)", README)
             if not (PACKAGE / f"{name}.py").exists()}
    exported = {name for name, value in vars(qca1d).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == used


def referenced_names(node):
    """Identifiers a node names: variables, attributes, and strings that are
    identifiers (a registry or a dispatch table may name a function)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and IDENTIFIER.fullmatch(sub.value):
            found.add(sub.value)
    return found


def test_every_top_level_def_is_reached_by_the_program_or_its_users():
    # roots: cli.main, module-level code other than imports, the dunder
    # methods, and every name that the demos, perfbench or the README's code
    # spans mention; the walk follows names, so two defs of one name are
    # reached together.  A class's methods are defs of their own: reaching
    # the class follows its bases, decorators and fields, not their bodies.
    defs, roots = {}, {"main"}  # defs: name -> [(label, node)]
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (*functions, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((f"{path.name}:{stmt.lineno} {stmt.name}", stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= referenced_names(stmt)
            if isinstance(stmt, ast.ClassDef):
                methods = [sub for sub in stmt.body if isinstance(sub, functions)]
                for method in methods:
                    label = f"{path.name}:{method.lineno} {stmt.name}.{method.name}"
                    defs.setdefault(method.name, []).append((label, method))
                    if method.name.startswith("__") and method.name.endswith("__"):
                        roots.add(method.name)
                stmt.body = [sub for sub in stmt.body if sub not in methods]
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        roots |= set(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    for span in re.findall(r"```.*?```|`[^`\n]+`", README, re.S):
        roots |= set(IDENTIFIER.findall(span))
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [ref for _, node in defs[name] for ref in referenced_names(node) if ref in defs]
    unreached = [label for name, entries in defs.items() if name not in reached
                 for label, _ in entries]
    assert unreached == []


def test_traced_calls_resolve_but_the_three_cli_never_makes(monkeypatch):
    # the tracer skips a name it cannot resolve, and its span then reads 0;
    # the CLI calls these three through other layers, never by its own name
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
    unresolved = [f"{module}.{attr}" for module, attr, _ in tracing.TRACED_CALLS
                  if getattr(importlib.import_module(module), attr, None) is None]
    assert unresolved == ["qca1d.cli.global_matrix", "qca1d.cli.unitarity_defect",
                          "qca1d.cli.evolve"]
