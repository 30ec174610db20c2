import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "foldcx"
TESTS = ROOT / "tests"


def test_library_has_no_bare_asserts():
    # python -O strips assert statements, so a check that correctness
    # depends on must raise instead
    files = sorted(SOURCE.rglob("*.py"))
    assert files, f"no sources under {SOURCE}"
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "bare assert in " + ", ".join(found)


def test_library_has_no_unused_imports():
    # a module-level import that no name in the module reads is left over
    # from deleted code; __init__.py imports to re-export
    files = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert files, f"no sources under {SOURCE}"
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in (a.asname or a.name.split(".")[0] for a in node.names)
                    if name not in read
                ]
    assert not found, "unused import in " + ", ".join(found)


def test_fold_state_internals_stay_in_folding():
    # the union-find forests, the flat incidence index and the merge queue
    # of folding._FoldState change as it folds; every other module reads a
    # fold state through its methods (compact, neighbours, ...) instead
    internals = {"end_rep", "vpar", "epar", "fpar", "pending", "_roots"}
    files = sorted(p for p in SOURCE.glob("*.py") if p.name != "folding.py")
    assert files, f"no sources under {SOURCE}"
    found = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in internals
    ]
    assert not found, "fold state internals read in " + ", ".join(found)


def test_family_formula_stays_in_families():
    # the family builder lays each skeleton out from the closed form and
    # checks the traced faces against it, once per build; a module that
    # reads the formula too would check a family complex a second time
    files = sorted(p for p in SOURCE.glob("*.py") if p.name != "families.py")
    assert files, f"no sources under {SOURCE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "_closed_form" in (getattr(node, a, None) for a in ("id", "attr", "name"))
    ]
    assert not found, "the family formula is read in " + ", ".join(found)


def _read_names(node) -> set[str]:
    """Every name node reads: loaded names, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def _defined_names(node) -> list[str]:
    """The names a module-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _method_name(node) -> list[str]:
    """The name of a method other than a dunder, which is called implicitly."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    ):
        return [node.name]
    return []


def _private_fields(node) -> list[tuple[ast.AnnAssign, str]]:
    """(statement, field) for each field of a class that is a private
    NamedTuple."""
    if not node.name.startswith("_") or not any(
        isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
    ):
        return []
    return [
        (item, item.target.id)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def _unread(statements, outside: set[str], defined):
    """(statement, name) for each name defined(statement) gives that neither
    outside nor another statement of the list reads."""
    per_statement = [_read_names(node) for node in statements]
    for k, node in enumerate(statements):
        here = set().union(outside, *per_statement[:k], *per_statement[k + 1 :])
        yield from ((node, name) for name in defined(node) if name not in here)


def test_library_has_no_dead_helpers():
    # a module-level function, class or constant, or a method of a library
    # class, that nothing in the library or the demos reads, imports or
    # re-exports is left over from deleted code; its own definition does
    # not count as a use, and neither does a test: a reference that only
    # the tests run belongs in the tests.  So is a field of a private
    # NamedTuple that no library code reads as an attribute
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in (SOURCE, ROOT / "demos")
        for path in sorted(folder.rglob("*.py"))
    }
    assert SOURCE / "__init__.py" in trees, f"no sources under {SOURCE}"
    read = {path: _read_names(tree) for path, tree in trees.items()}
    attributes = {
        node.attr
        for path, tree in trees.items()
        if path.is_relative_to(SOURCE)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        body = trees[path].body
        elsewhere = set().union(*(names for p, names in read.items() if p != path))
        found += [
            f"{path.name}:{node.lineno} {name}"
            for node, name in _unread(body, elsewhere, _defined_names)
        ]
        for k, cls in enumerate(body):
            if isinstance(cls, ast.ClassDef):
                outside = elsewhere.union(*map(_read_names, body[:k] + body[k + 1 :]))
                found += [
                    f"{path.name}:{node.lineno} {cls.name}.{name}"
                    for node, name in _unread(cls.body, outside, _method_name)
                ]
                found += [
                    f"{path.name}:{node.lineno} {cls.name}.{name}"
                    for node, name in _private_fields(cls)
                    if name not in attributes
                ]
    assert not found, "dead helper " + ", ".join(found)


def test_docs_name_what_the_library_defines():
    # a docstring or comment, or the README, that names a private name
    # (`_name`) names something the package still defines: a function,
    # class, assignment target, attribute, argument or field; one that
    # names a member of a library module (`module.name`) names something
    # that module itself defines, not a name it only imports; a file name
    # such as `homology.py` is not a member
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no sources under {SOURCE}"
    scopes = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    by_module, texts = {}, [("README.md", (ROOT / "README.md").read_text())]
    for path in files:
        source = path.read_text()
        defined = by_module[path.stem] = set()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, scopes[1:]):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            if isinstance(node, scopes) and ast.get_docstring(node, clean=False):
                doc = node.body[0]
                texts.append((f"{path.name}:{doc.lineno}", doc.value.value))
        texts += [
            (f"{path.name}:{token.start[0]}", token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    anywhere = set().union(*by_module.values())
    found = []
    for where, text in texts:
        found += [
            f"{where} {name}"
            for name in re.findall(r"(?<![\w.])_[A-Za-z0-9]\w*", text)
            if name not in anywhere
        ]
        found += [
            f"{where} {module}.{name}"
            for module, name in re.findall(r"(?<![\w.])([a-z]\w*)\.(\w+)", text)
            if module in by_module and name != "py" and name not in by_module[module]
        ]
    assert not found, "undefined name in the docs: " + ", ".join(found)


def test_test_imports_are_declared():
    # a test that imports a package the test extra does not list fails to
    # collect after `pip install -e .[test]`
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    extra = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in project["optional-dependencies"]["test"]
    }
    files = sorted(TESTS.glob("*.py"))
    allowed = set(sys.stdlib_module_names) | {"foldcx"} | extra
    allowed |= {path.stem for path in files}
    found = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert files and "foldcx" in found
    assert not found - allowed, f"undeclared test imports: {sorted(found - allowed)}"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demos_run(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_readme_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README.md has no python block"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for block in blocks:
        done = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
