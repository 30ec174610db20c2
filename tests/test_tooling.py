import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "foldcx"


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
