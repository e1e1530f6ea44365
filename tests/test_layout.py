"""Every def and class in src/airsnet is referenced somewhere in src/.

A definition that only the tests use is API surface that exists for tests.
The walk collects each module's function and class definitions and every
`Name` / `Attribute` reference across the package, and lists the
definitions nothing in src/ refers to. Dunders are called by Python itself
and are exempt. Run this file directly to print the list.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "airsnet"


def unreferenced_definitions(root: Path = SRC) -> list[str]:
    defined = []
    used = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(d for d in defined if d.split(":", 1)[1] not in used)


def test_every_definition_is_referenced_in_src():
    assert unreferenced_definitions() == []


def test_walk_flags_what_nothing_references(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Orphan:\n"
        "    def __init__(self):\n"
        "        self.kept = used\n"
        "    def helper(self):\n"
        "        pass\n"
        "    def kept(self):\n"
        "        pass\n"
    )
    (tmp_path / "b.py").write_text("def used():\n    pass\n")
    assert unreferenced_definitions(tmp_path) == ["a.py:Orphan", "a.py:helper"]


if __name__ == "__main__":
    print(unreferenced_definitions())
