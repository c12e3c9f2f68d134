"""No module of the package imports a name it never uses, or
scipy.spatial (the package builds its hulls itself).

Checked with the standard library's ast, so no linter is needed: a name
bound by an import counts as used when the module loads it anywhere
(attribute chains start with a loaded name) or lists it in __all__.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mchords"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    bound[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_finder_sees_an_unused_import():
    src = ("from __future__ import annotations\nimport math\nimport os.path\n"
           "from .a import b, c as d, e\n__all__ = ['e']\n"
           "def f(x: d):\n    return os.path.join(x)\n")
    assert unused_imports(src) == [(2, "math"), (4, "b")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set:
    mods = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            mods |= {node.module} | {node.module + "." + a.name for a in node.names}
    return mods


def test_finder_sees_scipy_spatial():
    for src in ("import scipy.spatial\n", "from scipy import spatial\n",
                "def f():\n    from scipy.spatial import ConvexHull\n"):
        assert "scipy.spatial" in imported_modules(src)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_spatial(path):
    mods = imported_modules(path.read_text(encoding="utf-8"))
    assert not [m for m in mods if m == "scipy.spatial" or m.startswith("scipy.spatial.")]
