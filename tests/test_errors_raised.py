"""Every error type in bsmg.errors is raised somewhere in the library, so a
type whose last raise is deleted goes with it."""

import ast
from pathlib import Path

import bsmg

PACKAGE = Path(bsmg.__file__).parent


def _declared(path):
    """The names of the classes defined at the top level of path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def _raised(path):
    """The names path raises: `raise E`, `raise E(...)`, `raise m.E(...)`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_scans_read_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("class A(Exception):\n    pass\n\n\nclass B(A):\n"
                      "    def f(self):\n        raise A('no')\n\n\n"
                      "raise errors.B\nraise C\nraise\n")
    assert _declared(sample) == ["A", "B"]
    assert sorted(_raised(sample)) == ["A", "B", "C"]


def test_every_error_type_is_raised():
    declared = _declared(PACKAGE / "errors.py")
    assert "BsmgError" in declared and len(declared) > 20
    raised = {name for path in sorted(PACKAGE.rglob("*.py"))
              for name in _raised(path)}
    assert sorted(set(declared) - {"BsmgError"} - raised) == []
