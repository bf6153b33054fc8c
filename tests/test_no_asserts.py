"""Library verifications raise typed errors, so `python -O` keeps them."""

import ast
from pathlib import Path

import bsmg

PACKAGE = Path(bsmg.__file__).parent


def _untyped_checks(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield f"{path.name}:{node.lineno}: raise AssertionError"


def test_scan_finds_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("assert x\nraise AssertionError('no')\n"
                      "raise AssertionError\nraise ValueError('ok')\n")
    assert list(_untyped_checks(sample)) == [
        "sample.py:1: assert", "sample.py:2: raise AssertionError",
        "sample.py:3: raise AssertionError"]


def test_library_has_no_assert_or_assertion_error():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    found = [hit for path in paths for hit in _untyped_checks(path)]
    assert found == []
