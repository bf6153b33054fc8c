"""Suite verdicts are decided in exact arithmetic: no float reaches the
condition of a _require in suite.py."""

import ast
from pathlib import Path

import bsmg

SUITE = Path(bsmg.__file__).parent / "suite.py"


def _float_verdicts(path):
    """float( calls and float literals inside the first argument of each
    _require call."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_require" and node.args):
            continue
        for sub in ast.walk(node.args[0]):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                    and sub.func.id == "float":
                yield f"{path.name}:{sub.lineno}: float("
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                yield f"{path.name}:{sub.lineno}: literal {sub.value!r}"


def test_scan_finds_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("_require(gap < 0.05, 'no')\n"
                      "_require(n >= int(2 / float(w)), 'no', w=0.5)\n"
                      "_require(gap < Fraction(1, 20), 'ok', gap=float(gap))\n")
    assert list(_float_verdicts(sample)) == [
        "sample.py:1: literal 0.05", "sample.py:2: float("]


def test_suite_verdicts_hold_no_float():
    assert "_require(" in SUITE.read_text(encoding="utf-8")
    assert list(_float_verdicts(SUITE)) == []
