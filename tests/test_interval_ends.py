"""An interval theta is decided at its two rational ends, in one place: no
module under src/bsmg reads the bounds theta.lo and theta.hi outside
ThetaValue itself, the both-ends helper and theta_is_positive, so interval
bound arithmetic cannot come back as a second path."""

import ast
from pathlib import Path

import bsmg

PACKAGE = Path(bsmg.__file__).parent

BOUNDS = {"lo", "hi"}
# the class that holds the bounds, and the functions that may read them
READERS = {"ThetaValue", "_at_both_ends", "theta_is_positive"}


def bound_reads(path):
    """'name:line: attribute' for every read of .lo or .hi in the module at
    path outside the top-level definitions named in READERS."""
    found = []
    for top in ast.parse(path.read_text("utf-8")).body:
        if getattr(top, "name", None) in READERS:
            continue
        found += [node for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr in BOUNDS]
    return [f"{path.name}:{node.lineno}: {node.attr}"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_the_scan_finds_bound_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def affine_sign(theta, value):\n"
        "    return value.a + value.b * theta.lo\n"
        "def _at_both_ends(theta):\n"
        "    return theta.lo, theta.hi\n"
        "class ThetaValue:\n"
        "    def bounds(self):\n"
        "        return self.lo, self.hi\n"
        "WIDTH = THETA.hi - THETA.lo\n")
    assert bound_reads(sample) == ["sample.py:2: lo", "sample.py:8: hi",
                                   "sample.py:8: lo"]


def test_only_the_both_ends_helper_reads_interval_bounds():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in bound_reads(path)] == []
