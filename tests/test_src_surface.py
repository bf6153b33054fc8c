"""theta is exact, and what only tests need lives in tests/oracles.py: no
module under src/bsmg defines, imports or reads the interval theta, the
landing-point step of the return-time cocycle, or the test-only names that
moved to the oracles."""

import ast
from pathlib import Path

import bsmg
from bsmg.dynamics import ThetaValue

PACKAGE = Path(bsmg.__file__).parent

GONE = {
    # the interval theta and its error
    "from_interval", "_at_both_ends", "PrecisionError",
    # the return time with its landing point
    "beta_step", "_beta",
    # moved to tests/oracles.py
    "torsion_vanishing_modulus", "torsion_shadow_valuation",
    "enumerate_levels", "canonical_edge", "to_json",
}
# the kind an interval theta carried
GONE_KIND = "interval"


def gone_names(path):
    """'name:line: what' for every definition, import, name or attribute of
    GONE in the module at path, and every "interval" string constant."""
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name in GONE:
            found.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, ast.alias) and node.name in GONE:
            found.append((node.lineno, f"imports {node.name}"))
        elif isinstance(node, ast.Name) and node.id in GONE:
            found.append((node.lineno, f"reads {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr in GONE:
            found.append((node.lineno, f"reads {node.attr}"))
        elif isinstance(node, ast.Constant) and node.value == GONE_KIND:
            found.append((node.lineno, f"names the kind {GONE_KIND!r}"))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def test_the_guard_finds_a_gone_name(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .errors import PrecisionError\n"
        "class ThetaValue:\n"
        "    def from_interval(cls, lo, hi):\n"
        "        return cls('interval', lo, hi)\n"
        "def beta_step(n, x, theta):\n"
        "    return G.to_json(), canonical_edge(x)\n"
        "interval_list = 'an interval'\n")
    assert gone_names(sample) == [
        "sample.py:1: imports PrecisionError",
        "sample.py:3: defines from_interval",
        "sample.py:4: names the kind 'interval'",
        "sample.py:5: defines beta_step",
        "sample.py:6: reads canonical_edge",
        "sample.py:6: reads to_json"]


def test_no_gone_name_under_src():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 15
    assert [hit for path in paths for hit in gone_names(path)] == []


def test_theta_holds_no_bounds():
    assert ThetaValue.__slots__ == ("kind", "frac", "u", "w", "v")
    assert {ThetaValue.from_rational(3).kind,
            ThetaValue.golden().kind} == {"rational", "golden"}
