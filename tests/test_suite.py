"""The bundled verification checks run clean and reproducibly."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import bsmg
import bsmg.suite as suite_mod
from bsmg.suite import BUNDLES, CheckResult, run_suite

REGISTRY_ORDER = [name for name, _, _ in BUNDLES["all"]]


def test_all_bundle_passes():
    rows = run_suite("all", seed=1, max_cases=2)
    assert [r.name for r in rows] == REGISTRY_ORDER
    for r in rows:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.cases >= 1


def test_lemma_bundle_is_deterministic():
    one = run_suite("lemmas", seed=3, max_cases=1)
    two = run_suite("lemmas", seed=3, max_cases=1)
    assert one == two
    assert all(isinstance(r, CheckResult) for r in one)


def test_unknown_bundle():
    with pytest.raises(KeyError):
        run_suite("everything")


def test_failures_become_rows(monkeypatch):
    def boom(rng, cases):
        raise AssertionError("forced failure")

    monkeypatch.setitem(suite_mod.BUNDLES, "boom", (("boom-check", boom, 1),))
    rows = run_suite("boom")
    assert len(rows) == 1
    assert rows[0].passed is False
    assert "forced failure" in rows[0].detail


def test_any_exception_becomes_a_row_and_the_cli_exits_1(monkeypatch, capsys):
    from bsmg.cli import main

    def fine(rng, cases):
        return cases, "fine"

    def divide(rng, cases):
        return cases, str(1 // 0)

    monkeypatch.setitem(suite_mod.BUNDLES, "dynamics", (
        ("before", fine, 2), ("divide", divide, 1), ("after", fine, 3)))
    rows = run_suite("dynamics")
    assert [(r.name, r.passed, r.cases) for r in rows] == [
        ("before", True, 2), ("divide", False, 0), ("after", True, 3)]
    assert rows[1].detail == "ZeroDivisionError: integer division or modulo by zero"

    assert main(["suite", "dynamics"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[:3] == [
        "PASS before (2 cases): fine",
        "FAIL divide (0 cases): ZeroDivisionError: integer division or "
        "modulo by zero",
        "PASS after (3 cases): fine"]
    assert json.loads(lines[3])["failed"] == 1
    assert len(lines) == 4 and err == ""


def test_a_failed_check_survives_optimized_mode():
    # the checks raise VerificationFailure, not assert, so a broken law
    # still fails its row under python -O, naming the failing instance
    script = textwrap.dedent("""
        import bsmg.suite as suite
        from bsmg.cocycle.mackey import TypeLabel

        suite.classify_type = lambda G: TypeLabel("II")
        suite.BUNDLES["flow"] = (("flow", suite.check_flow_types, 7),)
        print(suite.run_suite("flow")[0].detail)
    """)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(bsmg.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("VerificationFailure: scaled product misclassified "
                           "at length 1, type II\n")
