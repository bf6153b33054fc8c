"""The bundled verification checks run clean and reproducibly."""

import hashlib
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


# sha256 of repr([(name, passed, cases, detail), ...]) for run_suite("lemmas",
# seed, max_cases=20), recorded before action groupoids were certified: the
# certified products, cocycle checks and validate must not move a row
LEMMA_DIGESTS = {
    11: "badd1d5ba4624e6e6e20f64377567616a7f055a8832c0f3e5bd33c19c6247291",
    12: "16851ed62fcb730ad8e06ef86cb90d8d72e01c2cc6d6ef5e7b8ca6ae2b0f73a7",
    13: "dd0071b2dd467259dbb69d8f57e7d6c561e0b6593d69364316fc45c19ca5047d",
}


@pytest.mark.parametrize("seed", sorted(LEMMA_DIGESTS))
def test_lemma_rows_are_pinned(seed):
    rows = [(r.name, r.passed, r.cases, r.detail)
            for r in run_suite("lemmas", seed, max_cases=20)]
    assert all(passed for _, passed, _, _ in rows)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() \
        == LEMMA_DIGESTS[seed]


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
