"""Each command imports only the modules it runs.

Every process compiles the package modules it imports, so a light command
must not pay for the heavy ones. The loaded modules are read off
`python -X importtime`, which names each module when it is first imported.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import bsmg
from bsmg import suite
from bsmg.cli import build_parser

ENV = dict(os.environ, PYTHONPATH=str(Path(bsmg.__file__).parent.parent))


def loaded(*args):
    """The bsmg modules imported by `python -X importtime *args`."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-500:]
    names = {line.rsplit("|", 1)[1].strip()
             for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "bsmg"}


def command(*argv):
    return loaded("-m", "bsmg.cli", *argv)


def under(modules, *prefixes):
    return sorted(m for m in modules for p in prefixes
                  if m == p or m.startswith(p + "."))


BASE = {"bsmg", "bsmg.errors", "bsmg.words"}


def test_bs_normalize_loads_only_words():
    assert command("bs", "normalize", "--p", "2", "--q", "3",
                   "--word", "t a^2 T a^-3") == BASE


def test_profinite_verify_adds_only_profinite():
    assert command("profinite", "verify", "--p", "2", "--q", "3", "--K", "1",
                   "--L", "1") == BASE | {"bsmg.profinite"}


def test_dynamics_loads_no_groupoid_cocycle_or_suite():
    modules = command("dynamics", "rotation", "--theta", "golden",
                      "--steps", "10")
    assert "bsmg.dynamics" in modules
    assert under(modules, "bsmg.groupoid", "bsmg.cocycle", "bsmg.suite") == []


def test_groupoid_random_loads_no_cocycle_suite_tree_or_dynamics():
    modules = command("groupoid", "random", "--seed", "4")
    assert "bsmg.groupoid.randomgen" in modules
    assert under(modules, "bsmg.cocycle", "bsmg.suite", "bsmg.tree",
                 "bsmg.dynamics") == []


def test_subpackages_load_their_exports_on_first_access():
    # the package namespaces no longer import every submodule
    assert under(loaded("-c", "import bsmg.groupoid.core"),
                 "bsmg.groupoid.pseudogroup", "bsmg.groupoid.quotient",
                 "bsmg.tree") == []
    assert "bsmg.cocycle.mackey" not in loaded(
        "-c", "import bsmg.cocycle.levelmodel")


def test_quotient_names_the_function_after_its_module_loads():
    import bsmg.groupoid.quotient  # noqa: F401  (binds the submodule)
    from bsmg.groupoid import quotient

    assert not isinstance(quotient, ModuleType)
    assert quotient is sys.modules["bsmg.groupoid.quotient"].quotient


def test_suite_choices_are_the_bundles():
    groups = next(action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))
    name = next(action for action in groups.choices["suite"]._actions
                if action.dest == "name")
    assert list(name.choices) == sorted(suite.BUNDLES)


# the modules the parent tree loaded for each command, pinned
FLOW_TYPE = BASE | {"bsmg._kernels", "bsmg.cocycle", "bsmg.cocycle.core",
                    "bsmg.cocycle.mackey", "bsmg.cocycle.values",
                    "bsmg.groupoid", "bsmg.groupoid.core",
                    "bsmg.groupoid.pseudogroup"}
COMPONENTS = BASE | {"bsmg.dynamics", "bsmg.profinite"}


def test_flow_type_loads_its_eleven_modules():
    modules = command("cocycle", "flow-type", "--loops", "3/2")
    assert modules == FLOW_TYPE and len(modules) == 11


def test_components_adds_at_most_the_kernels():
    modules = command("dynamics", "components", "--c", "1", "--n", "12",
                      "--r", "2", "--s", "3", "--kmax", "1", "--lmax", "1")
    assert COMPONENTS <= modules <= COMPONENTS | {"bsmg._kernels"}
