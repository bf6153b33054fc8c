"""End-to-end command line checks through main(argv)."""

import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest

import bsmg
from bsmg.cli import main
from bsmg.groupoid.core import FiniteMeasuredGroupoid, validate
from bsmg.groupoid.randomgen import partition_groupoid


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def pair_file(tmp_path):
    G = partition_groupoid([Fraction(1, 2), Fraction(1, 2)], [(0, 1)])
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(G.to_doc()))
    return path


class TestWords:
    def test_modular_exact_output(self, capsys):
        code, out, err = run(capsys, "bs", "modular", "--p", "2", "--q", "3",
                             "--word", "t^2 a^5")
        assert code == 0
        assert out == '{"value":"9/4"}\n'

    def test_formats(self, capsys):
        base = ("bs", "modular", "--p", "2", "--q", "3", "--word", "t^2 a^5")
        _, out, _ = run(capsys, *base, "--format", "csv")
        assert out == "value\n9/4\n"
        _, out, _ = run(capsys, *base, "--format", "text")
        assert out == "value: 9/4\n"

    def test_normalize_detects_the_identity(self, capsys):
        doc = run_json(capsys, "bs", "normalize", "--p", "2", "--q", "3",
                       "--word", "t a^2 T a^-3")
        assert doc["trivial"] is True
        assert doc["t_length"] == 0

    def test_same_element(self, capsys):
        doc = run_json(capsys, "bs", "same", "--p", "2", "--q", "3",
                       "--word", "t a^2 T", "--other", "a^3")
        assert doc == {"same_element": True}

    def test_classify_iso(self, capsys):
        doc = run_json(capsys, "bs", "classify-iso", "--p", "2", "--q", "3",
                       "--r", "3", "--s", "2")
        assert doc == {"isomorphic": True}
        code, _, err = run(capsys, "bs", "classify-iso", "--p", "0", "--q",
                           "3", "--r", "2", "--s", "3")
        assert code == 2
        assert err.startswith("usage error:")


class TestTree:
    def test_distance_uses_canonical_vertices(self, capsys):
        doc = run_json(capsys, "tree", "distance", "--p", "2", "--q", "3",
                       "--u", "a^5", "--v", "t")
        assert doc == {"distance": 1}

    def test_stabilizer_index_is_directional(self, capsys):
        doc = run_json(capsys, "tree", "stabilizer-index", "--p", "2",
                       "--q", "3", "--u", "e", "--v", "t")
        assert doc == {"index": 3}
        doc = run_json(capsys, "tree", "stabilizer-index", "--p", "2",
                       "--q", "3", "--u", "t", "--v", "e")
        assert doc == {"index": 2}

    def test_geodesic(self, capsys):
        doc = run_json(capsys, "tree", "geodesic", "--p", "2", "--q", "3",
                       "--u", "T", "--v", "t")
        assert doc["length"] == 2
        assert len(doc["vertices"]) == 3

    def test_neighbors_outgoing_first(self, capsys):
        doc = run_json(capsys, "tree", "neighbors", "--p", "2", "--q", "3",
                       "--v", "e")
        assert [row["sign"] for row in doc["rows"]] == [1, 1, 1, -1, -1]


class TestGroupoid:
    def test_validate_clean(self, capsys, pair_file):
        doc = run_json(capsys, "groupoid", "validate", "--in", str(pair_file))
        assert doc == {"valid": True, "violations": []}

    def test_validate_names_the_broken_axiom(self, capsys, tmp_path):
        G = partition_groupoid([Fraction(1, 2), Fraction(1, 2)], [(0, 1)])
        doc = G.to_doc()
        doc["arrows"][2]["inverse"] = 2
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "groupoid", "validate", "--in", str(path))
        assert code == 1
        parsed = json.loads(out)
        assert parsed["valid"] is False
        assert any("inverse" in v for v in parsed["violations"])

    def test_index(self, capsys, pair_file):
        doc = run_json(capsys, "groupoid", "index", "--in", str(pair_file),
                       "--unit", "0", "--arrows", "2")
        assert doc == {"unit": 0, "subgroupoid_arrows": 4,
                       "index": 1, "local_index": "1"}
        doc = run_json(capsys, "groupoid", "index", "--in", str(pair_file),
                       "--unit", "0", "--arrows", "")
        # the local index conditions on the component of the subgroupoid,
        # so the trivial sub in one two-point class gives 2 * (1/2) = 1
        assert doc["index"] == 2 and doc["local_index"] == "1"
        code, _, err = run(capsys, "groupoid", "index", "--in",
                           str(pair_file), "--unit", "9", "--arrows", "")
        assert code == 2 and "out of range" in err

    @pytest.mark.parametrize("arrows,bad", [("5,7", 5), ("-1", -1)])
    def test_index_rejects_unknown_arrow_ids(self, capsys, tmp_path, arrows,
                                             bad):
        code, out, _ = run(capsys, "groupoid", "random", "--seed", "4")
        assert code == 0
        path = tmp_path / "G.json"
        path.write_text(out)
        code, out, err = run(capsys, "groupoid", "index", "--in", str(path),
                             "--unit", "1", f"--arrows={arrows}")
        assert (code, out) == (2, "")
        assert err == (f"usage error: arrow {bad} is not one of the 4 arrows "
                       "of the groupoid\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "groupoid", "validate", "--in", "no.json")
        assert code == 2
        assert err.startswith("usage error:")

    def test_random_keeps_to_the_arrow_budget(self, capsys):
        doc = run_json(capsys, "groupoid", "random", "--kind", "any",
                       "--units", "4", "--arrows", "4", "--seed", "3")
        assert len(doc["arrows"]) <= 4

    def test_random_round_trips_and_is_deterministic(self, capsys):
        argv = ("groupoid", "random", "--kind", "partition", "--units", "4",
                "--seed", "5")
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        G = FiniteMeasuredGroupoid.from_doc(json.loads(out1))
        assert validate(G) == []


class TestCocycle:
    def test_level_model_corollary(self, capsys):
        doc = run_json(capsys, "cocycle", "level-model", "--p", "2", "--q",
                       "3", "--k", "1", "--l", "0", "--verify-corollary")
        assert doc == {"p": 2, "q": 3, "k": 1, "l": 0, "floors": [2, 3],
                       "product": "3/2", "arrows_checked": 25}

    def test_failed_identity_survives_optimized_mode(self):
        # a witness whose target is skewed for one unit breaks the constant
        # pushforward scalar; under python -O the check must still raise,
        # and the command must report it as a verification failure
        script = textwrap.dedent("""
            import sys
            from bsmg.cli import main
            from bsmg.cocycle.core import modular_pair
            from bsmg.cocycle.levelmodel import BSLevelModel
            from bsmg.groupoid.pseudogroup import PartialIso

            class Skewed(PartialIso):
                def target(self, x):
                    return self.G.n_units - 1 if x == 1 else super().target(x)

            def skewed_cocycles(model):
                first = Skewed(model.groupoid, model.witnesses[0].arrows)
                return modular_pair(model.groupoid, model.S,
                                    witnesses=[first] + model.witnesses[1:])

            BSLevelModel.modular_cocycles = skewed_cocycles
            sys.exit(main(["cocycle", "level-model", "--p", "2", "--q", "3",
                           "--k", "1", "--l", "0", "--verify-corollary"]))
        """)
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(bsmg.__file__)))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1, done.stdout + done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith(
            "verification failure: pushforward scalar not constant at unit 1")

    def test_flow_type(self, capsys):
        doc = run_json(capsys, "cocycle", "flow-type", "--loops", "3/2")
        assert doc == {"kind": "III_lambda", "lambda": "2/3"}
        doc = run_json(capsys, "cocycle", "flow-type", "--loops", "2,3")
        assert doc == {"kind": "III_1", "lambda": None}

    def test_scaled_product(self, capsys):
        doc = run_json(capsys, "cocycle", "scaled-product", "--ratio", "3/2",
                       "--n", "2")
        assert doc == {"kind": "III_lambda", "lambda": "4/9"}

    def test_modular_pair_on_a_file(self, capsys, pair_file):
        doc = run_json(capsys, "cocycle", "modular-pair", "--in",
                       str(pair_file), "--sub", "2")
        assert doc == {"subgroupoid_arrows": 4,
                       "d": ["1"] * 4, "k": ["1"] * 4}


class TestProfinite:
    def test_verify_counts(self, capsys):
        doc = run_json(capsys, "profinite", "verify", "--p", "2", "--q", "3",
                       "--K", "1", "--L", "1")
        assert doc["sigma_kernel"] == 24
        assert doc["sigma_roundtrip"] == 24
        assert doc["sigma_composition"] == 20
        assert doc["fix_implies_u0"] == 6
        assert doc["u0_implies_fix"] == 1

    def test_sigma_and_inverse(self, capsys):
        doc = run_json(capsys, "profinite", "sigma", "--p", "2", "--q", "3",
                       "--value", "2@(2,1)", "--k", "1", "--l", "0")
        # sigma keeps the operand's level; only the inverse consumes budget
        assert doc == {"input": "2@(2,1)", "result": "4@(2,1)", "modulus": 12}
        doc = run_json(capsys, "profinite", "sigma", "--p", "2", "--q", "3",
                       "--value", "4@(1,1)", "--k", "1", "--l", "0",
                       "--inverse")
        assert doc == {"input": "4@(1,1)", "result": "2@(0,1)", "modulus": 3}

    def test_budget_is_a_verification_failure(self, capsys):
        code, _, err = run(capsys, "profinite", "sigma", "--p", "2", "--q",
                           "3", "--value", "2@(2,1)", "--k", "3", "--l", "0")
        assert code == 1
        assert err.startswith("verification failure:")

    def test_unit_report(self, capsys):
        doc = run_json(capsys, "profinite", "unit", "--p", "2", "--q", "3",
                       "--value", "5@(1,1)", "--k", "1", "--l", "1")
        assert doc == {"value": "5@(1,1)", "is_unit": True,
                       "u0": False, "fixes_level": True}
        doc = run_json(capsys, "profinite", "unit", "--p", "2", "--q", "3",
                       "--value", "3@(1,1)")
        assert doc == {"value": "3@(1,1)", "is_unit": False}
        code, _, err = run(capsys, "profinite", "unit", "--p", "2", "--q",
                           "3", "--value", "nonsense")
        assert code == 2


class TestDynamics:
    def test_beta(self, capsys):
        doc = run_json(capsys, "dynamics", "beta", "--theta", "3/2",
                       "--x", "0", "--n", "1")
        assert doc == {"value": 1}
        doc = run_json(capsys, "dynamics", "beta", "--theta", "golden",
                       "--x", "0", "--n", "1")
        assert doc == {"value": 1}
        code, _, err = run(capsys, "dynamics", "beta", "--theta", "0",
                           "--x", "0", "--n", "1")
        assert code == 2

    def test_beta_huge_n(self, capsys):
        doc = run_json(capsys, "dynamics", "beta", "--theta", "golden",
                       "--n", "-1000000000000000000000000000", "--x", "1/2")
        # m = ceil((n - x)/phi) = -floor((10^27 + 1/2)/phi)
        assert doc == {"value": -618033988749894848204586834}

    @pytest.mark.parametrize("argv", [
        ("dynamics", "beta", "--theta", "-5/3", "--n", "7", "--x", "1/2"),
        ("dynamics", "beta", "--theta", "-5/3", "--n", "-7", "--x", "1/2"),
        ("dynamics", "beta", "--theta", "-3/2", "--n", "-2", "--x", "-1/2"),
        ("dynamics", "rotation", "--theta", "-1/3", "--N", "3"),
        ("dynamics", "cesaro", "--theta", "-3/2", "--horizon", "40"),
        ("cocycle", "scaled-product", "--ratio", "-2/3", "--n", "3"),
    ])
    def test_a_negative_value_reads_in_both_spellings(self, capsys, argv):
        # argparse took "-5/3" for an option name, so only --theta=-5/3 ran
        joined = []
        for arg in argv:
            if arg[:1] == "-" and arg[1:2].isdigit():
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        assert len(joined) < len(argv)
        assert run(capsys, *argv) == run(capsys, *joined)

    def test_a_negative_theta_as_a_separate_value(self, capsys):
        doc = run_json(capsys, "dynamics", "beta", "--theta", "-5/3",
                       "--n", "7", "--x", "1/2")
        assert doc == {"value": -4}

    def test_rotation(self, capsys):
        doc = run_json(capsys, "dynamics", "rotation", "--theta", "3/2",
                       "--N", "6")
        assert doc["kind"] == "rational" and doc["period"] == 12
        code, _, _ = run(capsys, "dynamics", "rotation", "--theta", "golden")
        assert code == 2

    def test_components_csv(self, capsys):
        code, out, _ = run(capsys, "dynamics", "components", "--c", "1",
                           "--n", "12", "--r", "2", "--s", "3",
                           "--kmax", "1", "--lmax", "1", "--format", "csv")
        assert code == 0
        assert out == "count,k,l\n1,0,0\n3,0,1\n2,1,0\n6,1,1\n"

    def test_words(self, capsys):
        doc = run_json(capsys, "dynamics", "words", "--p", "2", "--q", "3",
                       "--count", "3")
        assert len(doc["words"]) == 3
        assert all(isinstance(w, str) and w for w in doc["words"])

    def test_cesaro_small_horizon(self, capsys):
        doc = run_json(capsys, "dynamics", "cesaro", "--theta", "3/2",
                       "--horizon", "40")
        assert doc["horizon"] == 40
        assert doc["gap"] >= 0


class Edited:
    """A groupoid document file, written when the test runs: the output of
    `groupoid random --seed 11 --kind action --units 5` (5 units, 50 arrows,
    500 product rows) after edit(doc), which returns the document to
    write."""

    def __init__(self, edit):
        self.edit = edit

    def write(self, capsys, tmp_path):
        doc = run_json(capsys, "groupoid", "random", "--seed", "11", "--kind",
                       "action", "--units", "5")
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(self.edit(doc)))
        return str(path)


def arrow_field(g, field, value):
    """Edited with one field of arrow g replaced."""
    def edit(doc):
        doc["arrows"][g][field] = value
        return doc
    return Edited(edit)


def unit_mass(x, value):
    """Edited with the mass of unit x replaced."""
    def edit(doc):
        doc["units"][x]["mass"] = value
        return doc
    return Edited(edit)


def doc_key(key, change):
    """Edited with doc[key] replaced by change(doc[key])."""
    def edit(doc):
        doc[key] = change(doc[key])
        return doc
    return Edited(edit)


def product_result(value):
    def change(rows):
        rows[3][2] = value
        return rows
    return doc_key("products", change)


VALIDATE = ("groupoid", "validate", "--in")
INDEX = ("groupoid", "index", "--arrows", "5", "--unit", "0", "--in")
MODULAR_PAIR = ("cocycle", "modular-pair", "--sub", "5", "--in")
A_LIST = Edited(lambda doc: [doc])


class TestBadInputs:
    """Inputs that once crashed, hung or answered nonsense: each is now a
    usage error with nothing on stdout. A groupoid document whose ids name
    no arrow or unit is one of them (Edited)."""

    @pytest.mark.parametrize("argv, message", [
        (("cocycle", "scaled-product", "--ratio", "2/3", "--n", "0"),
         "the cycle needs n >= 1 units, got 0"),
        (("cocycle", "scaled-product", "--ratio", "2/3", "--n", "-2"),
         "the cycle needs n >= 1 units, got -2"),
        (("cocycle", "scaled-product", "--ratio", "0", "--n", "3"),
         "Radon-Nikodym values must be positive"),
        (("cocycle", "flow-type", "--loops", "0"),
         "Radon-Nikodym values must be positive"),
        (("dynamics", "cesaro", "--horizon", "0"),
         "the horizon must be at least 1, got 0"),
        (("dynamics", "cesaro", "--horizon", "-3"),
         "the horizon must be at least 1, got -3"),
        (("groupoid", "random", "--kind", "action", "--units", "3",
          "--arrows", "3"),
         "an action instance needs at least 2 units and 4 arrows, got "
         "max_units=3 and max_arrows=3"),
        (("groupoid", "random", "--kind", "any", "--arrows", "3"),
         "a random groupoid needs at least 4 arrows, got max_arrows=3"),
        (("groupoid", "random", "--kind", "partition", "--units", "4",
          "--arrows", "4", "--seed", "3"),
         "the partition groupoid drawn has 16 arrows, more than --arrows 4"),
        (("cocycle", "level-model", "--p", "2", "--q", "3", "--k", "-1",
          "--l", "0"),
         "need k >= 1 and l >= 0, got (-1,0)"),
        (("suite", "lemmas", "--cases", "0"),
         "the case cap must be at least 1, got 0"),
        (("suite", "lemmas", "--cases", "-3"),
         "the case cap must be at least 1, got -3"),
        (("profinite", "unit", "--p", "2", "--q", "3", "--value", "5@(1,1)",
          "--k", "-1", "--l", "0"),
         "need k >= 0 and l >= 0, got (-1,0)"),
        (("bs", "conjugation", "--p", "2", "--q", "3", "--g", "t", "--x", "a",
          "--bound", "-1"),
         "the search bound must be at least 0, got -1"),
        (("dynamics", "components", "--c", "0", "--n", "12", "--r", "2",
          "--s", "3", "--kmax", "1", "--lmax", "1"),
         "the step must be a unit mod 12, got 0 (gcd 12)"),
        (("dynamics", "words", "--p", "2", "--q", "3", "--count", "-1"),
         "the word count must be at least 1, got -1"),
        (("tree", "neighbors", "--p", "0", "--q", "3", "--v", "e"),
         "BS(0,3) has p = 0; supported parameters have 2 <= |p| <= |q|"),
        (("tree", "neighbors", "--p", "2", "--q", "0", "--v", "e"),
         "BS(2,0) has q = 0; supported parameters have 2 <= |p| <= |q|"),
        (("dynamics", "cesaro", "--theta", "1/3", "--horizon", "10"),
         "the interval [0, 1/2) of A1 is not inside [0, |theta|] for "
         "theta = 1/3"),
        (("dynamics", "cesaro", "--theta", "1"),
         "the interval [1/4, 5/4) of A2 is not inside [0, |theta|] for "
         "theta = 1"),
        # index answered 9 and 5 (the true values are 8 and 2)
        (INDEX + (arrow_field(7, "source", -1),),
         "the source of arrow 7 is -1, not in [0, 5)"),
        # validate answered valid: true
        (VALIDATE + (doc_key("units", lambda units: []),),
         "the source of arrow 0 is 0, not in [0, 0)"),
        # each of these raised an untyped IndexError or TypeError
        (VALIDATE + (product_result(9999),),
         "an arrow of product row 3 is 9999, not in [0, 50)"),
        (VALIDATE + (doc_key("products", lambda rows: rows + [[5, 1, 0]]),),
         "product row 500: arrows 5 and 1 are not composable"),
        (VALIDATE + (doc_key("products", lambda rows: rows + [[5, 1]]),),
         "product row 500 is not [g, h, g.h]"),
        (VALIDATE + (Edited(lambda doc: {**doc, "rn": ["1"] * 10}),),
         "the document has 10 RN values for 50 arrows"),
        (INDEX + (arrow_field(7, "source", 99),),
         "the source of arrow 7 is 99, not in [0, 5)"),
        (INDEX + (arrow_field(7, "inverse", 9999),),
         "the inverse of arrow 7 is 9999, not in [0, 50)"),
        (MODULAR_PAIR + (arrow_field(7, "range", 5),),
         "the range of arrow 7 is 5, not in [0, 5)"),
        (MODULAR_PAIR + (arrow_field(7, "inverse", -1),),
         "the inverse of arrow 7 is -1, not in [0, 50)"),
        (VALIDATE + (arrow_field(3, "id", 4),), "arrow id 4 appears twice"),
        (VALIDATE + (arrow_field(3, "id", 50),),
         "an arrow id is 50, not in [0, 50)"),
        (VALIDATE + (A_LIST,),
         "a groupoid document is a JSON object, got a list"),
        (INDEX + (A_LIST,), "a groupoid document is a JSON object, got a list"),
        (MODULAR_PAIR + (A_LIST,),
         "a groupoid document is a JSON object, got a list"),
        # each of these ended in an untyped TypeError traceback
        (VALIDATE + (doc_key("arrows", lambda arrows: arrows[:3] + [7]
                             + arrows[4:]),),
         "entry 3 of 'arrows' must be an object, got int"),
        (VALIDATE + (doc_key("units", lambda units: [1] + units[1:]),),
         "entry 0 of 'units' must be an object, got int"),
        (VALIDATE + (doc_key("arrows", lambda arrows: 7),),
         "'arrows' must be a list, got int"),
        (INDEX + (doc_key("units", lambda units: 5),),
         "'units' must be a list, got int"),
        (MODULAR_PAIR + (doc_key("products", lambda rows: 5),),
         "'products' must be a list, got int"),
        (VALIDATE + (doc_key("units", lambda units: [
            {"name": u["name"]} for u in units]),),
         "entry 0 of 'units' has no field 'mass'"),
        (VALIDATE + (Edited(lambda doc: {k: v for k, v in doc.items()
                                         if k != "arrows"}),),
         "the document has no field 'arrows'"),
        (INDEX + (doc_key("arrows", lambda arrows: [
            {k: v for k, v in a.items() if k != "label"} for a in arrows]),),
         "entry 0 of 'arrows' has no field 'label'"),
        # valid: true with exit 0, and a verification failure (exit 1)
        (VALIDATE + (Edited(lambda doc: {**doc, "rn": ["0"] * 50}),),
         "Radon-Nikodym values must be positive"),
        (VALIDATE + (Edited(lambda doc: {**doc, "rn": ["-1"] * 50}),),
         "Radon-Nikodym values must be positive"),
        # each of these ended in an untyped TypeError or ZeroDivisionError
        (VALIDATE + (unit_mass(2, [1]),),
         "the mass of unit 2 is [1], not a rational number"),
        (VALIDATE + (unit_mass(2, "1/0"),),
         "the mass of unit 2 is '1/0', not a rational number"),
        (MODULAR_PAIR + (unit_mass(4, "half"),),
         "the mass of unit 4 is 'half', not a rational number"),
        (VALIDATE + (Edited(lambda doc: {**doc, "rn": [[1]] * 50}),),
         "the RN value of arrow 0 is [1], not a rational number"),
        (VALIDATE + (Edited(lambda doc: {
            **doc, "rn": ["1"] * 7 + ["1/0"] + ["1"] * 42}),),
         "the RN value of arrow 7 is '1/0', not a rational number"),
        # a float once read as its binary expansion, a boolean as 0 or 1
        (VALIDATE + (unit_mass(2, 0.1),),
         "the mass of unit 2 is 0.1, not a rational number"),
        (INDEX + (unit_mass(0, True),),
         "the mass of unit 0 is True, not a rational number"),
        (VALIDATE + (Edited(lambda doc: {**doc, "rn": [1.0] * 50}),),
         "the RN value of arrow 0 is 1.0, not a rational number"),
        (MODULAR_PAIR + (Edited(lambda doc: {
            **doc, "rn": ["1"] * 3 + [False] + ["1"] * 46}),),
         "the RN value of arrow 3 is False, not a rational number"),
        # Fraction expands exponent notation into the whole integer: the
        # first ran past 40 s, the masses would build a billion digits
        (("cocycle", "flow-type", "--loops", "1e100000"),
         "not a rational number: '1e100000'"),
        (("dynamics", "beta", "--theta", "5E-1", "--n", "3", "--x", "1/2"),
         "not a rational number: '5E-1'"),
        (VALIDATE + (unit_mass(2, "1e999999999"),),
         "the mass of unit 2 is '1e999999999', not a rational number"),
        (MODULAR_PAIR + (Edited(lambda doc: {
            **doc, "rn": ["1"] * 7 + ["1E999999999"] + ["1"] * 42}),),
         "the RN value of arrow 7 is '1E999999999', not a rational number"),
    ])
    def test_usage_error(self, capsys, tmp_path, argv, message):
        argv = [arg.write(capsys, tmp_path) if isinstance(arg, Edited)
                else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")


class TestSearchBounds:
    def test_conjugation_past_its_radius_fails_verification(self, capsys):
        code, out, err = run(capsys, "bs", "conjugation", "--p", "2", "--q",
                             "3", "--g", "t", "--x", "t a T", "--bound", "0")
        assert (code, out) == (1, "")
        assert err == "verification failure: distance 2 exceeds radius 0\n"


class TestConfigAndSuite:
    def test_config_splice_and_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("p=2\nq=3\n# comment\nword=t^2 a^5\n")
        code, out, _ = run(capsys, "bs", "modular", "--config", str(cfg))
        assert code == 0
        assert out == '{"value":"9/4"}\n'
        code, out, _ = run(capsys, "bs", "modular", "--config", str(cfg),
                           "--word", "a")
        assert out == '{"value":"1"}\n'

    def test_config_unknown_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p=2\nq=3\nword=a\nbogus=1\n")
        with pytest.raises(SystemExit) as exc:
            main(["bs", "modular", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_config_file_errors(self, capsys, tmp_path):
        code, _, err = run(capsys, "bs", "modular", "--config", "gone.cfg")
        assert code == 2 and err.startswith("usage error:")
        cfg = tmp_path / "noeq.cfg"
        cfg.write_text("just a line\n")
        code, _, err = run(capsys, "bs", "modular", "--config", str(cfg))
        assert code == 2 and "key=value" in err

    def test_suite_lemmas_reproducible(self, capsys):
        argv = ("suite", "lemmas", "--cases", "1")
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert sum(line.startswith("PASS") for line in lines) == 9
        summary = json.loads(lines[-1])
        assert summary["passed"] == 9 and summary["failed"] == 0


class TestLongRatiosAndBounds:
    @pytest.mark.parametrize("loops, want", [
        ("1000000000000037/3", "3/1000000000000037"),
        ("10000000000000000000000013/7", "7/10000000000000000000000013"),
    ])
    def test_flow_type_of_a_long_prime_ratio_returns_at_once(
            self, loops, want):
        # long primes, which trial division up to their square root cannot
        # finish; timed inside a child process, so a hang cannot stall
        script = textwrap.dedent(f"""
            import sys, time
            from bsmg.cli import main
            start = time.perf_counter()
            code = main(["cocycle", "flow-type", "--loops", "{loops}"])
            print(code, time.perf_counter() - start, file=sys.stderr)
        """)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ,
                     PYTHONPATH=os.path.dirname(os.path.dirname(
                         bsmg.__file__))),
            capture_output=True, text=True, timeout=30)
        code, seconds = done.stderr.split()
        assert done.stdout == f'{{"kind":"III_lambda","lambda":"{want}"}}\n'
        assert code == "0" and float(seconds) < 1.0

    @pytest.mark.parametrize("kmax, lmax", [("-1", "1"), ("1", "-1")])
    def test_components_refuses_negative_bounds(self, capsys, kmax, lmax):
        code, out, err = run(capsys, "dynamics", "components", "--c", "1",
                             "--n", "12", "--r", "2", "--s", "3",
                             "--kmax", kmax, "--lmax", lmax)
        assert (code, out) == (2, "")
        assert err == (f"usage error: need kmax >= 0 and lmax >= 0, got "
                       f"({kmax},{lmax})\n")


class TestLevelModelCap:
    @pytest.mark.parametrize("k, l, count", [
        ("9", "9", "634749729177600 arrows, over the cap of 1048576"),
        ("4", "3", "1166400 arrows, over the cap of 1048576"),
        # past the exponents where N or N' alone is over the cap, the
        # powers are not taken
        ("1000000", "1000000", "over 1048576 arrows")])
    def test_a_model_over_the_cap_is_refused_at_once(self, k, l, count):
        # refused before its arrow lists are allocated; timed inside a child
        # process with its address space capped, so a regression fails
        # there instead of taking this process's memory
        script = textwrap.dedent(f"""
            import resource, sys, time
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
            from bsmg.cli import main
            start = time.perf_counter()
            code = main(["cocycle", "level-model", "--p", "2", "--q", "3",
                         "--k", "{k}", "--l", "{l}"])
            print(code, time.perf_counter() - start)
        """)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ,
                     PYTHONPATH=os.path.dirname(os.path.dirname(
                         bsmg.__file__))),
            capture_output=True, text=True, timeout=30)
        code, seconds = done.stdout.split()
        assert done.stderr == f"usage error: level ({k},{l}) has {count}\n"
        assert code == "2" and float(seconds) < 1.0

    def test_the_largest_benchmark_rung_is_under_the_cap(self, capsys):
        doc = run_json(capsys, "cocycle", "level-model", "--p", "2", "--q",
                       "3", "--k", "3", "--l", "2")
        assert doc["floors"] == [72, 108] and (72 + 108) ** 2 <= 2 ** 20

    @pytest.mark.parametrize("k, l", [("30", "-1"), ("0", "30")])
    def test_a_level_below_the_first_is_named_as_such(self, capsys, k, l):
        # the range check comes first, even where the cap would also refuse
        code, out, err = run(capsys, "cocycle", "level-model", "--p", "2",
                             "--q", "3", "--k", k, "--l", l)
        assert (code, out) == (2, "")
        assert err == f"usage error: need k >= 1 and l >= 0, got ({k},{l})\n"

    def test_a_level_whose_floors_do_not_grow_is_built(self, capsys):
        # p0 = 1 in BS(2, 4): N and N' do not depend on k
        doc = run_json(capsys, "cocycle", "level-model", "--p", "2", "--q",
                       "4", "--k", "1000000000", "--l", "3")
        assert doc["floors"] == [16, 32]

    @pytest.mark.parametrize("p, q, k, l", [
        (10 ** 2200, 10 ** 2200 + 1, 1, 0),
        (2, 3, 20, 20)], ids=["p=10^2200", "level-20-20"])
    def test_a_count_past_64_bits_is_not_printed(self, capsys, p, q, k, l):
        # (N + N')^2 of BS(10^2200, 10^2200 + 1) has 4401 digits, past the
        # 4300 that str converts; p and q are written out in full
        start = time.perf_counter()
        code, out, err = run(capsys, "cocycle", "level-model", "--p", str(p),
                             "--q", str(q), "--k", str(k), "--l", str(l))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (f"usage error: level ({k},{l}) has over 1048576 "
                       "arrows\n")


class TestSizeCaps:
    @pytest.mark.parametrize("argv, message", [
        (["profinite", "verify", "--p", "2", "--q", "3", "--K", "40",
          "--L", "40"], "level (40,40) sweeps over 4194304 residues"),
        (["profinite", "verify", "--p", "2", "--q", "3", "--K", "7",
          "--L", "6"],
         "level (7,6) sweeps 5225472 residues, over the cap of 4194304"),
        # d0 = 10^9 and M = d0 at level (0, 0): the unit sweep alone is over
        (["profinite", "verify", "--p", "1000000000", "--q", "1000000000",
          "--K", "0", "--L", "0"],
         "level (0,0) sweeps 1000000000 residues, over the cap of 4194304"),
        # p0 = q0 = 1: the count is past 64 bits and not printed
        (["profinite", "verify", "--p", "2", "--q", "2", "--K", "10" * 20,
          "--L", "10" * 20],
         f"level ({'10' * 20},{'10' * 20}) sweeps over 4194304 residues"),
        (["cocycle", "scaled-product", "--ratio", "2", "--n", "3000000"],
         "the cycle has 3000000 units, over the cap of 16384"),
        (["dynamics", "components", "--c", "1", "--n", "100000000000",
          "--r", "2", "--s", "3", "--kmax", "0", "--lmax", "0"],
         "the table has 100000000000 units, over the cap of 1048576"),
        (["dynamics", "components", "--c", "1", "--n", "2", "--r", "2",
          "--s", "3", "--kmax", "9" * 20, "--lmax", "9" * 20],
         "the table has over 1048576 units"),
        (["dynamics", "rotation", "--theta", "golden", "--steps",
          "100000000"], "the orbit has 100000000 steps, over the cap of 1048576"),
    ], ids=["verify-40-40", "verify-7-6", "verify-d0", "verify-64-bits",
            "scaled-product", "components", "components-64-bits",
            "rotation"])
    def test_an_input_over_its_cap_is_refused_at_once(self, argv, message):
        # refused before anything of its size is allocated; timed inside a
        # child process with its address space capped, as the level model
        # cap is
        script = textwrap.dedent(f"""
            import resource, sys, time
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
            from bsmg.cli import main
            start = time.perf_counter()
            code = main({argv!r})
            print(code, time.perf_counter() - start)
        """)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ,
                     PYTHONPATH=os.path.dirname(os.path.dirname(
                         bsmg.__file__))),
            capture_output=True, text=True, timeout=30)
        code, seconds = done.stdout.split()
        assert done.stderr == f"usage error: {message}\n"
        assert code == "2" and float(seconds) < 1.0

    def test_the_sizes_in_use_are_under_the_caps(self, capsys):
        # the largest residue sweep of the acceptance levels, and the
        # largest steps and component tables of the suite and benchmark
        doc = run_json(capsys, "profinite", "verify", "--p", "2", "--q", "3",
                       "--K", "10", "--L", "2")
        assert doc["sigma_kernel"] == 33 * 9216
        doc = run_json(capsys, "dynamics", "rotation", "--theta", "golden",
                       "--steps", "100000")
        assert doc["steps"] == 100000
        doc = run_json(capsys, "dynamics", "components", "--c", "1", "--n",
                       "80", "--r", "2", "--s", "3", "--kmax", "3",
                       "--lmax", "3")
        assert len(doc["rows"]) == 16
        doc = run_json(capsys, "cocycle", "scaled-product", "--ratio", "3/2",
                       "--n", "80")
        assert doc == {"kind": "III_lambda", "lambda": str(
            Fraction(2, 3) ** 80)}
