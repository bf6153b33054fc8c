"""Command line frontend: every module behind one binary.

Subcommands mirror the package layout (bs, tree, groupoid, cocycle,
profinite, dynamics, suite). All leaf commands accept --format, --seed, and
--config FILE; the config file holds flat key=value lines that are spliced
in as flags, so unknown keys are rejected by the normal argument parser.
Exit codes: 0 success, 1 a verification check failed, 2 usage error.

Each process compiles only what its command runs: the top level imports
nothing of the package beyond errors and words, and every handler imports
the module it fronts inside its own body.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import BsmgError
from .words import (BSParams, GroupWord, classify_isomorphism,
                    conjugation_exponents, modular_hom, normalize,
                    same_element)


def _fraction(text):
    # exponent notation is refused: Fraction would expand "1e100000" into
    # the whole integer
    if "e" not in text and "E" not in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational number: {text!r}")


def _theta(text):
    from .dynamics import ThetaValue
    if text.strip().lower() == "golden":
        return ThetaValue.golden()
    return ThetaValue.from_rational(_fraction(text))


def _id_list(text):
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _params(args):
    return BSParams(args.p, args.q)


def _word(text):
    return GroupWord.parse(text)


def _plain(value):
    """JSON-ready rendering: exact values become strings, not floats."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


def _emit(doc, fmt):
    doc = _plain(doc)
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return
    rows = doc.pop("rows", None)
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if rows:
            fields = sorted({k for row in rows for k in row})
            writer.writerow(fields)
            for row in rows:
                writer.writerow([_cell(row.get(k)) for k in fields])
        else:
            fields = sorted(doc)
            writer.writerow(fields)
            writer.writerow([_cell(doc[k]) for k in fields])
        return
    for key in sorted(doc):
        print(f"{key}: {_cell(doc[key])}")
    for row in rows or ():
        print("  " + " ".join(f"{k}={_cell(row[k])}" for k in sorted(row)))


def _cell(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


# -- handlers -------------------------------------------------------------------


def cmd_bs_normalize(args):
    form = normalize(_word(args.word), _params(args))
    return {"word": args.word.strip(), "normal_form": str(form),
            "t_length": form.t_length, "trivial": form.is_trivial()}, 0


def cmd_bs_modular(args):
    return {"value": modular_hom(_word(args.word), _params(args))}, 0


def cmd_bs_same(args):
    verdict = same_element(_word(args.word), _word(args.other), _params(args))
    return {"same_element": verdict}, 0


def cmd_bs_classify_iso(args):
    if 0 in (args.p, args.q, args.r, args.s):
        raise ValueError("parameters must be nonzero")
    return {"isomorphic": classify_isomorphism(args.p, args.q,
                                               args.r, args.s)}, 0


def cmd_bs_conjugation(args):
    n, m = conjugation_exponents(_word(args.g), _word(args.x),
                                 _params(args), bound=args.bound)
    return {"n": n, "m": m}, 0


def _vertex(text, params):
    from . import tree
    return tree.canonical_vertex(_word(text), params)


def cmd_tree_distance(args):
    from . import tree
    params = _params(args)
    return {"distance": tree.distance(_vertex(args.u, params),
                                      _vertex(args.v, params))}, 0


def cmd_tree_geodesic(args):
    from . import tree
    params = _params(args)
    path = tree.geodesic(_vertex(args.u, params), _vertex(args.v, params))
    return {"length": path.length, "signs": list(path.signs()),
            "vertices": [v.to_text() for v in path.vertices]}, 0


def cmd_tree_stabilizer_index(args):
    from . import tree
    params = _params(args)
    got = tree.stabilizer_index(_vertex(args.u, params),
                                _vertex(args.v, params))
    return {"index": got}, 0


def cmd_tree_neighbors(args):
    from . import tree
    params = _params(args)
    rows = [{"edge": edge.to_text(), "sign": edge.sign,
             "vertex": vertex.to_text()}
            for edge, vertex in tree.neighbors(_vertex(args.v, params))]
    return {"vertex": _vertex(args.v, params).to_text(), "rows": rows}, 0


def _load_groupoid(path):
    from .groupoid.core import FiniteMeasuredGroupoid
    with open(path, encoding="utf-8") as handle:
        return FiniteMeasuredGroupoid.from_doc(json.load(handle))


def cmd_groupoid_validate(args):
    from .groupoid.core import validate
    violations = validate(_load_groupoid(args.infile))
    doc = {"valid": not violations, "violations": violations}
    return doc, 1 if violations else 0


def cmd_groupoid_index(args):
    from .groupoid.core import Subgroupoid, index, local_index_of_pair
    G = _load_groupoid(args.infile)
    H = Subgroupoid.generated_by(G, _id_list(args.arrows))
    if not 0 <= args.unit < G.n_units:
        raise ValueError(f"unit {args.unit} out of range")
    return {"unit": args.unit, "subgroupoid_arrows": len(H),
            "index": index(G, H, args.unit),
            "local_index": local_index_of_pair(
                G, range(G.n_arrows), H.ids, args.unit)}, 0


def cmd_groupoid_random(args):
    import random

    from .groupoid.randomgen import (partition_groupoid,
                                     random_action_instance, random_groupoid,
                                     random_masses, random_partition)
    rng = random.Random(args.seed)
    if args.kind == "partition":
        masses = random_masses(rng, args.units)
        blocks = random_partition(rng, range(args.units))
        G = partition_groupoid(masses, blocks)
        if G.n_arrows > args.arrows:
            raise ValueError(
                f"the partition groupoid drawn has {G.n_arrows} arrows, more "
                f"than --arrows {args.arrows}")
    elif args.kind == "action":
        G = random_action_instance(rng, max_units=args.units,
                                   max_arrows=args.arrows)
    else:
        G = random_groupoid(rng, max_units=args.units, max_arrows=args.arrows)
    return G.to_doc(), 0


def cmd_cocycle_level_model(args):
    from .cocycle.levelmodel import BSLevelModel
    model = BSLevelModel(_params(args), args.k, args.l)
    checked = 0
    if args.verify_corollary:
        checked = model.check_modular_identity()
    return {"p": args.p, "q": args.q, "k": args.k, "l": args.l,
            "floors": [model.N, model.Nprime],
            "product": model.expected_ratio,
            "arrows_checked": checked}, 0


def cmd_cocycle_flow_type(args):
    from .cocycle.mackey import classify_type, one_loop_model
    loops = [_fraction(part) for part in args.loops.split(",") if part.strip()]
    if not loops:
        raise ValueError("need at least one loop value")
    label = classify_type(one_loop_model(loops))
    return {"kind": label.kind, "lambda": label.lam}, 0


def cmd_cocycle_scaled_product(args):
    from .cocycle.mackey import classify_type, scaled_product_model
    label = classify_type(scaled_product_model(_fraction(args.ratio), args.n))
    return {"kind": label.kind, "lambda": label.lam}, 0


def cmd_cocycle_modular_pair(args):
    from .cocycle.core import modular_pair
    from .groupoid.core import Subgroupoid
    G = _load_groupoid(args.infile)
    S = Subgroupoid.generated_by(G, _id_list(args.sub))
    D, K = modular_pair(G, S)
    return {"subgroupoid_arrows": len(S),
            "d": [str(v) for v in D.values],
            "k": [str(v) for v in K.values]}, 0


def cmd_profinite_verify(args):
    import random

    from .profinite import verify_limit_shadow
    params = _params(args)
    counts = verify_limit_shadow(params, args.K, args.L,
                                 rng=random.Random(args.seed))
    doc = {"p": args.p, "q": args.q, "K": args.K, "L": args.L}
    doc.update(counts)
    return doc, 0


def cmd_profinite_sigma(args):
    from .profinite import TruncatedProfiniteInt, sigma_inverse, sigma_map
    value = TruncatedProfiniteInt.parse(args.value, _params(args))
    fn = sigma_inverse if args.inverse else sigma_map
    out = fn(value, args.k, args.l)
    return {"input": value.to_text(), "result": out.to_text(),
            "modulus": out.modulus}, 0


def cmd_profinite_unit(args):
    from .profinite import (TruncatedProfiniteInt, check_unit_fixes_level,
                            u0_membership)
    value = TruncatedProfiniteInt.parse(args.value, _params(args))
    doc = {"value": value.to_text(), "is_unit": value.is_unit()}
    if value.is_unit():
        doc["u0"] = u0_membership(value)
        doc["fixes_level"] = check_unit_fixes_level(value, args.k, args.l)
    return doc, 0


def cmd_dynamics_beta(args):
    from .dynamics import beta_cocycle
    theta = _theta(args.theta)
    return {"value": beta_cocycle(args.n, _fraction(args.x), theta)}, 0


def cmd_dynamics_rotation(args):
    from .dynamics import rotation_model_orbit
    rep = rotation_model_orbit(_theta(args.theta), args.N, steps=args.steps)
    return {"kind": rep.kind, "period": rep.period,
            "degenerate": rep.degenerate, "grid_points": rep.grid_points,
            "discrepancy": rep.discrepancy,
            "steps": rep.steps}, 0


def cmd_dynamics_components(args):
    from .dynamics import component_counts
    table = component_counts(args.c, args.n, args.r, args.s,
                             args.kmax, args.lmax)
    rows = [{"k": k, "l": l, "count": table[(k, l)]}
            for (k, l) in sorted(table)]
    return {"modulus": args.n, "rows": rows}, 0


def cmd_dynamics_cesaro(args):
    from .dynamics import BernoulliBase, CylinderSet, cesaro_mixing_test
    rep = cesaro_mixing_test(
        BernoulliBase(), _theta(args.theta),
        [(Fraction(0), Fraction(1, 2))], CylinderSet.of({0: 1}),
        [(Fraction(1, 4), Fraction(5, 4))], CylinderSet.of({2: 0}),
        args.horizon)
    return {"horizon": rep.horizon, "average": rep.average,
            "target": rep.target, "gap": rep.gap,
            "independent_from": rep.independent_from,
            "burn_in_bound": rep.burn_in_bound}, 0


def cmd_dynamics_words(args):
    from .dynamics import n_element_words
    words = n_element_words(_params(args), args.count)
    return {"words": [w.to_text() for w in words]}, 0


def cmd_suite(args):
    from .suite import run_suite
    results = run_suite(args.name, seed=args.seed, max_cases=args.cases)
    for row in results:
        mark = "PASS" if row.passed else "FAIL"
        print(f"{mark} {row.name} ({row.cases} cases): {row.detail}")
    summary = {
        "bundle": args.name,
        "seed": args.seed,
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "checks": [{"name": r.name, "passed": r.passed, "cases": r.cases,
                    "detail": r.detail} for r in results],
    }
    print(json.dumps(summary, sort_keys=True, separators=(",", ":")))
    return None, 0 if all(r.passed for r in results) else 1


# -- parser wiring ----------------------------------------------------------------


def _read_config(path):
    tokens = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            tokens.extend([f"--{key}", value.strip()])
    return tokens


def _expand_config(argv):
    """Replace --config FILE with the file's key=value pairs as flags.

    The pairs are spliced in right after the command path, so flags given
    on the command line itself take precedence and unknown keys fail the
    normal argument validation.
    """
    out = []
    spliced = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a file path")
            spliced.extend(_read_config(argv[i + 1]))
            i += 2
            continue
        if token.startswith("--config="):
            spliced.extend(_read_config(token.split("=", 1)[1]))
            i += 1
            continue
        out.append(token)
        i += 1
    path_len = 0
    for token in out[:2]:
        if token.startswith("-"):
            break
        path_len += 1
    return out[:path_len] + spliced + out[path_len:]


def _pq(parser, r_s=False):
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--q", type=int, required=True)
    if r_s:
        parser.add_argument("--r", type=int, required=True)
        parser.add_argument("--s", type=int, required=True)


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with "-" and a digit as a value, so that
    --theta -5/3 means --theta=-5/3: argparse's own test takes only -4 and
    -1.5 for negative numbers. Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="json", help="output format")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized commands")

    top = _Parser(
        prog="bsmg",
        description="Exact finite models for Baumslag-Solitar measured "
                    "group theory. Global flags go after the subcommand; "
                    "--config FILE supplies key=value defaults.")
    groups = top.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, help_text):
        sub = group.add_parser(name, parents=[common], help=help_text)
        sub.set_defaults(handler=handler)
        return sub

    bs = groups.add_parser(
        "bs", help="words, normal forms, the modular homomorphism")
    bs_actions = bs.add_subparsers(dest="action", required=True)
    sub = leaf(bs_actions, "normalize", cmd_bs_normalize,
               "push-right normal form of a word")
    _pq(sub)
    sub.add_argument("--word", required=True)
    sub = leaf(bs_actions, "modular", cmd_bs_modular,
               "modular homomorphism value of a word")
    _pq(sub)
    sub.add_argument("--word", required=True)
    sub = leaf(bs_actions, "same", cmd_bs_same,
               "whether two words are the same group element")
    _pq(sub)
    sub.add_argument("--word", required=True)
    sub.add_argument("--other", required=True)
    sub = leaf(bs_actions, "classify-iso", cmd_bs_classify_iso,
               "whether BS(p,q) and BS(r,s) are isomorphic")
    _pq(sub, r_s=True)
    sub = leaf(bs_actions, "conjugation", cmd_bs_conjugation,
               "conjugation exponents (n, m) with g x^n g^-1 = x^m")
    _pq(sub)
    sub.add_argument("--g", required=True)
    sub.add_argument("--x", required=True)
    sub.add_argument("--bound", type=int, default=64)

    tr = groups.add_parser("tree", help="the coset tree")
    tr_actions = tr.add_subparsers(dest="action", required=True)
    for name, handler, text in (
            ("distance", cmd_tree_distance, "tree distance of two vertices"),
            ("geodesic", cmd_tree_geodesic, "the reduced path between "
                                            "two vertices"),
            ("stabilizer-index", cmd_tree_stabilizer_index,
             "index of the two-vertex stabilizer in the first stabilizer")):
        sub = leaf(tr_actions, name, handler, text)
        _pq(sub)
        sub.add_argument("--u", required=True, help="word naming a vertex")
        sub.add_argument("--v", required=True, help="word naming a vertex")
    sub = leaf(tr_actions, "neighbors", cmd_tree_neighbors,
               "all neighbors of a vertex, outgoing first")
    _pq(sub)
    sub.add_argument("--v", required=True, help="word naming a vertex")

    gp = groups.add_parser("groupoid", help="finite measured groupoids")
    gp_actions = gp.add_subparsers(dest="action", required=True)
    sub = leaf(gp_actions, "validate", cmd_groupoid_validate,
               "check the groupoid axioms of a serialized instance")
    sub.add_argument("--in", dest="infile", required=True, metavar="FILE")
    sub = leaf(gp_actions, "index", cmd_groupoid_index,
               "index of the subgroupoid generated by given arrows")
    sub.add_argument("--in", dest="infile", required=True, metavar="FILE")
    sub.add_argument("--unit", type=int, required=True)
    sub.add_argument("--arrows", default="",
                     help="comma-separated arrow ids, e.g. 3,7,12")
    sub = leaf(gp_actions, "random", cmd_groupoid_random,
               "emit a random instance as round-trippable JSON")
    sub.add_argument("--units", type=int, default=8)
    sub.add_argument("--arrows", type=int, default=240)
    sub.add_argument("--kind", choices=("partition", "action", "any"),
                     default="any")

    co = groups.add_parser("cocycle", help="modular pairs and flow types")
    co_actions = co.add_subparsers(dest="action", required=True)
    sub = leaf(co_actions, "level-model", cmd_cocycle_level_model,
               "two-floor level model and its product identity")
    _pq(sub)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--verify-corollary", action="store_true",
                     help="check the product identity on every arrow")
    sub = leaf(co_actions, "flow-type", cmd_cocycle_flow_type,
               "type of the one-unit model with the given loop values")
    sub.add_argument("--loops", required=True,
                     help="comma-separated rationals, e.g. 3/2,2")
    sub = leaf(co_actions, "scaled-product", cmd_cocycle_scaled_product,
               "type of the n-cycle model with one scaling defect")
    sub.add_argument("--ratio", required=True)
    sub.add_argument("--n", type=int, required=True)
    sub = leaf(co_actions, "modular-pair", cmd_cocycle_modular_pair,
               "modular pair of a serialized groupoid and a subgroupoid")
    sub.add_argument("--in", dest="infile", required=True, metavar="FILE")
    sub.add_argument("--sub", default="",
                     help="generating arrow ids of the subgroupoid")

    pf = groups.add_parser("profinite", help="truncated profinite arithmetic")
    pf_actions = pf.add_subparsers(dest="action", required=True)
    sub = leaf(pf_actions, "verify", cmd_profinite_verify,
               "exhaustive scaling and unit laws at one level")
    _pq(sub)
    sub.add_argument("--K", type=int, required=True)
    sub.add_argument("--L", type=int, required=True)
    sub = leaf(pf_actions, "sigma", cmd_profinite_sigma,
               "apply the scaling map or its exact inverse")
    _pq(sub)
    sub.add_argument("--value", required=True, metavar="R@(K,L)")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--inverse", action="store_true")
    sub = leaf(pf_actions, "unit", cmd_profinite_unit,
               "unit membership and which submodule levels it fixes")
    _pq(sub)
    sub.add_argument("--value", required=True, metavar="R@(K,L)")
    sub.add_argument("--k", type=int, default=0)
    sub.add_argument("--l", type=int, default=0)

    dy = groups.add_parser("dynamics", help="coupling and mixing diagnostics")
    dy_actions = dy.add_subparsers(dest="action", required=True)
    sub = leaf(dy_actions, "beta", cmd_dynamics_beta,
               "return-time cocycle value")
    sub.add_argument("--theta", required=True, help="rational or 'golden'")
    sub.add_argument("--x", required=True, help="point in [0, |theta|)")
    sub.add_argument("--n", type=int, required=True)
    sub = leaf(dy_actions, "rotation", cmd_dynamics_rotation,
               "orbit period or discrepancy of the rotation model")
    sub.add_argument("--theta", required=True)
    sub.add_argument("--N", type=int, default=1, help="circumference")
    sub.add_argument("--steps", type=int, default=0,
                     help="orbit length for the irrational path")
    sub = leaf(dy_actions, "components", cmd_dynamics_components,
               "orbit count table of the scaled steps on Z/n")
    for flag in ("c", "n", "r", "s", "kmax", "lmax"):
        sub.add_argument(f"--{flag}", type=int, required=True)
    sub = leaf(dy_actions, "cesaro", cmd_dynamics_cesaro,
               "Cesaro mixing gap of the skew product")
    sub.add_argument("--theta", default="golden")
    sub.add_argument("--horizon", type=int, default=2000)
    sub = leaf(dy_actions, "words", cmd_dynamics_words,
               "kernel words acting trivially on coupling points")
    _pq(sub)
    sub.add_argument("--count", type=int, default=10)

    sub = leaf(groups, "suite", cmd_suite,
               "run a verification bundle and print per-check results")
    # the names of suite.BUNDLES, written out so the parser never imports
    # the suite
    sub.add_argument("name", choices=("all", "dynamics", "lemmas"),
                     help="which bundle to run")
    sub.add_argument("--cases", type=int, default=None,
                     help="cap the case count of every check")

    return top


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv)
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        doc, code = args.handler(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        # first, so a BsmgError that is also a ValueError (a bad arrow id)
        # reads as the usage error it is
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (BsmgError, AssertionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    if doc is not None:
        _emit(doc, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
