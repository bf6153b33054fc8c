"""The four workloads: inputs made from a seed, and one pass over them.

Each workload builds its inputs in __init__ (that is the set-up the
benchmark times as setup_s, together with interpreter start and the import
of bsmg). Its `segments` list, run in order, is one pass: each entry is
(label, fn) and fn(ops) runs one part of the pass (a rung, a suite seed, a
command). The worker times every segment, so a pass's wall time can be
taken part by part. A pass attempts the same operations in the same number
every time, whatever the seed; only the values change. Every call into bsmg
goes through ops.call, which counts it and counts it as failed if it
raises; every result goes through a check from checks.py.

bsmg is reached through module attributes (levelmodel.BSLevelModel,
dynamics.beta_cocycle, ...) so that the traced run's recorders, which
replace those attributes, see the benchmark's own calls too.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd

import checks
from tracing import LEMMA_NAMES

import bsmg.groupoid.core as gcore
import bsmg.groupoid.randomgen as randomgen
from bsmg import dynamics, profinite, suite, tree, words
from bsmg.cocycle import levelmodel, mackey

FAILED = object()


class Ops:
    """Counts the program calls of a run and collects check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()
        self.mismatches = Counter()

    def call(self, label, fn, *args, **kwargs):
        """fn(*args, **kwargs), or FAILED if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing call is counted, the run goes on
            self.failed += 1
            self.errors[f"{label}: {type(exc).__name__}: {str(exc)[:160]}"] += 1
            return FAILED

    def verify(self, check, *args):
        try:
            check(*args)
        except checks.CheckFailed as exc:
            self.mismatches[str(exc)] += 1


# -- level-ladder ------------------------------------------------------------

# (p, q), (k, l), full GroupoidCocycle.check of D and K, validate.
# The full checks and validate scan all arrow pairs, so they stop at 900
# arrows, where validate takes seconds; the model, modular_pair,
# check_modular_identity, the ergodic decomposition and the index go on to
# 32,400 arrows. Arrow counts are (N + N')^2.
LADDER = (
    ((2, 3), (1, 0), True, True),       # 25 arrows
    ((2, 3), (1, 1), True, True),       # 225
    ((2, 3), (2, 1), True, True),       # 900
    ((2, 3), (2, 2), False, False),     # 8,100
    ((2, 3), (3, 2), False, False),     # 32,400
    ((4, 6), (1, 0), True, True),       # 100
    ((4, 6), (2, 0), True, True),       # 400
    ((4, 6), (2, 1), False, False),     # 3,600
    ((2, -3), (1, 0), True, True),      # 25
    ((2, -3), (2, 1), True, False),     # 900
    ((2, -3), (2, 2), False, False),    # 8,100
)


class LevelLadder:
    """BSLevelModel at a ladder of levels: a few large principal groupoids
    whose pairwise scans do nearly all the work."""

    def __init__(self, seed, root):
        rungs = list(LADDER)
        random.Random(f"level-ladder:{seed}").shuffle(rungs)
        self.segments = [
            (f"BS({p},{q}) level ({k},{l})",
             partial(self._rung, p=p, q=q, k=k, l=l, full=full, axioms=axioms))
            for (p, q), (k, l), full, axioms in rungs]

    def _rung(self, ops, p, q, k, l, full, axioms):
        model = ops.call("BSLevelModel", levelmodel.BSLevelModel,
                         words.BSParams(p, q), k, l)
        if model is FAILED:
            return
        G, S = model.groupoid, model.S
        n, n1 = checks.floor_sizes(p, q, k, l)
        ops.verify(checks.check_arrow_count, p, q, k, l, G.n_arrows)
        pair = ops.call("modular_cocycles", model.modular_cocycles)
        if pair is not FAILED:
            D, K = pair
            ops.verify(checks.check_modular_values, p, q, n, n1, G.src, G.rng,
                       D.values, K.values)
            if full:
                ops.call("GroupoidCocycle.check", D.check)
                ops.call("GroupoidCocycle.check", K.check)
        checked = ops.call("check_modular_identity", model.check_modular_identity)
        if checked is not FAILED:
            ops.verify(checks.check_identity_count, p, q, k, l, checked)
        if axioms:
            problems = ops.call("validate", gcore.validate, G)
            if problems is not FAILED:
                ops.verify(checks.check_no_violations, problems)
        dec = ops.call("ErgodicDecomposition", gcore.ErgodicDecomposition, S)
        if dec is not FAILED:
            ops.verify(checks.check_floor_components, n, n1, dec.components,
                       dec.masses)
        indices = ops.call("index", _indices, G, S)
        if indices is not FAILED:
            ops.verify(checks.check_all_equal, indices, 2,
                       f"[G:S] on BS({p},{q}) level ({k},{l})")


# -- lemma-bundle --------------------------------------------------------------

SUITE_SEEDS = 10
SAMPLED_GROUPOIDS = 4
FLOW_MODELS = 6


class LemmaBundle:
    """run_suite("lemmas", seed) over a list of seeds made from the
    benchmark seed: hundreds of small random groupoids, built and thrown
    away. No suite check calls flow_type or mackey_range_int, so a few
    scaled product models go through them here."""

    def __init__(self, seed, root):
        self.suite_seeds = [seed * 1000 + i for i in range(SUITE_SEEDS)]
        self.sample_keys = [f"lemma-bundle:{seed}:{i}"
                            for i in range(SAMPLED_GROUPOIDS)]
        self.registry = [(name, cases) for name, _, cases in suite.LEMMA_CHECKS]
        self.segments = [(f"run_suite seed {s}", partial(self._suite, seed=s))
                         for s in self.suite_seeds]
        self.segments += [(f"sample {key}", partial(self._sample, key=key))
                          for key in self.sample_keys]
        rng = random.Random(f"lemma-bundle:{seed}:flow")
        models = []
        while len(models) < FLOW_MODELS:
            ratio = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            if ratio != 1:
                models.append((ratio, rng.randint(1, 12)))
        self.segments.append(("flow types", partial(self._flow_types,
                                                    models=models)))

    def _suite(self, ops, seed):
        rows = ops.call("run_suite", suite.run_suite, "lemmas", seed)
        if rows is not FAILED:
            ops.verify(checks.check_suite_rows,
                       [(r.name, r.passed, r.cases, r.detail) for r in rows],
                       self.registry)

    def _sample(self, ops, key):
        G = ops.call("random_groupoid", randomgen.random_groupoid,
                     random.Random(key))
        if G is FAILED:
            return
        dec = ops.call("ErgodicDecomposition", gcore.ErgodicDecomposition, G)
        if dec is not FAILED:
            ops.verify(checks.check_partition, G.n_units, G.src, G.rng,
                       dec.component_of)
        # one operation per subgroupoid, so every pass attempts the same
        # number of operations whatever the sizes the seed picked
        whole = ops.call("index", _indices, G, gcore.whole(G))
        if whole is not FAILED:
            ops.verify(checks.check_all_equal, whole, 1, "[G:G]")
        units = ops.call("index", _indices, G, gcore.Subgroupoid(G, (), check=False))
        if units is not FAILED:
            ops.verify(checks.check_unit_indices, G.src, G.n_units, units)


    @staticmethod
    def _flow_types(ops, models):
        for ratio, n in models:
            labels = ops.call("flow_type", mackey.flow_type,
                              mackey.scaled_product_model(ratio, n), ratio)
            if labels is not FAILED:
                ops.verify(checks.check_scaled_product_type, ratio, n,
                           [(t.kind, t.lam) for t in labels])


def _indices(G, H):
    """[G:H]_x at every unit x."""
    return [gcore.index(G, H, x) for x in range(G.n_units)]


# -- bs-dynamics ---------------------------------------------------------------

BETA_SPAN = 1000
EXTRA_RATIONAL_THETAS = 3
CESARO_HORIZONS = (1000, 3000, 10000)
GOLDEN_STEPS = (1000, 10000, 100000)
RATIONAL_ORBITS = 8
WORD_PARAMS = ((2, 3), (4, 6), (2, -3))
WORD_LETTERS = (1000, 10000, 100000)
COUPLING_PARAMS = ((2, 3), (2, 5), (4, 6), (2, -3))
COUPLING_X = (0, 2, 5)
STABILIZER_PARAMS = ((2, 3), (4, 6), (2, -3))
STABILIZER_RADII = range(1, 9)
SHADOW_LEVELS = (((2, 3), (1, 1)), ((2, 3), (3, 3)), ((2, 3), (5, 5)),
                 ((4, 6), (1, 1)), ((4, 6), (4, 4)),
                 ((2, -3), (2, 2)), ((2, -3), (4, 4)))
# Known fault: affine_floor starts from float(value.a), which overflows
# here. Counted as failed until it is fixed; then checked like the rest.
HUGE_N = (10 ** 400, -10 ** 400)


def _random_word(rng, letters):
    runs, total = [], 0
    while total < letters:
        exp = rng.choice((-2, -1, 1, 2))
        runs.append((rng.choice("at"), exp))
        total += abs(exp)
    return words.GroupWord(runs)


def _relator_product(rng, p, q, letters):
    """A product of conjugates of t a^p t^-1 a^-q and its inverse."""
    rel = words.GroupWord((("t", 1), ("a", p), ("t", -1), ("a", -q)))
    runs, total = [], 0
    while total < letters:
        w = _random_word(rng, 8)
        r = rel if rng.random() < 0.5 else rel.inverse()
        conjugate = w * r * w.inverse()
        runs.extend(conjugate.runs)
        total += len(conjugate)
    return words.GroupWord(runs)


class BSDynamics:
    """The group side: exact Fraction and Q(phi) arithmetic, no groupoid."""

    def __init__(self, seed, root):
        rng = random.Random(f"bs-dynamics:{seed}")
        thetas = [Fraction(3, 2), Fraction(-5, 3)]
        thetas += [Fraction(rng.choice((-1, 1)) * rng.randint(1, 40),
                            rng.randint(1, 40))
                   for _ in range(EXTRA_RATIONAL_THETAS)]
        self.sweeps = [(None, Fraction(1, 2))]  # None: the golden ratio
        self.sweeps += [(th, abs(th) * Fraction(rng.randrange(8), 8))
                        for th in thetas]
        self.orbits = []
        while len(self.orbits) < RATIONAL_ORBITS:
            theta = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            if theta != 1:
                self.orbits.append((theta, rng.randint(1, 6)))
        self.words = {}   # (p, q) -> [(relator product, word with t-sum != 0)]
        for p, q in WORD_PARAMS:
            for letters in WORD_LETTERS:
                word = _random_word(rng, letters)
                if word.t_exponent_sum() == 0:
                    word = word * words.GroupWord.t()
                self.words.setdefault((p, q), []).append(
                    (_relator_product(rng, p, q, letters), word))
        per_params = 2 * 10 * len(COUPLING_X)
        kappas = [rng.randrange(10 ** 6)
                  for _ in range(len(COUPLING_PARAMS) * per_params)]
        shadow_seed = rng.randrange(2 ** 32)
        self.segments = [(f"beta theta={theta or 'golden'}",
                          partial(self._beta, theta=theta, x=x))
                         for theta, x in self.sweeps]
        self.segments.append(("beta huge n", self._beta_huge))
        self.segments += [(f"cesaro horizon {h}", partial(self._cesaro, horizon=h))
                          for h in CESARO_HORIZONS]
        self.segments += [
            (f"coupling BS({p},{q})",
             partial(self._coupling, p=p, q=q,
                     kappas=kappas[i * per_params:(i + 1) * per_params]))
            for i, (p, q) in enumerate(COUPLING_PARAMS)]
        self.segments.append(("rotation", self._rotation))
        self.segments += [(f"normalize BS({p},{q})",
                           partial(self._normalize, p=p, q=q))
                          for p, q in WORD_PARAMS]
        self.segments.append(("stabilizer", self._stabilizer))
        self.segments += [
            (f"limit shadow BS({p},{q}) ({big_k},{big_l})",
             partial(self._limit_shadow, p=p, q=q, big_k=big_k, big_l=big_l,
                     seed=shadow_seed + i))
            for i, ((p, q), (big_k, big_l)) in enumerate(SHADOW_LEVELS)]

    def _beta(self, ops, theta, x):
        value = dynamics.ThetaValue.golden() if theta is None else \
            dynamics.ThetaValue.from_rational(theta)
        ms = []
        for n in range(-BETA_SPAN, BETA_SPAN + 1):
            m = ops.call("beta_cocycle", dynamics.beta_cocycle, n, x, value)
            if m is FAILED:
                continue
            ms.append(m)
            if theta is None:
                ops.verify(checks.check_landing_golden, n, x, m)
            else:
                ops.verify(checks.check_landing_rational, n, x, theta, m)
        ops.verify(checks.check_monotone, ms,
                   1 if theta is None or theta > 0 else -1)

    def _beta_huge(self, ops):
        for n in HUGE_N:
            m = ops.call("beta_cocycle", dynamics.beta_cocycle, n,
                         Fraction(1, 2), dynamics.ThetaValue.golden())
            if m is not FAILED:
                ops.verify(checks.check_landing_golden, n, Fraction(1, 2), m)

    def _cesaro(self, ops, horizon):
        rep = ops.call(
            "cesaro_mixing_test", dynamics.cesaro_mixing_test,
            dynamics.BernoulliBase(), dynamics.ThetaValue.golden(),
            [(Fraction(0), Fraction(1, 2))], dynamics.CylinderSet.of({0: 1}),
            [(Fraction(1, 4), Fraction(5, 4))],
            dynamics.CylinderSet.of({2: 0}), horizon)
        if rep is not FAILED:
            ops.verify(checks.check_cesaro, rep.target, rep.gap)

    def _coupling(self, ops, p, q, kappas):
        params = words.BSParams(p, q)
        kernel = ops.call("n_element_words", dynamics.n_element_words,
                          params, 10)
        if kernel is FAILED:
            kernel = [None] * 10
        kappas = iter(kappas)
        for theta in (dynamics.ThetaValue.from_rational(Fraction(3, 2)),
                      dynamics.ThetaValue.golden()):
            for w in kernel:
                for xj in COUPLING_X:
                    self._fix(ops, params, theta, w, Fraction(xj, 7),
                              next(kappas))

    def _fix(self, ops, params, theta, word, x, residue):
        pt = dynamics.coupling_point(params, x, residue, (6, 6))
        out = ops.call("coupling_action", dynamics.coupling_action, word, pt,
                       theta, params)
        if out is FAILED:
            return
        out_x = out.x if theta.kind == "rational" else (out.x.a, out.x.b)
        want_x = x if theta.kind == "rational" else (x, 0)
        ops.verify(checks.check_fixed_point, want_x, (pt.kappa.residue, (6, 6)),
                   out_x, (out.kappa.residue, out.kappa.level))

    def _rotation(self, ops):
        golden = dynamics.ThetaValue.golden()
        for steps in GOLDEN_STEPS:
            rep = ops.call("rotation_model_orbit", dynamics.rotation_model_orbit,
                           golden, 1, steps=steps)
            if rep is not FAILED:
                bound = Fraction(1, 1000) if steps == max(GOLDEN_STEPS) else None
                ops.verify(checks.check_golden_discrepancy, steps,
                           rep.discrepancy, bound)
        for theta, circumference in self.orbits:
            rep = ops.call("rotation_model_orbit", dynamics.rotation_model_orbit,
                           dynamics.ThetaValue.from_rational(theta),
                           circumference)
            if rep is not FAILED:
                ops.verify(checks.check_rational_period, theta, circumference,
                           rep.period)

    def _normalize(self, ops, p, q):
        params = words.BSParams(p, q)
        for trivial_word, other in self.words[(p, q)]:
            nf = ops.call("normalize", words.normalize, trivial_word, params)
            if nf is not FAILED:
                ops.verify(checks.check_trivial, nf.is_trivial(), True,
                           f"relator product in BS({p},{q})")
            nf = ops.call("normalize", words.normalize, other, params)
            if nf is FAILED:
                continue
            ops.verify(checks.check_trivial, nf.is_trivial(), False,
                       f"word with t-sum {other.t_exponent_sum()}")
            again = ops.call("normalize", words.normalize, nf.to_word(), params)
            if again is not FAILED:
                ops.verify(checks.check_trivial, again == nf, True,
                           "normalize is idempotent")

    def _stabilizer(self, ops):
        for p, q in STABILIZER_PARAMS:
            params = words.BSParams(p, q)
            for r in STABILIZER_RADII:
                up, down = (ops.call("stabilizer_index", self._index_of_t, params, e)
                            for e in (r, -r))
                if FAILED not in (up, down):
                    ops.verify(checks.check_stabilizer, p, q, r, up, down)

    @staticmethod
    def _index_of_t(params, e):
        """[Stab(base) : Stab(base) and Stab(t^e base)]."""
        return tree.stabilizer_index(
            tree.base_vertex(params),
            tree.canonical_vertex(words.GroupWord.t(e), params))

    def _limit_shadow(self, ops, p, q, big_k, big_l, seed):
        counts = ops.call("verify_limit_shadow", profinite.verify_limit_shadow,
                          words.BSParams(p, q), big_k, big_l,
                          rng=random.Random(seed))
        if counts is not FAILED:
            ops.verify(checks.check_limit_shadow, p, q, big_k, big_l, counts)


# -- cli-readme ----------------------------------------------------------------


class CliReadme:
    """The README's command-line examples, each in its own process, one
    after another, as a user would type them."""

    def __init__(self, seed, root):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.scratch = root / "perfbench" / "results"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.groupoid_file = self.scratch / f"cli-readme-G-{os.getpid()}.json"
        self.random_seed = seed
        self.timings = []   # (label, start, end) of every command run
        p, q = 2, 3
        n, n1 = checks.floor_sizes(p, q, 1, 0)
        d0 = gcd(abs(p), abs(q))
        q0 = abs(q) // d0
        sigma_mod = checks.level_modulus(p, q, 2, 1)
        ratio = Fraction(abs(q), abs(p))
        loop = Fraction(3, 2)
        self.commands = [
            (["bs", "normalize", "--p", "2", "--q", "3", "--word", "t a^2 T a^-3"],
             {"normal_form": "e", "trivial": True}),
            (["bs", "modular", "--p", "2", "--q", "3", "--word", "t^2 a"],
             {"value": str(ratio ** 2)}),
            (["bs", "conjugation", "--p", "2", "--q", "3", "--g", "t", "--x", "a"],
             {"n": abs(p), "m": q if p > 0 else -q}),
            (["tree", "stabilizer-index", "--p", "2", "--q", "3", "--u", "e",
              "--v", "t a t"], {"index": d0 * q0 ** 2}),
            (["cocycle", "level-model", "--p", "2", "--q", "3", "--k", "1",
              "--l", "0", "--verify-corollary"],
             {"arrows_checked": (n + n1) ** 2, "floors": [n, n1],
              "product": str(ratio)}),
            (["cocycle", "flow-type", "--loops", "3/2"],
             {"kind": "III_lambda", "lambda": str(min(loop, 1 / loop))}),
            (["profinite", "sigma", "--p", "2", "--q", "3", "--value", "2@(2,1)",
              "--k", "1", "--l", "0"],
             {"input": "2@(2,1)", "modulus": sigma_mod,
              "result": f"{2 * (abs(p) // d0) % sigma_mod}@(2,1)"}),
        ]
        self.segments = [
            (" ".join(argv[:2]), partial(self._command, argv=argv,
                                         check=checks.check_json_fields,
                                         args=(want, " ".join(argv))))
            for argv, want in self.commands]
        self.segments += [
            ("profinite verify",
             partial(self._command, argv=["profinite", "verify", "--p", "2", "--q",
                                          "3", "--K", "1", "--L", "1"],
                     check=self._check_shadow)),
            ("dynamics rotation",
             partial(self._command, argv=["dynamics", "rotation", "--theta",
                                          "golden", "--steps", "1000"],
                     check=checks.check_rotation_output, args=(1000,))),
            ("groupoid random | validate", self._random_then_validate),
            ("suite lemmas",
             partial(self._command, argv=["suite", "lemmas", "--cases", "2",
                                          "--format", "text", "--seed",
                                          str(seed)],
                     check=checks.check_suite_text, args=(list(LEMMA_NAMES),))),
        ]

    def _run(self, label, argv):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "bsmg.cli", *argv],
                              capture_output=True, text=True, env=self.env,
                              timeout=120, check=False)
        self.timings.append((label, start, time.perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-300:]}")
        return proc.stdout

    def _command(self, ops, argv, check, args=()):
        label = f"{argv[0]}.{argv[1]}"
        out = ops.call(label, self._run, label, argv)
        if out is not FAILED:
            ops.verify(check, out, *args)
        return out

    def _random_then_validate(self, ops):
        doc = self._command(ops, ["groupoid", "random", "--seed",
                                  str(self.random_seed)], lambda out: None)
        if doc is not FAILED:
            self.groupoid_file.write_text(doc, encoding="utf-8")
            self._command(ops, ["groupoid", "validate", "--in",
                                str(self.groupoid_file)],
                          checks.check_json_fields,
                          ({"valid": True, "violations": []}, "groupoid validate"))

    @staticmethod
    def _check_shadow(out):
        doc = checks.check_json_fields(out, {"K": 1, "L": 1}, "profinite verify")
        checks.check_limit_shadow(2, 3, 1, 1, doc)

    def close(self):
        self.groupoid_file.unlink(missing_ok=True)


WORKLOADS = {
    "level-ladder": LevelLadder,
    "lemma-bundle": LemmaBundle,
    "bs-dynamics": BSDynamics,
    "cli-readme": CliReadme,
}

