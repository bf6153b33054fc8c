"""Span recorders for the traced run, installed from outside the package.

A Tracer wraps the public functions and methods of bsmg that the layer
metrics name. Each wrapper goes on the attribute that callers look up: a
function is replaced in every loaded bsmg module that holds it (so
`bsmg.groupoid.core.component_labels` and `bsmg.cocycle.mackey.
component_labels` both record), a method on its class. Calls made inside
the package are therefore seen too. Nothing in `src/` changes, and
`uninstall()` puts every original back.

A span is (name, start, end, parent, size): the layer name, perf_counter
times, the index of the enclosing span (-1 at the top), and the call's size
(arrows, edges, letters, horizon, modulus, ...). Spans stay in memory until
the caller writes them out. Very hot calls (the groupoid product and the
two exact Q(phi) primitives) are counted, not spanned.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict


def _zero(args, kwargs, result):
    return 0


def _arg(i, key, fn=lambda v: v):
    def size(args, kwargs, result):
        return fn(args[i] if len(args) > i else kwargs[key])
    return size


def _self_attr(read):
    def size(args, kwargs, result):
        return read(args[0])
    return size


def _letters(word):
    """t letters one by one, each a-run as one letter: normalize takes one
    step per t letter and one integer addition per a-run. (A plain letter
    count of a normal form can exceed any machine size.)"""
    return sum(abs(e) if letter == "t" else 1 for letter, e in word.runs)


def _modulus(args, kwargs, result):
    params, big_k, big_l = args[:3]
    d0 = params.d0
    return d0 * abs(params.p // d0) ** big_k * abs(params.q // d0) ** big_l


# (layer, module, attribute, size of the call). The attribute is a function
# name or Class.method; size(args, kwargs, result) reads the work done.
# Where one layer wraps nested entry points (a constructor classmethod and
# __init__), only the innermost one sizes it, so nothing is counted twice.
SPANS = (
    ("kernels.component_labels", "bsmg._kernels", "component_labels",
     _arg(1, "sources", len)),
    ("kernels.perm_closure", "bsmg._kernels", "perm_closure",
     lambda a, k, r: len(r) if r else 0),
    ("groupoid.build", "bsmg.groupoid.core", "FiniteMeasuredGroupoid.__init__",
     _self_attr(lambda G: G.n_arrows)),
    ("groupoid.build", "bsmg.groupoid.core",
     "FiniteMeasuredGroupoid.from_group_action", _zero),
    ("groupoid.build", "bsmg.groupoid.core",
     "FiniteMeasuredGroupoid.from_partial_isos", _zero),
    ("groupoid.build", "bsmg.groupoid.core", "FiniteMeasuredGroupoid.window",
     _zero),
    ("groupoid.build", "bsmg.groupoid.core", "FiniteMeasuredGroupoid.from_doc",
     _zero),
    ("groupoid.validate", "bsmg.groupoid.core", "validate",
     _arg(0, "G", lambda G: G.n_arrows)),
    ("groupoid.restrict", "bsmg.groupoid.core", "restrict",
     lambda a, k, r: r[0].n_arrows),
    ("groupoid.index", "bsmg.groupoid.core", "index_of_pair",
     _arg(0, "G", lambda G: G.n_arrows)),
    ("groupoid.ergodic_decomposition", "bsmg.groupoid.core",
     "ErgodicDecomposition.__init__", _self_attr(lambda d: d.parent.n_units)),
    ("groupoid.generated_by", "bsmg.groupoid.core", "Subgroupoid.generated_by",
     lambda a, k, r: len(r)),
    ("groupoid.witness_family", "bsmg.groupoid.pseudogroup", "witness_family",
     lambda a, k, r: len(r)),
    ("groupoid.quotient", "bsmg.groupoid.quotient", "quotient",
     _arg(0, "G", lambda G: G.n_arrows)),
    ("groupoid.random", "bsmg.groupoid.randomgen", "random_groupoid",
     lambda a, k, r: r.n_arrows),
    ("groupoid.random", "bsmg.groupoid.randomgen", "random_action_instance",
     lambda a, k, r: r.n_arrows),
    ("groupoid.random", "bsmg.groupoid.randomgen", "random_partition_tower",
     lambda a, k, r: r[0].n_arrows),
    ("groupoid.random", "bsmg.groupoid.randomgen", "random_wide_subgroupoid",
     lambda a, k, r: len(r)),
    ("groupoid.random", "bsmg.groupoid.randomgen", "random_subgroup",
     lambda a, k, r: len(r)),
    ("cocycle.level_model", "bsmg.cocycle.levelmodel", "BSLevelModel.__init__",
     _self_attr(lambda m: m.groupoid.n_arrows)),
    ("cocycle.check_modular_identity", "bsmg.cocycle.levelmodel",
     "BSLevelModel.check_modular_identity", lambda a, k, r: r),
    ("cocycle.modular_pair", "bsmg.cocycle.core", "modular_pair",
     _arg(0, "G", lambda G: G.n_arrows)),
    ("cocycle.cohomologous", "bsmg.cocycle.core", "cohomologous",
     _arg(0, "G", lambda G: G.n_arrows)),
    ("cocycle.check", "bsmg.cocycle.values", "GroupoidCocycle.check",
     _self_attr(lambda c: c.G.n_arrows)),
    ("cocycle.mackey_range", "bsmg.cocycle.mackey", "mackey_range",
     _arg(0, "G", lambda G: G.n_arrows)),
    ("cocycle.mackey_range_int", "bsmg.cocycle.mackey", "mackey_range_int",
     _arg(0, "G", lambda G: G.n_arrows)),
    ("cocycle.classify_type", "bsmg.cocycle.mackey", "classify_type",
     _arg(0, "G", lambda G: G.n_arrows)),
    ("cocycle.flow_type", "bsmg.cocycle.mackey", "flow_type",
     _arg(0, "G", lambda G: G.n_arrows)),
    ("words.normalize", "bsmg.words", "normalize", _arg(0, "word", _letters)),
    ("tree.stabilizer_index", "bsmg.tree", "stabilizer_index", _zero),
    ("tree.geodesic", "bsmg.tree", "geodesic", lambda a, k, r: r.length),
    ("profinite.verify_limit_shadow", "bsmg.profinite", "verify_limit_shadow",
     _modulus),
    ("dynamics.beta_cocycle", "bsmg.dynamics", "beta_cocycle", _zero),
    ("dynamics.cesaro_mixing_test", "bsmg.dynamics", "cesaro_mixing_test",
     _arg(6, "horizon")),
    ("dynamics.coupling_action", "bsmg.dynamics", "coupling_action",
     _arg(0, "word", len)),
    ("dynamics.rotation_model_orbit", "bsmg.dynamics", "rotation_model_orbit",
     lambda a, k, r: r.steps),
)

COUNTS = (
    ("groupoid.product", "bsmg.groupoid.core", "FiniteMeasuredGroupoid.product"),
    ("dynamics.affine_floor", "bsmg.dynamics", "affine_floor"),
    ("dynamics.affine_sign", "bsmg.dynamics", "affine_sign"),
)

# The suite checks are reached through bsmg.suite.BUNDLES, so they are
# wrapped there, one layer per check name.
SUITE_BUNDLE = "lemmas"

LEMMA_NAMES = ("index-laws", "local-index-tower", "local-index-group-value",
               "quotient-contract", "modular-transfer", "level-model-identity",
               "mackey-invariance", "flow-classification", "witness-stability")

# Every per-layer metric: (name, unit, how it is read). "self" sums self
# time, "calls" counts spans or counted calls, "size" sums span sizes.
_S, _C, _Z = "s", "count", "size"
LAYER_METRICS = (
    ("kernels.component_labels.s", "s", _S),
    ("kernels.component_labels.calls", "count", _C),
    ("kernels.component_labels.edges", "count", _Z),
    ("kernels.perm_closure.s", "s", _S),
    ("kernels.perm_closure.calls", "count", _C),
    ("kernels.perm_closure.elements", "count", _Z),
    ("groupoid.build.s", "s", _S),
    ("groupoid.build.arrows", "count", _Z),
    ("groupoid.validate.s", "s", _S),
    ("groupoid.validate.arrows", "count", _Z),
    ("groupoid.product.calls", "count", _C),
    ("groupoid.restrict.s", "s", _S),
    ("groupoid.restrict.calls", "count", _C),
    ("groupoid.index.s", "s", _S),
    ("groupoid.index.calls", "count", _C),
    ("groupoid.ergodic_decomposition.s", "s", _S),
    ("groupoid.ergodic_decomposition.calls", "count", _C),
    ("groupoid.generated_by.s", "s", _S),
    ("groupoid.witness_family.s", "s", _S),
    ("groupoid.witness_family.witnesses", "count", _Z),
    ("groupoid.quotient.s", "s", _S),
    ("groupoid.random.s", "s", _S),
    ("cocycle.level_model.s", "s", _S),
    ("cocycle.level_model.arrows", "count", _Z),
    ("cocycle.check_modular_identity.s", "s", _S),
    ("cocycle.modular_pair.s", "s", _S),
    ("cocycle.modular_pair.arrows", "count", _Z),
    ("cocycle.cohomologous.s", "s", _S),
    ("cocycle.check.s", "s", _S),
    ("cocycle.check.arrows", "count", _Z),
    ("cocycle.mackey_range.s", "s", _S),
    ("cocycle.mackey_range_int.s", "s", _S),
    ("cocycle.classify_type.s", "s", _S),
    ("cocycle.flow_type.s", "s", _S),
    ("words.normalize.s", "s", _S),
    ("words.normalize.calls", "count", _C),
    ("words.normalize.letters", "count", _Z),
    ("tree.stabilizer_index.s", "s", _S),
    ("tree.stabilizer_index.calls", "count", _C),
    ("tree.geodesic.s", "s", _S),
    ("profinite.verify_limit_shadow.s", "s", _S),
    ("profinite.verify_limit_shadow.residues", "count", _Z),
    ("dynamics.beta_cocycle.s", "s", _S),
    ("dynamics.beta_cocycle.calls", "count", _C),
    ("dynamics.cesaro_mixing_test.s", "s", _S),
    ("dynamics.cesaro_mixing_test.steps", "count", _Z),
    ("dynamics.coupling_action.s", "s", _S),
    ("dynamics.coupling_action.calls", "count", _C),
    ("dynamics.rotation_model_orbit.s", "s", _S),
    ("dynamics.affine_floor.calls", "count", _C),
    ("dynamics.affine_sign.calls", "count", _C),
) + tuple((f"suite.{name}.s", "s", _S) for name in LEMMA_NAMES)

# Metrics the worker measures outside the recorders.
EXTRA_METRICS = (
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.command_p50_ms", "ms"),
    ("src.lines", "lines"),
    ("trace.overhead_s", "s"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    return [(name, unit) for name, unit, _ in LAYER_METRICS] + list(EXTRA_METRICS)


def _resolve(module_name, attribute):
    module = importlib.import_module(module_name)
    if "." in attribute:
        cls_name, meth = attribute.split(".")
        return getattr(module, cls_name), meth
    return module, attribute


class Tracer:
    """Holds the spans and counts of one traced run and the patches that
    produce them."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, size)
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []          # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                try:
                    n = size(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError,
                        OverflowError):
                    n = 0  # the call raised, so there is no result to size
                spans[sid] = (name, start, end, parent, n)

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attribute, make):
        """Replace owner.attribute, and every module-level alias of a
        function, with make(original)."""
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((owner, attribute, raw))
            setattr(owner, attribute, new)
            return
        original = getattr(owner, attribute)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if not (name == "bsmg" or name.startswith("bsmg.")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapper)

    def install(self):
        for name, module_name, attribute, size in SPANS:
            owner, attr = _resolve(module_name, attribute)
            self._patch(owner, attr,
                        lambda fn, n=name, s=size: self._span_wrapper(n, fn, s))
        for name, module_name, attribute in COUNTS:
            owner, attr = _resolve(module_name, attribute)
            self._patch(owner, attr,
                        lambda fn, n=name: self._count_wrapper(n, fn))
        suite = importlib.import_module("bsmg.suite")
        bundles = dict(suite.BUNDLES)
        bundles[SUITE_BUNDLE] = tuple(
            (name, self._span_wrapper(f"suite.{name}", fn, _zero), cases)
            for name, fn, cases in suite.BUNDLES[SUITE_BUNDLE])
        self._undo.append((suite, "BUNDLES", suite.BUNDLES))
        suite.BUNDLES = bundles
        return self

    def uninstall(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- reading ---------------------------------------------------------

    def mark(self):
        """A position to aggregate from: (span index, counts snapshot)."""
        return len(self.spans), dict(self.counts)

    def aggregate(self, since):
        """Per-layer figures of the spans and counts recorded after mark()."""
        first, counts_before = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        sizes = defaultdict(int)
        for i, (name, start, end, parent, size) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            sizes[name] += size
        for name, n in self.counts.items():
            calls[name] += n - counts_before.get(name, 0)
        out = {}
        for metric, _, kind in LAYER_METRICS:
            layer = metric.rsplit(".", 1)[0]
            table = {_S: self_s, _C: calls, _Z: sizes}[kind]
            out[metric] = table.get(layer, 0)
        return out


def median_figures(per_pass):
    """Median of each per-layer figure over the traced passes."""
    return {metric: statistics.median(p[metric] for p in per_pass)
            for metric in per_pass[0]}
