"""Spans around the calls into lagrange_kit's layers, installed from the
benchmark's own files; nothing inside the package changes.

Each wrapper replaces its original at every place the original is bound in
the package: module globals (``lagrange`` binds its own ``compose`` with
``from .series import compose``), class dictionaries (``MultiPoly`` binds
``__rmul__ = __mul__``) and the package namespace.  Spans stay in memory as
[name, parent span, job, start, end, size] and are written out when the run
ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# span name, module, attribute path, whether only series-by-series calls
# are spans (scalar products and quotients are O(order) and stay untraced)
TARGETS = (
    ("series.mul", "lagrange_kit.series", "PowerSeries.__mul__", True),
    ("series.laurent_mul", "lagrange_kit.series", "LaurentSeries.__mul__", True),
    ("series.div", "lagrange_kit.series", "PowerSeries.__truediv__", True),
    ("series.div", "lagrange_kit.series", "LaurentSeries.__truediv__", True),
    ("series.pow", "lagrange_kit.series", "PowerSeries.__pow__", False),
    ("series.pow", "lagrange_kit.series", "PowerSeries.pow", False),
    ("series.pow", "lagrange_kit.series", "LaurentSeries.__pow__", False),
    ("series.exp_log", "lagrange_kit.series", "PowerSeries.exp", False),
    ("series.exp_log", "lagrange_kit.series", "PowerSeries.log", False),
    ("series.compose", "lagrange_kit.series", "compose", False),
    ("series.reversion", "lagrange_kit.series", "PowerSeries.reversion", False),
    ("lagrange.solve_xR", "lagrange_kit.lagrange", "solve_xR", False),
    ("lagrange.solve_indeterminate", "lagrange_kit.lagrange", "solve_indeterminate", False),
    ("lagrange.inversion_form_sweep", "lagrange_kit.lagrange", "inversion_form_sweep", False),
    ("lagrange.derivative_form", "lagrange_kit.lagrange", "derivative_form", False),
    ("lagrange.cauchy_convolution_check", "lagrange_kit.lagrange",
     "cauchy_convolution_check", False),
    ("scalars.multipoly_mul", "lagrange_kit.scalars", "MultiPoly.__mul__", False),
    ("trees.count_by_profile", "lagrange_kit.trees", "count_by_profile", False),
    ("trees.labeled_forest_profile_count", "lagrange_kit.trees",
     "labeled_forest_profile_count", False),
    ("trees.count_labeled_forests", "lagrange_kit.trees", "count_labeled_forests", False),
    ("trees.count_degree_trees", "lagrange_kit.trees", "count_degree_trees", False),
    ("trees.enumerate_labeled_trees", "lagrange_kit.trees", "enumerate_labeled_trees", False),
    ("trees.prufer_encode", "lagrange_kit.trees", "prufer_encode", False),
    ("trees.prufer_decode", "lagrange_kit.trees", "prufer_decode", False),
    ("trees.cycle_lemma_count", "lagrange_kit.trees", "cycle_lemma_count", False),
    ("cli", "lagrange_kit.cli", "main", False),
)


class Tracer:
    """Span store for one traced run; ``job`` is the current job index and
    ``active`` switches recording off while outputs are checked."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = []
        self.job = -1
        self.active = False

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, series_types=None):
        """A wrapper recording a span per call; with ``series_types`` only
        calls whose second operand is a series are recorded, and a
        PowerSeries product records its order as the span size."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        power = series_types[0] if series_types else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (
                series_types and not isinstance(args[1], series_types)
            ):
                return fn(*args, **kwargs)
            size = 0
            if power is not None and type(args[0]) is power and type(args[1]) is power:
                size = args[0].order
            span = [name_id, stack[-1] if stack else -1, self.job, 0.0, 0.0, size]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span of the given name, from the benchmark's side."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path, t0):
        with gzip.open(path, "wt") as out:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "job", "start_s", "end_s", "size"],
                       "spans": [[s[0], s[1], s[2], round(s[3] - t0, 9),
                                  round(s[4] - t0, 9), s[5]] for s in self.spans]},
                      out, separators=(",", ":"))


def _package_namespaces():
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lagrange_kit" or name.startswith("lagrange_kit.")):
            continue
        yield vars(module), module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("lagrange_kit"):
                yield vars(value), value


def install(tracer, lk):
    """Wrap every TARGETS entry that exists; returns the names skipped.
    Raises RuntimeError if an original is still reachable afterwards."""
    series_types = (lk.series.PowerSeries, lk.series.LaurentSeries)
    originals = []
    skipped = []
    for name, module_name, path, series_only in TARGETS:
        owner = sys.modules.get(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            skipped.append(path)
            continue
        wrapper = tracer.wrap(name, original, series_types if series_only else None)
        for namespace, holder in _package_namespaces():
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(holder, key, wrapper)
        originals.append(original)
    for namespace, _ in _package_namespaces():
        for key, value in namespace.items():
            if any(value is original for original in originals):
                raise RuntimeError("untraced binding %s left in place" % key)
    return skipped


def span_stats(names, spans):
    """Per span name: [calls, total_s, self_s, size_sum].  total_s counts
    only spans with no ancestor of the same name, so recursion is not
    counted twice; self_s is duration minus the direct children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[4] - s[3]
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(names[s[0]], [0, 0.0, 0.0, 0])
        dur = s[4] - s[3]
        st[0] += 1
        st[2] += dur - child[i]
        st[3] += s[5] * s[5] // 2
        parent = s[1]
        while parent >= 0 and spans[parent][0] != s[0]:
            parent = spans[parent][1]
        if parent < 0:
            st[1] += dur
    return stats


SERIES_OPS = ("mul", "laurent_mul", "div", "pow", "exp_log", "compose", "reversion")
LAGRANGE_ROUTINES = ("solve_xR", "solve_indeterminate", "inversion_form_sweep",
                     "derivative_form", "cauchy_convolution_check")
CLI_BANDS = tuple("cli.%s.o%d_s" % (command, order)
                  for command in ("coeffs", "invert") for order in (30, 60, 120, 200))


def layer_metric_units(identity_names, tree_families):
    """Every per-layer metric name, in print order, with its unit."""
    out = []
    for prefix in (["series." + op for op in SERIES_OPS]
                   + ["lagrange." + r for r in LAGRANGE_ROUTINES]
                   + ["scalars.multipoly_mul"]):
        out += [(prefix + ".calls", "count"), (prefix + ".total_s", "s"),
                (prefix + ".self_s", "s")]
        if prefix == "series.mul":
            out += [("series.mul.dense_ops", "count"), ("series.mul.ns_per_dense_op", "ns")]
    out.append(("scalars.coeff_max_bits", "bits"))
    out += [("identities.%s.total_s" % name, "s") for name in identity_names]
    out.append(("identities.self_s", "s"))
    out += [("trees.queries", "count"), ("trees.items_scanned", "count"),
            ("trees.match_ratio", "ratio")]
    out += [("trees.%s.total_s" % family, "s") for family in tree_families]
    out.append(("cli.self_s", "s"))
    out += [(name, "s") for name in CLI_BANDS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out
