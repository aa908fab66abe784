"""Span tracing of the fwdiff layers, installed from outside the package.

`Tracer.install()` replaces every public function of each fwdiff module
with a wrapper that records a span (name, start, end, parent span, job
id), at the defining module and at every module that imported it by
name.  A few methods are wrapped too: the `FiniteRing` table build,
`ModPSpan.add_rows`, and, as call counters only, the `Residue`
arithmetic and `coerce`.  Leaf helpers that run millions of times per
job, and the bodies that spanned layers delegate to (`COUNT_ONLY`), are
counted rather than spanned; their time stays in the enclosing span's
self time.

Spans are kept in memory and written out by `dump` when the run ends.
A span's self time is its duration minus the durations of its direct
child spans, which nest because the benchmark is single-threaded.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("modarith", "mpoly", "fwcore", "linalg", "localalg", "oracle",
           "ringfile", "cli")
COUNT_ONLY = {
    "modarith.embed", "modarith.reduce_mod_p", "modarith.lift_to_p2",
    "modarith.residue_field_of", "modarith.p2_cover_of", "modarith.is_prime",
    "modarith.w_base", "modarith.witt_P_scalars", "mpoly.mono_mul",
    "mpoly.mono_div", "mpoly.mono_lcm", "mpoly.mono_deg",
    # the bodies of spanned layers: their time belongs to the caller's self
    # time (normal_form is divide's remainder, groebner reduces spoly,
    # parse_ring is parse_ring_file over parse_poly)
    "mpoly.divide", "mpoly.spoly", "ringfile.parse_ring_file",
    "ringfile.parse_poly",
}
RESIDUE_OPS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__",
               "__pow__", "__eq__", "inv")

# the per-layer metrics, as (metric name, source, unit); source is
# ("self", span) for self time in ms or ("count", counter)
LAYER_METRICS = [
    ("oracle.FiniteRing.self_ms", ("self", "oracle.FiniteRing"), "ms"),
    ("oracle.FiniteRing.elements", ("count", "oracle.FiniteRing.elements"), "count"),
    ("oracle.relation_rows.self_ms", ("self", "oracle.relation_rows"), "ms"),
    ("oracle.relation_rows.rows", ("count", "oracle.relation_rows.rows"), "count"),
    ("linalg.ModPSpan.add_rows.self_ms", ("self", "linalg.ModPSpan.add_rows"), "ms"),
    ("linalg.ModPSpan.rows_in", ("count", "linalg.ModPSpan.rows_in"), "count"),
    ("linalg.ModPSpan.rank", ("count", "linalg.ModPSpan.rank"), "count"),
    ("oracle.brute_fw.self_ms", ("self", "oracle.brute_fw"), "ms"),
    ("oracle.presented_fp_dimension.self_ms",
     ("self", "oracle.presented_fp_dimension"), "ms"),
    ("fwcore.present_fw.calls", ("count", "fwcore.present_fw.calls"), "count"),
    ("fwcore.present_fw.self_ms", ("self", "fwcore.present_fw"), "ms"),
    ("mpoly.groebner.grevlex.calls", ("count", "mpoly.groebner.grevlex.calls"), "count"),
    ("mpoly.groebner.grevlex.self_ms", ("self", "mpoly.groebner.grevlex"), "ms"),
    ("mpoly.groebner.homoglocal.calls",
     ("count", "mpoly.groebner.homoglocal.calls"), "count"),
    ("mpoly.groebner.homoglocal.self_ms", ("self", "mpoly.groebner.homoglocal"), "ms"),
    ("mpoly.groebner_extended.self_ms", ("self", "mpoly.groebner_extended"), "ms"),
    ("mpoly.normal_form.calls", ("count", "mpoly.normal_form.calls"), "count"),
    ("mpoly.normal_form.self_ms", ("self", "mpoly.normal_form"), "ms"),
    ("localalg.rational_points.self_ms", ("self", "localalg.rational_points"), "ms"),
    ("localalg.rational_points.tuples",
     ("count", "localalg.rational_points.tuples"), "count"),
    ("localalg.regularity.self_ms", ("self", "localalg.regularity"), "ms"),
    ("localalg.fiber_dim_point.self_ms", ("self", "localalg.fiber_dim_point"), "ms"),
    ("linalg.rank_over_field.self_ms", ("self", "linalg.rank_over_field"), "ms"),
    ("fwcore.w_poly.calls", ("count", "fwcore.w_poly.calls"), "count"),
    ("fwcore.w_poly.self_ms", ("self", "fwcore.w_poly"), "ms"),
    ("fwcore.check_axioms.self_ms", ("self", "fwcore.check_axioms"), "ms"),
    ("mpoly.witt_Q.self_ms", ("self", "mpoly.witt_Q"), "ms"),
    ("mpoly.witt_P_pair.self_ms", ("self", "mpoly.witt_P_pair"), "ms"),
    ("mpoly.frobenius_twist.self_ms", ("self", "mpoly.frobenius_twist"), "ms"),
    ("modarith.coerce.calls", ("count", "modarith.coerce.calls"), "count"),
    ("modarith.residue_ops.calls", ("count", "modarith.residue_ops.calls"), "count"),
    ("ringfile.parse_ring.self_ms", ("self", "ringfile.parse_ring"), "ms"),
    ("cli.run.self_ms", ("self", "cli.run"), "ms"),
]


class Tracer:
    """In-memory span recorder; inactive until `install` and `active`."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent id, job id)
        self.stack = []  # open spans as [id, ns covered by children]
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.job = None
        self.active = False

    # -- span bookkeeping ---------------------------------------------------

    def _open(self):
        frame = [len(self.spans) + len(self.stack), 0,
                 self.stack[-1][0] if self.stack else None,
                 time.perf_counter_ns()]
        self.stack.append(frame)
        return frame

    def _close(self, name, frame):
        end = time.perf_counter_ns()
        self.stack.pop()
        sid, child_ns, parent, start = frame
        dur = end - start
        self.self_ns[name] += dur - child_ns
        self.counts[name + ".calls"] += 1
        if self.stack:
            self.stack[-1][1] += dur
        self.spans.append((sid, name, start, end, parent, self.job))

    def spanned(self, name, fn, namer=None, after=None):
        """fn wrapped in a span; namer(args, kwargs) may refine the name,
        after(result, args) may add to the counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            full = namer(args, kwargs) if namer else name
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(full, frame)
            if after:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def spanned_generator(self, name, fn, after=None):
        """A generator function wrapped so that every resumption is a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                return it
            return tracer._resumptions(name, it, after)

        wrapper.__wrapped__ = fn
        return wrapper

    def _resumptions(self, name, it, after):
        while True:
            frame = self._open()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(name, frame)
            if after:
                after(item, ())
            yield item

    def counted(self, counter, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the fwdiff layers in place."""
        mods = {m: importlib.import_module("fwdiff." + m) for m in MODULES}
        sites = list(mods.values()) + [importlib.import_module("fwdiff")]
        counts = self.counts

        def tuples(_points, args):
            pres = args[0]
            field = args[1] if len(args) > 1 and args[1] is not None \
                else pres.residue_field
            counts["localalg.rational_points.tuples"] += \
                field.order() ** len(pres.variables)

        def rows(batch, _args):
            counts["oracle.relation_rows.rows"] += len(batch)

        namers = {"mpoly.groebner": _groebner_name}
        afters = {"localalg.rational_points": tuples,
                  "oracle.relation_rows": rows}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY:
                    new = self.counted(name + ".calls", fn)
                elif inspect.isgeneratorfunction(fn):
                    new = self.spanned_generator(name, fn, afters.get(name))
                else:
                    new = self.spanned(name, fn, namers.get(name),
                                       afters.get(name))
                for site in sites:
                    for key, val in list(vars(site).items()):
                        if val is fn:
                            setattr(site, key, new)

        oracle, linalg, modarith = mods["oracle"], mods["linalg"], mods["modarith"]

        def ring_built(_result, args):
            counts["oracle.FiniteRing.elements"] += args[0].size

        oracle.FiniteRing.__init__ = self.spanned(
            "oracle.FiniteRing", oracle.FiniteRing.__init__, after=ring_built)
        add_rows = linalg.ModPSpan.add_rows

        def add_rows_traced(span, rows):
            before = span.rank
            n = len(rows) if getattr(rows, "ndim", 2) > 1 else 1
            counts["linalg.ModPSpan.rows_in"] += n
            result = add_rows(span, rows)
            counts["linalg.ModPSpan.rank"] += span.rank - before
            return result

        linalg.ModPSpan.add_rows = self.spanned(
            "linalg.ModPSpan.add_rows", add_rows_traced)
        modarith._BaseRing.coerce = self.counted(
            "modarith.coerce.calls", modarith._BaseRing.coerce)
        for op in RESIDUE_OPS:
            setattr(modarith.Residue, op, self.counted(
                "modarith.residue_ops.calls", getattr(modarith.Residue, op)))
        modarith.Residue.__radd__ = modarith.Residue.__add__
        modarith.Residue.__rmul__ = modarith.Residue.__mul__

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """{metric: (value, unit)} for every entry of LAYER_METRICS."""
        return {metric: (self.self_ns[key] / 1e6 if kind == "self"
                         else self.counts[key], unit)
                for metric, (kind, key), unit in LAYER_METRICS}

    def dump(self, path, header):
        """Write the header and every span as gzip'd JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _groebner_name(args, kwargs):
    ring = kwargs.get("ring") or (args[1] if len(args) > 1 else None)
    if ring is None:
        gens = [g for g in args[0] if not g.is_zero()]
        ring = gens[0].ring
    return "mpoly.groebner." + ring.order

