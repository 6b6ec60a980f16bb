"""Span tracing from outside the program.

The tracer wraps public functions at ineqlab's module boundaries, in
every module that holds a reference to them (``from .linalg import
sym_eigen`` makes ``ineqlab.copositive.sym_eigen`` one of those), so no
source file changes.  A span is ``[name, start, end, parent, op]``: the
parent is the index of the span open when it began (-1 at top level) and
``op`` is the index of the CLI command that caused it.  Spans stay in
memory until the run ends.  ``as_matrix`` is only counted: it is called
tens of times per trial and a span each would swamp the trace.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _hit_lattice_cache(tracer, args, kwargs):
    from ineqlab import copositive

    p, resolution = args[0], args[1]
    m = len(p)
    if m > 1:
        tracer.add("copositive.lattice_points", math.comb(resolution + m - 1, m - 1))
        cache = getattr(copositive, "_LATTICE_CACHE", {})
        tracer.add("copositive.lattice_cache_hits", float((m, resolution) in cache))
        tracer.add("copositive.lattice_lookups", 1.0)


def _bytes_in(tracer, args, kwargs):
    tracer.add("serialize.bytes_in", os.path.getsize(args[0]))


def _bytes_out(tracer, args, kwargs, result):
    tracer.add("serialize.bytes_out", len(result.encode("utf-8")))


def _eig_flops(tracer, args, kwargs, result):
    tracer.add("bw.eig_flops", 4.0 / 3.0 * float(result.n * result.n) ** 3)


def _search_iters(tracer, args, kwargs, result):
    tracer.add("bw.search_iters", result.iterations)


# (module, attribute path, span name, before hook, after hook).  Spans with
# no metric of their own (fundamental_report, bw_slack) keep their callers'
# self time to the caller's own code.  Every t_operator built by the CLI
# paths is eigensolved once (t_spectrum or the search's top eigenvector),
# so its size gives the eigensolve flop count.
SPAN_TARGETS = (
    ("ineqlab.cli", "main", "cli.main", None, None),
    ("ineqlab.campaigns", "run_ddvv_campaign", "campaigns.run_ddvv_campaign", None, None),
    ("ineqlab.campaigns", "run_bw_campaign", "campaigns.run_bw_campaign", None, None),
    ("ineqlab.campaigns", "run_search_campaign", "campaigns.run_search_campaign", None, None),
    ("ineqlab.seeded", "RandomStream.symmetric_tuple", "seeded.symmetric_tuple", None, None),
    ("ineqlab.seeded", "RandomStream.gaussian_matrix", "seeded.gaussian_matrix", None, None),
    ("ineqlab.ddvv", "SymmetricTuple.from_matrices", "ddvv.from_matrices", None, None),
    ("ineqlab.ddvv", "ddvv_slack", "ddvv.ddvv_slack", None, None),
    ("ineqlab.ddvv", "canonical_reduce", "ddvv.canonical_reduce", None, None),
    ("ineqlab.curvature", "curvature_report", "curvature.curvature_report", None, None),
    ("ineqlab.curvature", "fundamental_report", "curvature.fundamental_report", None, None),
    ("ineqlab.bw", "t_operator", "bw.t_operator", None, _eig_flops),
    ("ineqlab.bw", "t_spectrum", "bw.t_spectrum", None, None),
    ("ineqlab.bw", "maximize_ratio", "bw.maximize_ratio", None, _search_iters),
    ("ineqlab.bw", "bw_slack", "bw.bw_slack", None, None),
    ("ineqlab.linalg", "sym_eigen", "linalg.sym_eigen", None, None),
    ("ineqlab.copositive", "copositive_property_k", "copositive.property_k", None, None),
    ("ineqlab.copositive", "copositive_oracle", "copositive.oracle", _hit_lattice_cache, None),
    ("ineqlab.serialize", "read_matrix_file", "serialize.read", _bytes_in, None),
    ("ineqlab.serialize", "read_tuple_file", "serialize.read", _bytes_in, None),
    ("ineqlab.serialize", "read_pair_file", "serialize.read", _bytes_in, None),
    ("ineqlab.serialize", "read_sff_file", "serialize.read", _bytes_in, None),
    ("ineqlab.serialize", "dumps", "serialize.dumps", None, _bytes_out),
)
COUNT_TARGETS = (
    ("ineqlab.linalg", "as_matrix", "linalg.as_matrix.calls"),
)


class Tracer:
    """Records spans and counts while installed; uninstalled it costs nothing."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []
        self._patches = []

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def _span(self, name, fn, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module_name, path, make):
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))
            return
        original = getattr(module, path)
        wrapped = make(original)
        # every ineqlab module that imported the function by name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ineqlab" or mod_name.startswith("ineqlab."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, original))

    def install(self) -> None:
        for module_name, path, name, before, after in SPAN_TARGETS:
            self._patch(module_name, path,
                        lambda fn, n=name, b=before, a=after: self._span(n, fn, b, a))
        for module_name, path, name in COUNT_TARGETS:
            self._patch(module_name, path, lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header naming the fields, then one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _mean(total, count):
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, ops: int, trials: int, overhead: float) -> dict:
    """Per-layer metrics from the spans and counts of the traced passes.

    Times are means per call of the wrapped function unless the name says
    per trial; a trial is one seeded trial, or one input file for file
    commands.  Counts named ``.calls``, ``bytes_in`` and ``bytes_out`` are
    per CLI command.  A layer the workload never calls reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    draw = 0.0
    for idx, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += selfs[idx]
        if name.startswith("seeded.") and not (parent >= 0
                                               and spans[parent][0].startswith("seeded.")):
            draw += end - start

    def per_call_ms(name, field):
        return 1e3 * _mean(field[name], calls[name])

    campaign_names = [n for n in calls if n.startswith("campaigns.")]
    campaign_calls = sum(calls[n] for n in campaign_names)
    submatrices = sum(1 for s in spans
                      if s[0] == "linalg.sym_eigen" and s[3] >= 0
                      and spans[s[3]][0] == "copositive.property_k")
    c = tracer.counts
    return {
        "seeded.draw_us_per_trial": ("us", 1e6 * _mean(draw, trials)),
        "ddvv.validate_us_per_trial": ("us", 1e6 * _mean(total["ddvv.from_matrices"], trials)),
        "ddvv.slack_us_per_trial": ("us", 1e6 * _mean(total["ddvv.ddvv_slack"], trials)),
        "campaigns.self_ms": ("ms", 1e3 * _mean(sum(own[n] for n in campaign_names),
                                                campaign_calls)),
        "ddvv.reduce_ms": ("ms", per_call_ms("ddvv.canonical_reduce", total)),
        "curvature.report_us": ("us", 1e3 * per_call_ms("curvature.curvature_report", total)),
        "bw.t_operator_us": ("us", 1e3 * per_call_ms("bw.t_operator", total)),
        "bw.spectrum_self_us": ("us", 1e3 * per_call_ms("bw.t_spectrum", own)),
        "bw.search_ms": ("ms", per_call_ms("bw.maximize_ratio", total)),
        "bw.search_iters": ("count", _mean(c["bw.search_iters"], calls["bw.maximize_ratio"])),
        "bw.eig_flops": ("flop/op", _mean(c["bw.eig_flops"], ops)),
        "linalg.sym_eigen.calls": ("count/op", _mean(calls["linalg.sym_eigen"], ops)),
        "linalg.sym_eigen.self_us": ("us", 1e3 * per_call_ms("linalg.sym_eigen", own)),
        "linalg.as_matrix.calls": ("count/op", _mean(c["linalg.as_matrix.calls"], ops)),
        "copositive.property_k_ms": ("ms", per_call_ms("copositive.property_k", total)),
        "copositive.submatrices": ("count", _mean(submatrices, calls["copositive.property_k"])),
        "copositive.oracle_ms": ("ms", per_call_ms("copositive.oracle", total)),
        "copositive.lattice_points": ("count", _mean(c["copositive.lattice_points"],
                                                     calls["copositive.oracle"])),
        "copositive.lattice_cache_hit_ratio": ("ratio", _mean(c["copositive.lattice_cache_hits"],
                                                              c["copositive.lattice_lookups"])),
        "serialize.read_ms": ("ms", per_call_ms("serialize.read", total)),
        "serialize.write_ms": ("ms", per_call_ms("serialize.dumps", total)),
        "serialize.bytes_in": ("B/op", _mean(c["serialize.bytes_in"], ops)),
        "serialize.bytes_out": ("B/op", _mean(c["serialize.bytes_out"], ops)),
        "cli.self_ms": ("ms", per_call_ms("cli.main", own)),
        "trace.overhead_ratio": ("ratio", overhead),
    }
