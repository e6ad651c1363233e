"""Spans and counters recorded around the public functions of each layer.

Tracer.install() replaces each traced function by a wrapper, under every
name by which a periodcalc module holds it, and uninstall() puts the
originals back; periodcalc itself is not changed.  A span is recorded as
(id, parent id, name, start, end, child time) and kept in memory; metrics()
turns the spans and counters into per-verdict figures.  A wrapper's own
bookkeeping after its span ends is charged to neither the span nor its
parent, so self times hold only the layer's work and the call overhead.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections import defaultdict
from time import perf_counter

from periodcalc import arch_l, cli, formal, infinity_types, period_algebra
from periodcalc import weil_real, yoshida

CHECKS = {"check_main1_step": "main1",
          "check_corollary_main": "corollary-main",
          "check_theorem_main2": "main2",
          "check_motivic_dual": "motivic-dual"}

SPAN_METRICS = (
    "weil_real.tensor", "weil_real.sym2_wedge2", "weil_real.dual",
    "infinity_types.to_arch_rep", "infinity_types.bijection",
    "arch_l.critical_points", "arch_l.l_factor",
    "formal.mul", "formal.pow", "formal.of", "formal.json",
    "formal.check_script", "formal.db_save", "formal.db_load",
    "yoshida.relations",
) + tuple(f"period_algebra.check.{b}" for b in CHECKS.values()) + ("cli.main",)

COUNT_METRICS = (
    "weil_real.constituents_out", "arch_l.critical_points.calls",
    "arch_l.lattice_points_tested", "arch_l.critical_found",
    "formal.mul.calls", "formal.atoms_touched", "formal.script_steps",
    "formal.db_bytes", "yoshida.relations.built",
    "period_algebra.relations_composed",
)

# metric name -> unit, in the order the traced run reports them
PER_LAYER = dict(
    [(f"{name}.ms", "ms/verdict") for name in SPAN_METRICS]
    + [(name, "B/verdict" if name == "formal.db_bytes" else "count/verdict")
       for name in COUNT_METRICS]
    + [("arch_l.critical_yield", "ratio"), ("cli.interpreter_ms", "ms"),
       ("cli.import_ms", "ms"), ("trace.overhead_pct", "%")])


def _count_constituents(tr, args, res):
    tr.counts["weil_real.constituents_out"] += len(res.constituents)


def _count_critical(tr, args, res):
    tr.counts["arch_l.critical_points.calls"] += 1
    tr.counts["arch_l.critical_found"] += len(res)


def _size(period) -> int:
    # the dict behind FormalPeriod, if it still has one: atoms() sorts, and
    # sorting atoms costs more than the multiplication being counted
    exp = getattr(period, "_exp", None)
    return len(exp) if isinstance(exp, dict) else len(period.atoms())


def _count_mul(tr, args, res):
    tr.counts["formal.mul.calls"] += 1
    tr.counts["formal.atoms_touched"] += _size(args[0]) + _size(args[1])


def _count_script(tr, args, res):
    tr.counts["formal.script_steps"] += len(args[1])


def _count_save(tr, args, res):
    tr.counts["formal.db_bytes"] += os.path.getsize(args[1])


def _count_relation(tr, args, res):
    tr.counts["yoshida.relations.built"] += 1


def _count_composed(tr, args, res):
    tr.counts["period_algebra.relations_composed"] += len(res.relations)


# (module or class, attribute, span name, counter)
TARGETS = [
    (weil_real, "tensor", "weil_real.tensor", _count_constituents),
    (weil_real, "sym2", "weil_real.sym2_wedge2", _count_constituents),
    (weil_real, "wedge2", "weil_real.sym2_wedge2", _count_constituents),
    (weil_real, "dual", "weil_real.dual", _count_constituents),
    (infinity_types, "to_arch_rep", "infinity_types.to_arch_rep", None),
    (infinity_types, "weight_to_infinity", "infinity_types.bijection", None),
    (infinity_types, "infinity_to_weight", "infinity_types.bijection", None),
    (arch_l, "critical_points", "arch_l.critical_points", _count_critical),
    (arch_l, "l_factor", "arch_l.l_factor", None),
    (formal.FormalPeriod, "__mul__", "formal.mul", _count_mul),
    (formal.FormalPeriod, "__pow__", "formal.pow", None),
    (formal.FormalPeriod, "of", "formal.of", None),
    (formal, "period_to_json", "formal.json", None),
    (formal, "period_from_json", "formal.json", None),
    (formal, "relation_to_json", "formal.json", None),
    (formal, "relation_from_json", "formal.json", None),
    (formal, "check_script", "formal.check_script", _count_script),
    (formal.RelationDB, "save", "formal.db_save", _count_save),
    (formal.RelationDB, "load", "formal.db_load", None),
    (cli, "main", "cli.main", None),
] + [(yoshida, f, "yoshida.relations", _count_relation)
     for f in ("tensor_deligne", "dual_relation", "tate_twist_relation",
               "delta_tensor", "rank2_tensor_expansion")] + [
    (period_algebra, f, f"period_algebra.check.{b}", _count_composed)
    for f, b in CHECKS.items()]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count()
        self._stack = []
        self._undo = []

    def span(self, name: str, fn, counter=None):
        """Wrap fn so that each call records a span named name."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((frame[0], parent[0] if parent else None,
                                     name, start, end, frame[1]))
                if parent:
                    parent[1] += end - start
            if counter:
                counter(tracer, args, res)
                if parent:
                    parent[1] += perf_counter() - end
            return res
        return wrapper

    def _counter_only(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr, wrap):
        """Put wrap(original) in place of owner.attr."""
        if isinstance(owner, type):
            old = owner.__dict__[attr]
            setattr(owner, attr, wrap(old))
            self._undo.append((owner, attr, old))
            return
        old = getattr(owner, attr)
        new = wrap(old)
        # patch every periodcalc module that imported the function by name
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("periodcalc"):
                for key, val in list(vars(mod).items()):
                    if val is old:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, old))

    def install(self):
        for owner, attr, name, counter in TARGETS:
            def wrap(orig, name=name, counter=counter):
                if isinstance(orig, classmethod):
                    return classmethod(self.span(name, orig.__func__, counter))
                return self.span(name, orig, counter)
            self._replace(owner, attr, wrap)
        self._replace(arch_l, "is_holomorphic_at", lambda orig: self._counter_only(
            "arch_l.lattice_points_tested", orig))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        out = defaultdict(float)
        for _, _, name, start, end, child in self.spans:
            out[name] += end - start - child
        return out

    def metrics(self, verdicts: int) -> dict:
        """Per-verdict layer figures; names and units as in PER_LAYER."""
        selfs = self.self_times()
        out = {f"{n}.ms": 1000 * selfs.get(n, 0.0) / verdicts
               for n in SPAN_METRICS}
        out.update({n: self.counts[n] / verdicts for n in COUNT_METRICS})
        tested = self.counts["arch_l.lattice_points_tested"]
        out["arch_l.critical_yield"] = (
            self.counts["arch_l.critical_found"] / tested if tested else 0.0)
        return out
