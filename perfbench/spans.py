"""Spans and work counts around the solver's layer entry points.

`Tracer.install` replaces the entry points with wrappers at run time
(module attributes and two class attributes) and `uninstall` puts the
originals back; no file of the solver changes.  A span records its
name, the operation it belongs to, its parent span, start and end.  A
span's self time is its duration minus the durations of its child spans
and minus the tracer's own bookkeeping inside it, which is clocked and
taken out, so the self times of one operation's solve add up to the
solve span less that bookkeeping.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter as clock

# span name -> the per-layer metric its self time is summed into
SPAN_METRICS = {
    "parse": "program.parse_s",
    "ground": "program.ground_s",
    "transform": "transform.self_s",
    "mi": "mi.self_s",
    "scc": "depgraph.scc_s",
    "cycles": "depgraph.cycles_s",
    "aset": "depgraph.aset_s",
    "nmi_iterate": "nmi.iterate_s",
    "inner_mi": "nmi.inner_mi_s",
    "contraction": "nmi.contraction_s",
    "bnb": "nmi.bnb_s",
    "kagg": "nmi.kagg_s",
    "verify": "semantics.verify_s",
    "grid": "semantics.grid_s",
    "solve": "solver.self_s",
}

# counts reported as they are; ratios are formed in layer_metrics
COUNT_METRICS = (
    "program.ground_rules", "program.rules_for_calls", "mi.steps",
    "mi.substitutions", "depgraph.cycles", "depgraph.aset_atoms",
    "nmi.outer_iters", "nmi.bnb_combos", "semantics.supported_checks",
    "semantics.grid_interps", "solver.candidates", "intervals.created",
)
RATIO_METRICS = {
    # metric: (numerator count, denominator count)
    "mi.useful_substitution_ratio": ("mi.useful_substitutions",
                                     "mi.substitutions"),
    "nmi.bnb_stable_ratio": ("nmi.bnb_stable", "nmi.bnb_combos"),
    "semantics.accept_ratio": ("semantics.accepted", "solver.candidates"),
}


class Tracer:
    def __init__(self):
        self.spans = []    # [name, op, parent index, start, end, bookkeeping]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._originals = []

    # ----------------------------------------------------------------
    # wrappers

    def _replace(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _charge(self, seconds):
        """Book tracer time against the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def span(self, owner, attr, name, after=None):
        """Wrap owner.attr in a span; after(arguments, result) records
        counts once the call returns."""
        spans, stack = self.spans, self._stack

        def make(fn):
            signature = inspect.signature(fn) if after else None

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                entered = clock()
                parent = stack[-1] if stack else None
                record = [name, self.op, parent, 0.0, 0.0, 0.0]
                stack.append(len(spans))
                spans.append(record)
                record[3] = start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[4] = end = clock()
                    stack.pop()
                if after:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(bound.arguments, result)
                self._charge((start - entered) + (clock() - end))
                return result
            return wrapper
        self._replace(owner, attr, make)

    def count(self, owner, attr, key):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._replace(owner, attr, make)

    # ----------------------------------------------------------------

    def install(self, unasp):
        """Wrap the entry points of every layer the solver runs."""
        from unasp import depgraph, mi, nmi, program, semantics, solver
        from unasp.intervals import Interval
        from unasp.transform import referenced_atoms
        counts = self.counts

        def add(key, n):
            counts[key] += n

        self.span(unasp, "parse_program", "parse")
        self.span(unasp, "solve", "solve")
        self.span(solver, "ground", "ground",
                  lambda a, r: add("program.ground_rules", len(r.rules)))
        self.span(solver, "transform_program", "transform")
        self.span(solver, "mi_fixpoint", "mi",
                  lambda a, r: add("mi.steps", r.step))
        self.span(nmi, "mi_fixpoint", "inner_mi",
                  lambda a, r: add("mi.steps", r.step))
        self.span(depgraph, "scc_condense", "scc")
        for owner in (depgraph, nmi):
            self.span(owner, "enumerate_cycles", "cycles",
                      lambda a, r: add("depgraph.cycles", len(r)))
            self.span(owner, "select_assumption_set", "aset",
                      lambda a, r: add("depgraph.aset_atoms", len(r)))
        self.span(nmi, "nmi_iterate", "nmi_iterate",
                  lambda a, r: add("nmi.outer_iters", r.iters))
        self.span(nmi, "check_contraction", "contraction")
        self.span(nmi, "solve_kagg_cycle", "kagg")

        def bnb_done(a, r):
            points = a["seeds"] if a["seeds"] is not None \
                else a["cfg"].grid_seeds()
            add("nmi.bnb_combos", len(points) ** len(a["assumption_set"]))
            add("nmi.bnb_stable", len(r))
        self.span(nmi, "branch_and_bound", "bnb", bnb_done)

        def verify_done(a, r):
            add("solver.candidates", 1)
            add("semantics.accepted", int(bool(r)))
        self.span(semantics, "is_answer_set", "verify", verify_done)

        def grid_done(a, r):
            cells = len(semantics.grid_intervals(a["points"]))
            add("semantics.grid_interps", cells ** len(a["p"].atom_base))
        self.span(semantics, "enumerate_grid_supported", "grid", grid_done)

        self.count(semantics, "is_supported_model",
                   "semantics.supported_checks")
        self.count(program.Program, "rules_for", "program.rules_for_calls")
        self.count(Interval, "__post_init__", "intervals.created")

        def make_substitute(fn):
            @functools.wraps(fn)
            def substitute(e, values):
                entered = clock()
                counts["mi.substitutions"] += 1
                if not referenced_atoms(e).isdisjoint(values):
                    counts["mi.useful_substitutions"] += 1
                self._charge(clock() - entered)
                return fn(e, values)
            return substitute
        self._replace(mi, "substitute", make_substitute)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------
    # reading the spans

    def self_times(self):
        """(span, self time) for every span recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, op, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(s, s[4] - s[3] - child_time[k] - s[5])
                for k, s in enumerate(self.spans)]

    def layer_metrics(self):
        """Per-layer metrics of everything recorded since the last reset."""
        metrics = {m: 0.0 for m in SPAN_METRICS.values()}
        for span, self_s in self.self_times():
            metrics[SPAN_METRICS[span[0]]] += self_s
        for key in COUNT_METRICS:
            metrics[key] = self.counts[key]
        for key, (num, den) in RATIO_METRICS.items():
            metrics[key] = (self.counts[num] / self.counts[den]
                            if self.counts[den] else 0.0)
        return metrics

    def reset(self):
        self.spans.clear()
        self.counts.clear()
