"""Full solving pipeline.

`solve` grounds the program, transforms it and runs the monotonic
fixpoint; the transformed bodies go once that returns, and the stages
after it read only its state.  Component pass: dependency analysis of
the residual, then per component in topological order and per branch,
the branch's values are substituted and the monotonic fixpoint values
what that leaves acyclic.  Only the cycles left are planned (iteration,
which leaves a constant-free cycle at [0,1]; branch-and-bound; or, for
a component with a certainty aggregation, side selection: each
selection of one side of every aggregation is valued the same way, and
kept where the chosen sides win, merged with what exact seeds and
iterating the aggregations reach) and run, branching the downstream
computation whenever a component admits several stable valuations.
`solve` re-checks every emitted answer set with the declarative
verifier, which shares no valuation code with it; `unasp analyze`
reports the plans instead.  Before it builds the candidates, `solve`
reads what it reports from the monotonic stage's state and the
component pass and lets both go: while it verifies, it holds the ground
program, the diagnostics and the candidates alone.
"""

from __future__ import annotations

from itertools import islice

from .intervals import Record
from .program import GroundingCapExceeded, Program, ground
from . import depgraph, nmi, semantics
from .mi import MiState, mi_fixpoint
from .nmi import NmiConfig
from .transform import (Const, Kagg, Naf, node_kinds, substitute,
                        transform_program)


class SolverConfig(Record):
    max_answer_sets = 64

    def __init__(self, nmi=None, seeds=None, max_answer_sets=max_answer_sets,
                 trace=None, trace_sink=None):
        self.nmi = NmiConfig() if nmi is None else nmi
        self.seeds = seeds             # explicit branch-and-bound seed list
        self.max_answer_sets = max_answer_sets
        self.trace = set() if trace is None else trace  # of {mi, nmi, graph}
        self.trace_sink = trace_sink   # callable(str)
        if self.max_answer_sets < 1:
            raise ValueError("max_answer_sets must be at least 1")
        if self.seeds is not None and not (
                self.seeds and all(0 <= x <= 1 for x in self.seeds)):
            raise ValueError("seeds must lie in [0,1]")
        unknown = sorted(set(self.trace) - {"mi", "nmi", "graph"})
        if unknown:
            raise ValueError(f"trace kind {', '.join(unknown)} must be "
                             "mi, nmi or graph")

    def _sink(self, kind):
        """Where trace lines of this kind go; None when it is not
        traced, so the caller builds no text."""
        return self.trace_sink if kind in self.trace else None


class SolveReport(Record):
    def __init__(self, answer_sets=None, status="ok", diagnostics=None):
        # each a dict Literal -> Interval
        self.answer_sets = [] if answer_sets is None else answer_sets
        self.status = status  # ok | no_answer_set | inconsistent | incomplete
        self.diagnostics = {} if diagnostics is None else diagnostics


class ComponentPlan:
    """How the cycles left in one component are solved on one branch."""

    def __init__(self, component, method=None, cycles=None,
                 assumption_set=None, error=None):
        self.component = component
        self.method = method  # kagg_cycle | nmi | branch_and_bound | ignorance
        self.cycles = cycles
        self.assumption_set = assumption_set
        self.contraction = None  # advisory, set with assumption_set
        self.error = error      # why the component could not be solved

    def summary(self) -> dict:
        record = {"component": [str(a) for a in self.component],
                  "method": self.method}
        if self.assumption_set is not None:
            record["assumption_set"] = [str(a) for a in self.assumption_set]
            record["contraction"] = self.contraction.classification
        if self.error is not None:
            record["assumption_set_error"] = self.error
        return record


class ComponentPass:
    def __init__(self, branches, components=None, plans=None, notes=None,
                 truncated=False):
        self.branches = branches      # Atom -> Interval, one per branch
        # in topological order; per cyclic component and branch
        self.components = [] if components is None else components
        self.plans = [] if plans is None else plans
        self.notes = [] if notes is None else notes
        self.truncated = truncated


def _fmt_vals(pairs):   # (atom, value) pairs
    return ", ".join(f"{a}:{v}" for a, v in sorted(pairs,
                                                   key=lambda kv: str(kv[0])))


def _merge(kept, more, tol):
    """kept, then each valuation of more not close to one of them."""
    return kept + [r for r in more
                   if not any(set(r) == set(k)
                              and all(r[x].same_as(k[x], tol) for x in r)
                              for k in kept)]


def _method(kinds):
    if Kagg in kinds:
        return "kagg_cycle"
    if Const in kinds:
        return "nmi"
    if Naf in kinds:
        return "branch_and_bound"
    # no constants, no naf, no aggregation: nothing pins the cycle down
    return "ignorance"


def _solve_component(plan: ComponentPlan, entries, cfg: SolverConfig, out):
    """Plan the cycles left in a component's entries, the bodies the
    monotonic stage left, and run the plan; returns their valuations.
    A failing analysis raises and leaves the plan as far as it got."""
    atoms = tuple(entries)
    names = ",".join(str(a) for a in plan.component)
    plan.cycles = depgraph.enumerate_cycles(entries, atoms)
    plan.method = _method(node_kinds(entries.values()))
    bnb = plan.method == "branch_and_bound"
    aset = plan.assumption_set = depgraph.select_assumption_set(
        entries, atoms, plan.cycles, mode="branch_bound" if bnb else "nmi")
    plan.contraction = nmi.check_contraction(entries, atoms, aset, plan.cycles)
    if bnb:
        return nmi.branch_and_bound(entries, aset, cfg.nmi, cfg.seeds)
    if plan.method != "kagg_cycle":
        # an ignorance component stays at [0,1]: one step, no change
        outcome = nmi.nmi_iterate(entries, aset, cfg.nmi)
        if outcome.status == "converged":
            return [outcome.interp]
        # only an aggregation is ever inconsistent: the run hit its cap
        out.truncated = True
        why = (f"period-{outcome.period} oscillation" if outcome.period
               else "iteration cap reached")
        out.notes.append(f"{why} on component {names}")
        return []
    noted = len(out.notes)
    resolved = nmi.solve_kagg_cycle(
        entries, atoms, cfg.nmi,
        lambda chosen: _value_component(plan.component, chosen, cfg, out)[0])
    # a selection values each side from total ignorance, so it reaches
    # that side's least fixpoint; the sides may also meet at point
    # fixpoints, or above it, where iterating the aggregation converges
    try:
        seed_set = depgraph.select_assumption_set(
            entries, atoms, plan.cycles, mode="branch_bound")
    except depgraph.NoValidAssumptionSet:
        seed_set = aset
    exact = nmi.branch_and_bound(entries, seed_set, cfg.nmi, cfg.seeds)
    outcome = nmi.nmi_iterate(entries, aset, cfg.nmi)
    iterated = [outcome.interp] if outcome.status == "converged" else []
    tol = cfg.nmi.answer_tol
    results = _merge(_merge(exact, resolved, tol), iterated, tol)
    # a selection that could not be solved has already noted why
    if not results and len(out.notes) == noted:
        out.notes.append(f"no side selection of the aggregations in "
                         f"component {names} is self-consistent")
    return results


def _value_component(comp, bodies, cfg: SolverConfig, out):
    """Value a component's substituted bodies: the monotonic fixpoint
    first, then a plan for the cycles it leaves.  Returns valuations of
    every atom of the bodies, and the plan or None; a component that
    cannot be solved has no valuation, noted in out."""
    state = mi_fixpoint(bodies)
    if state.inconsistent_atoms:
        out.notes.append("branch dropped: inconsistent value at "
                         + ", ".join(str(a) for a in state.inconsistent_atoms))
        return [], None
    if not state.residual:
        return [state.interp], None
    names = ",".join(str(a) for a in comp)
    plan = ComponentPlan(comp)
    try:
        results = _solve_component(plan, state.residual, cfg, out)
    except (depgraph.AnalysisOverflow, depgraph.NoValidAssumptionSet,
            nmi.UnresolvedComponent) as exc:
        plan.error = str(exc)
        out.truncated = True
        out.notes.append(f"branch dropped: component {names} unsolved: {exc}")
        return [], plan
    results = [{**state.interp, **values} for values in results]
    trace_nmi = cfg._sink("nmi")
    if trace_nmi:
        for k, values in enumerate(results):
            trace_nmi(f"component {names} [{plan.method}] "
                      f"result {k}: {_fmt_vals(values.items())}")
    return results, plan


def component_pass(state: MiState, cfg: SolverConfig) -> ComponentPass:
    """Value every component of the residual of the monotonic stage,
    upstream first, on every branch, after writing the mi trace.  A
    component that cannot be solved drops its branch and makes the pass
    incomplete."""
    trace_mi = cfg._sink("mi")
    if trace_mi:
        # the interpretation holds each step's values in step order
        values = iter(state.interp.items())
        for step, count, left in state.trace:
            trace_mi(f"mi step {step}: {_fmt_vals(islice(values, count))} "
                     f"({left} rules residual)")
    residual = state.residual
    out = ComponentPass([state.interp])
    if state.inconsistent_atoms or not residual:
        return out
    components, topo = depgraph.scc_condense(residual)
    out.components = [components[k] for k in topo]
    trace_graph = cfg._sink("graph")
    if trace_graph:
        trace_graph("components (topo order): "
                    + " | ".join(",".join(str(a) for a in comp)
                                 for comp in out.components))
    for comp in out.components:
        next_branches = []
        for branch in out.branches:
            bodies = {a: substitute(residual[a], branch) for a in comp}
            valuations, plan = _value_component(comp, bodies, cfg, out)
            if plan:
                out.plans.append(plan)
            next_branches += [{**branch, **values} for values in valuations]
            if len(next_branches) > cfg.max_answer_sets:
                next_branches = next_branches[:cfg.max_answer_sets]
                out.truncated = True
        out.branches = next_branches
        if not next_branches:
            break
    return out


def solve(p: Program, cfg: SolverConfig = None) -> SolveReport:
    """Ground, solve and verify; a program past the ground-rule cap is
    `incomplete`, with a note naming the rule."""
    cfg = cfg or SolverConfig()
    try:
        g = ground(p)
    except GroundingCapExceeded as exc:
        return capped_report(exc)
    state = mi_fixpoint(transform_program(g))
    passed = component_pass(state, cfg)
    diagnostics = {
        "mi_steps": state.step,
        "mi_assigned": len(state.interp),
        "residual_rules": len(state.residual),
        "components": [],
        "notes": [],
    }
    halted = state.inconsistent_atoms
    del state  # the verifier reads none of the front's state
    if halted:
        diagnostics["notes"].append(
            "monotonic stage halted: inconsistent aggregation at "
            + ", ".join(str(a) for a in halted))
        return SolveReport([], "no_answer_set", diagnostics)
    diagnostics["components"] = [plan.summary() for plan in passed.plans]
    diagnostics["notes"] += passed.notes
    truncated, branches = passed.truncated, passed.branches
    del passed  # nor the plans
    totals = semantics.totals_from_positive(branches)
    del branches
    verify_eps = cfg.nmi.answer_tol
    answer_sets = [t for t in totals
                   if semantics.is_answer_set(t, g, candidates=totals,
                                              eps=verify_eps)]
    rejected = len(totals) - len(answer_sets)
    if rejected:
        diagnostics["notes"].append(
            f"verifier rejected {rejected} candidate(s)")
    if truncated:
        status = "incomplete"
    elif not answer_sets:
        status = "no_answer_set"
    else:
        status = "ok"
    diagnostics["verify_eps"] = verify_eps
    return SolveReport(answer_sets, status, diagnostics)


def capped_report(exc: GroundingCapExceeded) -> SolveReport:
    """The report of a program past the ground-rule cap."""
    return SolveReport([], "incomplete", {"notes": [str(exc)]})
