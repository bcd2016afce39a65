import gc
import sys

import pytest
from hypothesis import given, settings, strategies as st

from unasp import Atom, mi, parse_program, solve, transform_program
from unasp.intervals import INCONSISTENT, Interval
from unasp.mi import MiState, mi_fixpoint, watch_index
from unasp.solver import SolverConfig, component_pass
from unasp.transform import Const, referenced_atoms, substitute

from conftest import PROGRAMS, random_programs


def initial_state(bodies):
    return MiState(residual=dict(bodies))


def gamma_step(s):
    """The one-step reference that mi_fixpoint is checked against: one
    simultaneous firing of every atom whose body is constant, then a
    substitution into every remaining body; s is left as it was."""
    ready = [a for a, e in s.residual.items() if isinstance(e, Const)]
    if s.inconsistent_atoms or not ready:
        return s
    assigned = {a: s.residual[a].value for a in ready}
    residual = {a: e for a, e in s.residual.items() if a not in assigned}
    nxt = MiState(s.interp | assigned, residual, step=s.step + 1,
                  trace=s.trace + [(s.step + 1, len(assigned),
                                    len(residual))])
    bad = [a for a, v in assigned.items() if v is INCONSISTENT]
    if bad:
        nxt.inconsistent_atoms = sorted(bad, key=str)
    else:
        nxt.residual = {a: substitute(e, assigned)
                        for a, e in residual.items()}
    return nxt


def values(assigned):
    return {str(a): v for a, v in assigned.items()}


class TestExample6Trace:
    def test_step_one_fires_facts_and_constraint(self, ex6):
        s1 = gamma_step(initial_state(transform_program(ex6)))
        got = values(s1.interp)
        assert set(got) == {"q", "r", "n", "t"}
        assert got["q"].same_as(Interval(0.7, 0.7))
        assert got["r"].same_as(Interval(0.5, 0.5))
        assert got["n"].same_as(Interval(0.7, 0.9))
        assert got["t"].same_as(Interval(0.0, 1.0))

    def test_step_two_derives_m_by_the_product_rule(self, ex6):
        s2 = gamma_step(gamma_step(initial_state(transform_program(ex6))))
        got = values(s2.interp)
        # 0.7*0.6 = 0.42 and 0.9*0.8 = 0.72, by the componentwise product
        assert got["m"].same_as(Interval(0.42, 0.72))

    def test_fixpoint(self, ex6):
        state = mi_fixpoint(transform_program(ex6))
        got = values(state.interp)
        assert set(got) == {"q", "r", "n", "t", "m", "s", "p"}
        assert got["s"].same_as(Interval(0.42, 0.72))
        assert got["p"].same_as(Interval(0.3916, 0.495), eps=5e-4)
        assert len(state.residual) == 18
        assert not state.inconsistent_atoms

    def test_residual_atoms(self, ex6):
        state = mi_fixpoint(transform_program(ex6))
        names = {str(a) for a in state.residual}
        assert names == set("abdefgchikjxvwuyzl")


class TestFixpointShapes:
    def test_acyclic_program_resolves_totally(self, ex2):
        state = mi_fixpoint(transform_program(ex2))
        assert not state.residual
        got = values(state.interp)
        assert got["a"].same_as(Interval(0.0, 0.0))
        assert got["b"].same_as(Interval(1.0, 1.0))
        assert got["c"].same_as(Interval(1.0, 1.0))

    def test_fully_cyclic_program_stays_residual(self, ex8):
        state = mi_fixpoint(transform_program(ex8))
        assert not state.interp
        assert len(state.residual) == 3

    def test_inconsistent_aggregation_halts(self, ex5):
        state = mi_fixpoint(transform_program(ex5))
        assert state.inconsistent_atoms == [Atom("a")]

    def test_interpretation_grows_monotonically(self, ex6):
        state = initial_state(transform_program(ex6))
        seen = set()
        while True:
            nxt = gamma_step(state)
            if nxt is state:
                break
            assert seen < set(nxt.interp)
            assert nxt.step == state.step + 1
            seen = set(nxt.interp)
            state = nxt
        assert state.step == 4

    def test_trace_counts_residual_rules(self, ex6):
        state = mi_fixpoint(transform_program(ex6))
        steps = [t[0] for t in state.trace]
        assert steps == [1, 2, 3, 4]
        # residual counts are strictly decreasing
        lefts = [t[2] for t in state.trace]
        assert lefts == sorted(lefts, reverse=True)


def _stepped_fixpoint(p):
    """The reference: gamma_step iterated from initial_state."""
    state = initial_state(p)
    while (nxt := gamma_step(state)) is not state:
        state = nxt
    return state


def _exact(v):
    return (v.lower, v.upper) if isinstance(v, Interval) else repr(v)


def _snapshot(s):
    return {
        "step": s.step,
        "trace": s.trace,
        "interp": [(str(a), repr(v), _exact(v)) for a, v in s.interp.items()],
        "residual": [(str(a), str(e)) for a, e in s.residual.items()],
        "residual_exprs": list(s.residual.values()),
        "inconsistent": [str(a) for a in s.inconsistent_atoms],
    }


def _assert_same_paths(text):
    p = transform_program(parse_program(text))
    assert _snapshot(mi_fixpoint(p)) == _snapshot(_stepped_fixpoint(p))


@st.composite
def _interval_text(draw):
    lo, hi = sorted(draw(st.integers(0, 100)) / 100 for _ in range(2))
    return f"[{lo},{hi}]"


@st.composite
def _program_text(draw):
    """1-8 rules over 1-6 atoms; each body has 1-3 items, constants or
    (possibly naf, possibly negated) literals."""
    atoms = "abcdef"[:draw(st.integers(1, 6))]
    literal = st.builds("{}{}".format, st.sampled_from(["", "-"]),
                        st.sampled_from(atoms))
    item = st.one_of(_interval_text(),
                     st.builds("{}{}".format,
                               st.sampled_from(["", "not "]), literal))
    rule = st.builds(lambda head, w, body: f"{head} <- {w} : "
                     f"{', '.join(body)}.",
                     literal, _interval_text(),
                     st.lists(item, min_size=1, max_size=3))
    return "\n".join(draw(st.lists(rule, min_size=1, max_size=8))) + "\n"


class TestWatchListMatchesStepping:
    """mi_fixpoint reaches exactly the state gamma_step iterates to."""

    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.unasp")),
                             ids=lambda path: path.stem)
    def test_example_programs(self, path):
        _assert_same_paths(path.read_text())

    def test_inconsistent_halt_is_covered(self, ex5):
        assert mi_fixpoint(transform_program(ex5)).inconsistent_atoms

    @settings(max_examples=300, deadline=None)
    @given(text=_program_text())
    def test_random_programs(self, text):
        _assert_same_paths(text)


def _reference_trace(bodies):
    """The mi trace lines, formatted from the values each gamma_step
    assigns."""
    lines, state = [], initial_state(bodies)
    while (nxt := gamma_step(state)) is not state:
        assigned = {a: v for a, v in nxt.interp.items()
                    if a not in state.interp}
        values = ", ".join(f"{a}:{v}" for a, v in
                           sorted(assigned.items(), key=lambda kv: str(kv[0])))
        lines.append(f"mi step {nxt.step}: {values} "
                     f"({len(nxt.residual)} rules residual)")
        state = nxt
    return lines


def _assert_trace_lines(text):
    """component_pass writes the reference's mi trace lines, which it
    reads back from the fixpoint's counts and interpretation."""
    bodies = transform_program(parse_program(text))
    lines = []
    component_pass(mi_fixpoint(bodies),
                   SolverConfig(trace={"mi"}, trace_sink=lines.append))
    assert lines == _reference_trace(bodies)


class TestTraceLines:
    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.unasp")),
                             ids=lambda path: path.stem)
    def test_example_programs(self, path):
        _assert_trace_lines(path.read_text())

    @settings(max_examples=200, deadline=None)
    @given(text=_program_text())
    def test_random_programs(self, text):
        _assert_trace_lines(text)


SEED_VALUES = st.sampled_from([Interval(0.0, 0.0), Interval(1.0, 1.0),
                               Interval(0.0, 1.0), Interval(0.5, 0.5),
                               Interval(0.3, 0.7), Interval(0.25, 1.0)])


class TestSeededPass:
    """mi_fixpoint with seeds reaches the state of the old inner pass,
    which substituted the seeds into every body before the fixpoint."""

    @settings(max_examples=300, deadline=None)
    @given(text=_program_text(), residual=st.booleans(), data=st.data())
    def test_same_state_as_substituting_every_body(self, text, residual,
                                                   data):
        bodies = transform_program(parse_program(text))
        if residual:
            # the cyclic part the monotonic pass leaves, as nmi sees it
            bodies = mi_fixpoint(bodies).residual or bodies
        atoms = sorted({a for e in bodies.values()
                        for a in referenced_atoms(e)} | set(bodies), key=str)
        chosen = data.draw(st.lists(st.sampled_from(atoms), unique=True))
        seeds = {a: data.draw(SEED_VALUES) for a in chosen}
        old = mi_fixpoint({a: substitute(e, seeds)
                           for a, e in bodies.items()})
        for state in (mi_fixpoint(bodies, seeds),
                      mi_fixpoint(bodies, seeds, watch_index(bodies))):
            assert [(str(a), repr(v)) for a, v in state.interp.items()] \
                == [(str(a), repr(v)) for a, v in old.interp.items()]
            assert list(state.residual.items()) == list(old.residual.items())
            assert state.inconsistent_atoms == old.inconsistent_atoms
            assert _snapshot(state) == _snapshot(old)


def test_seed_of_an_atom_heading_no_body_reaches_its_readers():
    # the halt leaves b reading a, which heads none of the residual bodies
    bodies = transform_program(parse_program(
        "a <- [1,1] : [1,1].\n-a <- [1,1] : [1,1].\nb <- [1,1] : a.\n"))
    residual = mi_fixpoint(bodies).residual
    assert list(residual) == [Atom("b")]
    seeds = {Atom("a"): Interval(0.5, 0.5)}
    state = mi_fixpoint(residual, seeds)
    assert state.interp == {Atom("b"): Interval(0.5, 0.5)}
    assert not state.residual


def test_acyclic_chain_substitutes_once_per_reference(monkeypatch):
    n = 2000
    lines = ["a0 <- [1,1] : [0.9,1]."]
    lines += [f"a{i} <- [0.95,1] : a{i - 1}, not a{i // 2}, [0.8,1]."
              for i in range(1, n)]
    p = transform_program(parse_program("\n".join(lines) + "\n"))
    bound = sum(len(referenced_atoms(e)) for e in p.values())
    calls = 0

    def counting(e, values):
        nonlocal calls
        calls += 1
        assert calls <= bound, "more substitutions than references"
        return substitute(e, values)

    monkeypatch.setattr(mi, "substitute", counting)
    state = mi_fixpoint(p)
    assert len(state.interp) == n and not state.residual


def _chain_text(n):
    lines = ["a0 <- [1,1] : [0.9,1]."]
    lines += [f"a{i} <- [0.95,1] : a{i - 1}, not a{i // 2}, [0.8,1]."
              for i in range(1, n)]
    return "\n".join(lines) + "\n"


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 argument passing leaves the caller's "
                           "value stack holding the argument for the call")
def test_solve_frees_each_transformed_body(monkeypatch):
    """solve passes transform_program(g) straight to mi_fixpoint, which
    copies it into the residual and lets it go: each body a substitution
    reads is held by one dict, the residual, and no longer also by the
    table transform_program built.  mi_fixpoint is not wrapped here, as
    a wrapper's frame would hold that table."""
    program = parse_program(_chain_text(300))
    holders = []

    def recording(e, values):
        holders.append(sum(type(r) is dict for r in gc.get_referrers(e)))
        return substitute(e, values)

    monkeypatch.setattr(mi, "substitute", recording)
    assert solve(program).status == "ok"
    assert holders and set(holders) == {1}


def _assert_bodies_kept(bodies, seeds):
    """mi_fixpoint leaves the caller's dict as it was, with no seeds
    and no index, with seeds and their index, and with seeds alone:
    the same keys in the same order, bound to the same objects."""
    keys, exprs = list(bodies), list(bodies.values())
    for call in (lambda: mi_fixpoint(bodies),
                 lambda: mi_fixpoint(bodies, seeds, watch_index(bodies)),
                 lambda: mi_fixpoint(bodies, seeds)):
        call()
        assert list(bodies) == keys
        assert len(bodies) == len(exprs)
        assert all(e is kept for e, kept in zip(bodies.values(), exprs))


class TestCallerBodiesKept:
    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.unasp")),
                             ids=lambda path: path.stem)
    def test_example_programs(self, path):
        bodies = transform_program(parse_program(path.read_text()))
        _assert_bodies_kept(
            bodies, {a: Interval(0.5, 0.5) for a in list(bodies)[::2]})

    @settings(max_examples=200, deadline=None)
    @given(text=random_programs(), data=st.data())
    def test_random_programs(self, text, data):
        bodies = transform_program(parse_program(text))
        chosen = data.draw(st.lists(st.sampled_from(sorted(bodies, key=str)),
                                    unique=True))
        _assert_bodies_kept(bodies, {a: data.draw(SEED_VALUES)
                                     for a in chosen})


def test_golden_round_builds_a_graph_only_where_a_step_reaches_bodies(
        monkeypatch):
    """A solve of each example program builds 18 dependency graphs in
    mi, own indexes and watch indexes together: a pass with no constant
    to start from, or whose first step assigns every atom, builds none."""
    build, calls = mi.atom_digraph, []

    def counting(entries):
        calls.append(len(entries))
        return build(entries)

    monkeypatch.setattr(mi, "atom_digraph", counting)
    for path in sorted(PROGRAMS.glob("*.unasp")):
        solve(parse_program(path.read_text()))
    assert len(calls) == 18
