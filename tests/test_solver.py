import json
import sys
import weakref

import pytest
from hypothesis import example, given, settings

from unasp import (Atom, Literal, mi_fixpoint, parse_program, solve,
                   transform_program)
from unasp.cli import run_cli
from unasp.intervals import Interval
from unasp import semantics, solver, transform
from unasp.nmi import KAGG_CAP, NmiConfig
from unasp.program import Program, ground
from unasp.semantics import (enumerate_grid_supported, interp_kp_below,
                             is_answer_set, is_supported_model,
                             model_to_json)
from unasp.solver import SolverConfig, component_pass

from conftest import (FOLDED_CYCLES, PROGRAMS, TEN_VARIABLES, UNCOVERABLE,
                      atom_values, random_programs, reduct,
                      total_from_positive)


def tight(eps=1e-9, **kw):
    return SolverConfig(nmi=NmiConfig(eps=eps), **kw)


def only(report):
    assert report.status == "ok"
    assert len(report.answer_sets) == 1
    return report.answer_sets[0]


class TestGoldenPrograms:
    def test_example1_total_ignorance(self, ex1):
        i = only(solve(ex1))
        assert atom_values(i) == {"a": (0.0, 1.0), "b": (0.0, 1.0)}
        assert i[Literal(Atom("a"), True)].same_as(Interval(0, 1))

    def test_example2_certain_negative_wins(self, ex2):
        i = only(solve(ex2))
        assert atom_values(i) == {"a": (0.0, 0.0), "b": (1.0, 1.0),
                                  "c": (1.0, 1.0)}
        assert i[Literal(Atom("a"), True)].same_as(Interval(1, 1))

    def test_example3_midpoint(self, ex3):
        i = only(solve(ex3))
        assert atom_values(i) == {"p": (0.5, 0.5)}

    def test_example4_grid_of_defaults(self, ex4):
        report = solve(ex4)
        assert report.status == "ok"
        got = sorted(atom_values(i)["a"][0] for i in report.answer_sets)
        assert got == [0, 0.25, 0.5, 0.75, 1]
        for i in report.answer_sets:
            a, b = atom_values(i)["a"], atom_values(i)["b"]
            assert b[0] == pytest.approx(1 - a[0], abs=1e-9)

    def test_example5_no_answer_set(self, ex5):
        report = solve(ex5)
        assert report.status == "no_answer_set"
        assert not report.answer_sets
        assert any("inconsistent" in note for note in
                   report.diagnostics["notes"])

    def test_example8_resolved_through_aggregation_analysis(self, ex8):
        i = only(solve(ex8, tight(eps=1e-12)))
        got = atom_values(i)
        for name, want in (("a", (0, 0)), ("b", (0, 0)), ("c", (1, 1))):
            assert got[name][0] == pytest.approx(want[0], abs=1e-9)
            assert got[name][1] == pytest.approx(want[1], abs=1e-9)

    def test_tweety_flies_by_default(self, tweety):
        i = only(solve(tweety))
        got = atom_values(i)
        assert got["fly(tweety)"] == (0.7, 1.0)
        assert got["bird(tweety)"] == (1.0, 1.0)
        assert got["penguin(tweety)"] == (0.0, 1.0)


EX6_SHARED = {
    "p": (0.3916, 0.4951), "m": (0.42, 0.72), "s": (0.42, 0.72),
    "h": (0.5557, 0.7938), "i": (0.4443, 0.4443), "j": (0.2062, 0.2062),
    "k": (0.7938, 0.7938), "c": (0.5557, 0.7938),
    "u": (0.0811, 0.226), "v": (0.8106, 0.9418),
    "x": (0.1621, 0.2826), "w": (0.1621, 0.2826),
}
EX6_BRANCHES = {
    (0.0, 1.0): (0.4, 0.6),
    (0.25, 0.75): (0.3, 0.45),
    (0.75, 0.25): (0.1, 0.15),
    (1.0, 0.0): (0.0, 0.0),
}


@pytest.fixture(scope="module")
def report(ex6):
    return solve(ex6, tight(eps=1e-6, seeds=[0, 0.25, 0.75, 1]))


class TestExample6Pipeline:
    def test_four_answer_sets(self, report):
        assert report.status == "ok"
        assert len(report.answer_sets) == 4

    def test_shared_valuation(self, report):
        for i in report.answer_sets:
            got = atom_values(i)
            for name, (lo, hi) in EX6_SHARED.items():
                assert got[name][0] == pytest.approx(lo, abs=5e-4), name
                assert got[name][1] == pytest.approx(hi, abs=5e-4), name

    def test_branching_component_values(self, report):
        seen = {}
        for i in report.answer_sets:
            got = atom_values(i)
            y, z, l = got["y"], got["z"], got["l"]
            assert y[0] == y[1] and z[0] == z[1]
            seen[(y[0], z[0])] = l
        assert set(seen) == set(EX6_BRANCHES)
        for key, (lo, hi) in EX6_BRANCHES.items():
            assert seen[key][0] == pytest.approx(lo, abs=1e-9)
            assert seen[key][1] == pytest.approx(hi, abs=1e-9)

    def test_downstream_follows_each_branch(self, report):
        # l is recomputed per y/z branch: l = z * [0.4, 0.6]
        for i in report.answer_sets:
            got = atom_values(i)
            assert got["l"][0] == pytest.approx(0.4 * got["z"][0], abs=1e-9)
            assert got["l"][1] == pytest.approx(0.6 * got["z"][1], abs=1e-9)

    def test_no_verifier_rejections(self, report):
        assert not any("verifier" in note
                       for note in report.diagnostics["notes"])

    def test_component_diagnostics(self, report):
        methods = {tuple(rec["component"]): rec["method"]
                   for rec in report.diagnostics["components"]}
        assert methods[("y", "z")] == "branch_and_bound"
        assert methods[("u", "v", "w", "x")] == "nmi"


class TestReportShape:
    def test_deterministic_output(self, ex6):
        cfg = lambda: tight(eps=1e-6, seeds=[0, 0.25, 0.75, 1])  # noqa: E731
        a = solve(ex6, cfg())
        b = solve(ex6, cfg())
        dump = lambda r: json.dumps(  # noqa: E731
            [model_to_json(i) for i in r.answer_sets], sort_keys=True)
        assert dump(a) == dump(b)

    def test_answer_set_cap_reports_incomplete(self, ex4):
        report = solve(ex4, SolverConfig(max_answer_sets=2))
        assert report.status == "incomplete"
        assert len(report.answer_sets) <= 2

    def test_iteration_cap_reports_incomplete(self, ex7):
        report = solve(ex7, SolverConfig(
            nmi=NmiConfig(eps=1e-9, max_outer_iters=3)))
        assert report.status == "incomplete"
        assert any("iteration cap" in note
                   for note in report.diagnostics["notes"])

    def test_ground_rule_cap_reports_incomplete(self):
        report = solve(parse_program(TEN_VARIABLES))
        assert report.status == "incomplete" and not report.answer_sets
        assert report.diagnostics["notes"] == [
            "rule r#1: 100 constants over 10 variables take the program "
            "past 100000 ground rules"]

    def test_status_matches_emptiness(self, ex1, ex3, ex5):
        for p in (ex1, ex3):
            r = solve(p)
            assert r.status == "ok" and r.answer_sets
        r = solve(ex5)
        assert r.status == "no_answer_set" and not r.answer_sets

    def test_trace_streams(self, ex6):
        lines = []
        cfg = tight(eps=1e-6, seeds=[0, 0.25, 0.75, 1],
                    trace={"mi", "nmi", "graph"}, trace_sink=lines.append)
        solve(ex6, cfg)
        text = "\n".join(lines)
        assert "mi step 1" in text
        assert "components (topo order)" in text
        assert "[branch_and_bound]" in text


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.unasp")),
                         ids=lambda path: path.stem)
def test_solve_groups_rules_without_scanning(path, monkeypatch):
    """transform and the verifier read one grouping of the rules by head
    instead of scanning the program once per literal."""
    program = parse_program(path.read_text())

    def scan(self, lit):
        raise AssertionError(f"rules_for({lit}) scanned the program")
    monkeypatch.setattr(Program, "rules_for", scan)
    assert solve(program).status in ("ok", "no_answer_set")


def _raise(*args):
    raise AssertionError("the other side's valuation code was called")


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.unasp")),
                         ids=lambda path: path.stem)
class TestNoSharedValuation:
    """The solver folds bodies with `transform.simplify`; the verifier
    values each atom straight from its rules with
    `semantics.forced_bounds`, and the grid oracle values rules with
    `forced_bounds` too.  Neither side calls the other's."""

    def test_verifier_folds_nothing(self, path, monkeypatch):
        program = parse_program(path.read_text())
        report = solve(program)
        monkeypatch.setattr(transform, "simplify", _raise)
        g = ground(program)
        eps = SolverConfig().nmi.answer_tol
        assert all(is_answer_set(t, g, candidates=report.answer_sets,
                                 eps=eps) for t in report.answer_sets)

    def test_solver_evaluates_nothing(self, path, monkeypatch):
        forced = semantics.forced_bounds
        for module in list(sys.modules.values()):
            if module.__name__.split(".")[0] != "unasp":
                continue
            if getattr(module, "forced_bounds", None) is forced:
                monkeypatch.setattr(module, "forced_bounds", _raise)
        g = ground(parse_program(path.read_text()))
        state = mi_fixpoint(transform_program(g))
        assert component_pass(state, SolverConfig()).branches


def _setting_id(kw):
    """The id of a settings dict, with trace kinds written as a set
    literal: sorted when given as a set, whose order moves with the hash
    seed, and in the given order when given as a list."""
    kinds = kw.get("trace")
    if kinds is None:
        return str(kw)
    ordered = sorted(kinds) if isinstance(kinds, set) else kinds
    return "{'trace': {" + ", ".join(map(repr, ordered)) + "}}"


@pytest.mark.parametrize("config, kw", [
    (NmiConfig, {"eps": float("nan")}), (NmiConfig, {"eps": float("inf")}),
    (NmiConfig, {"eps": -0.1}), (NmiConfig, {"max_outer_iters": 0}),
    (NmiConfig, {"max_outer_iters": -1}),
    (SolverConfig, {"max_answer_sets": 0}),
    (SolverConfig, {"max_answer_sets": -1}),
    (SolverConfig, {"trace": {"mi", "grpah"}}),
    (SolverConfig, {"trace": ["mi", "grpah"]})],
    ids=lambda v: getattr(v, "__name__", None) or _setting_id(v))
def test_config_rejects_out_of_range_settings(config, kw):
    """A NaN or infinite eps judged nothing, a cap of -1 sliced the
    answer sets [:-1] or ran no iteration, and a misspelt trace kind
    traced nothing, whether the kinds come as a set or as a list."""
    with pytest.raises(ValueError, match="must be"):
        config(**kw)


@pytest.mark.parametrize("seeds", [[], [2.0], [-0.5], [float("nan")],
                                   [0, 1.5]])
def test_config_rejects_empty_or_out_of_range_seeds(seeds):
    """An empty list tried no seed and answered no_answer_set, and a
    seed outside [0,1] raised from inside branch_and_bound."""
    with pytest.raises(ValueError, match=r"^seeds must lie in \[0,1\]$"):
        SolverConfig(seeds=seeds)


@pytest.mark.parametrize("name", ["ex2", "ex6", "ex7"])
def test_verifier_runs_with_no_body_table(name, monkeypatch):
    """solve holds the transformed bodies only while the monotonic
    stage runs, and that stage's state and the component pass only
    until it builds the candidates: none of them is alive while a
    candidate is verified.  The trace rows of every fixpoint are
    counts, with no dict of values."""
    class Table(dict):
        pass
    refs, kinds, dead = [], [], []
    transform_program, mi_fixpoint, component_pass = (
        solver.transform_program, solver.mi_fixpoint, solver.component_pass)
    verify = semantics.is_answer_set

    def watch(fn, wrap=None):
        def watched(*args):
            result = fn(*args)
            if wrap:
                result = wrap(result)
            refs.append(weakref.ref(result))
            kinds.append(type(result))
            return result
        return watched

    def check_freed(*args, **kwargs):
        dead.append(all(ref() is None for ref in refs))
        return verify(*args, **kwargs)

    def counts_only(state):
        assert all(type(x) is int for row in state.trace for x in row)
        return state
    monkeypatch.setattr(solver, "transform_program",
                        watch(transform_program, Table))
    monkeypatch.setattr(solver, "mi_fixpoint",
                        watch(mi_fixpoint, counts_only))
    monkeypatch.setattr(solver, "component_pass", watch(component_pass))
    monkeypatch.setattr(semantics, "is_answer_set", check_freed)
    assert solve(parse_program((PROGRAMS / f"{name}.unasp").read_text())) \
        .answer_sets
    assert kinds.count(Table) == 1 and kinds.count(solver.ComponentPass) == 1
    assert solver.MiState in kinds
    assert dead and all(dead)


def test_untraced_solve_builds_no_trace_text(ex6, monkeypatch):
    """Trace lines are formatted only for a traced kind with a sink."""
    from unasp import solver

    def fmt(values):
        raise AssertionError("trace text built while untraced")
    monkeypatch.setattr(solver, "_fmt_vals", fmt)
    assert solve(ex6, SolverConfig(trace_sink=print)).status == "ok"
    assert solve(ex6, SolverConfig(trace={"mi", "nmi", "graph"})).status \
        == "ok"


class TestGridTieTolerance:
    """The grid breaks kagg ties at EPS_CMP, as the rest of the solver
    does, so it finds rivals that is_supported_model accepts."""

    def test_one_atom_candidate_has_a_less_certain_grid_rival(self):
        p = parse_program("a <- [0.765,0.936] : -a, a.\n"
                          "-a <- [0.212,0.989] : not a, a.")
        cfg = SolverConfig()
        report = solve(p, cfg)
        assert report.status == "ok"
        assert "verifier rejected 1 candidate(s)" \
            in report.diagnostics["notes"]
        branches = component_pass(mi_fixpoint(transform_program(p)),
                                  cfg).branches
        (branch,) = [b for b in branches
                     if b[Atom("a")].same_as(Interval(0, 0.120455646), 1e-8)]
        candidate = total_from_positive(branch)
        a = Literal(Atom("a"))
        assert candidate[a].same_as(Interval(0, 0.120455646), 1e-8)
        red = reduct(p, candidate)
        eps = cfg.nmi.answer_tol
        rival = {a: Interval(0, 0.25)}
        assert rival in enumerate_grid_supported(red, eps=eps)
        assert interp_kp_below(rival, candidate, eps)
        assert is_supported_model(rival, red, eps)

    def test_three_atom_program_has_no_answer_set(self):
        report = solve(parse_program(
            "a <- [0.251,0.673] : a, not a.\n"
            "c <- [0.239,0.572] : [0.215,0.564], not c, [0.188,0.513].\n"
            "-c <- [0.072,0.476] : b, [0.718,0.891], [0.438,0.515].\n"
            "c <- [0.213,0.824] : [0.059,0.149], [0.265,0.642], -c."))
        assert report.status == "no_answer_set"
        assert "verifier rejected 1 candidate(s)" \
            in report.diagnostics["notes"]


class TestUnsolvedComponents:
    def test_no_valid_assumption_set_reports_incomplete(self):
        report = solve(parse_program(UNCOVERABLE))
        assert report.status == "incomplete"
        assert not report.answer_sets
        (rec,) = report.diagnostics["components"]
        assert rec["method"] == "branch_and_bound"
        assert "assumption_set_error" in rec
        assert any("x,y,z" in note for note in report.diagnostics["notes"])

    def test_cycle_cap_reports_incomplete(self):
        """Transitive closure over a ring of 9 constants has more simple
        cycles than the cap."""
        ring = "".join(f"e(c{i},c{(i + 1) % 9}).\n" for i in range(9))
        report = solve(parse_program(
            "r(X,Y) <- [1,1] : e(X,Y).\n"
            "r(X,Z) <- [0.9,1] : e(X,Y), r(Y,Z).\n" + ring))
        assert report.status == "incomplete"
        (rec,) = report.diagnostics["components"]
        names = ",".join(rec["component"])
        assert names.startswith("r(c0,c0),")
        assert any(names in note and "more than 10000 simple cycles" in note
                   for note in report.diagnostics["notes"])

    def test_every_cyclic_component_is_recorded(self, ex1, ex8):
        methods = lambda p: [rec["method"] for rec in  # noqa: E731
                             solve(p).diagnostics["components"]]
        assert methods(ex1) == ["ignorance"]
        assert methods(ex8) == ["kagg_cycle"]


def test_inconsistent_acyclic_value_drops_its_branch():
    """The branch y=[1,1] gives a equal-width positive and negative
    evidence; only the branch y=[0,0] survives."""
    report = solve(parse_program(
        "y <- [1,1] : not z. z <- [1,1] : not y. "
        "a <- [1,1] : y. -a <- [1,1] : [1,1]."))
    assert atom_values(only(report)) == {"y": (0.0, 0.0), "z": (1.0, 1.0),
                                         "a": (0.0, 0.0)}
    assert "branch dropped: inconsistent value at a" \
        in report.diagnostics["notes"]


def test_exact_orbit_reports_its_period():
    report = solve(parse_program("a <- [0.74,0.81] : not a, -a."))
    assert report.status == "incomplete"
    assert not report.answer_sets
    assert report.diagnostics["notes"] \
        == ["period-2 oscillation on component a"]


class TestAggregationSideSelection:
    def test_no_self_consistent_selection(self):
        """Iterated, this component ran into a period-3 orbit; neither
        side of -b's aggregation wins on what its selection gives."""
        report = solve(parse_program(
            "a <- [0.32,0.73] : not a, b. -b <- [0.32,0.94] : b, a. "
            "b <- [0.33,0.97] : a, not a."))
        assert report.status == "no_answer_set"
        assert not report.answer_sets
        assert report.diagnostics["notes"] == [
            "no side selection of the aggregations in component a,b "
            "is self-consistent"]

    def test_oscillating_selection_is_incomplete(self):
        report = solve(parse_program(
            "a <- [0.09,0.95] : not -a, not a. "
            "-a <- [0.59,0.73] : a, not -a, a."))
        assert report.status == "incomplete"
        assert report.diagnostics["notes"] \
            == ["period-2 oscillation on component a"]
        assert [rec["method"] for rec in report.diagnostics["components"]] \
            == ["kagg_cycle"]

    def test_more_aggregations_than_the_cap(self, monkeypatch):
        """A ring of KAGG_CAP + 1 aggregations: no side selection is
        valued, only the component itself."""
        n = KAGG_CAP + 1
        p = parse_program(" ".join(
            f"a{k} <- [0.2,0.6] : [1,1]. -a{k} <- [1,1] : a{(k - 1) % n}."
            for k in range(n)))
        calls = []
        value = solver._value_component
        monkeypatch.setattr(solver, "_value_component",
                            lambda *args: calls.append(1) or value(*args))
        report = solve(p)
        assert report.status == "incomplete"
        assert len(calls) == 1
        (note,) = report.diagnostics["notes"]
        assert note.startswith("branch dropped: component a0,a1,")
        assert note.endswith(f"unsolved: more than {KAGG_CAP} aggregations")

    @pytest.mark.parametrize("text, values", [
        # the right side of a's aggregation, valued from ignorance, stops
        # at a = [0,0.31], where the left side wins
        ("a <- [0.08,0.68] : a. a <- [0.6,0.9] : a, [0.1,0.29]. "
         "-a <- [0.69,1.0] : not a. a <- [0.12,0.18] : not a, not a.",
         [{"a": (0.12, 0.3928)}, {"a": (1, 1)}]),
        ("-c <- [0.1,0.2] : a. a <- [0.07,0.98] : [0.53,0.56], -a, c. "
         "c <- [0.76,0.95] : a, not c, not -c. a <- [0.06,0.94] : c.",
         [{"a": (0, 7.72408e-09), "c": (0, 0)}])])
    def test_fixpoints_no_selection_reaches(self, text, values):
        """Iterating the aggregations themselves finds these."""
        p = parse_program(text)
        report = solve(p)
        assert report.status == "ok"
        got = sorted((atom_values(i) for i in report.answer_sets),
                     key=lambda v: v["a"])
        assert len(got) == len(values)
        for answer, want in zip(got, values):
            for name, bounds in want.items():
                assert answer[name] == pytest.approx(bounds, abs=1e-6)
        for answer in report.answer_sets:
            assert is_answer_set(answer, p, candidates=report.answer_sets,
                                 eps=report.diagnostics["verify_eps"])

    @pytest.mark.parametrize("text, status, values", [
        # random/97 of tools/answer_corpus.py: a period-3 orbit before
        ("a <- [0.07,0.7] : not a, -a. -a <- [0.49,0.54] : -a, not a. "
         "-a <- [0.44,0.59] : [0.02,0.31], a, not -a. "
         "a <- [0.14,0.62] : not a, a.", "no_answer_set", []),
        # random/273: a period-4 orbit before
        ("a <- [0.34,0.97] : not b, not a. -b <- [0.98,1.0] : b. "
         "b <- [0.26,0.35] : -a, not a, -a.", "ok",
         [{"a": (0.250634907, 0.715046646),
           "b": (0.015659870, 0.147001034)}])])
    def test_former_corpus_oscillations(self, text, status, values):
        report = solve(parse_program(text))
        assert report.status == status
        got = [atom_values(i) for i in report.answer_sets]
        assert len(got) == len(values)
        for answer, want in zip(got, values):
            for name, bounds in want.items():
                assert answer[name] == pytest.approx(bounds, abs=1e-6)


@pytest.mark.parametrize("text", FOLDED_CYCLES.values(), ids=FOLDED_CYCLES)
def test_cycle_folded_by_branch_values_is_valued(text):
    p = parse_program(text)
    report = solve(p)
    answer = only(report)
    assert is_answer_set(answer, p, candidates=report.answer_sets,
                         eps=report.diagnostics["verify_eps"])


def test_folded_component_has_no_record():
    """b is [0,0], so d's body folds to [0,0] and then c's: the cycle
    c-d is valued by the monotonic stage and never planned."""
    report = solve(parse_program(
        "b <- [0.29,0.52] : not a, b, not -b. "
        "c <- [0.12,0.41] : not c, d, [0.42,0.62]. -a <- [0.44,0.84] : a. "
        "d <- [0.43,0.58] : -c, not a, b."))
    assert report.status == "ok"
    components = [rec["component"] for rec in
                  report.diagnostics["components"]]
    assert ["c", "d"] not in components and ["a"] in components


@settings(max_examples=200, deadline=None)
@given(random_programs())
@example(FOLDED_CYCLES["a-c"])
@example(FOLDED_CYCLES["b-c"])
# one answer set has a = [0, 2.45098e-09]: rounded, it fails `check`
@example("-a <- [0.0,0.89] : not a, [0.0,0.46], a.\n"
         "a <- [0.0,0.73] : a, a.\n")
def test_random_programs_solve_to_a_status(tmp_path_factory, text):
    """Any program gives a status and verified answer sets, the CLI a
    documented exit code, and `check` accepts every emitted set."""
    p = parse_program(text)
    cfg = SolverConfig()
    report = solve(p, cfg)
    assert report.status in ("ok", "no_answer_set", "incomplete")
    for answer in report.answer_sets:
        assert is_answer_set(answer, p, candidates=report.answer_sets,
                             eps=cfg.nmi.answer_tol)
    base = tmp_path_factory.getbasetemp()
    target = base / "random.unasp"
    target.write_text(text)
    for command in ("solve", "analyze"):
        assert run_cli([command, str(target), "--format", "json",
                        "--dot", str(base / "random.dot")]) in (0, 1, 3)
    model = base / "random.model.json"
    for answer in report.answer_sets:
        model.write_text(json.dumps(model_to_json(answer)))
        assert run_cli(["check", str(target), "--model", str(model)]) == 0
