import json

import pytest

from unasp import parse_program
from unasp.cli import (EXIT_INCOMPLETE, EXIT_NO_ANSWER, EXIT_OK, EXIT_USAGE,
                       run_cli)
from unasp.intervals import Interval

from conftest import (FOLDED_CYCLES, PARALLEL_EDGES, program_path, PROGRAMS,
                      UNCOVERABLE)


def path(name):
    return str(program_path(name))


class TestSolve:
    def test_text_output(self, capsys):
        assert run_cli(["solve", path("ex3")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "p: [0.5,0.5]" in out

    def test_json_output(self, capsys):
        assert run_cli(["solve", path("ex3"), "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "ok"
        assert len(data["answer_sets"]) == 1
        assert data["answer_sets"][0]["positive"]["p"] == [0.5, 0.5]
        assert data["answer_sets"][0]["negative"]["p"] == [0.5, 0.5]

    def test_no_answer_set_exit_code(self, capsys):
        assert run_cli(["solve", path("ex5")]) == EXIT_NO_ANSWER
        assert "no answer set" in capsys.readouterr().out

    def test_seeds_flag(self, capsys):
        assert run_cli(["solve", path("ex4"), "--seeds", "0,1",
                        "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert len(data["answer_sets"]) == 2

    def test_incomplete_exit_code(self, capsys):
        assert run_cli(["solve", path("ex7"), "--eps", "1e-9",
                        "--max-iter", "3"]) == EXIT_INCOMPLETE

    def test_json_is_deterministic(self, capsys):
        args = ["solve", path("ex6"), "--eps", "1e-6",
                "--seeds", "0,0.25,0.75,1", "--format", "json"]
        assert run_cli(args) == EXIT_OK
        first = capsys.readouterr().out
        assert run_cli(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_trace_goes_to_stderr(self, capsys):
        assert run_cli(["solve", path("ex6"), "--trace", "mi"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "mi step 1" in err

    EX2_MI = ("mi step 1: b:[1,1], c:[1,1] (1 rules residual)\n"
              "mi step 2: a:[0,0] (0 rules residual)\n")

    # analyze writes the mi trace as solve does
    @pytest.mark.parametrize("name, text, command", [
        ("ex2", EX2_MI, "solve"),
        ("ex2", EX2_MI, "analyze"),
        ("ex4", "components (topo order): a,b\n"
                + "".join(f"component a,b [branch_and_bound] result {k}: "
                          f"a:[{a}], b:[{b}]\n"
                          for k, (a, b) in enumerate([
                              ("0,0", "1,1"), ("0.25,0.25", "0.75,0.75"),
                              ("0.5,0.5", "0.5,0.5"),
                              ("0.75,0.75", "0.25,0.25"),
                              ("1,1", "0,0")])),
         "solve")])
    def test_trace_text(self, name, text, command, capsys):
        assert run_cli([command, path(name), "--trace", "mi,nmi,graph"]) \
            == EXIT_OK
        assert capsys.readouterr().err == text

    def test_dump_transformed(self, capsys):
        assert run_cli(["solve", path("ex3"), "--dump-transformed"]) == EXIT_OK
        assert "p <- not p." in capsys.readouterr().err

    def test_dump_transformed_text_of_ex6(self, capsys):
        assert run_cli(["solve", path("ex6"), "--dump-transformed"]) \
            == EXIT_OK
        assert capsys.readouterr().err == (
            "a <- (b & p).\n"
            "b <- (not a | g).\n"
            "c <- h.\n"
            "d <- (-g & a).\n"
            "e <- (d & w).\n"
            "f <- not e.\n"
            "g <- (-c & f).\n"
            "h <- ([0.7,1] & k).\n"
            "i <- not h.\n"
            "j <- (([0.8,0.8] & i & not s) (x)k -(s)).\n"
            "k <- -j.\n"
            "l <- ([0.4,0.6] & z).\n"
            "m <- ([0.6,0.8] & n).\n"
            "n <- [0.7,0.9].\n"
            "p <- ((([0.7,1] & q & not s) | ([0.3,0.3] & r & not t)) "
            "(x)k -((s | t))).\n"
            "q <- [0.7,0.7].\n"
            "r <- [0.5,0.5].\n"
            "s <- m.\n"
            "t <- [0,1].\n"
            "u <- ([0.5,0.8] & w).\n"
            "v <- (x | -u).\n"
            "w <- x.\n"
            "x <- ([0.2,0.3] & v).\n"
            "y <- not z.\n"
            "z <- not y.\n")

    def test_unwritable_dot_after_the_dump_and_the_trace(self, tmp_path,
                                                         capsys):
        """solve writes the dump, then the trace of the solve, and only
        then fails on the --dot file: exit 2, nothing on stdout."""
        flags = ["--dump-transformed", "--trace", "mi,nmi,graph"]
        run_cli(["solve", path("ex6"), flags[0]])
        dump = capsys.readouterr().err
        run_cli(["solve", path("ex6"), *flags[1:]])
        trace = capsys.readouterr().err
        dot = tmp_path / "missing" / "x.dot"
        assert run_cli(["solve", path("ex6"), *flags, "--dot", str(dot)]) \
            == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert dump and trace.startswith("mi step 1: ")
        assert err.startswith(dump + trace)
        error = err[len(dump + trace):]
        assert error.startswith("error: ") and error.count("\n") == 1
        assert str(dot) in error

    def test_dot_file(self, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        assert run_cli(["solve", path("ex3"), "--dot", str(dot)]) == EXIT_OK
        text = dot.read_text()
        assert text.startswith("digraph")
        assert 'label="-1"' in text

    def test_dot_text_of_ex3(self, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        assert run_cli(["solve", path("ex3"), "--dot", str(dot)]) == EXIT_OK
        assert dot.read_text() == ('digraph dependencies {\n'
                                   '  n0 [label="p", shape=ellipse];\n'
                                   '  n0 -> n0 [label="-1"];\n'
                                   '}')


class TestUsageErrors:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.unasp"
        bad.write_text("a <- [1,2] : b.")
        assert run_cli(["solve", str(bad)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli(["solve", str(PROGRAMS / "missing.unasp")]) \
            == EXIT_USAGE

    def test_bad_seed_value(self, capsys):
        assert run_cli(["solve", path("ex4"), "--seeds", "0,2"]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate", path("ex4")]) == EXIT_USAGE

    def test_eps_env_default(self, monkeypatch):
        from unasp import cli
        monkeypatch.setenv("UNASP_EPS", "0.123")
        assert cli._default_eps() == 0.123
        monkeypatch.setenv("UNASP_EPS", "nonsense")
        assert cli._default_eps() == 0.009
        # values --eps would reject: zero and below
        for value in ("0", "-1", "-0.0"):
            monkeypatch.setenv("UNASP_EPS", value)
            assert cli._default_eps() == 0.009


class TestCheck:
    def test_valid_model(self, capsys):
        code = run_cli(["check", path("ex2"),
                        "--model", str(PROGRAMS / "ex2.model.json")])
        assert code == EXIT_OK
        assert "VALID" in capsys.readouterr().out

    def test_invalid_model(self, tmp_path, capsys):
        model = tmp_path / "wrong.json"
        model.write_text(json.dumps(
            {"positive": {"a": [1, 1], "b": [1, 1], "c": [1, 1]}}))
        code = run_cli(["check", path("ex2"), "--model", str(model)])
        assert code == EXIT_NO_ANSWER
        assert "INVALID" in capsys.readouterr().out

    def test_json_format(self, capsys):
        code = run_cli(["check", path("ex2"), "--format", "json",
                        "--model", str(PROGRAMS / "ex2.model.json")])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"valid": True}

    def test_solver_flags_are_usage_errors(self, capsys):
        code = run_cli(["check", path("ex2"), "--seeds", "0,1",
                        "--model", str(PROGRAMS / "ex2.model.json")])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --seeds" in capsys.readouterr().err


class TestAnalyze:
    def test_json_structure(self, capsys):
        assert run_cli(["analyze", path("ex6"), "--format", "json"]) \
            == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert not data["halted_inconsistent"]
        assert "p" in data["mi_assigned"]
        comps = {tuple(rec["atoms"]) for rec in data["components"]}
        assert ("y", "z") in comps
        cyclic = [rec for rec in data["components"] if "cycles" in rec]
        assert all("assumption_set" in rec for rec in cyclic)
        yz = next(rec for rec in data["components"]
                  if rec["atoms"] == ["y", "z"])
        assert yz["contraction"] == "branch_bound_required"

    def test_text_output(self, capsys):
        assert run_cli(["analyze", path("ex7")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cycles=3" in out

    def test_dot_of_residual(self, tmp_path, capsys):
        dot = tmp_path / "residual.dot"
        assert run_cli(["analyze", path("ex6"), "--dot", str(dot)]) == EXIT_OK
        assert "KAGG" in dot.read_text()

    @pytest.mark.parametrize("name, text, contraction, aset, gains", [
        ("ex7", None, "unclassified", ["b", "d"], {"d": [0.63, 0.63, 0.63]}),
        ("naf-self-loop", "a <- [0.5,0.6] : not a, [0.8,0.9].\n",
         "simple_cycle_gain_lt1", ["a"], {"a": [0.4, 0.54, 0.54]}),
    ])
    def test_cycle_gains(self, name, text, contraction, aset, gains,
                         tmp_path, capsys):
        target = path(name)
        if text is not None:
            target = tmp_path / f"{name}.unasp"
            target.write_text(text)
        assert run_cli(["analyze", str(target), "--format", "json"]) \
            == EXIT_OK
        (record,) = json.loads(capsys.readouterr().out)["components"]
        assert record["contraction"] == contraction
        assert record["assumption_set"] == aset
        assert record["gains"] == gains

    def test_inconsistent_program(self, capsys):
        assert run_cli(["analyze", path("ex5"), "--format", "json"]) \
            == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["halted_inconsistent"] is True
        assert data["components"] == []


@pytest.fixture
def uncoverable(tmp_path):
    f = tmp_path / "uncoverable.unasp"
    f.write_text(UNCOVERABLE)
    return str(f)


def test_unsolved_component_exit_code(uncoverable, capsys):
    assert run_cli(["solve", uncoverable]) == EXIT_INCOMPLETE
    assert "status: incomplete" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "analyze"])
@pytest.mark.parametrize("text", FOLDED_CYCLES.values(), ids=FOLDED_CYCLES)
def test_folded_cycle_exits_ok(command, text, tmp_path, capsys):
    target = tmp_path / "folded.unasp"
    target.write_text(text)
    assert run_cli([command, str(target)]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        PROGRAMS.glob("*.unasp"))
                         + ["uncoverable"])
def test_analyze_reports_the_plan_solve_runs(name, uncoverable, capsys):
    """Every cyclic component that analyze reports carries the method,
    assumption set and contraction class of solve's record for it."""
    target = uncoverable if name == "uncoverable" else path(name)
    run_cli(["analyze", target, "--format", "json"])
    analysis = json.loads(capsys.readouterr().out)
    run_cli(["solve", target, "--format", "json"])
    solved = json.loads(capsys.readouterr().out)
    records = {}
    for rec in solved["diagnostics"]["components"]:
        records.setdefault(tuple(rec["component"]), rec)
    keys = ("method", "assumption_set", "contraction")
    cyclic = [rec for rec in analysis["components"] if "method" in rec]
    for rec in cyclic:
        want = records[tuple(rec["atoms"])]
        assert {k: rec.get(k) for k in keys} == {k: want.get(k) for k in keys}
    assert len(cyclic) == len(records)


# solve verified its answer set to 3 eps while check judged it to eps,
# so check rejected what solve had just printed
TOLERANCE_EDGE = """
c <- [0.29,0.5] : not -d, d.
-c <- [0.99,0.99] : not a, -c.
c <- [0.15,0.16] : [0.04,0.78], b.
b <- [0.77,0.96] : c.
b <- [0.54,0.94] : [0.77,0.88], c.
"""


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        PROGRAMS.glob("*.unasp"))
                         + ["tolerance_edge"])
def test_check_accepts_every_answer_set_solve_prints(name, tmp_path, capsys):
    if name == "tolerance_edge":
        target = tmp_path / "tolerance_edge.unasp"
        target.write_text(TOLERANCE_EDGE)
        target = str(target)
    else:
        target = path(name)
    run_cli(["solve", target, "--format", "json"])
    answer_sets = json.loads(capsys.readouterr().out)["answer_sets"]
    if name == "tolerance_edge":
        assert len(answer_sets) == 1
    for k, answer in enumerate(answer_sets):
        model = tmp_path / f"model{k}.json"
        model.write_text(json.dumps(answer))
        assert run_cli(["check", target, "--model", str(model)]) == EXIT_OK
        assert capsys.readouterr().out == "VALID\n"


def test_check_rejects_nonpositive_eps(capsys):
    assert run_cli(["check", path("ex2"), "--model",
                    str(PROGRAMS / "ex2.model.json"), "--eps", "0"]) \
        == EXIT_USAGE
    assert "eps must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "analyze"])
def test_dot_labels_each_parallel_edge_by_its_own_operator(command, tmp_path,
                                                           capsys):
    """a and not a join the same two nodes; only the second edge is naf
    (likewise b and -b, only the second classically negated)."""
    target = tmp_path / "parallel.unasp"
    target.write_text(PARALLEL_EDGES)
    dot = tmp_path / "parallel.dot"
    assert run_cli([command, str(target), "--dot", str(dot)]) == EXIT_OK
    lines = dot.read_text().splitlines()
    for line in ("  n0 -> n3;", '  n0 -> n3 [label="-1"];',
                 "  n2 -> n6;", '  n2 -> n6 [label="~"];'):
        assert line in lines


@pytest.mark.parametrize("text, names", [
    ('{"positive": {"a": 5}}', "'a'"),
    ('{"positive": {"a": [null, 1]}}', "'a'"),
    ('{"positive": 5}', "'positive'"),
    ('[1]', "JSON object"),
    ('{"positive": {"a": [0.2]}}', "'a'"),
    ('{"positive": {"a": ["x", 1]}}', "'a'"),
    ('{"positive": {"a": [0.5, 0.2]}}',
     "model positive 'a': interval bounds out of order"),
    ('{"negative": {"b": [0, 2]}}',
     "model negative 'b': interval outside [0,1]"),
    ('{"positive": {"a": [0, 1' + '0' * 400 + ']}}',
     "model positive 'a': interval outside [0,1]"),
    ('{"positive": {"a": [0.3, 0.3], "zz": [0.5, 0.5]}}',
     "model positive 'zz': not an atom of the program"),
    ('{"positive": ', "Expecting value")])
def test_malformed_model_file_is_a_usage_error(text, names, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(text)
    assert run_cli(["check", path("ex2"), "--model", str(model)]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err


@pytest.mark.parametrize("command, flags, message", [
    ("solve", "--eps nan", "eps must be positive"),
    ("solve", "--eps inf", "eps must be positive"),
    ("analyze", "--eps nan", "eps must be positive"),
    ("check", "--eps nan", "eps must be positive"),
    ("check", "--eps inf", "eps must be positive"),
    ("solve", "--seeds nan", "seeds must lie in [0,1]"),
    ("solve", "--seeds ,", "seeds must lie in [0,1]"),
    ("solve", "--max-answer-sets -1", "max_answer_sets must be at least 1"),
    ("solve", "--max-iter -1", "max_outer_iters must be at least 1"),
    ("solve", "--trace mi,nmi,grpah", "trace kind grpah must be"),
    ("analyze", "--trace graph,x", "trace kind x must be")])
def test_out_of_range_setting_is_a_usage_error(command, flags, message,
                                               capsys):
    model = (["--model", str(PROGRAMS / "ex2.model.json")]
             if command == "check" else [])
    assert run_cli([command, path("ex2"), *model, *flags.split()]) \
        == EXIT_USAGE
    assert f"error: {message}" in capsys.readouterr().err


def test_empty_seeds_value_is_a_usage_error(capsys):
    """`--seeds ""` asks for no seed at all, as `--seeds ,` does."""
    assert run_cli(["solve", path("ex4"), "--seeds", ""]) == EXIT_USAGE
    assert "error: seeds must lie in [0,1]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_eps_env_falls_back_to_default(value, monkeypatch):
    from unasp import cli
    monkeypatch.setenv("UNASP_EPS", value)
    assert cli._default_eps() == 0.009


def test_printed_bound_in_exponent_notation_parses_back(tmp_path, capsys):
    """solve and --dump-transformed print 6.36e-05; the parser reads it."""
    target = tmp_path / "small.unasp"
    target.write_text("a <- [0.0000636,0.5] : [1,1].")
    assert run_cli(["solve", str(target), "--dump-transformed"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "a <- [6.36e-05,0.5].\n"
    (rule,) = parse_program(captured.err).rules
    assert rule.weight == Interval(0.0000636, 0.5)
    bound = captured.out.splitlines()[-1].split(": ")[1]
    assert bound == "[6.36e-05,0.5]"
    (rule,) = parse_program(f"b <- {bound} : [1,1].").rules
    assert rule.weight == Interval(0.0000636, 0.5)


def test_value_error_from_solving_is_not_a_usage_error(monkeypatch):
    """Only reading the input turns a ValueError into exit 2; one raised
    while solving is a fault and propagates."""
    from unasp import solver

    def fail(front, cfg):
        raise ValueError("internal fault")
    monkeypatch.setattr(solver, "component_pass", fail)
    for command in ("solve", "analyze"):
        with pytest.raises(ValueError, match="internal fault"):
            run_cli([command, path("ex6")])


@pytest.mark.parametrize("command", ["solve", "analyze", "check"])
def test_variables_without_constants_are_a_usage_error(command, tmp_path,
                                                       capsys):
    target = tmp_path / "unground.unasp"
    target.write_text("p(X) <- [1,1] : q(X).")
    model = (["--model", str(PROGRAMS / "ex2.model.json")]
             if command == "check" else [])
    assert run_cli([command, str(target), *model]) == EXIT_USAGE
    assert "has no constants" in capsys.readouterr().err
