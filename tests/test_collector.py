"""`parse_program` and `solve` pause CPython's cyclic collector while they
run, process-wide, and leave it as the caller had it: on after a call
made with it on, off after a call made with it off, whether the call
returns or raises, and around nested calls."""

import gc
import pathlib
import random
import sys

import pytest

from unasp import parse_program, solve, solver
from unasp.program import ParseError

SRC = str(pathlib.Path(solver.__file__).parent)


def chain(n):
    """An acyclic program of n atoms, each over its predecessor, `not`
    of an earlier atom and a constant."""
    rng = random.Random(n)
    lines = ["a0 <- [1,1] : [0.8,1]."]
    for i in range(1, n):
        lines.append(f"a{i} <- [0.95,1] : a{i - 1}, not a{rng.randrange(i)}, "
                     "[0.9,1].")
    return "\n".join(lines) + "\n"


def _inside_entry_point():
    """Whether a frame of the package's `parse_program` or `solve` is on
    the stack of the caller's caller."""
    frame = sys._getframe(2)
    while frame is not None:
        code = frame.f_code
        if (code.co_name in ("parse_program", "solve")
                and code.co_filename.startswith(SRC)):
            return True
        frame = frame.f_back
    return False


@pytest.fixture
def collections():
    """(generation, inside an entry point) of every collection that
    starts while the test runs, with the collector on."""
    started = []

    def note(phase, info):
        if phase == "start":
            started.append((info["generation"], _inside_entry_point()))

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(note)
    try:
        yield started
    finally:
        gc.callbacks.remove(note)
        if not was_enabled:
            gc.disable()


@pytest.fixture
def restored():
    """The collector's state, put back after the test."""
    was_enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_counter_sees_collections(collections):
    # the same allocation outside an entry point does start collections
    kept = [[] for _ in range(20_000)]
    assert len(kept) == 20_000
    assert collections and not any(inside for _, inside in collections)


def test_no_collection_starts_inside_parse_or_solve(collections):
    text = chain(4000)
    # from an empty young generation, so that no collection is due as
    # either call starts: the one each pause defers runs between them
    gc.collect()
    program = parse_program(text)
    gc.collect()
    report = solve(program)
    assert report.status == "ok"
    assert len(report.answer_sets[0]) == 2 * 4000
    assert [c for c in collections if c[1]] == []


def test_collector_on_after_return(restored):
    gc.enable()
    program = parse_program("a. b <- [0.5,1] : a.")
    assert gc.isenabled()
    assert solve(program).status == "ok"
    assert gc.isenabled()


def test_collector_stays_off_after_return(restored):
    gc.disable()
    program = parse_program("a. b <- [0.5,1] : a.")
    assert not gc.isenabled()
    assert solve(program).status == "ok"
    assert not gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_restored_after_parse_error(restored, enabled):
    # arguments send the text to the token parser, which raises
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(ParseError):
        parse_program("p(a) <- [1,1] : q(a.")
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_restored_after_ground_error(restored, enabled):
    program = parse_program("p(X) <- [1,1] : q(X).")
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(ValueError, match="no constants"):
        solve(program)
    assert gc.isenabled() is enabled


def test_nested_calls_leave_the_pause_to_the_outer(restored, monkeypatch):
    seen = []
    ground = solver.ground

    def ground_parsing(p):
        seen.append(gc.isenabled())
        parse_program("c.")
        seen.append(gc.isenabled())
        return ground(p)

    monkeypatch.setattr(solver, "ground", ground_parsing)
    gc.enable()
    assert solve(parse_program("a.")).status == "ok"
    assert seen == [False, False]
    assert gc.isenabled()
