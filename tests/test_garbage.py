"""A solve leaves no reference cycles behind: what it allocates is freed
when the last reference goes, not when the cyclic collector next runs,
so no working state (an assumption-set search's memo, the grid oracle's
cells and interpretations) outlives the call that made it."""

import gc

import pytest

from unasp import parse_program, solve, transform_program
from unasp.depgraph import to_dot
from unasp.program import ParseError, ground

from conftest import FOLDED_CYCLES, PROGRAMS, UNCOVERABLE

TEXTS = {path.stem: path.read_text()
         for path in sorted(PROGRAMS.glob("*.unasp"))}
TEXTS.update({f"folded-{name}": text for name, text in FOLDED_CYCLES.items()})
TEXTS["uncoverable"] = UNCOVERABLE


def _garbage(run):
    """The objects the cyclic collector finds after run(), with the
    collector off while it runs."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", TEXTS)
def test_solve_leaves_no_cycles(name):
    program = parse_program(TEXTS[name])
    assert _garbage(lambda: solve(program)) == 0


@pytest.mark.parametrize("name", TEXTS)
def test_dot_leaves_no_cycles(name):
    bodies = transform_program(ground(parse_program(TEXTS[name])))
    assert _garbage(lambda: to_dot(bodies)) == 0


def _parse_error(text):
    try:
        parse_program(text)
    except ParseError:
        return
    raise AssertionError(f"parsed {text!r}")


# a text whose atoms have no arguments goes to the rule reader, one with
# arguments to the token parser
@pytest.mark.parametrize("run", [
    lambda: parse_program(TEXTS["ex6"]),
    lambda: parse_program("p(a). q(X) <- [0.5,1] : p(X), not r(X)."),
    lambda: _parse_error("p(a) <- [1,1] : q(a."),
    lambda: _parse_error("a <- [0.9,0.1]."),
], ids=["rule-reader", "token-parser", "parse-error", "bad-bound"])
def test_parse_leaves_no_cycles(run):
    # with the collector paused inside a parse, a cycle it left would
    # outlive the parse until the next collection
    assert _garbage(run) == 0
