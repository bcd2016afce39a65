"""A solve leaves no reference cycles behind: what it allocates is freed
when the last reference goes, not when the cyclic collector next runs,
so no working state (an assumption-set search's memo, the grid oracle's
cells and interpretations) outlives the call that made it."""

import gc

import pytest

from unasp import parse_program, solve, transform_program
from unasp.depgraph import to_dot
from unasp.program import ground

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
