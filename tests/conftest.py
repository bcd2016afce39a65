import itertools
import pathlib

import pytest

from unasp import Atom, Literal, parse_program
from unasp.intervals import EPS_CMP, INCONSISTENT
from unasp.semantics import GRID_POINTS, evaluate, grid_intervals
from unasp.transform import atom_body, rules_by_head

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"

# the branch-and-bound candidates (atoms fed through naf) cannot cover
# both cycles x-y and x-z-y
UNCOVERABLE = """
x <- [1,1] : y.
y <- [1,1] : x.
y <- [1,1] : z.
z <- [1,1] : not x.
"""


def program_path(name):
    return PROGRAMS / f"{name}.unasp"


def load(name):
    return parse_program(program_path(name).read_text())


@pytest.fixture(scope="session")
def ex1():
    return load("ex1")


@pytest.fixture(scope="session")
def ex2():
    return load("ex2")


@pytest.fixture(scope="session")
def ex3():
    return load("ex3")


@pytest.fixture(scope="session")
def ex4():
    return load("ex4")


@pytest.fixture(scope="session")
def ex5():
    return load("ex5")


@pytest.fixture(scope="session")
def ex6():
    return load("ex6")


@pytest.fixture(scope="session")
def ex7():
    return load("ex7")


@pytest.fixture(scope="session")
def ex8():
    return load("ex8")


@pytest.fixture(scope="session")
def tweety():
    return load("tweety")


def A(name):
    return Atom(name)


def atom_values(interp):
    """Positive-literal slice of an interpretation as {name: (lo, hi)}."""
    return {str(lit.atom): (v.lower, v.upper)
            for lit, v in interp.items() if not lit.negated}


def brute_force_grid(p, points=GRID_POINTS, eps=EPS_CMP):
    """Reference grid oracle: every cell for every atom, in product order
    over the atoms sorted by name, kept when each atom equals the value
    its rules force on the complete interpretation."""
    groups = rules_by_head(p)
    atoms = sorted(groups, key=str)
    lits = [Literal(a, False) for a in atoms]
    bodies = [atom_body(*groups[a]) for a in atoms]

    def agrees(actual, body, i):
        req = evaluate(body, i, eps)
        return req is not INCONSISTENT and actual.same_as(req, eps)

    found = []
    for combo in itertools.product(grid_intervals(points), repeat=len(atoms)):
        i = dict(zip(lits, combo))
        if all(agrees(actual, body, i) for actual, body in zip(combo, bodies)):
            found.append(i)
    return found
