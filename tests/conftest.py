import pathlib

import pytest

from unasp import Atom, parse_program

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
