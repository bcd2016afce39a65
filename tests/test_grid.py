"""The grid oracle against its brute-force reference, and its work."""

import random

from unasp import Atom, Literal
from unasp.depgraph import scc_condense
from unasp.intervals import Interval
from unasp.program import ConstItem, LitItem, Program, Rule
from unasp import semantics
from unasp.semantics import (GRID_POINTS, enumerate_grid_supported,
                             grid_intervals, is_supported_model,
                             load_model_file)
from unasp.transform import referenced_atoms, rules_by_head

from conftest import (PROGRAMS, atom_body, brute_force_grid, reduct,
                      total_from_positive)

COARSE = (0.0, 0.5, 1.0)


def _random_interval(rng):
    lo = rng.choice((0.0, 0.25, 0.5, rng.uniform(0.0, 1.0)))
    return Interval(lo, rng.choice((lo, 1.0, rng.uniform(lo, 1.0))))


def _random_program(rng):
    """1-3 atoms, 1-5 rules; heads and body literals may be classically
    negated, body literals may sit under `not`, bodies may hold
    constants."""
    atoms = [Atom(f"a{k}") for k in range(rng.randint(1, 3))]

    def literal():
        return Literal(rng.choice(atoms), rng.random() < 0.25)

    rules = []
    for _ in range(rng.randint(1, 5)):
        body = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.25:
                body.append(ConstItem(_random_interval(rng)))
            else:
                body.append(LitItem(literal(), rng.random() < 0.3))
        rules.append(Rule(literal(), _random_interval(rng),
                          tuple(body) or (ConstItem(_random_interval(rng)),)))
    return Program(rules)


def _cycle_shapes(p):
    """Sizes of the program's cyclic components, a lone atom that
    mentions itself counting as 1."""
    bodies = {a: atom_body(*g) for a, g in rules_by_head(p).items()}
    components, _ = scc_condense(bodies)
    shapes = set()
    for comp in components:
        if len(comp) > 1:
            shapes.add(len(comp))
        elif comp[0] in referenced_atoms(bodies[comp[0]]):
            shapes.add(1)
    return shapes


def test_matches_brute_force_in_order():
    rng = random.Random(909)
    shapes = set()
    compared = nonempty = 0
    for _ in range(60):
        p = _random_program(rng)
        cells = grid_intervals()
        guess = total_from_positive({a: rng.choice(cells)
                                     for a in p.atom_base})
        red = reduct(p, guess)
        for prog in (p, red):
            shapes |= _cycle_shapes(prog)
            for eps in (1e-9, 0.027, 0.3):
                for points in (GRID_POINTS, COARSE):
                    found = enumerate_grid_supported(prog, points, eps)
                    assert found == brute_force_grid(prog, points, eps), \
                        str(prog)
                    assert all(is_supported_model(c, prog, eps)
                               for c in found), str(prog)
                    compared += 1
                    nonempty += bool(found)
        for eps in (1e-9, 0.027, 0.3):
            for points in (GRID_POINTS, COARSE):
                found = enumerate_grid_supported(p, points, eps, naf_i=guess)
                assert found == brute_force_grid(red, points, eps), str(p)
                compared += 1
                nonempty += bool(found)
    assert compared == 1080 and nonempty > 100
    # self-loops and 2- and 3-atom cycles all occur in the sample
    assert {1, 2, 3} <= shapes


def test_no_atoms_gives_the_empty_model():
    p = Program([])
    assert enumerate_grid_supported(p) == [{}] == brute_force_grid(p)


def test_example1_gives_fifteen_models_in_order(ex1):
    found = enumerate_grid_supported(ex1)
    assert len(found) == 15
    assert found == brute_force_grid(ex1)


def test_example8_matches_brute_force(ex8):
    for eps in (1e-9, 0.027):
        assert enumerate_grid_supported(ex8, eps=eps) \
            == brute_force_grid(ex8, eps=eps)


def _valued(monkeypatch, prog, naf_i=None):
    """The grid's models of prog, `not` read in naf_i, and how many rule
    groups it valued (`forced_bounds` calls)."""
    calls = 0
    forced_bounds = semantics.forced_bounds

    def counting(group, c, naf_i):
        nonlocal calls
        calls += 1
        return forced_bounds(group, c, naf_i)

    with monkeypatch.context() as patch:
        patch.setattr(semantics, "forced_bounds", counting)
        found = enumerate_grid_supported(prog, naf_i=naf_i)
    return found, calls


def test_acyclic_reduct_takes_one_pass(monkeypatch, ex2):
    # ex2 is acyclic over 3 atoms: the brute-force grid tries 15^3 cells
    i = load_model_file(PROGRAMS / "ex2.model.json", ex2)
    red = reduct(ex2, i)
    for prog, naf_i in ((red, None), (ex2, i)):
        found, calls = _valued(monkeypatch, prog, naf_i)
        assert found == brute_force_grid(red)
        assert 0 < calls < 100, calls


def test_not_is_no_edge_of_the_reduct(monkeypatch, ex3):
    """ex3 is p <- [1,1] : not p.  Read as it is, p reads itself, a cut
    atom checked on each of the 15 cells; in P^i `not p` is a constant,
    so p is valued once."""
    i = total_from_positive({Atom("p"): Interval(0.5, 0.5)})
    found, calls = _valued(monkeypatch, ex3)
    assert found == brute_force_grid(ex3) and calls == 15
    found, calls = _valued(monkeypatch, ex3, i)
    assert found == brute_force_grid(reduct(ex3, i)) and calls == 1
