"""The benchmark's workloads: generated programs and the checks of their
answers.

Each workload is a list of operations.  An operation is one program
text, the solver configuration it is solved with, and a check that
judges the report against values computed here, apart from the solver
(see `oracle`).  Programs are made from the `--seed` argument alone, so
the same seed gives the same texts.

Facts are written `h <- [1,1] : [1,1].` because the parser does not
accept the shorthand `h.`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
from oracle import CheckFailed

# chain: programs per round and atoms per program
CHAIN_PROGRAMS = 6
CHAIN_ATOMS = 125
# tc: ring sizes.  A ring of 8 takes six times as long as one of 7 and
# gives too few solves per run to time steadily; a ring of 9 overflows
# the solver's cycle cap.
TC_RINGS = (6, 7)
TC_WEIGHT = 0.9
# pairs: independent default pairs, solved with exact seeds {0, 1}
PAIRS = 6
PAIR_SEEDS = (0.0, 1.0)
GOLDEN = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7", "ex8", "tweety")

EXACT = 1e-9


@dataclass
class Op:
    name: str
    text: str
    config: object          # unasp.SolverConfig
    check: Callable         # check(report) raises CheckFailed


def _fmt(x):
    return f"{x:.2f}"


def _verify_eps(config):
    """The tolerance the solver itself grants iterated values."""
    return max(1e-6, 3.0 * config.nmi.eps)


def _check_all_supported(rules, report, tol):
    for answer_set in report.answer_sets:
        oracle.check_supported(rules, answer_set, tol)


def _only(report):
    """Atom values of the one answer set the report must hold."""
    if report.status != "ok" or len(report.answer_sets) != 1:
        raise CheckFailed(f"status {report.status} with "
                          f"{len(report.answer_sets)} answer sets, "
                          "expected ok with one")
    return oracle.values_of(report.answer_sets[0])


# --------------------------------------------------------------------
# chain


def chain_text(n, rng):
    """An acyclic program over a0..a{n-1}.  Every a_i (i >= 1) has a rule
    over a_{i-1}, `not` of an earlier atom and a constant, and half of
    them a second rule over another earlier atom and a constant."""
    lines = [f"a0 <- [1,1] : [{_fmt(rng.uniform(0.6, 0.9))},1]."]
    for i in range(1, n):
        k = rng.randrange(i)
        lines.append(f"a{i} <- [{_fmt(rng.uniform(0.85, 1.0))},1] : "
                     f"a{i - 1}, not a{k}, [{_fmt(rng.uniform(0.8, 1.0))},1].")
        if rng.random() < 0.5:
            j = rng.randrange(i)
            lines.append(f"a{i} <- [{_fmt(rng.uniform(0.5, 0.9))},1] : a{j}, "
                         f"[{_fmt(rng.uniform(0.5, 0.9))},"
                         f"{_fmt(rng.uniform(0.9, 1.0))}].")
    return "\n".join(lines) + "\n"


def chain_expected(rules):
    """Bottom-up valuation in index order: every body atom of a_i comes
    before a_i, so one pass settles the program."""
    by_head = {}
    for rule in rules:
        by_head.setdefault(rule[0], []).append(rule)
    pos = {}
    for i in range(len(by_head)):
        value = None
        for _, _, weight, body in by_head[f"a{i}"]:
            v = weight
            for item in body:
                if item[0] == "const":
                    v = oracle.tnorm(v, item[1])
                else:
                    x = pos[item[1]]
                    v = oracle.tnorm(v, oracle.naf(x) if item[3] else x)
            value = v if value is None else oracle.tconorm(value, v)
        pos[f"a{i}"] = value
    return pos


def check_chain(rules, expected, report):
    pos, neg = _only(report)
    for atom, want in expected.items():
        oracle.expect(pos, atom, want, EXACT)
        oracle.expect(neg, atom, oracle.negate(want), EXACT)
    _check_all_supported(rules, report, EXACT)


def chain_ops(seed, unasp):
    ops = []
    for k in range(CHAIN_PROGRAMS):
        text = chain_text(CHAIN_ATOMS, random.Random(f"chain:{seed}:{k}"))
        rules = oracle.parse(text)
        expected = chain_expected(rules)
        ops.append(Op(f"chain{k}", text, unasp.SolverConfig(),
                      lambda r, rules=rules, e=expected:
                      check_chain(rules, e, r)))
    return ops


# --------------------------------------------------------------------
# tc


def tc_text(n, rng):
    """Transitive closure over a directed ring c0 -> c1 -> ... -> c0;
    the seed only orders the edge facts."""
    edges = [f"e(c{i},c{(i + 1) % n}) <- [1,1] : [1,1]." for i in range(n)]
    rng.shuffle(edges)
    return "\n".join([
        "r(X,Y) <- [1,1] : e(X,Y).",
        f"r(X,Z) <- [{TC_WEIGHT},1] : e(X,Y), r(Y,Z).",
        *edges]) + "\n"


def check_tc(n, rules, report, tol):
    """r(ci,cj) = [0.9^(d-1), 1] with d the ring distance from ci to cj,
    d = n when i = j: the one certain path gives the lower bound, and
    the headless non-edges, valued [0,1], leave the upper bound at 1."""
    pos, _ = _only(report)
    for i, j in itertools.product(range(n), repeat=2):
        d = (j - i) % n or n
        oracle.expect(pos, f"r(c{i},c{j})", (TC_WEIGHT ** (d - 1), 1.0), tol)
    _check_all_supported(rules, report, tol)


def tc_ops(seed, unasp):
    ops = []
    for n in TC_RINGS:
        text = tc_text(n, random.Random(f"tc:{seed}:{n}"))
        rules = oracle.parse(text)
        config = unasp.SolverConfig()
        tol = _verify_eps(config)
        ops.append(Op(f"tc{n}", text, config,
                      lambda r, n=n, rules=rules, tol=tol:
                      check_tc(n, rules, r, tol)))
    return ops


# --------------------------------------------------------------------
# pairs


def pairs_text(n, rng):
    lines = []
    for i in range(n):
        lines += [f"y{i} <- [1,1] : not z{i}.", f"z{i} <- [1,1] : not y{i}."]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def check_pairs(n, rules, report):
    """Exactly 2^n distinct answer sets, each choosing y_i exact in {0,1}
    with z_i its complement."""
    if report.status != "ok":
        raise CheckFailed(f"status {report.status}")
    seen = set()
    for answer_set in report.answer_sets:
        pos, _ = oracle.values_of(answer_set)
        choice = []
        for i in range(n):
            y = pos.get(f"y{i}")
            if y not in ((0.0, 0.0), (1.0, 1.0)):
                raise CheckFailed(f"y{i} = {y} is not exactly 0 or 1")
            oracle.expect(pos, f"z{i}", (1.0 - y[0], 1.0 - y[0]), 0.0)
            choice.append(y[0])
        seen.add(tuple(choice))
    if len(seen) != 2 ** n or len(report.answer_sets) != 2 ** n:
        raise CheckFailed(f"{len(report.answer_sets)} answer sets, "
                          f"{len(seen)} distinct, expected {2 ** n}")
    _check_all_supported(rules, report, EXACT)


def pairs_ops(seed, unasp):
    text = pairs_text(PAIRS, random.Random(f"pairs:{seed}"))
    rules = oracle.parse(text)
    return [Op(f"pairs{PAIRS}", text,
               unasp.SolverConfig(seeds=list(PAIR_SEEDS)),
               lambda r: check_pairs(PAIRS, rules, r))]


# --------------------------------------------------------------------
# golden

# Values stated in the programs' comments and the paper's worked
# examples.  The paper prints four or five digits, and iterated
# components converge only to within the solver's eps, so these tables
# are held to eps; values the checks derive exactly are held to EXACT.
EX6_PAPER = {
    "p": (0.3916, 0.4951), "h": (0.5557, 0.7938), "i": (0.4443, 0.4443),
    "j": (0.2062, 0.2062), "k": (0.7938, 0.7938), "c": (0.5557, 0.7938),
    "u": (0.0811, 0.226), "v": (0.8106, 0.9418), "x": (0.1621, 0.2826),
    "w": (0.1621, 0.2826),
}
EX7_FINAL = {
    "a": (0.39409, 0.67514), "b": (0.65682, 0.84393),
    "c": (0.65682, 0.84393), "d": (0.15607, 0.59173),
    "e": (0.140463, 0.59173), "f": (0.40827, 0.85954),
    "g": (0.12248, 0.60168),
}


def _exact_grid_choices(report, a, b, points):
    """Each answer set sets a exact on a grid point and b = 1 - a; every
    point appears once.  Returns the sets keyed by a's value."""
    by_point = {}
    for answer_set in report.answer_sets:
        pos, _ = oracle.values_of(answer_set)
        x = pos.get(a)
        point = next((g for g in points
                      if x is not None and oracle.close(x, (g, g), EXACT)),
                     None)
        if point is None or point in by_point:
            raise CheckFailed(f"{a} = {x} is not a fresh grid point")
        oracle.expect(pos, b, (1.0 - point, 1.0 - point), EXACT)
        by_point[point] = pos
    if sorted(by_point) != sorted(points):
        raise CheckFailed(f"{a} takes {sorted(by_point)}, expected {points}")
    return by_point


def check_golden(name, rules, report, config):
    eps = config.nmi.eps
    grid = config.nmi.grid_seeds()
    if name == "ex1":
        pos, _ = _only(report)
        oracle.expect(pos, "a", (0.0, 1.0), EXACT)
        oracle.expect(pos, "b", (0.0, 1.0), EXACT)
    elif name == "ex2":
        pos, _ = _only(report)
        for atom, want in (("a", (0, 0)), ("b", (1, 1)), ("c", (1, 1))):
            oracle.expect(pos, atom, want, EXACT)
    elif name == "ex3":
        oracle.expect(_only(report)[0], "p", (0.5, 0.5), EXACT)
    elif name == "ex4":
        if report.status != "ok":
            raise CheckFailed(f"status {report.status}")
        _exact_grid_choices(report, "a", "b", grid)
    elif name == "ex5":
        if report.status != "no_answer_set" or report.answer_sets:
            raise CheckFailed(f"status {report.status} with "
                              f"{len(report.answer_sets)} answer sets, "
                              "expected no_answer_set")
    elif name == "ex6":
        if report.status != "ok":
            raise CheckFailed(f"status {report.status}")
        for y, pos in _exact_grid_choices(report, "y", "z", grid).items():
            z = 1.0 - y
            # l <- [0.4,0.6] : z, recomputed on every branch
            oracle.expect(pos, "l", (0.4 * z, 0.6 * z), EXACT)
            oracle.expect(pos, "m", (0.7 * 0.6, 0.9 * 0.8), EXACT)
            oracle.expect(pos, "s", (0.7 * 0.6, 0.9 * 0.8), EXACT)
            for atom, want in EX6_PAPER.items():
                oracle.expect(pos, atom, want, eps)
    elif name == "ex7":
        pos, _ = _only(report)
        for atom, want in EX7_FINAL.items():
            oracle.expect(pos, atom, want, eps)
    elif name == "ex8":
        pos, _ = _only(report)
        for atom, want in (("a", (0, 0)), ("b", (0, 0)), ("c", (1, 1))):
            oracle.expect(pos, atom, want, eps)
    elif name == "tweety":
        pos, _ = _only(report)
        oracle.expect(pos, "fly(tweety)", (0.7, 1.0), EXACT)
        oracle.expect(pos, "bird(tweety)", (1.0, 1.0), EXACT)
        oracle.expect(pos, "penguin(tweety)", (0.0, 1.0), EXACT)
    else:
        raise ValueError(f"no expected values for {name}")
    _check_all_supported(rules, report, _verify_eps(config))


def golden_ops(seed, unasp, programs_dir):
    """The nine example programs with the default configuration; they are
    fixed, so the seed does not change them."""
    ops = []
    for name in GOLDEN:
        text = (programs_dir / f"{name}.unasp").read_text()
        rules = oracle.parse(text)
        config = unasp.SolverConfig()
        ops.append(Op(name, text, config,
                      lambda r, name=name, rules=rules, config=config:
                      check_golden(name, rules, r, config)))
    return ops


WORKLOADS = ("chain", "tc", "pairs", "golden")


def build(name, seed, unasp, root: Path):
    if name == "chain":
        return chain_ops(seed, unasp)
    if name == "tc":
        return tc_ops(seed, unasp)
    if name == "pairs":
        return pairs_ops(seed, unasp)
    if name == "golden":
        return golden_ops(seed, unasp, root / "programs")
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
