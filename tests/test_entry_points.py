"""The package's import footprint and its command-line entry points, each
run in a fresh interpreter."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from conftest import (FOLDED_CYCLES, PARALLEL_EDGES, TEN_VARIABLES,
                      UNCOVERABLE)

ROOT = pathlib.Path(__file__).resolve().parent.parent
EX6 = str(ROOT / "programs" / "ex6.unasp")
# an ex2 model that leaves c out
PARTIAL_MODEL = '{"positive": {"a": [0, 0], "b": [1, 1]}}\n'


def program(name):
    return str(ROOT / "programs" / name)


def run(command, *args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([*command, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def run_python(*args):
    return run([sys.executable], *args)


def test_import_loads_only_the_package_and_the_standard_library():
    out = run_python("-c", "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import unasp",
        "for name in sorted(set(sys.modules) - before):",
        "    print(name)",
    ]))
    assert out.returncode == 0, out.stderr
    loaded = out.stdout.split()
    assert "unasp" in loaded
    foreign = [name for name in loaded
               if name.split(".")[0] not in sys.stdlib_module_names
               and name != "unasp" and not name.startswith("unasp.")]
    assert foreign == []


def test_python_dash_m_unasp_solves():
    out = run_python("-m", "unasp", "solve", EX6)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("status: ok")


def test_python_dash_m_unasp_cli_warns_nothing():
    out = run_python("-m", "unasp.cli", "solve", EX6)
    assert out.returncode == 0
    assert "RuntimeWarning" not in out.stderr


# (files written to the working directory first, arguments, exit code,
#  and a line that stdout, stderr or a written file must hold)
CLI_CASES = {
    "solve-ex6": ({}, ["solve", EX6], 0, None),
    "solve-ex5": ({}, ["solve", program("ex5.unasp")], 1, None),
    "check-ex2": ({}, ["check", program("ex2.unasp"), "--model",
                       program("ex2.model.json")], 0, None),
    "parse-error": ({"p.unasp": "a <- [1,1] : $b.\n"},
                    ["solve", "p.unasp"], 2, None),
    # a non-ASCII character, reported where it stands
    "bad-character": ({"p.unasp": "a <- [1,1] : b.\nc <- [0,1]: bé.\n"},
                      ["solve", "p.unasp"], 2,
                      ("stderr", "error: 2:14: unexpected character 'é'")),
    "uncoverable": ({"p.unasp": UNCOVERABLE}, ["solve", "p.unasp"], 3, None),
    # `not` names no predicate, in a body as in a head
    "not-predicate": ({"p.unasp": "a <- [1,1] : -not.\n"},
                      ["solve", "p.unasp"], 2,
                      ("stderr", "error: 1:15: 'not' cannot name a predicate")),
    # b's [0,0] folds the cycle a-c away, so nothing is left to plan
    "folded-cycle-solve": ({"p.unasp": FOLDED_CYCLES["a-c"]},
                           ["solve", "p.unasp"], 0, None),
    "folded-cycle-analyze": ({"p.unasp": FOLDED_CYCLES["a-c"]},
                             ["analyze", "p.unasp"], 0, None),
    # a malformed model file and a NaN eps are usage errors
    "bad-model": ({"m.json": '{"positive": {"a": 5}}\n'},
                  ["check", program("ex2.unasp"), "--model", "m.json"],
                  2, None),
    # c is unbound, so the model is not a supported model
    "partial-model": ({"m.json": PARTIAL_MODEL},
                      ["check", program("ex2.unasp"), "--model", "m.json"],
                      1, ("stdout", "INVALID")),
    "partial-model-json": ({"m.json": PARTIAL_MODEL},
                           ["check", program("ex2.unasp"), "--model", "m.json",
                            "--format", "json"],
                           1, ("stdout", '{"valid": false}')),
    "nan-eps": ({}, ["solve", EX6, "--eps", "nan"], 2, None),
    "seeds-comma": ({}, ["solve", program("ex4.unasp"), "--seeds", ","],
                    2, None),
    "seeds-empty": ({}, ["solve", program("ex4.unasp"), "--seeds", ""],
                    2, None),
    # a misspelt trace kind is named, not ignored
    "bad-trace-kind": ({}, ["solve", program("ex1.unasp"), "--trace",
                            "mi,nmi,grpah"], 2,
                       ("stderr", "error: trace kind grpah must be mi, "
                                  "nmi or graph")),
    # the grid breaks kagg ties at the solver's one tolerance and finds
    # a = [0,0.25], less certain than the candidate a = [0,0.120455646];
    # side selection finds a second candidate, kept
    "grid-tie": ({"p.unasp": "a <- [0.765,0.936] : -a, a.\n"
                             "-a <- [0.212,0.989] : not a, a.\n"},
                 ["solve", "p.unasp"], 0, None),
    # no side selection of -b's aggregation is self-consistent
    "no-selection": ({"p.unasp": "a <- [0.32,0.73] : not a, b.\n"
                                 "-b <- [0.32,0.94] : b, a.\n"
                                 "b <- [0.33,0.97] : a, not a.\n"},
                     ["solve", "p.unasp"], 1, None),
    # no aggregation, and a period-2 orbit
    "period-two": ({"p.unasp": "a <- [0.74,0.81] : not a, -a.\n"},
                   ["solve", "p.unasp"], 3, None),
    # past the ground-rule cap before any rule is expanded
    "ground-cap-solve": ({"p.unasp": TEN_VARIABLES}, ["solve", "p.unasp"], 3,
                         ("stdout", "status: incomplete")),
    "ground-cap-analyze": (
        {"p.unasp": TEN_VARIABLES}, ["analyze", "p.unasp"], 3,
        ("stderr", "incomplete: rule r#1: 100 constants over 10 variables "
                   "take the program past 100000 ground rules")),
    "ground-cap-check": ({"p.unasp": TEN_VARIABLES, "m.json": "{}\n"},
                         ["check", "p.unasp", "--model", "m.json"], 3, None),
    # a bound printed in exponent notation parses back
    "small-bound": ({"p.unasp": "a <- [0.0000636,0.5] : [1,1].\n"},
                    ["solve", "p.unasp"], 0,
                    ("stdout", "  a: [6.36e-05,0.5]")),
    "reparsed-bound": ({"p.unasp": "b <- [6.36e-05,0.5] : [1,1].\n"},
                       ["solve", "p.unasp"], 0, None),
    "unordered-model": (
        {"m.json": '{"positive": {"a": [0.5, 0.2]}}\n'},
        ["check", program("ex2.unasp"), "--model", "m.json"], 2,
        ("stderr", "error: model positive 'a': interval bounds out of "
                   "order: [0.5, 0.2]")),
    "dump-transformed": ({}, ["analyze", program("ex3.unasp"),
                              "--dump-transformed"], 0,
                         ("stderr", "p <- not p.")),
    # a and not a both feed b's AND node, and only the second edge is
    # labelled naf
    "parallel-edges": ({"p.unasp": PARALLEL_EDGES},
                       ["solve", "p.unasp", "--dot", "p.dot"], 0,
                       ("p.dot", "  n0 -> n3;")),
}


@pytest.mark.parametrize("files, args, code, line", CLI_CASES.values(),
                         ids=CLI_CASES)
def test_cli_exit_code(files, args, code, line, tmp_path):
    """Each case through `python -m unasp` and, when it is on PATH, the
    installed `unasp` script, which CI installs and so must find."""
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    script = shutil.which("unasp")
    commands = [[sys.executable, "-m", "unasp"]]
    if script:
        commands.append([script])
    elif os.environ.get("CI"):
        pytest.fail("CI installs the unasp script, but it is not on PATH")
    for command in commands:
        out = run(command, *args, cwd=tmp_path)
        assert out.returncode == code, out.stderr
        assert "Traceback" not in out.stderr
        if line:
            where, text = line
            if where in ("stdout", "stderr"):
                output = getattr(out, where)
            else:
                output = (tmp_path / where).read_text()
                (tmp_path / where).unlink()
            assert text in output.splitlines(), output
