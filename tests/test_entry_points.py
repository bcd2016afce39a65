"""The package's import footprint and its command-line entry points, each
run in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EX6 = str(ROOT / "programs" / "ex6.unasp")


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)


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
