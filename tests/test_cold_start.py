"""The CLI runs without sympy.

Importing sympy costs several hundred milliseconds, and no subcommand
needs it: `locsys transition` computes its chart functions in closed
form.  These checks need a fresh interpreter: the rest of the suite
imports sympy in-process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
A2_SEED = str(FIXTURES / "a2_seed.json")

NO_SYMPY = """
import sys
from clustermirror import cli
rc = cli.main(["seed", "mutate", "--seed", sys.argv[1], "--sequence", "1,2"])
assert rc == 0, rc
assert "sympy" not in sys.modules, "sympy imported by a non-symbolic subcommand"
"""

EVERY_SUBCOMMAND = """
import sys
from clustermirror import cli
fixtures, tmp = sys.argv[1:]
seed = fixtures + "/a2_seed.json"
with open(tmp + "/ls.json", "w") as fh:
    fh.write('{"rank": 1, "loops": 2, "holonomies": [[["2"]], [["3"]]]}')
for argv in (
        ["seed", "mutate", "--seed", seed, "--sequence", "1,2"],
        ["seed", "graph", "--seed", seed, "--depth", "2"],
        ["seed", "model", "--seed", seed],
        ["base", "syz", "--seed", seed, "--out", tmp + "/syz.svg"],
        ["base", "trade", "--polytope", fixtures + "/bl0c2_polytope.json",
         "--trades", fixtures + "/bl0c2_trades.json", "--out", tmp + "/t.svg"],
        ["skeleton", "build", "--seed", seed, "--out", tmp + "/sk.json"],
        ["skeleton", "surgery", "--skeleton", tmp + "/sk.json", "--handle", "1"],
        ["locsys", "mutate", "--locsys", tmp + "/ls.json", "--handle-class", "1,0"],
        ["locsys", "transition", "--seed", seed, "--k", "1"],
        ["verify", "--prng", "1", "--cases", "1"]):
    rc = cli.main(argv)
    assert rc == 0, (argv, rc)
    assert "sympy" not in sys.modules, argv
"""

A2_TRANSITIONS = {
    "1": "x1' = -x1*x2/(x2 - 1)\nx2' = x2\n",
    "2": "x1' = x1\nx2' = x2/(x1 - 1)\n",
}


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_seed_mutate_does_not_import_sympy():
    proc = _python("-c", NO_SYMPY, A2_SEED)
    assert proc.returncode == 0, proc.stderr


def test_locsys_transition_output_unchanged():
    expect = {
        "1": "x1' = -x1*x2/(x2 - 1)\nx2' = x2\n",
        "2": "x1' = x1\nx2' = x2/(x1 - 1)\n",
    }
    for k, text in expect.items():
        proc = _python("-m", "clustermirror.cli", "locsys", "transition",
                       "--seed", A2_SEED, "--k", k)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == text


def test_no_subcommand_imports_sympy(tmp_path):
    proc = _python("-c", EVERY_SUBCOMMAND, str(FIXTURES), str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_locsys_transition_without_site_packages():
    # -S leaves site-packages off sys.path, so no third-party package
    # (sympy included) can be imported
    for k, text in A2_TRANSITIONS.items():
        proc = _python("-S", "-m", "clustermirror.cli", "locsys", "transition",
                       "--seed", A2_SEED, "--k", k)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == text
