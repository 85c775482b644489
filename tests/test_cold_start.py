"""The CLI loads sympy only for symbolic work.

Importing sympy costs several hundred milliseconds, so every subcommand
except `locsys transition` must run without it.  These checks need a
fresh interpreter: the rest of the suite imports sympy in-process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
A2_SEED = str(ROOT / "tests" / "fixtures" / "a2_seed.json")

NO_SYMPY = """
import sys
from clustermirror import cli
rc = cli.main(["seed", "mutate", "--seed", sys.argv[1], "--sequence", "1,2"])
assert rc == 0, rc
assert "sympy" not in sys.modules, "sympy imported by a non-symbolic subcommand"
"""


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
