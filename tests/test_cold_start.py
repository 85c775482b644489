"""The CLI runs without sympy, and each subcommand loads only its modules.

Importing sympy costs several hundred milliseconds, and no subcommand
needs it: `locsys transition` computes its chart functions in closed
form.  `clustermirror.cli` imports only the standard library, and each
subcommand imports the package modules it runs.  The records are
namedtuples, so no subcommand loads `dataclasses` or, through it,
`inspect`.  These checks need a fresh interpreter: the rest of the
suite imports sympy and every package module in-process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    before = set(sys.modules)
    rc = cli.main(argv)
    assert rc == 0, (argv, rc)
    assert "sympy" not in sys.modules, argv
    added = {"dataclasses", "inspect"} & (set(sys.modules) - before)
    assert not added, (argv, added)
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
    for k, text in A2_TRANSITIONS.items():
        proc = _python("-m", "clustermirror.cli", "locsys", "transition",
                       "--seed", A2_SEED, "--k", k)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == text


def test_no_subcommand_imports_sympy(tmp_path):
    proc = _python("-c", EVERY_SUBCOMMAND, str(FIXTURES), str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_every_subcommand_without_site_packages(tmp_path):
    # src/ has no ImportError fallback, so the in-process golden tests
    # pin the bytes each subcommand writes without site-packages too
    proc = _python("-S", "-c", EVERY_SUBCOMMAND, str(FIXTURES), str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_locsys_transition_without_site_packages():
    # -S leaves site-packages off sys.path, so no third-party package
    # (sympy included) can be imported
    for k, text in A2_TRANSITIONS.items():
        proc = _python("-S", "-m", "clustermirror.cli", "locsys", "transition",
                       "--seed", A2_SEED, "--k", k)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == text


PACKAGE_MODULES = """
import sys
from clustermirror import cli
argv = sys.argv[1:]
rc = cli.main(argv) if argv else 0
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("clustermirror."))
sys.stderr.write("\\n" + " ".join(loaded) + "\\n")
sys.exit(rc)
"""

ALL_MODULES = ["almost_toric", "cli", "lattice", "local_system", "seed", "skeleton",
               "svg", "syz_base", "toric_model", "verify"]


def _loaded(*argv):
    """Exit code, and the clustermirror modules loaded by a fresh
    interpreter that runs cli.main(argv)."""
    proc = _python("-c", PACKAGE_MODULES, *argv)
    return proc.returncode, proc.stderr.splitlines()[-1].split()


def test_import_cli_loads_no_other_package_module():
    assert _loaded() == (0, ["cli"])


def _locsys(tmp_path, holonomy):
    path = tmp_path / "ls.json"
    path.write_text(json.dumps({"rank": 1, "loops": 2,
                                "holonomies": [[[holonomy]], [["3"]]]}))
    return str(path)


SEED_SIDE = ["cli", "lattice", "seed"]


@pytest.mark.parametrize("argv, modules", [
    (["seed", "mutate", "--seed", A2_SEED, "--sequence", "1,2"], SEED_SIDE),
    (["seed", "graph", "--seed", A2_SEED, "--depth", "2"], SEED_SIDE),
    (["seed", "model", "--seed", A2_SEED], SEED_SIDE + ["toric_model"]),
    (["base", "syz", "--seed", A2_SEED, "--out", "{tmp}/b.svg"],
     ["cli", "lattice", "seed", "svg", "syz_base", "toric_model"]),
    (["base", "trade", "--polytope", str(FIXTURES / "bl0c2_polytope.json"),
      "--trades", str(FIXTURES / "bl0c2_trades.json"), "--out", "{tmp}/t.svg"],
     ["almost_toric", "cli", "lattice", "skeleton", "svg", "toric_model"]),
    (["skeleton", "build", "--seed", A2_SEED, "--out", "{tmp}/sk.json"],
     ["cli", "lattice", "seed", "skeleton", "toric_model"]),
    (["skeleton", "surgery", "--skeleton", str(FIXTURES / "a2_skeleton.json"),
      "--handle", "1"], ["cli", "lattice", "skeleton", "toric_model"]),
    (["locsys", "mutate", "--locsys", "{locsys}", "--handle-class", "1,0"],
     ["cli", "lattice", "local_system", "skeleton", "toric_model"]),
    (["locsys", "transition", "--seed", A2_SEED, "--k", "1"],
     ["cli", "lattice", "local_system", "seed", "skeleton", "toric_model"]),
    (["verify", "--prng", "1", "--cases", "1"], ALL_MODULES),
], ids=["seed-mutate", "seed-graph", "seed-model", "base-syz", "base-trade",
        "skeleton-build", "skeleton-surgery", "locsys-mutate", "locsys-transition",
        "verify"])
def test_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    argv = [a.format(tmp=tmp_path, locsys=_locsys(tmp_path, "2")) for a in argv]
    assert _loaded(*argv) == (0, modules)


def test_exit_codes_without_preloaded_modules(tmp_path):
    # each exception picks its code in a process where cli imported
    # nothing but the modules of the failing subcommand
    stuck = ["locsys", "mutate", "--locsys", _locsys(tmp_path, "1"), "--handle-class", "1,0"]
    assert _loaded(*stuck)[0] == 3
    parallel = ["base", "trade", "--polytope", str(FIXTURES / "parallel_polytope.json"),
                "--trades", str(FIXTURES / "parallel_trades.json"),
                "--skeleton", "--out", str(tmp_path / "x.svg")]
    assert _loaded(*parallel)[0] == 3
    bad_seed = tmp_path / "seed.json"
    bad_seed.write_text(json.dumps({"rank": 2, "unfrozen": 2, "psi": [[1, 0], [0, 1]],
                                    "B": [[0, 1], [1, 0]], "d": [1, 1]}))
    assert _loaded("seed", "mutate", "--seed", str(bad_seed), "--sequence", "1")[0] == 2
