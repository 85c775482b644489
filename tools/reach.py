"""Lines of the package that a set of CLI requests never executes.

    python3 tools/reach.py [--pool WORKLOAD:SEED ...] [-- ARGV ...]

Runs ARGV (default: verify --suite all --prng 1) in this process through
`clustermirror.cli.main` under `sys.settrace`, then every request of each
benchmark pool named by --pool, built by `perfbench/gen.make_pool` in a
temporary directory and run from it, as the benchmark's worker does.
Prints, per function of `src/clustermirror`, the line numbers that never
ran.  It is a report, not a gate: a line listed may be a refusal that no
request makes, or code that no request reaches.
"""

import argparse
import contextlib
import inspect
import io
import os
import sys
import tempfile
import types
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ARGV = ["verify", "--suite", "all", "--prng", "1"]


def function_lines(path):
    """{function name: its lines that hold code, the def line left out}
    for the module at path; a method is named Class.method, and the lines
    of a lambda or a comprehension count for the function that holds it."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    out = {}

    def walk(co, prefix, owner):
        if not co.co_name.startswith("<"):
            name = prefix + co.co_name
            prefix = name + "."
            # a class body runs at import and counts for no function
            owner = name if co.co_flags & inspect.CO_OPTIMIZED else None
            if owner:
                out[owner] = set()
        if owner:
            out[owner].update(line for _, _, line in co.co_lines()
                              if line is not None and line != co.co_firstlineno)
        for const in co.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, prefix, owner)

    for const in module.co_consts:
        if isinstance(const, types.CodeType):
            walk(const, "", None)
    return out


def run_traced(cli, requests):
    """Run each (argv, cwd, env) request through cli.main under the tracer;
    the set of (file, line) pairs of the package that ran."""
    package = os.path.dirname(cli.__file__) + os.sep
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    here, previous = os.getcwd(), sys.gettrace()
    for argv, cwd, env in requests:
        with mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            os.chdir(cwd)
            sys.settrace(trace)
            try:
                cli.main(argv)
            finally:
                sys.settrace(previous)
                os.chdir(here)
    return ran


def report(package, ran):
    """One line per function of the package with lines that never ran."""
    lines = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            for fn, code_lines in sorted(function_lines(path).items()):
                missed = sorted(n for n in code_lines if (path, n) not in ran)
                if missed:
                    lines.append("%s.%s: %s" % (name[:-3], fn, " ".join(map(str, missed))))
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--pool", action="append", default=[], metavar="WORKLOAD:SEED",
                   help="also run every request of this benchmark pool")
    p.add_argument("argv", nargs="*", help="CLI arguments, after --")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from clustermirror import cli
    with tempfile.TemporaryDirectory() as tmp:
        requests = [(args.argv or DEFAULT_ARGV, os.getcwd(), {})]
        if args.pool:
            sys.path.insert(0, os.path.join(ROOT, "perfbench"))
            import gen
        for i, spec in enumerate(args.pool):
            workload, _, seed = spec.partition(":")
            workdir = os.path.join(tmp, str(i))
            # the budget the benchmark sets for graph-explore
            env = ({"CLUSTERMIRROR_BUDGET": str(gen.GRAPH_BUDGET)}
                   if workload == "graph-explore" else {})
            requests += [(req["argv"], workdir, env)
                         for req in gen.make_pool(workload, int(seed), workdir)]
        ran = run_traced(cli, requests)
    for line in report(os.path.dirname(cli.__file__), ran):
        print(line)


if __name__ == "__main__":
    main()
