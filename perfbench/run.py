"""clustermirror benchmark: drives `clustermirror.cli` the way a user does.

    python3 perfbench/run.py --workload {cli-cold,graph-explore,doc-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is loaded from
`src/`; nothing needs building).  Each workload is a closed loop with
one client.  Inputs are generated from the seed (`gen.py`), every
answer is checked (`checks.py`), and the last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with no
tracing.  With `--trace 1` the loop runs twice, S/2 seconds untraced and
S/2 seconds traced, and the metrics are the per-layer ones taken from
the traced half (`tracer.py`), plus the tracing overhead.  Lines before
the last one are a readable summary, including the figures that are not
gated (p90 latency, nodes/s, failed ratio, run digest).

The exit code is 0 when every answer passed its check, 1 when one did
not, and 2 when the checkout holds no clustermirror sources.
Scratch files live under `.perfbench_work/` and are removed on exit;
byte-code caches are kept under `.perfbench_cache/`.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PYCACHE = os.path.join(ROOT, ".perfbench_cache", "pycache")
sys.path.insert(0, HERE)

import gen  # noqa: E402

SETUP_REPEATS = 7
PROBE_REPEATS = 5
TIMEOUT = 150

IMPORT_TIMER = ("import time; t = time.perf_counter(); import clustermirror.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

SUITES = ("epsilon", "dictionary", "duality", "smoothness", "coherence")
CALLS_AND_SELF = ("seed.mutate", "seed.exchange_matrix", "seed.validate_seed",
                  "lattice.det", "lattice.mat_inv", "lattice.solve_rational",
                  "local_system.holonomy_around")
SELF_ONLY = ("cli.main", "seed.exchange_graph", "toric_model.toric_model",
             "syz_base.base_from_fan", "syz_base.render_svg", "svg.SvgCanvas",
             "skeleton.skeleton_from_seed", "skeleton.disk_surgery",
             "local_system.mutate_local_system", "local_system.mutate_symbolic",
             "almost_toric.apply_trades", "almost_toric.common_basepoint",
             "almost_toric.render_svg") + tuple("verify." + s for s in SUITES)

PER_LAYER = (
    (("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.import_sympy_ms", "ms"),
     ("cli.output_bytes", "bytes"), ("svg.bytes", "bytes"),
     ("toric_model.blowup_characters.calls", "count"),
     ("seed.exchange_graph.useful_ratio", "ratio"),
     ("seed.exchange_graph.truncated_ratio", "ratio"),
     ("lattice.max_bits", "bit"), ("local_system.max_exponent", "count"),
     ("trace.overhead_ratio", "ratio"))
    + tuple((n + ".calls", "count") for n in CALLS_AND_SELF)
    + tuple((n + ".self_ms", "ms") for n in CALLS_AND_SELF + SELF_ONLY)
    + tuple(("verify.%s.cases" % s, "count") for s in SUITES)
)


class BenchError(Exception):
    pass


def child_env(workload):
    """Environment of every interpreter the benchmark starts.  Byte-code
    caches are always written, and kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    if workload == "graph-explore":
        env["CLUSTERMIRROR_BUDGET"] = str(gen.GRAPH_BUDGET)
    return env


def python(args, env, cwd=None):
    proc = subprocess.run([sys.executable] + args, env=env, cwd=cwd, timeout=TIMEOUT,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("%s failed (exit %d): %s"
                         % (" ".join(args)[:80], proc.returncode, proc.stderr[-500:]))
    return proc


def measure_setup(env):
    """Median in-process time of `import clustermirror.cli` over fresh
    interpreters, after one import to write the byte-code caches."""
    python(["-c", "import clustermirror.cli"], env)
    return statistics.median(float(python(["-c", IMPORT_TIMER], env).stdout)
                             for _ in range(SETUP_REPEATS))


def import_profile(env):
    """cli.interp_ms from a bare interpreter; cli.import_ms and
    cli.import_sympy_ms from the cumulative `-X importtime` figures."""
    interp, cli_us, sympy_us = [], [], []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        python(["-c", "pass"], env)
        interp.append((time.perf_counter() - start) * 1000)
        cum = {}
        for line in python(["-X", "importtime", "-c", "import clustermirror.cli"],
                           env).stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1])
        cli_us.append(cum["clustermirror.cli"])
        sympy_us.append(cum.get("sympy", 0))
    return {"cli.interp_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(cli_us) / 1000,
            "cli.import_sympy_ms": statistics.median(sympy_us) / 1000}


def run_worker(work, workload, seconds, trace, env):
    result_path = os.path.join(work, "result-%d.json" % trace)
    python([os.path.join(HERE, "worker.py"), work, workload, str(seconds), str(trace),
            result_path], env)
    with open(result_path) as fh:
        return json.load(fh)


def ops_per_s(res):
    return len(res["latencies"]) / sum(res["latencies"])


def end_to_end(res, setup_s):
    lat = sorted(x * 1000 for x in res["latencies"])
    return {"latency_p50_ms": statistics.median(lat),
            "ops_per_s": ops_per_s(res),
            "peak_rss_mb": res["maxrss_kb"] / 1024,
            "setup_s": setup_s}


def per_layer(traced, untraced, probe):
    agg = traced["trace"]
    ops = len(traced["latencies"])
    calls, self_ns, c = agg["calls"], agg["self_ns"], agg["counters"]
    out = dict(probe)
    out["cli.output_bytes"] = traced["output_bytes"] / ops
    out["svg.bytes"] = traced["svg_bytes"] / ops
    out["toric_model.blowup_characters.calls"] = (
        calls.get("toric_model.blowup_characters", 0) / ops)
    mutate_calls = c.get("seed.exchange_graph.mutate_calls", 0)
    graphs = c.get("seed.exchange_graph.graphs", 0)
    out["seed.exchange_graph.useful_ratio"] = (
        c.get("seed.exchange_graph.new_nodes", 0) / mutate_calls if mutate_calls else 0)
    out["seed.exchange_graph.truncated_ratio"] = (
        c.get("seed.exchange_graph.truncated", 0) / graphs if graphs else 0)
    out["lattice.max_bits"] = c.get("lattice.max_bits", 0)
    out["local_system.max_exponent"] = c.get("local_system.max_exponent", 0)
    out["trace.overhead_ratio"] = ops_per_s(traced) / ops_per_s(untraced)
    for name in CALLS_AND_SELF:
        out[name + ".calls"] = calls.get(name, 0) / ops
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[name + ".self_ms"] = self_ns.get(name, 0) / 1e6 / ops
    for s in SUITES:
        out["verify.%s.cases" % s] = c.get("verify.%s.cases" % s, 0) / ops
    return out


def summary(workload, seed, res, setup_s, label=""):
    lat = sorted(x * 1000 for x in res["latencies"])
    n = len(lat)
    lines = ["workload %s seed %d%s: %d timed ops, %d attempted, %d failed, digest %s"
             % (workload, seed, label, n, res["attempted"], res["failed"],
                res["digest"][:16]),
             "  setup_s        %.4f s" % setup_s,
             "  latency_p50_ms %.4f ms (n=%d)" % (statistics.median(lat), n),
             "  ops_per_s      %.4f op/s" % ops_per_s(res),
             "  failed_ratio   %.4f ratio" % (res["failed"] / res["attempted"]),
             "  peak_rss_mb    %.2f MB" % (res["maxrss_kb"] / 1024)]
    if n >= 100:     # ten samples beyond the 90th percentile
        lines.append("  latency_p90_ms %.4f ms (n=%d)"
                     % (statistics.quantiles(lat, n=10)[-1], n))
    if workload == "graph-explore":
        lines.append("  nodes_per_s    %.1f node/s" % (res["nodes"] / sum(res["latencies"])))
    total = sum(res["busy"].values())
    lines.append("  busy share     " + ", ".join(
        "%s %.2f" % (k, v / total) for k, v in sorted(res["busy"].items())))
    lines += ["  error: " + e for e in res["errors"]]
    return "\n".join(lines)


def bench(args):
    work = os.path.join(ROOT, ".perfbench_work", "%s-%d-%d-%d"
                        % (args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        gen.make_pool(args.workload, args.seed, work)
        env = child_env(args.workload)
        setup_s = measure_setup(env)
        if not args.trace:
            res = run_worker(work, args.workload, args.seconds, 0, env)
            print(summary(args.workload, args.seed, res, setup_s))
            metrics = end_to_end(res, setup_s)
            attempted, failed = res["attempted"], res["failed"]
            units = dict(END_TO_END)
        else:
            untraced = run_worker(work, args.workload, args.seconds / 2, 0, env)
            traced = run_worker(work, args.workload, args.seconds / 2, 1, env)
            print(summary(args.workload, args.seed, untraced, setup_s))
            print(summary(args.workload, args.seed, traced, setup_s, " (traced)"))
            failed = untraced["failed"] + traced["failed"]
            if traced["digest"] != untraced["digest"]:
                print("  error: traced and untraced answers differ")
                failed += 1
            metrics = per_layer(traced, untraced, import_profile(env))
            attempted = untraced["attempted"] + traced["attempted"]
            units = dict(PER_LAYER)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):      # other runs may still use it
            os.rmdir(os.path.dirname(work))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "clustermirror", "cli.py")):
        sys.stderr.write("no clustermirror sources under %s\n" % SRC)
        return 2
    try:
        return bench(args)
    except (BenchError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("benchmark failed: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
