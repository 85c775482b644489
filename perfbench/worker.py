"""Closed-loop worker: one client, one request at a time.

    python perfbench/worker.py WORKDIR WORKLOAD SECONDS TRACE RESULT

Reads the request pool from WORKDIR/pool.json and runs it in order,
over and over, with WORKDIR as the working directory.  `cli-cold` runs
each request as a fresh `python -m clustermirror.cli` subprocess;
the other workloads call `cli.main` in this process, after one untimed
warm-up pass over the pool (the warm mix is what they measure).

Every pool entry runs at least once in the timed loop, which then goes
on until SECONDS have passed.  The first answer to each request gets
the full check from `checks.py`; later answers must be byte-identical
to it.  The run digest hashes the first answer to every request in pool
order, so it depends only on the seed and the program.

With TRACE=1 the run is traced (see `tracer.py`) and the result holds
the aggregated spans.  The result JSON goes to RESULT.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import checks
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _clear(req):
    for path in req["outputs"].values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _collect(req, stdout, stderr):
    outputs = {name: _read(path) for name, path in req["outputs"].items()}
    outputs["stdout"] = stdout
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0")
        h.update(b"-" if outputs[name] is None else outputs[name])
        h.update(b"\0")
    h.update(stderr)
    return outputs, h.hexdigest()


class InProcess:
    """Calls cli.main directly; stdout and stderr go to buffers."""

    def __init__(self, tracer):
        from clustermirror import cli
        self.cli = cli
        self.tracer = tracer

    def __call__(self, req, op):
        out, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.op = op
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(req["argv"])
            except Exception:            # a crash is a failed request, not a failed run
                traceback.print_exc()
                code = -1
        elapsed = time.perf_counter() - start
        if self.tracer:
            self.tracer.op = None
        return code, elapsed, out.getvalue().encode(), err.getvalue().encode()


class Subprocess:
    """A fresh interpreter per request; traced requests go through
    tracer.py, which writes one span file per request."""

    def __init__(self, span_dir):
        self.span_dir = span_dir
        self.span_files = []

    def __call__(self, req, op):
        if self.span_dir is None:
            cmd = [sys.executable, "-m", "clustermirror.cli"] + req["argv"]
        else:
            path = os.path.join(self.span_dir, "op%06d.json" % op)
            self.span_files.append(path)
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), path, "--"] + req["argv"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, timeout=120)
        elapsed = time.perf_counter() - start
        return proc.returncode, elapsed, proc.stdout, proc.stderr


def run(workdir, workload, seconds, trace):
    os.chdir(workdir)
    with open("pool.json") as fh:
        pool = json.load(fh)
    budget = int(os.environ.get("CLUSTERMIRROR_BUDGET", "10000"))
    cold = workload == "cli-cold"
    tracer = None
    if trace and not cold:
        tracer = tracing.Tracer()
    if cold:
        span_dir = None
        if trace:
            span_dir = os.path.join(workdir, "spans")
            os.makedirs(span_dir, exist_ok=True)
        execute = Subprocess(span_dir)
    else:
        execute = InProcess(tracer)

    first = {}           # request id -> digest of its first answer
    verdict = {}         # request id -> None or why its first answer is wrong
    errors = []
    attempted = failed = 0

    def answer(req, op):
        nonlocal attempted, failed
        _clear(req)
        code, elapsed, stdout, stderr = execute(req, op)
        outputs, digest = _collect(req, stdout, stderr)
        attempted += 1
        if req["id"] not in first:
            first[req["id"]] = digest
            verdict[req["id"]] = checks.check(req, code, outputs, budget)
            problem = verdict[req["id"]]
        elif digest != first[req["id"]]:
            problem = "%s %s: answer differs from its first answer" % (req["id"], req["kind"])
        else:
            problem = verdict[req["id"]]     # a repeated wrong answer is still wrong
        if problem:
            failed += 1
            if len(errors) < 10 and problem not in errors:
                errors.append(problem)
        return elapsed, outputs

    if not cold:
        for req in pool:                     # warm-up pass, untimed
            answer(req, None)
    if tracer:
        tracer.install()

    latencies, out_bytes, svg_bytes, nodes = [], 0, 0, 0
    busy = {}            # kind -> seconds spent in timed requests of that kind
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(pool) or time.perf_counter() < deadline:
        req = pool[i % len(pool)]
        elapsed, outputs = answer(req, i)
        latencies.append(elapsed)
        busy[req["kind"]] = busy.get(req["kind"], 0) + elapsed
        for name, raw in outputs.items():
            if raw is not None:
                out_bytes += len(raw)
                if name != "stdout" and req["outputs"][name].endswith(".svg"):
                    svg_bytes += len(raw)
        if req["kind"] == "seed-graph" and outputs["out"] is not None:
            nodes += len(json.loads(outputs["out"])["nodes"])
        i += 1

    result = {
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": hashlib.sha256("".join(first[r["id"]] for r in pool).encode()).hexdigest(),
        "busy": busy,
        "nodes": nodes,
        "output_bytes": out_bytes,
        "svg_bytes": svg_bytes,
        "maxrss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.uninstall()
        tracer.dump(os.path.join(workdir, "spans.json"))
        result["trace"] = tracing.aggregate([os.path.join(workdir, "spans.json")])
    elif trace:
        result["trace"] = tracing.aggregate(execute.span_files)
    return result


def main(argv):
    workdir, workload, seconds, trace, result_path = argv
    result = run(os.path.abspath(workdir), workload, float(seconds), trace == "1")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
