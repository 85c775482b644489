"""Tests of the benchmark itself (not collected by the package's suite).

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import filecmp
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == dict(run.PER_LAYER)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, seed in ((a, 7), (b, 7), (c, 8)):
        d.mkdir()
        gen.make_pool(workload, seed, str(d))
    names = sorted(os.listdir(a / "in"))
    assert names == sorted(os.listdir(b / "in"))
    match, mismatch, errors = filecmp.cmpfiles(a / "in", b / "in", names, shallow=False)
    assert not mismatch and not errors
    assert filecmp.cmp(a / "pool.json", b / "pool.json", shallow=False)
    assert not filecmp.cmp(a / "pool.json", c / "pool.json", shallow=False)


def _worker(work, workload, trace):
    result = os.path.join(work, "result-%d.json" % trace)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), work, workload,
                    "0", str(trace), result], env=run.child_env(workload), check=True,
                   timeout=300)
    with open(result) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_run_gives_the_untraced_answers(tmp_path, workload):
    work = str(tmp_path)
    gen.make_pool(workload, 3, work)
    plain = _worker(work, workload, 0)
    traced = _worker(work, workload, 1)
    assert plain["failed"] == 0 and traced["failed"] == 0, plain["errors"] + traced["errors"]
    assert traced["digest"] == plain["digest"]
    assert traced["trace"]["calls"]["cli.main"] == len(traced["latencies"])


def test_uninstall_restores_every_binding():
    import importlib
    import tracer
    mods = [importlib.import_module("clustermirror." + m) for m in tracer.MODULES]
    canvas = importlib.import_module("clustermirror.svg").SvgCanvas
    before = [dict(vars(m)) for m in mods] + [dict(vars(canvas))]
    suites = dict(importlib.import_module("clustermirror.verify").SUITES)
    t = tracer.Tracer().install()
    assert importlib.import_module("clustermirror.local_system").det is not before[0]["det"]
    assert canvas.line is not before[-1]["line"]
    t.uninstall()
    after = [dict(vars(m)) for m in mods] + [dict(vars(canvas))]
    assert all(a[k] is b[k] for a, b in zip(after, before) for k in b)
    assert importlib.import_module("clustermirror.verify").SUITES == suites


def _bump_last_number(doc):
    """Change the last number (or numeric string) in a JSON document."""
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = list(range(len(doc)))
    else:
        return None
    for key in reversed(keys):
        value = doc[key]
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            doc[key] = value + 1
            return doc
        if isinstance(value, str):
            try:
                doc[key] = str(Fraction(value) + 1)
                return doc
            except ValueError:
                continue
        if _bump_last_number(value) is not None:
            return doc
    return None


def test_checks_reject_corrupted_answers(tmp_path, monkeypatch):
    """Each request kind: the true answer passes, a one-number change
    or a wrong exit code fails."""
    from clustermirror import cli
    from worker import _read
    monkeypatch.setenv("CLUSTERMIRROR_BUDGET", str(gen.GRAPH_BUDGET))
    requests = []
    for workload in ("doc-mix", "graph-explore"):
        work = tmp_path / workload
        work.mkdir()
        requests += [(work, req) for req in gen.make_pool(workload, 5, str(work))]
    seen, infeasible = set(), 0
    for work, req in requests:
        if req["kind"] in seen and req["kind"] not in ("base-trade", "locsys-mutate"):
            continue
        monkeypatch.chdir(work)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(req["argv"])
        outputs = {name: _read(path) for name, path in req["outputs"].items()}
        outputs["stdout"] = out.getvalue().encode()
        assert checks.check(req, code, outputs, gen.GRAPH_BUDGET) is None, req
        if code == 3:
            infeasible += 1
            assert checks.check(req, 0, outputs, gen.GRAPH_BUDGET) is not None, req
            continue
        seen.add(req["kind"])
        main = "json" if "json" in outputs else next(iter(req["outputs"]))
        bad = dict(outputs)
        if req["outputs"][main].endswith(".json"):
            bad[main] = json.dumps(_bump_last_number(json.loads(outputs[main]))).encode()
        else:
            bad[main] = outputs[main].replace(b"\n", b" + 1\n", 1)
        assert checks.check(req, code, bad, gen.GRAPH_BUDGET) is not None, req
        assert checks.check(req, 1, outputs, gen.GRAPH_BUDGET) is not None, req
    assert seen == set(checks.CHECKS)
    assert infeasible > 0
