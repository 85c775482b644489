"""tools/ab.py, the A/B harness, with a stubbed benchmark runner."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

METRICS = {"ops_per_s": ("op/s", "higher", 0.25), "latency_p50_ms": ("ms", "lower", 0.25)}


def stub_runner(calls, change_ops):
    """A runner whose parent reads 100 + seed op/s and whose change reads
    change_ops(seed); latency is 1000 / ops.  The first run of each side
    and workload, the warm-up, reads figures that would show in every
    summary it leaked into."""
    def run(root, workload, seed, seconds):
        warm_up = (root, workload) not in {c[:2] for c in calls}
        calls.append((root, workload, seed, seconds))
        if warm_up:
            return {"metrics": {"ops_per_s": 1e6, "latency_p50_ms": 1e-3},
                    "attempted": 1000, "failed": 1000, "digest": "warm"}
        ops = change_ops(seed) if root == "C" else 100 + seed
        return {"metrics": {"ops_per_s": ops, "latency_p50_ms": 1000 / ops},
                "attempted": 7, "failed": int(root == "C" and seed == 3),
                "digest": "d%d" % (seed % 2) if root == "C" else "d1"}
    return run


def test_compare_alternates_and_summarizes():
    calls = []
    res = ab.compare({"parent": "P", "change": "C"}, ["w1", "w2"], 1, 10, 2.0, METRICS,
                     run=stub_runner(calls, lambda seed: 150 + seed if seed != 4 else 90))
    # one warm-up per side and workload, at the first seed, before its pairs
    assert calls[:2] == [("P", "w1", 1, 2.0), ("C", "w1", 1, 2.0)]
    assert calls[22:24] == [("P", "w2", 1, 2.0), ("C", "w2", 1, 2.0)]
    assert [(c[0], c[2]) for c in calls[2:6]] == [("P", 1), ("C", 1), ("C", 2), ("P", 2)]
    assert len(calls) == 44 and {c[3] for c in calls} == {2.0}
    assert set(res) == {"w1", "w2"}
    w = res["w1"]
    assert set(w) == {"seeds", "first", "digests_equal", "attempted", "failed", "metrics"}
    assert w["seeds"] == list(range(1, 11))
    assert w["first"] == ["parent", "change"] * 5
    assert w["digests_equal"] == 5          # odd seeds
    assert w["attempted"] == {"parent": 70, "change": 70}
    assert w["failed"] == {"parent": 0, "change": 1}
    ops = w["metrics"]["ops_per_s"]
    assert set(ops) == {"unit", "better", "parent", "change", "wins", "gain_shown",
                        "verdict"}
    assert (ops["unit"], ops["better"], ops["wins"]) == ("op/s", "higher", 9)
    assert ops["parent"] == {"median": 105.5, "q1": 103.25, "q3": 107.75,
                             "runs": [101, 102, 103, 104, 105, 106, 107, 108, 109, 110]}
    assert ops["change"]["median"] == 155.5
    assert ops["gain_shown"] and ops["verdict"] == "within bound"
    lat = w["metrics"]["latency_p50_ms"]
    assert lat["better"] == "lower" and lat["wins"] == 9 and lat["gain_shown"]


def test_gain_needs_nine_wins_in_ten_and_more_than_the_parent_spread():
    def summary(change_ops):
        return ab.compare({"parent": "P", "change": "C"}, ["w"], 1, 10, 1, METRICS,
                          run=stub_runner([], change_ops))["w"]["metrics"]["ops_per_s"]
    eight = summary(lambda seed: 150 + seed if seed > 2 else 50)
    assert eight["wins"] == 8 and not eight["gain_shown"]
    # all ten won, but by 2 op/s against a parent q3 - q1 of 4.5
    narrow = summary(lambda seed: 102 + seed)
    assert narrow["wins"] == 10 and not narrow["gain_shown"]
    ties = summary(lambda seed: 100 + seed)
    assert ties["wins"] == 0 and not ties["gain_shown"]


def test_verdict_from_the_bound():
    # the parent reads 101..110 op/s: median 105.5, q3 - q1 = 4.5, a
    # spread of 0.043 of the median
    def verdict(change_ops, bound):
        metrics = {"ops_per_s": ("op/s", "higher", bound),
                   "latency_p50_ms": ("ms", "lower", bound)}
        res = ab.compare({"parent": "P", "change": "C"}, ["w"], 1, 10, 1, metrics,
                         run=stub_runner([], change_ops))["w"]["metrics"]
        return res["ops_per_s"]["verdict"], res["latency_p50_ms"]["verdict"]
    # ops 30% below the parent's, so latency 43% above it
    worse = lambda seed: 0.7 * (100 + seed)
    assert verdict(worse, 0.25) == ("regressed", "regressed")
    assert verdict(worse, 0.35) == ("within bound", "regressed")
    assert verdict(worse, 0.5) == ("within bound", "within bound")
    # a 10% loss sits inside a 25% bound, whatever the spread
    assert verdict(lambda seed: 0.9 * (100 + seed), 0.25) == ("within bound",) * 2
    # a spread wider than the bound hides a regression of its size ...
    assert verdict(lambda seed: 100 + seed + 0.5, 0.01) == ("unresolved",) * 2
    # ... unless every change run beats every parent run
    assert verdict(lambda seed: 150 + seed, 0.01) == ("within bound",) * 2


def _repo(tmp_path):
    """A git checkout at tmp_path with a BENCHMARK.json; returns its git."""
    def git(*args):
        subprocess.run(("git", "-c", "user.name=t", "-c", "user.email=t@example.com")
                       + args, cwd=tmp_path, check=True, capture_output=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 3, "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, (u, b, x) in METRICS.items()]}))
    git("init", "-q")
    return git


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_main_writes_bench_file(tmp_path, monkeypatch):
    git = _repo(tmp_path)
    for version in ("old", "new"):
        (tmp_path / "src.txt").write_text(version)
        (tmp_path / "perfbench" / "run.py").write_text(version)
        git("add", "-A")
        git("commit", "-q", "-m", version)

    seen = []

    def run(root, workload, seed, seconds):
        root = Path(root)
        seen.append(((root / "src.txt").read_text(), (root / "perfbench" / "run.py").read_text()))
        ops = 100 + seed + (50 if root.name == "change" else 0)
        return {"metrics": {"ops_per_s": ops, "latency_p50_ms": 1000 / ops},
                "attempted": 5, "failed": 0, "digest": "same"}
    monkeypatch.setattr(ab, "ROOT", str(tmp_path))
    monkeypatch.setattr(ab, "run_bench", run)
    assert ab.main(["--parent", "HEAD~1", "--pr", "99", "--pairs", "3",
                    "--first-seed", "40"]) == 0
    # both sides run the change's perfbench; only the code under test differs
    assert set(seen) == {("old", "new"), ("new", "new")} and len(seen) == 16
    doc = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert set(doc) == {"pr", "python", "seconds", "pairs", "commits", "workloads"}
    assert (doc["pr"], doc["seconds"], doc["pairs"]) == (99, 3, 3)
    assert doc["commits"]["parent"]["ref"] == "HEAD~1"
    assert doc["commits"]["change"]["ref"] == "HEAD"
    assert all(len(c["commit"]) == 40 for c in doc["commits"].values())
    assert doc["commits"]["parent"]["commit"] != doc["commits"]["change"]["commit"]
    assert list(doc["workloads"]) == ["w1", "w2"]
    w = doc["workloads"]["w2"]
    assert w["seeds"] == [40, 41, 42] and w["digests_equal"] == 3
    assert w["metrics"]["ops_per_s"]["wins"] == 3
    assert set(w["metrics"]) == set(METRICS)
    assert w["metrics"]["ops_per_s"]["verdict"] == "within bound"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_main_refuses_uncommitted_code(tmp_path, monkeypatch, capsys):
    # git archive exports HEAD alone, so an edit under src/ or perfbench/
    # would be left out of the change's side; an edit elsewhere would not
    git = _repo(tmp_path)
    (tmp_path / "src").mkdir()
    for name in ("src/a.py", "src/b.py", "perfbench/run.py", "README.md"):
        (tmp_path / name).write_text("old")
    git("add", "-A")
    git("commit", "-q", "-m", "old")
    git("commit", "-q", "--allow-empty", "-m", "new")
    (tmp_path / "src" / "a.py").write_text("edited")
    (tmp_path / "src" / "b.py").write_text("staged")
    git("add", "src/b.py")
    (tmp_path / "perfbench" / "extra.py").write_text("untracked")
    (tmp_path / "README.md").write_text("edited")

    def run(*args):
        raise AssertionError("no pair may run")
    monkeypatch.setattr(ab, "ROOT", str(tmp_path))
    monkeypatch.setattr(ab, "run_bench", run)
    argv = ["--parent", "HEAD~1", "--pr", "99", "--pairs", "3", "--first-seed", "40"]
    assert ab.main(argv) == 2
    err = capsys.readouterr().err
    assert "uncommitted files under src/ or perfbench/" in err
    listed = err.rstrip().rpartition(": ")[2].split(", ")
    assert sorted(listed) == ["perfbench/extra.py", "src/a.py", "src/b.py"]
    assert not (tmp_path / "BENCH_99.json").exists()
