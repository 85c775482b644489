"""A/B benchmark of a parent commit against a change, in alternating pairs.

    python3 tools/ab.py --parent REF --pr N --pairs 10 --first-seed S

Run from the root of a git checkout.  REF (the parent) and HEAD (the
change) are exported with `git archive` into a temporary directory, and
the change's `perfbench/` is copied over the parent's, so that the two
sides differ only in the code under test.  For each workload in
BENCHMARK.json, pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0

once on each side: the parent first on even pairs, the change first on
odd ones.  T is `run_seconds` in BENCHMARK.json.  Use seeds that were
not used while the change was built.  Before the pairs of a workload,
each side runs it once at seed S, untimed and left out of every figure:
a fresh export has no byte code, and the run that compiles it reads
more memory than the runs after it.

`BENCH_<N>.json` is written at the root.  Per workload and end-to-end
metric it holds each side's median, q1, q3 and runs (quartiles by
`statistics.quantiles(method="inclusive")`), the change's wins out of
the pairs (ties count for neither side) and `gain_shown`: the change won
at least nine pairs in ten and the medians differ, the better way, by
more than the parent's q3 - q1.  Each metric also gets a `verdict` from
its `bound` in BENCHMARK.json: "regressed" when the change's median is
worse than the parent's by more than the bound (relative to the parent's
median); else "unresolved" when the parent's (q3 - q1) / median exceeds
the bound and not every change run beats every parent run, since such a
spread hides a regression of the bound's size; else "within bound".
Per workload it also holds the seeds, which side ran first, the pairs
whose run digests are equal, and the attempted and failed answers of
each side; at the top, both commits and the Python version.

The exports hold committed files only, so the tool exits 2, listing
them, while any file under `src/` or `perfbench/` is modified, staged or
untracked: a run would measure the change without them.
"""

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
DIGEST = re.compile(r"digest ([0-9a-f]+)")


def git(*args):
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def uncommitted():
    """The files under src/ and perfbench/ that differ from HEAD or are
    untracked, as git status lists them."""
    out = git("status", "--porcelain", "--untracked-files=all", "--", "src", "perfbench")
    return [line[3:] for line in out.decode().splitlines()]


def export(ref, dest):
    """The tree of ref, extracted into the new directory dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref))) as tar:
        # the safe filter where this Python has it (3.12, and 3.11.4+ as a backport)
        tar.extraction_filter = getattr(tarfile, "data_filter", None)
        tar.extractall(dest)


def run_bench(root, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run in the checkout at root: its
    metric values, answers attempted and failed, and run digest."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s seed %d in %s exited %d: %s"
                           % (workload, seed, root, proc.returncode, proc.stderr[-500:]))
    result = json.loads(lines[-1])
    digest = DIGEST.search(proc.stdout)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "digest": digest.group(1) if digest else None}


def spread(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def verdict(sp, sc, sign, bound):
    """The bound verdict on one metric, from each side's spread; sign is
    1 if higher is better, else -1."""
    p = sp["median"]
    if sign * (p - sc["median"]) > bound * abs(p):
        return "regressed"
    if (sp["q3"] - sp["q1"] > bound * abs(p)
            and not all(sign * (b - a) > 0 for a in sp["runs"] for b in sc["runs"])):
        return "unresolved"
    return "within bound"


def compare(roots, workloads, first_seed, pairs, seconds, metrics, run=run_bench,
            log=None):
    """Run the pairs and summarize them.  roots maps each side to its
    checkout; metrics maps each end-to-end metric to (unit, better,
    bound)."""
    out = {}
    for workload in workloads:
        seeds = list(range(first_seed, first_seed + pairs))
        for side in SIDES:
            run(roots[side], workload, first_seed, seconds)    # warm-up, discarded
        runs = {side: [] for side in SIDES}
        first = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                runs[side].append(run(roots[side], workload, seed, seconds))
                if log:
                    m = runs[side][-1]["metrics"]
                    log("%s seed %d %s: %s" % (workload, seed, side, ", ".join(
                        "%s %.4g" % (k, m[k]) for k in metrics if k in m)))
        summary = {}
        for name, (unit, better, bound) in metrics.items():
            p = [r["metrics"][name] for r in runs["parent"]]
            c = [r["metrics"][name] for r in runs["change"]]
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            sp, sc = spread(p), spread(c)
            summary[name] = {
                "unit": unit, "better": better, "parent": sp, "change": sc, "wins": wins,
                "gain_shown": (wins >= 0.9 * pairs
                               and sign * (sc["median"] - sp["median"]) > sp["q3"] - sp["q1"]),
                "verdict": verdict(sp, sc, sign, bound),
            }
        out[workload] = {
            "seeds": seeds,
            "first": first,
            "digests_equal": sum(a["digest"] is not None and a["digest"] == b["digest"]
                                 for a, b in zip(runs["parent"], runs["change"])),
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
            "metrics": summary,
        }
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--first-seed", type=int, required=True)
    args = p.parse_args(argv)
    dirty = uncommitted()
    if dirty:
        print("ab.py: uncommitted files under src/ or perfbench/ would be left out of "
              "the export of HEAD; commit or stash them: %s" % ", ".join(dirty),
              file=sys.stderr)
        return 2
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    # resolved once, so that a commit made during the run changes nothing
    commits = {side: {"ref": ref, "commit": git("rev-parse", ref).decode().strip()}
               for side, ref in zip(SIDES, (args.parent, "HEAD"))}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export(commits[side]["commit"], roots[side])
        shutil.rmtree(os.path.join(roots["parent"], "perfbench"))
        shutil.copytree(os.path.join(roots["change"], "perfbench"),
                        os.path.join(roots["parent"], "perfbench"))
        results = compare(roots, [w["name"] for w in bench["workloads"]], args.first_seed,
                          args.pairs, seconds, metrics, run=run_bench,
                          log=lambda line: print(line, file=sys.stderr, flush=True))
    doc = {
        "pr": args.pr,
        "python": platform.python_version(),
        "seconds": seconds,
        "pairs": args.pairs,
        "commits": commits,
        "workloads": results,
    }
    path = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print("%-14s %-15s parent %10.4f [%.4f-%.4f]  change %10.4f [%.4f-%.4f]  "
                  "wins %d/%d  %s%s" % (workload, name, m["parent"]["median"], m["parent"]["q1"],
                                        m["parent"]["q3"], m["change"]["median"],
                                        m["change"]["q1"], m["change"]["q3"], m["wins"],
                                        args.pairs, m["verdict"],
                                        "  gain shown" if m["gain_shown"] else ""))
        print("%-14s digests equal %d/%d, failed %d/%d" % (
            workload, res["digests_equal"], args.pairs, res["failed"]["parent"],
            res["failed"]["change"]))
    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
