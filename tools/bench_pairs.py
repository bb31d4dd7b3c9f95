"""Alternated benchmark pairs of two checkouts, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads statistical headline --seeds 1001 1002 1003 --pairs 10 \\
        --claim statistical:wall_s --trace-seed 1011 --cold eq-1.1 all \\
        --out BENCH_10.json

Each pair runs `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, from its root, so each side runs its own
bench/ and src/.  Each side keeps one bytecode cache (PYTHONPYCACHEPREFIX)
in a new directory of its own for the whole invocation, so neither reads a
__pycache__ in its checkout or one the other side wrote.  Before a
workload's pairs, one untimed warm-up run per side (--seconds 0, one
round) fills that cache with bytecode writing on; every timed run, here
and under --cold, then reads it with writing off
(PYTHONDONTWRITEBYTECODE=1), so no run times the compiler.  Pairs 0, 2,
4, ... run the parent first, pairs 1, 3, 5, ... the change; pair i takes
seed i of --seeds, cycling.  Every run's result line (the last line of its
stdout) is kept.  Per end-to-end metric of BENCHMARK.json the summary
gives each side's median and quartiles (inclusive method) and every run in
pair order, the pairs the change won and lost (ties count for neither),
the ratio of the medians, the parent's quartile spread, and whether the
change's median stays within the metric's bound.

--claim W:METRIC states whether the gain on that workload and metric is
met: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's quartile spread.  --trace-seed S adds one
traced run (--trace 1) per side and workload.  --cold ID ... times each
`mahlerlab verify ID --format json` in one fresh process per side (the id
`all` stands for `verify --all`), sides alternated, each after an untimed
warm-up of the same command, and compares their stdout and stderr with
each check's wall_ms removed.

The two checkouts' absolute paths must have the same length: equal code
run from paths of different lengths read a different peak_rss_mb (47.79
against 48.04 MB on the statistical workload, 2-core x86_64 Linux), so the
tool exits 2 before any run when they differ.

The report's parent and change fields name the code each side ran: the
HEAD commit when the checkout is the top of its own git work tree with
src/ and bench/ as committed, and otherwise (a `git archive` export, inside
another work tree or in none, or edited files) "sha256:" and a hash of the
files under its src/ and bench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")
_WALL_MS = re.compile(r'"wall_ms": *\d+,?')


def order(pair: int):
    """The sides in the order they run in a pair: the parent first on even
    pairs, the change first on odd ones."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values):
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _side(values):
    q1, med, q3 = quartiles(values)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def summarize_metric(parent, change, better="lower", bound=None, unit=""):
    """Both sides of one metric over the same pairs, in pair order."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    out = {
        "unit": unit,
        "parent": _side(parent),
        "change": _side(change),
        "change_wins": wins,
        "change_losses": losses,
        "median_ratio_change_over_parent": round(c_med / p_med, 4) if p_med else None,
        "parent_iqr": round(p_q3 - p_q1, 4),
    }
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = sign * c_med <= sign * p_med * (1 + sign * bound)
    return out


def summarize_workload(runs, metric_specs):
    """Summary of one workload's pairs.  runs holds one dict per pair with
    its seed, the side that ran first, and each side's result line (None if
    the run printed none); metric_specs are BENCHMARK.json's end-to-end
    entries.  Pairs where a side has no result line or lacks a metric are
    left out of that metric."""
    out = {
        "pairs": len(runs),
        "seeds": [r["seed"] for r in runs],
        "all_correct": all(r[s] is not None and r[s]["correct"] for r in runs for s in SIDES),
        "failed_ops": {s: sum(r[s]["failed"] for r in runs if r[s]) for s in SIDES},
        "attempted_ops": {s: sum(r[s]["attempted"] for r in runs if r[s]) for s in SIDES},
        "metrics": {},
    }
    for spec in metric_specs:
        name = spec["name"]
        both = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                for r in runs
                if r["parent"] and r["change"]
                and name in r["parent"]["metrics"] and name in r["change"]["metrics"]]
        if both:
            parent, change = zip(*both)
            out["metrics"][name] = summarize_metric(
                list(parent), list(change), spec.get("better", "lower"), spec.get("bound"), spec.get("unit", ""))
    out["runs"] = runs
    return out


def claim(summary, workload, metric):
    """Whether the change's gain on one workload and metric is met."""
    m = summary[workload]["metrics"][metric]
    pairs = summary[workload]["pairs"]
    p_med, c_med = m["parent"]["median"], m["change"]["median"]
    gain = p_med - c_med
    return {
        "metric": f"{workload} {metric}",
        "change_wins": m["change_wins"],
        "pairs": pairs,
        "median_gain": round(gain, 4),
        "median_gain_fraction": round(gain / p_med, 4) if p_med else None,
        "parent_iqr": m["parent_iqr"],
        "met": m["change_wins"] >= math.ceil(0.9 * pairs) and gain > m["parent_iqr"],
    }


def result_line(stdout: str):
    """The JSON object on the last non-empty line of stdout, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        line = json.loads(lines[-1])
    except ValueError:
        return None
    return line if isinstance(line, dict) and "metrics" in line else None


def _run_cached(cmd, checkout, cache, warm=False, env=None, **kwargs):
    """subprocess.run in a checkout with its bytecode cache under the
    directory cache (PYTHONPYCACHEPREFIX), so that no __pycache__ in the
    checkout is read; a warm-up (warm) writes bytecode there, any other run
    only reads it (PYTHONDONTWRITEBYTECODE=1).  Nothing in the checkout is
    deleted."""
    env = dict(os.environ if env is None else env, PYTHONPYCACHEPREFIX=cache)
    if warm:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, **kwargs)


def bench_run(checkout, cache, workload, seed, seconds, trace=0, warm=False):
    """One bench/run.py run in a checkout with the bytecode cache cache: its
    result line, or None."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = _run_cached(cmd, checkout, cache, warm, timeout=seconds + 900)
    except subprocess.TimeoutExpired:
        return None
    return result_line(proc.stdout) if proc.returncode == 0 else None


def run_pairs(run, workload, seeds, pairs):
    """pairs alternated pairs; run(side, workload, seed) gives a result line."""
    out = []
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        record = {"pair": i, "seed": seed, "first": order(i)[0]}
        for side in order(i):
            record[side] = run(side, workload, seed)
        out.append(record)
    return out


def cold_run(checkout, cache, check_id, warm=False):
    """Wall time, exit code and wall_ms-free output of one fresh verify."""
    args = ["--all"] if check_id == "all" else [check_id]
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    proc = _run_cached([sys.executable, "-m", "mahlerlab.cli", "verify", *args, "--format", "json"],
                       checkout, cache, warm, env)
    wall = time.perf_counter() - start
    return round(wall, 3), proc.returncode, _WALL_MS.sub("", proc.stdout + proc.stderr)


def _git(checkout, *args):
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def content_hash(checkout):
    """sha256 over the relative path and bytes of every file under the
    checkout's src/ and bench/, in sorted order; bytecode caches and
    bench/runs/ (outputs of earlier runs) are left out."""
    digest = hashlib.sha256()
    for top in ("src", "bench"):
        for root, dirs, files in os.walk(os.path.join(checkout, top)):
            rel_root = os.path.relpath(root, checkout).replace(os.sep, "/")
            skip = {"__pycache__", "runs"} if rel_root == "bench" else {"__pycache__"}
            dirs[:] = sorted(d for d in dirs if d not in skip)
            for name in sorted(files):
                rel = f"{rel_root}/{name}"
                with open(os.path.join(root, name), "rb") as fh:
                    data = fh.read()
                digest.update(f"{rel}\0{len(data)}\0".encode())
                digest.update(data)
    return digest.hexdigest()


def revision(checkout):
    """The code a checkout runs: its HEAD commit when the checkout is the top
    of its own git work tree and its src/ and bench/ match that commit;
    otherwise (an export, inside another work tree or none, or edited files)
    "sha256:" and the content_hash of its src/ and bench/."""
    top = _git(checkout, "rev-parse", "--show-toplevel")
    if top and os.path.realpath(top) == os.path.realpath(checkout):
        head = _git(checkout, "rev-parse", "HEAD")
        if head and _git(checkout, "status", "--porcelain", "--", "src", "bench") == "":
            return head
    return "sha256:" + content_hash(checkout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--cold", nargs="*", default=[], metavar="CHECK-ID")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    lengths = {side: len(path) for side, path in checkouts.items()}
    if lengths["parent"] != lengths["change"]:
        print(f"bench_pairs: the --parent path is {lengths['parent']} characters long and the "
              f"--change path {lengths['change']}; peak RSS depends on that length, so run "
              "both from paths of equal length", file=sys.stderr)
        return 2
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        metric_specs = json.load(fh)["end_to_end"]
    report = {
        "what": (f"bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 in each "
                 f"checkout, {args.pairs} alternated pairs per workload (pairs 0, 2, 4, ... run the "
                 "parent first), after one untimed warm-up run per side that fills that side's "
                 "bytecode cache, which the timed runs only read; per metric each side's median "
                 "and quartiles (inclusive method), every run in pair order, and the pairs the "
                 "change won or lost (ties count for neither); every run's result line under runs"),
        "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                f"{platform.python_implementation()} {platform.python_version()}",
        "parent": revision(checkouts["parent"]),
        "change": revision(checkouts["change"]),
        "workloads": {},
    }

    # one bytecode cache per side for the whole invocation
    with tempfile.TemporaryDirectory() as caches_dir:
        caches = {s: os.path.join(caches_dir, s) for s in SIDES}

        def run(side, workload, seed):
            line = bench_run(checkouts[side], caches[side], workload, seed, args.seconds)
            print(f"{workload} seed {seed} {side}: "
                  f"{json.dumps(line['metrics']) if line else 'no result line'}", file=sys.stderr)
            return line

        for workload in args.workloads:
            for side in SIDES:
                bench_run(checkouts[side], caches[side], workload, args.seeds[0], 0, warm=True)
            runs = run_pairs(run, workload, args.seeds, args.pairs)
            report["workloads"][workload] = summarize_workload(runs, metric_specs)
        if args.claim:
            report["claim"] = [claim(report["workloads"], *c.split(":", 1)) for c in args.claim]
        if args.trace_seed is not None:
            report["trace"] = {
                w: {"seed": args.trace_seed,
                    **{s: bench_run(checkouts[s], caches[s], w, args.trace_seed, args.seconds, trace=1)
                       for s in SIDES}}
                for w in args.workloads}
        if args.cold:
            cold = {}
            for i, check_id in enumerate(args.cold):
                entry = {}
                for side in order(i):
                    cold_run(checkouts[side], caches[side], check_id, warm=True)
                    entry[f"{side}_s"], entry[f"{side}_exit"], entry[side] = cold_run(
                        checkouts[side], caches[side], check_id)
                entry["stdout_same"] = entry.pop("parent") == entry.pop("change")
                cold[check_id] = entry
            report["cold"] = cold
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
