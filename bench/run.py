"""Benchmark of mahlerlab, run the way its users run it.

    python3 bench/run.py --workload exact --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each round of a workload is one fresh process (bench/worker.py) that runs
mahlerlab's CLI entry point, and for `exact` the finite-field identities,
in order.  Rounds repeat until --seconds have passed (at least one).

--trace 0 prints the end-to-end metrics:
    wall_s       median round wall time of the operations, after set-up
    cpu_s        median round process CPU time over the same span
    setup_s      median CPU time of a worker's main thread from its start
                 to mahlerlab.cli imported (registry built), over
                 SETUP_SAMPLES cold starts
    peak_rss_mb  median peak resident set of a round's process
--trace 1 runs every operation (each check, each compute command) in its
own fresh traced process and prints the per-layer metrics: span totals
from bench/tracer.py, each operation's cold time, and the tracing
overhead.  Span files go to bench/runs/.  Each run saves its outputs
there and compares them with the latest run of the other mode; a line
`note:` says when there was none to compare with.

Every output is checked against computations made apart from the program
(bench/checks.py).  The last line of stdout is one JSON object with
correct, attempted, failed and metrics.  Exit code 2 means the checkout
holds no program to run, 3 that a worker failed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

# cold starts per run, half before the first round and half after the
# last (each round's own worker is one of them); setup_s is their median
SETUP_SAMPLES = 5
# a run may take this much longer than --seconds before a worker is killed
DEADLINE_MARGIN_S = 170
HIGHPREC_BITS = 96
HEADLINE_DIGITS = 300
DEFAULT_QMC_SEED = 0x5EED
# half the program's default 2^20: the same code at half the cost, which
# keeps the 92-run acceptance schedule inside its time limit
QMC_SAMPLES = 1 << 19

EXACT_IDS = (
    "wz-pair-1", "wz-pair-2", "wz-telescope", "wz-2.8-2.9",
    "ff-4.1", "ff-ahlgren-ono", "qexp-ramanujan", "qexp-f-coeffs",
)
HIGHPREC_IDS = (
    "thm-1.1", "eq-1.5", "eq-2.4", "eq-2.5", "e-wan", "eq-2.6", "eq-2.7",
    "eq-2.8-analytic", "eq-2.10", "eq-2.11", "wan-moments", "eq-3.2",
    "eq-3.5-vs-3.6", "eq-3.7", "fourier-3.8", "fourier-3.9", "fourier-3.10",
    "eq-4.3", "lambda-symmetry-f", "lambda-symmetry-h",
)
STATISTICAL_IDS = ("eq-1.1", "eq-1.2", "thm-1.1-torus", "eq-4.4", "m-r32")
FF_PRIMES = tuple(p for p in range(3, 48, 2) if all(p % d for d in range(3, p, 2)))
COUNT_PRIMES = (3, 5, 7, 11, 13)
HEADLINE = {
    "mRk 16": "mRk_16",
    "L f 4": "L_f_4",
    "zeta 3": "zeta_3",
    "catalan": "catalan",
}

class WorkerError(RuntimeError):
    """A worker crashed, broke the protocol or ran past the deadline."""


# ---------------------------------------------------------------------------
# Workloads


def _verify(args):
    return {"op": "cli", "argv": ["verify"] + args + ["--format", "json"]}


def _verify_extra(workload, qmc_seed):
    if workload == "highprec":
        return ["--precision", str(HIGHPREC_BITS)]
    if workload == "statistical":
        return ["--seed", str(qmc_seed), "--samples", str(QMC_SAMPLES)]
    return []


def _compute(quantity):
    argv = ["compute"] + quantity.split() + ["--digits", str(HEADLINE_DIGITS), "--format", "json"]
    return {"op": "cli", "argv": argv}


_KIND = {"exact": "exact", "highprec": "high-precision", "statistical": "statistical"}
_IDS = {"exact": EXACT_IDS, "highprec": HIGHPREC_IDS, "statistical": STATISTICAL_IDS}


def round_ops(workload, qmc_seed):
    """The operations of one round, as one process runs them."""
    if workload == "headline":
        return [_compute(q) for q in HEADLINE]
    extra = _verify_extra(workload, qmc_seed)
    ops = [_verify(["--all", "--filter", _KIND[workload]] + extra)]
    if workload == "exact":
        ops.append({"op": "ffield", "primes": list(FF_PRIMES)})
    return ops


def single_ops(workload, qmc_seed):
    """The same operations one by one, labelled with their cold-time metric."""
    if workload == "headline":
        return [(f"cli.compute.{HEADLINE[q]}.cold_s", _compute(q)) for q in HEADLINE]
    extra = _verify_extra(workload, qmc_seed)
    ops = [
        (f"registry.check.{check_id}.cold_s", _verify([check_id] + extra))
        for check_id in _IDS[workload]
    ]
    if workload == "exact":
        ops.append(("ffield", {"op": "ffield", "primes": list(FF_PRIMES)}))
    return ops


def probe_points(workload, seed):
    """Seeded sample points of the exact workload's recomputation checks."""
    if workload != "exact":
        return {}
    rng = random.Random(seed)
    return {
        "identity_2_8_2_9": sorted(rng.sample(range(501), 4)),
        "ramanujan": sorted(rng.sample(range(501), 3)),
        "count_points": list(COUNT_PRIMES),
    }


# ---------------------------------------------------------------------------
# Workers


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MAHLERLAB_CACHE", None)  # the coefficient cache is left out
    return env


def run_worker(job, deadline):
    """Start a worker, hand it job (None: exit at once) once it is ready.
    Returns (its set-up CPU seconds, result document or None)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        cwd=ROOT,
        env=_worker_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        payload = "" if job is None else json.dumps(job) + "\n"
        out, err = proc.communicate(payload, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0 or not ready.startswith("{"):
        raise WorkerError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    ready = json.loads(ready)
    if not os.path.abspath(ready["module"]).startswith(SRC + os.sep):
        raise WorkerError(f"mahlerlab was imported from {ready['module']}, not from {SRC}")
    return ready["setup_cpu_s"], (json.loads(out) if job is not None else None)


# ---------------------------------------------------------------------------
# Outputs


class Outcome:
    """Program outputs gathered from one or more workers, with counts of
    operations attempted and failed (as the program itself reports them)."""

    def __init__(self):
        self.records = []
        self.computes = {}
        self.rows = []
        self.attempted = 0
        self.failed = 0

    def add(self, workload, op, record, keep=True):
        """Count one operation's record; keep its outputs for checking."""
        if op["op"] == "ffield":
            self.attempted += 2 * len(op["primes"])
            if record.get("rc") is None:
                self.failed += 2 * len(op["primes"])
            else:
                self.failed += sum(not row["ok"] for row in record["rows"])
                if keep:
                    self.rows += record["rows"]
        elif op["argv"][0] == "verify":
            expected = _IDS[workload] if "--all" in op["argv"] else (op["argv"][1],)
            self.attempted += len(expected)
            try:
                results = json.loads(record["out"])["results"]
            except (KeyError, ValueError):
                self.failed += len(expected)
                return
            self.failed += sum(not r["pass"] for r in results)
            if keep:
                self.records += results
        else:
            self.attempted += 1
            if record.get("rc") != 0:
                self.failed += 1
            elif keep:
                doc = json.loads(record["out"])
                self.computes[doc["quantity"]] = doc["value"]


def problems_of(workload, outcome, probes, probed, reference):
    """Independent checks of the outputs; an empty list means correct."""
    problems = []
    passed = [r for r in outcome.records if r["pass"]]
    if workload != "headline":
        got = tuple(r["id"] for r in outcome.records)
        if got != _IDS[workload]:
            problems.append(f"check ids {got} differ from {_IDS[workload]}")
    if workload == "exact":
        rows = [row for row in outcome.rows if row["ok"]]
        problems += checks.exact_checks(passed, rows, probes, probed)
    elif workload == "headline":
        if set(outcome.computes) == set(HEADLINE):
            problems += checks.headline_checks(outcome.computes, HEADLINE_DIGITS, reference)
        elif not outcome.failed:
            problems.append(f"compute outputs {sorted(outcome.computes)}")
    else:
        problems += checks.value_checks(passed, reference)
    return problems


# ---------------------------------------------------------------------------
# Timed runs


def timed(workload, seed, seconds, qmc_seed, deadline):
    probes = probe_points(workload, seed)
    ops = round_ops(workload, qmc_seed)
    setups = [run_worker(None, deadline)[0] for _ in range(SETUP_SAMPLES // 2)]
    rounds = []
    outcome = Outcome()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        job = {"ops": ops, "probes": probes if not rounds else {}}
        setup, doc = run_worker(job, deadline)
        setups.append(setup)
        for op, record in zip(ops, doc["ops"]):
            outcome.add(workload, op, record, keep=not rounds)
        rounds.append(doc)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(None, deadline)[0])

    problems = problems_of(workload, outcome, probes, rounds[0]["probes"],
                           checks.load_reference())
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in rounds) / 1024, "MB"),
    }
    return outcome, problems, metrics


# ---------------------------------------------------------------------------
# Traced run


def _margin_digits(records):
    """min log10(tolerance / deviation) over checks with a nonzero
    deviation and tolerance; 0 when the workload has none."""
    margins = []
    for r in records:
        deviation, tolerance = float(r["deviation"]), float(r["tolerance"])
        if deviation > 0 and tolerance > 0:
            margins.append(math.log10(tolerance / deviation))
    return min(margins) if margins else 0


def traced(workload, seed, qmc_seed, deadline):
    """Each operation in its own fresh traced process: its time there is
    its cold time, and the span totals add up over the processes (so work
    the operations of a timed round share is counted once per operation)."""
    probes = probe_points(workload, seed)
    os.makedirs(RUNS, exist_ok=True)
    outcome = Outcome()
    totals, coefficients, cold = {}, {"f": 0, "h": 0}, {}
    wall = overhead = 0.0
    spans = 0
    first = None
    for index, (label, op) in enumerate(single_ops(workload, qmc_seed)):
        span_file = os.path.join(RUNS, f"trace-{workload}-{index:02d}.jsonl.gz")
        job = {"ops": [op], "probes": probes if index == 0 else {},
               "trace_file": span_file, "label": label}
        doc = run_worker(job, deadline)[1]
        first = first or doc
        outcome.add(workload, op, doc["ops"][0])
        cold[label] = doc["ops"][0]["wall_s"]
        wall += doc["wall_s"]
        overhead += doc["trace_overhead_s"]
        spans += doc["spans"]
        for name, values in doc["trace"].items():
            into = totals.setdefault(name, {})
            for key, value in values.items():
                into[key] = into.get(key, 0) + value
        for form in coefficients:
            coefficients[form] = max(coefficients[form], doc["coefficients"][form])

    problems = problems_of(workload, outcome, probes, first["probes"],
                           checks.load_reference())
    metrics = {}
    for name, quantity, unit in tracer.metric_names():
        value = totals.get(name, {}).get(quantity, 0)
        metrics[f"{name}.{quantity}"] = (int(value) if unit == "count" else value, unit)
    relations = sum(totals.get(f"wz.{f}", {}).get("relations", 0)
                    for f in ("wz_pair_verify", "telescope_reconstruct"))
    metrics["wz.relations"] = (int(relations), "count")
    metrics["modular.coefficients.f"] = (coefficients["f"], "count")
    metrics["modular.coefficients.h"] = (coefficients["h"], "count")
    metrics["registry.margin_digits_min"] = (_margin_digits(outcome.records), "digits")
    for check_id in EXACT_IDS + HIGHPREC_IDS + STATISTICAL_IDS:
        label = f"registry.check.{check_id}.cold_s"
        metrics[label] = (cold.get(label, 0), "s")
    for name in HEADLINE.values():
        label = f"cli.compute.{name}.cold_s"
        metrics[label] = (cold.get(label, 0), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.spans"] = (spans, "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    return outcome, problems, metrics


# ---------------------------------------------------------------------------
# Traced and untraced outputs


def _source_digest():
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for directory in (os.path.join(SRC, "mahlerlab"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def compare_modes(workload, qmc_seed, traced_run, outcome):
    """Save this run's outputs and compare them with the latest run of the
    other mode (traced or untraced) with the same sources and QMC seed.
    Returns (problems, whether a comparison was made)."""
    os.makedirs(RUNS, exist_ok=True)
    key = {"source": _source_digest(), "qmc_seed": qmc_seed}
    mine = dict(key, records=outcome.records, computes=outcome.computes, rows=outcome.rows)
    names = {True: "traced", False: "untraced"}
    path = os.path.join(RUNS, f"outputs-{workload}-{{}}.json")
    with open(path.format(names[traced_run]), "w") as fh:
        json.dump(mine, fh)
    try:
        with open(path.format(names[not traced_run])) as fh:
            other = json.load(fh)
    except FileNotFoundError:
        return [], False
    if {k: other.get(k) for k in key} != key:
        return [], False
    same = all(other[k] == mine[k] for k in ("records", "computes", "rows"))
    return ([] if same else ["traced and untraced runs printed different results"]), True


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact", "highprec", "statistical", "headline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--qmc-seed", type=lambda s: int(s, 0), default=DEFAULT_QMC_SEED,
                        help="QMC seed of the statistical checks (default 0x5EED)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mahlerlab", "__init__.py")):
        print(f"bench: no mahlerlab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + args.seconds + DEADLINE_MARGIN_S
    try:
        if args.trace:
            outcome, problems, metrics = traced(args.workload, args.seed, args.qmc_seed, deadline)
        else:
            outcome, problems, metrics = timed(
                args.workload, args.seed, args.seconds, args.qmc_seed, deadline)
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    mismatches, compared = compare_modes(args.workload, args.qmc_seed, bool(args.trace), outcome)
    problems += mismatches
    if not compared:
        other = "untraced" if args.trace else "traced"
        print(f"note: outputs not compared: no saved {other} run of these sources and QMC seed")
    if args.trace:
        metrics["trace.compared"] = (int(compared), "count")
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
