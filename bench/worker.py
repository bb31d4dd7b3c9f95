"""One fresh mahlerlab process, driven by bench/run.py.

Start it with PYTHONPATH pointing at the checkout's src/.  It imports
mahlerlab.cli (which builds the check registry) and prints one line,
{"ready": true, ...}, which carries the set-up time: the CPU time of the
main thread since the process started.  It then reads
one JSON job from stdin, or exits at end of input.  A job is

    {"ops": [...], "probes": {...}, "trace_file": path or null, "label": str}

Each op is {"op": "cli", "argv": [...]}, which runs mahlerlab's CLI entry
point with its output captured, or {"op": "ffield", "primes": [...]},
which runs verify_4_1(p) and the Ahlgren-Ono link p^3 4F3(1) = -a_p - p
through the package API.  The ops are timed together (wall and process CPU
time); then the peak resident set is read, tracing (if any) is removed, and
the probes, calls whose outputs the benchmark checks against its own
computations, are made untimed.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction


def _text(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _run_cli(ml, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ml.cli.main(argv)
    return {"rc": code, "out": out.getvalue(), "err": err.getvalue()}


def _run_ffield(ml, primes):
    rows = []
    for p in primes:
        report = ml.verify_4_1(p)
        rows.append(
            {
                "p": p,
                "ok": report.ok,
                "residuals": [r for _, r in report.residuals],
                "greene_3_1": _text(ml.greene_nfn(p, 3, 1)),
                "a_p": ml.newform_coefficient(ml.NEWFORM_F, p),
            }
        )
    return {"rc": 0 if all(r["ok"] for r in rows) else 1, "rows": rows}


def _probes(ml, probes):
    from mahlerlab import ffield, wz

    out = {}
    if "identity_2_8_2_9" in probes:
        out["identity_2_8_2_9"] = [
            [_text(s) for s in wz.identity_2_8_2_9(n)] for n in probes["identity_2_8_2_9"]
        ]
    if "ramanujan" in probes:
        indices = probes["ramanujan"]
        sums = wz.ramanujan_partial_sums(max(indices))
        out["ramanujan"] = [_text(sums[m]) for m in indices]
    if "count_points" in probes:
        out["count_points"] = {
            str(p): [ffield.count_points(p, t).count for t in range(1, p)]
            for p in probes["count_points"]
        }
    return out


def main() -> int:
    import mahlerlab as ml
    import mahlerlab.cli  # noqa: F401  (the CLI module and its registry)

    setup_cpu = time.thread_time()
    proto = sys.stdout
    ready = {"ready": True, "module": ml.__file__, "setup_cpu_s": setup_cpu}
    proto.write(json.dumps(ready) + "\n")
    proto.flush()
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)

    tracer = None
    if job.get("trace_file"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in job["ops"]:
        start, cpu = time.perf_counter(), time.process_time()
        try:
            if op["op"] == "cli":
                record = _run_cli(ml, op["argv"])
            else:
                record = _run_ffield(ml, op["primes"])
        except Exception:
            record = {"rc": None, "error": traceback.format_exc()}
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu
        results.append(record)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = {"ops": results, "wall_s": wall, "cpu_s": cpu, "peak_rss_kb": peak_kb}
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.summary()
        doc["spans"] = len(tracer.spans)
        doc["trace_overhead_s"] = len(tracer.spans) * tracer.span_cost()
        doc["coefficients"] = {
            "f": ml.NEWFORM_F.cached_order(),
            "h": ml.NEWFORM_H.cached_order(),
        }
        tracer.write(job["trace_file"], job.get("label", ""))
    doc["probes"] = _probes(ml, job.get("probes", {}))
    proto.write(json.dumps(doc) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
