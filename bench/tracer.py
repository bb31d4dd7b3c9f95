"""Spans around the public functions of each mahlerlab layer.

Installed only in traced worker processes (see worker.py); the timed runs
execute the unmodified program.  Each wrapped call records a span
(name, start, end, parent span) in memory and adds to per-metric totals:
calls, self time (span time minus the time of wrapped child spans) and the
layer's own work counts.  Names bound with ``from .x import y`` are
replaced in every mahlerlab module that holds them, so a call is traced
wherever the caller looks the name up.  Closures a layer calls (the
q-series integrand of fricke_check, the torus integrands of torus_qmc) are
not wrapped and so count toward the span of the layer that calls them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict


def _counts(*keys):
    """Mark a work counter with the keys of the totals it adds to."""

    def mark(fn):
        fn.keys = keys
        return fn

    return mark


@_counts("terms")
def _terms(args, kwargs, result):
    partial_sums = args[0] if args else kwargs["partial_sums"]
    return {"terms": len(partial_sums)}


@_counts("evaluations", "levels")
def _quadrature(args, kwargs, result):
    return {"evaluations": result.evaluations, "levels": result.levels}


@_counts("points")
def _points(args, kwargs, result):
    return {"points": result.evaluations}


@_counts("relations")
def _relations(args, kwargs, result):
    return {"relations": result.relations_checked}


# (module, attribute, metric prefix, work counter)
TARGETS = (
    ("precision", "accelerate", "precision.accelerate", _terms),
    ("special", "pfq", "special.pfq", None),
    ("special", "ell_k", "special.agm", None),
    ("special", "ell_kprime", "special.agm", None),
    ("special", "gamma_upper_int", "special.gamma_upper_int", None),
    ("special", "zeta_int", "special.zeta_int", None),
    ("special", "catalan", "special.catalan", None),
    ("quadrature", "tanh_sinh", "quadrature.tanh_sinh", _quadrature),
    ("quadrature", "torus_qmc", "quadrature.torus_qmc", _points),
    ("modular", "l_value", "modular.l_value", None),
    ("modular", "fricke_check", "modular.fricke_check", None),
    ("wz", "wz_pair_verify", "wz.wz_pair_verify", _relations),
    ("wz", "telescope_reconstruct", "wz.telescope_reconstruct", _relations),
    ("wz", "identity_2_8_2_9", "wz.identity_2_8_2_9", None),
    ("wz", "ramanujan_partial_sums", "wz.ramanujan_partial_sums", None),
    ("ffield", "verify_4_1", "ffield.verify_4_1", None),
    ("ffield", "count_points", "ffield.count_points", None),
    ("ffield", "greene_nfn", "ffield.greene_nfn", None),
    ("mahler", "wan_moment_check", "mahler.wan_moment_check", None),
    ("mahler", "density_integral_check", "mahler.density_integral_check", None),
    ("mahler", "fourier_check", "mahler.fourier_check", None),
    ("mahler", "r_alpha", "mahler.r_alpha", None),
    ("mahler", "m_alpha", "mahler.m_alpha", None),
    ("mahler", "m_rk_hypergeometric", "mahler.m_rk_hypergeometric", None),
    ("mahler", "mahler_numeric", "mahler.mahler_numeric", None),
    ("registry", "run_check", "registry.run_check", None),
    ("cli", "main", "cli.main", None),
)

# methods are wrapped on their class: (module, class, method, metric prefix)
METHOD_TARGETS = (("modular", "NewformSpec", "ensure", "modular.ensure"),)


def metric_names():
    """(metric prefix, quantity, unit) of every span total a traced run
    reports: calls and self time of each prefix, then its work counts."""
    names, counters = [], {}
    for _, _, name, counter in TARGETS:
        counters.setdefault(name, counter)
    for _, _, _, name in METHOD_TARGETS:
        counters.setdefault(name, None)
    for name, counter in counters.items():
        names += [(name, "calls", "count"), (name, "self_s", "s")]
        names += [(name, key, "count") for key in getattr(counter, "keys", ())]
    return names


class Tracer:
    """Collects spans and per-metric totals for one worker process."""

    def __init__(self):
        self.spans = []
        self.totals = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._restore = []

    def wrap(self, fn, name, counter):
        spans = self.spans
        stack = self._stack
        totals = self.totals[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                spans[index] = (name, start, end, parent)
                totals["calls"] += 1
                totals["self_s"] += elapsed - frame[0]
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    totals[key] += value
            return result

        return traced

    def install(self):
        """Replace every binding of each target in the loaded mahlerlab
        modules; uninstall() puts the originals back."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "mahlerlab" or name.startswith("mahlerlab.")
        ]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[f"mahlerlab.{module_name}"], attr)
            wrapped = self.wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))
        for module_name, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(sys.modules[f"mahlerlab.{module_name}"], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(original, name, None))
            self._restore.append((cls, method, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def span_cost(self, calls=20000):
        """Seconds one wrapper adds to a call, timed on a no-op."""

        def noop():
            return None

        probe = Tracer().wrap(noop, "calibration", None)
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            probe()
        return max(0.0, (clock() - start - bare) / calls)

    def summary(self):
        return {name: dict(values) for name, values in self.totals.items()}

    def write(self, path, label):
        """Write the spans as gzip-compressed JSON lines, one header line
        naming the operation, then one line per span in start order."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"operation": label, "spans": len(self.spans)}) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start,
                         "end": end, "parent": parent}
                    ) + "\n"
                )
