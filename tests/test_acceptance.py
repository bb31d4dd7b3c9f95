"""Release gate: eleven criteria, one printed pass/fail line each.

Each test exercises one criterion end to end at its stated tolerance and
time budget and prints a single line

    acceptance NN PASS|FAIL <title>: <measured numbers>

through the capture-disabled channel, so the verdicts are visible in any
pytest run.  Budgets are wall-clock, single process.  The statistical and
determinism criteria run the full 2^20-sample QMC suite, so this file is
the slow one; everything else in the tree stays fast.
"""

import json
import math
import time
from fractions import Fraction

import pytest
from mpmath import mp

from mahlerlab import registry
from mahlerlab.cli import main
from mahlerlab.mahler import fourier_check, r_alpha
from mahlerlab.modular import (
    NEWFORM_F,
    NEWFORM_H,
    FunctionalEquationViolation,
    NewformSpec,
    fricke_check,
)
from mahlerlab.special import zeta_int


def _emit(capsys, number: int, ok: bool, title: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance {number:02d} {status} {title}: {detail}", flush=True)
    assert ok, f"criterion {number} failed: {detail}"


def _n(x, digits: int = 3) -> str:
    return mp.nstr(mp.mpf(x), digits)


class TestAcceptance:
    def test_01_main_theorem(self, capsys):
        t0 = time.perf_counter()
        r = registry.run_check("thm-1.1", 128)
        dt = time.perf_counter() - t0
        ok = r.passed and r.deviation < mp.mpf("1e-20") and dt < 60
        _emit(
            capsys, 1, ok,
            "main theorem, series route vs L-value route, 1e-20 at 128 bits",
            f"deviation {_n(r.deviation)}, {dt:.1f} s (budget 60 s)",
        )

    def test_02_hypergeometric_6f5_at_one(self, capsys):
        t0 = time.perf_counter()
        r = registry.run_check("eq-1.5", 128)
        dt = time.perf_counter() - t0
        ok = r.passed and r.deviation < mp.mpf("1e-10") and dt < 60
        _emit(
            capsys, 2, ok,
            "6F5 at unit argument vs log/L/zeta closed form, 1e-10",
            f"deviation {_n(r.deviation)}, {dt:.1f} s (budget 60 s)",
        )

    def test_03_section_2_integrals(self, capsys):
        ids = ("eq-2.4", "eq-2.5", "e-wan", "eq-2.6", "eq-2.7", "eq-2.8-analytic")
        worst_dev = mp.mpf(0)
        worst_time = 0.0
        ok = True
        for check_id in ids:
            t0 = time.perf_counter()
            r = registry.run_check(check_id, 96)
            dt = time.perf_counter() - t0
            worst_dev = max(worst_dev, mp.mpf(r.deviation))
            worst_time = max(worst_time, dt)
            ok = ok and r.passed and r.deviation < mp.mpf("1e-15") and dt < 120
        _emit(
            capsys, 3, ok,
            "six elliptic-integral identities, 1e-15 at 96 bits",
            f"worst deviation {_n(worst_dev)}, slowest {worst_time:.1f} s "
            "(budget 120 s each)",
        )

    def test_04_wan_moments(self, capsys):
        t0 = time.perf_counter()
        r = registry.run_check("wan-moments", 128)
        dt = time.perf_counter() - t0
        ok = r.passed and r.deviation < mp.mpf("1e-8") and dt < 120
        _emit(
            capsys, 4, ok,
            "K K' moments m = 0..6, quadrature vs gamma-ratio 4F3, 1e-8",
            f"worst deviation {_n(r.deviation)}, {dt:.1f} s (budget 120 s total)",
        )

    def test_05_double_sum_identities(self, capsys):
        ids = ("eq-2.10", "eq-2.11", "eq-3.2", "eq-4.3")
        t0 = time.perf_counter()
        results = [registry.run_check(check_id, 128) for check_id in ids]
        dt = time.perf_counter() - t0
        worst = max(mp.mpf(r.deviation) for r in results)
        ok = all(r.passed for r in results) and worst < mp.mpf("1e-10") and dt < 120
        _emit(
            capsys, 5, ok,
            "double-sum and series identities, 1e-10",
            f"worst deviation {_n(worst)}, {dt:.1f} s (budget 120 s total)",
        )

    def test_06_wz_suite_exact(self, capsys):
        ids = ("wz-pair-1", "wz-pair-2", "wz-telescope", "wz-2.8-2.9")
        t0 = time.perf_counter()
        results = [registry.run_check(check_id, 64) for check_id in ids]
        dt = time.perf_counter() - t0
        ok = (
            all(r.passed for r in results)
            and all(r.deviation == Fraction(0) for r in results)
            and dt < 60
        )
        _emit(
            capsys, 6, ok,
            "WZ pairs, telescoping, and triple identity exact for n <= 500",
            f"all residuals 0, {dt:.1f} s (budget 60 s)",
        )

    def test_07_section_3_suite(self, capsys):
        t0 = time.perf_counter()
        with mp.workprec(200):
            reference = 7 * zeta_int(3, 180) / (2 * mp.pi ** 2)
            r1_dev = abs(r_alpha(1.0, route="polylog", precision=160) - reference)
        routes = registry.run_check("eq-3.5-vs-3.6", 128)
        density = registry.run_check("eq-3.7", 128)
        fourier = [
            registry.run_check(check_id, 128)
            for check_id in ("fourier-3.8", "fourier-3.9", "fourier-3.10")
        ]

        # decay exponent: geometric mean over an interior grid kills the
        # pointwise oscillation of the truncation error, the slope of
        # log(dev) vs log(N) is then stable (measured -1.03/-0.75/-1.76)
        grid = [0.2 + 0.1 * j for j in range(12)]
        term_counts = (50, 100, 200, 400, 800)
        slopes = []
        for which in ("3.8", "3.9", "3.10"):
            means = []
            for terms in term_counts:
                logsum = 0.0
                for theta in grid:
                    d = float(fourier_check(which, theta, terms, precision=80))
                    logsum += math.log(max(d, 1e-300))
                means.append(logsum / len(grid))
            xs = [math.log(n) for n in term_counts]
            xbar = sum(xs) / len(xs)
            ybar = sum(means) / len(means)
            slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, means)) / sum(
                (x - xbar) ** 2 for x in xs
            )
            slopes.append(slope)
        dt = time.perf_counter() - t0

        ok = (
            r1_dev < mp.mpf("1e-25")
            and routes.passed
            and routes.deviation < mp.mpf("1e-8")
            and density.passed
            and density.deviation < mp.mpf("1e-8")
            and all(f.passed and f.deviation < mp.mpf("1e-3") for f in fourier)
            and all(slope < -0.6 for slope in slopes)
        )
        worst_fourier = max(mp.mpf(f.deviation) for f in fourier)
        _emit(
            capsys, 7, ok,
            "R(alpha) suite: polylog value, route agreement, density "
            "moments, Fourier truncations",
            f"R(1) deviation {_n(r1_dev)}, routes {_n(routes.deviation)}, "
            f"density {_n(density.deviation)}, fourier {_n(worst_fourier)} "
            f"with decay slopes {', '.join(f'{s:.2f}' for s in slopes)}, "
            f"{dt:.1f} s",
        )

    def test_08_statistical_suite(self, capsys):
        t0 = time.perf_counter()
        results = registry.run_all(
            ("statistical",), 128, seed=0x5EED, samples=1 << 20
        )
        dt = time.perf_counter() - t0
        ok = len(results) == 5 and all(r.passed for r in results) and dt < 600
        margins = ", ".join(
            f"{r.id} {_n(mp.mpf(r.deviation) / mp.mpf(r.tolerance), 2)}x"
            for r in results
        )
        _emit(
            capsys, 8, ok,
            "QMC suite, 2^20 samples x 16 shifts, within max(5e-3, 6 sigma)",
            f"deviation/tolerance {margins}, {dt:.1f} s (budget 600 s)",
        )

    def test_09_finite_field_suite(self, capsys):
        t0 = time.perf_counter()
        trace = registry.run_check("ff-4.1", 64)
        ao = registry.run_check("ff-ahlgren-ono", 64)
        dt = time.perf_counter() - t0
        ok = (
            trace.passed
            and trace.deviation == Fraction(0)
            and ao.passed
            and ao.deviation == Fraction(0)
            and dt < 120
        )
        _emit(
            capsys, 9, ok,
            "finite-field trace identity and p^3 4F3(1) = -a_p - p for "
            "p in {3,5,7,11,13}",
            f"residuals 0, {dt:.1f} s (budget 120 s)",
        )

    def test_10_functional_equation(self, capsys):
        t0 = time.perf_counter()
        asym_f = fricke_check(NEWFORM_F, 64)
        asym_h = fricke_check(NEWFORM_H, 64)
        flipped = NewformSpec(
            name="f-flipped",
            weight=NEWFORM_F.weight,
            level=NEWFORM_F.level,
            fricke_sign=-NEWFORM_F.fricke_sign,
            recipe=NEWFORM_F.recipe,
        )
        with pytest.raises(FunctionalEquationViolation):
            fricke_check(flipped, 64)
        dt = time.perf_counter() - t0
        ok = asym_f < mp.mpf("1e-12") and asym_h < mp.mpf("1e-12")
        _emit(
            capsys, 10, ok,
            "Lambda symmetry below 1e-12 at 64 bits, sign flip rejected",
            f"asymmetry f {_n(asym_f)}, h {_n(asym_h)}, negative control "
            f"raised, {dt:.1f} s",
        )

    def test_11_determinism(self, capsys):
        argv = ["verify", "--all", "--format", "json"]
        t0 = time.perf_counter()
        code_first = main(list(argv))
        first = capsys.readouterr().out
        code_second = main(list(argv))
        second = capsys.readouterr().out
        dt = time.perf_counter() - t0
        identical = first == second
        all_passed = code_first == 0 and code_second == 0
        doc = json.loads(first)
        ok = identical and all_passed and doc["summary"]["total"] == 33
        _emit(
            capsys, 11, ok,
            "verify --all twice with identical config is byte-identical JSON",
            f"{len(first.encode())} bytes, {doc['summary']['passed']}/33 "
            f"passed, reruns {'identical' if identical else 'DIFFER'}, "
            f"{dt:.1f} s",
        )
