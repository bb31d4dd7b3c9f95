"""Registry tests: catalogue completeness, scoring semantics, determinism,
and the precision/tolerance discipline.

The full run_all sweep lives in the acceptance suite; here individual
checks are exercised at modest precision to keep the loop fast, with one
filtered run_all over the exact kind (those checks are precision-free).
"""

import collections
import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from mahlerlab import ffield, mahler, modular, precision, registry, special, wz
from mahlerlab.modular import QSeries
from mahlerlab.precision import NoConvergence
from mahlerlab.registry import (
    CheckResult,
    IdentityCheck,
    PlanResult,
    UnknownCheckError,
    check_ids,
    get_check,
    run_all,
    run_check,
    summarize,
)

# The complete catalogue, frozen: a check renamed, dropped, or re-kinded
# must show up here as a deliberate edit.
MANIFEST = {
    "wz-pair-1": "exact",
    "wz-pair-2": "exact",
    "wz-telescope": "exact",
    "wz-2.8-2.9": "exact",
    "ff-4.1": "exact",
    "ff-ahlgren-ono": "exact",
    "qexp-ramanujan": "exact",
    "qexp-f-coeffs": "exact",
    "thm-1.1": "high-precision",
    "eq-1.5": "high-precision",
    "eq-2.4": "high-precision",
    "eq-2.5": "high-precision",
    "e-wan": "high-precision",
    "eq-2.6": "high-precision",
    "eq-2.7": "high-precision",
    "eq-2.8-analytic": "high-precision",
    "eq-2.10": "high-precision",
    "eq-2.11": "high-precision",
    "wan-moments": "high-precision",
    "eq-3.2": "high-precision",
    "eq-3.5-vs-3.6": "high-precision",
    "eq-3.7": "high-precision",
    "fourier-3.8": "high-precision",
    "fourier-3.9": "high-precision",
    "fourier-3.10": "high-precision",
    "eq-4.3": "high-precision",
    "lambda-symmetry-f": "high-precision",
    "lambda-symmetry-h": "high-precision",
    "eq-1.1": "statistical",
    "eq-1.2": "statistical",
    "thm-1.1-torus": "statistical",
    "eq-4.4": "statistical",
    "m-r32": "statistical",
}


class TestCatalogue:
    def test_complete_against_manifest(self):
        assert dict(
            (cid, get_check(cid).kind) for cid in check_ids()
        ) == MANIFEST

    def test_kind_counts(self):
        kinds = [get_check(cid).kind for cid in check_ids()]
        assert kinds.count("exact") == 8
        assert kinds.count("high-precision") == 20
        assert kinds.count("statistical") == 5

    def test_descriptions_are_substantial(self):
        for cid in check_ids():
            assert len(get_check(cid).description) > 40, cid

    def test_exact_checks_have_zero_tolerance(self):
        for cid in check_ids():
            check = get_check(cid)
            if check.kind == "exact":
                assert check.tolerance == 0
                assert check.tolerance_at(128) == Fraction(0)

    def test_unknown_id_suggests_near_misses(self):
        with pytest.raises(UnknownCheckError) as info:
            get_check("thm-11")
        assert "thm-1.1" in info.value.suggestions
        with pytest.raises(UnknownCheckError) as info:
            run_check("eq-9.9")
        assert info.value.suggestions  # eq-something is close to many ids

    @given(st.text(min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_non_ids_raise(self, junk):
        if junk in MANIFEST:
            return
        with pytest.raises(UnknownCheckError):
            get_check(junk)


# The tolerance policy, frozen: per id the precision cap and
# mp.nstr(tolerance_at(P), 25) at P = 64, 96, 128 and 4096 bits.
_ZERO = ("0",) * 4
_HP = (
    "6.309573444801932484450655e-10",
    "1.584893192461113481447051e-19",
    "3.981071705534972495046447e-29",
    "1.00000000000000000002616e-38",
)
_FLOOR_8 = ("1.000000000000000020922561e-8",) * 4
_FLOOR_3 = ("0.001000000000000000020816682",) * 4
_FRICKE = (
    "5.684341886080801486968994e-14",
    "1.323488980084844279794254e-23",
    "3.081487911019577364889565e-33",
    "3.081487911019577364889565e-33",
)
_STAT = ("0.004999999999999999999898356",) * 4
TOLERANCE_POLICY = {
    "wz-pair-1": (128, _ZERO),
    "wz-pair-2": (128, _ZERO),
    "wz-telescope": (128, _ZERO),
    "wz-2.8-2.9": (128, _ZERO),
    "ff-4.1": (128, _ZERO),
    "ff-ahlgren-ono": (128, _ZERO),
    "qexp-ramanujan": (128, _ZERO),
    "qexp-f-coeffs": (128, _ZERO),
    "thm-1.1": (160, _HP),
    "eq-1.5": (160, _HP),
    "eq-2.4": (160, _HP),
    "eq-2.5": (160, _HP),
    "e-wan": (160, _HP),
    "eq-2.6": (160, _HP),
    "eq-2.7": (160, _HP),
    "eq-2.8-analytic": (160, _HP),
    "eq-2.10": (160, _HP),
    "eq-2.11": (160, _HP),
    "wan-moments": (96, _FLOOR_8),
    "eq-3.2": (160, _HP),
    "eq-3.5-vs-3.6": (80, _FLOOR_8),
    "eq-3.7": (96, _FLOOR_8),
    "fourier-3.8": (96, _FLOOR_3),
    "fourier-3.9": (96, _FLOOR_3),
    "fourier-3.10": (96, _FLOOR_3),
    "eq-4.3": (160, _HP),
    "lambda-symmetry-f": (128, _FRICKE),
    "lambda-symmetry-h": (128, _FRICKE),
    "eq-1.1": (128, _STAT),
    "eq-1.2": (128, _STAT),
    "thm-1.1-torus": (128, _STAT),
    "eq-4.4": (128, _STAT),
    "m-r32": (128, _STAT),
}


class TestToleranceRules:
    def test_policy_table(self):
        policy = {
            cid: (
                get_check(cid).precision_cap,
                tuple(
                    mp.nstr(get_check(cid).tolerance_at(p), 25)
                    for p in (64, 96, 128, 4096)
                ),
            )
            for cid in check_ids()
        }
        assert policy == TOLERANCE_POLICY

    def test_formula_at_96_bits(self):
        tol = get_check("eq-2.4").tolerance_at(96)
        with mp.workprec(64):
            assert abs(tol / mp.mpf(10) ** mp.mpf("-18.8") - 1) < 1e-6

    def test_caps_freeze_tolerance(self):
        check = get_check("thm-1.1")
        assert check.tolerance_at(check.precision_cap) == check.tolerance_at(4096)

    @pytest.mark.parametrize("cid, cap", [
        ("wan-moments", 96), ("eq-3.5-vs-3.6", 80), ("eq-3.7", 96),
        ("fourier-3.8", 96), ("fourier-3.9", 96), ("fourier-3.10", 96),
    ])
    def test_declared_cap_stops_the_work(self, cid, cap):
        # the plans read the effective precision as is, so a request past
        # the declared cap reports exactly what the cap itself reports,
        # down to the precision the deviation is scored at
        at_cap = run_check(cid, cap)
        past_cap = run_check(cid, 4096)
        assert dataclasses.replace(past_cap, wall_ms=0) == dataclasses.replace(at_cap, wall_ms=0)

    def test_floor_wins_for_truncated_expansions(self):
        assert get_check("fourier-3.9").tolerance_at(4096) == mp.mpf("1e-3")
        assert get_check("eq-3.5-vs-3.6").tolerance_at(4096) == mp.mpf("1e-8")

    def test_fricke_threshold_rule(self):
        tol = get_check("lambda-symmetry-f").tolerance_at(64)
        assert tol == mp.mpf(2) ** (20 - 64)

    def test_statistical_couples_to_error_estimate(self):
        check = get_check("eq-1.1")
        assert float(check.tolerance_at(128)) == 5e-3
        wide = check.tolerance_at(128, error_estimate=mp.mpf("1e-2"))
        assert float(wide) == pytest.approx(6e-2, rel=1e-15)

    @given(
        st.sampled_from(sorted(MANIFEST)),
        st.integers(min_value=32, max_value=2048),
        st.integers(min_value=0, max_value=2048),
    )
    @settings(max_examples=120, deadline=None)
    def test_tolerance_never_grows_with_precision(self, cid, p, extra):
        check = get_check(cid)
        assert check.tolerance_at(p + extra) <= check.tolerance_at(p)


class TestRunCheck:
    def test_exact_check_result_fields(self):
        result = run_check("ff-ahlgren-ono")
        assert result.passed
        assert result.kind == "exact"
        assert result.deviation == 0
        assert result.tolerance == 0
        assert result.lhs == result.rhs
        assert result.evaluations == 10
        assert result.note == ""

    def test_quadrature_check_passes_at_96(self):
        result = run_check("eq-2.4", precision=96)
        assert result.passed
        assert result.deviation <= result.tolerance
        assert result.evaluations > 100

    def test_series_check_margin_at_128(self):
        result = run_check("eq-4.3", precision=128)
        assert result.passed
        with mp.workprec(160):
            assert result.deviation < mp.mpf("1e-30")

    def test_fourier_truncation_sits_below_floor(self):
        result = run_check("fourier-3.10", precision=64)
        assert result.passed
        assert result.tolerance == mp.mpf("1e-3")
        with mp.workprec(96):
            assert 0 <= result.deviation < mp.mpf("1e-6")

    def test_statistical_fields(self):
        result = run_check("eq-1.1", samples=1 << 14, seed=7)
        assert result.kind == "statistical"
        assert result.seed_used == 7
        assert result.evaluations == (1 << 14) * registry.DEFAULT_SHIFTS
        assert float(result.tolerance) >= 5e-3
        assert result.passed

    def test_statistical_reference_keeps_its_precision(self):
        # 4 L'(h,0) to 40 digits (bench/reference.json, from mpmath); the
        # reference side is computed at effective + 16 bits, so at 128 bits
        # it must agree far past double precision
        result = run_check("eq-1.2", samples=1 << 10)
        with mp.workprec(160):
            m8 = mp.mpf("1.990191418271940771710519085433364992945")
            assert abs(result.rhs - m8) < mp.mpf(10) ** -36

    def test_statistical_seed_moves_qmc_side_only(self):
        a = run_check("eq-1.1", samples=1 << 12, seed=1)
        b = run_check("eq-1.1", samples=1 << 12, seed=2)
        assert repr(a.lhs) != repr(b.lhs)
        assert repr(a.rhs) == repr(b.rhs)

    def test_rerun_is_bit_identical(self):
        for cid in ("thm-1.1", "eq-1.1", "fourier-3.9", "qexp-f-coeffs"):
            a = run_check(cid, samples=1 << 12)
            b = run_check(cid, samples=1 << 12)
            assert (repr(a.lhs), repr(a.rhs), repr(a.deviation)) == (
                repr(b.lhs),
                repr(b.rhs),
                repr(b.deviation),
            ), cid
            assert a.passed == b.passed

    def test_raising_precision_keeps_passing(self):
        for cid in ("eq-2.4", "thm-1.1", "eq-1.5"):
            low = run_check(cid, precision=64)
            high = run_check(cid, precision=192)
            assert low.passed, cid
            assert high.passed, cid
            assert high.tolerance <= low.tolerance

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_check("eq-2.4", precision=16)
        with pytest.raises(ValueError):
            run_check("eq-2.4", precision=8192)
        with pytest.raises(ValueError):
            run_check("eq-1.1", samples=3000)

    def test_plan_failure_reports_instead_of_raising(self, monkeypatch):
        def exploding_plan(ctx):
            raise NoConvergence("synthetic stall for the failure path")

        broken = IdentityCheck(
            id="thm-1.1",
            kind="high-precision",
            description=get_check("thm-1.1").description,
            lhs_plan=exploding_plan,
            rhs_plan=get_check("thm-1.1").rhs_plan,
            tolerance=mp.mpf(0),
        )
        monkeypatch.setitem(registry._REGISTRY, "thm-1.1", broken)
        result = run_check("thm-1.1")
        assert not result.passed
        assert result.lhs is None and result.deviation is None
        assert "NoConvergence" in result.note
        assert "synthetic stall" in result.note

    def test_shape_mismatch_is_a_failed_result(self, monkeypatch):
        orig = get_check("eq-4.3")
        lopsided = IdentityCheck(
            id="eq-4.3",
            kind="high-precision",
            description=orig.description,
            lhs_plan=lambda ctx: PlanResult((mp.mpf(1), mp.mpf(2))),
            rhs_plan=lambda ctx: PlanResult((mp.mpf(1),)),
            tolerance=mp.mpf(0),
        )
        monkeypatch.setitem(registry._REGISTRY, "eq-4.3", lopsided)
        result = run_check("eq-4.3")
        assert not result.passed
        assert "mismatch" in result.note


# The extrapolator each series side is declared to take (None: neither),
# as the check descriptions name it: the 6F5 meets Levin in thm-1.1 and
# Richardson in eq-1.5, the 5F4 Levin in eq-4.3 and Richardson in eq-2.11,
# and eq-2.11's two sides never share one.
SERIES_ROUTES = {
    "thm-1.1": ("levin", None),
    "eq-1.5": ("richardson", None),
    "eq-2.10": (None, "levin"),
    "eq-2.11": ("richardson", "levin"),
    "eq-3.2": (None, "richardson"),
    "eq-4.3": (None, "levin"),
}


class TestSeriesPlans:
    @pytest.mark.parametrize("check_id", sorted(SERIES_ROUTES))
    def test_each_side_reaches_its_declared_extrapolator(self, monkeypatch, check_id):
        calls = []

        def counted(name, kernel):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(precision, "accelerate", counted("levin", precision.accelerate))
        monkeypatch.setattr(precision, "richardson", counted("richardson", precision.richardson))
        check = get_check(check_id)
        ctx = registry.RunContext(check_id, 64, registry.DEFAULT_SEED, registry.DEFAULT_SAMPLES)
        for plan, declared in zip((check.lhs_plan, check.rhs_plan), SERIES_ROUTES[check_id]):
            calls.clear()
            plan(ctx)
            assert set(calls) == ({declared} if declared else set()), (check_id, declared)

    @pytest.mark.parametrize("precision", [64, 96, 128, 160])
    def test_margin_below_the_cap(self, precision):
        # the registry docstring's claim: below the cap every series check
        # stays a factor 10^4 inside its tolerance.  Measured worst: eq-1.5,
        # 1.5e-18 of the tolerance at 160 bits
        for check_id in SERIES_ROUTES:
            result = run_check(check_id, precision)
            assert result.passed, (check_id, result.note)
            with mp.workprec(64):
                assert result.deviation <= result.tolerance / 10 ** 4, check_id

    def test_levin_low_confidence_fails_the_check(self, monkeypatch):
        exact = precision.accelerate

        def doubtful(sums, precision=None):
            return dataclasses.replace(exact(sums, precision), low_confidence=True)

        monkeypatch.setattr(precision, "accelerate", doubtful)
        for check_id in ("thm-1.1", "eq-2.10", "eq-4.3"):
            result = run_check(check_id, 64)
            assert not result.passed and result.deviation is None
            assert result.note.startswith("NoConvergence: series acceleration lost confidence")


@pytest.fixture
def small_wz_range(monkeypatch):
    """The WZ checks on n <= 40, with wz's row-sum sweep cache emptied
    before and after, so perturbed rows cannot outlive the test."""
    monkeypatch.setattr(registry, "_WZ_RANGE", 40)
    wz._reduced_row_sums.cache_clear()
    yield
    wz._reduced_row_sums.cache_clear()


def _pair_scaled_at(fn, cell):
    """A reduced form, which returns (num, den), with its numerator doubled
    at cell."""

    def scaled(n, k):
        num, den = fn(n, k)
        return (2 * num if (n, k) == cell else num), den

    return scaled


def _substitute(monkeypatch, name, pair, bad):
    """wz.<name> run on bad wherever the registry passes it pair."""
    exact = getattr(wz, name)
    monkeypatch.setattr(wz, name, lambda p, n_max: exact(bad if p is pair else p, n_max))


class TestWZNegativeControls:
    """One perturbed input must flip each WZ check to FAIL with a deviation
    beyond its tolerance; the unperturbed check passes on the same range."""

    def _assert_flips(self, check_id, perturb):
        clean = run_check(check_id, 64)
        assert clean.passed and clean.deviation <= clean.tolerance
        perturb()
        wz._reduced_row_sums.cache_clear()
        self._assert_failed(run_check(check_id, 64))

    @staticmethod
    def _assert_failed(result):
        assert not result.passed
        assert result.deviation > result.tolerance
        assert result.note == ""

    @pytest.mark.parametrize("check_id, pair", [
        ("wz-pair-1", wz.PAIR_ONE),
        ("wz-pair-2", wz.PAIR_TWO),
    ])
    def test_certificate_scaled_at_one_cell(self, small_wz_range, monkeypatch, check_id, pair):
        cell = (17, 6)
        bad = dataclasses.replace(pair, reduced_f=_pair_scaled_at(pair.reduced_f, cell))
        self._assert_flips(
            check_id, lambda: _substitute(monkeypatch, "wz_pair_verify", pair, bad)
        )

    @pytest.mark.parametrize("check_id", ["wz-telescope", "wz-2.8-2.9"])
    def test_central_square_off_by_one(self, small_wz_range, monkeypatch, check_id):
        # one C(2k,k)^2 of the row-sum kernel (the telescope's certificates
        # take theirs from binom and so expose it)
        exact_squares = wz._central_squares

        def off_by_one(n):
            squares = exact_squares(n)
            squares[5] += 1
            return squares

        self._assert_flips(
            check_id, lambda: monkeypatch.setattr(wz, "_central_squares", off_by_one)
        )

    def test_telescope_certificate_scaled_at_one_cell(self, small_wz_range, monkeypatch):
        bad = dataclasses.replace(
            wz.PAIR_TWO, reduced_g=_pair_scaled_at(wz.PAIR_TWO.reduced_g, (11, 12))
        )
        self._assert_flips(
            "wz-telescope",
            lambda: _substitute(monkeypatch, "telescope_reconstruct", wz.PAIR_TWO, bad),
        )

    def test_row_sum_scaled_flips_both_sweep_readers(self, small_wz_range, monkeypatch):
        # both checks run clean first, so both pairs' sweeps are cached; after
        # wz's one cache is cleared, a kernel scaled at one row must reach
        # both checks: no other cache holds the clean rows
        checks = ("wz-telescope", "wz-2.8-2.9")
        for check_id in checks:
            assert run_check(check_id, 64).passed
        exact = wz._row_sum

        def scaled(csq, n, weights):
            total, den = exact(csq, n, weights)
            return (3 * total if n == 7 else total), den

        monkeypatch.setattr(wz, "_row_sum", scaled)
        wz._reduced_row_sums.cache_clear()
        for check_id in checks:
            self._assert_failed(run_check(check_id, 64))

    def test_identity_evals_count_the_rows_returned(self, small_wz_range, monkeypatch):
        # a sweep one row short: each plan must report the 2 * 40 values it
        # compared, not 2 * 41 by formula
        assert run_check("wz-2.8-2.9", 64).evaluations == 2 * 2 * 41
        exact = wz.identity_rows
        monkeypatch.setattr(wz, "identity_rows", lambda n_max: exact(n_max)[:-1])
        result = run_check("wz-2.8-2.9", 64)
        assert result.passed
        assert result.evaluations == 2 * 2 * 40

    def test_row_sum_work_gate(self, monkeypatch):
        # the four WZ checks at the full range run the row-sum kernel once
        # per row of each pair's sweep: 2 (_WZ_RANGE + 1) calls, where
        # separate sweeps for the telescope and the identities took twice that
        calls = collections.Counter()
        exact = wz._row_sum

        def counted(csq, n, weights):
            calls["_row_sum"] += 1
            return exact(csq, n, weights)

        monkeypatch.setattr(wz, "_row_sum", counted)
        wz._reduced_row_sums.cache_clear()
        for check_id in ("wz-pair-1", "wz-pair-2", "wz-telescope", "wz-2.8-2.9"):
            assert run_check(check_id, 64).passed, check_id
        assert calls["_row_sum"] == 2 * (registry._WZ_RANGE + 1)

    def test_plans_call_wz_through_the_module(self, small_wz_range, monkeypatch):
        # a plan holding the functions it bound when the registry was built
        # would bypass these wrappers, and the benchmark tracer's wz spans
        calls = collections.Counter()

        def counting(name):
            exact = getattr(wz, name)

            def counted(pair, n_max):
                calls[name] += 1
                return exact(pair, n_max)

            monkeypatch.setattr(wz, name, counted)

        counting("wz_pair_verify")
        counting("telescope_reconstruct")
        for check_id, expected in [
            ("wz-pair-1", {"wz_pair_verify": 1}),
            ("wz-pair-2", {"wz_pair_verify": 1}),
            ("wz-telescope", {"telescope_reconstruct": 2}),
        ]:
            calls.clear()
            assert run_check(check_id, 64).passed
            assert calls == expected, check_id


class TestPlanNegativeControls:
    """One perturbed input must flip each check whose plans come from a
    shared builder (per-prime, Fricke, the series plans) to FAIL; the
    unperturbed check passes at the same precision."""

    def _assert_flips(self, check_id, perturb, precision=64):
        clean = run_check(check_id, precision)
        assert clean.passed, clean.note
        perturb()
        result = run_check(check_id, precision)
        assert not result.passed
        return result

    def test_qexp_ramanujan_sigma_off_by_one(self, monkeypatch):
        # sigma(15) raised by 1 in the divisor-sum side; the q-series side,
        # theta_psi's powers, is left alone
        exact = modular._sigma_sieve

        def off_by_one(n):
            sig = exact(n)
            sig[15] += 1
            return sig

        result = self._assert_flips(
            "qexp-ramanujan", lambda: monkeypatch.setattr(modular, "_sigma_sieve", off_by_one)
        )
        assert result.deviation == 1
        assert result.note == ""

    def test_qexp_f_coeffs_a9_off_by_one(self, monkeypatch):
        # f's recipe with a_9 raised by 1 and the coefficient cache emptied,
        # so the check reads the bad expansion; monkeypatch restores both
        f = modular.NEWFORM_F
        exact = f.recipe

        def off_by_one(order):
            series = exact(order)
            coeffs = list(series.coeffs)
            coeffs[9] += 1
            return QSeries(tuple(coeffs), series.order)

        def perturb():
            monkeypatch.setattr(f, "recipe", off_by_one)
            monkeypatch.setattr(f, "_coeffs", [])

        result = self._assert_flips("qexp-f-coeffs", perturb)
        # a_153 against a_9 a_17 is off by a_17 = 50, the largest violation
        assert result.deviation == 50
        assert result.note == ""
        monkeypatch.undo()
        assert f.recipe is modular._recipe_f
        assert run_check("qexp-f-coeffs", 64).passed

    def test_ahlgren_ono_a7_off_by_one(self, monkeypatch):
        exact = modular.newform_coefficient

        def off_by_one(spec, n):
            return exact(spec, n) + (n == 7)

        result = self._assert_flips(
            "ff-ahlgren-ono",
            lambda: monkeypatch.setattr(modular, "newform_coefficient", off_by_one),
        )
        assert result.deviation == 1
        assert result.note == ""

    @pytest.mark.parametrize("check_id, deviation", [
        ("ff-4.1", 102),
        ("ff-ahlgren-ono", 46),
    ])
    def test_greene_legendre_value_perturbed(self, monkeypatch, check_id, deviation):
        # phi(3) mod 7 flipped in the Legendre table that greene's table
        # reads; phi(-1), which verify_4_1 also reads, and count_points'
        # histogram at p = 7, built before the flip, are left alone, so only
        # the hypergeometric side moves
        exact = ffield._legendre_table

        def flipped(p):
            leg = exact(p)
            if p == 7:
                leg[3] = -leg[3]
            return leg

        def perturb():
            clean_counts = functools.lru_cache(maxsize=None)(ffield._count_histogram.__wrapped__)
            clean_counts(7)
            monkeypatch.setattr(ffield, "_count_histogram", clean_counts)
            monkeypatch.setattr(ffield, "_legendre_table", flipped)
            ffield._greene_table.cache_clear()

        ffield._greene_table.cache_clear()
        try:
            result = self._assert_flips(check_id, perturb)
        finally:
            monkeypatch.undo()
            ffield._greene_table.cache_clear()
        assert result.deviation == deviation
        assert result.note == ""

    # module names the route that reads the perturbed series: the
    # registry's Levin plans or pfq's Richardson route in special
    @pytest.mark.parametrize("check_id, module", [
        ("thm-1.1", "registry"),
        ("eq-2.10", "registry"),
        ("eq-2.11", "registry"),
        ("eq-2.11", "special"),
        ("eq-3.2", "special"),
        ("eq-4.3", "registry"),
    ])
    def test_term_ratio_off_at_one_index(self, monkeypatch, check_id, module):
        # one series' term ratio t_6 / t_5 scaled by 1 + 2^-10 through
        # special._ratio_ints, which both routes read.  The perturbation is
        # keyed on the side's spec, so eq-2.11's 5F4 (Richardson) and its
        # swap sum over the Ramanujan series (Levin) each keep a control of
        # their own.  Every later term moves with it: measured deviations
        # 5.5e-7 (thm-1.1) to 3.5e-5 (the swap sum), against a tolerance of
        # 6.3e-10 at 64 bits
        target = {
            ("thm-1.1", "registry"): registry._SIX_F_FIVE,
            ("eq-2.10", "registry"): registry._RAMANUJAN,
            ("eq-2.11", "registry"): registry._RAMANUJAN,
            ("eq-2.11", "special"): registry._FIVE_F_FOUR,
            ("eq-3.2", "special"): registry._EIGHT_F_SEVEN,
            ("eq-4.3", "registry"): registry._FIVE_F_FOUR,
        }[check_id, module]
        exact = special._ratio_ints

        def off_at_five(spec):
            ratio = exact(spec)
            if spec != target:
                return ratio

            def perturbed(n):
                pn, qn = ratio(n)
                return (1025 * pn, 1024 * qn) if n == 5 else (pn, qn)

            return perturbed

        result = self._assert_flips(
            check_id, lambda: monkeypatch.setattr(special, "_ratio_ints", off_at_five)
        )
        assert result.deviation > result.tolerance
        assert result.note == ""

    def test_eq_1_5_6f5_without_its_first_term(self, monkeypatch):
        # the 6F5 summed without t_0 = 1 on the Richardson path: the 6F5
        # lies in [1, 2), so each partial sum's top bit is t_0's 2^w; the
        # series side, the 6F5 itself, moves by 1
        exact = precision.richardson

        def without_first(sums, n):
            first = 1 << (sums[0].bit_length() - 1)
            return exact([s - first for s in sums], n)

        def perturb():
            monkeypatch.setattr(precision, "richardson", without_first)

        result = self._assert_flips("eq-1.5", perturb)
        assert abs(result.deviation - 1) < mp.mpf("1e-9")
        assert result.note == ""

    @pytest.mark.parametrize("check_id, name, index", [
        ("lambda-symmetry-f", "NEWFORM_F", 3),
        ("lambda-symmetry-h", "NEWFORM_H", 5),
    ])
    def test_lambda_coefficient_perturbed(self, monkeypatch, check_id, name, index):
        # index lies on the form's support (odd n for f, n = 1 mod 4 for h),
        # so the q-series stride is unchanged and only the value is wrong
        spec = getattr(registry, name)

        def recipe(order):
            series = spec.recipe(order)
            coeffs = list(series.coeffs)
            coeffs[index] += 1
            return QSeries(tuple(coeffs), series.order)

        bad = dataclasses.replace(spec, recipe=recipe, _coeffs=[])
        result = self._assert_flips(
            check_id, lambda: monkeypatch.setattr(registry, name, bad)
        )
        assert result.deviation is None
        assert result.note.startswith("FunctionalEquationViolation: ")


def scale_kernel(monkeypatch, module, name, power):
    """Replace module.name, the kernel's one binding in the module that
    defines it, by the kernel times 1 + 2^-power."""
    exact = getattr(module, name)

    def scaled(*args, **kwargs):
        return exact(*args, **kwargs) * (1 + mp.mpf(2) ** -power)

    monkeypatch.setattr(module, name, scaled)


class TestRAlphaNegativeControls:
    """eq-3.5-vs-3.6 at 96 bits flips to FAIL under either side scaled by
    1 + 2^-power.  m_alpha is scaled on both inner routes at once, so the
    k-integral's integrand keeps no jump at the 0.98 seam and its outer
    tanh-sinh stops at the clean run's level (a jump there drives it
    through all 12 levels before NoConvergence)."""

    # R(1) = 0.426 is the largest of the three values, so the deviation is
    # 0.426 2^-power against the 1e-8 tolerance: 2^-25 is the smallest
    # flipping power of two on either side (1.3e-8), and 2^-26 passes
    @pytest.mark.parametrize("name, power, passes", [
        ("m_alpha", 16, False),
        ("m_alpha", 25, False),
        ("m_alpha", 26, True),
        ("legendre_chi3", 20, False),
        ("legendre_chi3", 25, False),
        ("legendre_chi3", 26, True),
    ])
    def test_scaled_side(self, monkeypatch, name, power, passes):
        scale_kernel(monkeypatch, mahler if name == "m_alpha" else special, name, power)
        result = run_check("eq-3.5-vs-3.6", 96)
        assert result.passed is passes
        assert (result.deviation > result.tolerance) is not passes
        assert result.note == ""


class TestFourierNegativeControls:
    """Each Fourier check at 96 bits flips to FAIL once its closed-form side
    is scaled by 1 + 2^-power, at the smallest such power of two; one power
    more passes.  fourier-3.10 is the only caller of m_alpha's integral
    route, so its control guards that route.  Its flip at 2^-11 comes from
    `fourier_check`'s tail bound (a deviation of 4.6e-4, under the 1e-3
    floor), so the plan raises and no deviation is reported; fourier-3.8
    and fourier-3.9 flip on the floor (1.4e-3 and 1.3e-3)."""

    @pytest.mark.parametrize("check_id, name, power, passes", [
        ("fourier-3.10", "m_alpha", 11, False),
        ("fourier-3.10", "m_alpha", 12, True),
        ("fourier-3.8", "ell_kprime", 10, False),
        ("fourier-3.8", "ell_kprime", 11, True),
        ("fourier-3.9", "ell_kprime", 11, False),
        ("fourier-3.9", "ell_kprime", 12, True),
    ])
    def test_smallest_flipping_power(self, monkeypatch, check_id, name, power, passes):
        scale_kernel(monkeypatch, mahler if name == "m_alpha" else special, name, power)
        result = run_check(check_id, 96)
        assert result.passed is passes
        if check_id == "fourier-3.10" and not passes:
            assert result.deviation is None
            assert result.note.startswith("ArithmeticError: expansion 3.10 deviates by")
        else:
            assert result.note == ""
            assert (result.deviation > result.tolerance) is not passes


class TestMomentNegativeControls:
    """The six K K' moment checks at 64 bits flip to FAIL once
    special.ell_k is scaled by 1 + 2^-power, at each check's smallest such
    power of two; one power more passes.  2^-32 flips all six and 2^-40
    passes all six, against the unchanged 6.3e-10 tolerance."""

    @pytest.mark.parametrize("check_id, power", [
        ("eq-2.4", 36),
        ("eq-2.5", 35),
        ("e-wan", 32),
        ("eq-2.6", 32),
        ("eq-2.7", 32),
        ("eq-2.8-analytic", 33),
    ])
    @pytest.mark.parametrize("shift, passes", [(0, False), (1, True)])
    def test_smallest_flipping_power(self, monkeypatch, check_id, power, shift, passes):
        scale_kernel(monkeypatch, special, "ell_k", power + shift)
        result = run_check(check_id, 64)
        assert result.passed is passes
        assert (result.deviation > result.tolerance) is not passes
        assert result.note == ""


class TestStatisticalNegativeControls:
    """A perturbed lattice-QMC side must flip each statistical check to FAIL
    at 2^12 samples, with the seed, shifts and 5e-3 floor unchanged; the
    reference side is never touched."""

    samples = 1 << 12

    @pytest.mark.parametrize("check_id, name", [
        ("eq-1.1", "p4"),
        ("eq-1.2", "q8"),
        ("thm-1.1-torus", "r16"),
        ("eq-4.4", "s0"),
        ("m-r32", "r:32"),
    ])
    def test_catalogue_k_moved_by_one(self, monkeypatch, check_id, name):
        # the lattice side integrates log|P - (k + 1)| instead of
        # log|P - k|; the cosine form still applies, since the descriptor
        # and its classification read the same catalogue entry.  Deviations
        # measured: 0.342, 0.145, 0.0667, 0.0667 and 0.0313
        exact = mahler._catalogue_entry

        def moved(entry):
            key, kind, nvars, k = exact(entry)
            return key, kind, nvars, k + (key == name)

        clean = run_check(check_id, samples=self.samples)
        assert clean.passed
        monkeypatch.setattr(mahler, "_catalogue_entry", moved)
        result = run_check(check_id, samples=self.samples)
        assert not result.passed
        assert result.note == ""
        assert repr(result.rhs) == repr(clean.rhs)

    @pytest.mark.parametrize("check_id", ["eq-1.1", "eq-1.2", "thm-1.1-torus", "eq-4.4", "m-r32"])
    def test_smallest_relative_shift_that_flips(self, monkeypatch, check_id):
        # the QMC value scaled by 1 + eps (its error estimate, hence the
        # tolerance, left alone) flips the check once eps passes
        # (tolerance - |lhs - rhs|) / |lhs| in the direction of lhs - rhs.
        # Measured at 2^12 samples and the default seed: eq-1.1 4.2e-3,
        # eq-1.2 2.3e-3 (downward), thm-1.1-torus 1.8e-3, eq-4.4 1.6e-2, m-r32 1.4e-3
        clean = run_check(check_id, samples=self.samples)
        assert clean.passed
        with mp.workprec(64):
            gap = clean.lhs - clean.rhs
            edge = (clean.tolerance - abs(gap)) / abs(clean.lhs) * mp.sign(gap)
        exact = mahler.mahler_numeric

        def scaled_by(factor):
            def numeric(*args, **kwargs):
                result = exact(*args, **kwargs)
                return dataclasses.replace(result, value=result.value * factor)

            return numeric

        for fraction, passes in (("0.99", True), ("1.01", False)):
            with mp.workprec(64):
                factor = 1 + edge * mp.mpf(fraction)
            monkeypatch.setattr(mahler, "mahler_numeric", scaled_by(factor))
            result = run_check(check_id, samples=self.samples)
            assert result.passed is passes, (fraction, mp.nstr(edge, 3))
            assert result.tolerance == clean.tolerance


class TestRunAll:
    def test_exact_sweep_all_zero_residual(self):
        results = run_all(("exact",))
        assert len(results) == 8
        assert all(r.kind == "exact" for r in results)
        assert all(r.passed for r in results)
        assert all(r.deviation == 0 for r in results)
        counts = summarize(results)
        assert counts == {
            "total": 8,
            "passed": 8,
            "failed": 0,
            "exact": 8,
            "high-precision": 0,
            "statistical": 0,
        }

    def test_single_tag_as_string(self):
        results = run_all("statistical", samples=1 << 12)
        assert [r.id for r in results] == [
            "eq-1.1",
            "eq-1.2",
            "thm-1.1-torus",
            "eq-4.4",
            "m-r32",
        ]

    def test_unknown_tag_rejected_before_running(self):
        with pytest.raises(ValueError, match="unknown filter"):
            run_all(("exact", "spectral"))

    def test_order_matches_catalogue(self):
        results = run_all("statistical", samples=1 << 12)
        wanted = [cid for cid in check_ids() if get_check(cid).kind == "statistical"]
        assert [r.id for r in results] == wanted
