"""Tests for the Mahler-measure engine.

Oracle scheme: the hypergeometric closed form, the series forms, the
integral forms, and the torus QMC are mutually independent routes to the
same measures; each test names which route plays the oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from mahlerlab import mahler
from mahlerlab.mahler import (
    LaurentDescriptor,
    builtin_descriptor,
    builtin_names,
    density_integral_check,
    fourier_check,
    m_alpha,
    m_rk_hypergeometric,
    mahler_numeric,
    parse_descriptor,
    r_alpha,
    torus_integrand,
    wan_moment_check,
)
from mahlerlab.modular import NEWFORM_F, l_value
from mahlerlab.precision import accelerate
from mahlerlab.quadrature import tanh_sinh_interval
from mahlerlab.special import catalan, ell_kprime, zeta_int


def central_binomial(n: int) -> int:
    return math.comb(2 * n, n)


def scalar_log_abs(desc, thetas) -> float:
    """log|P| at one torus point, summing the terms one complex phase at a
    time (oracle for the vectorised integrands)."""
    total = 0j
    for vec, coeff in desc.terms.items():
        phase = sum(e * t for e, t in zip(vec, thetas))
        total += coeff * complex(math.cos(2 * math.pi * phase), math.sin(2 * math.pi * phase))
    return math.log(abs(total)) if total != 0 else float("-inf")


def r16_log_series(precision: int):
    """4 log 2 - sum_{n>=1} (1/2n) C(2n,n)^4 / 2^(8n) by Levin extrapolation.

    Independent of the 6F5 evaluation: the series is a different rearrangement
    with its own coefficients, summed by a different code path.
    """
    partials = []
    s = Fraction(0)
    t = Fraction(16, 512)
    for n in range(1, 221):
        s += t
        partials.append(s)
        t = t * Fraction((2 * n + 1) ** 4 * n, (2 * n + 2) ** 4 * (n + 1))
    with mp.workprec(precision + 16):
        acc = accelerate(
            [mp.mpf(p.numerator) / p.denominator for p in partials], precision=precision
        )
        assert not acc.low_confidence
        return 4 * mp.log(2) - acc.value


class TestDescriptor:
    def test_terms_cleaned_and_frozen(self):
        d = LaurentDescriptor(name="t", dimension=2, terms={(1, 0): 2, (0, 1): 0, (-1, 0): 3})
        assert dict(d.terms) == {(-1, 0): 3, (1, 0): 2}
        with pytest.raises(TypeError):
            d.terms[(1, 1)] = 5

    def test_rejects_empty_and_all_zero(self):
        with pytest.raises(ValueError):
            LaurentDescriptor(name="t", dimension=1, terms={})
        with pytest.raises(ValueError):
            LaurentDescriptor(name="t", dimension=1, terms={(1,): 0})

    def test_rejects_bad_dimension_and_exponents(self):
        with pytest.raises(ValueError):
            LaurentDescriptor(name="t", dimension=5, terms={(1, 0, 0, 0, 0): 1})
        with pytest.raises(ValueError):
            LaurentDescriptor(name="t", dimension=1, terms={(9,): 1})
        with pytest.raises(ValueError):
            LaurentDescriptor(name="t", dimension=2, terms={(1,): 1})

    def test_parse_round_trip(self):
        text = """
        # x + 1/x + y + 1/y - 4
        1  1  0
        1 -1  0
        1  0  1
        1  0 -1
        -4 0  0
        """
        d = parse_descriptor(text, name="p4")
        assert d == builtin_descriptor("p4")

    def test_parse_accumulates_duplicates(self):
        d = parse_descriptor("2 1\n3 1\n-5 0", name="t")
        assert dict(d.terms) == {(1,): 5, (0,): -5}

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_descriptor("1 x")
        with pytest.raises(ValueError):
            parse_descriptor("1 0\n1 0 0")
        with pytest.raises(ValueError):
            parse_descriptor("# only a comment\n\n")
        with pytest.raises(ValueError):
            parse_descriptor("7")


class TestCatalogue:
    def test_named_instances_match_families(self):
        assert dict(builtin_descriptor("p4").terms) == dict(builtin_descriptor("p:4").terms)
        assert dict(builtin_descriptor("r16").terms) == dict(builtin_descriptor("r:16").terms)
        assert dict(builtin_descriptor("s0").terms) == dict(builtin_descriptor("s:0").terms)

    def test_q8_is_the_three_variable_product(self):
        d = builtin_descriptor("q8")
        assert d.dimension == 3
        unit = [vec for vec, c in d.terms.items() if c == 1]
        assert len(unit) == 8 and all(set(v) <= {1, -1} for v in unit)
        assert d.terms[(0, 0, 0)] == -8
        # the sum-form family member q:8 is a different polynomial
        assert dict(builtin_descriptor("q:8").terms) != dict(d.terms)

    def test_ralpha_terms(self):
        d = builtin_descriptor("ralpha")
        assert d.dimension == 4
        assert d.terms[(1, -1, 0, 0)] == 1
        assert d.terms[(0, 0, -1, 1)] == 1
        assert len(d.terms) == 8

    def test_unknown_names_rejected(self):
        for bad in ("nope", "r:", "r:x", "pq:4"):
            with pytest.raises(ValueError):
                builtin_descriptor(bad)

    def test_builtin_names_all_resolve(self):
        for name in builtin_names():
            resolved = name.replace(":k", ":7")
            assert builtin_descriptor(resolved).name == resolved

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["p4", "q8", "r16", "s0", "ralpha", "q:5", "r:-16", "p:0"]))
    def test_cosine_reduction_matches_generic(self, seed, name):
        desc = builtin_descriptor(name)
        fast = torus_integrand(desc)
        slow = torus_integrand(
            LaurentDescriptor(name="generic", dimension=desc.dimension, terms=dict(desc.terms))
        )
        pts = np.random.default_rng(seed).random((16, desc.dimension))
        x = np.exp(2j * np.pi * pts.T)
        # compare |P|, not log|P|: near the zero set log|P| magnifies the
        # few-ulp rounding of either route without bound
        np.testing.assert_allclose(
            np.exp(fast.block(x)), np.exp(slow.block(x)), rtol=0, atol=1e-12
        )

    def test_block_matches_scalar_evaluate(self):
        # the built-ins' cosine blocks, and the generic block's monomials at
        # exponents up to +-8
        wide = parse_descriptor("1 8 -7 0\n-3 -1 2 5\n2 0 0 -8\n5 3 0 1", name="wide")
        for desc in [builtin_descriptor(n) for n in ("p4", "q8", "r16", "ralpha")] + [wide]:
            integrand = torus_integrand(desc)
            pts = np.random.default_rng(3).random((8, integrand.dimension))
            blocked = integrand.block(np.exp(2j * np.pi * pts.T))
            scalar = [scalar_log_abs(desc, row) for row in pts]
            np.testing.assert_allclose(blocked, scalar, rtol=0, atol=1e-12)

    def test_renamed_builtin_falls_back_to_generic(self):
        # a descriptor named r16 whose terms differ must not get r16's shortcut
        d = LaurentDescriptor(name="r16", dimension=1, terms={(1,): 1, (0,): -2})
        res = mahler_numeric(d, samples=1 << 12, shifts=8)
        assert abs(res.value - mp.log(2)) < 1e-6


class TestMahlerNumeric:
    def test_jensen_one_variable(self):
        d = parse_descriptor("1 1\n-2 0", name="x-minus-2")
        res = mahler_numeric(d, samples=1 << 12, shifts=8)
        assert abs(res.value - mp.log(2)) < 1e-3

    def test_p4_catalan(self):
        res = mahler_numeric(builtin_descriptor("p4"), samples=1 << 16, shifts=8)
        target = 4 * catalan(64) / mp.pi
        assert abs(res.value - target) < max(mp.mpf("5e-3"), 6 * res.error_estimate)

    def test_deterministic_given_seed(self):
        d = builtin_descriptor("q8")
        a = mahler_numeric(d, samples=1 << 12, shifts=8, seed=123)
        b = mahler_numeric(d, samples=1 << 12, shifts=8, seed=123)
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_sign_flip_invariance(self):
        a = mahler_numeric(builtin_descriptor("r:16"), samples=1 << 15, shifts=8)
        b = mahler_numeric(builtin_descriptor("r:-16"), samples=1 << 15, shifts=8)
        tol = max(mp.mpf("1e-3"), 6 * (a.error_estimate + b.error_estimate))
        assert abs(a.value - b.value) < tol


class TestHypergeometricRk:
    def test_domain(self):
        for bad in (0, 15, -15, 15.999, Fraction(255, 16)):
            with pytest.raises(ValueError):
                m_rk_hypergeometric(bad)
        with pytest.raises(ValueError):
            m_rk_hypergeometric(16, target_abs_error=0)

    def test_k16_against_log_series(self):
        # oracle: 4 log 2 minus a Levin-extrapolated central-binomial series
        with mp.workprec(176):
            lhs = r16_log_series(precision=160)
            rhs = m_rk_hypergeometric(16, mp.mpf("1e-30"), precision=160)
            assert abs(lhs - rhs) < mp.mpf("1e-25")

    def test_k32_against_torus(self):
        # oracle: 4-D QMC of the r:32 descriptor
        qmc = mahler_numeric(builtin_descriptor("r:32"), samples=1 << 16, shifts=8)
        closed = m_rk_hypergeometric(32)
        assert abs(qmc.value - closed) < 5e-3

    def test_negative_k_equals_positive(self):
        assert m_rk_hypergeometric(-16) == m_rk_hypergeometric(16)
        assert m_rk_hypergeometric(-40) == m_rk_hypergeometric(40)

    def test_large_k_approaches_log(self):
        k = 10**6
        assert abs(m_rk_hypergeometric(k) - mp.log(k)) < mp.mpf("1e-11")

    def test_monotone_on_grid(self):
        ks = [16 + 6 * j for j in range(9)]
        vals = [m_rk_hypergeometric(k) for k in ks]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_log_gap_positive_and_shrinking(self):
        gaps = [mp.log(k) - m_rk_hypergeometric(k) for k in (16, 24, 40, 64, 128, 1024)]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_accepts_fraction_and_float(self):
        a = m_rk_hypergeometric(Fraction(33, 2))
        b = m_rk_hypergeometric(16.5)
        assert abs(a - b) < mp.mpf("1e-12")

    def test_mpf_k_is_taken_exactly(self):
        # an mpf is a dyadic rational: 17 + 2^-60 must not collapse to 17, as
        # its float did, and 16 + 2^-80 must not be summed at argument 1
        target = mp.mpf(2) ** -150
        with mp.workprec(200):
            at_17 = m_rk_hypergeometric(17, target, precision=200)
            assert m_rk_hypergeometric(mp.mpf(17), target, precision=200) == at_17
            gap = m_rk_hypergeometric(mp.mpf(17) + mp.mpf(2) ** -60, target, precision=200) - at_17
            slope = (m_rk_hypergeometric(17 + Fraction(1, 2 ** 20), target, precision=200) - at_17) * 2 ** 20
            assert abs(gap - slope * mp.mpf(2) ** -60) < abs(gap) * mp.mpf("1e-4")
            with pytest.raises(ValueError, match="^pFq argument too close to 1 for direct summation$"):
                m_rk_hypergeometric(mp.mpf(16) + mp.mpf(2) ** -80, target, precision=200)
        for bad in (mp.inf, -mp.inf, mp.nan):
            with pytest.raises(ValueError, match="^k must be finite"):
                m_rk_hypergeometric(bad)

    def test_headline_at_300_digits(self):
        # the paper's theorem at the working precision of
        # `compute mRk 16 --digits 300`, in one process: the series route
        # against (192/pi^4) L(f,4) + 7 zeta(3)/pi^2 (the frozen 300-digit
        # strings of tests/data/headline_300.json differ by 5.4e-302)
        p = 1047
        with mp.workprec(p):
            series = m_rk_hypergeometric(16, mp.mpf(10) ** -304, precision=p)
            l_route = 192 / mp.pi ** 4 * l_value(NEWFORM_F, 4, p) + 7 * zeta_int(3, p) / mp.pi ** 2
            assert abs(series - l_route) < mp.mpf("1e-295")


class TestMAlpha:
    def test_route_names_and_domain(self):
        with pytest.raises(ValueError):
            m_alpha(0.5, route="torus")
        for bad in (-0.1, 1.001):
            with pytest.raises(ValueError):
                m_alpha(bad)

    def test_zero(self):
        for route in ("series", "integral", "complement"):
            assert m_alpha(0, route) == 0

    def test_route_agreement_at_half(self):
        s = m_alpha(mp.mpf(1) / 2, "series", precision=96)
        i = m_alpha(mp.mpf(1) / 2, "integral", precision=96)
        assert abs(s - i) < mp.mpf("1e-12")

    def test_alpha_one_is_catalan(self):
        for base in (64, 96, 128):
            with mp.workprec(base + 32):
                target = 4 * catalan(base + 16) / mp.pi
                for route in ("series", "integral"):
                    value = m_alpha(1, route, precision=base)
                    assert abs(value - target) <= mp.mpf(2) ** -(base + 2), (base, route)

    def test_fraction_converts_at_the_working_precision(self):
        # alpha is converted inside m_alpha's own working precision, so the
        # caller's mp.prec does not reach it: 1/3 rounded at mpmath's default
        # 53 bits would move the value by 1.9e-17
        with mp.workprec(53):
            low = m_alpha(Fraction(1, 3), "series", precision=200)
        with mp.workprec(240):
            high = m_alpha(Fraction(1, 3), "series", precision=200)
        assert low._mpf_ == high._mpf_

    def test_small_alpha_linear(self):
        # leading term of the series is alpha itself
        a = mp.mpf("1e-6")
        assert abs(m_alpha(a, "series") - a) < a**3

    @settings(max_examples=10, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
    def test_routes_agree_property(self, alpha):
        s = m_alpha(Fraction(alpha), "series", precision=64)
        i = m_alpha(Fraction(alpha), "integral", precision=64)
        assert abs(s - i) < mp.mpf("1e-10")


def m_alpha_cos_form(alpha, base: int):
    """(2/pi) int_0^{arcsin a} K'(cos u) cos u du by tanh-sinh, with
    mp.cos and ell_kprime at every node and the integral route's rule,
    tolerance and precisions: the same integral in u (oracle for the int
    integrand in r = sqrt(1 - sin u))."""
    with mp.workprec(base + 24):
        tol = mp.mpf(2) ** (-(base + 4))

        def integrand(u):
            c = mp.cos(u)
            if c <= 0:  # a node rounded an ulp past pi/2
                return mp.mpf(0)
            return ell_kprime(c) * c

        result = tanh_sinh_interval(integrand, mp.mpf(0), mp.asin(alpha), tolerance=tol, precision=base + 24)
        return 2 / mp.pi * result.value


class TestMAlphaIntegralRoute:
    # alpha from 2^-200, where sqrt(1 - alpha) rounds to 1, to the log
    # singularity at alpha = 1, with 1 - alpha down to 2^-116
    @pytest.mark.parametrize("base", [64, 96, 128])
    def test_matches_cos_form(self, base):
        with mp.workprec(base + 64):
            alphas = [mp.mpf(2) ** -200, mp.mpf("1e-20"), mp.mpf("1e-3"), mp.mpf("0.5"), mp.mpf("0.98")]
            alphas += [1 - mp.mpf(2) ** -e for e in (7, 20, 60, 116)] + [mp.mpf(1)]
            for alpha in alphas:
                new = m_alpha(alpha, "integral", precision=base)
                assert abs(new - m_alpha_cos_form(alpha, base)) <= mp.mpf(2) ** -(base + 2), alpha

    @pytest.mark.parametrize("base", [64, 96, 128])
    def test_tiny_alpha_is_alpha(self, base):
        # m(4a) = a + O(a^3); the interval in rho = 1 - r keeps its width
        # a / (1 + sqrt(1 - a)) where sqrt(1 - a) itself rounds to 1.  The
        # rule's tolerance is absolute, so it stops at level 2 here, whose
        # relative error on the near-constant integrand is 3.7e-14 (the cos
        # form's too); 2^-40 relative still sees a value off by a factor
        alpha = mp.mpf(2) ** -200
        value = m_alpha(alpha, "integral", precision=base)
        with mp.workprec(base + 32):
            assert abs(value - alpha) <= mp.mpf(2) ** -(base + 4)
            assert abs(value - alpha) <= alpha * mp.mpf(2) ** -40


class TestMAlphaComplementRoute:
    # beta from the 0.98 seam to the log singularity at 1, with 1 - beta
    # down to 2^-116; the integral route is the oracle
    @pytest.mark.parametrize("base", [64, 96, 128])
    def test_matches_integral_route(self, base):
        with mp.workprec(base + 64):
            betas = [mp.mpf("0.98"), mp.mpf("0.99")]
            betas += [1 - mp.mpf(2) ** -e for e in (7, 20, 60, 116)] + [mp.mpf(1)]
            for beta in betas:
                new = m_alpha(beta, "complement", precision=base)
                assert abs(new - m_alpha(beta, "integral", precision=base)) <= mp.mpf(2) ** -(base + 2), beta

    @pytest.mark.parametrize("base", [64, 96, 128])
    def test_one_is_four_catalan_over_pi(self, base):
        with mp.workprec(base + 32):
            target = 4 * mp.catalan / mp.pi
            assert abs(m_alpha(1, "complement", precision=base) - target) <= mp.mpf(2) ** -(base + 2)

    @pytest.mark.parametrize("base", [64, 96, 128])
    def test_meets_the_series_route_at_the_seam(self, base):
        # r_alpha's k-integral switches from the series to this route here
        with mp.workprec(base + 32):
            beta = mp.mpf("0.98")
            gap = m_alpha(beta, "complement", precision=base) - m_alpha(beta, "series", precision=base)
            assert abs(gap) <= mp.mpf(2) ** -(base + 2)

    def test_short_term_table_raises(self, monkeypatch):
        # t^2 = 3/4 would need about 250 terms for 2^-104
        with pytest.raises(ArithmeticError, match="complement series"):
            m_alpha(mp.mpf("0.5"), "complement", precision=96)
        # t^2 = 0.0396 gains 4.66 bits a term: 96 bits need 23 terms
        monkeypatch.setattr(mahler, "_COMPLEMENT_TERMS", 16)
        with pytest.raises(ArithmeticError, match="complement series"):
            m_alpha(mp.mpf("0.98"), "complement", precision=96)
        assert m_alpha(mp.mpf("0.98"), "complement", precision=48) > 0


class TestRAlpha:
    def test_polylog_value_at_one(self):
        with mp.workprec(160):
            target = 7 * zeta_int(3, 128) / (2 * mp.pi**2)
            assert abs(r_alpha(1, "polylog", precision=128) - target) < mp.mpf("1e-25")

    def test_route_agreement(self):
        for alpha in (mp.mpf("0.3"), mp.mpf("0.7"), mp.mpf(1)):
            ki = r_alpha(alpha, "k-integral", precision=48)
            pl = r_alpha(alpha, "polylog", precision=64)
            assert abs(ki - pl) < mp.mpf("1e-8")

    def test_torus_route(self):
        tor = r_alpha(1, "torus", samples=1 << 16, shifts=8)
        pl = r_alpha(1, "polylog", precision=64)
        assert abs(tor - pl) < 5e-3

    @pytest.mark.parametrize("route", ["polylog", "k-integral"])
    def test_fraction_converts_at_the_working_precision(self, route):
        # as for m_alpha: 1/3 rounded at 53 bits would move the polylog
        # value by 7.6e-18
        precision = 200 if route == "polylog" else 64
        with mp.workprec(53):
            low = r_alpha(Fraction(1, 3), route, precision=precision)
        with mp.workprec(240):
            high = r_alpha(Fraction(1, 3), route, precision=precision)
        assert low._mpf_ == high._mpf_

    def test_small_alpha_scaling(self):
        a = mp.mpf("1e-4")
        assert abs(r_alpha(a, "polylog", precision=64) / a - 4 / mp.pi**2) < mp.mpf("1e-7")

    def test_domain_and_routes(self):
        with pytest.raises(ValueError):
            r_alpha(1.5, "polylog")
        with pytest.raises(ValueError):
            r_alpha(1.5, "k-integral")
        with pytest.raises(ValueError):
            r_alpha(0.5, "series")

    def test_zero(self):
        assert r_alpha(0, "polylog") == 0
        assert r_alpha(0, "k-integral") == 0


class TestFourier:
    def test_sin_expansion_small_at_400(self):
        dev = fourier_check("3.8", mp.pi / 6, 400, precision=64)
        assert dev < 1e-3

    def test_cos_expansion_halves_with_n(self):
        # at theta = pi/4 the second sub-series vanishes and the tail is a
        # clean alternating series, so doubling N halves the deviation
        devs = [fourier_check("3.9", mp.pi / 4, n, precision=64) for n in (100, 200, 400, 800)]
        for a, b in zip(devs, devs[1:]):
            assert 1.6 < a / b < 2.4
        assert devs[-1] < 1e-3

    def test_measure_expansion(self):
        dev = fourier_check("3.10", mp.pi / 3, 400, precision=64)
        assert dev < 1e-6

    def test_deviation_within_tail_bound_ladder(self):
        # fourier_check raises if the deviation beats its own tail bound, so
        # surviving the ladder is the assertion; record 1/N envelope shape
        for which, theta in (("3.8", mp.pi / 6), ("3.9", mp.pi / 4), ("3.10", mp.pi / 3)):
            for n in (50, 100, 200, 400):
                fourier_check(which, theta, n, precision=64)

    def test_domain(self):
        with pytest.raises(ValueError):
            fourier_check("3.7", mp.pi / 6, 100)
        with pytest.raises(ValueError):
            fourier_check("3.8", 0, 100)
        with pytest.raises(ValueError):
            fourier_check("3.8", 1.01 * float(mp.pi) / 2, 100)
        with pytest.raises(ValueError):
            fourier_check("3.8", mp.pi / 6, 7)


class TestDensityIntegral:
    def test_m_zero_both_sides_one(self):
        assert density_integral_check(0, mp.mpf("1e-12")) < mp.mpf("1e-12")

    def test_all_exponents(self):
        for m in range(7):
            assert density_integral_check(m, mp.mpf("1e-10")) < mp.mpf("1e-8")

    def test_odd_moment_closed_form(self):
        # int_0^1 |cos 2 pi t|^(2n+1) dt = 2^(2n+1) / (pi (2n+1) C(2n,n));
        # checks the left side's building block against the closed form
        from mahlerlab.quadrature import tanh_sinh_interval

        for n in (0, 1, 2):
            m = 2 * n + 1
            with mp.workprec(96):
                part = tanh_sinh_interval(
                    lambda u: mp.cos(2 * mp.pi * u) ** m,
                    mp.mpf(0),
                    mp.mpf(1) / 4,
                    tolerance=mp.mpf("1e-20"),
                    precision=96,
                )
                closed = mp.mpf(2 ** m) / (mp.pi * m * central_binomial(n))
                assert abs(4 * part.value - closed) < mp.mpf("1e-18")

    def test_domain(self):
        with pytest.raises(ValueError):
            density_integral_check(-1)
        with pytest.raises(ValueError):
            density_integral_check(7)


class TestWanMoments:
    def test_all_moments(self):
        for m in range(7):
            assert wan_moment_check(m, mp.mpf("1e-10")) < mp.mpf("1e-8")

    def test_zeroth_matches_catalan_free_value(self):
        # m = 0 closed form: (pi^2/8) [Gamma(1/2)/Gamma(1)]^2 4F3(...) with
        # Gamma(1/2)^2 = pi; the check only needs the deviation to be tiny
        assert wan_moment_check(0, mp.mpf("1e-12")) < mp.mpf("1e-10")

    def test_domain(self):
        with pytest.raises(ValueError):
            wan_moment_check(-1)
        with pytest.raises(ValueError):
            wan_moment_check(7)
