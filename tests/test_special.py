import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
import scipy.special

from mahlerlab import modular, precision, special
from mahlerlab.mahler import r_alpha
from mahlerlab.modular import NEWFORM_F, NEWFORM_H
from mahlerlab.precision import AccelResult, NoConvergence, accelerate
from mahlerlab.registry import _hp_tolerance
from mahlerlab.special import (
    PFQSpec,
    _e1_uses_series,
    catalan,
    ell_k,
    ell_kprime,
    exp_integral_e1,
    gamma_half_int,
    gamma_upper_int,
    legendre_chi3,
    pfq,
    zeta_int,
    zeta_prime_minus2,
)


# The mpf loops the int kernels replaced, kept as oracles: the kernels must
# round to the same values.


def _e1_mpf(x, precision):
    # series below 4, modified Lentz on the continued fraction above
    p = precision
    with mp.workprec(p + 32):
        xx = mp.mpf(x)
        if xx <= 4:
            eps = mp.mpf(2) ** (-(p + 24))
            acc = mp.mpf(0)
            t = mp.mpf(1)
            n = 1
            while True:
                t *= xx / n
                term = t / n
                acc += term if n % 2 else -term
                if t < eps:
                    break
                n += 1
            v = -mp.euler - mp.log(xx) + acc
        else:
            tiny = mp.mpf(2) ** (-(p + 64))
            eps = mp.mpf(2) ** (-(p + 16))
            b = xx + 1
            c = 1 / tiny
            d = 1 / b
            h = d
            i = 1
            while True:
                a = -mp.mpf(i) ** 2
                b += 2
                d = 1 / (a * d + b)
                c = b + a / c
                delta = c * d
                h *= delta
                if abs(delta - 1) < eps:
                    break
                i += 1
            v = h * mp.exp(-xx)
    with mp.workprec(p):
        return +v


def _ell_k_mpf(k, precision):
    p = precision
    with mp.workprec(p + 16):
        kk = mp.mpf(k)
        kc = mp.sqrt((1 - kk) * (1 + kk))
        if kc == 0:
            # k rounds to 1 at p + 16 bits: K has a pole there
            raise ValueError(f"k = {k} rounds to 1")
        v = mp.pi / (2 * mp.agm(1, kc))
    return mp.mpf(v, prec=p)


def _ell_kprime_mpf(k, precision):
    p = precision
    with mp.workprec(p + 16):
        v = mp.pi / (2 * mp.agm(1, mp.mpf(k)))
    return mp.mpf(v, prec=p)


def _arg_mpf(val):
    if isinstance(val, Fraction):
        return mp.mpf(val.numerator) / val.denominator
    return mp.mpf(val)


def _term_ratio(upper, lower, n):
    """prod (a + n) / prod (b + n) over mpf parameters, at mp.prec: the
    ratio t_(n+1) / t_n of a pFq series without its x / (n + 1)."""
    ratio = mp.mpf(1)
    for a in upper:
        ratio *= a + n
    for b in lower:
        ratio /= b + n
    return ratio


def _pfq_direct_mpf(spec, target, base):
    # the mpf sum the int kernel replaced (t == 0 only where a terminating
    # series ends); returns the value and the ratio index at which it stopped
    with mp.workprec(base + 32):
        x = _arg_mpf(spec.argument)
        upper = [_arg_mpf(a) for a in spec.upper]
        lower = [_arg_mpf(b) for b in spec.lower]
        total = mp.mpf(0)
        t = mp.mpf(1)
        n = 0
        while True:
            total += t
            ratio = _term_ratio(upper, lower, n) * (x / (n + 1))
            t = t * ratio
            if t == 0:
                break
            r = abs(ratio)
            if r < 1 and abs(t) * r / (1 - r) < target / 4 and abs(t) < target / 4:
                total += t
                break
            n += 1
    with mp.workprec(base):
        return +total, n


def _pfq_unit_mpf(spec, target, base):
    # the Levin route pfq had at |x| = 1 before Richardson took every series
    # it accepts: mpf partial sums with the argument's factor (+-1, so
    # exact), Levin over 128 of them (320 for targets <= 1e-15), doubled up
    # to 1280 until the estimate meets the target.  The Levin table's
    # alternating (x = -1) and n^-1.5 cases run through it
    n_terms = 128 if target > mp.mpf("1e-15") else 320
    while True:
        with mp.workprec(base + int(1.2 * n_terms) + 48):
            x = _arg_mpf(spec.argument)
            upper = [_arg_mpf(a) for a in spec.upper]
            lower = [_arg_mpf(b) for b in spec.lower]
            sums = []
            tot = mp.mpf(0)
            t = mp.mpf(1)
            for n in range(n_terms):
                tot += t
                sums.append(tot)
                t = t * _term_ratio(upper, lower, n) * x / (n + 1)
            res = accelerate(sums, precision=base)
        if not res.low_confidence and res.error_estimate <= target:
            with mp.workprec(base):
                return +res.value
        if n_terms >= 1280:
            raise NoConvergence(
                "pFq acceleration stalled above the requested error",
                best=res.value,
                terms=n_terms,
            )
        n_terms *= 2


def _close_to(value, ref, precision):
    """value is ref rounded to precision bits, up to 2^-8 of an ulp's slack."""
    return abs(value - ref) <= abs(ref) * mp.mpf(2) ** -precision * (1 + mp.mpf(2) ** -8)


def _mellin_nodes(precision):
    """Every x at which l_value evaluates E1 for f and h with work =
    precision bits, recorded from its calls: the E1 side's abscissae
    x = 2 pi 4n / sqrt(level) over the nonzero a_n."""
    nodes = []
    kernel = special.gamma_upper_int

    def record(s, x, bits=None):
        assert s == 0
        nodes.append(x)
        return kernel(s, x, bits)

    special.gamma_upper_int = record
    try:
        for spec in (NEWFORM_F, NEWFORM_H):
            start = len(nodes)
            modular.l_value(spec, spec.weight, precision - 24)
            with mp.workprec(precision):
                c = 2 * mp.pi * 4 / mp.sqrt(spec.level)
                picked = [int(mp.nint(x / c)) for x in nodes[start:]]
                assert all(abs(x - c * n) <= x * 2 ** (4 - precision)
                           for x, n in zip(nodes[start:], picked)), spec.name
            assert picked == [n for n in range(1, picked[-1] + 1) if spec._coeffs[n]], spec.name
    finally:
        special.gamma_upper_int = kernel
    return nodes


class TestAgm:
    # the int AGM loop (_agm_fixed) seen through K'(k) = pi / (2 agm(1, k)),
    # its one public caller besides ell_k
    def test_equal_arguments_fixed_point(self):
        # agm(1, 1) = 1 is the loop's fixed point: K'(1) is pi/2 rounded once
        for p in (64, 128, 1100):
            with mp.workprec(p + 16):
                half_pi = mp.pi / 2
            assert ell_kprime(1, p) == mp.mpf(half_pi, prec=p), p

    def test_gauss_constant(self):
        # agm(1, 1/sqrt 2) = agm(1, sqrt 2) / sqrt 2 by homogeneity, and
        # agm(1, sqrt 2) is Gauss's 1.19814023473559220744..., so
        # K'(1/sqrt 2) = pi / (sqrt 2 * 1.198140...)
        with mp.workprec(176):
            gauss = mp.mpf("1.1981402347355922074399224922803238782272126632156515582636749529")
            ref = mp.pi / (mp.sqrt(2) * gauss)
            assert abs(ell_kprime(1 / mp.sqrt(2), 160) - ref) < mp.mpf(2) ** -150

    @given(st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_mean_inequality(self, k):
        # k <= agm(1, k) <= 1, so pi/2 <= K'(k) <= pi / (2k)
        with mp.workprec(96):
            v = ell_kprime(k, 96)
            assert mp.pi / 2 * (1 - 1e-20) <= v <= mp.pi / (2 * mp.mpf(k)) * (1 + 1e-20)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ell_kprime(0)
        with pytest.raises(ValueError):
            ell_kprime(-2)

    def test_tiny_argument(self):
        # K'(k) = log(4/k) + O(k^2 log k): agm(1, 2^-40) is still well
        # conditioned
        with mp.workprec(128):
            v = ell_kprime(mp.mpf(2) ** -40, 128)
            assert abs(v - 42 * mp.log(2)) < mp.mpf(10) ** -20

    @pytest.mark.parametrize("precision", [64, 128])
    def test_tiny_argument_vs_mpmath(self, precision):
        # tanh-sinh nodes push k to within 2^-p of 0: the int loop must keep
        # the small argument's bits all the way to 2^-2p
        for e in range(0, 2 * precision + 1):
            with mp.workprec(precision + 2 * e + 64):
                ref = mp.ellipk(1 - mp.mpf(2) ** (-2 * e))
            assert _close_to(ell_kprime(mp.mpf(2) ** -e, precision), ref, precision), e

    def test_matches_mpf_route(self):
        # moduli spread from 1 down to ~2^-120, each K' correctly rounded
        import random

        rng = random.Random(20261018)
        for _ in range(200):
            with mp.workprec(136):
                k = mp.mpf(rng.random()) ** rng.randint(1, 40)
            with mp.workprec(136 + 320):
                ref = mp.ellipk(1 - k * k)
            assert ell_kprime(k, 136) == mp.mpf(ref, prec=136), k
            assert _close_to(_ell_kprime_mpf(k, 136), ref, 136), k


class TestEllipticK:
    def test_k_zero(self):
        with mp.workprec(128):
            assert abs(ell_k(0, 128) - mp.pi / 2) < mp.mpf(2) ** -120

    def test_kprime_one(self):
        with mp.workprec(128):
            assert abs(ell_kprime(1, 128) - mp.pi / 2) < mp.mpf(2) ** -120

    def test_lemniscatic_value_vs_gamma(self):
        # K(1/sqrt(2)) = Gamma(1/4)^2 / (4 sqrt(pi)); the gamma route is a
        # fully independent evaluation
        with mp.workprec(192):
            v = ell_k(1 / mp.sqrt(2), 192)
            ref = mp.gamma(mp.mpf(1) / 4) ** 2 / (4 * mp.sqrt(mp.pi))
            assert abs(v - ref) < mp.mpf(2) ** -180

    def test_scipy_grid(self):
        # scipy.special.ellipk takes m = k^2
        for i in range(1, 20):
            k = i / 20.0
            with mp.workprec(80):
                v = ell_k(k, 80)
            assert abs(float(v) - scipy.special.ellipk(k * k)) < 1e-12

    def test_kprime_is_k_of_complement(self):
        with mp.workprec(128):
            k = mp.mpf("0.3")
            kc = mp.sqrt(1 - k * k)
            assert abs(ell_kprime(k, 128) - ell_k(kc, 128)) < mp.mpf(2) ** -118

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=30, deadline=None)
    def test_landen_descending(self, kf):
        # K((1-k)/(1+k)) = (1+k)/2 * K'(k)
        with mp.workprec(128):
            k = mp.mpf(kf)
            lhs = ell_k((1 - k) / (1 + k), 128)
            rhs = (1 + k) / 2 * ell_kprime(k, 128)
            assert abs(lhs - rhs) < mp.mpf(10) ** -25

    def test_domains(self):
        with pytest.raises(ValueError):
            ell_k(1)
        with pytest.raises(ValueError):
            ell_k(-0.1)
        with pytest.raises(ValueError):
            ell_kprime(0)
        with pytest.raises(ValueError):
            ell_kprime(1.5)


class TestEllipticKAgainstMpfOracle:
    # the int wrappers keep the moduli's roundings and round pi / (2 agm)
    # once, 2^-(p+15) from K: each value is K correctly rounded to p bits
    # unless K lies that close to a rounding boundary, which none of these
    # moduli does; the mpf wrappers were within an ulp
    @staticmethod
    def _moduli(precision):
        import random

        rng = random.Random(20261019)
        with mp.workprec(precision + 16):
            ks = [mp.mpf(i) / 16 for i in range(1, 16)]
            ks += [1 - mp.mpf(2) ** -40, mp.mpf(2) ** -40, mp.mpf("0.999999")]
            ks += [mp.mpf(rng.random()) ** rng.randint(1, 8) for _ in range(24)]
        return ks

    @pytest.mark.parametrize("precision", [64, 128, 1100])
    def test_ell_k_against_mpmath(self, precision):
        # 1 - 2^-200 rounds to 1 below 184 bits, which both routes refuse;
        # there the edge is the last modulus below 1 at p + 16 bits
        with mp.workprec(240):
            edge = 1 - mp.mpf(2) ** -200
            if precision + 16 < 200:
                for ell in (ell_k, _ell_k_mpf):
                    with pytest.raises(ValueError):
                        ell(edge, precision)
                edge = 1 - mp.mpf(2) ** -(precision + 16)
        for k in self._moduli(precision) + [edge]:
            with mp.workprec(precision + 280):
                ref = mp.ellipk(k * k)
            value = ell_k(k, precision)
            assert value == mp.mpf(ref, prec=precision), k
            assert _close_to(_ell_k_mpf(k, precision), ref, precision), k

    @pytest.mark.parametrize("precision", [64, 128, 1100])
    def test_ell_kprime_against_mpmath(self, precision):
        with mp.workprec(precision + 16):
            edge = mp.mpf(2) ** -300
        for k in self._moduli(precision) + [edge, mp.mpf(1)]:
            # 1 - k^2 keeps every bit of k^2 at 64 + 600 extra bits
            with mp.workprec(precision + 664):
                ref = mp.ellipk(1 - k * k)
            value = ell_kprime(k, precision)
            assert value == mp.mpf(ref, prec=precision), k
            assert _close_to(_ell_kprime_mpf(k, precision), ref, precision), k

    def test_ambient_precision_and_inputs(self):
        # precision=None takes mp.prec; ints, floats and strings round to
        # p + 16 bits as mp.mpf did under workprec(p + 16)
        with mp.workprec(96):
            assert ell_k(mp.mpf("0.25")) == ell_k(mp.mpf("0.25"), 96)
            assert ell_kprime(mp.mpf("0.25")) == ell_kprime(mp.mpf("0.25"), 96)
        for k in (0, 0.5, "0.3", "0.999999"):
            with mp.workprec(144):
                kk = mp.mpf(k)
            with mp.workprec(192):
                ref_k, ref_kprime = mp.ellipk(kk * kk), mp.ellipk(1 - kk * kk) if kk else None
            assert _close_to(ell_k(k, 128), ref_k, 128), k
            if kk:
                assert _close_to(ell_kprime(k, 128), ref_kprime, 128), k


class TestGammaHalfInt:
    def test_base_cases(self):
        with mp.workprec(128):
            assert gamma_half_int(2, 128) == 1
            assert abs(gamma_half_int(1, 128) - mp.sqrt(mp.pi)) < mp.mpf(2) ** -120

    def test_integers_are_factorials(self):
        for n in range(1, 9):
            assert gamma_half_int(2 * n, 128) == math.factorial(n - 1)

    def test_seven_halves(self):
        with mp.workprec(128):
            ref = mp.mpf(15) / 8 * mp.sqrt(mp.pi)
            assert abs(gamma_half_int(7, 128) - ref) < mp.mpf(2) ** -118

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_recurrence(self, t):
        # Gamma(s + 1) = s Gamma(s) with s = t/2
        with mp.workprec(128):
            lhs = gamma_half_int(t + 2, 128)
            rhs = mp.mpf(t) / 2 * gamma_half_int(t, 128)
            assert abs(lhs - rhs) <= abs(lhs) * mp.mpf(2) ** -118

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_half_int(0)


def _zeta3_raw_oracle() -> float:
    # plain float64 sum with the leading Euler-Maclaurin tail corrections;
    # good to ~1e-13, independent of the working-precision machinery
    n_cut = 200_000
    s = 0.0
    for n in range(n_cut - 1, 0, -1):
        s += 1.0 / (n * n * n)
    s += 1.0 / (2.0 * n_cut ** 2) + 1.0 / (2.0 * n_cut ** 3)
    return s


class TestZetaInt:
    def test_even_closed_forms(self):
        with mp.workprec(192):
            pi = mp.pi
            assert abs(zeta_int(2, 160) - pi ** 2 / 6) < mp.mpf(2) ** -150
            assert abs(zeta_int(4, 160) - pi ** 4 / 90) < mp.mpf(2) ** -150
            ref12 = mp.mpf(691) / 638512875 * pi ** 12
            assert abs(zeta_int(12, 160) - ref12) < mp.mpf(2) ** -150

    def test_zeta3_against_raw_sum(self):
        v = float(zeta_int(3, 96))
        assert abs(v - _zeta3_raw_oracle()) < 1e-12

    def test_zeta3_against_scipy(self):
        assert abs(float(zeta_int(3, 96)) - scipy.special.zeta(3)) < 1e-14

    def test_precision_scaling(self):
        with mp.workprec(300):
            lo = zeta_int(3, 128)
            hi = zeta_int(3, 288)
            assert abs(lo - hi) < mp.mpf(2) ** -120

    def test_reproducible_bits(self):
        a = zeta_int(5, 160)
        b = zeta_int(5, 160)
        assert mp.mpf(a) == mp.mpf(b)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_int(1)
        with pytest.raises(ValueError):
            zeta_int(0)

    def test_correctly_rounded_sweep(self):
        # every precision from 32 to 600 bits
        for s in (2, 3, 4, 5, 7, 12):
            with mp.workprec(700):
                ref = mp.zeta(s)
            wrong = [p for p in range(32, 601) if zeta_int(s, p) != mp.mpf(ref, prec=p)]
            assert wrong == [], s

    @pytest.mark.parametrize("s", [3, 20000])
    def test_correctly_rounded_at_headline_precision(self, s):
        # compute zeta 3 --digits 300 works at 1047 bits; at s = 20000 the
        # sum stops after its first term, zeta(s) - 1 being below 2^-19999
        with mp.workprec(1200):
            ref = mp.zeta(s)
        assert zeta_int(s, 1047) == mp.mpf(ref, prec=1047)


class TestZetaPrimeMinusTwo:
    def test_closed_form(self):
        with mp.workprec(160):
            ref = -zeta_int(3, 160) / (4 * mp.pi ** 2)
            assert abs(zeta_prime_minus2(140) - ref) < mp.mpf(2) ** -130

    def test_sign_and_size(self):
        v = zeta_prime_minus2(64)
        assert -0.031 < float(v) < -0.030


def _catalan_euler_transform_oracle() -> float:
    # Euler transform of sum (-1)^n a_n, a_n = 1/(2n+1)^2: forward differences
    # at n = 0 give G = sum_k Delta^k a_0 / 2^(k+1)
    n = 40
    a = [1.0 / (2 * j + 1) ** 2 for j in range(n)]
    total = 0.0
    for k in range(n):
        total += a[0] / 2.0 ** (k + 1)
        a = [a[j] - a[j + 1] for j in range(len(a) - 1)]
    return total


class TestCatalan:
    def test_against_euler_transform(self):
        assert abs(float(catalan(96)) - _catalan_euler_transform_oracle()) < 1e-10

    def test_frozen_value(self):
        with mp.workprec(200):
            ref = mp.mpf("0.91596559417721901505460351493238411077414937428167"
                         "21342664981196217630197762547694794")
            assert abs(catalan(192) - ref) < mp.mpf(2) ** -185

    def test_precision_scaling(self):
        with mp.workprec(300):
            assert abs(catalan(128) - catalan(256)) < mp.mpf(2) ** -120

    def test_missed_target_raises(self, monkeypatch):
        # an accelerator that never meets the target: every pass of the
        # Levin oracle (320, 640 and 1280 terms at 136 bits) on G's
        # alternating 3F2 at -1 must end in NoConvergence, not a value
        def stalled(sums, precision=None):
            return AccelResult(value=sums[-1], error_estimate=mp.mpf(1), low_confidence=True)

        monkeypatch.setitem(globals(), "accelerate", stalled)
        with pytest.raises(NoConvergence) as info:
            _pfq_unit_mpf(_CATALAN_3F2, mp.mpf(2) ** -132, 136)
        assert info.value.terms == 1280
        assert abs(info.value.best - mp.mpf("0.91596559")) < 1e-3

    def test_low_confidence_alone_raises(self, monkeypatch):
        exact = accelerate

        def doubtful(sums, precision=None):
            return dataclasses.replace(exact(sums, precision), low_confidence=True)

        monkeypatch.setitem(globals(), "accelerate", doubtful)
        with pytest.raises(NoConvergence):
            _pfq_unit_mpf(_CATALAN_3F2, mp.mpf(2) ** -132, 136)

    def test_correctly_rounded_sweep(self):
        # every precision from 16 to 600 bits; G lies within 2^-(p+9) of a
        # rounding tie at 175, 437 and 535 bits
        with mp.workprec(700):
            ref = +mp.catalan
        wrong = [p for p in range(16, 601) if catalan(p) != mp.mpf(ref, prec=p)]
        assert wrong == []

    def test_needs_no_accelerator(self, monkeypatch):
        # Bradley's 3F2 at 1/4 is summed directly: no extrapolator runs
        def refused(*args):
            raise AssertionError("catalan reached an extrapolator")

        monkeypatch.setattr(precision, "richardson", refused)
        with mp.workprec(200):
            assert catalan(144) == mp.mpf(mp.catalan, prec=144)


class TestLegendreChi3:
    def test_endpoints(self):
        with mp.workprec(128):
            assert legendre_chi3(0, 128) == 0
            ref = 7 * zeta_int(3, 128) / 8
            assert abs(legendre_chi3(1, 128) - ref) < mp.mpf(2) ** -118

    def test_against_polylog_split(self):
        # chi_3(a) = (Li_3(a) - Li_3(-a)) / 2, both sides by raw summation
        a = 0.7
        li_pos = sum(a ** n / n ** 3 for n in range(1, 400))
        li_neg = sum((-a) ** n / n ** 3 for n in range(1, 400))
        ref = (li_pos - li_neg) / 2
        assert abs(float(legendre_chi3(0.7, 96)) - ref) < 1e-13

    def test_closed_form_window_meets_the_precision(self):
        # chi_3(1) - chi_3(a) is about (pi^2/8)(1 - a): the closed form may
        # stand in for chi_3(a) only within 2^-(p+8) of 1.  1 - 2^-70 at
        # 128 bits is outside that window and its series needs ~10^23 terms,
        # so it is refused; 1 - 2^-140 is inside and lands within 2^-126 of
        # (Li_3(a) - Li_3(-a)) / 2
        with mp.workprec(128):
            a = 1 - mp.mpf(2) ** -70
        with pytest.raises(ValueError, match="too close to 1"):
            legendre_chi3(a, 128)
        with mp.workprec(300):
            a = 1 - mp.mpf(2) ** -140
            ref = (mp.polylog(3, a) - mp.polylog(3, -a)) / 2
            assert abs(legendre_chi3(a, 128) - ref) < mp.mpf(2) ** -126

    def test_just_below_the_closed_form_window_refused(self):
        # 1 - 2^-30 is outside the 2^-104 window at 96 bits, and its series
        # needs ~4e10 terms: refused at once, as pfq refuses its argument
        with mp.workprec(96):
            a = 1 - mp.mpf(2) ** -30
        with pytest.raises(ValueError, match="too close to 1"):
            legendre_chi3(a, 96)
        with pytest.raises(ValueError, match="too close to 1"):
            r_alpha(a, route="polylog", precision=96)

    def test_domain(self):
        with pytest.raises(ValueError):
            legendre_chi3(-0.1)
        with pytest.raises(ValueError):
            legendre_chi3(1.1)


def pochhammer_sum(upper, lower, x, n_terms):
    """Exact sum_{n < n_terms} prod (a)_n / (prod (b)_n n!) x^n, each term
    built from its own Pochhammer products rather than a term ratio."""
    total = Fraction(0)
    for n in range(n_terms):
        num = Fraction(1)
        den = Fraction(math.factorial(n))
        for a in upper:
            for j in range(n):
                num *= a + j
        for b in lower:
            for j in range(n):
                den *= b + j
        total += num / den * x ** n
    return total


class TestPFQSpec:
    # pfq's term recurrence at x = 1/2 against Pochhammer-product terms;
    # 160 terms leave a tail below 2^-150
    def test_self_check_gauss(self):
        upper, lower = [Fraction(1, 2), Fraction(1, 2)], [Fraction(1)]
        value = pfq(PFQSpec(upper, lower, Fraction(1, 2)), mp.mpf(2) ** -120, precision=160)
        exact = pochhammer_sum(upper, lower, Fraction(1, 2), 160)
        with mp.workprec(160):
            assert abs(value - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf(2) ** -110

    def test_self_check_deep(self):
        upper, lower = [Fraction(3, 2)] * 4 + [Fraction(1)] * 2, [Fraction(2)] * 5
        value = pfq(PFQSpec(upper, lower, Fraction(1, 2)), mp.mpf(2) ** -120, precision=160)
        exact = pochhammer_sum(upper, lower, Fraction(1, 2), 160)
        with mp.workprec(160):
            assert abs(value - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf(2) ** -110
        assert PFQSpec(upper, lower, 1).tail_exponent() == 3

    def test_wan_moment_exponent(self):
        # 4F3(1/2,1/2,(m+1)/2,(m+1)/2; 1,(m+2)/2,(m+2)/2; 1) decays like n^-2
        m = 3
        spec = PFQSpec(
            [Fraction(1, 2), Fraction(1, 2), Fraction(m + 1, 2), Fraction(m + 1, 2)],
            [Fraction(1), Fraction(m + 2, 2), Fraction(m + 2, 2)],
            1,
        )
        assert spec.tail_exponent() == 2

    def test_bad_lower_parameter(self):
        with pytest.raises(ValueError):
            PFQSpec([Fraction(1, 2)], [Fraction(-2)], 1)
        with pytest.raises(ValueError):
            PFQSpec([Fraction(1, 2)], [Fraction(0)], 1)


class TestPfq:
    def test_gauss_vs_agm_on_grid(self):
        # 2F1(1/2,1/2;1;k^2) = 2 K(k) / pi, with K from the AGM: two routes
        # that share no code
        import random

        rng = random.Random(20260816)
        with mp.workprec(160):
            for _ in range(20):
                kf = rng.uniform(0.05, 0.9)
                k = mp.mpf(repr(kf))
                spec = PFQSpec([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)], k * k)
                lhs = pfq(spec, mp.mpf(10) ** -30, precision=160)
                rhs = 2 * ell_k(k, 160) / mp.pi
                assert abs(lhs - rhs) < mp.mpf(10) ** -20

    def test_unit_argument_watson(self):
        # 3F2(1/2,1/2,1/2; 1,1; 1) = pi / Gamma(3/4)^4; the n^-1.5 tail is the
        # hardest decay rate the Levin table is asked to handle.  pfq refuses
        # the fractional tail exponent, so the Levin oracle sums it, at the
        # 97 bits pfq would have taken for this target
        spec = PFQSpec([Fraction(1, 2)] * 3, [Fraction(1)] * 2, 1)
        with mp.workprec(160):
            v = _pfq_unit_mpf(spec, mp.mpf(10) ** -15, 97)
            ref = mp.pi / mp.gamma(mp.mpf(3) / 4) ** 4
            assert abs(v - ref) < mp.mpf(10) ** -14

    def test_unit_argument_six_five(self):
        # tail decays like n^-3: Richardson must reach 1e-25
        spec = PFQSpec([Fraction(3, 2)] * 4 + [Fraction(1)] * 2, [Fraction(2)] * 5, 1)
        with mp.workprec(200):
            v = pfq(spec, mp.mpf(10) ** -25)
            w = pfq(spec, mp.mpf(10) ** -30)
            assert abs(v - w) < mp.mpf(10) ** -24

    def test_terminating_series_exact(self):
        # 2F1(-3, 1/2; 2; x) is a cubic; compare against the explicit sum
        x = Fraction(7, 5)
        spec = PFQSpec([Fraction(-3), Fraction(1, 2)], [Fraction(2)], x)
        t = Fraction(1)
        ref = Fraction(0)
        for n in range(4):
            ref += t
            t *= (Fraction(-3) + n) * (Fraction(1, 2) + n) * x
            t /= (Fraction(2) + n) * (n + 1)
        with mp.workprec(96):
            v = pfq(spec, mp.mpf(10) ** -20)
            assert abs(v - mp.mpf(ref.numerator) / ref.denominator) < mp.mpf(10) ** -18

    def test_divergent_rejected(self):
        spec = PFQSpec([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)], 1.5)
        with pytest.raises(ValueError):
            pfq(spec, 1e-10)

    def test_unit_argument_without_excess_rejected(self):
        # 2F1(1/2,1/2;1;1) is the divergent K(1) limit
        spec = PFQSpec([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)], 1)
        with pytest.raises(ValueError):
            pfq(spec, 1e-10)


class TestPfqDirectAgainstMpfOracle:
    # the int sum takes the same terms as the mpf sum it replaced and
    # rounds to the same base-bit value
    @staticmethod
    def _cases(base):
        with mp.workprec(base + 40):
            near = mp.mpf("0.979") ** 2  # m_alpha's series route near 0.98
            neg = -mp.mpf("0.7")
        six = [Fraction(3, 2)] * 4 + [Fraction(1)] * 2
        return [
            (six, [Fraction(2)] * 5, Fraction(256, 17 ** 2)),
            (six, [Fraction(2)] * 5, Fraction(256, 40 ** 2)),
            ([Fraction(1, 2)] * 3, [Fraction(1), Fraction(3, 2)], near),
            ([Fraction(1, 2)] * 3, [Fraction(1), Fraction(3, 2)], neg),
            ([Fraction(1, 3), Fraction(-7, 2)], [Fraction(5, 4)], Fraction(-9, 10)),
            ([Fraction(1, 2), Fraction(1)], [Fraction(-5, 2)], Fraction(1, 2)),
            # repeated non-integer parameters on both sides
            ([Fraction(1, 3)] * 2 + [Fraction(1, 2)], [Fraction(5, 4)] * 2, Fraction(-1, 2)),
            ([Fraction(-5), Fraction(1, 2)], [Fraction(3, 2)], Fraction(7, 3)),
            # (1 - 1000)^150: terms up to 10^450, past the float range of
            # the error bookkeeping
            ([Fraction(-150), Fraction(1)], [Fraction(1)], Fraction(1000)),
        ]

    @pytest.mark.parametrize("base", [96, 1100])
    def test_matches_oracle(self, base):
        target = mp.mpf(2) ** -(base + 8)
        for upper, lower, x in self._cases(base):
            spec = PFQSpec(upper, lower, x)
            terminates = any(a <= 0 and a.denominator == 1 for a in spec.upper)
            value, n = special._pfq_direct(spec, target, base, terminates)
            ref, n_ref = _pfq_direct_mpf(spec, target, base)
            assert n == n_ref, (upper, lower, x)
            assert value == ref, (upper, lower, x)
            with mp.workprec(base + 64):
                xx = x if not isinstance(x, Fraction) else mp.mpf(x.numerator) / x.denominator
                exact = mp.hyper(
                    [mp.mpf(a.numerator) / a.denominator for a in upper],
                    [mp.mpf(b.numerator) / b.denominator for b in lower],
                    xx,
                )
            assert _close_to(value, exact, base), (upper, lower, x)

    def test_public_route_and_ambient_width(self):
        # pfq rounds the int sum to the caller's precision, and without one
        # to the target's bits plus 48
        spec = PFQSpec([Fraction(3, 2)] * 4 + [Fraction(1)] * 2, [Fraction(2)] * 5, Fraction(256, 289))
        target = mp.mpf(2) ** -100
        assert pfq(spec, target, precision=96) == _pfq_direct_mpf(spec, target, 96)[0]
        assert pfq(spec, target) == _pfq_direct_mpf(spec, target, 148)[0]

    def test_too_close_to_one_refused(self):
        # 1 - 10^-9 at a 1e-10 target needs ~2.3e10 terms, beyond 10^8
        spec = PFQSpec([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)], Fraction(10 ** 9 - 1, 10 ** 9))
        with pytest.raises(ValueError, match="^pFq argument too close to 1 for direct summation$"):
            pfq(spec, mp.mpf("1e-10"), precision=96)
        # the same argument at a target 10^8 terms allow is summed
        spec = PFQSpec([Fraction(1, 2), Fraction(1, 2)], [Fraction(1)], Fraction(999, 1000) + Fraction(1, 10 ** 6))
        assert pfq(spec, mp.mpf("1e-3"), precision=64) > 1

    def test_growth_after_a_dip_widens_the_sum(self, monkeypatch):
        # an upper parameter of 1e-18 drops t_1 to ~2^-52, then the terms
        # grow by ~2^660: the error bound must force a wider second pass,
        # and the value is still the exact one rounded to base bits
        passes = []
        to_fixed = special.to_fixed
        monkeypatch.setattr(special, "to_fixed", lambda *a: passes.append(a) or to_fixed(*a))
        spec = PFQSpec([Fraction(1, 10 ** 18), Fraction(200)], [Fraction(1)], Fraction(9, 10))
        value, _ = special._pfq_direct(spec, mp.mpf(2) ** -104, 96, False)
        assert len(passes) == 2
        with mp.workprec(1200):
            exact = mp.hyper([mp.mpf(1) / 10 ** 18, 200], [1], mp.mpf(9) / 10)
        assert _close_to(value, exact, 96)
        # a decreasing series is summed in one pass
        passes.clear()
        special._pfq_direct(PFQSpec([Fraction(1, 2)], [Fraction(3, 2)], Fraction(1, 2)), mp.mpf(2) ** -104, 96, False)
        assert len(passes) == 1

    def test_tiny_first_ratio_does_not_stop_the_sum(self):
        # t_1 = 2.7e-58 is far below the target, but the ratio then exceeds 1
        # for about 2,700 terms and the sum reaches 3.7e236
        spec = PFQSpec([Fraction(1, 10 ** 60), Fraction(300)], [Fraction(1)], Fraction(9, 10))
        value = pfq(spec, mp.mpf(2) ** -100, precision=96)
        with mp.workprec(1500):
            exact = mp.hyper([mp.mpf(1) / 10 ** 60, 300], [1], mp.mpf(9) / 10)
        assert _close_to(value, exact, 96)

    def test_first_stop_index(self):
        # past every negative parameter, and where the ratio's bound falls
        # below 1: (1/2) (n + 1/2) / (n - 5/2) < 1 from n = 6, and
        # (9/10) (300 + n) / (n + 1) < 1 from n = 2691
        assert special._first_stop(PFQSpec([Fraction(1, 2)] * 3, [Fraction(1), Fraction(3, 2)], 0), 1, 2) == 0
        assert special._first_stop(PFQSpec([Fraction(1, 3), Fraction(-7, 2)], [Fraction(5, 4)], 0), 9, 10) == 4
        assert special._first_stop(PFQSpec([Fraction(1, 2), Fraction(1)], [Fraction(-5, 2)], 0), 1, 2) == 6
        assert special._first_stop(PFQSpec([Fraction(1, 10 ** 60), Fraction(300)], [Fraction(1)], 0), 9, 10) == 2691
        # |x| >= 1 with p = q + 1, or p > q + 1: no index serves
        assert special._first_stop(PFQSpec([Fraction(1, 2)] * 2, [Fraction(1)], 0), 1, 1) is None
        assert special._first_stop(PFQSpec([Fraction(1, 2)] * 3, [Fraction(1)], 0), 1, 10 ** 9) is None

    def test_more_upper_than_lower_plus_one_refused(self):
        # 3F1 has radius of convergence 0; its terms shrink at first only
        spec = PFQSpec([Fraction(1, 2)] * 3, [Fraction(1)], Fraction(1, 10 ** 9))
        with pytest.raises(ValueError, match="^pFq diverges"):
            pfq(spec, mp.mpf(2) ** -100, precision=96)
        # unless the series terminates: 1 - 3/2 + 81/32
        spec = PFQSpec([Fraction(-2), Fraction(1, 2), Fraction(1, 2)], [Fraction(1)], Fraction(3))
        assert pfq(spec, mp.mpf(2) ** -100, precision=96) == mp.mpf(65) / 32


_SIX_F_FIVE = PFQSpec([Fraction(3, 2)] * 4 + [Fraction(1)] * 2, [Fraction(2)] * 5, Fraction(1))
_CATALAN_3F2 = PFQSpec([1, Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 2)] * 2, -1)


def _wan_4f3(m):
    half = Fraction(m + 1, 2)
    lower = [Fraction(1), half + Fraction(1, 2), half + Fraction(1, 2)]
    return PFQSpec([Fraction(1, 2), Fraction(1, 2), half, half], lower, 1)


def _hyper(spec, precision):
    with mp.workprec(precision):
        upper, lower = [_arg_mpf(a) for a in spec.upper], [_arg_mpf(b) for b in spec.lower]
        return mp.hyper(upper, lower, _arg_mpf(spec.argument))


class TestPfqArgument:
    @pytest.mark.parametrize("precision", [96, 300])
    def test_minus_one_is_summed_at_minus_one(self, precision):
        # 3F2(1, 1/2, 1/2; 3/2, 3/2; -1) is Catalan's G, not the pi^2/8 of
        # +1: the Levin oracle's alternating case
        target = mp.mpf(2) ** -(precision - 6)
        value = _pfq_unit_mpf(_CATALAN_3F2, target, precision)
        assert abs(value - _hyper(_CATALAN_3F2, precision + 64)) <= target
        with mp.workprec(precision + 64):
            assert abs(value - mp.catalan) <= target

    @pytest.mark.parametrize("spec", [
        _CATALAN_3F2,
        PFQSpec([Fraction(1, 2)] * 3, [Fraction(1)] * 2, 1),
    ], ids=["catalan-at-minus-one", "watson-tail-3/2"])
    def test_unit_argument_outside_richardson_refused(self, spec):
        # x = -1, and x = +1 with the fractional tail exponent 3/2: pfq sums
        # neither
        with pytest.raises(ValueError, match="only at \\+1 with an integer tail exponent"):
            pfq(spec, mp.mpf(2) ** -40, precision=96)

    def test_argument_just_below_one_is_not_one(self):
        # 1 - 2^-80 must not be summed as x = 1 (mpmath puts that value
        # 7.3e-24 away): it meets the target or is refused as too close to 1
        with mp.workprec(160):
            x = 1 - mp.mpf(2) ** -80
        spec = PFQSpec([Fraction(1, 2)] * 3, [Fraction(1), Fraction(3, 2)], x)
        target = mp.mpf(2) ** -100
        try:
            value = pfq(spec, target, precision=160)
        except ValueError as exc:
            assert str(exc) == "pFq argument too close to 1 for direct summation"
        else:
            # mpmath needs tens of seconds this close to 1
            assert abs(value - _hyper(spec, 168)) <= target

    def test_argument_rounds_at_the_working_width(self):
        # past base + 32 bits the argument rounds to 1 and takes the unit path
        with mp.workprec(400):
            x = 1 - mp.mpf(2) ** -300
        spec = PFQSpec([Fraction(1, 2)] * 3, [Fraction(1), Fraction(3, 2)], x)
        target = mp.mpf(2) ** -60
        at_one = pfq(dataclasses.replace(spec, argument=1), target, precision=96)
        assert pfq(spec, target, precision=96) == at_one


class TestPfqUnitAgainstMpfOracle:
    # the int partial sums round to the same base-bit value as the mpf ones
    # they replaced for every call a report makes, and agree within the
    # requested target elsewhere

    @pytest.mark.parametrize("e", [64, 96, 128, 160])
    def test_eq_1_5_bits(self, e):
        with mp.workprec(e + 48):
            target = _hp_tolerance(e) / 8
            assert pfq(_SIX_F_FIVE, target, precision=e + 48) == _pfq_unit_mpf(_SIX_F_FIVE, target, e + 48)

    def test_wan_moments_bits(self):
        # _suite_plan at 96 bits: wan_moment_check's tolerance / 16, at 104 bits
        with mp.workprec(128):
            target = max(_hp_tolerance(96), mp.mpf("1e-14")) / 8 / 16
        for m in range(7):
            spec = _wan_4f3(m)
            with mp.workprec(112):
                assert pfq(spec, target, precision=104) == _pfq_unit_mpf(spec, target, 104), m

    @pytest.mark.parametrize("precision", [144, 1047])
    def test_catalan_bits(self, precision):
        # eq-1.1 calls catalan(144); compute catalan --digits 300 calls 1047.
        # catalan sums Bradley's 3F2 at 1/4; the Levin route on the 3F2 at
        # -1, at precision + 8 bits and target 2^-(precision+4), rounds to
        # the same bits
        ref = _pfq_unit_mpf(_CATALAN_3F2, mp.mpf(2) ** -(precision + 4), precision + 8)
        assert catalan(precision) == mp.mpf(ref, prec=precision)

    @pytest.mark.parametrize("precision", [64, 200, 400, 700])
    def test_within_target(self, precision):
        # pfq's Richardson route within the target of the Levin oracle, and
        # the oracle's alternating case within the target of G
        for slack in (40, 48):
            target = mp.mpf(2) ** -(precision - slack)
            for spec in (_SIX_F_FIVE, _wan_4f3(0), _wan_4f3(5)):
                value = pfq(spec, target, precision=precision)
                assert abs(value - _pfq_unit_mpf(spec, target, precision)) <= target, (spec, slack)
            value = _pfq_unit_mpf(_CATALAN_3F2, target, precision)
            with mp.workprec(precision + 64):
                assert abs(value - mp.catalan) <= target, slack

    @pytest.mark.parametrize("precision", [32, 175, 437, 535, 600])
    def test_catalan_against_mpmath(self, precision):
        # within half an ulp of G (correctly rounded) plus 2^-(p+4); at 175,
        # 437 and 535 bits G sits near a rounding tie
        with mp.workprec(precision + 64):
            bound = mp.mpf(2) ** -(precision + 1) + mp.mpf(2) ** -(precision + 4)
            assert abs(catalan(precision) - mp.catalan) <= bound


class TestPfqRichardson:
    # pfq at x = 1 with an integer tail exponent extrapolates its int partial
    # sums by Richardson's weights; it refuses every other unit argument

    _SPECS = [_SIX_F_FIVE] + [_wan_4f3(m) for m in range(7)]

    @pytest.mark.parametrize("precision", [64, 96, 144, 400, 1047])
    def test_against_levin_and_twice_the_precision(self, precision):
        # within the target of the Levin oracle, and equal to a reference at
        # 2 precision bits rounded to precision (up to 2^-8 of an ulp):
        # mpmath's hyper up to 144 bits, pfq itself, with other (n, m) and
        # w, beyond (hyper takes seconds there)
        target = mp.mpf(2) ** -(precision - 40)
        for spec in self._SPECS:
            value = pfq(spec, target, precision=precision)
            assert abs(value - _pfq_unit_mpf(spec, target, precision)) <= target, spec
            if precision <= 144:
                ref = _hyper(spec, 2 * precision)
            else:
                ref = pfq(spec, mp.mpf(2) ** -(2 * precision), precision=2 * precision)
            with mp.workprec(2 * precision):
                assert _close_to(value, ref, precision), spec

    def test_routes(self, monkeypatch):
        # integer tail exponents at +1 reach Richardson, once per spec at
        # least; G's alternating 3F2 at -1 and Watson's 3F2 (rho = 3/2) are
        # refused before any partial sum is formed
        extrapolate = precision.richardson
        calls = []

        def counted(sums, n):
            calls.append(n)
            return extrapolate(sums, n)

        monkeypatch.setattr(precision, "richardson", counted)
        alpha_one = PFQSpec([Fraction(1, 2)] * 3, [Fraction(1), Fraction(3, 2)], 1)
        for spec in self._SPECS + [alpha_one]:
            calls.clear()
            pfq(spec, mp.mpf(2) ** -100, precision=128)
            assert calls, spec
        watson = PFQSpec([Fraction(1, 2)] * 3, [Fraction(1)] * 2, 1)
        for spec in (_CATALAN_3F2, watson):
            calls.clear()
            with pytest.raises(ValueError):
                pfq(spec, mp.mpf(2) ** -40, precision=96)
            assert calls == [], spec

    def test_missed_target_raises(self):
        # 2^-4000 needs more than the 1280-term cap (R(2m, m) gains about
        # 5.3 bits per m); the best value, R(854, 426), comes with the error
        with pytest.raises(NoConvergence, match="^pFq extrapolation stalled") as info:
            pfq(_SIX_F_FIVE, mp.mpf(2) ** -4000, precision=4000)
        assert info.value.terms == 1280
        ref = pfq(_SIX_F_FIVE, mp.mpf(2) ** -1100, precision=1100)
        with mp.workprec(4000):
            assert abs(info.value.best - ref) < mp.mpf(2) ** -1090

    @pytest.mark.parametrize("precision", [96, 300])
    def test_gauss_sum_with_growing_terms(self, precision):
        # 2F1(a, a; 2a+1; 1) = C(2a, a) by Gauss's theorem, and rho = 2;
        # the terms first grow, by ratios up to a^2 / (2a+1), so the floors'
        # amplification passes its allowance and the sums are taken wider
        for a in (2, 12, 16):
            spec = PFQSpec([a, a], [2 * a + 1], 1)
            assert pfq(spec, mp.mpf(2) ** -(precision + 4), precision=precision) == math.comb(2 * a, a)


class TestExpIntegral:
    def test_scipy_grid(self):
        for x in (0.1, 0.5, 1.0, 2.0, 3.9, 4.1, 6.0, 15.0, 40.0):
            with mp.workprec(80):
                v = float(exp_integral_e1(x, 80))
            assert abs(v - scipy.special.exp1(x)) <= 1e-13 * max(1.0, scipy.special.exp1(x))

    def test_high_precision_vs_mpmath(self):
        with mp.workprec(200):
            for x in ("0.25", "1", "3.5", "4", "9"):
                xx = mp.mpf(x)
                assert abs(exp_integral_e1(xx, 192) - mp.e1(xx)) < mp.mpf(2) ** -185

    def test_crossover_consistency(self):
        # the route switch at 160 bits: lo takes the series and hi, the next
        # float up, the continued fraction.  Their E1 values must differ by
        # the integral of e^-t / t between them (midpoint rule, off by
        # under 2^-148 relative), to within the two roundings.
        bits = 160 + 24
        lo, hi = 1.0, 1000.0
        assert _e1_uses_series(lo, bits) and not _e1_uses_series(hi, bits)
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _e1_uses_series(mid, bits) else (lo, mid)
        with mp.workprec(192):
            below = exp_integral_e1(lo, 160)
            above = exp_integral_e1(hi, 160)
            m = (mp.mpf(lo) + hi) / 2
            gap = (mp.mpf(hi) - lo) * mp.exp(-m) / m
            assert abs(below - above - gap) < below * mp.mpf(2) ** -140
            for x, v in ((lo, below), (hi, above)):
                assert _close_to(v, mp.e1(x), 160), x

    @pytest.mark.parametrize("precision", [64, 96, 192])
    def test_mellin_nodes(self, precision):
        # every E1 argument of L(f,s) and L(h,s) at this precision, against
        # mpmath 64 bits higher and bit for bit against the mpf route
        for x in _mellin_nodes(precision):
            v = exp_integral_e1(x, precision)
            with mp.workprec(precision + 64):
                assert _close_to(v, mp.e1(x), precision), x
            assert v == _e1_mpf(x, precision), x

    def test_mellin_nodes_headline_precision(self):
        # L(f,4) at 300 digits runs E1 at 1103 bits
        nodes = _mellin_nodes(1103)
        for x in nodes:
            with mp.workprec(1103 + 64):
                assert _close_to(exp_integral_e1(x, 1103), mp.e1(x), 1103), x
        for x in nodes[::8]:
            assert exp_integral_e1(x, 1103) == _e1_mpf(x, 1103), x

    def test_both_routes_at_high_precision(self):
        # x on both sides of the 1103-bit switch, against mpmath
        for x in ("0.001", "2.5", "40", "100", "130", "600"):
            with mp.workprec(1103 + 64):
                xx = mp.mpf(x)
                assert _close_to(exp_integral_e1(xx, 1103), mp.e1(xx), 1103), x
        assert _e1_uses_series(100.0, 1103 + 24) and not _e1_uses_series(130.0, 1103 + 24)

    def test_extreme_arguments(self):
        # outside the float range of the route estimates; powers of two, so
        # that rounding x to the working precision does not move E1(x)
        for e in (-1330, 1330):
            with mp.workprec(192):
                xx = mp.ldexp(1, e)
                assert _close_to(exp_integral_e1(xx, 128), mp.e1(xx), 128), e

    def test_domain(self):
        with pytest.raises(ValueError):
            exp_integral_e1(0)
        with pytest.raises(ValueError):
            exp_integral_e1(-1)


class TestGammaUpperInt:
    def test_s_zero_is_e1(self):
        with mp.workprec(128):
            x = mp.mpf("2.3")
            assert gamma_upper_int(0, x, 128) == exp_integral_e1(x, 128)

    def test_elementary_forms(self):
        # Gamma(4, x) = e^-x (x^3 + 3x^2 + 6x + 6), Gamma(3, x) = e^-x (x^2 + 2x + 2)
        with mp.workprec(160):
            x = mp.mpf("1.7")
            g4 = mp.exp(-x) * (x ** 3 + 3 * x ** 2 + 6 * x + 6)
            g3 = mp.exp(-x) * (x ** 2 + 2 * x + 2)
            assert abs(gamma_upper_int(4, x, 160) - g4) < mp.mpf(2) ** -150
            assert abs(gamma_upper_int(3, x, 160) - g3) < mp.mpf(2) ** -150

    @given(st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_recurrence(self, s, xf):
        # Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x
        with mp.workprec(128):
            x = mp.mpf(repr(xf))
            lhs = gamma_upper_int(s + 1, x, 128)
            rhs = s * gamma_upper_int(s, x, 128) + x ** s * mp.exp(-x)
            assert abs(lhs - rhs) <= abs(lhs) * mp.mpf(2) ** -110

    def test_small_x_limit(self):
        with mp.workprec(128):
            v = gamma_upper_int(4, mp.mpf(10) ** -30, 128)
            assert abs(v - 6) < mp.mpf(10) ** -28

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_upper_int(-1, 1.0)
