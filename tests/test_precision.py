"""Tests for the precision core: Levin and Richardson acceleration and
exact rationals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

import mahlerlab.precision as precision
from mahlerlab.precision import AccelResult, accelerate, fixed_bits, from_fixed, richardson, to_fixed


def _partial_sums(term, count, work_bits=400):
    with mp.workprec(work_bits):
        out = []
        tot = mp.mpf(0)
        for n in range(count):
            tot += term(n)
            out.append(tot)
        return out


class TestAccelerate:
    def test_levin_u_ramanujan_type_series(self):
        # 200 terms of sum_{n>=1} (4n+1)/((2n)(2n+1)) C(2n,n)^4 / 2^(8n),
        # whose limit is -14 zeta(3)/pi^2 + 4 log 2 - 1
        def term(j):
            n = j + 1
            c = mp.mpf(math.comb(2 * n, n))
            return mp.mpf(4 * n + 1) / ((2 * n) * (2 * n + 1)) * c ** 4 / mp.mpf(2) ** (8 * n)

        s = _partial_sums(term, 200, work_bits=500)
        r = accelerate(s, precision=128)
        with mp.workprec(160):
            expected = -14 * mp.zeta(3) / mp.pi ** 2 + 4 * mp.log(2) - 1
            assert abs(r.value - expected) < mp.mpf("1e-12")

    def test_three_digits_per_doubling(self):
        with mp.workprec(400):
            truth = mp.pi ** 2 / 6
        err = {}
        for count in (16, 32):
            s = _partial_sums(lambda n: mp.mpf(n + 1) ** -2, count)
            r = accelerate(s, precision=200)
            with mp.workprec(240):
                err[count] = abs(r.value - truth)
        gained = mp.log10(err[16] / err[32])
        assert gained >= 3

    def test_error_estimate_not_wildly_optimistic(self):
        s = _partial_sums(lambda n: mp.mpf(n + 1) ** -2, 40)
        r = accelerate(s, precision=128)
        with mp.workprec(200):
            actual = abs(r.value - mp.pi ** 2 / 6)
        assert actual < max(r.error_estimate * 100, mp.mpf(10) ** -36)

    def test_too_few_terms(self):
        with pytest.raises(ValueError):
            accelerate([mp.mpf(1)] * 7)

    def test_oscillating_input_flagged(self):
        # partial sums of a non-smooth sequence: random-ish sign pattern
        vals = [mp.mpf(x) for x in (1, 5, 2, 7, 1, 6, 2, 8, 1, 7, 3, 9)]
        r = accelerate(vals, precision=64)
        assert isinstance(r, AccelResult)
        assert r.low_confidence


def _levin_u_diagonal_mpf(s):
    """The mpf Levin-u table (beta = 1) with the textbook column factor
    c = (b+n)(b+n+k)^(k-1) / (b+n+k+1)^k: the oracle for the integer table
    in precision._levin_u_diagonal."""
    beta = mp.mpf(1)
    a = [s[0]] + [s[i] - s[i - 1] for i in range(1, len(s))]
    for i, ai in enumerate(a):
        if ai == 0 and i > 0:
            return [s[i]]
    num = [s[i] / ((beta + i) * a[i]) for i in range(len(s))]
    den = [1 / ((beta + i) * a[i]) for i in range(len(s))]
    diag = [num[0] / den[0]]
    m = len(s)
    for k in range(m - 1):
        for n in range(m - 1 - k):
            bn = beta + n
            c = bn * (bn + k) ** (k - 1) / (bn + k + 1) ** k
            num[n] = num[n + 1] - c * num[n]
            den[n] = den[n + 1] - c * den[n]
        if den[0] == 0:
            break
        diag.append(num[0] / den[0])
    return diag


def _6f5_partial_sums(count, work_bits):
    """Partial sums of 6F5(3/2,3/2,3/2,3/2,1,1; 2,2,2,2,2; 1), thm-1.1's
    series, from exact rational terms."""
    t = Fraction(1)
    tot = Fraction(0)
    out = []
    for n in range(count):
        tot += t
        out.append(tot)
        t = t * (Fraction(3, 2) + n) ** 4 * (1 + n) ** 2 / ((2 + n) ** 5 * (n + 1))
    with mp.workprec(work_bits):
        return [mp.mpf(x.numerator) / x.denominator for x in out]


_SERIES = {
    "n^-2": lambda count, bits: _partial_sums(lambda n: mp.mpf(n + 1) ** -2, count, bits),
    "n^-3": lambda count, bits: _partial_sums(lambda n: mp.mpf(n + 1) ** -3, count, bits),
    "alternating": lambda count, bits: _partial_sums(
        lambda n: mp.mpf(-1) ** n / (2 * n + 1) ** 2, count, bits
    ),
    "6F5": _6f5_partial_sums,
}


class TestLevinAgainstMpfOracle:
    """accelerate on the integer table against accelerate on the mpf table.

    The integer table is exact once its first column is rounded; the mpf one
    rounds every entry.  So the values agree to well inside the error
    estimate, and the estimates agree to within a factor 4 once both are
    clamped at 2^-(base+8) |value|: below the precision accelerate returns,
    an estimate measures only the rounding noise of the deepest columns."""

    @pytest.mark.parametrize("name", sorted(_SERIES))
    @pytest.mark.parametrize("base,count", [(96, 40), (96, 120), (540, 160), (1800, 96)])
    def test_matches_oracle(self, monkeypatch, name, base, count):
        s = _SERIES[name](count, base + int(1.2 * count) + 96)
        got = accelerate(s, precision=base)
        monkeypatch.setattr(precision, "_levin_u_diagonal", _levin_u_diagonal_mpf)
        want = accelerate(s, precision=base)
        assert got.low_confidence == want.low_confidence
        with mp.workprec(base + 64):
            gap = abs(got.value - want.value)
            assert gap <= want.error_estimate / 8 + abs(want.value) * mp.mpf(2) ** -base
            floor = abs(want.value) * mp.mpf(2) ** -(base + 8)
            ratio = max(got.error_estimate, floor) / max(want.error_estimate, floor)
            assert mp.mpf(1) / 4 <= ratio <= 4, (name, base, count, mp.nstr(ratio, 4))

    def test_low_confidence_matches_oracle(self, monkeypatch):
        vals = [mp.mpf(x) for x in (1, 5, 2, 7, 1, 6, 2, 8, 1, 7, 3, 9)]
        got = accelerate(vals, precision=64)
        monkeypatch.setattr(precision, "_levin_u_diagonal", _levin_u_diagonal_mpf)
        want = accelerate(vals, precision=64)
        assert got.low_confidence and want.low_confidence
        assert got.value == want.value


class TestRichardson:
    @pytest.mark.parametrize("n, m", [(1, 1), (5, 3), (20, 10), (60, 30)])
    def test_polynomials_in_one_over_j_within_the_floor_bound(self, n, m):
        # S_j = c_0 + c_1/j + ... + c_m/j^m floored at w bits: the weights
        # cancel every c_k with k >= 1, so only the floors remain, each
        # under one unit, amplified by at most sum |w_k| <= 2^m (n+m)^m / m!
        import random

        rng = random.Random(n * 1000 + m)
        coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3)) for _ in range(m + 1)]
        w = 300
        sums = []
        for j in range(n, n + m + 1):
            value = sum(c / Fraction(j) ** k for k, c in enumerate(coeffs))
            sums.append(math.floor(value * 2 ** w))
        weights = sum(math.comb(m, k) * (n + k) ** m for k in range(m + 1)) / Fraction(math.factorial(m))
        assert weights <= Fraction(2 ** m * (n + m) ** m, math.factorial(m))
        assert abs(richardson(sums, n) - coeffs[0] * 2 ** w) <= weights + 1

    def test_basel_sum(self):
        # S_j = sum_(i<=j) 1/i^2 = pi^2/6 - 1/j + 1/(2j^2) - ...; from 91
        # partial sums the extrapolant is within 2^-150 of the limit
        w = 400
        sums, total = [], 0
        for i in range(1, 91):
            total += (1 << w) // (i * i)
            if i >= 60:
                sums.append(total)
        with mp.workprec(w):
            assert abs(from_fixed(richardson(sums, 60), w) - mp.pi ** 2 / 6) < mp.mpf(2) ** -150


class TestFixedPoint:
    def test_round_trip(self):
        with mp.workprec(200):
            x = mp.pi / 7
            w = fixed_bits()
            assert w == 200 + precision.FIXED_GUARD_BITS
            assert from_fixed(to_fixed(x, w), w) == x
            assert to_fixed(x, w) == mp.floor(x * mp.mpf(2) ** w)
            assert to_fixed(-x, 100) == -to_fixed(x, 100) - 1  # floor, not truncation

    def test_from_fixed_exact_or_rounded_once(self):
        # without prec the conversion is exact; with it, one rounding to
        # prec bits whatever the ambient precision
        v = 3 ** 200 + 1
        with mp.workprec(400):
            exact = from_fixed(v, 300)
            assert exact * mp.mpf(2) ** 300 == v
        for prec in (53, 96, 160):
            with mp.workprec(prec):
                want = +exact
                assert -from_fixed(-v, 300, prec) == want
            assert from_fixed(v, 300, prec) == want

    def test_ratio_rounds_once(self):
        with mp.workprec(80):
            assert precision.fixed_ratio(1, 3) == mp.mpf(1) / 3
            assert precision.fixed_ratio(-(10 ** 400), 7 * 10 ** 399) == mp.mpf(-10) / 7


_rationals = st.fractions(
    min_value=Fraction(-10 ** 12), max_value=Fraction(10 ** 12), max_denominator=10 ** 6
)


class TestRationalExactness:
    @given(_rationals, _rationals)
    def test_add_sub_roundtrip(self, a, b):
        assert (a + b) - b == a

    @given(_rationals, _rationals)
    def test_mul_div_roundtrip(self, a, b):
        if b != 0:
            assert (a * b) / b == a

    def test_lowest_terms(self):
        x = Fraction(6, 4)
        assert x.numerator == 3 and x.denominator == 2
        assert Fraction(3, -2).denominator == 2
