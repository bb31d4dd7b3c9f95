"""Tests for the precision core: Levin acceleration and exact rationals."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from mahlerlab.precision import AccelResult, accelerate


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
