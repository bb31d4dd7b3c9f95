"""Tests for q-expansions, newform coefficients, L-values, and the
functional equation check."""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from mahlerlab import special
from mahlerlab.quadrature import tanh_sinh_interval
from mahlerlab.modular import (
    NEWFORM_F,
    NEWFORM_H,
    FunctionalEquationViolation,
    NewformSpec,
    QSeries,
    ResourceLimitError,
    _axis_series,
    _axis_window,
    _recipe_f,
    _recipe_h,
    _side_e1,
    _side_elementary,
    _sigma_sieve,
    axis_mellin,
    eta_qexp,
    fricke_check,
    l_prime_at_0,
    l_value,
    newform_coefficient,
    theta_psi,
)


def naive_mul(a, b, order):
    """Schoolbook truncated product of coefficient lists (test oracle)."""
    out = [0] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        for j, cb in enumerate(b[: order + 1 - i]):
            out[i + j] += ca * cb
    return out


def h_coefficient_oracle(n_max):
    """a_n of the weight-3 CM form as the lattice sum of x^2 - y^2 over
    x^2 + y^2 = n with x odd positive, y any integer."""
    out = [0] * (n_max + 1)
    x = 1
    while x * x <= n_max:
        y = 0
        while x * x + y * y <= n_max:
            n = x * x + y * y
            w = x * x - y * y
            out[n] += w if y == 0 else 2 * w
            y += 1
        x += 2
    return out


def theta_phi(order):
    """phi(q) = 1 + 2 sum q^(n^2)."""
    out = [0] * (order + 1)
    out[0] = 1
    n = 1
    while n * n <= order:
        out[n * n] = 2
        n += 1
    return QSeries(tuple(out), order)


def dilate_alternating(series, scale):
    """series(-q^scale)."""
    out = [0] * (series.order * scale + 1)
    for i, c in enumerate(series.coeffs):
        out[i * scale] = -c if i % 2 else c
    return QSeries(tuple(out), series.order * scale)


def psi4_phi4_coefficients(n_max: int) -> np.ndarray:
    """Exact coefficients of q psi^4(q^2) phi^4(-q^2) through q^n_max, an
    independent route to f's coefficients.

    q psi^4(q^2) = sum over odd m of sigma(m) q^m and phi^4(-q^2) has
    coefficient (-1)^j 8 sigma*(j) at q^(2j) with sigma*(j) = sigma(j) -
    4 sigma(j/4); the product is one integer convolution, done as two
    float64 FFT convolutions after a 9-bit split of the first factor, with
    an integrality check on reassembly.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sig = np.asarray(_sigma_sieve(n_max))
    a = np.zeros(n_max + 1, dtype=np.int64)
    odd = np.arange(1, n_max + 1, 2)
    a[odd] = sig[odd]
    b = np.zeros(n_max + 1, dtype=np.int64)
    b[0] = 1
    j = np.arange(1, n_max // 2 + 1)
    sig_star = sig[j].copy()
    j4 = j[j % 4 == 0]
    sig_star[j4 - 1] -= 4 * sig[j4 // 4]
    b[2 * j] = np.where(j % 2 == 1, -8, 8) * sig_star

    a_hi, a_lo = a >> 9, a & 511
    size = 1
    while size < 2 * (n_max + 1):
        size *= 2
    fb = np.fft.rfft(b, size)
    conv_hi = np.fft.irfft(np.fft.rfft(a_hi, size) * fb, size)[: n_max + 1]
    conv_lo = np.fft.irfft(np.fft.rfft(a_lo, size) * fb, size)[: n_max + 1]
    hi = np.rint(conv_hi)
    lo = np.rint(conv_lo)
    resid = max(np.abs(conv_hi - hi).max(), np.abs(conv_lo - lo).max())
    if resid > 0.25:
        raise ArithmeticError(f"FFT convolution residual {resid} too large to round")
    return (hi.astype(np.int64) << 9) + lo.astype(np.int64)


def loop_mul(a, b):
    """The truncated product as a nested loop over the sparser factor's
    support (test oracle for QSeries.__mul__'s Kronecker substitution)."""
    n = min(a.order, b.order)
    out = [0] * (n + 1)
    nnz = lambda s: sum(1 for c in s.coeffs if c)
    a, b = (a, b) if nnz(a) <= nnz(b) else (b, a)
    for i, ca in enumerate(a.coeffs):
        if ca == 0 or i > n:
            continue
        for j, cb in enumerate(b.coeffs[: n - i + 1]):
            if cb:
                out[i + j] += ca * cb
    return QSeries(tuple(out), n)


def _repeated_product(factors, order):
    """The series 1 through q^order times each factor in turn (test oracle
    for QSeries.__pow__'s binary powering)."""
    out = QSeries((1,) + (0,) * order, order)
    for factor in factors:
        out = out * factor
    return out


small_series = st.builds(
    lambda cs: QSeries(tuple(cs), len(cs) - 1),
    st.lists(st.integers(-9, 9), min_size=1, max_size=12),
)

# signed coefficients, some past 2^64, sparse runs of zeros and the zero
# series; orders 0 to 39, drawn apart for the two factors
wide_series = st.builds(
    lambda cs: QSeries(tuple(cs), len(cs) - 1),
    st.lists(
        st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2 ** 80), 2 ** 80)),
        min_size=1,
        max_size=40,
    ),
)


class TestQSeries:
    def test_product_by_hand(self):
        one_plus_q = QSeries((1, 1, 0, 0), 3)
        sq = one_plus_q * one_plus_q
        assert sq.coeffs == (1, 2, 1, 0)

    def test_power_matches_repeated_product(self):
        s = QSeries((1, -1, 2, 0, 3, 0, 0, 0), 7)
        assert (s ** 3).coeffs == (s * s * s).coeffs

    @pytest.mark.parametrize("e", [0, 1, 2, 4, 5, 6, 7, 8, 9])
    def test_small_powers_match_repeated_products(self, e):
        # x^0 is the series 1; the rest start from their lowest set bit
        s = QSeries((1, -1, 2, 0, 3, 0, 0, 0), 7)
        assert (s ** e).coeffs == _repeated_product([s] * e, 7).coeffs

    def test_recipes_and_psi4_match_repeated_products(self):
        # the recipes' and qexp-ramanujan's powers, against each factor
        # multiplied in one at a time from the series 1
        order = 2784
        e2, _ = eta_qexp(2, order)
        e4, _ = eta_qexp(4, order)
        f_ref = _repeated_product([e2] * 4 + [e4] * 4, order).shift(1)
        h_ref = _repeated_product([e4] * 6, order).shift(1)
        assert _recipe_f(order).coeffs == f_ref.coeffs
        assert _recipe_h(order).coeffs == h_ref.coeffs
        psi2 = theta_psi(100).dilate(2)
        assert (psi2 ** 4).coeffs == _repeated_product([psi2] * 4, 200).coeffs

    def test_product_truncation_is_min_of_operands(self):
        a = QSeries((1, 1, 1), 2)
        b = QSeries((1,) * 6, 5)
        assert (a * b).order == 2

    def test_shift_and_dilate(self):
        s = QSeries((1, 2, 3), 2)
        assert s.shift(2).coeffs == (0, 0, 1, 2, 3)
        d = s.dilate(2)
        assert d.coeffs == (1, 0, 2, 0, 3)

    def test_getitem_past_order_is_zero(self):
        s = QSeries((1, 2), 1)
        assert s[5] == 0

    @given(small_series, small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_and_matches_schoolbook(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.coeffs == rhs.coeffs
        n = min(a.order, b.order)
        assert list((a * b).coeffs) == naive_mul(list(a.coeffs), list(b.coeffs), n)

    @given(wide_series, wide_series)
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_nested_loop(self, a, b):
        assert (a * b).coeffs == loop_mul(a, b).coeffs
        assert (a * a).coeffs == loop_mul(a, a).coeffs

    @pytest.mark.parametrize(
        "a, b",
        [
            ((0,), (5,)),                            # order 0, zero series
            ((-3,), (2 ** 64 + 1,)),                 # order 0, past 2^64
            ((0, 0, 0), (1, -1, 1, -1, 1)),          # zero series, unequal orders
            ((2 ** 64, -(2 ** 64)), (2 ** 64 - 1, 7, 9)),
            ((-1,) * 30, (-(2 ** 90),) * 20),        # every slot negative
            ((1, 0, 0, 0, -(2 ** 70)), (0, 0, 0, 0, 3)),
        ],
    )
    def test_mul_edge_cases(self, a, b):
        a, b = QSeries(a, len(a) - 1), QSeries(b, len(b) - 1)
        assert (a * b).coeffs == loop_mul(a, b).coeffs
        assert (b * a).coeffs == loop_mul(a, b).coeffs

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            QSeries((1, 2), 3)
        with pytest.raises(ValueError):
            QSeries((1,), 0) ** -1


class TestEta:
    def test_pentagonal_signs(self):
        s, pref = eta_qexp(1, 60)
        assert pref == Fraction(1, 24)
        # generalized pentagonal numbers with signs (-1)^j for j = 1,-1,2,-2,...
        expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1,
                    22: 1, 26: 1, 35: -1, 40: -1, 51: 1, 57: 1}
        for n in range(61):
            assert s[n] == expected.get(n, 0)

    def test_scaled_support(self):
        s, pref = eta_qexp(2, 50)
        assert pref == Fraction(1, 12)
        assert all(s[n] == 0 for n in range(51) if n % 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            eta_qexp(0, 10)
        with pytest.raises(ValueError):
            eta_qexp(2, 0)


class TestTheta:
    def test_psi_triangular(self):
        s = theta_psi(30)
        tri = {n * (n + 1) // 2 for n in range(8)}
        for n in range(31):
            assert s[n] == (1 if n in tri else 0)

    def test_phi_squares(self):
        s = theta_phi(30)
        assert s[0] == 1
        for n in range(1, 31):
            assert s[n] == (2 if math.isqrt(n) ** 2 == n else 0)

    def test_psi4_lattice_identity(self):
        # q psi(q^2)^4 = sum over n,k >= 0 of (2n+1) q^((2n+1)(2k+1))
        order = 60
        lhs = (theta_psi(order).dilate(2) ** 4).shift(1)
        rhs = [0] * (order + 1)
        for n in range(order):
            for k in range(order):
                e = (2 * n + 1) * (2 * k + 1)
                if e > order:
                    break
                rhs[e] += 2 * n + 1
        for m in range(order + 1):
            assert lhs[m] == rhs[m]

    def test_psi4_divisor_sums(self):
        # equivalent form: the q^m coefficient is sigma(m) for odd m, 0 else
        order = 120
        lhs = (theta_psi(order).dilate(2) ** 4).shift(1)
        for m in range(1, order + 1):
            want = sum(d for d in range(1, m + 1) if m % d == 0) if m % 2 else 0
            assert lhs[m] == want

    def test_domain(self):
        with pytest.raises(ValueError):
            theta_psi(0)


class TestNewformF:
    def test_first_coefficients_against_naive_product(self):
        # oracle: schoolbook expansion of q prod (1-q^(2n))^4 (1-q^(4n))^4
        order = 10
        prod = [1] + [0] * order
        for n in range(1, order + 1):
            for scale in (2, 4):
                if scale * n > order:
                    continue
                factor = [0] * (order + 1)
                factor[0] = 1
                factor[scale * n] = -1
                for _ in range(4):
                    prod = naive_mul(prod, factor, order)
        want = [0] + prod[:order]  # shift by q^1
        got = _recipe_f(order)
        for n in range(order + 1):
            assert got[n] == want[n]

    def test_quoted_values(self):
        vals = {1: 1, 2: 0, 3: -4, 5: -2, 7: 24, 9: -11, 15: 8}
        for n, a in vals.items():
            assert newform_coefficient(NEWFORM_F, n) == a

    def test_even_coefficients_vanish(self):
        assert all(newform_coefficient(NEWFORM_F, 2 * k) == 0 for k in range(1, 21))

    def test_theta_product_identity_to_200(self):
        order = 200
        psi2 = theta_psi(order).dilate(2)
        phi2 = dilate_alternating(theta_phi(order), 2)
        lhs = (psi2 ** 4).shift(1) * (phi2 ** 4)
        f = _recipe_f(order)
        for n in range(order + 1):
            assert lhs[n] == f[n]

    def test_hecke_multiplicativity(self):
        for m in range(1, 101):
            for n in range(1, 101):
                if math.gcd(m, n) == 1:
                    assert newform_coefficient(NEWFORM_F, m * n) == (
                        newform_coefficient(NEWFORM_F, m)
                        * newform_coefficient(NEWFORM_F, n)
                    )

    def test_hecke_prime_square_relation(self):
        for p in range(2, 51):
            if any(p % d == 0 for d in range(2, p)):
                continue
            ap = newform_coefficient(NEWFORM_F, p)
            ap2 = newform_coefficient(NEWFORM_F, p * p)
            if 8 % p == 0:
                assert ap2 == ap * ap
            else:
                assert ap2 == ap * ap - p ** 3

    def test_deligne_bound(self):
        for p in range(2, 201):
            if any(p % d == 0 for d in range(2, p)):
                continue
            ap = newform_coefficient(NEWFORM_F, p)
            assert ap * ap <= 4 * p ** 3

    def test_cache_growth_is_consistent(self):
        spec = NewformSpec(name="f2", weight=4, level=8, fricke_sign=1,
                           recipe=_recipe_f)
        a500 = spec.coefficient(500)
        assert spec.coefficient(3) == -4
        assert spec.coefficient(500) == a500
        assert newform_coefficient(NEWFORM_F, 500) == a500

    def test_cache_growth_stops_below_the_limit(self, monkeypatch):
        # doubling from the 62 entries that ensure(60) caches would ask the
        # recipe for order 124 under a limit of 100; it asks for 99
        monkeypatch.setattr("mahlerlab.modular._COEFF_LIMIT", 100)
        orders = []

        def recipe(order):
            orders.append(order)
            return _recipe_f(order)

        spec = NewformSpec(name="f3", weight=4, level=8, fricke_sign=1, recipe=recipe)
        spec.ensure(60)
        spec.ensure(90)
        assert orders == [60, 99]
        assert spec.cached_order() == 100  # _recipe_f's factor q adds one
        assert spec.coefficient(99) == _recipe_f(99)[99]
        with pytest.raises(ResourceLimitError):
            spec.ensure(100)

    def test_coefficient_domain(self):
        with pytest.raises(ValueError):
            newform_coefficient(NEWFORM_F, 0)
        with pytest.raises(ResourceLimitError):
            newform_coefficient(NEWFORM_F, 10 ** 6)


class TestNewformH:
    def test_support_one_mod_four(self):
        for n in range(1, 200):
            if n % 4 != 1:
                assert newform_coefficient(NEWFORM_H, n) == 0

    def test_against_lattice_sum_oracle(self):
        oracle = h_coefficient_oracle(3000)
        for n in range(1, 3001):
            assert newform_coefficient(NEWFORM_H, n) == oracle[n]

    def test_quoted_values(self):
        vals = {1: 1, 5: -6, 9: 9, 13: 10, 17: -30, 25: 11, 29: 42}
        for n, a in vals.items():
            assert newform_coefficient(NEWFORM_H, n) == a

    def test_cm_primes_vanish(self):
        for p in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83):
            assert newform_coefficient(NEWFORM_H, p) == 0

    def test_hecke_with_character(self):
        # a_{p^2} = a_p^2 - chi(p) p^2 with chi the character mod 4
        for p in range(3, 51, 2):
            if any(p % d == 0 for d in range(2, p)):
                continue
            chi = 1 if p % 4 == 1 else -1
            ap = newform_coefficient(NEWFORM_H, p)
            assert newform_coefficient(NEWFORM_H, p * p) == ap * ap - chi * p * p

    def test_weight_three_coefficient_bound(self):
        for p in range(2, 201):
            if any(p % d == 0 for d in range(2, p)):
                continue
            ap = newform_coefficient(NEWFORM_H, p)
            assert ap * ap <= 4 * p ** 2


class TestBulkCoefficients:
    def test_matches_recipe_exactly(self):
        bulk = psi4_phi4_coefficients(3000)
        f = _recipe_f(3000)
        for n in range(3001):
            assert int(bulk[n]) == f[n]

    def test_domain(self):
        with pytest.raises(ValueError):
            psi4_phi4_coefficients(0)


class TestLValue:
    def test_f_at_4_against_raw_dirichlet(self):
        # oracle: plain truncated Dirichlet series over exact bulk coefficients
        bulk = psi4_phi4_coefficients(100000)
        raw = 0.0
        for n in range(100000, 0, -1):
            a = int(bulk[n])
            if a:
                raw += a / float(n) ** 4
        v = l_value(NEWFORM_F, 4, 64)
        assert abs(float(v) - raw) < 1e-9

    def test_h_at_3_against_lattice_oracle_series(self):
        oracle = h_coefficient_oracle(100000)
        raw = 0.0
        for n in range(100000, 0, -1):
            if oracle[n]:
                raw += oracle[n] / float(n) ** 3
        v = l_value(NEWFORM_H, 3, 64)
        # the raw series tail at 1e5 is ~ 1e-4 at best
        assert abs(float(v) - raw) < 1e-4

    def test_precision_scaling(self):
        lo = l_value(NEWFORM_F, 4, 64)
        hi = l_value(NEWFORM_F, 4, 192)
        with mp.workprec(200):
            assert abs(lo - hi) < mp.mpf(2) ** (16 - 64)

    def test_error_bound_claim(self):
        ref = l_value(NEWFORM_F, 4, 256)
        for p in (48, 64, 96, 128):
            v = l_value(NEWFORM_F, 4, p)
            with mp.workprec(280):
                assert abs(v - ref) <= mp.mpf(2) ** (16 - p)

    def test_values_are_positive(self):
        assert l_value(NEWFORM_F, 4, 64) > 0
        assert l_value(NEWFORM_H, 3, 64) > 0

    def test_integer_s_in_the_critical_range_only(self):
        # the Mellin split's Gamma(s, x) terms are elementary or E1 at
        # integer s; every other s is refused, not sent to a general gamma
        for s in (2.5, mp.mpf("3.5"), 0, 5, -1):
            with pytest.raises(ValueError, match="integer s in"):
                l_value(NEWFORM_F, s, 64)
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            l_value(NEWFORM_H, 4, 64)
        assert l_value(NEWFORM_F, 4.0, 64) == l_value(NEWFORM_F, 4, 64)
        assert l_value(NEWFORM_F, 1, 64) > 0


def _gamma_upper(s, x, bits):
    """Gamma(s, x) rounded to bits: E1 at s = 0, else mpmath's gammainc."""
    if s == 0:
        return special.gamma_upper_int(0, x, bits)
    with mp.workprec(bits):
        return mp.gammainc(s, x)


def l_value_symmetric(spec, s, precision):
    """L(spec, s) by the Mellin split at the balanced point u0 =
    1/sqrt(level), with both incomplete gammas of every term taken in mpf
    arithmetic at the term's reduced precision, Gamma(s, x) for s >= 1 by
    mpmath's gammainc and E1 by special.gamma_upper_int: the per-term route
    l_value's fixed-point sides replaced, kept as its oracle."""
    work = precision + 24
    r = spec.weight - s
    with mp.workprec(work):
        u0 = 1 / mp.sqrt(spec.level)
        target = (work + 8) * math.log(2)
        n_terms = max(16, int(target / (2 * math.pi * float(u0))))
        for _ in range(4):
            slack = (spec.weight / 2 + 1) * math.log(n_terms + 1)
            n_terms = int((target + slack) / (2 * math.pi * float(u0))) + 4
        spec.ensure(n_terms)
        two_pi = 2 * mp.pi
        decay = two_pi * u0 / math.log(2)
        total_s = total_r = mp.mpf(0)
        for n in range(1, n_terms + 1):
            a = spec._coeffs[n]
            if a:
                x = two_pi * n * u0
                bits = max(work - int(n * decay) + a.bit_length() + n.bit_length(), 32)
                total_s += a * _gamma_upper(s, x, bits) / (two_pi * n) ** s
                total_r += a * _gamma_upper(r, x, bits) / (two_pi * n) ** r
        level = mp.mpf(spec.level)
        lam = level ** (mp.mpf(s) / 2) * total_s
        lam += spec.fricke_sign * level ** (mp.mpf(r) / 2) * total_r
        v = lam * (two_pi * u0) ** s / math.factorial(s - 1)
    with mp.workprec(precision):
        return +v


def lambda_at_split(spec, s, split, work):
    """Lambda(s) from modular's side sums split at t0 = 1/(split sqrt(level)),
    each side elementary or E1 by its own s."""
    r = spec.weight - s
    with mp.workprec(work):
        root = mp.sqrt(spec.level)
        c, c_r = 2 * mp.pi / (split * root), 2 * mp.pi * split / root
        side_r = _side_elementary(spec, r, c_r, work) if r else _side_e1(spec, c_r, work)
        level = mp.mpf(spec.level)
        lam = level ** (mp.mpf(s) / 2) * _side_elementary(spec, s, c, work)
        return lam + spec.fricke_sign * level ** (mp.mpf(r) / 2) * side_r


class TestMellinSplit:
    """The fixed-point sides against the per-term route they replaced, and
    Lambda(s) at two split points (Dokchitser's split-independence check,
    which a wrong power or sign in a side sum fails)."""

    @pytest.mark.parametrize("p", [64, 160, 1047])
    @pytest.mark.parametrize("spec", [NEWFORM_F, NEWFORM_H], ids=["f", "h"])
    def test_matches_symmetric_route(self, spec, p):
        for s in range(1, spec.weight + 1):
            got = l_value(spec, s, p)
            want = l_value_symmetric(spec, s, p)
            with mp.workprec(p + 16):
                assert abs(got - want) <= abs(want) * mp.mpf(2) ** -(p + 8), s

    @pytest.mark.parametrize("p", [64, 160, 1047])
    @pytest.mark.parametrize("spec", [NEWFORM_F, NEWFORM_H], ids=["f", "h"])
    def test_split_independence(self, spec, p):
        work = p + 24
        for s in range(1, spec.weight + 1):
            balanced = lambda_at_split(spec, s, 1, work)
            moved = lambda_at_split(spec, s, 4, work)
            with mp.workprec(work):
                assert abs(balanced - moved) <= abs(moved) * mp.mpf(2) ** -(p + 8), s

    def test_wrong_sign_breaks_split_independence(self):
        # the negative control: with the sign flipped the two splits give
        # two different "Lambda(s)".  Below the weight l_value splits where
        # the oracle does, so it must still follow it there
        bad = NewformSpec(name="f-flipped", weight=4, level=8, fricke_sign=-1,
                          recipe=_recipe_f)
        for s in range(1, 5):
            balanced = lambda_at_split(bad, s, 1, 88)
            moved = lambda_at_split(bad, s, 4, 88)
            with mp.workprec(88):
                assert abs(balanced - moved) > abs(moved) * mp.mpf(2) ** -20, s
        for s in range(1, 4):
            got, want = l_value(bad, s, 64), l_value_symmetric(bad, s, 64)
            with mp.workprec(80):
                assert abs(got - want) <= abs(want) * mp.mpf(2) ** -72, s

    def test_headline_work(self, monkeypatch):
        # L(f,4) at 1,047 bits, as `compute L f 4 --digits 300` runs it:
        # 45 E1 terms (odd n <= 89) and no elementary Gamma call, from f's
        # coefficients through order 1,390 (the elementary side's n <= 1,389;
        # _recipe_f's factor q adds one).  Counts, unlike times, do not
        # depend on the host
        calls = Counter()
        kernel = special.gamma_upper_int

        def counted(s, x, precision=None):
            calls[s] += 1
            return kernel(s, x, precision)

        monkeypatch.setattr(special, "gamma_upper_int", counted)
        spec = replace(NEWFORM_F, _coeffs=[])
        l_value(spec, 4, 1047)
        assert calls == {0: 45}
        assert spec.cached_order() == 1390


class TestLPrimeAtZero:
    def test_f_closed_form(self):
        p = 128
        lp = l_prime_at_0(NEWFORM_F, p)
        with mp.workprec(p + 16):
            want = 24 * l_value(NEWFORM_F, 4, p + 16) / mp.pi ** 4
            assert abs(lp - want) < mp.mpf(2) ** (10 - p)

    def test_h_closed_form(self):
        p = 128
        lp = l_prime_at_0(NEWFORM_H, p)
        with mp.workprec(p + 16):
            want = 16 * l_value(NEWFORM_H, 3, p + 16) / mp.pi ** 3
            assert abs(lp - want) < mp.mpf(2) ** (10 - p)


def lambda_tanh_sinh(spec, s_values, p):
    """Lambda(s) = level^(s/2) int f(iu) u^(s-1) du on axis_mellin's window
    [delta, T], one tanh-sinh quadrature per s to 2^-(P+16) with f(iu)
    memoised per node: the oracle for modular.axis_mellin."""
    with mp.workprec(p + 48):
        delta, t_hi, step, coeffs = _axis_window(spec, p)
        memo = {}

        def f_iu(u):
            v = memo.get(u)
            if v is None:
                v = memo[u] = _axis_series(coeffs, step, mp.exp(-2 * mp.pi * u))
            return v

        tol = mp.mpf(2) ** (-(p + 16))
        out = []
        for s in s_values:
            s = mp.mpf(s)
            r = tanh_sinh_interval(lambda u: f_iu(u) * u ** (s - 1), delta, t_hi, tol,
                                   precision=p + 32)
            out.append(mp.mpf(spec.level) ** (s / 2) * r.value)
        return out


_PROBE_S = {"f": ("2.25", "1.75", "2.5", "1.5", "3.0", "1.0"),
            "h": ("2.25", "0.75", "2.5", "0.5", "3.0", "0.0")}


class TestAxisMellin:
    """One trapezoidal grid in log u against per-s tanh-sinh on the same
    window, and Lambda(0) against the Mellin split's L'(0)."""

    @pytest.mark.parametrize("p", [64, 96, 128])
    @pytest.mark.parametrize("spec", [NEWFORM_F, NEWFORM_H], ids=["f", "h"])
    def test_matches_tanh_sinh(self, spec, p):
        # worst measured: 1.9e-44 (f) and 1.7e-44 (h) at 128 bits, both
        # about 2^-(P+17); tanh-sinh's own 2^-(P+16) target dominates
        s_values = _PROBE_S[spec.name]
        got = axis_mellin(spec, s_values, p)
        want = lambda_tanh_sinh(spec, s_values, p)
        with mp.workprec(p + 48):
            gap = max(abs(a - b) / abs(b) for a, b in zip(got, want))
            assert gap <= mp.mpf(2) ** -(p + 14), mp.nstr(gap, 3)

    @pytest.mark.parametrize("p", [64, 96, 128])
    @pytest.mark.parametrize("spec", [NEWFORM_F, NEWFORM_H], ids=["f", "h"])
    def test_lambda_at_zero_is_l_prime_at_0(self, spec, p):
        # Lambda(0) = L'(0) (L(0) = 0, Gamma has a pole there); worst
        # measured 4.9e-45 relative, f at 128 bits
        lam0 = axis_mellin(spec, [0], p)[0]
        with mp.workprec(p + 48):
            want = l_prime_at_0(spec, p + 32)
            assert abs(lam0 - want) <= mp.mpf(2) ** -(p + 8) * abs(want)

    def test_values_keep_the_working_precision(self):
        # unrounded, so Lambda(1) - Lambda(3) keeps digits far below 2^-64
        lam = axis_mellin(NEWFORM_F, [1, "2.5", mp.mpf(3)], 64)
        assert len(lam) == 3
        with mp.workprec(112):
            assert 0 < abs(lam[0] - lam[2]) < mp.mpf(2) ** -80


class TestFrickeCheck:
    def test_f_asymmetry_small(self):
        assert fricke_check(NEWFORM_F, 64) < 1e-12

    def test_h_asymmetry_small(self):
        assert fricke_check(NEWFORM_H, 64) < 1e-12

    @pytest.mark.parametrize("p", [64, 96, 128, 160])
    @pytest.mark.parametrize("spec", [NEWFORM_F, NEWFORM_H], ids=["f", "h"])
    def test_asymmetry_bound(self, spec, p):
        # worst measured ratio to 2^-(P+8): 7.8e-6, h at 160 bits
        assert fricke_check(spec, p) <= mp.mpf(2) ** -(p + 8)

    @pytest.mark.parametrize("spec", [NEWFORM_F, NEWFORM_H], ids=["f", "h"])
    def test_returns_the_largest_probe_asymmetry(self, spec):
        # every probe pairs Lambda(s) with Lambda(weight - s), from the one
        # grid whose values do not depend on which s are asked for
        p = 64
        with mp.workprec(p + 48):
            asym = []
            for s in map(mp.mpf, ("2.25", "2.5", "3.0")):
                lam_s, lam_r = axis_mellin(spec, [s, spec.weight - s], p)
                asym.append(abs(lam_s - spec.fricke_sign * lam_r))
            want = max(asym)
        with mp.workprec(p):
            assert fricke_check(spec, p) == +want

    def test_flipped_sign_fails_loudly(self):
        bad = NewformSpec(name="f-flipped", weight=4, level=8, fricke_sign=-1,
                          recipe=_recipe_f)
        with pytest.raises(FunctionalEquationViolation) as exc:
            fricke_check(bad, 64)
        assert exc.value.asymmetry > exc.value.threshold

    @pytest.mark.parametrize("precision", [64, 96])
    @pytest.mark.parametrize(
        "name,weight,level,recipe,index",
        [("f", 4, 8, _recipe_f, 3), ("h", 3, 16, _recipe_h, 5)],
    )
    def test_perturbed_coefficient_fails(self, precision, name, weight, level, recipe, index):
        # a_index + 1 keeps the support stride, so only the symmetry can object
        bad = NewformSpec(name=f"{name}-a{index}+1", weight=weight, level=level,
                          fricke_sign=1, recipe=_bumped(recipe, index))
        with pytest.raises(FunctionalEquationViolation) as exc:
            fricke_check(bad, precision)
        assert exc.value.asymmetry > exc.value.threshold

    @pytest.mark.parametrize("precision, name, flips", [
        (64, "f", {401}),
        (64, "h", {401}),
        (96, "f", {401, 801}),
        (96, "h", {401, 801, 1201}),
    ])
    def test_perturbation_at_the_delta_end(self, precision, name, flips):
        # e^(-2 pi k u) from a_k + 1 lives below u ~ 1/(2 pi k), so the
        # asymmetry it leaves is its tail above delta, about
        # e^(-2 pi k delta)/(2 pi k): the grid must resolve the cancelling
        # sums at delta as finely as tanh-sinh did.  The flipping set is
        # the one per-s tanh-sinh gave on the same window
        weight, level, recipe = {"f": (4, 8, _recipe_f), "h": (3, 16, _recipe_h)}[name]
        flipped = set()
        for k in (401, 801, 1201):
            bad = NewformSpec(name=f"{name}-a{k}+1", weight=weight, level=level,
                              fricke_sign=1, recipe=_bumped(recipe, k))
            try:
                fricke_check(bad, precision)
            except FunctionalEquationViolation:
                flipped.add(k)
        assert flipped == flips

    def test_support_step(self):
        assert NEWFORM_F.support_step() == 2
        assert NEWFORM_H.support_step() == 4

    def test_stride_covers_every_coefficient_used(self):
        bad = NewformSpec(name="f-a100+1", weight=4, level=8, fricke_sign=1,
                          recipe=_bumped(_recipe_f, 100))
        # the first 64 coefficients alone would give stride 2 and skip a_100
        assert bad.support_step() == 2
        assert bad.support_step(200) == 1


def _bumped(recipe, index):
    """recipe with a_index raised by one."""

    def bumped(order):
        series = recipe(order)
        coeffs = list(series.coeffs)
        if index <= series.order:
            coeffs[index] += 1
        return QSeries(tuple(coeffs), series.order)

    return bumped


def _axis_series_mpf(spec, n_terms, x):
    """sum_{n <= n_terms} a_n x^n by the mpf power walk over the nonzero
    support: the oracle for modular._axis_series."""
    step = spec.support_step(n_terms)
    support = [(n, spec._coeffs[n]) for n in range(1, n_terms + 1) if spec._coeffs[n]]
    xs = x ** step
    pw = mp.mpf(1)
    at = 1
    v = mp.mpf(0)
    for n, a in support:
        while at < n:
            pw *= xs
            at += step
        v += a * pw
    return v * x


class TestAxisSeries:
    """f(iu) by the integer Horner against the mpf walk run 64 bits higher,
    at nodes spread geometrically over fricke_check's [delta, T].

    At P bits, with w = P + 32 and P(xs) = sum_i c_i xs^i the polynomial
    the Horner runs over, _axis_series promises
    |got - want| <= 2^(1-P) |want| + x 2^-w (len(c) + (step + 1) |P'(xs)|);
    the test allows twice the second term, with |P'| summed from |c_i|."""

    @pytest.mark.parametrize("p", [64, 96])
    @pytest.mark.parametrize("spec", [NEWFORM_F, NEWFORM_H], ids=["f", "h"])
    def test_matches_mpf_walk(self, spec, p):
        n_terms = 1600
        work = p + 48  # the precision axis_mellin runs f_iu at
        step = spec.support_step(n_terms)
        coeffs = spec._coeffs[1 : n_terms + 1 : step]
        with mp.workprec(work):
            ln2 = mp.log(2)
            delta = min(mp.mpf("0.008"), 2 * mp.pi / (spec.level * (p + 30) * ln2))
            t_hi = ((p + 20) * ln2 + 10) / (2 * mp.pi)
            nodes = [delta * (t_hi / delta) ** (mp.mpf(i) / 11) for i in range(12)]
        for u in nodes:
            with mp.workprec(work):
                x = mp.exp(-2 * mp.pi * u)
                got = _axis_series(coeffs, step, x)
            with mp.workprec(work + 64):
                want = _axis_series_mpf(spec, n_terms, x)
                xs = x ** step
                slope = sum(i * abs(c) * xs ** (i - 1) for i, c in enumerate(coeffs) if c and i)
                fixed = len(coeffs) + (step + 1) * slope
                bound = 2 * abs(want) * mp.mpf(2) ** -work + x * fixed * mp.mpf(2) ** -(work + 31)
                assert abs(got - want) <= bound, (spec.name, p, mp.nstr(u, 5))
