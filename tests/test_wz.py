import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from mahlerlab.wz import (
    PAIR_ONE,
    PAIR_TWO,
    WZPair,
    binom,
    identity_2_8_2_9,
    ramanujan_partial_sums,
    telescope_reconstruct,
    wz_pair_verify,
)
from mahlerlab import wz
from mahlerlab.wz import _reduced_row_sums, _t_factor, identity_rows


def _pascal_oracle(n, k):
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


# Oracles: the Fraction-accumulation routes the integer row-sum kernel
# replaced, one Fraction addition (and one gcd) per term.


def _identity_oracle(n):
    s1 = Fraction(0)
    s2 = Fraction(0)
    inner = Fraction(0)
    for k in range(n + 1):
        csq = math.comb(2 * k, k) ** 2
        s1 += Fraction(csq, (1 << (4 * k)) * (2 * n - 2 * k + 1))
        s2 += Fraction(csq, (1 << (4 * k)) * (n + k + 1))
        inner += Fraction((4 * k + 1) * csq * csq, 1 << (8 * k))
    s3 = Fraction(1 << (4 * n), (2 * n + 1) ** 2 * math.comb(2 * n, n) ** 2) * inner
    return s1, s2, s3


def _direct_row_oracle(pair, n):
    return sum((pair.f(n, k) for k in range(n + 1)), Fraction(0))


def _ramanujan_oracle(m_max):
    out = []
    acc = Fraction(0)
    c = 1
    for k in range(m_max + 1):
        if k > 0:
            c = c * 2 * (2 * k - 1) // k
        acc += Fraction((4 * k + 1) * c ** 4, 1 << (8 * k))
        out.append(acc)
    return out


def _unreduced_violations(pair, n_max):
    """The pair relation f(n+1,k) - f(n,k) = g(n,k+1) - g(n,k) itself, on
    Fractions from pair.f and pair.g, with no T-cancellation."""
    violations = []
    for n in range(n_max + 1):
        for k in range(n + 1):
            lhs = pair.f(n + 1, k) - pair.f(n, k)
            rhs = pair.g(n, k + 1) - pair.g(n, k)
            if lhs != rhs:
                violations.append((n, k, lhs - rhs))
    return violations


def _t_comb(n, k):
    return Fraction(math.comb(2 * k, k) ** 2 * math.comb(2 * n, n) ** 2, 1 << (4 * n + 4 * k))


# F and G of the wz-pair-1 and wz-pair-2 check descriptions, from math.comb
CLOSED_FORMS = {
    PAIR_ONE.name: (
        lambda n, k: _t_comb(n, k) * Fraction((2 * n + 1) ** 2, 2 * n - 2 * k + 1),
        lambda n, k: -_t_comb(n, k) * Fraction(
            k ** 2 * (2 * n + 1) ** 2, (n + 1) ** 2 * (2 * n - 2 * k + 3)
        ),
    ),
    PAIR_TWO.name: (
        lambda n, k: _t_comb(n, k) * Fraction((2 * n + 1) ** 2, n + k + 1),
        lambda n, k: _t_comb(n, k) * Fraction(k ** 2 * (2 * n + 1) ** 2, (n + 1) ** 2 * (n + k + 1)),
    ),
}


def _reduced_fraction_route(pair, n_max):
    """wz_pair_verify's reduced relation with every quantity a Fraction."""
    rf = lambda n, k: Fraction(*pair.reduced_f(n, k))
    rg = lambda n, k: Fraction(*pair.reduced_g(n, k))
    violations = []
    for n in range(n_max + 1):
        r_n = Fraction((2 * n + 1) ** 2, 4 * (n + 1) ** 2)
        for k in range(n + 1):
            lhs = rf(n + 1, k) * r_n - rf(n, k)
            r_k = Fraction((2 * k + 1) ** 2, 4 * (k + 1) ** 2)
            rhs = rg(n, k + 1) * r_k - rg(n, k)
            if lhs != rhs:
                violations.append((n, k, (lhs - rhs) * _t_factor(n, k)))
    return violations


def _scaled_pair(fn, factor, cell=None):
    """A reduced form, (num, den), with num times factor at cell (at every
    cell when cell is None)."""

    def scaled(n, k):
        num, den = fn(n, k)
        return (num * factor, den) if cell in (None, (n, k)) else (num, den)

    return scaled


ORACLE_ROWS = list(range(61)) + [100, 250, 500]


class TestBinom:
    def test_base_cases(self):
        assert binom(0, 0) == 1
        assert binom(4, 2) == 6

    def test_against_pascal(self):
        assert binom(40, 20) == _pascal_oracle(40, 20) == 137846528820

    @given(st.integers(min_value=0, max_value=80), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_stdlib(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        assert binom(n, k) == math.comb(n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            binom(3, 4)
        with pytest.raises(ValueError):
            binom(-1, 0)
        with pytest.raises(ValueError):
            binom(3, -1)


class TestReducedForms:
    @pytest.mark.parametrize("pair", [PAIR_ONE, PAIR_TWO], ids=lambda p: p.name)
    def test_certificates_match_the_closed_forms(self, pair):
        # g is read one step past the triangle, at k = n + 1
        f, g = CLOSED_FORMS[pair.name]
        for n in range(31):
            for k in range(n + 1):
                assert pair.f(n, k) == f(n, k), (n, k)
            for k in range(n + 2):
                assert pair.g(n, k) == g(n, k), (n, k)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_t_factor_ratios(self, n, k):
        # the two ratio identities the fast verification route relies on
        assert _t_factor(n + 1, k) == _t_factor(n, k) * Fraction((2 * n + 1) ** 2, 4 * (n + 1) ** 2)
        assert _t_factor(n, k + 1) == _t_factor(n, k) * Fraction((2 * k + 1) ** 2, 4 * (k + 1) ** 2)


class TestPairVerify:
    def test_pair_one_to_500(self):
        report = wz_pair_verify(PAIR_ONE, 500)
        assert report.ok
        assert report.relations_checked == 501 * 502 // 2

    def test_pair_two_to_500(self):
        report = wz_pair_verify(PAIR_TWO, 500)
        assert report.ok

    @pytest.mark.parametrize("pair", [PAIR_ONE, PAIR_TWO], ids=lambda p: p.name)
    def test_unreduced_relation_agrees(self, pair):
        # the same relation checked without the T-cancellation
        assert _unreduced_violations(pair, 60) == []
        assert wz_pair_verify(pair, 60).ok

    def test_mutated_pair_caught(self):
        bad = WZPair("bad", PAIR_ONE.reduced_f, _scaled_pair(PAIR_ONE.reduced_g, 2))
        report = wz_pair_verify(bad, 5)
        assert not report.ok
        cells = {(n, k) for n, k, _ in report.violations}
        assert (1, 0) in cells
        residual = next(r for n, k, r in report.violations if (n, k) == (1, 0))
        assert residual == Fraction(3, 64)

    @pytest.mark.parametrize("scaled", ["f", "g"])
    def test_integer_route_matches_fraction_route(self, scaled):
        # one certificate value scaled at one cell: same cells, same residuals
        rf, rg = PAIR_TWO.reduced_f, PAIR_TWO.reduced_g
        if scaled == "f":
            rf = _scaled_pair(rf, 3, (9, 4))
        else:
            rg = _scaled_pair(rg, 3, (12, 7))
        bad = WZPair("bad", rf, rg)
        report = wz_pair_verify(bad, 20)
        expected = _reduced_fraction_route(bad, 20)
        assert expected
        assert list(report.violations) == expected

    @pytest.mark.parametrize("pair", [PAIR_ONE, PAIR_TWO], ids=lambda p: p.name)
    @pytest.mark.parametrize("scaled", ["f", "g"])
    def test_mutated_pair_caught_by_unreduced_relation(self, pair, scaled):
        # one certificate value scaled at one cell, or g everywhere: the
        # verifier reports the cells and residuals of the unreduced relation
        rf, rg = pair.reduced_f, pair.reduced_g
        if scaled == "f":
            rf = _scaled_pair(rf, 3, (33, 20))
        else:
            rg = _scaled_pair(rg, 2)
        bad = WZPair("bad", rf, rg)
        expected = _unreduced_violations(bad, 60)
        assert expected
        assert list(wz_pair_verify(bad, 60).violations) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            wz_pair_verify(PAIR_ONE, 0)

    def test_counts_the_cells_compared(self, monkeypatch):
        # a g row one value short makes zip stop one cell early, as a
        # shortened ratios_k would: the report must count one relation fewer
        exact = wz._reduced_row
        monkeypatch.setattr(
            wz, "_reduced_row",
            lambda fn, n, stop: exact(fn, n, stop - (fn is PAIR_ONE.reduced_g and n == 20)),
        )
        report = wz_pair_verify(PAIR_ONE, 20)
        assert report.ok
        assert report.relations_checked == 21 * 22 // 2 - 1


class TestCertificateDenominators:
    """Reduced forms are unreduced (num, den) pairs: a zero den must raise
    as Fraction(num, 0) did, and the sign of den must not matter."""

    @staticmethod
    def _zero_den_at(fn, cell):
        return lambda n, k: (fn(n, k)[0], 0) if (n, k) == cell else fn(n, k)

    @staticmethod
    def _negated(fn, cells):
        """fn with num and den both negated at the cells that cells(n, k)
        picks; a checkerboard mixes the signs inside one relation."""
        return lambda n, k: tuple(-v for v in fn(n, k)) if cells(n, k) else fn(n, k)

    @pytest.mark.parametrize("which", ["f", "g"])
    def test_zero_den_at_one_cell_raises(self, which):
        # cells that both routes evaluate: the telescope takes g only at
        # (n-1, n) and (n-1, 0)
        rf, rg = PAIR_ONE.reduced_f, PAIR_ONE.reduced_g
        if which == "f":
            rf = self._zero_den_at(rf, (7, 3))
        else:
            rg = self._zero_den_at(rg, (6, 7))
        bad = WZPair(PAIR_ONE.name, rf, rg)
        with pytest.raises(ZeroDivisionError):
            wz_pair_verify(bad, 20)
        with pytest.raises(ZeroDivisionError):
            telescope_reconstruct(WZPair("bad", rf, rg), 20)

    def test_zero_den_in_telescope_row_sum_raises(self):
        # the reconstruction reads f only on the diagonal, so only the
        # row-sum kernel sees the 0
        rf = self._zero_den_at(PAIR_TWO.reduced_f, (9, 4))
        with pytest.raises(ZeroDivisionError):
            telescope_reconstruct(WZPair(PAIR_TWO.name, rf, PAIR_TWO.reduced_g), 20)

    def test_zero_against_zero_is_not_a_pass(self):
        # every cross-multiplied product would read 0 == 0
        zero = lambda n, k: (0, 0)
        with pytest.raises(ZeroDivisionError):
            wz_pair_verify(WZPair(PAIR_ONE.name, zero, zero), 5)
        with pytest.raises(ZeroDivisionError):
            telescope_reconstruct(WZPair(PAIR_ONE.name, zero, zero), 5)

    @pytest.mark.parametrize("cells", [
        pytest.param(lambda n, k: True, id="everywhere"),
        pytest.param(lambda n, k: (n + k) % 2, id="checkerboard"),
    ])
    @pytest.mark.parametrize("pair", [PAIR_ONE, PAIR_TWO], ids=lambda p: p.name)
    def test_negated_pairs_give_the_same_report(self, pair, cells):
        neg = WZPair(
            pair.name, self._negated(pair.reduced_f, cells), self._negated(pair.reduced_g, cells)
        )
        assert wz_pair_verify(neg, 60) == wz_pair_verify(pair, 60)
        assert telescope_reconstruct(neg, 60) == telescope_reconstruct(pair, 60)
        # and for a broken pair, the same cells and the same exact residuals
        rg = _scaled_pair(pair.reduced_g, 3, (12, 7))
        bad = WZPair(pair.name, pair.reduced_f, rg)
        bad_neg = WZPair(
            pair.name, self._negated(pair.reduced_f, cells), self._negated(rg, cells)
        )
        report = wz_pair_verify(bad, 30)
        assert not report.ok
        assert wz_pair_verify(bad_neg, 30) == report
        assert report.violations == tuple(_reduced_fraction_route(bad, 30))


class TestIdentity:
    def test_n_zero(self):
        assert identity_2_8_2_9(0) == (Fraction(1), Fraction(1), Fraction(1))

    def test_n_one_by_hand(self):
        # s1 = 1/3 + (4/16)/1, s2 = 1/2 + (4/16)/3,
        # s3 = (16/36)(1 + 5*16/256): all 7/12
        s1, s2, s3 = identity_2_8_2_9(1)
        assert s1 == s2 == s3 == Fraction(7, 12)

    def test_one_row_fills_no_cache(self):
        wz._reduced_row_sums.cache_clear()
        identity_2_8_2_9(30)
        assert wz._reduced_row_sums.cache_info().currsize == 0

    def test_n_100_triple_equality(self):
        s1, s2, s3 = identity_2_8_2_9(100)
        assert s1 == s2 == s3

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_triple_equality(self, n):
        s1, s2, s3 = identity_2_8_2_9(n)
        assert s1 == s2 == s3

    @pytest.mark.parametrize("n", ORACLE_ROWS)
    def test_kernel_matches_fraction_oracle(self, n):
        assert identity_2_8_2_9(n) == _identity_oracle(n)

    def test_rows_match_fraction_oracle(self):
        rows = identity_rows(60)
        assert len(rows) == 61
        for n, row in enumerate(rows):
            assert row == _identity_oracle(n), n

    def test_domain(self):
        with pytest.raises(ValueError):
            identity_2_8_2_9(-1)
        with pytest.raises(ValueError):
            identity_rows(-1)


class TestTelescope:
    def test_pair_one_to_200(self):
        report = telescope_reconstruct(PAIR_ONE, 200)
        assert report.ok
        assert report.relations_checked == 201

    def test_pair_two_to_200(self):
        assert telescope_reconstruct(PAIR_TWO, 200).ok

    def test_base_case(self):
        # h(0) = f(0,0) = 1 for both pairs
        assert PAIR_ONE.f(0, 0) == 1
        assert PAIR_TWO.f(0, 0) == 1

    @pytest.mark.parametrize("n", ORACLE_ROWS)
    def test_direct_rows_match_fraction_oracle(self, n):
        # the direct side h(n) = T_n r(n), from the cached sweep that
        # telescope_reconstruct and identity_rows read
        t_n = Fraction(math.comb(2 * n, n) ** 2, 1 << (4 * n))
        for pair in (PAIR_ONE, PAIR_TWO):
            r_n = _reduced_row_sums(pair, max(ORACLE_ROWS))[n]
            assert t_n * r_n == _direct_row_oracle(pair, n)

    def test_counts_the_rows_compared(self, monkeypatch):
        # row 0 is compared too; a sweep one row short leaves one row
        # uncompared, and the report must say so
        assert telescope_reconstruct(PAIR_TWO, 20).relations_checked == 21
        exact = wz._reduced_row_sums
        monkeypatch.setattr(wz, "_reduced_row_sums", lambda pair, n_max: exact(pair, n_max)[:-1])
        report = telescope_reconstruct(PAIR_TWO, 20)
        assert report.ok
        assert report.relations_checked == 20

    def test_mutated_pair_caught(self):
        bad = WZPair("bad", PAIR_ONE.reduced_f, _scaled_pair(PAIR_ONE.reduced_g, 2))
        report = telescope_reconstruct(bad, 10)
        assert not report.ok
        assert report.violations[0][1] is None  # telescoping rows carry no k


class TestRamanujanPartialSums:
    def test_first_values(self):
        sums = ramanujan_partial_sums(2)
        assert sums[0] == 1
        assert sums[1] == Fraction(21, 16)  # 1 + 5*16/256
        assert sums[2] == Fraction(21, 16) + Fraction(9 * 6 ** 4, 1 << 16)

    def test_matches_fraction_oracle(self):
        assert ramanujan_partial_sums(200) == _ramanujan_oracle(200)

    def test_matches_identity_inner_sum(self):
        # s3 of identity_2_8_2_9 is built from the same inner sums
        n = 25
        sums = ramanujan_partial_sums(n)
        _, _, s3 = identity_2_8_2_9(n)
        c2n_sq = binom(2 * n, n) ** 2
        recovered = s3 * Fraction((2 * n + 1) ** 2 * c2n_sq, 1 << (4 * n))
        assert recovered == sums[n]

    def test_float_accumulation_consistency(self):
        # the exact values agree with a 64-bit floating recurrence to 2^-56
        sums = ramanujan_partial_sums(200)
        with mp.workprec(64):
            t = mp.mpf(1)
            acc = mp.mpf(0)
            for k in range(201):
                acc += t
                exact = mp.mpf(sums[k].numerator) / sums[k].denominator
                assert abs(acc - exact) <= abs(exact) * mp.mpf(2) ** -56
                t *= mp.mpf((4 * k + 5) * (2 * k + 1) ** 4)
                t /= mp.mpf((4 * k + 1) * (2 * (k + 1)) ** 4)

    def test_log_growth_rate(self):
        # partial sums grow like (4/pi^2) log m; fitted slope within 5%
        t = 1.0
        acc = 0.0
        marks = {}
        for k in range(10001):
            acc += t
            if k in (1000, 10000):
                marks[k] = acc
            t *= (4 * k + 5) / (4 * k + 1) * ((2 * k + 1) / (2 * (k + 1))) ** 4
        slope = (marks[10000] - marks[1000]) / (math.log(10000) - math.log(1000))
        target = 4 / math.pi ** 2
        assert abs(slope - target) / target < 0.05

    def test_domain(self):
        with pytest.raises(ValueError):
            ramanujan_partial_sums(-1)
