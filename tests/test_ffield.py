"""Tests for Legendre symbols, Greene hypergeometric values against a
character-sum oracle, and the hypersurface point-count identity."""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerlab import ffield
from mahlerlab.ffield import (
    Eq41Report,
    PointCount,
    count_points,
    greene_nfn,
    legendre,
    verify_4_1,
)
from mahlerlab.ffield import _COUNT_P_MAX, _count_histogram
from mahlerlab.modular import NEWFORM_F, newform_coefficient
from mahlerlab.precision import ResourceLimitError

PRIMES_SMALL = (3, 5, 7, 11, 13)
PRIMES_TO_50 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def count_points_exhaustive(p, t):
    """Independent O(p^4) brute-force count, the oracle for count_points."""
    t %= p
    sq1 = [(x * x + 1) % p for x in range(p)]
    total = 0
    for x in range(p):
        for y in range(p):
            for z in range(p):
                lhs3 = sq1[x] * sq1[y] * sq1[z]
                rhs3 = 16 * t * x * y * z
                for w in range(p):
                    if (lhs3 * sq1[w] - rhs3 * w) % p == 0:
                        total += 1
    return total


def count_points_sweep(p, t):
    """The per-x O(p^3) sweep count_points ran before its histogram: for
    each (x, y, z) the equation is a quadratic in w, counted through the
    discriminant's Legendre symbol.  The oracle for count_points up to
    p = 199, where the O(p^4) count is too slow."""
    t %= p
    idx = np.arange(p, dtype=np.int64)
    sq1 = (idx ** 2 + 1) % p
    leg = np.array([legendre(int(v), p) for v in idx], dtype=np.int64)
    yz_sq = (sq1[:, None] * sq1[None, :]) % p
    yz = (idx[:, None] * idx[None, :]) % p
    total = 0
    for x in range(p):
        a = (int(sq1[x]) * yz_sq) % p
        b = (16 * t * x * yz) % p
        deg = a == 0
        # A = 0: A(w^2+1) = B w reduces to B w = 0
        total += int(np.count_nonzero(deg & (b == 0))) * p
        total += int(np.count_nonzero(deg & (b != 0)))
        disc = (b * b - 4 * a * a) % p
        total += int(np.sum((1 + leg[disc])[~deg]))
    return total


@functools.lru_cache(maxsize=None)
def discrete_logs(p):
    """(g, ind): the least primitive root g mod p and ind[g^a] = a for
    a = 0..p-2 (entry 0 unused).  The oracle's own table: no Legendre
    symbol and nothing from mahlerlab."""
    for g in range(2, p):
        ind, v = {}, 1
        for a in range(p - 1):
            ind.setdefault(v, a)
            v = v * g % p
        if len(ind) == p - 1:
            return g, tuple([0] + [ind[x] for x in range(1, p)])
    raise ArithmeticError(f"no primitive root mod {p}")


@functools.lru_cache(maxsize=None)
def characters(p):
    """chi_j(g^a) = exp(2 pi i j a/(p-1)) as a complex128 array, row j for
    j = 0..p-2 over x = 0..p-1 (0 at x = 0)."""
    ind = np.asarray(discrete_logs(p)[1], dtype=np.int64)
    j = np.arange(p - 1)[:, None]
    rows = np.exp(2j * np.pi * ((j * ind) % (p - 1)) / (p - 1))
    rows[:, 0] = 0
    return rows


@functools.lru_cache(maxsize=None)
def greene_binomials(p):
    """binom(phi chi_j, chi_j) = chi_j(-1)/p J(phi chi_j, conj chi_j) for
    j = 0..p-2, with J(A, B) = sum over u of A(u) B(1-u)."""
    rows = characters(p)
    phi = rows[(p - 1) // 2]
    u = np.arange(p)
    jac = (phi * rows * np.conj(rows[:, (1 - u) % p])).sum(axis=1)
    return rows[:, p - 1] / p * jac


def greene_characters(p, n, x):
    """The character-sum route greene_nfn took before Greene's recursion,
    kept as its oracle: (n+1)Fn(x) = p/(p-1) sum over j of
    binom(phi chi_j, chi_j)^(n+1) chi_j(x), in complex128, rounded to a
    multiple of p^-n under an integrality assertion."""
    x %= p
    if x == 0:
        return Fraction(0)
    chi_x = characters(p)[:, x]
    scaled = p ** (n + 1) / (p - 1) * np.sum(greene_binomials(p) ** (n + 1) * chi_x)
    nearest = round(scaled.real)
    assert abs(scaled - nearest) < 1e-6, (p, n, x, scaled)
    return Fraction(nearest, p ** n)


def legendre_curve_trace(p, lam):
    """p + 1 minus the projective point count of y^2 = x(x-1)(x-lam)."""
    affine = 0
    for x in range(p):
        affine += 1 + legendre(x * (x - 1) * (x - lam), p)
    return p + 1 - (affine + 1)


class TestLegendre:
    def test_quoted_examples(self):
        assert legendre(1, 7) == 1
        assert legendre(-1, 3) == -1
        assert legendre(2, 7) == 1

    def test_first_supplement(self):
        for p in PRIMES_TO_50:
            assert legendre(-1, p) == (1 if p % 4 == 1 else -1)

    def test_second_supplement(self):
        for p in PRIMES_TO_50:
            assert legendre(2, p) == (1 if p % 8 in (1, 7) else -1)

    def test_zero(self):
        assert legendre(0, 11) == 0
        assert legendre(22, 11) == 0

    @given(st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=80, deadline=None)
    def test_multiplicative(self, a, b):
        p = 23
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    def test_bad_modulus(self):
        # 1000001 = 101 * 9901 lies past trial division; 318665857834031151167461
        # is a strong pseudoprime to every prime base up to 37, caught by 41;
        # 3317044064679887385961981 passes all thirteen and is refused as too large
        for p in (2, 9, 15, 1, -7, 1000001, 318665857834031151167461,
                  3317044064679887385961981):
            with pytest.raises(ValueError):
                legendre(3, p)
        # primes past trial division are still accepted
        assert legendre(3, 1000003) == -1
        assert legendre(2, 2 ** 61 - 1) == 1


class TestCharTable:
    """The oracle's character table."""

    def test_orthogonality(self):
        for p in (3, 7, 13, 31, 47):
            for j in range(p - 1):
                s = characters(p)[j].sum()
                want = p - 1 if j == 0 else 0
                assert abs(s - want) < 1e-9

    def test_legendre_character(self):
        for p in (3, 5, 13, 31):
            row = characters(p)[(p - 1) // 2]
            for x in range(1, p):
                assert abs(row[x] - legendre(x, p)) < 1e-12

    def test_jacobi_chi_chibar(self):
        # J(chi, conj chi) = -chi(-1) for nontrivial chi
        for p in (5, 13, 31, 47):
            for j in range(1, p - 1):
                row = characters(p)[j]
                jac = sum(row[u] * np.conj(row[(1 - u) % p]) for u in range(2, p))
                assert abs(jac - (-row[p - 1])) < 1e-9

    def test_generator_is_primitive(self):
        for p in (7, 13, 31):
            g = discrete_logs(p)[0]
            seen = set()
            v = 1
            for _ in range(p - 1):
                seen.add(v)
                v = v * g % p
            assert len(seen) == p - 1


class TestPointCount:
    def test_t_zero_structure(self):
        # all factors nonzero unless some x_i^2 = -1
        assert count_points(3, 0).count == 0
        assert count_points(7, 0).count == 0
        assert count_points(5, 0).count == 5 ** 4 - 3 ** 4
        assert count_points(13, 0).count == 13 ** 4 - 11 ** 4

    def test_quadratic_route_matches_exhaustive(self):
        for p in PRIMES_SMALL:
            for t in (0, 1, 2, p - 1):
                a = count_points(p, t).count
                b = count_points_exhaustive(p, t)
                assert a == b, (p, t)

    def test_histogram_matches_sweep_every_t(self):
        for p in PRIMES_TO_50:
            for t in range(p):
                assert count_points(p, t).count == count_points_sweep(p, t), (p, t)

    def test_histogram_matches_sweep_at_the_limit(self):
        p = _COUNT_P_MAX
        assert p == 199
        for t in (0, 1, 2, p - 1):
            assert count_points(p, t).count == count_points_sweep(p, t), t

    def test_histogram_counts_every_triple(self):
        for p in PRIMES_TO_50 + (_COUNT_P_MAX,):
            hist = _count_histogram(p)[0]
            assert len(hist) == p and all(len(row) == p for row in hist)
            assert sum(map(sum, hist)) == p ** 3
            assert min(map(min, hist)) >= 0

    def test_count_range_invariant(self):
        with pytest.raises(ValueError):
            PointCount(prime=3, parameter=0, count=100)

    def test_resource_limits(self):
        with pytest.raises(ResourceLimitError):
            count_points(211, 1)

    def test_bad_prime(self):
        with pytest.raises(ValueError):
            count_points(15, 1)


class TestGreene:
    def test_zero_argument(self):
        assert greene_nfn(7, 1, 0) == 0
        assert greene_nfn(7, 3, 7) == 0

    def test_4f3_at_one_gives_eta_coefficients(self):
        for p in PRIMES_SMALL:
            v = p ** 3 * greene_nfn(p, 3, 1)
            ap = newform_coefficient(NEWFORM_F, p)
            assert v == -ap - p

    def test_2f1_matches_legendre_curve_traces(self):
        for p in (5, 7, 13, 17):
            phim1 = legendre(-1, p)
            for lam in range(2, p):
                got = p * greene_nfn(p, 1, lam)
                assert got == -phim1 * legendre_curve_trace(p, lam)

    def test_recursion_matches_character_sums(self):
        cases = 0
        for p in PRIMES_TO_50:
            for n in (1, 3):
                for x in range(p):
                    assert greene_nfn(p, n, x) == greene_characters(p, n, x), (p, n, x)
                    cases += 1
        assert cases == 652

    def test_weil_bound_sanity(self):
        # |p 2F1(x)| is a Legendre-curve trace, at most 2 sqrt(p) by Hasse;
        # |p^3 4F3(x)| <= p^2 since each binomial has |J| <= sqrt(p)
        for p in PRIMES_TO_50:
            for x in range(1, p):
                assert abs(p * greene_nfn(p, 1, x)) <= 2 * math.sqrt(p)
                assert abs(p ** 3 * greene_nfn(p, 3, x)) <= p ** 2

    def test_denominator_is_power_of_p(self):
        for p in (7, 11):
            for x in (1, 2, 3):
                assert p ** 3 % greene_nfn(p, 3, x).denominator == 0
                assert p % greene_nfn(p, 1, x).denominator == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            greene_nfn(7, 2, 1)
        with pytest.raises(ValueError):
            greene_nfn(8, 1, 1)


class TestVerify41:
    def test_residuals_vanish_small_primes(self):
        for p in PRIMES_TO_50:
            rep = verify_4_1(p)
            assert rep.ok, rep.residuals
            assert len(rep.residuals) == p - 1

    def test_negative_control_shift(self, monkeypatch):
        # a point count raised (or lowered) by one must show as a residual
        # of +1 (or -1) at every t
        exact = ffield.count_points
        for p, step in ((7, 1), (5, -1)):
            def shifted(q, t, step=step):
                point = exact(q, t)
                return dataclasses.replace(point, count=point.count + step)

            monkeypatch.setattr(ffield, "count_points", shifted)
            rep = verify_4_1(p)
            assert not rep.ok
            assert all(r == step for _, r in rep.residuals)

    def test_ahlgren_ono_mutual_consistency(self):
        # eliminate 4F3(1) between the count identity and p^3 4F3(1) = -a_p - p:
        # the resulting 2F1(1) must match greene_nfn directly
        for p in PRIMES_SMALL:
            phi = legendre(-1, p)
            ap = newform_coefficient(NEWFORM_F, p)
            tail = (
                p ** 3
                + 8 * (phi + 1) * p ** 2
                - 16 * (phi + 1) * p
                - 3 * p
                - 8 * (phi + 1)
                + 1
            )
            derived = Fraction(
                count_points(p, 1).count - (-ap - p) - tail, 4 * phi * p ** 2
            )
            assert derived == greene_nfn(p, 1, 1)

    def test_report_properties(self):
        rep = Eq41Report(prime=5, residuals=((1, 0), (2, -3)))
        assert not rep.ok
        assert rep.max_abs_residual == 3

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            verify_4_1(53)
