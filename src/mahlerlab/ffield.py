"""Finite-field arithmetic behind the point-count identity for the affine
hypersurface

    H_t : (x^2+1)(y^2+1)(z^2+1)(w^2+1) - 16 t xyzw = 0   over F_p,

whose count equals

    p^3 4F3(t^2) + 4 phi(-1) p^2 2F1(t^2) - 3 eps(t^2-1) p^2
      + p^3 + 8(phi(-1)+1) p^2 - 16(phi(-1)+1) p - 3p - 8(phi(-1)+1) + 1

with phi the Legendre symbol, eps the trivial character (value 0 at 0),
and nFn the finite-field hypergeometric sums with all upper parameters phi
and all lower parameters eps.

The hypergeometric values follow Greene's recursion (Greene 1987,
Trans. AMS 301, section 3): starting from 1F0(x) = eps(x) phi(1-x),

    (n+1)Fn(x) = phi(-1)/p * sum over y of phi(y) phi(1-y) nF(n-1)(x y),

so p^n (n+1)Fn(x) is an integer built from Legendre symbols alone, one
table per prime.  verify_4_1 closes the loop against direct point
counting: count_points solves the quadratic in w through its
discriminant's Legendre symbol, and since (x, y, z) enters only through
A = (x^2+1)(y^2+1)(z^2+1) and u = xyz, one O(p^3) histogram of (A, u) per
prime serves every t with an O(p^2) weighted sum.

The Legendre symbol has one implementation, _legendre_table(p), read by
the histogram, the recursion and verify_4_1's phi(-1).  Every entry point
passes one guard, _check_odd_prime(p, cap): count_points and greene_nfn
take p <= 199, verify_4_1 p <= 50, and a larger p raises
ResourceLimitError before any trial division or table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import add, itemgetter, mul
from typing import List, Tuple

from .precision import ResourceLimitError

__all__ = [
    "PointCount",
    "Eq41Report",
    "count_points",
    "greene_nfn",
    "verify_4_1",
]

_COUNT_P_MAX = 199
_VERIFY_P_MAX = 50


def _check_odd_prime(p: int, cap: int) -> None:
    """ValueError unless p is an odd int, ResourceLimitError above the
    caller's cap, then trial division: the cap comes first, so no p too
    large to tabulate costs a primality test."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > cap:
        raise ResourceLimitError(f"p limited to p <= {cap}, got {p}")
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            raise ValueError(f"p must be prime; {p} = {d} * {p // d}")


@dataclass(frozen=True)
class PointCount:
    prime: int
    parameter: int
    count: int

    def __post_init__(self):
        if not 0 <= self.count <= self.prime ** 4:
            raise ValueError("count out of range for F_p^4")


def _legendre_table(p: int) -> List[int]:
    """phi(x) = (x/p) for x = 0..p-1, from the squares of 1..p-1."""
    leg = [0] + [-1] * (p - 1)
    for x in range(1, p):
        leg[x * x % p] = 1
    return leg


@functools.lru_cache(maxsize=1)
def _count_histogram(p: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """(hist, roots) for count_points, one entry kept: verify_4_1 walks
    every t of one prime in turn.  hist[u][A] counts the (x, y, z) with
    xyz = u and (x^2+1)(y^2+1)(z^2+1) = A: the (y, z) pair histogram with
    each row scattered over x (x yz picks the row, x^2+1 permutes it).
    roots[B][A] counts the w with A(w^2+1) = B w."""
    sq1 = [(x * x + 1) % p for x in range(p)]
    pairs = [[0] * p for _ in range(p)]
    for y in range(p):
        for z in range(p):
            pairs[y * z % p][sq1[y] * sq1[z] % p] += 1
    hist = [[0] * p for _ in range(p)]
    for x, s in enumerate(sq1):
        if s == 0:                                    # A = 0 for every (y, z)
            for v, row in enumerate(pairs):
                hist[x * v % p][0] += sum(row)
            continue
        inv = pow(s, -1, p)
        gather = itemgetter(*[a * inv % p for a in range(p)])
        for v, row in enumerate(pairs):
            u = x * v % p
            hist[u] = list(map(add, hist[u], gather(row)))
    leg = _legendre_table(p)
    roots = tuple((p if b == 0 else 1, *(1 + leg[(b * b - 4 * a * a) % p] for a in range(1, p)))
                  for b in range(p))
    return tuple(map(tuple, hist)), roots


def count_points(p: int, t: int) -> PointCount:
    """Exact number of affine points on H_t over F_p.

    For fixed (x, y, z) the equation is A(w^2+1) = B w with
    A = (x^2+1)(y^2+1)(z^2+1) and B = 16 t xyz, a quadratic in w with
    1 + leg(B^2 - 4A^2) roots when A != 0; when A = 0 it is B w = 0, with p
    roots if B = 0 and one otherwise.  So the count is the prime's O(p^3)
    histogram of (A, u = xyz) summed against these root counts, O(p^2)
    per t."""
    _check_odd_prime(p, _COUNT_P_MAX)
    hist, roots = _count_histogram(p)
    count = sum(sum(map(mul, row, roots[16 * t * u % p])) for u, row in enumerate(hist))
    return PointCount(prime=p, parameter=t % p, count=count)


@functools.lru_cache(maxsize=64)
def _greene_table(p: int) -> Tuple[Tuple[int, ...], ...]:
    """(T_1, T_2, T_3) over x = 0..p-1 with T_k(x) = p^k (k+1)Fk(x):

        T_0(x) = eps(x) phi(1-x),   T_(k+1)(x) = s sum_y w(y) T_k(x y),

    s = phi(-1) and w(y) = phi(y) phi(1-y)."""
    leg = _legendre_table(p)
    s = leg[p - 1]
    w = [(y, leg[y] * leg[(1 - y) % p]) for y in range(2, p)]  # w(0) = w(1) = 0
    level = [0] + [leg[(1 - x) % p] for x in range(1, p)]
    table = []
    for _ in range(3):
        level = [0] + [s * sum(wy * level[x * y % p] for y, wy in w) for x in range(1, p)]
        table.append(tuple(level))
    return tuple(table)


def greene_nfn(p: int, n: int, x: int) -> Fraction:
    """Normalized finite-field (n+1)Fn (all upper phi, all lower eps) at x,
    as an exact rational with denominator p^n."""
    _check_odd_prime(p, _COUNT_P_MAX)
    if n not in (1, 3):
        raise ValueError(f"n must be 1 or 3, got {n}")
    return Fraction(_greene_table(p)[n - 1][x % p], p ** n)


@dataclass(frozen=True)
class Eq41Report:
    """Per-t residuals of the point-count identity (count minus the
    hypergeometric right side); all must vanish."""

    prime: int
    residuals: Tuple[Tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return all(r == 0 for _, r in self.residuals)

    @property
    def max_abs_residual(self) -> int:
        return max(abs(r) for _, r in self.residuals)


def verify_4_1(p: int) -> Eq41Report:
    """Check the count identity for every t in F_p*."""
    _check_odd_prime(p, _VERIFY_P_MAX)
    phi_m1 = _legendre_table(p)[p - 1]
    rows = []
    for t in range(1, p):
        t2 = t * t % p
        eps = 0 if (t2 - 1) % p == 0 else 1
        rhs = (
            p ** 3 * greene_nfn(p, 3, t2)
            + 4 * phi_m1 * p ** 2 * greene_nfn(p, 1, t2)
            - 3 * eps * p ** 2
            + p ** 3
            + 8 * (phi_m1 + 1) * p ** 2
            - 16 * (phi_m1 + 1) * p
            - 3 * p
            - 8 * (phi_m1 + 1)
            + 1
        )
        if rhs.denominator != 1:
            raise ArithmeticError(f"right side not an integer at t = {t}")
        rows.append((t, count_points(p, t).count - int(rhs)))
    return Eq41Report(prime=p, residuals=tuple(rows))
