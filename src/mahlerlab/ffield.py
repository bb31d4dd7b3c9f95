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

numpy is imported by count_points, on its first call, not with the module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .precision import ResourceLimitError

__all__ = [
    "PointCount",
    "Eq41Report",
    "legendre",
    "count_points",
    "greene_nfn",
    "verify_4_1",
]

_COUNT_P_MAX = 199
_VERIFY_P_MAX = 50


def _check_odd_prime(p: int) -> None:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p < 10 ** 6:
        d = 3
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"p must be prime; {p} = {d} * {p // d}")
            d += 2


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol (a/p) in {-1, 0, 1} by Euler's criterion."""
    _check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


@dataclass(frozen=True)
class PointCount:
    prime: int
    parameter: int
    count: int

    def __post_init__(self):
        if not 0 <= self.count <= self.prime ** 4:
            raise ValueError("count out of range for F_p^4")


def _legendre_table(p: int) -> np.ndarray:
    import numpy as np

    leg = np.zeros(p, dtype=np.int64)
    for x in range(1, p):
        leg[x] = -1
    for x in range(1, p):
        leg[x * x % p] = 1
    return leg


@functools.lru_cache(maxsize=1)
def _count_histogram(p: int) -> np.ndarray:
    """hist[A, u] = #{(x, y, z) in F_p^3 : (x^2+1)(y^2+1)(z^2+1) = A, xyz = u},
    one bincount per x over a p x p slice, so memory stays O(p^2).

    One entry is kept: verify_4_1 walks every t of one prime in turn."""
    import numpy as np

    idx = np.arange(p, dtype=np.int64)
    sq1 = (idx ** 2 + 1) % p
    yz_sq = (sq1[:, None] * sq1[None, :]) % p         # (y^2+1)(z^2+1)
    yz = (idx[:, None] * idx[None, :]) % p            # y z
    hist = np.zeros(p * p, dtype=np.int64)
    for x in range(p):
        a = (int(sq1[x]) * yz_sq) % p
        u = (x * yz) % p
        hist += np.bincount((a * p + u).ravel(), minlength=p * p)
    hist.flags.writeable = False  # the cached table is shared by every caller
    return hist.reshape(p, p)


def count_points(p: int, t: int) -> PointCount:
    """Exact number of affine points on H_t over F_p.

    For fixed (x, y, z) the equation is A(w^2+1) = B w with
    A = (x^2+1)(y^2+1)(z^2+1) and B = 16 t xyz, a quadratic in w with
    1 + leg(B^2 - 4A^2) roots when A != 0; when A = 0 it is B w = 0, with p
    roots if B = 0 and one otherwise.  The count depends on (x, y, z) only
    through A and u = xyz, so it is a p x p weighted sum over the prime's
    histogram of (A, u), built once by an O(p^3) sweep and shared by every
    t."""
    _check_odd_prime(p)
    if p > _COUNT_P_MAX:
        raise ResourceLimitError(f"count_points limited to p <= {_COUNT_P_MAX}")
    import numpy as np

    t %= p
    hist = _count_histogram(p)
    leg = _legendre_table(p)
    idx = np.arange(p, dtype=np.int64)
    b = (16 * t * idx) % p                            # B for each u
    weights = 1 + leg[(b[None, :] ** 2 - 4 * idx[:, None] ** 2) % p]
    weights[0] = np.where(b == 0, p, 1)               # the A = 0 row
    return PointCount(prime=p, parameter=t, count=int(np.sum(hist * weights)))


@functools.lru_cache(maxsize=64)
def _greene_table(p: int) -> Tuple[Tuple[int, ...], ...]:
    """(T_1, T_2, T_3) over x = 0..p-1 with T_k(x) = p^k (k+1)Fk(x):

        T_0(x) = eps(x) phi(1-x),   T_(k+1)(x) = s sum_y w(y) T_k(x y),

    s = phi(-1) and w(y) = phi(y) phi(1-y)."""
    leg = [legendre(y, p) for y in range(p)]
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
    _check_odd_prime(p)
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


def verify_4_1(p: int, constant_shift: int = 0) -> Eq41Report:
    """Check the count identity for every t in F_p*.

    constant_shift perturbs the identity's constant term and exists as a
    negative control: a nonzero shift must show up in every residual.
    """
    _check_odd_prime(p)
    if p > _VERIFY_P_MAX:
        raise ResourceLimitError(f"verify_4_1 limited to p <= {_VERIFY_P_MAX}")
    phi_m1 = legendre(-1, p)
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
            + constant_shift
        )
        if rhs.denominator != 1:
            raise ArithmeticError(f"right side not an integer at t = {t}")
        rows.append((t, count_points(p, t).count - int(rhs)))
    return Eq41Report(prime=p, residuals=tuple(rows))
