"""Elliptic integrals via AGM, zeta values, Catalan's constant, Legendre chi,
the exponential integral, and generalized hypergeometric summation.

Gamma is only provided at integer and half-integer arguments; that is all the
identities here require.  Everything real-valued is an mpf computed inside a
local working-precision context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from mpmath import mp

from .precision import MIN_PRECISION_BITS, NoConvergence, accelerate

__all__ = [
    "PFQSpec",
    "agm",
    "ell_k",
    "ell_kprime",
    "gamma_half_int",
    "zeta_int",
    "zeta_prime_minus2",
    "catalan",
    "legendre_chi3",
    "pfq",
    "exp_integral_e1",
    "gamma_upper_int",
]


def _ambient(precision: Optional[int]) -> int:
    return precision if precision is not None else mp.prec


def agm(a, b, precision: Optional[int] = None):
    """Arithmetic-geometric mean of two positive reals.

    Quadratic convergence: the iteration count is bounded by ~2 log2(P).
    """
    p = _ambient(precision)
    with mp.workprec(p + 16):
        x = mp.mpf(a)
        y = mp.mpf(b)
        if x <= 0 or y <= 0:
            raise ValueError("agm requires positive arguments")
        eps = mp.mpf(2) ** (-(p + 8))
        while abs(x - y) > eps * abs(x):
            x, y = (x + y) / 2, mp.sqrt(x * y)
    with mp.workprec(p):
        return +x


def ell_k(k, precision: Optional[int] = None):
    """Complete elliptic integral K(k) = pi / (2 agm(1, sqrt(1-k^2))).

    The complementary modulus is formed as (1-k)(1+k) so that k extremely
    close to 1 (quadrature abscissae land there) keeps its full precision.
    """
    p = _ambient(precision)
    with mp.workprec(p + 16):
        kk = mp.mpf(k)
        if kk < 0 or kk >= 1:
            raise ValueError(f"ell_k needs 0 <= k < 1, got {k}")
        kc = mp.sqrt((1 - kk) * (1 + kk))
        v = mp.pi / (2 * agm(mp.mpf(1), kc, precision=p + 8))
    with mp.workprec(p):
        return +v


def ell_kprime(k, precision: Optional[int] = None):
    """Complementary integral K'(k) = K(sqrt(1-k^2)) = pi / (2 agm(1, k))."""
    p = _ambient(precision)
    with mp.workprec(p + 16):
        kk = mp.mpf(k)
        if kk <= 0 or kk > 1:
            raise ValueError(f"ell_kprime needs 0 < k <= 1, got {k}")
        v = mp.pi / (2 * agm(mp.mpf(1), kk, precision=p + 8))
    with mp.workprec(p):
        return +v


def gamma_half_int(twice_s: int, precision: int = 128):
    """Gamma(twice_s / 2) from Gamma(1) = 1, Gamma(1/2) = sqrt(pi), and the
    recurrence Gamma(s+1) = s Gamma(s)."""
    if twice_s < 1:
        raise ValueError("gamma_half_int needs a positive half-integer argument")
    with mp.workprec(precision + 16):
        if twice_s % 2 == 0:
            v = mp.mpf(math.factorial(twice_s // 2 - 1))
        else:
            v = mp.sqrt(mp.pi)
            s = mp.mpf(1) / 2
            for _ in range((twice_s - 1) // 2):
                v *= s
                s += 1
    with mp.workprec(precision):
        return +v


# ---------------------------------------------------------------------------
# Riemann zeta at integers via Euler-Maclaurin

_BERNOULLI: List[Fraction] = [Fraction(1)]


def _bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention)."""
    while len(_BERNOULLI) <= m:
        j = len(_BERNOULLI)
        acc = Fraction(0)
        for i in range(j):
            acc += math.comb(j + 1, i) * _BERNOULLI[i]
        _BERNOULLI.append(-acc / (j + 1))
    return _BERNOULLI[m]


def zeta_int(s: int, precision: int = 128):
    """zeta(s) for integer s >= 2 by Euler-Maclaurin-corrected truncation."""
    if s < 2:
        raise ValueError(f"zeta_int needs s >= 2, got {s}")
    if precision < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits")
    work = precision + 24
    with mp.workprec(work):
        eps = mp.mpf(2) ** (-(precision + 12))
        n_cut = max(8, int(0.35 * work) + s)
        while True:
            total = mp.mpf(0)
            for n in range(n_cut - 1, 0, -1):
                total += mp.mpf(n) ** (-s)
            ncs = mp.mpf(n_cut) ** (-s)
            total += ncs * n_cut / (s - 1) + ncs / 2
            # correction terms B_2j/(2j)! * s(s+1)...(s+2j-2) * N^(1-s-2j)
            rising = mp.mpf(s)
            npow = ncs / n_cut  # N^(-s-1), i.e. the j = 1 power
            prev = mp.inf
            ok = False
            for j in range(1, 80):
                b = _bernoulli(2 * j)
                coef = mp.mpf(b.numerator) / b.denominator / mp.mpf(math.factorial(2 * j))
                term = coef * rising * npow
                total += term
                if abs(term) < eps:
                    ok = True
                    break
                if abs(term) > prev:
                    break  # asymptotic series turned; need larger N
                prev = abs(term)
                rising *= (s + 2 * j - 1) * (s + 2 * j)
                npow /= n_cut * n_cut
            if ok:
                break
            n_cut *= 2
    with mp.workprec(precision):
        return +total


def zeta_prime_minus2(precision: int = 128):
    """zeta'(-2) = -zeta(3) / (4 pi^2)."""
    with mp.workprec(precision + 16):
        v = -zeta_int(3, precision + 16) / (4 * mp.pi ** 2)
    with mp.workprec(precision):
        return +v


def catalan(precision: int = 128):
    """Catalan's constant G = sum (-1)^n / (2n+1)^2, Levin-accelerated."""
    n_terms = max(24, int(0.4 * precision) + 12)
    work = precision + int(1.2 * n_terms) + 48
    with mp.workprec(work):
        # one retry with twice the terms; alternating series gain fast
        for count in (n_terms, 2 * n_terms):
            sums = []
            tot = mp.mpf(0)
            for n in range(count):
                tot += mp.mpf((-1) ** n) / (2 * n + 1) ** 2
                sums.append(tot)
            res = accelerate(sums, precision=precision + 8)
            if res.error_estimate <= mp.mpf(2) ** (-(precision + 4)):
                break
    with mp.workprec(precision):
        return +res.value


def legendre_chi3(alpha, precision: int = 128):
    """Legendre chi_3(alpha) = sum_{n>=0} alpha^(2n+1) / (2n+1)^3 on [0, 1].

    At alpha = 1 the closed form chi_3(1) = 7 zeta(3) / 8 is used; the series
    ratio alpha^2 makes direct summation useless there.
    """
    with mp.workprec(precision + 16):
        a = mp.mpf(alpha)
        if a < 0 or a > 1:
            raise ValueError(f"legendre_chi3 needs 0 <= alpha <= 1, got {alpha}")
        if a == 0:
            v = mp.mpf(0)
        elif 1 - a < mp.mpf(2) ** (-(precision // 2)):
            v = 7 * zeta_int(3, precision + 16) / 8
        else:
            eps = mp.mpf(2) ** (-(precision + 8))
            ratio = a * a
            v = mp.mpf(0)
            pw = a
            n = 0
            while True:
                t = pw / mp.mpf(2 * n + 1) ** 3
                v += t
                if t * ratio / (1 - ratio) < eps:
                    break
                pw *= ratio
                n += 1
    with mp.workprec(precision):
        return +v


# ---------------------------------------------------------------------------
# Generalized hypergeometric series


@dataclass(frozen=True)
class PFQSpec:
    """Parameters of pFq(upper; lower; argument), all rationals except the
    argument.  Lower parameters must avoid zero and negative integers."""

    upper: List[Fraction]
    lower: List[Fraction]
    argument: object

    def __post_init__(self):
        object.__setattr__(self, "upper", [Fraction(a) for a in self.upper])
        object.__setattr__(self, "lower", [Fraction(b) for b in self.lower])
        for b in self.lower:
            if b <= 0 and b.denominator == 1:
                raise ValueError(f"lower parameter {b} is zero or a negative integer")

    def tail_exponent(self) -> Fraction:
        """Unit-argument terms decay like n^(-rho) with rho = this value."""
        return 1 + sum(Fraction(b) for b in self.lower) - sum(Fraction(a) for a in self.upper)


def _arg_mpf(val):
    if isinstance(val, Fraction):
        return mp.mpf(val.numerator) / val.denominator
    return mp.mpf(val)


def pfq(spec: PFQSpec, target_abs_error, precision: Optional[int] = None):
    """Evaluate pFq to the requested absolute error.

    Inside the unit disk the series is summed directly with a geometric tail
    estimate.  At |x| = 1 a Levin-u pass over at least 64 partial sums is
    mandatory (the series here decay like n^(-2) or n^(-3), so direct
    summation to 10 digits would need ~10^8 terms, which is refused).
    """
    with mp.workprec(64):
        x = _arg_mpf(spec.argument)
    target = mp.mpf(target_abs_error)
    base = precision if precision is not None else int(-mp.log(target, 2)) + 48

    terminates = any(Fraction(a) <= 0 and Fraction(a).denominator == 1 for a in spec.upper)
    if abs(x) > 1 and not terminates:
        raise ValueError(f"pFq diverges for |argument| = {abs(x)} > 1")
    if abs(x) == 1 and not terminates:
        rho = spec.tail_exponent()
        if rho <= 1:
            raise ValueError("pFq at unit argument needs parameter excess > 0")
        return _pfq_unit(spec, target, base)
    return _pfq_direct(spec, target, base, terminates)


def _pfq_direct(spec: PFQSpec, target, base: int, terminates: bool):
    with mp.workprec(base + 32):
        x = _arg_mpf(spec.argument)
        if not terminates and abs(x) > mp.mpf("0.999"):
            # estimated terms-to-target beyond 10^8 is refused by contract
            est = mp.log(target) / mp.log(abs(x))
            if est > 10 ** 8:
                raise ValueError("pFq argument too close to 1 for direct summation")
        total = mp.mpf(0)
        t = mp.mpf(1)
        n = 0
        while True:
            total += t
            ratio = mp.mpf(1)
            for a in spec.upper:
                ratio *= mp.mpf(a.numerator) / a.denominator + n
            for b in spec.lower:
                ratio /= mp.mpf(b.numerator) / b.denominator + n
            ratio *= x / (n + 1)
            t = t * ratio
            if t == 0 and terminates:
                break
            r = abs(ratio)
            if r < 1 and abs(t) * r / (1 - r) < target / 4 and abs(t) < target / 4:
                total += t
                break
            n += 1
            if n > 10 ** 7:
                raise ValueError("pFq direct summation failed to converge")
    with mp.workprec(base):
        return +total


def _pfq_unit(spec: PFQSpec, target, base: int):
    n_terms = 128 if target > mp.mpf("1e-15") else 320
    while True:
        work = base + int(1.2 * n_terms) + 48
        with mp.workprec(work):
            sums = []
            tot = mp.mpf(0)
            t = mp.mpf(1)
            for n in range(n_terms):
                tot += t
                sums.append(tot)
                ratio = mp.mpf(1)
                for a in spec.upper:
                    ratio *= mp.mpf(a.numerator) / a.denominator + n
                for b in spec.lower:
                    ratio /= mp.mpf(b.numerator) / b.denominator + n
                t = t * ratio / (n + 1)
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


# ---------------------------------------------------------------------------
# Exponential integral

_E1_CROSSOVER = 4  # series below, continued fraction above


def exp_integral_e1(x, precision: Optional[int] = None):
    """E1(x) = integral_x^inf exp(-t)/t dt for x > 0."""
    p = _ambient(precision)
    with mp.workprec(p + 32):
        xx = mp.mpf(x)
        if xx <= 0:
            raise ValueError(f"exp_integral_e1 needs x > 0, got {x}")
        if xx <= _E1_CROSSOVER:
            # E1 = -euler - log x + sum (-1)^(n+1) x^n / (n n!)
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
            # modified Lentz on E1(x) = e^-x / (x + 1/(1 + 1/(x + 2/(1 + ...))))
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
                if i > 10 ** 6:
                    raise ValueError("E1 continued fraction failed to converge")
            v = h * mp.exp(-xx)
    with mp.workprec(p):
        return +v


def gamma_upper_int(s: int, x, precision: Optional[int] = None):
    """Upper incomplete gamma Gamma(s, x) for integer s >= 0 and x > 0.

    s >= 1 is elementary: (s-1)! e^(-x) sum_{j<s} x^j/j!.  s = 0 is E1(x).
    """
    if s == 0:
        return exp_integral_e1(x, precision)
    if s < 0:
        raise ValueError("gamma_upper_int needs s >= 0")
    p = _ambient(precision)
    with mp.workprec(p + 16):
        xx = mp.mpf(x)
        acc = mp.mpf(0)
        t = mp.mpf(1)
        for j in range(s):
            if j > 0:
                t *= xx / j
            acc += t
        v = mp.mpf(math.factorial(s - 1)) * mp.exp(-xx) * acc
    with mp.workprec(p):
        return +v
