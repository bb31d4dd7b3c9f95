"""Elliptic integrals via AGM, zeta values (Borwein's alternating series),
Catalan's constant (Bradley's 3F2 at 1/4), Legendre chi (a 4F3 at
alpha^2), the exponential integral, and generalized pFq summation.

Gamma is only provided at integer and half-integer arguments; that is all the
identities here require.  Everything real-valued is an mpf computed inside a
local working-precision context.

The kernels run on ints, in precision.py's fixed-point sense: the AGM is
the loop a, b <- (a+b)/2, isqrt(a b) on arguments normalised by a common
power of two, and ell_k/ell_kprime divide a fixed-point pi by its result
without leaving ints (`mahler.m_alpha`'s integral route runs the same
loop); both pFq branches step one small-int term ratio:
the direct sum inside the unit disk, and Richardson's extrapolation at
x = 1 for integer tail exponents (one weighted int sum), the only
unit-argument series pfq accepts; the registry's Levin series step the
same ratio (`_ratio_ints`); `zeta_int` sums Borwein's integer-weighted
series; and `exp_integral_e1` sums its power series or runs its
continued fraction's convergent recurrence, choosing per call whichever
needs fewer long multiplies at that x and precision.  Each converts its
inputs once and rounds its result once; `zeta_int` and `catalan` are
correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from mpmath import libmp, mp

from . import precision
from .precision import MIN_PRECISION_BITS, NoConvergence, fixed_ratio, from_fixed, to_fixed

__all__ = [
    "PFQSpec",
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


_NEAREST = libmp.round_nearest


def _ambient(precision: Optional[int]) -> int:
    return precision if precision is not None else mp.prec


def _agm_fixed(a: int, b: int, p: int) -> int:
    """agm of two positive ints on one fixed-point scale, on that scale.

    This is the one AGM loop; callers put their arguments on ints.  The
    bound assumes the smaller argument carries at least p + 16 significant
    bits (`_half_pi_over_agm` normalises its tuples so; the integrand of
    `mahler.m_alpha`'s integral route states its own bound).

    Each step a, b <- (a+b) >> 1, isqrt(a b) truncates by at most one unit,
    and neither falls below the smaller argument, so a step adds under
    2^-(p+15) relative error.  The mean passes relative errors on with
    weights in [0, 1] that sum to 1 (it is homogeneous of degree 1), so n
    steps add under n 2^-(p+15).  The loop stops once |a - b| <= 2^-(p+8) a,
    and the mean lies between b and a, so a is within 2^-(p+8) relative.
    Quadratic convergence: about log2(p) + log2(gap) steps.
    """
    while abs(a - b) > a >> (p + 8):
        a, b = (a + b) >> 1, math.isqrt(a * b)
    return a


def _modulus(k, prec: int):
    """k rounded to prec bits, as a raw mpf tuple."""
    if isinstance(k, mp.mpf):
        return libmp.mpf_pos(k._mpf_, prec, _NEAREST)
    return mp.mpf(k, prec=prec)._mpf_


def _half_pi_over_agm(kc, p: int):
    """pi / (2 agm(1, kc)) for a raw mpf tuple 0 < kc <= 1, rounded once to
    p bits.

    1 and kc become ints with f = p + 24 - mag(kc) fraction bits, so kc,
    the smaller, keeps p + 24 significant bits: exactly for the moduli
    ell_k and ell_kprime pass.  Near k = 0 the mean is that sensitive to
    the smaller argument.

    The mean m lies in [kc, 1], so the result is at least pi/2.  The int a
    is within 2^-(p+16) of m relative (`_agm_fixed` at p + 8), and the
    quotient floor(pi 2^g) 2^f / (2 a) is taken on ints at g = p + 24
    fraction bits, against mpmath's cached fixed-point pi; its two floors
    cost under 2^-(p+23) relative, so the result is within 2^-(p+15)
    relative before its one rounding to p bits.
    """
    f = p + 24 - (kc[2] + kc[3])
    a = _agm_fixed(1 << f, libmp.to_fixed(kc, f), p + 8)
    g = p + 24
    v = (libmp.pi_fixed(g) << (f - 1)) // a
    return from_fixed(v, g, p)


def ell_k(k, precision: Optional[int] = None):
    """Complete elliptic integral K(k) = pi / (2 agm(1, sqrt(1-k^2))).

    The complementary modulus is formed as (1-k)(1+k), each step rounded to
    p + 16 bits, so that k extremely close to 1 (quadrature abscissae land
    there) keeps its full precision.
    """
    p = _ambient(precision)
    q = p + 16
    kk = _modulus(k, q)
    one = libmp.fone
    if kk[0] or libmp.mpf_ge(kk, one):
        raise ValueError(f"ell_k needs 0 <= k < 1, got {k}")
    below, above = libmp.mpf_sub(one, kk, q, _NEAREST), libmp.mpf_add(one, kk, q, _NEAREST)
    kc = libmp.mpf_sqrt(libmp.mpf_mul(below, above, q, _NEAREST), q, _NEAREST)
    return _half_pi_over_agm(kc, p)


def ell_kprime(k, precision: Optional[int] = None):
    """Complementary integral K'(k) = K(sqrt(1-k^2)) = pi / (2 agm(1, k))."""
    p = _ambient(precision)
    kk = _modulus(k, p + 16)
    if kk[0] or kk == libmp.fzero or libmp.mpf_gt(kk, libmp.fone):
        raise ValueError(f"ell_kprime needs 0 < k <= 1, got {k}")
    return _half_pi_over_agm(kk, p)


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
# Riemann zeta at integers by Borwein's alternating series


def zeta_int(s: int, precision: int = 128):
    """zeta(s) for integer s >= 2 by Borwein's Algorithm 2 (P. Borwein, "An
    efficient algorithm for the Riemann zeta function", 2000), correctly
    rounded.

    With d_k = e_0 + ... + e_k for the ints e_0 = 1 and
    e_(i+1) = e_i 2(n+i)(n-i) / ((2i+1)(i+1)), so that d_n = T_n(3) >=
    (3+sqrt 8)^n / 2,
        zeta(s) (1 - 2^(1-s)) = sum_(k<n) (-1)^k (d_n - d_k) / (d_n (k+1)^s)
    up to 3 (3+sqrt 8)^-n; so for n = ceil((p+4) / log2(3+sqrt 8)) and
    p = precision + g the quotient is within 6 (3+sqrt 8)^-n <= 6 2^-(p+4)
    of zeta(s).  The terms are the ints floor((d_n - d_k) 2^w / (k+1)^s) at
    w = p + bitlen(n) + 8 fraction bits.  Each is 0 once (k+1)^s passes
    d_n 2^w, and so the sum stops where 2^(s floor(log2(k+1))) does, which
    keeps a large s cheap.  The floors cost under n / d_n units of 2^-w and
    the quotient three roundings to w bits, so the value is within
    2^-(p+1) of zeta(s).  It is rounded once to precision when both ends of
    that interval round alike; otherwise zeta(s) lies that close to a
    rounding tie and the pass is repeated with g doubled, from g = 16.
    """
    if s < 2:
        raise ValueError(f"zeta_int needs s >= 2, got {s}")
    if precision < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be >= {MIN_PRECISION_BITS} bits")
    guard = 16
    while True:
        p = precision + guard
        n = math.ceil((p + 4) / math.log2(3 + math.sqrt(8)))
        d, e = [1], 1
        for i in range(n):
            e = e * 2 * (n + i) * (n - i) // ((2 * i + 1) * (i + 1))
            d.append(d[-1] + e)
        w = p + n.bit_length() + 8
        limit = d[n] << w
        total = 0
        for k in range(n):
            # (k+1)^s >= 2^(s floor(log2(k+1))) > limit: zero from here on
            if s * ((k + 1).bit_length() - 1) >= limit.bit_length():
                break
            t = ((d[n] - d[k]) << w) // (k + 1) ** s
            total += -t if k & 1 else t
        with mp.workprec(w):
            value = fixed_ratio(total, d[n] << w) / (1 - mp.ldexp(1, 1 - s))
        err = mp.ldexp(1, -p - 1)
        low, high = (mp.mpf(mp.fadd(value, r, exact=True), prec=precision) for r in (-err, err))
        if low == high:
            return low
        guard *= 2


def zeta_prime_minus2(precision: int = 128):
    """zeta'(-2) = -zeta(3) / (4 pi^2)."""
    with mp.workprec(precision + 16):
        v = -zeta_int(3, precision + 16) / (4 * mp.pi ** 2)
    with mp.workprec(precision):
        return +v


def catalan(precision: int = 128):
    """Catalan's constant by Bradley's series (Bradley 1999, "Representations
    of Catalan's constant"): G = (pi/8) log(2 + sqrt 3) + (3/8) S with
    S = sum 1/((2n+1)^2 C(2n,n)) = 3F2(1/2, 1, 1; 3/2, 3/2; 1/4), a
    geometric series that pfq's direct int path sums.

    With g guard bits S is summed at precision + g bits to target
    2^-(precision+g-8); pfq's int bound and stop rule keep it within a
    quarter of that target plus one rounding, and the other six roundings
    at precision + g bits add a few units of 2^-(precision+g), so the value
    is within 2^-(precision+g-7) of G.  It is rounded once to precision
    when both ends of that interval round alike; otherwise G lies that
    close to a rounding tie and the pass is repeated with g doubled, from
    g = 16.  So the result is G correctly rounded.
    """
    spec = PFQSpec([Fraction(1, 2), 1, 1], [Fraction(3, 2)] * 2, Fraction(1, 4))
    guard = 16
    while True:
        with mp.workprec(precision + guard):
            s = pfq(spec, mp.mpf(2) ** (8 - precision - guard), precision=precision + guard)
            value = mp.pi / 8 * mp.log(2 + mp.sqrt(3)) + 3 * s / 8
        err = mp.mpf(2) ** (7 - precision - guard)
        low, high = (mp.mpf(mp.fadd(value, e, exact=True), prec=precision) for e in (-err, err))
        if low == high:
            return low
        guard *= 2


def legendre_chi3(alpha, precision: int = 128):
    """Legendre chi_3(alpha) = sum_{n>=0} alpha^(2n+1) / (2n+1)^3 on [0, 1],
    as alpha 4F3(1/2, 1/2, 1/2, 1; 3/2, 3/2, 3/2; alpha^2), summed by pfq's
    direct int path at precision + 16 bits to target 2^-(precision+8).

    Within 2^-(precision+8) of 1 the closed form chi_3(1) = 7 zeta(3) / 8
    is used: chi_3(1) - chi_3(alpha) is about (pi^2/8)(1 - alpha) there,
    below 2^-(precision+7).  The series ratio alpha^2 makes direct
    summation useless near 1: outside that window pfq refuses an alpha whose
    estimated term count passes 10^8, and gives up after 10^7 terms.
    """
    with mp.workprec(precision + 16):
        a = mp.mpf(alpha)
        if a < 0 or a > 1:
            raise ValueError(f"legendre_chi3 needs 0 <= alpha <= 1, got {alpha}")
        if a == 0:
            v = mp.mpf(0)
        elif 1 - a < mp.mpf(2) ** (-(precision + 8)):
            v = 7 * zeta_int(3, precision + 16) / 8
        else:
            spec = PFQSpec([Fraction(1, 2)] * 3 + [1], [Fraction(3, 2)] * 3, a * a)
            v = a * pfq(spec, mp.mpf(2) ** (-(precision + 8)), precision=precision + 16)
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


def pfq(spec: PFQSpec, target_abs_error, precision: Optional[int] = None):
    """Evaluate pFq to the requested absolute error.

    |x| is compared with 1 exactly, on _exact_argument's ints.  Inside the
    unit disk the series is summed directly with a geometric tail estimate.
    At |x| = 1 the partial sums are extrapolated (the series here decay like
    n^(-2) or n^(-3), so direct summation to 10 digits would need ~10^8
    terms, which is refused) by Richardson's weights, which hold for x = +1
    with an integer tail exponent, as for every caller in this package: the
    6F5 of m(R_16), the wan-moments 4F3s and m_alpha's 3F2 at alpha = 1.
    Any other unit argument (x = -1, or a fractional tail exponent) raises
    ValueError, as does a tail exponent <= 1 (a divergent series).
    """
    target = mp.mpf(target_abs_error)
    base = precision if precision is not None else int(-mp.log(target, 2)) + 48
    num, den, s = _exact_argument(spec.argument, base + 32)

    terminates = any(Fraction(a) <= 0 and Fraction(a).denominator == 1 for a in spec.upper)
    if abs(num) > den << s and not terminates:
        raise ValueError(f"pFq diverges for |argument| > 1, got {spec.argument}")
    if abs(num) == den << s and not terminates:
        rho = spec.tail_exponent()
        if rho <= 1:
            raise ValueError("pFq at unit argument needs parameter excess > 0")
        if num < 0 or rho.denominator != 1:
            raise ValueError(
                "pFq at |argument| = 1 is summed only at +1 with an integer tail exponent"
            )
        return _pfq_richardson(_ratio_ints(spec), target, base)
    return _pfq_direct(spec, target, base, terminates)[0]


# the direct sum's float error bookkeeping rescales past 2^300, so the
# bound of a series whose terms grow past the float range stays finite
_FLOAT_CAP_BITS = 300
_FLOAT_CAP = 2.0 ** _FLOAT_CAP_BITS


def _int_factors(params):
    """(p, q, multiplicity) for each distinct rational parameter p/q."""
    counts = {}
    for a in params:
        counts[a] = counts.get(a, 0) + 1
    return [(a.numerator, a.denominator, m) for a, m in counts.items()]


def _exact_argument(val, prec: int):
    """The argument as ints (num, den, s) with value num / (den 2^s): a
    Fraction or int as it stands, anything else as the mpf it rounds to
    at prec bits (mantissa over a power of two)."""
    if isinstance(val, (int, Fraction)):
        q = Fraction(val)
        return q.numerator, q.denominator, 0
    sign, man, exp, _ = mp.mpf(val, prec=prec)._mpf_
    num = -man if sign else man
    if exp >= 0:
        return num << exp, 1, 0
    return num, 1, -exp


def _ratio_ints(spec: PFQSpec):
    """n -> (P(n), Q(n)), small ints with P(n) / Q(n) = t_(n+1) / (x t_n) =
    prod (a + n) / ((n + 1) prod (b + n)).  As a + n = (p + n q) / q for
    a = p/q, the q of the upper parameters go to Q, the lower ones' to P."""
    upper, lower = _int_factors(spec.upper), _int_factors(spec.lower)
    p_scale = math.prod(q ** m for _, q, m in lower)
    q_scale = math.prod(q ** m for _, q, m in upper)

    def ratio(n: int):
        pn = p_scale
        for a, q, m in upper:
            pn *= (a + n * q) ** m
        qn = q_scale * (n + 1)
        for b, q, m in lower:
            qn *= (b + n * q) ** m
        return pn, qn

    return ratio


def _first_stop(spec: PFQSpec, x_num: int, x_den: int):
    """The first n at which the direct sum may take its stop rule, or None
    if no n may: n has passed every negative parameter, and a bound on the
    term ratio's modulus over all m >= n, taken at x = x_num / x_den, is
    below 1.

    Past every negative parameter each a + m and b + m is non-negative, so
    each factor (a + m) / (b + m) is monotone in m and tends to 1.  Pairing
    the sorted upper parameters with the largest sorted lower ones, the
    (m + 1) of the ratio counting as a lower parameter 1, bounds the ratio
    over m >= n by x prod max((a + n) / (b + n), 1) prod 1 / (b + n) over
    the unpaired b.  The bound does not grow with n and tends to x
    (p = q + 1), to 0 (p < q + 1) or past every bound (p > q + 1), so the
    first n comes from doubling and bisection, in ints.
    """
    upper = sorted(spec.upper)
    lower = sorted(spec.lower + [Fraction(1)])
    if len(upper) > len(lower):
        return 0 if x_num == 0 else None
    paired = lower[len(lower) - len(upper):]
    pairs = [(a.numerator, a.denominator, b.numerator, b.denominator) for a, b in zip(upper, paired)]
    alone = [(b.numerator, b.denominator) for b in lower[: len(lower) - len(upper)]]

    def below_one(n):
        num, den = x_num, x_den
        for pa, qa, pb, qb in pairs:
            u, v = (pa + n * qa) * qb, (pb + n * qb) * qa
            if u > v:
                num, den = num * u, den * v
        for pb, qb in alone:
            num, den = num * qb, den * (pb + n * qb)
        return num < den

    # ceil(-c) for the most negative parameter c
    lo = max(0, max(-(c.numerator // c.denominator) for c in upper + lower))
    if below_one(lo):
        return lo
    if not alone and x_num >= x_den:
        return None
    hi = lo + 1
    while not below_one(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below_one(mid) else (mid, hi)
    return hi


def _pfq_direct(spec: PFQSpec, target, base: int, terminates: bool):
    """Sum pFq term by term on ints: (value rounded once to base bits, the
    index n of the last term ratio taken).

    With the parameters a = p/q rational, the term ratio
    x prod (a + n) / ((n + 1) prod (b + n)) is x P(n) / Q(n) for products
    P, Q of small ints, and the argument is an exact num / (den 2^s).  The
    term t is an int of w = max(base, 8 - mag(target)) + 32 fraction bits,
    stepped by t <- ((t num P(n)) >> s) // (den Q(n)).  Each step floors
    under 2 units of 2^-w, and an error in t_n reaches every later t_m in
    proportion to the exact ratio product t_m / t_n, so term m is off by at
    most 2 A_m units, with A_0 = 1 and A_m = 1 + r A_(m-1) for r the
    ratio's modulus at step m - 1.  The loop carries sum A_m in floats and,
    should 2 sum A_m pass 2^(w-base-8) units (terms that grow after a dip),
    sums again with that many more bits; so the int total is within
    2^-(base+8) of the summed terms.  The stop rule is the mpf route's,
    cross-multiplied over ints: r < 1, |t| r / (1 - r) < target/4 and
    |t| < target/4, taken only from the index _first_stop gives, so a ratio
    that is small at one step and passes 1 later does not end the sum.  A
    parameter -M < 0 thus costs at least M terms.  A non-terminating
    series that no such index serves diverges and is refused, as are
    arguments beyond 0.999 whose estimated term count passes 10^8.
    """
    num, den, s = _exact_argument(spec.argument, base + 32)
    if not terminates and 1000 * abs(num) > 999 * (den << s):
        with mp.workprec(base + 32):
            # estimated terms-to-target beyond 10^8 is refused by contract
            if mp.log(target) / mp.log(mp.mpf(abs(num)) / (den << s)) > 10 ** 8:
                raise ValueError("pFq argument too close to 1 for direct summation")
    ratio = _ratio_ints(spec)
    x_abs = float(min(Fraction(abs(num), den << s), _FLOAT_CAP))
    first_stop = _first_stop(spec, abs(num), den << s)
    if first_stop is None:
        if not terminates:
            raise ValueError("pFq diverges: its term ratio does not stay below 1")
        first_stop = math.inf
    w = max(base, 8 - mp.mag(target)) + 32
    while True:
        quarter = to_fixed(target, w) >> 2
        total, t, n = 0, 1 << w, 0
        # spread * 2^spread_bits is sum A_m; unit is A's 1 in that scale
        amp = spread = unit = 1.0
        spread_bits = 0
        while True:
            total += t
            pn, qn = ratio(n)
            step_num, step_den = num * pn, den * qn
            t = ((t * step_num) >> s) // step_den
            if pn == 0:
                break  # a non-positive integer upper parameter: the series ended
            amp = unit + amp * x_abs * abs(pn / qn)
            spread += amp
            if spread > _FLOAT_CAP:
                amp, spread, unit = amp / _FLOAT_CAP, spread / _FLOAT_CAP, unit / _FLOAT_CAP
                spread_bits += _FLOAT_CAP_BITS
            if n >= first_stop and abs(t) < quarter:
                r_num, r_den = abs(step_num), abs(step_den) << s  # r = r_num / r_den
                if r_num < r_den and abs(t) * r_num < quarter * (r_den - r_num):
                    total += t
                    break
            n += 1
            if n > 10 ** 7:
                raise ValueError("pFq direct summation failed to converge")
        excess = math.log2(spread) + spread_bits + 1 - (w - base - 8)
        if excess <= 0:
            return from_fixed(total, w, base), n
        w += math.ceil(excess) + 2


# the most terms the unit-argument route sums before giving up
_UNIT_TERM_CAP = 1280


def _pfq_richardson(ratio, target, base: int):
    """A pFq series at x = 1 with an integer tail exponent, by `richardson`
    over n + m partial sums, m = (n + m) // 3, rounded once to base bits.

    The goal is both the target and 2^-(base+8) (|S| + 1), so the rounding
    to base bits does not depend on the route (and a sum near 0 is not
    asked for more than base + 8 bits after the point).  The error estimate is the
    gap to the extrapolant two orders weaker, R(n, m-2), from the same
    sums: two orders, so that coefficients c_k that alternate in size (as
    Bernoulli numbers do) cannot make the gap small by parity.  Measured on
    the 6F5 and the wan-moments 4F3s, R(n, m) lies 2^3 to 2^12 below that
    gap; the estimate is heuristic, not a bound.  The sums start at
    3 (bits/5 + 4) terms for bits = max(base + 8, -log2 target), since
    R(2m, m) gains about 5.3 bits per m there, and double up to 1280 until
    the estimate meets the goal.

    The terms are ints of w fraction bits stepped by t <- t P(n) // Q(n).
    Each floor costs under one unit and an error in t_j reaches t_l in
    proportion to the exact ratio product, so term l is off by under A_l
    units (A_0 = 0, A_l = 1 + r A_(l-1) for the ratio r of step l - 1) and
    every partial sum by under E = sum_l A_l, which the loop carries in
    floats.  w = bits + 8 + log2(2^m (n+m)^m / m!) + 2 bitlen(n+m): then
    E <= 2^(2 bitlen(n+m)) (ratios below 1 give E <= (n+m)^2 / 2) leaves
    `richardson`'s floor error under 2^-(bits+7), and a larger E widens w
    by its excess and sums again.
    """
    bits = max(base + 8, 1 - mp.mag(target))
    terms = 3 * (bits // 5 + 4)
    extra = 0
    while True:
        terms = min(terms, _UNIT_TERM_CAP)
        m = terms // 3
        n = terms - m
        gain = m + m * math.log2(terms) - math.lgamma(m + 1) / math.log(2)
        w = bits + 8 + math.ceil(gain) + 2 * terms.bit_length() + extra
        sums, total, t = [], 0, 1 << w
        amp = spread = 0.0
        for j in range(terms):
            total += t
            if j >= n - 1:
                sums.append(total)
            pn, qn = ratio(j)
            t = t * pn // qn
            amp = 1 + amp * abs(pn / qn)
            spread += amp
        excess = math.ceil(math.log2(spread)) - 2 * terms.bit_length() - extra
        if excess > 0:
            extra += excess
            continue
        value = precision.richardson(sums, n)
        gap = abs(value - precision.richardson(sums[:-2], n))
        if gap <= to_fixed(target, w) and gap <= (abs(value) + (1 << w)) >> (base + 8):
            return from_fixed(value, w, base)
        if terms >= _UNIT_TERM_CAP:
            raise NoConvergence(
                "pFq extrapolation stalled above the requested error",
                best=from_fixed(value, w, base),
                terms=terms,
            )
        terms *= 2


# ---------------------------------------------------------------------------
# Exponential integral


def _e1_cancel_bits(x: float) -> int:
    """Extra fraction bits the series needs: it sums to E1(x) + euler + ln x,
    of order ln x, while E1(x) > e^-x / (x+2)."""
    return int(x / math.log(2) + math.log2(x + 2)) + 8


def _e1_uses_series(x: float, bits: int) -> bool:
    """Route for E1(x) at a 2^-bits target, from estimated step counts.

    The series needs K terms, x^K / K! < 2^-(bits + cancellation bits):
    Newton on K ln(K / (e x)) = that many bits times ln 2, started to the
    right of the root.  Successive continued-fraction convergents differ by
    about exp(x - 4 sqrt(n x)) (Perron's asymptotics of the Laguerre
    denominators L_n(-x)), so it needs n = (bits ln 2 + x)^2 / (16 x)
    steps.  A series term costs one long multiply and a step two, so the
    series wins while K <= 2n."""
    target = (bits + _e1_cancel_bits(x)) * math.log(2)
    k = math.e * x + target
    for _ in range(6):
        k -= (k * math.log(k / (math.e * x)) - target) / math.log(k / x)
    return k <= 2 * (bits * math.log(2) + x) ** 2 / (16 * x)


def _e1_series(x, bits: int):
    """E1(x) = -euler - ln x + sum_k (-1)^(k+1) x^k / (k k!), summed on ints
    with w = bits + cancellation bits + 16 fraction bits.

    The term t_k = x^k / k! is carried as floor(t_(k-1) x) // k, so a
    truncation at step j passes on to every later term in proportion.  Its
    effect on the sum is therefore a multiple of the tail
    sum_(k>=j) (-1)^(k+1) x^k / (k k!) = int_0^x R_j(t) dt / t, with R_j
    the Taylor remainder of e^-t, and that tail is below its first term
    x^j / (j j!) even where the terms still grow.  So although the terms
    reach e^x / x, each of the K truncations moves the sum by under 2/j
    units of 2^-w and each term's // k by under one, and the loop stops at
    the first zero term, past which the tail is below one unit: the int sum
    is off by under 2K units.  The sum is about ln x, so subtracting euler
    and ln x at w bits adds three roundings of that size, and since
    E1(x) > e^-x / (x+2) the cancellation bits leave a relative error below
    (2K + 3 ln(x+3)) 2^-(bits+23) before the caller's rounding."""
    w = bits + _e1_cancel_bits(float(x)) + 16
    xs = to_fixed(x, w)
    t = total = xs
    k = 1
    while t:
        k += 1
        t = ((t * xs) >> w) // k
        total += t // k if k & 1 else -(t // k)
    with mp.workprec(w):
        return from_fixed(total, w) - mp.euler - mp.log(x)


def _e1_fraction(x, bits: int):
    """e^x E1(x) = 1/(x+1 - 1/(x+3 - 4/(x+5 - ...))), b_i = x+2i+1 and
    a_i = -i^2, as the ratio B_n / A_n of the convergents' three-term int
    recurrence C_i = b_i C_(i-1) + a_i C_(i-2), with w = bits + 32 fraction
    bits.

    A and B are shifted right together whenever A passes 2^(w+32), so A
    keeps at least w bits and each step's truncation is below 2^(2-w)
    relative; both are dominant solutions, so n steps add under n 2^(3-w).
    The stop is the cross-multiplied test |A_n B_(n-1) - A_(n-1) B_n| <
    2^-bits |A_n B_(n-1)|, i.e. successive convergents agree to 2^-bits,
    with the left side the Wronskian prod_i i^2 (times the shifts' scale)
    carried in log2.  The convergents approach monotonically with
    difference ratio about exp(-2 sqrt(x/n)), so the truncation error is
    within sqrt(n/x) of the last difference."""
    w = bits + 32
    coef = to_fixed(x, w) + (1 << w)  # b_0
    den_prev, den = 1 << w, coef  # A_(-1), A_0
    num_prev, num = 0, 1 << w  # B_(-1), B_0
    wronskian_bits = 2.0 * w
    i = 0
    while True:
        i += 1
        coef += 2 << w
        den_prev, den = den, ((coef * den) >> w) - i * i * den_prev
        num_prev, num = num, ((coef * num) >> w) - i * i * num_prev
        wronskian_bits += 2 * math.log2(i)
        size = den.bit_length()
        if wronskian_bits + bits < size + num_prev.bit_length() - 2:
            return fixed_ratio(num, den)
        if size > w + 32:
            r = size - w
            den_prev, den, num_prev, num = den_prev >> r, den >> r, num_prev >> r, num >> r
            wronskian_bits -= 2 * r


def exp_integral_e1(x, precision: Optional[int] = None):
    """E1(x) = integral_x^inf exp(-t)/t dt for x > 0.

    Each call takes the cheaper int kernel for its x and precision p: the
    power series where it needs at most twice the continued fraction's
    steps (small x, or high p), else the continued fraction times e^-x.
    Both aim at 2^-(p+24) relative; the result is rounded once to p bits.
    """
    p = _ambient(precision)
    with mp.workprec(p + 32):
        xx = mp.mpf(x)
        if xx <= 0:
            raise ValueError(f"exp_integral_e1 needs x > 0, got {x}")
        bits = p + 24
        # the route estimates run on floats; clamp x into their range
        if _e1_uses_series(min(max(float(xx), 1e-300), 1e100), bits):
            v = _e1_series(xx, bits)
        else:
            v = _e1_fraction(xx, bits) * mp.exp(-xx)
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
