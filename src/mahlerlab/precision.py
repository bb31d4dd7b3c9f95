"""Arbitrary-precision reals, exact rationals, and series acceleration.

Reals are mpmath floats; every routine that takes a ``precision`` argument
interprets it as a bit count and runs inside its own ``mp.workprec`` context,
so callers never have to manage the global mpmath state.  Rationals are
``fractions.Fraction`` and all rational arithmetic is exact.

Series with algebraic tails (1/n^2, 1/n^3, log n/n^2 ...) need an
accelerator: raw summation of an n^(-3) tail to twenty digits would need
~10^10 terms.  Two extrapolate partial sums.  `richardson` removes the
first m terms of an expansion S_n = S + c_1/n + c_2/n^2 + ... with one
weighted int sum; special.pfq runs it for every unit-argument pFq, each
with an integer tail exponent.  `accelerate` is the Levin u-transform,
which also takes fractional or logarithmic tails and alternating series;
its one caller is the registry's Levin helper, on int partial sums of the
series whose plans take Levin rather than Richardson.

mpmath runs on its pure-Python backend, so every mpf operation costs
microseconds.  The hot loops therefore run on a small fixed-point layer: an
int v with w fraction bits stands for v * 2^-w, `to_fixed`/`from_fixed`
convert at the loop's ends, and `fixed_bits` applies the guard-bit rule
w = mp.prec + FIXED_GUARD_BITS.  The Levin table and the Richardson sum are
exact integer arithmetic on that layer.  The other users are
modular.fricke_check's q-series Horner and modular.l_value's elementary
Mellin-split sides; special.ell_k/ell_kprime (the AGM and pi / (2 agm)
at every tanh-sinh node of the elliptic checks);
special.pfq, whose direct sum inside the unit disk (the k-integral route's
m_alpha series, m(R_k)'s 6F5 for |k| > 16, special.catalan's 3F2 at 1/4 and
special.legendre_chi3's 4F3) and partial sums at x = 1 (the 6F5 of
m(R_16) and the wan-moments 4F3s, which `richardson` extrapolates) step one
int term ratio, as do the registry's series plans; special.zeta_int
(Borwein's integer-weighted series); and special.exp_integral_e1 (the
Mellin split's E1 terms).  Each is an int loop whose docstring states its
error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath import libmp, mp

__all__ = [
    "NoConvergence",
    "ResourceLimitError",
    "AccelResult",
    "accelerate",
    "richardson",
]

MIN_PRECISION_BITS = 32


class ResourceLimitError(RuntimeError):
    """A computation would exceed its declared size or term budget."""


class NoConvergence(ArithmeticError):
    """Raised when a summation cannot meet its target error.

    Carries the best estimate reached so far in ``best`` and the number of
    terms consumed in ``terms``.
    """

    def __init__(self, message, best=None, terms=0):
        super().__init__(message)
        self.best = best
        self.terms = terms


# ---------------------------------------------------------------------------
# Fixed-point layer: an int v with w fraction bits stands for v * 2^-w.

FIXED_GUARD_BITS = 32


def fixed_bits() -> int:
    """Fraction bits for int work whose result rounds to mp.prec bits: the
    guard-bit rule, mp.prec + FIXED_GUARD_BITS."""
    return mp.prec + FIXED_GUARD_BITS


def to_fixed(x, w: int) -> int:
    """floor(x * 2^w) for an mpf x, exactly (x is not rounded to mp.prec)."""
    return libmp.to_fixed(x._mpf_, w)


def from_fixed(v: int, w: int, prec: Optional[int] = None):
    """v * 2^-w as an mpf: exact (the next mpf operation rounds it), or
    rounded once to prec bits when prec is given, with no context switch."""
    if prec is None:
        return mp.ldexp(v, -w)
    return mp.make_mpf(libmp.from_man_exp(v, -w, prec, libmp.round_nearest))


def fixed_ratio(num: int, den: int):
    """num / den as an mpf, rounded once to mp.prec; the two ints share
    whatever scale they carry."""
    return mp.make_mpf(
        libmp.mpf_div(libmp.from_int(num), libmp.from_int(den), mp.prec, libmp.round_nearest)
    )


@dataclass(frozen=True)
class AccelResult:
    value: object
    error_estimate: object
    low_confidence: bool = False


def accelerate(partial_sums: Sequence, precision: Optional[int] = None) -> AccelResult:
    """Extrapolate a sequence of partial sums to its limit (Levin u).

    The error estimate comes from differences of the highest-order
    extrapolants and is heuristic, not a bound.  Needs at least 8 partial
    sums.

    The table is numerically delicate: internal working precision is raised
    by ~1.2 bits per input term to absorb the cancellation, but the input
    partial sums themselves must have been computed accurately enough to
    carry the digits the caller hopes to extract.
    """
    n_terms = len(partial_sums)
    if n_terms < 8:
        raise ValueError(f"accelerate needs >= 8 partial sums, got {n_terms}")

    base = precision if precision is not None else mp.prec
    work = base + int(1.2 * n_terms) + 32
    with mp.workprec(work):
        s = [mp.mpf(x) for x in partial_sums]
        if s[-1] == s[-2] == s[-3]:
            # series terminated exactly
            return AccelResult(value=+s[-1], error_estimate=mp.mpf(0), low_confidence=False)
        diag = _levin_u_diagonal(s)
        if len(diag) < 3:
            value = diag[-1]
            return AccelResult(value=+value, error_estimate=abs(value), low_confidence=True)
        # deep tables can plateau and then diverge again (slowly decaying
        # monotone series do this in exact arithmetic, not just in floats),
        # so take the entry where successive diagonal differences bottom out
        diffs = [abs(diag[i + 1] - diag[i]) for i in range(len(diag) - 1)]
        best = 0
        for i in range(1, len(diffs)):
            if diffs[i] <= diffs[best]:
                best = i
        value = diag[best + 1]
        d1 = diffs[best]
        err = d1 + d1  # one extra step of the same size as safety margin
        if d1 == 0:
            err = mp.mpf(2) ** (-base)
        # flag sequences whose extrapolants never settled to ~base/4 digits
        settle_tol = abs(value) * mp.mpf(2) ** (-max(base // 4, 16)) + mp.mpf(2) ** (-base)
        low = d1 > settle_tol
        with mp.workprec(base + 8):
            return AccelResult(value=+value, error_estimate=+err, low_confidence=bool(low))


def richardson(sums: Sequence[int], n: int) -> int:
    """Richardson's extrapolant of fixed-point partial sums S_n, ...,
    S_(n+m), with S_j the sum of a series' first j terms and
    m = len(sums) - 1:

        floor(sum_k (-1)^(k+m) C(m,k) (n+k)^m S_(n+k) / m!),

    one int sum divided once.  The weights w_k are the Lagrange weights of
    extrapolation to 1/j = 0 through the m + 1 points 1/(n+k): they sum to
    1 and cancel c_1/j, ..., c_m/j^m, so when S_j = S + c_1/j + c_2/j^2
    + ... (terms with an integer tail exponent) the extrapolant is S up to
    about c_(m+1) / (n (n+1) ... (n+m)) (Richardson & Gaunt 1927, "The
    deferred approach to the limit"; Bender & Orszag 1978, 8.1).

    Floor error: sum_k |w_k| <= 2^m (n+m)^m / m!, so partial sums each off
    by under E units of the fixed-point scale give a result off by under
    E 2^m (n+m)^m / m! + 1 units.  The caller carries the log2 of that
    many extra fraction bits.
    """
    m = len(sums) - 1
    total, binom = 0, 1
    for k, s in enumerate(sums):
        term = binom * (n + k) ** m * s
        total += -term if (k + m) & 1 else term
        binom = binom * (m - k) // (k + 1)
    return total // math.factorial(m)


def _levin_u_diagonal(s):
    """Diagonal of the Levin u-transform table (beta = 1), over fixed-point ints.

    The textbook recursion N[k+1](n) = N[k](n+1) - c(n,k) N[k](n) has
    c(n,k) = (1+n)/(j+1) * (j/(j+1))^(k-1) with j = n+k+1.  Storing
    T[k](n) = j^(k-1) N[k](n) instead carries that power along, one
    small-int factor per column:

        T[k+1](n) = (j+1) T[k](n+1) - (1+n) T[k](n),

    and T[0](n) = N[0](n)/(1+n).  The scaling is the same for the
    numerator and denominator tables, so each diagonal entry is still the
    ratio T_num[k](0)/T_den[k](0).  Once T[0] is in fixed point the table is
    exact integer arithmetic; the entries grow by log2(j+1) bits a column.
    """
    a = [s[0]] + [s[i] - s[i - 1] for i in range(1, len(s))]
    # exact termination: a zero difference means the sum is already exact
    for i, ai in enumerate(a):
        if ai == 0 and i > 0:
            return [s[i]]
    den0 = [1 / ((1 + i) ** 2 * a[i]) for i in range(len(s))]
    num0 = [s[i] * den0[i] for i in range(len(s))]
    # the common scale cancels in num/den: give the smallest entry the
    # guard-bit rule's width, so no entry keeps fewer bits than its mpf
    w = fixed_bits() - min(mp.mag(x) for x in num0 + den0 if x)
    num = [to_fixed(x, w) for x in num0]
    den = [to_fixed(x, w) for x in den0]
    diag = [s[0]]
    m = len(s)
    for k in range(m - 1):
        num = [(n + k + 2) * num[n + 1] - (n + 1) * num[n] for n in range(m - 1 - k)]
        den = [(n + k + 2) * den[n + 1] - (n + 1) * den[n] for n in range(m - 1 - k)]
        if den[0] == 0:
            break
        diag.append(fixed_ratio(num[0], den[0]))
    return diag
