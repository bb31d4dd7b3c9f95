"""Exact verification of WZ certificate pairs and the binomial identities
they prove.

Everything here is integer and rational arithmetic: a pass is a proof for
the verified range, there are no tolerances.

Row sums.  Every sum of (2.8)-(2.9) and every telescoping row comes from a
certificate pair's reduced row sum

    r(n) = sum_{k<=n} C(2k,k)^2 2^(-4k) reduced_f(n,k).

PAIR_ONE's reduced_f is (2n+1)^2/(2n-2k+1) and PAIR_TWO's is
(2n+1)^2/(n+k+1), so s1 and s2 are PAIR_ONE's and PAIR_TWO's r(n) divided
by (2n+1)^2, and the direct side of telescope_reconstruct,
h(n) = sum_{k<=n} f(n,k), is T_n r(n) with T_n = C(2n,n)^2 / 16^n.  One
sweep per pair serves both checks: _reduced_row_sums(pair, n_max) computes
r(n) for every n <= n_max once per process, cached by (pair, n_max), and
identity_rows and telescope_reconstruct read it.  A new pair (say one
built by dataclasses.replace) is a new key; whoever patches a kernel the
sweep rests on (_row_sum, _central_squares) clears the cache with
_reduced_row_sums.cache_clear(), as the registry's negative controls do.
identity_2_8_2_9(n) computes its one row afresh and fills no cache.

_row_sum adds the terms C(2k,k)^2 16^(n-k) num_k / den_k, for
(num_k, den_k) = reduced_f(n,k), by binary splitting: neighbouring partial
sums P1/Q1 and P2/Q2 merge into (P1 Q2 + P2 Q1) / (Q1 Q2) with no gcd,
level by level, so a numerator of about 4n bits is only ever multiplied
by a product of small denominators, never by their lcm.  Its caller builds
one Fraction over Q 16^n from the result, so each value pays a single gcd
instead of one per term.  The inner sums of s3 and ramanujan_partial_sums come from the integer prefix

    I(n) = 256 I(n-1) + (4n+1) C(2n,n)^4,   I(n) / 2^(8n) = sum_{k<=n} (4k+1) 2^(-8k) C(2k,k)^4,

one Fraction (one gcd) per value again, and s3 one step of the prefix per
row when identity_rows computes all rows together.  C(2k,k)^2 comes from
the recurrence C(2k,k) = C(2k-2,k-1) 2(2k-1)/k, never from binom.

Certificates.  The two certificate pairs share the common factor
T(n,k) = 2^(-4k-4n) C(2k,k)^2 C(2n,n)^2, and each is declared once, by its
reduced forms f/T and g/T; the methods f and g return T times those, so
the pair verifier and the telescope read one certificate.  A reduced form
returns an integer pair (num, den) with den != 0, not necessarily in lowest
terms, so the verifier builds no Fraction and pays no gcd per value.  The
verifier divides the pair relation through by T, which cancels every
binomial coefficient and every power of two symbolically and leaves a
relation between O(1)-size rationals:

    T(n+1,k)/T(n,k) = (2n+1)^2 / (4(n+1)^2)
    T(n,k+1)/T(n,k) = (2k+1)^2 / (4(k+1)^2)

Both sides are compared by cross-multiplying their small integer numerators
and denominators; a zero den raises ZeroDivisionError as Fraction would,
and the exact Fraction residual (times T) is built only for a violation.
The values of f and g are Fractions, T (its binomials from binom) times
Fraction(*reduced), and the telescope's reconstruction side sums
f(n,n) + g(n-1,n) - g(n-1,0) from them, so it shares no arithmetic with
the row-sum kernel it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "WZPair",
    "WZReport",
    "PAIR_ONE",
    "PAIR_TWO",
    "binom",
    "wz_pair_verify",
    "identity_2_8_2_9",
    "identity_rows",
    "telescope_reconstruct",
    "ramanujan_partial_sums",
]


@lru_cache(maxsize=None)
def binom(n: int, k: int) -> int:
    """C(n,k) by the multiplicative formula; step i leaves C(n-k+i, i), so
    every division is exact and no gcd is needed."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"binom needs 0 <= k <= n, got n={n}, k={k}")
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
    return value


@dataclass(frozen=True)
class WZPair:
    """Certificate pair with the relation f(n+1,k)-f(n,k) = g(n,k+1)-g(n,k),
    declared by its reduced forms.

    reduced_f/reduced_g are f/T and g/T for the shared factor T above, each
    returned as an integer pair (num, den) with den != 0, in lowest terms or
    not (either sign of den); the verifier reads them and never touches a
    binomial, and _reduced_row_sums puts reduced_f through the row-sum
    kernel.  f and g are derived from them, T times the form.
    """

    name: str
    reduced_f: Callable[[int, int], Tuple[int, int]]
    reduced_g: Callable[[int, int], Tuple[int, int]]

    def f(self, n: int, k: int) -> Fraction:
        return _t_factor(n, k) * Fraction(*self.reduced_f(n, k))

    def g(self, n: int, k: int) -> Fraction:
        return _t_factor(n, k) * Fraction(*self.reduced_g(n, k))


@dataclass(frozen=True)
class WZReport:
    """Violations are (n, k, exact residual); k is None for telescoping rows.
    An empty tuple is a proof for the range checked."""

    pair_name: str
    n_max: int
    relations_checked: int
    violations: Tuple[Tuple[int, Optional[int], Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _t_factor(n: int, k: int) -> Fraction:
    return Fraction(binom(2 * k, k) ** 2 * binom(2 * n, n) ** 2, 1 << (4 * k + 4 * n))


PAIR_ONE = WZPair(
    "pair-2n-2k+1",
    lambda n, k: ((2 * n + 1) ** 2, 2 * n - 2 * k + 1),
    lambda n, k: (-(k ** 2) * (2 * n + 1) ** 2, (1 + n) ** 2 * (2 * n - 2 * k + 3)),
)

PAIR_TWO = WZPair(
    "pair-n+k+1",
    lambda n, k: ((2 * n + 1) ** 2, n + k + 1),
    lambda n, k: (k ** 2 * (2 * n + 1) ** 2, (n + 1) ** 2 * (n + k + 1)),
)


# ---------------------------------------------------------------------------
# The integer row-sum kernel


def _central_squares(n: int) -> List[int]:
    """C(2k,k)^2 for k <= n, from C(2k,k) = C(2k-2,k-1) 2(2k-1)/k."""
    csq = [1]
    for k in range(1, n + 1):
        csq.append(csq[-1] * (2 * (2 * k - 1)) ** 2 // (k * k))
    return csq


def _ramanujan_prefix(csq: Sequence[int]) -> List[int]:
    """I(k) = 2^(8k) sum_{j<=k} (4j+1) 2^(-8j) C(2j,j)^4 for k < len(csq)."""
    prefix = [1]
    for k in range(1, len(csq)):
        prefix.append((prefix[-1] << 8) + (4 * k + 1) * csq[k] ** 2)
    return prefix


def _row_sum(
    csq: Sequence[int], n: int, weights: Sequence[Tuple[int, int]]
) -> Tuple[int, int]:
    """(N, Q 16^n) with N / (Q 16^n) = sum_{k<=n} csq[k] 16^(-k) num_k/den_k
    for weights[k] = (num_k, den_k), den_k != 0 of either sign and Q the
    product of the den_k; a zero den_k makes Q zero, so the caller's
    Fraction raises ZeroDivisionError.

    Integer products and sums only, merged pairwise; the caller reduces the
    value once."""
    level = [((csq[k] * num) << (4 * (n - k)), den) for k, (num, den) in enumerate(weights)]
    while len(level) > 1:
        merged = [
            (p1 * q2 + p2 * q1, q1 * q2)
            for (p1, q1), (p2, q2) in zip(level[0::2], level[1::2])
        ]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    total, den = level[0]
    return total, den << (4 * n)


def _reduced_row(fn, n: int, stop: int) -> List[Tuple[int, int]]:
    """fn(n, k) for k < stop as (num, den) pairs; a zero den raises here, as
    Fraction(num, 0) would, so a 0-against-0 cross-multiplication never
    reads as a pass."""
    row = [fn(n, k) for k in range(stop)]
    if not all(map(itemgetter(1), row)):
        raise ZeroDivisionError(f"reduced certificate has a zero denominator in row n = {n}")
    return row


def wz_pair_verify(pair: WZPair, n_max: int) -> WZReport:
    """Check the pair relation exactly for all 0 <= k <= n <= n_max, in its
    reduced form

        rf(n+1,k) a_n/b_n - rf(n,k) = rg(n,k+1) c_k/d_k - rg(n,k)

    with a_n/b_n = T(n+1,k)/T(n,k) and c_k/d_k = T(n,k+1)/T(n,k), compared
    as cross-multiplied integers straight from the (num, den) pairs.  Row
    n+1's reduced_f values serve as the next row's, so each certificate
    value is evaluated once.  relations_checked counts the cells compared.

    Violations are reported with the exact residual of the full (unreduced)
    relation, the reduced one times T(n,k); they are data, not errors.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rf, rg = pair.reduced_f, pair.reduced_g
    ratios_k = [((2 * k + 1) ** 2, 4 * (k + 1) ** 2) for k in range(n_max + 1)]
    violations: List[Tuple[int, Optional[int], Fraction]] = []
    compared = 0
    f_next = _reduced_row(rf, 0, 1)
    for n in range(n_max + 1):
        f_row = f_next
        f_next = _reduced_row(rf, n + 1, n + 2)
        g_row = _reduced_row(rg, n, n + 2)
        a, b = (2 * n + 1) ** 2, 4 * (n + 1) ** 2
        # zip stops at its shortest list: count the cells it gave
        cells = list(zip(f_next, f_row, g_row[1:], g_row, ratios_k))
        compared += len(cells)
        for k, ((p1, q1), (p0, q0), (u1, v1), (u0, v0), (c, d)) in enumerate(cells):
            lhs_num, lhs_den = p1 * a * q0 - p0 * q1 * b, q1 * b * q0
            rhs_num, rhs_den = u1 * c * v0 - u0 * v1 * d, v1 * d * v0
            if lhs_num * rhs_den != rhs_num * lhs_den:
                residual = Fraction(lhs_num, lhs_den) - Fraction(rhs_num, rhs_den)
                violations.append((n, k, residual * _t_factor(n, k)))
    return WZReport(
        pair_name=pair.name,
        n_max=n_max,
        relations_checked=compared,
        violations=tuple(violations),
    )


def _reduced_row_sum(pair: WZPair, csq: Sequence[int], n: int) -> Fraction:
    """r(n) = sum_{k<=n} csq[k] 16^(-k) reduced_f(n,k), one Fraction."""
    return Fraction(*_row_sum(csq, n, _reduced_row(pair.reduced_f, n, n + 1)))


@lru_cache(maxsize=None)
def _reduced_row_sums(pair: WZPair, n_max: int) -> Tuple[Fraction, ...]:
    """r(n) for every n <= n_max: the one sweep per pair that identity_rows
    and telescope_reconstruct share (see the module docstring)."""
    csq = _central_squares(n_max)
    return tuple(_reduced_row_sum(pair, csq, n) for n in range(n_max + 1))


def _identity_triple(
    r1: Fraction, r2: Fraction, csq: Sequence[int], prefix: Sequence[int], n: int
) -> Tuple[Fraction, Fraction, Fraction]:
    """(s1, s2, s3) of row n from PAIR_ONE's and PAIR_TWO's r(n)."""
    square = (2 * n + 1) ** 2
    return r1 / square, r2 / square, Fraction(prefix[n], square * csq[n] << (4 * n))


def identity_2_8_2_9(n: int) -> Tuple[Fraction, Fraction, Fraction]:
    """The three exact sums that the certificate pairs prove equal:

    s1 = sum_{k<=n} 2^(-4k) C(2k,k)^2 / (2n-2k+1)
    s2 = sum_{k<=n} 2^(-4k) C(2k,k)^2 / (n+k+1)
    s3 = 2^(4n) / ((2n+1)^2 C(2n,n)^2) * sum_{k<=n} (4k+1) 2^(-8k) C(2k,k)^4
       = I(n) / ((2n+1)^2 C(2n,n)^2 2^(4n))

    One row, computed afresh: it neither reads nor fills the sweep cache.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    csq = _central_squares(n)
    r1, r2 = (_reduced_row_sum(pair, csq, n) for pair in (PAIR_ONE, PAIR_TWO))
    return _identity_triple(r1, r2, csq, _ramanujan_prefix(csq), n)


def identity_rows(n_max: int) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """identity_2_8_2_9(n) for every 0 <= n <= n_max.  s1 and s2 are
    PAIR_ONE's and PAIR_TWO's cached reduced row sums divided by (2n+1)^2,
    from the same sweep that telescope_reconstruct reads; s3 costs one step
    of the prefix I per row.  One row per sweep entry, so a shorter sweep
    gives fewer rows."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    csq = _central_squares(n_max)
    prefix = _ramanujan_prefix(csq)
    sweeps = zip(_reduced_row_sums(PAIR_ONE, n_max), _reduced_row_sums(PAIR_TWO, n_max))
    return [_identity_triple(r1, r2, csq, prefix, n) for n, (r1, r2) in enumerate(sweeps)]


def telescope_reconstruct(pair: WZPair, n_max: int) -> WZReport:
    """Check h(n) = h(0) + sum_{1<=j<=n} (f(j,j) + g(j-1,j) - g(j-1,0))
    against the direct row sums h(n) = sum_{k<=n} f(n,k) = T_n r(n),
    exactly, for every n <= n_max, row 0 included; relations_checked counts
    the rows compared.  The direct side reads the pair's cached sweep and
    the kernel's C(2n,n)^2, the reconstruction f and g (binom and
    Fraction), so the two sides share no arithmetic."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    violations: List[Tuple[int, Optional[int], Fraction]] = []
    csq = _central_squares(n_max)
    sweep = _reduced_row_sums(pair, n_max)
    recon = pair.f(0, 0)  # h(0) = f(0,0) by construction
    for n, r in enumerate(sweep):
        if n:
            recon += pair.f(n, n) + pair.g(n - 1, n) - pair.g(n - 1, 0)
        num, den = csq[n] * r.numerator, r.denominator << (4 * n)
        if num * recon.denominator != recon.numerator * den:
            violations.append((n, None, Fraction(num, den) - recon))
    return WZReport(
        pair_name=pair.name,
        n_max=n_max,
        relations_checked=len(sweep),
        violations=tuple(violations),
    )


def ramanujan_partial_sums(m_max: int) -> List[Fraction]:
    """Exact inner partial sums S_m = sum_{k<=m} (4k+1) 2^(-8k) C(2k,k)^4
    = I(m) / 2^(8m).

    These grow like (4/pi^2) log m + O(1).
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    prefix = _ramanujan_prefix(_central_squares(m_max))
    return [Fraction(prefix[m], 1 << (8 * m)) for m in range(m_max + 1)]
