"""Exact verification of WZ certificate pairs and the binomial identities
they prove.

Everything here is integer and rational arithmetic: a pass is a proof for
the verified range, there are no tolerances.

Row sums.  Every sum of (2.8)-(2.9) and every telescoping row has the shape

    sum_{k<=n} C(2k,k)^2 2^(-4k) num_k / den_k

with small integer weights: 1/(2n-2k+1) for s1, 1/(n+k+1) for s2, and a
pair's reduced_f(n,k) for the direct side of telescope_reconstruct.
_row_sum adds the terms C(2k,k)^2 16^(n-k) num_k / den_k by binary
splitting: neighbouring partial sums P1/Q1 and P2/Q2 merge into
(P1 Q2 + P2 Q1) / (Q1 Q2) with no gcd, level by level, so a numerator of
about 4n bits is only ever multiplied by a product of small denominators,
never by their lcm.  Its caller builds one Fraction over Q 16^n from the
result, so each value pays a single gcd instead of one per term.  The
inner sums of s3 and ramanujan_partial_sums come from the integer prefix

    I(n) = 256 I(n-1) + (4n+1) C(2n,n)^4,   I(n) / 2^(8n) = sum_{k<=n} (4k+1) 2^(-8k) C(2k,k)^4,

one Fraction (one gcd) per value again, and s3 one step of the prefix per
row when identity_rows computes all rows together.  C(2k,k)^2 comes from
the recurrence C(2k,k) = C(2k-2,k-1) 2(2k-1)/k, never from binom; the
registry's C(2n,n)^4 series plans read the same list.

Certificates.  The two certificate pairs share the common factor
T(n,k) = 2^(-4k-4n) C(2k,k)^2 C(2n,n)^2, and each is declared once, by its
reduced forms f/T and g/T; f and g are T times those.  A reduced form
returns an integer pair (num, den) with den != 0, not necessarily in lowest
terms, so the verifier builds no Fraction and pays no gcd per value.  The
fast verification route divides the pair relation through by T, which
cancels every binomial coefficient and every power of two symbolically and
leaves a relation between O(1)-size rationals:

    T(n+1,k)/T(n,k) = (2n+1)^2 / (4(n+1)^2)
    T(n,k+1)/T(n,k) = (2k+1)^2 / (4(k+1)^2)

Both sides are compared by cross-multiplying their small integer numerators
and denominators; a zero den raises ZeroDivisionError as Fraction would,
and the exact Fraction residual (times T) is built only for a violation.
The certificates f and g are Fractions, T (its binomials from binom) times
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
    """Certificate pair with the relation f(n+1,k)-f(n,k) = g(n,k+1)-g(n,k).

    reduced_f/reduced_g are f/T and g/T for the shared factor T above, each
    returned as an integer pair (num, den) with den != 0, in lowest terms or
    not (either sign of den); the verifier needs no gcd per value.  When
    both are present the verifier uses them and never touches a binomial,
    and a reduced_f alone lets telescope_reconstruct use the row-sum kernel.
    """

    name: str
    f: Callable[[int, int], Fraction]
    g: Callable[[int, int], Fraction]
    reduced_f: Optional[Callable[[int, int], Tuple[int, int]]] = None
    reduced_g: Optional[Callable[[int, int], Tuple[int, int]]] = None


@dataclass(frozen=True)
class WZReport:
    """Violations are (n, k, exact residual); k is None for telescoping rows.
    An empty tuple is a proof for the range checked."""

    pair_name: str
    n_max: int
    relations_checked: int
    violations: Tuple[Tuple[int, Optional[int], Fraction], ...]
    route: str

    @property
    def ok(self) -> bool:
        return not self.violations


def _t_factor(n: int, k: int) -> Fraction:
    return Fraction(binom(2 * k, k) ** 2 * binom(2 * n, n) ** 2, 1 << (4 * k + 4 * n))


def _reduced_pair(name: str, reduced_f, reduced_g) -> WZPair:
    """The pair f = T reduced_f, g = T reduced_g, with T from binom."""
    return WZPair(
        name=name,
        f=lambda n, k: _t_factor(n, k) * Fraction(*reduced_f(n, k)),
        g=lambda n, k: _t_factor(n, k) * Fraction(*reduced_g(n, k)),
        reduced_f=reduced_f,
        reduced_g=reduced_g,
    )


PAIR_ONE = _reduced_pair(
    "pair-2n-2k+1",
    lambda n, k: ((2 * n + 1) ** 2, 2 * n - 2 * k + 1),
    lambda n, k: (-(k ** 2) * (2 * n + 1) ** 2, (1 + n) ** 2 * (2 * n - 2 * k + 3)),
)

PAIR_TWO = _reduced_pair(
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


def wz_pair_verify(pair: WZPair, n_max: int) -> WZReport:
    """Check the pair relation exactly for all 0 <= k <= n <= n_max.

    Violations are reported with the exact residual of the full (unreduced)
    relation; they are data, not errors.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    reduced = pair.reduced_f is not None and pair.reduced_g is not None
    if reduced:
        violations = _reduced_violations(pair, n_max)
    else:
        violations = []
        for n in range(n_max + 1):
            for k in range(n + 1):
                lhs = pair.f(n + 1, k) - pair.f(n, k)
                rhs = pair.g(n, k + 1) - pair.g(n, k)
                if lhs != rhs:
                    violations.append((n, k, lhs - rhs))
    return WZReport(
        pair_name=pair.name,
        n_max=n_max,
        relations_checked=(n_max + 1) * (n_max + 2) // 2,
        violations=tuple(violations),
        route="reduced" if reduced else "direct",
    )


def _reduced_row(fn, n: int, stop: int) -> List[Tuple[int, int]]:
    """fn(n, k) for k < stop as (num, den) pairs; a zero den raises here, as
    Fraction(num, 0) would, so a 0-against-0 cross-multiplication never
    reads as a pass."""
    row = [fn(n, k) for k in range(stop)]
    if not all(map(itemgetter(1), row)):
        raise ZeroDivisionError(f"reduced certificate has a zero denominator in row n = {n}")
    return row


def _reduced_violations(
    pair: WZPair, n_max: int
) -> List[Tuple[int, Optional[int], Fraction]]:
    """The reduced relation

        rf(n+1,k) a_n/b_n - rf(n,k) = rg(n,k+1) c_k/d_k - rg(n,k)

    with a_n/b_n = T(n+1,k)/T(n,k) and c_k/d_k = T(n,k+1)/T(n,k), compared
    as cross-multiplied integers straight from the (num, den) pairs.  Row
    n+1's reduced_f values serve as the next row's, so each certificate
    value is evaluated once."""
    rf, rg = pair.reduced_f, pair.reduced_g
    ratios_k = [((2 * k + 1) ** 2, 4 * (k + 1) ** 2) for k in range(n_max + 1)]
    violations: List[Tuple[int, Optional[int], Fraction]] = []
    f_next = _reduced_row(rf, 0, 1)
    for n in range(n_max + 1):
        f_row = f_next
        f_next = _reduced_row(rf, n + 1, n + 2)
        g_row = _reduced_row(rg, n, n + 2)
        a, b = (2 * n + 1) ** 2, 4 * (n + 1) ** 2
        cells = zip(f_next, f_row, g_row[1:], g_row, ratios_k)
        for k, ((p1, q1), (p0, q0), (u1, v1), (u0, v0), (c, d)) in enumerate(cells):
            lhs_num, lhs_den = p1 * a * q0 - p0 * q1 * b, q1 * b * q0
            rhs_num, rhs_den = u1 * c * v0 - u0 * v1 * d, v1 * d * v0
            if lhs_num * rhs_den != rhs_num * lhs_den:
                residual = Fraction(lhs_num, lhs_den) - Fraction(rhs_num, rhs_den)
                violations.append((n, k, residual * _t_factor(n, k)))
    return violations


def _identity_row(
    csq: Sequence[int], prefix: Sequence[int], n: int
) -> Tuple[Fraction, Fraction, Fraction]:
    s1 = Fraction(*_row_sum(csq, n, [(1, 2 * n - 2 * k + 1) for k in range(n + 1)]))
    s2 = Fraction(*_row_sum(csq, n, [(1, n + k + 1) for k in range(n + 1)]))
    s3 = Fraction(prefix[n], (2 * n + 1) ** 2 * csq[n] << (4 * n))
    return s1, s2, s3


def identity_2_8_2_9(n: int) -> Tuple[Fraction, Fraction, Fraction]:
    """The three exact sums that the certificate pairs prove equal:

    s1 = sum_{k<=n} 2^(-4k) C(2k,k)^2 / (2n-2k+1)
    s2 = sum_{k<=n} 2^(-4k) C(2k,k)^2 / (n+k+1)
    s3 = 2^(4n) / ((2n+1)^2 C(2n,n)^2) * sum_{k<=n} (4k+1) 2^(-8k) C(2k,k)^4
       = I(n) / ((2n+1)^2 C(2n,n)^2 2^(4n))
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    csq = _central_squares(n)
    return _identity_row(csq, _ramanujan_prefix(csq), n)


def identity_rows(n_max: int) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """identity_2_8_2_9(n) for every 0 <= n <= n_max; the rows share one
    list of C(2k,k)^2 and one prefix I, so s3 costs O(1) per row."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    csq = _central_squares(n_max)
    prefix = _ramanujan_prefix(csq)
    return [_identity_row(csq, prefix, n) for n in range(n_max + 1)]


def _direct_row(pair: WZPair, csq: Sequence[int], n: int) -> Fraction:
    """h(n) = sum_{k<=n} f(n,k); with a reduced_f this is T_n times the
    kernel's row sum of reduced_f(n,k), T_n = C(2n,n)^2 / 16^n."""
    if pair.reduced_f is None:
        return sum((pair.f(n, k) for k in range(n + 1)), Fraction(0))
    total, den = _row_sum(csq, n, [pair.reduced_f(n, k) for k in range(n + 1)])
    return Fraction(csq[n] * total, den << (4 * n))


def telescope_reconstruct(pair: WZPair, n_max: int) -> WZReport:
    """Check h(n) = h(0) + sum_{j<=n} (f(j,j) + g(j-1,j) - g(j-1,0)) against
    the direct row sums h(n) = sum_{k<=n} f(n,k), exactly, for n <= n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    violations: List[Tuple[int, Optional[int], Fraction]] = []
    csq = _central_squares(n_max)
    recon = pair.f(0, 0)
    checked = 1  # n = 0 base case is h(0) = f(0,0) by construction
    for n in range(1, n_max + 1):
        recon += pair.f(n, n) + pair.g(n - 1, n) - pair.g(n - 1, 0)
        direct = _direct_row(pair, csq, n)
        checked += 1
        if direct != recon:
            violations.append((n, None, direct - recon))
    return WZReport(
        pair_name=pair.name,
        n_max=n_max,
        relations_checked=checked,
        violations=tuple(violations),
        route="telescope",
    )


def ramanujan_partial_sums(m_max: int) -> List[Fraction]:
    """Exact inner partial sums S_m = sum_{k<=m} (4k+1) 2^(-8k) C(2k,k)^4
    = I(m) / 2^(8m).

    These grow like (4/pi^2) log m + O(1).  The double-sum checks sum
    their increments S_m - S_(m-1) by parts, straight from _central_squares.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    prefix = _ramanujan_prefix(_central_squares(m_max))
    return [Fraction(prefix[m], 1 << (8 * m)) for m in range(m_max + 1)]
