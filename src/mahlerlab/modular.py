"""Eta-product q-expansions, theta series, and L-values of the two newforms
the identities here revolve around:

    f = eta(2t)^4 eta(4t)^4   weight 4, level 8
    h = eta(4t)^6             weight 3, level 16 (CM by Q(i))

L-values come from the Mellin split of the completed function at a free
split point t0 (Dokchitser 2004):

    Lambda(s) = level^(s/2) G(s, 2 pi t0)
                + sign * level^((weight-s)/2) G(weight - s, 2 pi / (level t0)),
    G(s, c) = sum_n a_n (2 pi n)^(-s) Gamma(s, c n),

each side converging like exp(-c n).  At the integer arguments the
artifact needs, Gamma(s, x) for s >= 1 is e^-x times a polynomial in x, so
such a side is one fixed-point q-series in q = e^-c on ints; Gamma(0, x) is
E1(x), which special.exp_integral_e1 evaluates term by term on
precision.py's fixed-point layer (an int series or continued fraction).
t0 = 1/sqrt(level) balances the two sides' term counts; when one side is
E1 (s = weight) the split moves to t0 = 1/(4 sqrt(level)), where that side
needs 4 times fewer of its costly terms.

axis_mellin computes Lambda(s) = level^(s/2) int_0^inf f(iu) u^(s-1) du
directly, for any number of s at once: with u = e^t the integrand decays
double-exponentially at both ends and is analytic in |Im t| < pi/2, so one
trapezoidal grid in t over [delta, T] converges like e^(-2 pi d/h)
(Trefethen & Weideman 2014).  Each node's f(iu) = sum a_n exp(-2 pi n u) is
a Horner sum over ints scaled by 2^w (precision.py's fixed-point layer,
w = working precision + 32 guard bits) in x^step, where step is the stride
of the support (2 for f, 4 for h), and serves every s.  Lambda(0) = L'(0)
comes from the same grid.

fricke_check never assumes the functional equation: it compares axis_mellin's
Lambda(s) against sign * Lambda(weight - s).  Under modularity the integrand
below delta is ~ exp(-2 pi / (level u)) and the nodes there are negligible;
if the form were not modular the two sides would disagree loudly, which is
the point of the check.

q-series products use Kronecker substitution: one int product per
multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Tuple

from mpmath import mp

from . import special
from .precision import ResourceLimitError, fixed_bits, from_fixed, to_fixed

__all__ = [
    "QSeries",
    "NewformSpec",
    "NEWFORM_F",
    "NEWFORM_H",
    "FunctionalEquationViolation",
    "ResourceLimitError",
    "eta_qexp",
    "theta_psi",
    "newform_coefficient",
    "l_value",
    "l_prime_at_0",
    "axis_mellin",
    "fricke_check",
]


class FunctionalEquationViolation(ArithmeticError):
    """Lambda(s) and sign*Lambda(weight-s) disagree beyond threshold."""

    def __init__(self, message, asymmetry=None, threshold=None):
        super().__init__(message)
        self.asymmetry = asymmetry
        self.threshold = threshold


_COEFF_LIMIT = 10 ** 6


@dataclass(frozen=True)
class QSeries:
    """Truncated integer power series: coeffs[i] is the q^i coefficient,
    exact through q^order."""

    coeffs: Tuple[int, ...]
    order: int

    def __post_init__(self):
        if self.order < 0 or len(self.coeffs) != self.order + 1:
            raise ValueError("coeffs must hold exactly order+1 entries")

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i <= self.order else 0

    def __mul__(self, other: "QSeries") -> "QSeries":
        # Kronecker substitution: each operand becomes one int with its
        # coefficients in slots of `width` bytes, one int product gives every
        # convolution sum, and the slots are read back signed.  A product
        # coefficient is at most (n + 1) max|a| max|b| in absolute value, so
        # with a sign bit on top it fits its slot and no slot carries.
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        bound = max(map(abs, a)) * max(map(abs, b)) * (n + 1)
        if not bound:
            return QSeries((0,) * (n + 1), n)
        width = (bound.bit_length() + 8) // 8
        packed = _pack(a, width)
        product = packed * (packed if other is self else _pack(b, width))
        # half a slot added to every slot makes each one nonnegative; the
        # mask cuts off the slots past q^n
        size = width * (n + 1)
        half = int.from_bytes((bytes(width - 1) + b"\x80") * (n + 1), "little")
        raw = ((product + half) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        offset = 1 << (8 * width - 1)
        out = [int.from_bytes(raw[i : i + width], "little") - offset for i in range(0, size, width)]
        return QSeries(tuple(out), n)

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            raise ValueError("only nonnegative integer powers")
        if e == 0:
            return QSeries((1,) + (0,) * self.order, self.order)
        # binary powering that starts from the lowest set bit's power, not
        # from the series 1: x^e costs its squarings plus popcount(e) - 1
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return QSeries((0,) * k + self.coeffs, self.order + k)

    def dilate(self, scale: int) -> "QSeries":
        """Substitute q -> q^scale."""
        if scale < 1:
            raise ValueError("scale must be >= 1")
        n = self.order * scale
        out = [0] * (n + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * scale] = c
        return QSeries(tuple(out), n)


def _pack(coeffs: Tuple[int, ...], width: int) -> int:
    """sum coeffs[i] 2^(8 width i), for |coeffs[i]| < 2^(8 width - 1): the
    positive and the negative coefficients are packed apart as bytes."""
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in coeffs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def eta_qexp(scale: int, order: int) -> Tuple[QSeries, Fraction]:
    """eta(scale*tau) without its q-power prefactor: the pentagonal-number
    series prod (1 - q^(scale*n)), plus the prefactor exponent scale/24."""
    if scale < 1 or order < 1:
        raise ValueError("need scale >= 1 and order >= 1")
    out = [0] * (order + 1)
    j = 0
    while True:
        placed = False
        for jj in (j, -j) if j else (0,):
            e = scale * jj * (3 * jj - 1) // 2
            if e <= order:
                out[e] += -1 if jj % 2 else 1
                placed = True
        if not placed:
            break
        j += 1
    return QSeries(tuple(out), order), Fraction(scale, 24)


def theta_psi(order: int) -> QSeries:
    """psi(q) = sum q^(n(n+1)/2)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    out = [0] * (order + 1)
    n = 0
    while n * (n + 1) // 2 <= order:
        out[n * (n + 1) // 2] += 1
        n += 1
    return QSeries(tuple(out), order)


# ---------------------------------------------------------------------------
# Newforms


@dataclass(eq=False)
class NewformSpec:
    """Newform with exact integer coefficients from a q-expansion recipe.

    recipe(order) must return the normalized expansion sum a_n q^n through
    q^order (so coeffs[1] = 1).  The coefficient cache grows by amortized
    doubling, capped below _COEFF_LIMIT; a regrown cache must agree with
    the prefix already held.
    """

    name: str
    weight: int
    level: int
    fricke_sign: int
    recipe: Callable[[int], QSeries]
    _coeffs: List[int] = field(default_factory=list, repr=False)

    def ensure(self, n: int) -> None:
        if n >= _COEFF_LIMIT:
            raise ResourceLimitError(
                f"{self.name}: coefficient demand {n} exceeds limit {_COEFF_LIMIT}"
            )
        if len(self._coeffs) > n:
            return
        # doubling stops below the limit that the demand was checked against
        new_order = min(max(2 * len(self._coeffs), n, 16), _COEFF_LIMIT - 1)
        series = self.recipe(new_order)
        if series[1] != 1:
            raise ValueError(f"{self.name}: recipe is not normalized (a_1 != 1)")
        if self._coeffs and tuple(self._coeffs) != series.coeffs[: len(self._coeffs)]:
            raise ValueError(f"{self.name}: recipe changed already-cached coefficients")
        self._coeffs = list(series.coeffs)

    def coefficient(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"coefficient index must be >= 1, got {n}")
        self.ensure(n)
        return self._coeffs[n]

    def cached_order(self) -> int:
        """Largest index currently held by the coefficient cache (0 when
        nothing has been computed yet)."""
        return max(0, len(self._coeffs) - 1)

    def support_step(self, n_max: int = 64) -> int:
        """Exponent stride of the nonzero support through a_n_max (2 for
        odd-only, 4 for n = 1 mod 4), used to walk powers cheaply."""
        self.ensure(n_max)
        step = 0
        for n in range(2, n_max + 1):
            if self._coeffs[n]:
                step = math.gcd(step, n - 1)
        return step or 1


def _recipe_f(order: int) -> QSeries:
    e2, _ = eta_qexp(2, order)
    e4, _ = eta_qexp(4, order)
    # (e2 e4)^4: one product and two squarings, where e2^4 e4^4 takes five
    return ((e2 * e4) ** 4).shift(1)


def _recipe_h(order: int) -> QSeries:
    e4, _ = eta_qexp(4, order)
    return (e4 ** 6).shift(1)


NEWFORM_F = NewformSpec(
    name="f",
    weight=4,
    level=8,
    fricke_sign=1,
    recipe=_recipe_f,
)

# h has the character of conductor 4 (CM by Q(i)); its completion is adopted
# as weight 3, level 16, sign +1 and validated by fricke_check
NEWFORM_H = NewformSpec(
    name="h",
    weight=3,
    level=16,
    fricke_sign=1,
    recipe=_recipe_h,
)


def newform_coefficient(spec: NewformSpec, n: int) -> int:
    """Exact a_n."""
    return spec.coefficient(n)


# ---------------------------------------------------------------------------
# L-values via the Mellin split


# Split point of l_value when one side is E1 (s = weight): t0 =
# 1/(_E1_SPLIT sqrt(level)) instead of the balanced 1/sqrt(level).  The E1
# side then needs _E1_SPLIT times fewer terms, each at an _E1_SPLIT times
# larger x, and the elementary side _E1_SPLIT times more, each a few int
# operations.  L(f,4) at 1,047 bits by lambda = 1/(t0 sqrt(level)), best of
# 11 in one process on a 2-core Intel Xeon (family 6, model 143) KVM guest:
#
#     lambda  sum       coefficient generation  f's cache order
#     1       0.077 s   1.6 ms                     349
#     2       0.040 s   3.3 ms                     696
#     4       0.022 s   6.8 ms                   1,390
#     6       0.018 s   11 ms                    2,086
#     8       0.016 s   16 ms                    2,784
#
# Past 4 the sum saves what the longer coefficient cache costs.
_E1_SPLIT = 4


def _side_terms(c: float, weight: int, work: int) -> int:
    """Terms n <= M of a side sum at x = c n: M^(weight/2+1) e^(-c M) <
    2^-(work+8), as |a_n| <= d(n) n^((weight-1)/2) <= n^(weight/2+1)."""
    target = (work + 8) * math.log(2)
    n = max(16, int(target / c))
    for _ in range(4):
        n = int((target + (weight / 2 + 1) * math.log(n + 1)) / c) + 4
    return n


def _side_elementary(spec: NewformSpec, s: int, c, work: int):
    """sum_n a_n (2 pi n)^(-s) Gamma(s, c n) for an integer s >= 1, at work
    bits, as the fixed-point q-series

        (s-1)!/(2 pi)^s sum_n a_n q^n sum_(j<s) K_j n^(j-s),
        q = e^-c,  K_j = c^j / j!,

    on ints with w = work + 32 fraction bits (l_value states its error)."""
    n_terms = _side_terms(float(c), spec.weight, work)
    spec.ensure(n_terms)
    with mp.workprec(work):
        w = fixed_bits()
        with mp.workprec(w + 8):
            q = to_fixed(mp.exp(-c), w)
            k = [to_fixed(c ** j / math.factorial(j), w) for j in range(s)]
        total, qn = 0, 1 << w
        for n in range(1, n_terms + 1):
            qn = qn * q >> w
            a = spec._coeffs[n]
            if a:
                poly = 0
                for kj in reversed(k):
                    poly = poly * n + kj
                total += a * qn * poly // n ** s
        return from_fixed(total, 2 * w) * math.factorial(s - 1) / (2 * mp.pi) ** s


def _side_e1(spec: NewformSpec, c, work: int):
    """sum_n a_n Gamma(0, c n) = sum_n a_n E1(c n), at work bits.

    Term n carries the weight e^-x of x = c n, so its E1 is taken at only
    p_n = work - floor(x log2 e) + bitlen(a_n) + bitlen(n) bits (at least
    32), within 2^(1-p_n) relative.  As E1(x) < e^-x / x, that costs term
    n under 2^(1-work) / (c n^2), and the sum under (pi^2/3) 2^-work / c."""
    n_terms = _side_terms(float(c), spec.weight, work)
    spec.ensure(n_terms)
    with mp.workprec(work):
        decay = c / math.log(2)  # log2 e^c, per term
        total = mp.mpf(0)
        for n in range(1, n_terms + 1):
            a = spec._coeffs[n]
            if a:
                bits = max(work - int(n * decay) + a.bit_length() + n.bit_length(), 32)
                total += a * special.gamma_upper_int(0, c * n, bits)
        return total


def l_value(spec: NewformSpec, s: int, precision: int = 64):
    """L(spec, s) for integer s in [1, weight] via the exponentially
    convergent Mellin split, at work = precision + 24 bits.

    For any split point t0 > 0 (Dokchitser 2004, Experiment. Math. 13),
    with r = weight - s,

        Lambda(s) = level^(s/2) G(s, c) + sign level^(r/2) G(r, c'),
        G(s, c) = sum_n a_n (2 pi n)^(-s) Gamma(s, c n),
        c = 2 pi t0,  c' = 2 pi / (level t0).

    Split rule: t0 = 1/sqrt(level) while both sides are elementary (s <
    weight), which balances their term counts; when s = weight, G(0, c')
    is the E1 sum (_side_e1), and t0 = 1/(_E1_SPLIT sqrt(level)) gives it
    _E1_SPLIT times fewer, costlier terms.

    An elementary side (_side_elementary) is one q-series on ints with w =
    work + 32 fraction bits.  Q = floor(q 2^w) and K_j = floor(K_j 2^w),
    floors of values taken at w + 8 bits, are off by under 1 + 2^-8 units
    of 2^-w each (read as 1 below; the bound has room for it).
    q^n advances as floor(q^(n-1) Q 2^-w): each step floors once and
    passes on the floor of Q, so the running error obeys e_n <= q e_(n-1)
    + q^(n-1) + 1 and stays under 1/(1-q) + n q^(n-1) units.  Term n is
    floor(a_n q^n P(n) / n^s) at 2w bits, P(n) = sum_(j<s) K_j n^j, so
    its own floor costs 2^-w units.  Term n takes on the q^n error times
    |a_n| P(n) / n^s, with P(n) / n^s <= e^c / n, and the K_j floors times
    |a_n| q^n sum_(j<s) n^(j-s) <= |a_n| s / n.  With n q^(n-1) <=
    m = max(1, e^(c-1) / c) and Deligne's |a_n| <= d(n) n^((k-1)/2) <=
    2 n^(k/2), k = weight, the M terms are off by under

        2 M^(k/2) (e^c (1/(1-q) + m) + s) units of 2^-w,

    2^25.2 for L(f,4) at 1,047 bits (c = 0.555, M = 1,389).  The 32 guard
    bits hold it under 2^-work while that bound stays below 2^32, up to M
    = 14,500, about 11,500 bits, for L(f,4).  The E1 side is within (pi^2/3)
    2^-work / c' (_side_e1); c' >= 2 pi here.  L(s) = Lambda(s) (2 pi /
    sqrt(level))^s / (s-1)! is rounded once to precision bits.
    """
    if s != int(s) or not 1 <= s <= spec.weight:
        raise ValueError(f"l_value needs an integer s in [1, {spec.weight}], got {s}")
    s = int(s)
    r = spec.weight - s
    work = precision + 24
    with mp.workprec(work):
        root = mp.sqrt(spec.level)
        split = 1 if r else _E1_SPLIT
        c, c_r = 2 * mp.pi / (split * root), 2 * mp.pi * split / root
        # the s side has the most terms, so it grows the coefficient cache
        side_s = _side_elementary(spec, s, c, work)
        side_r = _side_elementary(spec, r, c_r, work) if r else _side_e1(spec, c_r, work)
        level = mp.mpf(spec.level)
        lam = level ** (mp.mpf(s) / 2) * side_s
        lam += spec.fricke_sign * level ** (mp.mpf(r) / 2) * side_r
        v = lam * (2 * mp.pi / root) ** s / mp.mpf(math.factorial(s - 1))
    with mp.workprec(precision):
        return +v


def l_prime_at_0(spec: NewformSpec, precision: int = 64):
    """L'(spec, 0) = sign * (sqrt(level)/(2 pi))^weight * (weight-1)! * L(weight)."""
    k = spec.weight
    with mp.workprec(precision + 16):
        v = (
            spec.fricke_sign
            * (mp.sqrt(spec.level) / (2 * mp.pi)) ** k
            * mp.mpf(math.factorial(k - 1))
            * l_value(spec, k, precision + 16)
        )
    with mp.workprec(precision):
        return +v


# ---------------------------------------------------------------------------
# Functional equation check (no functional equation assumed)


def _axis_series(coeffs: List[int], step: int, x):
    """sum_i coeffs[i] x^(1 + i step) at mp.prec, for an mpf 0 < x < 1.

    Horner in xs = x^step over ints with w = fixed_bits() fraction bits:
    acc <- (acc * xs >> w) + (a << w).  xs is off by at most step + 1 units
    of 2^-w, each Horner step truncates by less than one, and |xs| < 1 damps
    earlier errors; so before the single rounding to mp.prec the sum is off
    by less than 2^-w (len(coeffs) + (step + 1) |P'(xs)|) for the
    polynomial P in xs.  The cancelling sums near u = delta need that
    absolute accuracy, which mpf operations rounded to mp.prec lack."""
    w = fixed_bits()
    xs = to_fixed(x, w) ** step >> (w * (step - 1))
    acc = 0
    for a in reversed(coeffs):
        acc = ((acc * xs) >> w) + (a << w)
    return from_fixed(acc, w) * x


def _axis_window(spec: NewformSpec, p: int):
    """(delta, T, step, coeffs) of the imaginary-axis integrals at P = p
    bits, at the caller's mp.prec: the window [delta, T], the support
    stride and the dense coefficient list a_1, a_(1+step), ... through
    n_terms, taken so that n^(weight/2+1) e^(-2 pi delta n) < 2^-(p+20) at
    n = n_terms."""
    ln2 = mp.log(2)
    delta = min(mp.mpf("0.008"), 2 * mp.pi / (spec.level * (p + 30) * ln2))
    t_hi = ((p + 20) * ln2 + 10) / (2 * mp.pi)
    cut = mp.mpf(2) ** -(p + 20)
    n_terms = 64
    while n_terms ** (spec.weight / 2 + 1) * mp.exp(-2 * mp.pi * delta * n_terms) > cut:
        n_terms += 64
    if n_terms >= _COEFF_LIMIT:
        raise ResourceLimitError(f"the axis integrals need {n_terms} coefficients")
    # the stride is taken over every coefficient used, so the dense list
    # a_1, a_(1+step), ... skips no nonzero a_n
    step = spec.support_step(n_terms)
    return delta, t_hi, step, spec._coeffs[1 : n_terms + 1 : step]


def axis_mellin(spec: NewformSpec, s_values, precision: int = 64):
    """Lambda(s) = level^(s/2) int_0^inf f(iu) u^(s-1) du for every s in
    s_values, from one trapezoidal grid in t = log u over the nodes in
    [delta, T]; the functional equation is not used.

    With g_s(t) = f(i e^t) e^(st), the nodes are t_j = log delta + j h,
    j = 0..n, with h = 2 pi d / ((P + 24) ln 2), d = pi/3, shrunk so that
    t_n = log T, and Lambda(s) ~ level^(s/2) h sum_j g_s(t_j): each f(iu_j)
    is one integer Horner sum (_axis_series) shared by every s.  The
    values are returned unrounded, at the working precision P + 48, so
    that differences of them keep their digits.  Error budget, relative to
    Lambda(s):

    - discretisation: g_s is analytic in |Im t| < pi/2 and decays
      double-exponentially at both ends, so the trapezoidal sum over the
      whole line is off by at most 2M / (e^(2 pi d/h) - 1) <= 2M 2^-(P+24)
      (Trefethen & Weideman 2014, SIAM Review 56(3), sec. 5), M being the
      integral of |g_s| along Im t = +-d, where both tails decay at half
      their rate (cos d = 1/2); M is of the order of Lambda(s) here, not
      bounded rigorously;
    - the nodes outside [delta, T]: every node carries the full weight h,
      so the sum is the whole line's with the nodes beyond the window
      dropped.  Below delta the q-series would need more than n_terms
      terms; for a modular f, g_s falls there like e^(-2 pi/(level u)), by
      e^(-kappa h) per step with kappa = 2 pi/(level delta) - weight and
      kappa h > 2 pi^2 (P+30)/(3(P+24)) - weight h > 6, so the dropped
      nodes sum to under 3e-3 h g_s(log delta), where g_s(log delta) is at
      most about 2^-(P+12).  The trapezoidal rule on [delta, T] would put
      the half weight h/2 at delta and leave h g_s(log delta)/2 instead;
      likewise at T, where g_s ~ 2^-(P+20) and the next node is
      e^(-2 pi T h) smaller still;
    - q-series truncation: the terms past n_terms sum to about
      2^-(P+20) / (2 pi delta) at every node (_axis_window's rule);
    - Horner: each f(iu_j) is off by under 2^-w (len + (step + 1) |P'|)
      at w = P + 80 fraction bits (_axis_series).
    """
    p = precision
    with mp.workprec(p + 48):
        delta, t_hi, step, coeffs = _axis_window(spec, p)
        lo, hi = mp.log(delta), mp.log(t_hi)
        n = int(mp.ceil((hi - lo) * (p + 24) * mp.log(2) * 3 / (2 * mp.pi ** 2)))
        h = (hi - lo) / n
        nodes = [lo + j * h for j in range(n + 1)]
        f_iu = [_axis_series(coeffs, step, mp.exp(-2 * mp.pi * mp.exp(t))) for t in nodes]
        lam = []
        for s in map(mp.mpf, s_values):
            mellin = mp.fsum(f * mp.exp(s * t) for f, t in zip(f_iu, nodes))
            lam.append(mp.mpf(spec.level) ** (s / 2) * h * mellin)
        return lam


_FRICKE_S = ("2.25", "2.5", "3.0")


def fricke_check(spec: NewformSpec, precision: int = 64):
    """Max over s in {2.25, 2.5, 3.0} of |Lambda(s) - sign*Lambda(weight-s)|,
    with every Lambda from axis_mellin's one grid on the imaginary axis;
    the functional equation is tested, never used.

    Raises FunctionalEquationViolation when the asymmetry reaches 2^(20-P).
    """
    p = precision
    with mp.workprec(p + 48):
        threshold = mp.mpf(2) ** (20 - p)
        s_values = [v for s in map(mp.mpf, _FRICKE_S) for v in (s, spec.weight - s)]
        lam = axis_mellin(spec, s_values, p)
        pairs = zip(lam[::2], lam[1::2], strict=True)
        asym = max(abs(a - spec.fricke_sign * b) for a, b in pairs)
    if asym >= threshold:
        raise FunctionalEquationViolation(
            f"{spec.name}: Lambda asymmetry {mp.nstr(asym, 6)} at {precision} bits "
            f"exceeds 2^(20-P) = {mp.nstr(threshold, 6)}; wrong sign or bad coefficients",
            asymmetry=asym,
            threshold=threshold,
        )
    with mp.workprec(p):
        return +asym


# ---------------------------------------------------------------------------
# Divisor sums


def _sigma_sieve(n: int) -> List[int]:
    """sigma(m) = sum of the divisors of m, for every m <= n (entry 0 is 0)."""
    sig = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sig[m] += d
    return sig
