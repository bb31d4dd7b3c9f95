"""Eta-product q-expansions, theta series, and L-values of the two newforms
the identities here revolve around:

    f = eta(2t)^4 eta(4t)^4   weight 4, level 8
    h = eta(4t)^6             weight 3, level 16 (CM by Q(i))

L-values come from the Mellin split of the completed function: with
u0 = 1/sqrt(level),

    Lambda(s) = G(s) + sign * G(weight - s),
    G(s) = level^(s/2) * sum_n a_n (2 pi n)^(-s) Gamma(s, 2 pi n u0),

which converges like exp(-2 pi u0 n).  At the integer arguments the artifact
needs, Gamma(s, x) is an elementary finite sum and Gamma(0, x) = E1(x),
which special.exp_integral_e1 evaluates on precision.py's fixed-point layer
(an int series or continued fraction per term); the two incomplete gammas
of a term share one e^-x.

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
        result = QSeries((1,) + (0,) * self.order, self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

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
    return (e2 ** 4 * e4 ** 4).shift(1)


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


def _term_count(level: int, weight: int, work: int) -> int:
    u0 = 1.0 / math.sqrt(level)
    target = (work + 8) * math.log(2)
    n = max(16, int(target / (2 * math.pi * u0)))
    # polynomial slack: |a_n| <= d(n) n^((weight-1)/2) <= n^(weight/2 + 1)
    for _ in range(4):
        n = int((target + (weight / 2 + 1) * math.log(n + 1)) / (2 * math.pi * u0)) + 4
    return n


def _lambda_split(spec: NewformSpec, s: int, u0, n_terms: int, work: int):
    """Lambda(s) = G(s) + sign G(weight - s), both sums in one pass over n,
    with G(s) = level^(s/2) sum a_n (2 pi n)^(-s) Gamma(s, 2 pi n u0).

    Term n carries the weight e^(-x) of x = 2 pi n u0, so its incomplete
    gammas are taken at only p_n = work - floor(x log2 e) + bitlen(a_n)
    + bitlen(n) bits (at least 32), within 2^(1-p_n) relative, and share
    one e^-x taken at p_n + 32 bits.  For x >= 1 (every n once level <= 39;
    below 1, p_n is work - 1 or more) and integer s >= 0,
    Gamma(s, x) <= e max(1, (s-1)!) x^(s-1) e^-x, so
    |term n| <= e max(1, (s-1)!) |a_n| u0^(s-1) e^-x / (2 pi n), and the
    reduced width costs term n under 2 e max(1, (s-1)!) u0^(s-1)
    2^-work / (2 pi n^2): under (pi/6) e max(1, (s-1)!) u0^(s-1) 2^-work
    in all, per G and before the factor level^(s/2).  The rest of each
    term, and the sums, run at work bits.
    """
    r = spec.weight - s
    with mp.workprec(work):
        two_pi = 2 * mp.pi
        decay = two_pi * u0 / math.log(2)  # log2 e^(2 pi u0), per term
        total_s = total_r = mp.mpf(0)
        for n in range(1, n_terms + 1):
            a = spec._coeffs[n]
            if not a:
                continue
            x = two_pi * n * u0
            bits = max(work - int(n * decay) + a.bit_length() + n.bit_length(), 32)
            with mp.workprec(bits + 32):
                e = mp.exp(-x)
            total_s += a * special.gamma_upper_int(s, x, bits, e) / (two_pi * n) ** s
            total_r += a * special.gamma_upper_int(r, x, bits, e) / (two_pi * n) ** r
        level = mp.mpf(spec.level)
        return level ** (mp.mpf(s) / 2) * total_s + spec.fricke_sign * (
            level ** (mp.mpf(r) / 2) * total_r
        )


def l_value(spec: NewformSpec, s: int, precision: int = 64):
    """L(spec, s) for integer s in [1, weight] via the exponentially
    convergent Mellin split."""
    if s != int(s) or not 1 <= s <= spec.weight:
        raise ValueError(f"l_value needs an integer s in [1, {spec.weight}], got {s}")
    s = int(s)
    work = precision + 24
    with mp.workprec(work):
        u0 = 1 / mp.sqrt(spec.level)
        n_terms = _term_count(spec.level, spec.weight, work)
        spec.ensure(n_terms)
        lam = _lambda_split(spec, s, u0, n_terms, work)
        v = lam * (2 * mp.pi / mp.sqrt(spec.level)) ** s / mp.mpf(math.factorial(s - 1))
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
        asym = max(abs(a - spec.fricke_sign * b) for a, b in zip(lam[::2], lam[1::2]))
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
