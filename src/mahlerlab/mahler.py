"""Mahler measures of Laurent polynomials on the torus.

The (logarithmic) Mahler measure of P(x_1, ..., x_d) is the mean of
log|P| over the unit torus,

    m(P) = int_{[0,1)^d} log|P(e^{2 pi i t_1}, ..., e^{2 pi i t_d})| dt.

This module evaluates m(P) three ways and cross-checks the routes:

* direct torus integration (shifted-lattice QMC) for any descriptor,
  with cosine-reduced real integrands for the built-in families;
* the hypergeometric closed form for the four-variable product family
  (x+1/x)(y+1/y)(z+1/z)(w+1/w) - k, valid for |k| >= 16;
* the one-parameter measures m(4a) and R(a) with their series (m(4a)
  about 0 and about 1), integral, and torus representations.

It also hosts three self-contained identity checks (Fourier expansions
of K(sin t)cos t and friends, the cos*cos density integral, and the
moments of K(k)K'(k)) that the verification registry wraps.

numpy is imported only where arrays are built (the torus integrand
builders), so the hypergeometric and tanh-sinh routes never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple, Union

from mpmath import mp

from . import quadrature, special
from .precision import from_fixed, to_fixed
from .quadrature import DEFAULT_QMC_SEED, QuadratureResult, TorusIntegrand
from .special import PFQSpec

__all__ = [
    "LaurentDescriptor",
    "parse_descriptor",
    "builtin_descriptor",
    "builtin_names",
    "mahler_numeric",
    "m_rk_hypergeometric",
    "m_alpha",
    "r_alpha",
    "fourier_check",
    "density_integral_check",
    "wan_moment_check",
]

_MAX_EXPONENT = 8

Exponents = Tuple[int, ...]


def _base(precision: Optional[int]) -> int:
    return mp.prec if precision is None else int(precision)


@dataclass(frozen=True)
class LaurentDescriptor:
    """A Laurent polynomial in 1 to 4 variables with integer coefficients.

    terms maps exponent vectors to coefficients; the vector (1, 0) in two
    variables means x, (-1, 0) means 1/x.  Zero coefficients are dropped at
    construction and the mapping is made read-only, so two descriptors are
    equal exactly when they are the same polynomial with the same name.
    """

    name: str
    dimension: int
    terms: Mapping[Exponents, int]

    def __post_init__(self):
        if not isinstance(self.dimension, int) or not 1 <= self.dimension <= 4:
            raise ValueError(f"dimension must be 1..4, got {self.dimension!r}")
        cleaned: Dict[Exponents, int] = {}
        for vec, coeff in self.terms.items():
            vec = tuple(int(e) for e in vec)
            if len(vec) != self.dimension:
                raise ValueError(f"exponent vector {vec} has length {len(vec)}, expected {self.dimension}")
            if any(abs(e) > _MAX_EXPONENT for e in vec):
                raise ValueError(f"exponent vector {vec} exceeds the +-{_MAX_EXPONENT} bound")
            coeff = int(coeff)
            if coeff != 0:
                cleaned[vec] = coeff
        if not cleaned:
            raise ValueError("descriptor has no nonzero term")
        object.__setattr__(self, "terms", MappingProxyType(dict(sorted(cleaned.items()))))


def parse_descriptor(text: str, name: str = "parsed") -> LaurentDescriptor:
    """Parse the line format "coefficient exponent_1 ... exponent_d".

    Blank lines and lines starting with "#" are skipped.  Every data line
    must carry the same number of exponents; repeated exponent vectors have
    their coefficients added.
    """
    terms: Dict[Exponents, int] = {}
    dimension = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            values = [int(tok) for tok in tokens]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer token in {line!r}") from exc
        if len(values) < 2:
            raise ValueError(f"line {lineno}: need a coefficient and at least one exponent")
        if dimension is None:
            dimension = len(values) - 1
        elif len(values) - 1 != dimension:
            raise ValueError(f"line {lineno}: expected {dimension} exponents, got {len(values) - 1}")
        vec = tuple(values[1:])
        terms[vec] = terms.get(vec, 0) + values[0]
    if dimension is None:
        raise ValueError("descriptor text has no data lines")
    return LaurentDescriptor(name=name, dimension=dimension, terms=terms)


# ---------------------------------------------------------------------------
# Built-in catalogue
#
# Family constructors, all with integer k:
#   p:k  x + 1/x + y + 1/y - k
#   q:k  x + 1/x + y + 1/y + z + 1/z - k
#   r:k  (x + 1/x)(y + 1/y)(z + 1/z)(w + 1/w) - k
#   s:k  x + 1/x + y + 1/y + z + 1/z + w + 1/w - k
# Named instances:
#   p4      p:4   (Mahler measure 4G/pi, G Catalan's constant)
#   q8      (x + 1/x)(y + 1/y)(z + 1/z) - 8   (measure 4L'(h,0), h = eta^6(4tau))
#   r16     r:16  (measure 8L'(f,0) - 28 zeta'(-2), f = eta^4(2tau)eta^4(4tau))
#   s0      s:0   (measure 7 zeta(3) / (2 pi^2))
#   ralpha  (u + 1/u)(z + 1/z) + (x + 1/x)(y + 1/y), the a = 1 member of the
#           family behind r_alpha
#
# Note q8 is the three-variable *product* polynomial; the sum family q:k is a
# different polynomial with a different measure.


def _sum_terms(nvars: int, k: int) -> Dict[Exponents, int]:
    terms: Dict[Exponents, int] = {}
    for i in range(nvars):
        for sign in (1, -1):
            vec = tuple(sign if j == i else 0 for j in range(nvars))
            terms[vec] = 1
    if k != 0:
        terms[(0,) * nvars] = -k
    return terms


def _product_terms(nvars: int, k: int) -> Dict[Exponents, int]:
    terms: Dict[Exponents, int] = {}
    for bits in range(1 << nvars):
        vec = tuple(1 if bits & (1 << i) else -1 for i in range(nvars))
        terms[vec] = 1
    if k != 0:
        terms[(0,) * nvars] = -k
    return terms


def _ralpha_terms(nvars: int, k: int) -> Dict[Exponents, int]:
    terms: Dict[Exponents, int] = {}
    for s1 in (1, -1):
        for s2 in (1, -1):
            terms[(s1, s2, 0, 0)] = k
            terms[(0, 0, s1, s2)] = 1
    return terms


# kind -> term builder; the kind also picks the cosine form of log|P|
_TERMS = {"sum": _sum_terms, "product": _product_terms, "ralpha": _ralpha_terms}
# named instance -> (kind, variables, k); for ralpha k weights the first pair
_NAMED = {
    "p4": ("sum", 2, 4),
    "q8": ("product", 3, 8),
    "r16": ("product", 4, 16),
    "s0": ("sum", 4, 0),
    "ralpha": ("ralpha", 4, 1),
}
# family prefix -> (kind, variables); the name "prefix:k" carries k
_FAMILIES = {"p": ("sum", 2), "q": ("sum", 3), "r": ("product", 4), "s": ("sum", 4)}


def builtin_names() -> Tuple[str, ...]:
    return tuple(_NAMED) + tuple(f"{prefix}:k" for prefix in _FAMILIES)


def _catalogue_entry(name: str) -> Tuple[str, str, int, int]:
    """(canonical name, kind, variables, k) of a catalogue name."""
    key = name.strip().lower()
    if key in _NAMED:
        return (key,) + _NAMED[key]
    if ":" in key:
        prefix, _, tail = key.partition(":")
        try:
            k = int(tail)
        except ValueError:
            raise ValueError(f"bad family parameter in {name!r}") from None
        if prefix in _FAMILIES:
            return (f"{prefix}:{k}",) + _FAMILIES[prefix] + (k,)
    raise ValueError(f"unknown built-in descriptor {name!r}; known: {', '.join(builtin_names())}")


def builtin_descriptor(name: str) -> LaurentDescriptor:
    """Look up a catalogue polynomial by name ("r16", "r:k" with integer k)."""
    key, kind, nvars, k = _catalogue_entry(name)
    return LaurentDescriptor(name=key, dimension=nvars, terms=_TERMS[kind](nvars, k))


# ---------------------------------------------------------------------------
# Torus integrands
#
# torus_qmc hands each block the coordinates x_j = e^{2 pi i t_j}, so
# x + 1/x = 2 Re x = 2cos(2 pi t) and every catalogue polynomial is real on
# the torus: log|P| needs no complex arithmetic.  Arbitrary descriptors
# evaluate P as a complex sum of monomials in x.  A sampled zero of P gives
# log 0 = -inf, which torus_qmc discards with numpy's divide-by-zero warning
# silenced for the whole call.


def _cosine_block(kind: str, k: float):
    import numpy as np

    def block(x: np.ndarray) -> np.ndarray:
        c = x.real
        # the rows are combined top to bottom into a fresh array, the order
        # in which sum and prod reduce a column, so every float is theirs
        if kind == "ralpha":  # weight k on the first cosine pair
            inner = np.multiply(c[0], k)
            np.multiply(inner, c[1], out=inner)
            np.add(inner, np.multiply(c[2], c[3]), out=inner)
            np.multiply(inner, 4.0, out=inner)
        else:
            op = np.add if kind == "sum" else np.multiply
            inner = op(c[0], c[1])
            for row in c[2:]:
                op(inner, row, out=inner)
            np.multiply(inner, 2.0 if kind == "sum" else float(2 ** len(c)), out=inner)
            np.subtract(inner, k, out=inner)
        np.abs(inner, out=inner)
        return np.log(inner, out=inner)

    return block


def _generic_block(desc: LaurentDescriptor):
    import numpy as np

    terms = [(vec, complex(c)) for vec, c in desc.terms.items()]

    def block(x: np.ndarray) -> np.ndarray:
        # each monomial c x^v as integer powers of the coordinates (numpy
        # raises complex arrays to small integer powers by multiplying)
        values = np.zeros(x.shape[1], dtype=np.complex128)
        for vec, c in terms:
            term = np.full(x.shape[1], c)
            for xj, e in zip(x, vec):
                if e:
                    term *= xj ** e
            values += term
        return np.log(np.abs(values))

    return block


def _classify_builtin(desc: LaurentDescriptor) -> Optional[Tuple[str, float]]:
    """(kind, k) when desc is byte-for-byte a catalogue polynomial, else None."""
    try:
        key, kind, _, k = _catalogue_entry(desc.name)
    except ValueError:
        return None
    if builtin_descriptor(key) != desc:
        return None
    return (kind, float(k))


def torus_integrand(desc: LaurentDescriptor) -> TorusIntegrand:
    """log|P| on [0,1)^d, cosine-reduced when desc is a catalogue built-in."""
    builtin = _classify_builtin(desc)
    if builtin is not None:
        return TorusIntegrand(dimension=desc.dimension, evaluate_block=_cosine_block(*builtin))
    return TorusIntegrand(dimension=desc.dimension, evaluate_block=_generic_block(desc))


def mahler_numeric(
    poly: LaurentDescriptor,
    samples: int = 1 << 20,
    shifts: int = 16,
    seed: Union[int, list] = DEFAULT_QMC_SEED,
) -> QuadratureResult:
    """Mahler measure by shifted-lattice QMC of log|poly| over the torus.

    The value is the median of per-shift means and error_estimate the
    spread of those means, so a deviation beyond a few error_estimates is
    meaningful.  Exact zeros of P land on a measure-zero set; sample points
    hitting it are discarded and counted in discarded_fraction.
    """
    return quadrature.torus_qmc(torus_integrand(poly), samples=samples, shifts=shifts, seed=seed)


# ---------------------------------------------------------------------------
# Hypergeometric closed form for the four-variable product family

_SIX_F_FIVE_UPPER = [Fraction(3, 2)] * 4 + [Fraction(1), Fraction(1)]
_SIX_F_FIVE_LOWER = [Fraction(2)] * 5


def m_rk_hypergeometric(k, target_abs_error=mp.mpf("1e-12"), precision: Optional[int] = None):
    """m((x+1/x)(y+1/y)(z+1/z)(w+1/w) - k) for real |k| >= 16.

    Computes log|k| - (8/k^2) 6F5(3/2,3/2,3/2,3/2,1,1; 2,2,2,2,2; 256/k^2).
    Only the real part of log(k) survives for k < 0, so the value depends
    on |k| alone.  k is taken exactly: an int, float, Fraction or mpf as
    the rational it is, anything else as the float it converts to.  At
    |k| = 16 the argument is exactly 1 and the series is summed through
    the accelerated unit-argument path; the formula is not valid for
    |k| < 16 and such k raise ValueError.
    """
    if isinstance(k, mp.mpf):
        if not mp.isfinite(k):
            raise ValueError(f"k must be finite, got {k}")
        man, exp = k.man_exp  # a dyadic rational, taken exactly
        kq = Fraction(man) * Fraction(2) ** exp
    elif isinstance(k, (int, float, Fraction)):
        kq = Fraction(k)
    else:
        kq = Fraction(float(k))
    if kq == 0 or abs(kq) < 16:
        raise ValueError(f"hypergeometric form needs |k| >= 16, got k = {k}")
    target = mp.mpf(target_abs_error)
    if not target > 0:
        raise ValueError("target_abs_error must be positive")
    base = _base(precision) if precision is not None else max(64, int(-mp.log(target, 2)) + 48)

    argument = Fraction(256) / (kq * kq)
    scale = Fraction(8) / (kq * kq)
    # the 6F5 error enters scaled by 8/k^2 <= 1/32; divide by the exact
    # scale, which underflows a float once |k| passes about 1.3e162
    series_target = target * scale.denominator / scale.numerator / 4
    spec = PFQSpec(upper=_SIX_F_FIVE_UPPER, lower=_SIX_F_FIVE_LOWER, argument=argument)
    value = special.pfq(spec, series_target, precision=base)
    with mp.workprec(base + 16):
        scale_mp = mp.mpf(scale.numerator) / scale.denominator
        k_abs = abs(mp.mpf(kq.numerator)) / kq.denominator
        return mp.log(k_abs) - scale_mp * value


# ---------------------------------------------------------------------------
# The one-parameter measures m(4a) and R(a)

_M_ROUTES = ("series", "integral", "complement")
_R_ROUTES = ("polylog", "k-integral", "torus")


def _check_alpha_unit(alpha, what: str):
    """alpha as an mpf at mp.prec bits: each caller enters its working
    precision first, so a Fraction is not rounded at the caller's."""
    a = mp.mpf(alpha) if not isinstance(alpha, Fraction) else mp.mpf(alpha.numerator) / alpha.denominator
    if not 0 <= a <= 1:
        raise ValueError(f"{what} needs 0 <= alpha <= 1, got {alpha}")
    return a


def _m_alpha_integrand(rho):
    """2 R / agm(1, R sqrt(2 - R^2)) at R = 1 - rho, for 0 <= rho < 1,
    rounded once to p = mp.prec bits.

    Ints at w = p + 32 fraction bits.  R = 2^w - floor(rho 2^w) moves the
    abscissa by under 2^-w, where the integrand's slope is below w (it
    grows like (4/pi) log(1/R)).  c = R sqrt(2 - R^2) is one isqrt of the
    exact int 2^(2w+1) - R^2 and one floored shift: under 2 units below
    its value at the moved abscissa, and c >= R >= 1 unit, as tanh-sinh's
    abscissae stop short of rho = 1, the far end at a = 1.  A relative
    change d in the smaller AGM argument moves the mean by at most d
    relative (Euler's relation), so c's floors and `_agm_fixed`'s n < 2w
    truncating steps move the mean m by under (n + 2) / c relative and
    2R / m by under 2 (n + 2) / (m 2^w) < 4 w^2 2^-w, as 1/m < w for
    c >= 2^-w.  The loop's stopping rule adds 2^-(p+8) relative and the
    floored division at g = p + 24 fraction bits 2^-g, so for w below
    2,800 the value (at most 2) is within 2^-(p+6) before its one
    rounding.
    """
    p = mp.prec
    w, g = p + 32, p + 24
    r = (1 << w) - to_fixed(rho, w)
    c = (r * math.isqrt((2 << 2 * w) - r * r)) >> w
    a = special._agm_fixed(1 << w, c, p)
    return from_fixed((r << (g + 1)) // a, g, p)


# terms of the complement series kept; 64 reach 2^-290 at beta = 0.98
_COMPLEMENT_TERMS = 64


@lru_cache(maxsize=None)
def _complement_table(n_terms: int):
    """(A_N / (2N+2), (A_N / (2N+2) - B_N) / (2N+2)) for N < n_terms, as
    Fractions, with A_N = sum_{n+m=N} c_n^2 c_m, B_N = sum c_n^2 c_m d_n,
    c_n = C(2n,n) / 4^n and d_n = 2 (H_2n - H_n); summed on ints over the
    common denominators 16^N and lcm(1, ..., 2 n_terms - 1)."""
    binom = [math.comb(2 * n, n) for n in range(n_terms)]
    den = math.lcm(*range(1, 2 * n_terms))
    delta = [0]  # d_n den
    for n in range(1, n_terms):
        delta.append(delta[-1] + 2 * (den // (2 * n - 1) - den // (2 * n)))
    table = []
    for big_n in range(n_terms):
        # c_n^2 c_m 16^N for n + m = N
        terms = [binom[n] ** 2 * binom[big_n - n] << 2 * (big_n - n) for n in range(big_n + 1)]
        a_n = Fraction(sum(terms), 16**big_n)
        b_n = Fraction(sum(t * dn for t, dn in zip(terms, delta)), 16**big_n * den)
        k = 2 * big_n + 2
        table.append((a_n / k, (a_n / k - b_n) / k))
    return tuple(table)


@lru_cache(maxsize=None)
def _complement_fixed(n_terms: int, w: int):
    """4G/pi, 2/pi and `_complement_table(n_terms)` floored to ints at w
    fraction bits; G from `special.catalan`."""
    with mp.workprec(w + 16):
        four_g = to_fixed(4 * special.catalan(w + 16) / mp.pi, w)
        two_over_pi = to_fixed(2 / mp.pi, w)
    coeffs = tuple(
        ((x.numerator << w) // x.denominator, (y.numerator << w) // y.denominator)
        for x, y in _complement_table(n_terms)
    )
    return four_g, two_over_pi, coeffs


def _m_alpha_complement(a, base: int):
    """m(4a) by its series in t = sqrt(1 - a^2) about a = 1, rounded once to
    p = mp.prec bits, for 0 < a <= 1 and p >= base + 24.

    From d/da m(4a) = (2/pi) K(a), m(4) = 4G/pi and K about modulus 1,
    K = sum_n c_n^2 t^2n [L - d_n] with L = log(4/t) (DLMF 19.12.1), the
    substitution s = sqrt(1 - t^2) in int_a^1 K(s) ds gives

        m(4a) = 4G/pi - (2/pi) sum_N t^(2N+2) / (2N+2) [A_N (L + 1/(2N+2)) - B_N]

    with `_complement_table`'s A_N and B_N.  As 0 <= d_n < 2 log 2 and
    A_N <= N + 1, term N lies in [0, t^(2N+2) (L + 2) / 2], so the terms
    from N = n on sum to at most t^(2n+2) (L + 2) / (2 (1 - t^2)).  The
    first n for which that falls below 2^-(base+8), plus one, is the term
    count; ArithmeticError is raised if it passes `_COMPLEMENT_TERMS`.
    t^2 = (1 - a)(1 + a) is formed exactly.  Horner's rule runs the two
    sums, sum A_N t^2N / (2N+2) and the rest, on ints at w = p + 32
    fraction bits: the floors of the coefficients, the steps and L add
    under (w + 16) 2^-w < 2^-(p+6) for w below 2^25.  So the value is
    within 2^-(base+7) before its one rounding, and is 4G/pi at a = 1.
    """
    p = mp.prec
    w = p + 32
    four_g, two_over_pi, coeffs = _complement_fixed(_COMPLEMENT_TERMS, w)
    q = mp.fmul(mp.fsub(1, a, exact=True), mp.fadd(1, a, exact=True), exact=True)
    if not q:
        return from_fixed(four_g, w, p)
    with mp.workprec(w):
        log_q = mp.log(q)
        log_term = 2 * mp.ln2 - log_q / 2
        tail = (log_term + 2) / (2 * (1 - q))
        n_terms = int(((base + 8) * mp.ln2 + mp.log(tail)) / -log_q) + 1
        big_l = to_fixed(log_term, w)
    if n_terms > len(coeffs):
        raise ArithmeticError(
            f"the complement series needs {n_terms} terms at a = {mp.nstr(a, 8)} "
            f"for 2^-{base + 8}; the table has {len(coeffs)}"
        )
    tq = to_fixed(q, w)
    s_log = s_rest = 0
    for a_n, e_n in reversed(coeffs[:n_terms]):
        s_log = ((s_log * tq) >> w) + a_n
        s_rest = ((s_rest * tq) >> w) + e_n
    series = (((s_log * big_l) >> w) + s_rest) * tq >> w
    return from_fixed(four_g - ((two_over_pi * series) >> w), w, p)


def m_alpha(alpha, route: str = "series", precision: Optional[int] = None):
    """m(4 alpha + x + 1/x + y + 1/y) for 0 <= alpha <= 1.

    series route: m(4a) = 4 sum_n C(2n,n)^2 (a/4)^(2n+1) / (2n+1), which is
    a * 3F2(1/2,1/2,1/2; 1,3/2; a^2); at a = 1 the series decays like n^-2
    and goes through the accelerated unit-argument path, giving 4G/pi.

    integral route: m(4a) = (2/pi) int_0^{arcsin a} K(sin u) cos u du.  With
    sin u = 1 - r^2 and (2/pi) K(s) = 1 / agm(1, sqrt(1 - s^2)) it becomes
    int_{sqrt(1-a)}^1 2r dr / agm(1, r sqrt(2 - r^2)): no cosine and no pi
    per node, and sqrt(1 - s^2) = r sqrt(2 - r^2) has no cancellation.  The
    log singularity of a = 1 moves to r = 0 as r log r, as mild as the cos
    form's c log c, so tanh-sinh takes the same levels as it did in u.  The
    rule runs over rho = 1 - r in [0, a / (1 + sqrt(1 - a))]: for small a
    the ends sqrt(1 - a) and 1 of the r interval would round together.

    complement route, for a near 1: the series about a = 1 in
    t = sqrt(1 - a^2) and L = log(4/t),

        m(4a) = 4G/pi - (2/pi) sum_N t^(2N+2) / (2N+2) [A_N (L + 1/(2N+2)) - B_N],

    A_N = sum_{n+m=N} c_n^2 c_m, B_N = sum_{n+m=N} c_n^2 c_m d_n, from
    K's expansion about modulus 1 (DLMF 19.12.1) with c_n = C(2n,n)/4^n and
    d_n = 2 (H_2n - H_n).  Term N is at most t^(2N+2) (L + 2) / 2, and the
    sum stops on that tail bound at 2^-(base+8), on ints with one rounding
    (`_m_alpha_complement`).  Its fixed table of terms reaches 2^-290 at
    a = 0.98; a precision or an a that needs more raises ArithmeticError.
    """
    if route not in _M_ROUTES:
        raise ValueError(f"route must be one of {_M_ROUTES}, got {route!r}")
    base = _base(precision)
    with mp.workprec(base + 24):
        a = _check_alpha_unit(alpha, "m_alpha")
        if a == 0:
            return mp.mpf(0)
        if route == "series":
            spec = PFQSpec(
                upper=[Fraction(1, 2)] * 3,
                lower=[Fraction(1), Fraction(3, 2)],
                argument=a * a,
            )
            return a * special.pfq(spec, mp.mpf(2) ** (-(base + 8)), precision=base + 16)
        if route == "complement":
            return _m_alpha_complement(a, base)
        upper = a / (1 + mp.sqrt(1 - a))
        tol = mp.mpf(2) ** (-(base + 4))
        result = quadrature.tanh_sinh_interval(
            _m_alpha_integrand, mp.mpf(0), upper, tolerance=tol, precision=base + 24
        )
        return +result.value


def r_alpha(
    alpha,
    route: str = "polylog",
    precision: Optional[int] = None,
    samples: int = 1 << 20,
    shifts: int = 16,
    seed: Union[int, list] = DEFAULT_QMC_SEED,
):
    """m(alpha (u+1/u)(z+1/z) + (x+1/x)(y+1/y)) along the requested route.

    polylog route (0 <= alpha <= 1 only): (4/pi^2) sum_n alpha^(2n+1)/(2n+1)^3.
    k-integral route: (4/pi^2) int_0^1 m_alpha(alpha k) K'(k) dk; the inner
    measure beta = alpha k takes m_alpha's series route below 0.98 and,
    where that 3F2 slows down, its complement route, the series in
    sqrt(1 - beta^2) about 1.  The two inner series meet at the 0.98 seam,
    so a disagreement between them is a jump the outer rule cannot settle.
    Of mahlerlab's kernels this route shares only pfq's direct int path
    with the polylog route: the series route's 3F2 and `special.catalan`'s
    3F2, behind the complement route's 4G/pi, against `legendre_chi3`'s 4F3.
    torus route: 4-variable QMC of the defining integral; Monte Carlo grade
    accuracy, returned as the lattice-rule median.
    """
    if route not in _R_ROUTES:
        raise ValueError(f"route must be one of {_R_ROUTES}, got {route!r}")
    base = _base(precision)
    if route == "polylog":
        with mp.workprec(base + 16):
            a = _check_alpha_unit(alpha, "the polylog route")
            return 4 / mp.pi ** 2 * special.legendre_chi3(a, precision=base + 8)
    if route == "k-integral":
        with mp.workprec(base + 24):
            a = _check_alpha_unit(alpha, "the k-integral route")
            if a == 0:
                return mp.mpf(0)

            def integrand(kk):
                beta = a * kk
                inner_route = "series" if beta < mp.mpf("0.98") else "complement"
                return m_alpha(beta, route=inner_route, precision=base + 16) * special.ell_kprime(kk)

            tol = mp.mpf(2) ** (-(min(base, 120) - 10))
            result = quadrature.tanh_sinh(integrand, tolerance=tol, precision=base + 24)
            return 4 / mp.pi ** 2 * result.value
    # torus route
    integrand4 = TorusIntegrand(dimension=4, evaluate_block=_cosine_block("ralpha", float(alpha)))
    result = quadrature.torus_qmc(integrand4, samples=samples, shifts=shifts, seed=seed)
    return result.value


# ---------------------------------------------------------------------------
# Fourier expansion checks
#
# With a_n = C(2n,n)^2 / 2^(4n) (so a_n <= 1/(pi n), an exact inequality):
#   K(sin t)cos t  = (pi/2) sum_{n>=0} a_n (sin 4nt + sin (4n+2)t)
#   K(cos t)cos t  = (pi/2) sum_{n>=0} a_n (cos 4nt + cos (4n+2)t)
#   m(4 sin t)     = log 2 - sum_{n>=1} a_n cos(4nt)/(4n)
#                          - sum_{n>=0} a_n cos((4n+2)t)/(4n+2)

_FOURIER_IDS = ("3.8", "3.9", "3.10")


def _fourier_tail_bound(key: str, theta, n_terms: int, a_n):
    """Rigorous bound on the dropped tail, of order 1/N, given a_N.

    For the two K expansions the coefficients a_n decrease to zero and the
    partial sums of sin((4n+c)t) or cos((4n+c)t) are bounded by
    1/|sin 2t| (geometric sum of unimodular phases), so Abel summation
    bounds each of the two dropped sub-series by (pi/2) a_N / |sin 2t|.
    For the measure expansion the tail is absolutely summable:
    sum_{n>=N} a_n/(4n) <= sum 1/(4 pi n^2) <= 1/(4 pi (N-1)).
    """
    if key == "3.10":
        return 1 / (2 * mp.pi * (n_terms - 1))
    return 2 * (mp.pi / 2) * a_n / abs(mp.sin(2 * theta))


def fourier_check(which: str, theta, terms: int, precision: Optional[int] = None):
    """Absolute deviation between a truncated expansion and its closed form.

    which is one of "3.8", "3.9", "3.10"; terms is the number of retained n
    values.  The deviation is checked against the explicit tail bound
    before being returned; exceeding the bound means the expansion itself
    is wrong and raises ArithmeticError.
    """
    if which not in _FOURIER_IDS:
        raise ValueError(f"which must be one of {_FOURIER_IDS}, got {which!r}")
    if terms < 8:
        raise ValueError(f"terms must be >= 8, got {terms}")
    base = _base(precision)
    with mp.workprec(base + 24):
        t = mp.mpf(theta)
        if not 0 < t < mp.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2), got {theta}")

        a_n = mp.mpf(1)
        series = mp.mpf(0)
        for n in range(terms):
            if which == "3.8":
                series += a_n * (mp.sin(4 * n * t) + mp.sin((4 * n + 2) * t))
            elif which == "3.9":
                series += a_n * (mp.cos(4 * n * t) + mp.cos((4 * n + 2) * t))
            else:
                if n >= 1:
                    series -= a_n * mp.cos(4 * n * t) / (4 * n)
                series -= a_n * mp.cos((4 * n + 2) * t) / (4 * n + 2)
            a_n *= mp.mpf((2 * n + 1) ** 2) / (4 * (n + 1) ** 2)
        if which in ("3.8", "3.9"):
            series *= mp.pi / 2
        else:
            series += mp.log(2)

        if which == "3.8":
            direct = special.ell_kprime(mp.cos(t)) * mp.cos(t)
        elif which == "3.9":
            direct = special.ell_kprime(mp.sin(t)) * mp.cos(t)
        else:
            direct = m_alpha(mp.sin(t), route="integral", precision=base + 16)

        deviation = abs(series - direct)
        bound = _fourier_tail_bound(which, t, terms, a_n)
        if deviation > bound * mp.mpf("1.000001") + mp.mpf(2) ** (-base + 8):
            raise ArithmeticError(
                f"expansion {which} deviates by {mp.nstr(deviation, 8)} at theta = "
                f"{mp.nstr(t, 8)}, beyond its tail bound {mp.nstr(bound, 8)}"
            )
        return deviation


# ---------------------------------------------------------------------------
# Density and moment checks


def density_integral_check(m_exponent: int, tolerance=mp.mpf("1e-10"), precision: Optional[int] = None):
    """|int int |cos cos|^m ds dt - (4/pi^2) int k^m K'(k) dk|.

    The double integral factors as the square of a single cosine moment, so
    the left side is a 1-D product quadrature; the right side is tanh-sinh
    against K'(k), whose k = 0 endpoint is a log singularity.
    """
    if not 0 <= m_exponent <= 6:
        raise ValueError(f"m_exponent must be 0..6, got {m_exponent}")
    tol = mp.mpf(tolerance)
    base = _base(precision) if precision is not None else max(64, int(-mp.log(tol, 2)) + 32)
    with mp.workprec(base + 16):
        if m_exponent == 0:
            moment = mp.mpf(1)
        else:
            part = quadrature.tanh_sinh_interval(
                lambda u: mp.cos(2 * mp.pi * u) ** m_exponent,
                mp.mpf(0),
                mp.mpf(1) / 4,
                tolerance=tol / 64,
                precision=base + 16,
            )
            moment = 4 * part.value
        lhs = moment * moment

        rhs_quad = quadrature.tanh_sinh(
            lambda k: k ** m_exponent * special.ell_kprime(k),
            tolerance=tol / 64,
            precision=base + 16,
        )
        rhs = 4 / mp.pi ** 2 * rhs_quad.value
        return abs(lhs - rhs)


def wan_moment_check(m: int, tolerance=mp.mpf("1e-10"), precision: Optional[int] = None):
    """|int_0^1 k^m K(k) K'(k) dk - closed form| for integer 0 <= m <= 6.

    The closed form is (pi^2/8) [Gamma((m+1)/2) / Gamma((m+2)/2)]^2 times
    4F3(1/2, 1/2, (m+1)/2, (m+1)/2; 1, (m+2)/2, (m+2)/2; 1); the 4F3 terms
    decay like n^-2, which the unit-argument series path accelerates.
    """
    if not 0 <= m <= 6:
        raise ValueError(f"m must be 0..6, got {m}")
    tol = mp.mpf(tolerance)
    base = _base(precision) if precision is not None else max(64, int(-mp.log(tol, 2)) + 32)
    with mp.workprec(base + 16):
        quad = quadrature.tanh_sinh(
            lambda k: k ** m * special.ell_k(k) * special.ell_kprime(k),
            tolerance=tol / 16,
            precision=base + 16,
        )
        half = Fraction(m + 1, 2)
        spec = PFQSpec(
            upper=[Fraction(1, 2), Fraction(1, 2), half, half],
            lower=[Fraction(1), half + Fraction(1, 2), half + Fraction(1, 2)],
            argument=Fraction(1),
        )
        series = special.pfq(spec, tol / 16, precision=base + 8)
        ratio = special.gamma_half_int(m + 1, base + 16) / special.gamma_half_int(m + 2, base + 16)
        closed = mp.pi ** 2 / 8 * ratio ** 2 * series
        return abs(quad.value - closed)
