"""The headline identity, computed three ways.

m((x+1/x)(y+1/y)(z+1/z)(w+1/w) - 16) has three faces:

  series route   log 16 - (8/256) 6F5(...; 1)   (hypergeometric form at k=16)
  L(f,4) route   (192/pi^4) L(f,4) + 7 zeta(3)/pi^2
  L'(f,0) route  8 L'(f,0) - 28 zeta'(-2)

where f is the weight-4 level-8 eta-product newform.  The series route
(accelerated unit-argument series) shares no nontrivial machinery with the
other two (Mellin split of the q-expansion plus Borwein's zeta series), so
their agreement to dozens of digits is evidence.  The L'(f,0) route is not
yet independent of the L(f,4) route: l_prime_at_0 is the same Mellin-split
L(f,4) rescaled by the functional equation, (sqrt 8/(2 pi))^4 3!, and
zeta_prime_minus2 is -zeta(3)/(4 pi^2) from the same zeta(3).  So the gap
|L(f,4) - L'(f,0)| measures rounding, not agreement, until that route gets
an integral for Lambda_f(0) and a zeta'(-2) of its own.

The series and L(f,4) routes are then compared once more at 1047 bits, the
working precision of `mahlerlab compute mRk 16 --digits 300`; the gap is
printed (about 2.6e-315, the last bits of that precision).

A seeded lattice-QMC estimate of the defining 4-dimensional torus integral
is appended as a sanity anchor at Monte Carlo accuracy.

The script exits 1 when two routes differ by more than 1e-40, or when the
anchor misses the series value by more than max(5e-3, 6 sigma), the
statistical checks' tolerance; so a wrong headline fails wherever the demo
runs.
"""

import sys

from mpmath import mp

from mahlerlab import (
    NEWFORM_F,
    builtin_descriptor,
    l_prime_at_0,
    l_value,
    m_rk_hypergeometric,
    mahler_numeric,
    zeta_int,
)
from mahlerlab.special import zeta_prime_minus2

PRECISION = 160
DIGITS = 42
ROUTE_GAP = mp.mpf("1e-40")
DEEP_PRECISION = 1047  # compute mRk 16 --digits 300


def _l_route(precision):
    return (
        192 / mp.pi ** 4 * l_value(NEWFORM_F, 4, precision=precision)
        + 7 * zeta_int(3, precision) / mp.pi ** 2
    )


def main() -> int:
    with mp.workprec(PRECISION):
        series = m_rk_hypergeometric(16, target_abs_error=mp.mpf("1e-40"),
                                     precision=PRECISION)
        l_route = _l_route(PRECISION)
        lprime_route = (
            8 * l_prime_at_0(NEWFORM_F, precision=PRECISION)
            - 28 * zeta_prime_minus2(PRECISION)
        )

        print("m(R16) three ways, %d digits:" % DIGITS)
        print("  series route   %s" % mp.nstr(series, DIGITS))
        print("  L(f,4) route   %s" % mp.nstr(l_route, DIGITS))
        print("  L'(f,0) route  %s" % mp.nstr(lprime_route, DIGITS))
        print()
        gaps = {
            "|series - L(f,4)| ": abs(series - l_route),
            "|series - L'(f,0)|": abs(series - lprime_route),
            "|L(f,4) - L'(f,0)|": abs(l_route - lprime_route),
        }
        print("pairwise disagreement:")
        for label, gap in gaps.items():
            print("  %s = %s" % (label, mp.nstr(gap, 3)))

    with mp.workprec(DEEP_PRECISION):
        deep = m_rk_hypergeometric(16, target_abs_error=mp.mpf(10) ** -304,
                                   precision=DEEP_PRECISION)
        deep_gap = abs(deep - _l_route(DEEP_PRECISION))
    print()
    print("at %d bits (300 digits):" % DEEP_PRECISION)
    print("  |series - L(f,4)|  = %s" % mp.nstr(deep_gap, 3))

    qmc = mahler_numeric(builtin_descriptor("r16"), samples=1 << 18, seed=[2024, 0])
    err = abs(mp.mpf(qmc.value) - series)
    print()
    print("torus QMC anchor (2^18 samples, 16 shifts):")
    print("  estimate %s  sigma %s  |error| %s"
          % (mp.nstr(qmc.value, 10), mp.nstr(qmc.error_estimate, 3), mp.nstr(err, 3)))

    failures = [label for label, gap in gaps.items() if gap > ROUTE_GAP]
    if err > max(5e-3, 6 * qmc.error_estimate):
        failures.append("torus QMC anchor")
    for label in failures:
        print("FAILED: %s beyond its bound" % label.strip(), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
