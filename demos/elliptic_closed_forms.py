"""Elliptic-integral moments against their closed forms.

Warm-up: int_0^1 K(k) dk = 2G with G Catalan's constant, computed by
tanh-sinh quadrature that never sees the log singularity of K at k = 1
thanks to the double-exponential variable change.

Then the six log-weighted K K' integrals from the identity registry, each
against a pi/zeta/log closed form at 96 bits, followed by the K K' moment
ladder m = 0..6 whose closed form is a gamma-ratio times a 4F3 at unit
argument.

The script exits 1 when a registry check prints FAIL.
"""

import sys

from mpmath import mp

from mahlerlab import catalan, ell_k, run_check, tanh_sinh, wan_moment_check

INTEGRAL_IDS = ("eq-2.4", "eq-2.5", "e-wan", "eq-2.6", "eq-2.7", "eq-2.8-analytic")


def main() -> int:
    with mp.workprec(128):
        quad = tanh_sinh(lambda k: ell_k(k), tolerance=mp.mpf("1e-30"), precision=128)
        reference = 2 * catalan(128)
        print("int_0^1 K(k) dk vs 2G:")
        print("  quadrature %s" % mp.nstr(quad.value, 32))
        print("  2 Catalan  %s" % mp.nstr(reference, 32))
        print("  |diff| %s after %d evaluations"
              % (mp.nstr(abs(quad.value - reference), 3), quad.evaluations))

    print()
    print("log-weighted K K' integrals at 96 bits:")
    failed = False
    for check_id in INTEGRAL_IDS:
        r = run_check(check_id, 96)
        failed |= not r.passed
        print("  %-16s %s  deviation %s  (%d evals)"
              % (check_id, "ok" if r.passed else "FAIL",
                 mp.nstr(mp.mpf(r.deviation), 3), r.evaluations))
    print("  (a deviation of exactly 0.0 means quadrature and closed form")
    print("   rounded to the same 96-bit value, which tanh-sinh routinely")
    print("   overshoots to)")

    print()
    print("moments int_0^1 k^m K K' dk vs gamma-ratio 4F3(1), m = 0..6:")
    for m_exp in range(7):
        dev = wan_moment_check(m_exp, tolerance=mp.mpf("1e-20"), precision=96)
        print("  m = %d  deviation %s" % (m_exp, mp.nstr(dev, 3)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
