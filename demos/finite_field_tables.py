"""Counting points the long way and the character-sum way.

Over F_p the quadruple-product threefold's affine point count at parameter
t has a closed form in Greene's finite-field hypergeometrics 2F1 and 4F3,
the mod-p shadows of the classical series.  Both sides are exact integers,
so the table below is either all zeros or the identity is wrong.

The last block is the trace link: p^3 4F3(1) = -a_p - p, tying the
character sums to the weight-4 newform coefficients with no analysis in
between, just integer arithmetic on both sides.

The script exits 1 when it prints BROKEN or MISMATCH, so a broken identity
fails wherever the demo runs.
"""

import sys

from mahlerlab import NEWFORM_F, greene_nfn, newform_coefficient, verify_4_1

PRIMES = (3, 5, 7, 11, 13)


def main() -> int:
    report = verify_4_1(7)
    print("point-count identity residuals over F_7 (t, count - formula):")
    print("  %s" % (report.residuals,))
    all_zero = all(verify_4_1(p).ok for p in PRIMES)
    print("  all %d primes p <= 13: %s"
          % (len(PRIMES), "all zero" if all_zero else "BROKEN"))

    print()
    print("Greene 2F1 values at t^2 = 4 are exact rationals with denominator p:")
    for p in (5, 13):
        print("  p = %-2d  2F1(4) = %s" % (p, greene_nfn(p, 1, 4)))

    print()
    print("trace link p^3 4F3(1) = -a_p - p:")
    linked = True
    for p in PRIMES:
        lhs = p ** 3 * greene_nfn(p, 3, 1)
        a_p = newform_coefficient(NEWFORM_F, p)
        linked &= lhs == -a_p - p
        print("  p = %-2d  p^3 4F3(1) = %-5d  -a_p - p = %-5d  %s"
              % (p, lhs, -a_p - p, "ok" if lhs == -a_p - p else "MISMATCH"))
    return 0 if all_zero and linked else 1


if __name__ == "__main__":
    sys.exit(main())
