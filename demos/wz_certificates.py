"""Exact certificate arithmetic: no floating point anywhere in this file.

A WZ pair is two rational-valued grids f, g satisfying

    f(n+1,k) - f(n,k) = g(n,k+1) - g(n,k)

for all 0 <= k <= n.  Summing over k telescopes the right side, which
turns the relation into a proof scheme for binomial-sum identities: check
the relation exactly on a triangle of lattice points and the identity
follows for that range.  Everything below is fractions.Fraction, so a
passing run is a computation-sized proof, not an approximation.

The script exits 1 on any violation, a BROKEN telescope or three unequal
sums, so a broken certificate fails wherever the demo runs.
"""

import sys
from fractions import Fraction

from mahlerlab import PAIR_ONE, PAIR_TWO, identity_2_8_2_9, wz_pair_verify
from mahlerlab.wz import ramanujan_partial_sums, telescope_reconstruct


def main() -> int:
    violations = 0
    for pair in (PAIR_ONE, PAIR_TWO):
        report = wz_pair_verify(pair, 80)
        violations += len(report.violations)
        print("pair %-8s n <= %d: %d relations, %d violations"
              % (pair.name, report.n_max, report.relations_checked,
                 len(report.violations)))

    telescope = telescope_reconstruct(PAIR_ONE, 60)
    print("telescoped h(n) vs direct row sums, n <= 60: %d checks, %s"
          % (telescope.relations_checked, "exact" if telescope.ok else "BROKEN"))

    print()
    print("the three sums the pairs tie together, at n = 6:")
    s1, s2, s3 = identity_2_8_2_9(6)
    print("  s1 = %s" % s1)
    print("  s2 = %s" % s2)
    print("  s1 == s2 == s3: %s" % (s1 == s2 == s3))

    # S_m = sum_{k<=m} (4k+1) 2^(-8k) C(2k,k)^4 grows like (4/pi^2) log m,
    # so doubling m adds about (4/pi^2) log 2 = 0.28086...
    sums = ramanujan_partial_sums(400)
    print()
    print("logarithmic growth of the quartic-binomial partial sums:")
    for m in (50, 100, 200):
        jump = sums[2 * m] - sums[m]
        print("  S_%-3d -> S_%-3d adds %.10f" % (m, 2 * m, float(jump)))
    print("  (4/pi^2) log 2  =    0.2808600122")
    return 0 if violations == 0 and telescope.ok and s1 == s2 == s3 else 1


if __name__ == "__main__":
    sys.exit(main())
