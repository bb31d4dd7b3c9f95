"""The two eta-product newforms, from integer q-expansion to L-values.

f has weight 4 and level 8, h weight 3 and level 16; both q-expansions are
integer series built by exact power-series arithmetic on Dedekind eta
factors.  Hecke eigenform structure is visible directly in the
coefficients: a_{mn} = a_m a_n for coprime m, n and a_{p^2} =
a_p^2 - p^(weight-1) at good primes.

The completed function Lambda(s) is then computed by direct integration of
the q-series on the imaginary axis, one trapezoidal grid in log u serving
every s (axis_mellin), and tested for its reflection symmetry
s -> weight - s.  The same grid gives Lambda(0) = L'(f,0) without the
Mellin split.  The symmetry is never assumed anywhere in the library,
which is what makes the final negative control meaningful: flipping the
claimed sign must blow up, and does.  The script exits 1 when it does not.
"""

import sys

from mpmath import mp

from mahlerlab import (
    NEWFORM_F,
    NEWFORM_H,
    FunctionalEquationViolation,
    NewformSpec,
    axis_mellin,
    fricke_check,
    l_prime_at_0,
    l_value,
    newform_coefficient,
)


def main() -> int:
    for spec in (NEWFORM_F, NEWFORM_H):
        coeffs = [newform_coefficient(spec, n) for n in range(1, 20)]
        print("%s (weight %d, level %d): a_1..a_19 = %s"
              % (spec.name, spec.weight, spec.level, coeffs))

    print()
    print("Hecke structure of f at p = 3, 5, 7:")
    for p in (3, 5, 7):
        a_p = newform_coefficient(NEWFORM_F, p)
        a_p2 = newform_coefficient(NEWFORM_F, p * p)
        print("  a_%d = %d, a_%d = %d, a_p^2 - p^3 = %d"
              % (p, a_p, p * p, a_p2, a_p ** 2 - p ** 3))
    a6 = newform_coefficient(NEWFORM_F, 6)
    a2, a3 = newform_coefficient(NEWFORM_F, 2), newform_coefficient(NEWFORM_F, 3)
    print("  a_6 = %d = a_2 a_3 = %d" % (a6, a2 * a3))

    print()
    with mp.workprec(96):
        print("central and edge values:")
        print("  L(f,4)  = %s" % mp.nstr(l_value(NEWFORM_F, 4, precision=96), 25))
        print("  L(f,2)  = %s" % mp.nstr(l_value(NEWFORM_F, 2, precision=96), 25))
        print("  L'(f,0) = %s" % mp.nstr(l_prime_at_0(NEWFORM_F, precision=96), 25))
        print("          = %s (Lambda(0) on the log-u grid)"
              % mp.nstr(axis_mellin(NEWFORM_F, [0], 96)[0], 25))
        print("  L'(h,0) = %s" % mp.nstr(l_prime_at_0(NEWFORM_H, precision=96), 25))

    print()
    print("functional equation, tested not assumed:")
    for spec in (NEWFORM_F, NEWFORM_H):
        asym = fricke_check(spec, 64)
        print("  %s: max |Lambda(s) - Lambda(weight-s)| = %s"
              % (spec.name, mp.nstr(asym, 3)))

    flipped = NewformSpec(
        name="f-wrong-sign",
        weight=NEWFORM_F.weight,
        level=NEWFORM_F.level,
        fricke_sign=-NEWFORM_F.fricke_sign,
        recipe=NEWFORM_F.recipe,
    )
    try:
        fricke_check(flipped, 64)
        print("  negative control FAILED to fail")
        return 1
    except FunctionalEquationViolation as exc:
        print("  sign flipped on purpose -> %s" % exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
