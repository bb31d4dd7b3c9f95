"""Independent checks of mahlerlab's outputs, each with a negative control.

Every check is computed here without mahlerlab: exact sums with math.comb
and Fraction, point counts by brute force over F_p^4, the newform's
coefficients from its eta product, and constants from mpmath alone.  A
check returns a list of problems (empty when it passes).  check() runs a
check on the real data and on perturbed copies, and reports a problem when
the real data fail or when a perturbed copy passes, so a check that cannot
fail counts as a failure.
"""

from __future__ import annotations

import functools
import json
import math
import os
from fractions import Fraction

from mpmath import mp

HERE = os.path.dirname(os.path.abspath(__file__))

SIX_F_FIVE = ([1.5] * 4 + [1, 1], [2] * 5)


def check(name, checker, data, perturbations):
    """Problems of checker on data, plus one for each perturbed copy of
    data (a negative control) that the checker lets pass."""
    problems = [f"{name}: {p}" for p in checker(data)]
    for i, perturbed in enumerate(perturbations):
        if not checker(perturbed):
            problems.append(f"{name}: negative control {i} passed")
    return problems


def _each(items, change):
    """One copy of items per position, with change applied there."""
    return [items[:i] + [change(item)] + items[i + 1:] for i, item in enumerate(items)]


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# exact workload


@functools.lru_cache(maxsize=None)
def identity_sums(n):
    """s1, s2, s3 of identity (2.8)-(2.9), from math.comb and Fraction."""
    s1 = sum(Fraction(math.comb(2 * k, k) ** 2, 16 ** k * (2 * n - 2 * k + 1)) for k in range(n + 1))
    s2 = sum(Fraction(math.comb(2 * k, k) ** 2, 16 ** k * (n + k + 1)) for k in range(n + 1))
    inner = ramanujan_partial_sum(n)
    s3 = Fraction(16 ** n, (2 * n + 1) ** 2 * math.comb(2 * n, n) ** 2) * inner
    return s1, s2, s3


@functools.lru_cache(maxsize=None)
def ramanujan_partial_sum(m):
    return sum(Fraction((4 * k + 1) * math.comb(2 * k, k) ** 4, 256 ** k) for k in range(m + 1))


@functools.lru_cache(maxsize=None)
def brute_force_counts(p):
    """Affine points of (x^2+1)(y^2+1)(z^2+1)(w^2+1) = 16 t xyzw over F_p,
    for every t in 1..p-1, from one sweep of F_p^4: a point with xyzw != 0
    lies on exactly one H_t, a point with xyzw = 0 on all or none."""
    counts = [0] * p
    on_all = 0
    sq1 = [(x * x + 1) % p for x in range(p)]
    inverse = [0] + [pow(r, -1, p) for r in range(1, p)]
    for x in range(p):
        for y in range(p):
            for z in range(p):
                lhs3 = sq1[x] * sq1[y] * sq1[z] % p
                prod3 = 16 * x * y * z % p
                for w in range(p):
                    lhs = lhs3 * sq1[w] % p
                    rhs = prod3 * w % p
                    if rhs:
                        counts[lhs * inverse[rhs] % p] += 1
                    elif lhs == 0:
                        on_all += 1
    return [counts[t] + on_all for t in range(1, p)]


def newform_f_coefficients(n_max):
    """a_1..a_n_max of eta(2t)^4 eta(4t)^4 = q prod (1-q^2n)^4 (1-q^4n)^4."""
    series = [1] + [0] * n_max  # coefficients of q^0..q^n_max before the shift
    for step in (2, 4):
        for n in range(step, n_max + 1, step):
            for _ in range(4):
                for i in range(n_max, n - 1, -1):
                    series[i] -= series[i - n]
    return [0] + series[:n_max]  # a_n = coefficient of q^(n-1)


def check_exact_records(records):
    problems = []
    for r in records:
        if not (r["deviation"] == "0" and r["tolerance"] == "0" and r["lhs"] == r["rhs"]):
            problems.append(f"{r['id']} residual {r['deviation']} lhs {r['lhs']} rhs {r['rhs']}")
    return problems


def check_identity(pairs):
    problems = []
    for n, program in pairs:
        own = identity_sums(n)
        if [Fraction(s) for s in program] != list(own) or not own[0] == own[1] == own[2]:
            problems.append(f"identity_2_8_2_9({n}) differs from math.comb/Fraction sums")
    return problems


def check_ramanujan(pairs):
    return [
        f"ramanujan_partial_sums at m = {m} differs"
        for m, program in pairs
        if Fraction(program) != ramanujan_partial_sum(m)
    ]


def check_counts(counts):
    return [
        f"count_points({p}, t) differs from brute force"
        for p, program in counts.items()
        if program != brute_force_counts(int(p))
    ]


def check_ffield(rows):
    a = newform_f_coefficients(max(r["p"] for r in rows))
    problems = []
    for r in rows:
        p = r["p"]
        if any(r["residuals"]):
            problems.append(f"verify_4_1({p}) residuals {r['residuals']}")
        if r["a_p"] != a[p]:
            problems.append(f"a_{p} = {r['a_p']}, eta product gives {a[p]}")
        if p ** 3 * Fraction(r["greene_3_1"]) != -a[p] - p:
            problems.append(f"p^3 4F3(1) != -a_p - p at p = {p}")
    return problems


def exact_checks(records, rows, probes, probed):
    """probes: the sample points sent to the worker; probed: its answers."""
    identity = list(zip(probes["identity_2_8_2_9"], probed["identity_2_8_2_9"]))
    ramanujan = list(zip(probes["ramanujan"], probed["ramanujan"]))
    counts = probed["count_points"]

    def bump_sum(pair):
        n, sums = pair
        return n, [str(Fraction(sums[0]) + Fraction(1, 16 ** n))] + sums[1:]

    def bump_count(p):
        return dict(counts, **{p: [counts[p][0] + 1] + counts[p][1:]})

    return (
        check("exact residuals", check_exact_records, records,
              _each(records, lambda r: dict(r, deviation="1")))
        + check("wz sums", check_identity, identity, _each(identity, bump_sum))
        + check("ramanujan sums", check_ramanujan, ramanujan,
                _each(ramanujan, lambda pair: (pair[0], str(Fraction(pair[1]) * 2))))
        + check("point counts", check_counts, counts, [bump_count(p) for p in counts])
        + check("ffield identities", check_ffield, rows,
                _each(rows, lambda r: dict(r, a_p=r["a_p"] + 2))
                + _each(rows, lambda r: dict(
                    r, greene_3_1=str(Fraction(r["greene_3_1"]) + Fraction(1, r["p"] ** 3)))))
    )


# ---------------------------------------------------------------------------
# high-precision and statistical workloads


def _constants(m8):
    """Every value-form constant of the high-precision and statistical
    checks, from mpmath alone, keyed by check id; and m(R_16)."""
    hyper_at_1 = mp.hyper(*SIX_F_FIVE, 1)
    m16 = 4 * mp.log(2) - hyper_at_1 / 32
    zeta3 = mp.zeta(3)
    l_f4 = mp.pi ** 4 / 192 * (m16 - 7 * zeta3 / mp.pi ** 2)
    pi = mp.pi

    def chi3(a):
        return (mp.polylog(3, a) - mp.polylog(3, -a)) / 2

    # the registry passes alpha as Python floats; use the same binary values
    r_alpha = [4 / pi ** 2 * chi3(mp.mpf(a)) for a in (0.3, 0.7, 1.0)]
    constants = {
        "thm-1.1": [m16],
        "eq-1.5": [hyper_at_1],
        "eq-2.4": [192 / pi * l_f4],
        "eq-2.5": [7 * pi * zeta3],
        "e-wan": [mp.mpf(7) / 8 * pi * zeta3],
        "eq-2.6": [m16],
        "eq-2.7": [12 / pi * l_f4],
        "eq-2.8-analytic": [-12 / pi * l_f4 - mp.mpf(7) / 8 * pi * zeta3],
        "eq-2.10": [m16],
        "eq-2.11": [m16],
        "eq-3.2": [4 * mp.log(2) - 14 * zeta3 / pi ** 2],
        "eq-3.5-vs-3.6": r_alpha,
        "eq-4.3": [192 / pi ** 4 * l_f4 - 7 * zeta3 / pi ** 2],
        "eq-1.1": [4 * mp.catalan / pi],
        "eq-1.2": [mp.mpf(m8)],
        "thm-1.1-torus": [m16],
        "eq-4.4": [7 * zeta3 / (2 * pi ** 2)],
        "m-r32": [mp.log(32) - mp.mpf(8) / 1024 * mp.hyper(*SIX_F_FIVE, mp.mpf(1) / 4)],
    }
    return constants, m16


def _value_problems(records, constants):
    """Both sides of each value-form check lie within the check's own
    tolerance of one mpmath constant; residual-form checks (rhs 0) must
    have their residual within tolerance."""
    problems = []
    for r in records:
        tolerance = mp.mpf(r["tolerance"])
        lhs, rhs = mp.mpf(r["lhs"]), mp.mpf(r["rhs"])
        refs = constants.get(r["id"])
        if refs is None:
            if not (rhs == 0 and abs(lhs) <= tolerance):
                problems.append(f"{r['id']} residual {r['lhs']} above tolerance {r['tolerance']}")
        elif not any(abs(lhs - c) <= tolerance and abs(rhs - c) <= tolerance for c in refs):
            problems.append(f"{r['id']} lhs {r['lhs']} rhs {r['rhs']} not within {r['tolerance']} of mpmath")
    return problems


def value_checks(records, reference):
    with mp.workdps(50):
        constants, m16 = _constants(reference["m8"])

        def bump(r):
            step = 10 * mp.mpf(r["tolerance"])
            return dict(r, lhs=mp.nstr(mp.mpf(r["lhs"]) + step, 45))

        problems = check(
            "values vs mpmath",
            lambda rs: _value_problems(rs, constants),
            records,
            _each(records, bump),
        )
        if abs(mp.mpf(reference["m16"]) - m16) > mp.mpf(10) ** -45:
            problems.append("stored m16 reference disagrees with mpmath's hyper")
    return problems


# ---------------------------------------------------------------------------
# headline workload


def headline_checks(values, digits, reference):
    """values maps 'mRk 16', 'L f 4', 'zeta 3', 'catalan' to the printed
    decimals.  Each must agree with its mpmath constant to 10^-(digits-5);
    the theorem (192/pi^4) L(f,4) + 7 zeta(3)/pi^2 = m(R_16) is checked on
    the printed L-value against the stored hypergeometric route."""
    with mp.workdps(digits + 20):
        bound = mp.mpf(10) ** -(digits - 5)
        m16 = mp.mpf(reference["m16"])
        zeta3 = mp.zeta(3)

        def problems_of(v):
            got = {k: mp.mpf(s) for k, s in v.items()}
            out = []
            pairs = [
                ("mRk 16 vs hyper route", got["mRk 16"], m16),
                (
                    "theorem: (192/pi^4) L(f,4) + 7 zeta(3)/pi^2 vs hyper route",
                    192 / mp.pi ** 4 * got["L f 4"] + 7 * zeta3 / mp.pi ** 2,
                    m16,
                ),
                ("zeta 3 vs mp.zeta(3)", got["zeta 3"], zeta3),
                ("catalan vs mp.catalan", got["catalan"], +mp.catalan),
            ]
            for label, a, b in pairs:
                if not abs(a - b) <= bound:
                    out.append(f"{label}: differs by {mp.nstr(abs(a - b), 3)}")
            return out

        def nudged(key):
            # change the tenth-last printed digit, 10^-(digits-9) or more
            text = values[key]
            digit = "1" if text[-10] != "1" else "2"
            return dict(values, **{key: text[:-10] + digit + text[-9:]})

        return check("headline vs mpmath", problems_of, values, [nudged(k) for k in values])
