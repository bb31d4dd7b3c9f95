"""Named verification checks, each pairing two independent computation routes.

Every check is an IdentityCheck with a left plan and a right plan that
compute the same quantity through genuinely different machinery (exact
telescoping vs. closed form, quadrature vs. L-value, lattice QMC vs.
hypergeometric series).  run_check executes both plans and scores the
deviation against a tolerance determined by the check's kind:

    exact           tolerance 0, values are Rationals or integers
    high-precision  max(10^-(0.3 E - 10), per-check floor), E the effective
                    precision in bits; the two Lambda-symmetry checks use
                    the Fricke threshold 2^(20-E) instead
    statistical     max(5e-3, 6 sigma) with sigma the QMC shift dispersion

The kind alone supplies the tolerance floor, the precision cap and the
zero a residual check compares against (see _KIND_POLICY); a check
declares only what departs from that: a high-precision floor, the lower
Lambda cap, the Fricke rule.

Effective precision E is min(requested, per-check cap).  The caps exist
because each accelerated series and each completed-L quadrature has a
measured convergence plateau; past it a tighter tolerance could not be
honored, so both the internal effort and the tolerance freeze together.
That makes "raising precision never flips pass to fail" true by
construction above the cap and by measured margin (>= 10^4) below it.

Checks whose natural statement is "residual vanishes" (certificate suites,
coefficient identities, truncation-bound checks) report the largest
absolute residual as lhs and zero as rhs.  Multi-part checks report the
lhs/rhs pair of the worst part, ties resolved to the last part.
"""

from __future__ import annotations

import difflib
import itertools
import math
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from mpmath import mp

from . import ffield, mahler, modular, precision, quadrature, special, wz
from .mahler import _SIX_F_FIVE_LOWER, _SIX_F_FIVE_UPPER
from .modular import NEWFORM_F, NEWFORM_H
from .precision import NoConvergence, ResourceLimitError, from_fixed, to_fixed
from .quadrature import IntegrandError
from .special import PFQSpec
from .wz import PAIR_ONE, PAIR_TWO

__all__ = [
    "IdentityCheck",
    "CheckResult",
    "RunContext",
    "UnknownCheckError",
    "KINDS",
    "DEFAULT_PRECISION",
    "DEFAULT_SEED",
    "DEFAULT_SAMPLES",
    "DEFAULT_SHIFTS",
    "check_ids",
    "get_check",
    "run_check",
    "run_all",
    "summarize",
    "validate_run_args",
]

KINDS = ("exact", "high-precision", "statistical")

DEFAULT_PRECISION = 128
DEFAULT_SEED = 0x5EED
DEFAULT_SAMPLES = 1 << 20
DEFAULT_SHIFTS = 16

# Convergence plateaus, measured: at 160 bits effective the six series
# checks deviate by 1.2e-62 (eq-2.11) to 1.5e-56 (eq-1.5), those with a
# Levin side (128 int partial sums) by about 3e-58, while the tolerance
# there is 1e-38; the Lambda-symmetry quadratures reach ~1e-45 at 128 bits
# against a 2^-108 threshold.  Raising the caps requires re-measuring the
# margins.
_CAP_HIGH_PRECISION = 160
_CAP_LAMBDA = 128
_CAP_STATISTICAL = 128

_WZ_RANGE = 500
_FF_PRIMES = (3, 5, 7, 11, 13)
_QEXP_ORDER = 200
_FOURIER_TERMS = 400

Value = Union[Fraction, int, mp.mpf]


class UnknownCheckError(KeyError):
    """Raised for an id not in the registry; carries near-miss suggestions."""

    def __init__(self, check_id: str, suggestions: Sequence[str]):
        self.check_id = check_id
        self.suggestions = tuple(suggestions)
        hint = f"; did you mean: {', '.join(suggestions)}" if suggestions else ""
        super().__init__(f"unknown check id {check_id!r}{hint}")

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class RunContext:
    """Execution parameters seen by a plan.

    effective is the precision actually used (requested clamped to the
    check's cap); plans must derive every internal target from it so that
    tolerance and effort move together.
    """

    check_id: str
    effective: int
    seed: int
    samples: int

    def rng_seed(self) -> List[int]:
        """Per-check QMC seed: the run seed joined with a stable hash of the
        check id, so sibling checks never share a lattice shift stream."""
        return [self.seed, zlib.crc32(self.check_id.encode("ascii"))]


@dataclass(frozen=True)
class PlanResult:
    """One side of a check: parallel value tuple plus work accounting."""

    values: Tuple[Value, ...]
    evaluations: int = 0
    error_estimate: Optional[mp.mpf] = None


Plan = Callable[[RunContext], PlanResult]


@dataclass(frozen=True)
class IdentityCheck:
    """A named identity with two computation plans.

    tolerance is the floor: exactly zero for exact checks, the per-check
    floor of the high-precision formula, 5e-3 for statistical checks;
    tolerance_at gives the effective tolerance.  The fricke rule replaces
    the decimal formula with the 2^(20-E) threshold used by the
    functional-equation validator itself.
    """

    id: str
    kind: str
    description: str
    lhs_plan: Plan
    rhs_plan: Plan
    tolerance: Union[Fraction, mp.mpf]
    precision_cap: int = _CAP_HIGH_PRECISION
    tolerance_rule: str = "default"

    def effective_precision(self, precision: int) -> int:
        return min(precision, self.precision_cap)

    def tolerance_at(self, precision: int, error_estimate=None):
        if self.kind == "exact":
            return self.tolerance
        with mp.workprec(64):
            if self.kind == "statistical":
                if error_estimate is None:
                    return self.tolerance
                return max(self.tolerance, 6 * mp.mpf(error_estimate))
            e = self.effective_precision(precision)
            if self.tolerance_rule == "fricke":
                return mp.mpf(2) ** (20 - e)
            return max(_hp_tolerance(e), mp.mpf(self.tolerance))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check run.

    lhs/rhs are None only when a plan failed before producing values; the
    note then carries the failure.  passed is deviation <= tolerance
    (exact kind: deviation == 0).
    """

    id: str
    kind: str
    lhs: Optional[Value]
    rhs: Optional[Value]
    deviation: Optional[Value]
    tolerance: Value
    passed: bool
    wall_ms: int
    evaluations: int
    seed_used: int
    note: str = ""


# ---------------------------------------------------------------------------
# Shared cached quantities


@lru_cache(maxsize=None)
def _l_f4(work: int):
    return modular.l_value(NEWFORM_F, 4, precision=work)


@lru_cache(maxsize=None)
def _zeta3(work: int):
    return special.zeta_int(3, work)


def _theorem_value(work: int):
    """(192/pi^4) L(f,4) + 7 zeta(3)/pi^2, the L-route for m(R_16)."""
    with mp.workprec(work):
        return 192 / mp.pi ** 4 * _l_f4(work) + 7 * _zeta3(work) / mp.pi ** 2


def _hp_tolerance(e: int):
    with mp.workprec(64):
        return mp.mpf(10) ** (-(mp.mpf("0.3") * e - 10))


# ---------------------------------------------------------------------------
# Series plans.  Every series is declared once, as a PFQSpec at x = 1, and
# its terms are stepped on ints by pfq's term ratio.  Each plan fixes its
# extrapolator, so that the 6F5 and the 5F4 each meet both: Richardson
# inside pfq (eq-1.5, eq-2.11's lhs, eq-3.2) or the Levin u table on int
# partial sums (thm-1.1, eq-4.3, and the swap sum of eq-2.10 and eq-2.11's
# rhs).

# 32 sum_{n>=1} C(2n,n)^4 2^(-8n) / (2n)
_SIX_F_FIVE = PFQSpec(_SIX_F_FIVE_UPPER, _SIX_F_FIVE_LOWER, 1)
# sum_{n>=0} C(2n,n)^4 2^(-8n) / (2n+1)
_FIVE_F_FOUR = PFQSpec([Fraction(1, 2)] * 5, [1, 1, 1, Fraction(3, 2)], 1)
# (96/5) sum_{n>=1} ((4n+1)/((2n)(2n+1))) C(2n,n)^4 2^(-8n), re-indexed from 0
_EIGHT_F_SEVEN = PFQSpec(
    [Fraction(3, 2)] * 5 + [Fraction(9, 4), 1, 1], [2] * 5 + [Fraction(5, 4), Fraction(5, 2)], 1
)
# t_j = (4j+1) C(2j,j)^4 2^(-8j), tail exponent 1: its partial sums S_n grow
# like (4/pi^2) log n
_RAMANUJAN = PFQSpec([Fraction(1, 2)] * 4 + [Fraction(5, 4)], [1, 1, 1, Fraction(1, 4)], 1)

# Levin's partial-sum count, enough for every precision up to the 160-bit
# cap, and the fraction bits its int partial sums carry beyond the work
# precision: accelerate's own input rule, 1.2 bits a term for the table's
# cancellation, plus 48
_LEVIN_TERMS = 128
_LEVIN_GUARD = int(1.2 * _LEVIN_TERMS) + 48


def _unit_terms(spec: PFQSpec, w: int) -> Iterable[int]:
    """The series' first _LEVIN_TERMS terms at x = 1 as ints of w fraction
    bits: t_0 = 2^w, t_(j+1) = t_j P(j) // Q(j).  Each floor costs under a
    unit and the ratios stay below 1, so term j is off by under j units."""
    ratio = special._ratio_ints(spec)
    t = 1 << w
    for j in range(_LEVIN_TERMS):
        yield t
        pn, qn = ratio(j)
        t = t * pn // qn


def _levin(sums: Iterable[int], w: int, work: int):
    """(value, count): the Levin u extrapolant of count int partial sums of
    w fraction bits, to work bits; NoConvergence when the table never
    settles."""
    values = [from_fixed(s, w) for s in sums]
    result = precision.accelerate(values, precision=work)
    if result.low_confidence:
        raise NoConvergence(
            "series acceleration lost confidence; value "
            f"{mp.nstr(result.value, 20)} +- {mp.nstr(result.error_estimate, 3)}"
        )
    return result.value, len(values)


def _levin_series(spec: PFQSpec, e: int):
    w = e + 48 + _LEVIN_GUARD
    return _levin(itertools.accumulate(_unit_terms(spec, w)), w, e + 48)


def _richardson_series(spec: PFQSpec, e: int):
    return special.pfq(spec, target_abs_error=_hp_tolerance(e) / 8, precision=e + 48), 0


def _swap_series(spec: PFQSpec, e: int):
    """2 sum_n S_n/(2n+1)^2 with S_n = sum_{k<=n} t_k the partial sums of
    spec's series, t_k = (4k+1) 2^(-8k) C(2k,k)^4, by Levin.  S_n grows like
    (4/pi^2) log n, so the double sum's tail carries log n; summation by
    parts turns it into 2 sum_j t_j (pi^2/8 - sum_{n<j} (2n+1)^-2), whose
    terms fall like 2/(pi^2 j^2), a pure power tail.  The rearrangement is
    legitimate: every t_j is positive and the inner tail factors are
    bounded, so absolute convergence carries over.

    On ints of w fraction bits the tail factor is one to_fixed of pi^2/8
    less one floored 2^w/(2n+1)^2 a step, so both factors of term j are off
    by under j + 1 units and twice their floored product by under 5 (j + 1).
    """
    w = e + 48 + _LEVIN_GUARD
    with mp.workprec(w + 8):
        tail = to_fixed(mp.pi ** 2 / 8, w)
    sums, total = [], 0
    for j, t in enumerate(_unit_terms(spec, w)):
        total += (t * tail) >> (w - 1)
        sums.append(total)
        tail -= (1 << w) // (2 * j + 1) ** 2
    return _levin(sums, w, e + 48)


def _series_plan(series, spec: PFQSpec, outer=None) -> Plan:
    """outer(work, value) for the value of spec's series by series, one of
    _levin_series, _richardson_series and _swap_series (the bare value when
    outer is None), at work = effective + 48 bits."""

    def plan(ctx: RunContext) -> PlanResult:
        work = ctx.effective + 48
        with mp.workprec(work):
            value, n = series(spec, ctx.effective)
            if outer is not None:
                value = outer(work, value)
        return PlanResult((value,), n)

    return plan


# ---------------------------------------------------------------------------
# Quadrature plans: elliptic-integral moments on (0, 1)


def _quad_plan(integrand, prefactor=None) -> Plan:
    def plan(ctx: RunContext) -> PlanResult:
        e = ctx.effective
        work = e + 32
        with mp.workprec(work):
            result = quadrature.tanh_sinh(integrand, tolerance=_hp_tolerance(e) / 4, precision=work)
            value = result.value
            if prefactor is not None:
                value = prefactor() * value
        return PlanResult((value,), result.evaluations)

    return plan


def _const_plan(maker, guard: int = 32) -> Plan:
    """maker(work) evaluated at work = effective + guard bits."""

    def plan(ctx: RunContext) -> PlanResult:
        work = ctx.effective + guard
        with mp.workprec(work):
            value = maker(work)
        return PlanResult((value,), 0)

    return plan


# ---------------------------------------------------------------------------
# Residual-style plans (largest residual vs. zero)


def _plan_wz_pair(pair) -> Plan:
    def plan(ctx: RunContext) -> PlanResult:
        report = wz.wz_pair_verify(pair, _WZ_RANGE)
        worst = max(
            (abs(residual) for _, _, residual in report.violations),
            default=Fraction(0),
        )
        return PlanResult((worst,), report.relations_checked)

    return plan


def _plan_wz_telescope(ctx: RunContext) -> PlanResult:
    worst = Fraction(0)
    checked = 0
    for pair in (PAIR_ONE, PAIR_TWO):
        report = wz.telescope_reconstruct(pair, _WZ_RANGE)
        checked += report.relations_checked
        for _, _, residual in report.violations:
            worst = max(worst, abs(residual))
    return PlanResult((worst,), checked)


@lru_cache(maxsize=1)
def _wz_triples(n_max: int) -> Tuple[Tuple[Fraction, Fraction, Fraction], ...]:
    """(s1, s2, s3) for every n <= n_max, computed once for both plans."""
    return tuple(wz.identity_rows(n_max))


def _plan_wz_triples(pick) -> Plan:
    """The pair pick(s1, s2, s3) of every row of the shared sweep."""

    def plan(ctx: RunContext) -> PlanResult:
        values = [s for row in _wz_triples(_WZ_RANGE) for s in pick(*row)]
        return PlanResult(tuple(values), 2 * (_WZ_RANGE + 1))

    return plan


def _plan_ff_counts(ctx: RunContext) -> PlanResult:
    worst = 0
    evaluations = 0
    for p in _FF_PRIMES:
        report = ffield.verify_4_1(p)
        worst = max(worst, report.max_abs_residual)
        evaluations += len(report.residuals)
    return PlanResult((Fraction(worst),), evaluations)


def _prime_plan(value) -> Plan:
    """value(p) for each p in _FF_PRIMES; value is a lambda that calls its
    kernels through their modules, so a patch of a kernel reaches it."""

    def plan(ctx: RunContext) -> PlanResult:
        return PlanResult(tuple(value(p) for p in _FF_PRIMES), len(_FF_PRIMES))

    return plan


def _plan_qexp_ramanujan(ctx: RunContext) -> PlanResult:
    half = _QEXP_ORDER // 2
    series = (modular.theta_psi(half).dilate(2) ** 4).shift(1)
    sig = modular._sigma_sieve(_QEXP_ORDER)
    worst = 0
    for m in range(_QEXP_ORDER + 1):
        expected = sig[m] if m % 2 == 1 else 0
        worst = max(worst, abs(series[m] - expected))
    return PlanResult((Fraction(worst),), _QEXP_ORDER + 1)


def _plan_qexp_hecke(ctx: RunContext) -> PlanResult:
    a = lambda n: modular.newform_coefficient(NEWFORM_F, n)
    worst = 0
    relations = 0
    primes = [p for p in range(2, 38) if all(p % d for d in range(2, p))]
    for p in primes:
        if p != 2:
            worst = max(worst, abs(a(p * p) - (a(p) ** 2 - p ** 3)))
            relations += 1
        if a(p) ** 2 > 4 * p ** 3:
            worst = max(worst, a(p) ** 2 - 4 * p ** 3)
        relations += 1
    for m in range(2, 21):
        for n in range(m + 1, 21):
            if math.gcd(m, n) == 1:
                worst = max(worst, abs(a(m * n) - a(m) * a(n)))
                relations += 1
    return PlanResult((Fraction(worst),), relations)


# ---------------------------------------------------------------------------
# Suite plans built on mahler-module checkers


def _suite_plan(checker, count: int) -> Plan:
    """Largest checker(m) deviation over m < count, at most 96 bits.

    checker is a lambda that calls the checker through the mahler module,
    so a patch of mahler's function reaches the plan.
    """

    def plan(ctx: RunContext) -> PlanResult:
        e = min(ctx.effective, 96)
        with mp.workprec(e + 32):
            target = max(_hp_tolerance(e), mp.mpf("1e-14"))
            worst = mp.mpf(0)
            for m in range(count):
                worst = max(worst, checker(m, tolerance=target / 8, precision=e))
        return PlanResult((worst,), count)

    return plan


_R_ALPHA_POINTS = (0.3, 0.7, 1.0)


def _plan_r_alpha(route: str) -> Plan:
    def plan(ctx: RunContext) -> PlanResult:
        e = min(ctx.effective, 80)
        values = tuple(
            mahler.r_alpha(alpha, route=route, precision=e) for alpha in _R_ALPHA_POINTS
        )
        return PlanResult(values, len(values))

    return plan


def _plan_fourier(key: str, theta_num: int, theta_den: int) -> Plan:
    def plan(ctx: RunContext) -> PlanResult:
        e = min(ctx.effective, 96)
        with mp.workprec(e + 24):
            theta = mp.pi * theta_num / theta_den
            deviation = mahler.fourier_check(key, theta, _FOURIER_TERMS, precision=e)
        return PlanResult((deviation,), _FOURIER_TERMS)

    return plan


# ---------------------------------------------------------------------------
# Statistical plans


def _plan_qmc(name: str) -> Plan:
    def plan(ctx: RunContext) -> PlanResult:
        result = mahler.mahler_numeric(
            mahler.builtin_descriptor(name),
            samples=ctx.samples,
            shifts=DEFAULT_SHIFTS,
            seed=ctx.rng_seed(),
        )
        return PlanResult(
            (mp.mpf(result.value),),
            result.evaluations,
            error_estimate=mp.mpf(result.error_estimate),
        )

    return plan


# ---------------------------------------------------------------------------
# The registry


# kind -> (tolerance floor, precision cap, zero of a residual check).  Built
# at 64 bits, the precision tolerance_at works at; the zero's type decides
# whether a report prints 0 or 0.0.
with mp.workprec(64):
    _KIND_POLICY = {
        "exact": (Fraction(0), DEFAULT_PRECISION, Fraction(0)),
        "high-precision": (mp.mpf(0), _CAP_HIGH_PRECISION, mp.mpf(0)),
        "statistical": (mp.mpf("5e-3"), _CAP_STATISTICAL, mp.mpf(0)),
    }


def _check(kind, id_, description, lhs, rhs=None, floor=None, cap=None, rule="default"):
    """One registry entry; rhs defaults to the kind's zero (residual checks).

    A floor string is parsed at mpmath's default 53 bits, the registry's
    build precision, so "1e-8" reports as 1.000000000000000020922561e-8.
    """
    tolerance, kind_cap, zero = _KIND_POLICY[kind]
    return IdentityCheck(
        id=id_,
        kind=kind,
        description=description,
        lhs_plan=lhs,
        rhs_plan=rhs or (lambda ctx: PlanResult((zero,), 0)),
        tolerance=tolerance if floor is None else mp.mpf(floor),
        precision_cap=cap or kind_cap,
        tolerance_rule=rule,
    )


def _build_registry() -> Dict[str, IdentityCheck]:
    checks: List[IdentityCheck] = [
        # -- exact ----------------------------------------------------------
        _check(
            "exact", "wz-pair-1",
            "F(n+1,k)-F(n,k) = G(n,k+1)-G(n,k) exactly on 0 <= k <= n <= 500 "
            "for F = T(n,k)(2n+1)^2/(2n-2k+1), "
            "G = -T(n,k) k^2 (2n+1)^2/((n+1)^2 (2n-2k+3)), "
            "T(n,k) = 2^(-4n-4k) C(2k,k)^2 C(2n,n)^2; "
            "largest residual vs 0",
            _plan_wz_pair(PAIR_ONE),
        ),
        _check(
            "exact", "wz-pair-2",
            "F(n+1,k)-F(n,k) = G(n,k+1)-G(n,k) exactly on 0 <= k <= n <= 500 "
            "for F = T(n,k)(2n+1)^2/(n+k+1), "
            "G = T(n,k) k^2 (2n+1)^2/((n+1)^2 (n+k+1)); "
            "largest residual vs 0",
            _plan_wz_pair(PAIR_TWO),
        ),
        _check(
            "exact", "wz-telescope",
            "h(n) = h(0) + sum_{j<=n} (F(j,j) + G(j-1,j) - G(j-1,0)) "
            "reconstructs the row sums h(n) = sum_{k<=n} F(n,k) exactly for "
            "both certificate pairs, n <= 500; largest residual vs 0",
            _plan_wz_telescope,
        ),
        _check(
            "exact", "wz-2.8-2.9",
            "sum_{k<=n} 2^(-4k) C(2k,k)^2/(2n-2k+1) "
            "= sum_{k<=n} 2^(-4k) C(2k,k)^2/(n+k+1) "
            "= 2^(4n)/((2n+1)^2 C(2n,n)^2) sum_{k<=n} (4k+1) 2^(-8k) C(2k,k)^4 "
            "exactly for every n <= 500",
            _plan_wz_triples(lambda s1, s2, s3: (s1, s1)),
            _plan_wz_triples(lambda s1, s2, s3: (s2, s3)),
        ),
        _check(
            "exact", "ff-4.1",
            "affine point count of (x^2+1)(y^2+1)(z^2+1)(w^2+1) = 16 t xyzw "
            "over F_p equals p^3 4F3(t^2) + 4 phi(-1) p^2 2F1(t^2) "
            "- 3 eps(t^2-1) p^2 + p^3 + 8(phi(-1)+1) p^2 - 16(phi(-1)+1) p "
            "- 3p - 8(phi(-1)+1) + 1 for all t in F_p*, p in {3,5,7,11,13}; "
            "largest residual vs 0",
            _plan_ff_counts,
        ),
        _check(
            "exact", "ff-ahlgren-ono",
            "p^3 4F3(1) = -a_p - p for p in {3,5,7,11,13}, with 4F3 the "
            "finite-field hypergeometric sum (all upper phi, all lower eps) "
            "and a_p the p-th coefficient of eta(2t)^4 eta(4t)^4",
            _prime_plan(lambda p: p ** 3 * ffield.greene_nfn(p, 3, 1)),
            _prime_plan(lambda p: Fraction(-modular.newform_coefficient(NEWFORM_F, p) - p)),
        ),
        _check(
            "exact", "qexp-ramanujan",
            "q psi(q^2)^4 = sum over odd m of sigma(m) q^m through q^200, "
            "psi the triangular-number theta series; largest coefficient "
            "residual vs 0",
            _plan_qexp_ramanujan,
        ),
        _check(
            "exact", "qexp-f-coeffs",
            "coefficients of eta(2t)^4 eta(4t)^4 satisfy a_mn = a_m a_n for "
            "coprime m,n <= 20, a_p^2 = a_{p^2} + p^3 for odd p <= 37, and "
            "a_p^2 <= 4 p^3; largest violation vs 0",
            _plan_qexp_hecke,
        ),
        # -- high-precision --------------------------------------------------
        _check(
            "high-precision", "thm-1.1",
            "4 log 2 - sum_{n>=1} (1/(2n)) C(2n,n)^4 2^(-8n) "
            "= (192/pi^4) L(f,4) + 7 zeta(3)/pi^2, "
            "f the weight-4 level-8 newform eta(2t)^4 eta(4t)^4; series side "
            "eq-1.5's 6F5 / 32 by Levin on int partial sums (eq-1.5 takes "
            "Richardson), L-side by Mellin-split incomplete gammas (no "
            "machinery shared between the routes)",
            _series_plan(_levin_series, _SIX_F_FIVE, lambda w, s: 4 * mp.log(2) - s / 32),
            _const_plan(_theorem_value),
        ),
        _check(
            "high-precision", "eq-1.5",
            "6F5(3/2,3/2,3/2,3/2,1,1; 2,2,2,2,2; 1) "
            "= 128 log 2 - 6144 L(f,4)/pi^4 - 224 zeta(3)/pi^2; series by "
            "pfq's Richardson extrapolation (thm-1.1 takes Levin)",
            _series_plan(_richardson_series, _SIX_F_FIVE),
            _const_plan(
                lambda w: 128 * mp.log(2)
                - 6144 * _l_f4(w) / mp.pi ** 4
                - 224 * _zeta3(w) / mp.pi ** 2
            ),
        ),
        _check(
            "high-precision", "eq-2.4",
            "-8 int_0^1 ((1+k^2)/(1-k^2)) K(k) K'(k) log k dk = (192/pi) L(f,4)",
            _quad_plan(
                lambda k: (1 + k * k) / (1 - k * k) * special.ell_k(k) * special.ell_kprime(k) * mp.log(k),
                lambda: mp.mpf(-8),
            ),
            _const_plan(lambda w: 192 / mp.pi * _l_f4(w)),
        ),
        _check(
            "high-precision", "eq-2.5",
            "-8 int_0^1 (2k/(1-k^2)) K(k) K'(k) log k dk = 7 pi zeta(3)",
            _quad_plan(
                lambda k: 2 * k / (1 - k * k) * special.ell_k(k) * special.ell_kprime(k) * mp.log(k),
                lambda: mp.mpf(-8),
            ),
            _const_plan(lambda w: 7 * mp.pi * _zeta3(w)),
        ),
        _check(
            "high-precision", "e-wan",
            "int_0^1 (-log(1-k^2)/k) K(k) K'(k) dk = (7/8) pi zeta(3)",
            _quad_plan(
                lambda k: -mp.log((1 - k) * (1 + k)) / k * special.ell_k(k) * special.ell_kprime(k)
            ),
            _const_plan(lambda w: mp.mpf(7) / 8 * mp.pi * _zeta3(w)),
        ),
        _check(
            "high-precision", "eq-2.6",
            "(8/pi^3) int_0^1 K(k) K'(k) log((1+k)/(1-k)) dk/k "
            "= (192/pi^4) L(f,4) + 7 zeta(3)/pi^2",
            _quad_plan(
                lambda k: special.ell_k(k) * special.ell_kprime(k) * mp.log((1 + k) / (1 - k)) / k,
                lambda: 8 / mp.pi ** 3,
            ),
            _const_plan(_theorem_value),
        ),
        _check(
            "high-precision", "eq-2.7",
            "int_0^1 K(k) K'(k) log(1+k) dk/k = (12/pi) L(f,4)",
            _quad_plan(lambda k: special.ell_k(k) * special.ell_kprime(k) * mp.log(1 + k) / k),
            _const_plan(lambda w: 12 / mp.pi * _l_f4(w)),
        ),
        _check(
            "high-precision", "eq-2.8-analytic",
            "int_0^1 K(k) K'(k) log(1-k) dk/k "
            "= -(12/pi) L(f,4) - (7/8) pi zeta(3)",
            _quad_plan(lambda k: special.ell_k(k) * special.ell_kprime(k) * mp.log(1 - k) / k),
            _const_plan(
                lambda w: -12 / mp.pi * _l_f4(w) - mp.mpf(7) / 8 * mp.pi * _zeta3(w)
            ),
        ),
        _check(
            "high-precision", "eq-2.10",
            "(8/pi^3) int_0^1 K(k) K'(k) log((1+k)/(1-k)) dk/k "
            "= 2 sum_{n>=0} S_n/(2n+1)^2, "
            "S_n = sum_{k<=n} (4k+1) 2^(-8k) C(2k,k)^4; the double sum by "
            "summation by parts (see eq-2.11), Levin on int partial sums",
            _quad_plan(
                lambda k: special.ell_k(k) * special.ell_kprime(k) * mp.log((1 + k) / (1 - k)) / k,
                lambda: 8 / mp.pi ** 3,
            ),
            _series_plan(_swap_series, _RAMANUJAN),
        ),
        _check(
            "high-precision", "eq-2.11",
            "14 zeta(3)/pi^2 + sum_{n>=0} 2^(-8n) C(2n,n)^4/(2n+1) "
            "= 2 sum_{n>=0} S_n/(2n+1)^2 with inner partial sums S_n; left "
            "series 5F4(1/2,1/2,1/2,1/2,1/2; 1,1,1,3/2; 1) by pfq's Richardson "
            "extrapolation, right side via summation by parts, "
            "2 sum_j (S_j - S_{j-1}) (pi^2/8 - sum_{n<j} (2n+1)^-2), by Levin",
            _series_plan(
                _richardson_series, _FIVE_F_FOUR, lambda w, s: 14 * _zeta3(w) / mp.pi ** 2 + s
            ),
            _series_plan(_swap_series, _RAMANUJAN),
        ),
        _check(
            "high-precision", "wan-moments",
            "int_0^1 k^m K(k) K'(k) dk = (pi^2/8) "
            "[Gamma((m+1)/2)/Gamma((m+2)/2)]^2 "
            "4F3(1/2,1/2,(m+1)/2,(m+1)/2; 1,(m+2)/2,(m+2)/2; 1) "
            "for m = 0..6; largest quadrature-vs-series deviation vs 0",
            _suite_plan(lambda m, **kw: mahler.wan_moment_check(m, **kw), 7),
            floor="1e-8",
        ),
        _check(
            "high-precision", "eq-3.2",
            "-14 zeta(3)/pi^2 + 4 log 2 "
            "= 1 + sum_{n>=1} ((4n+1)/((2n)(2n+1))) C(2n,n)^4 2^(-8n) "
            "= 1 + (5/96) 8F7(3/2,3/2,3/2,3/2,3/2,9/4,1,1; 2,2,2,2,2,5/4,5/2; 1), "
            "by pfq's Richardson extrapolation",
            _const_plan(lambda w: -14 * _zeta3(w) / mp.pi ** 2 + 4 * mp.log(2)),
            _series_plan(_richardson_series, _EIGHT_F_SEVEN, lambda w, s: 1 + 5 * s / 96),
        ),
        _check(
            "high-precision", "eq-3.5-vs-3.6",
            "route agreement for R(alpha) "
            "= m(alpha(u+1/u)(z+1/z) + (x+1/x)(y+1/y)) at "
            "alpha in {0.3, 0.7, 1}: polylog route (4/pi^2) chi_3(alpha) vs "
            "k-integral route (4/pi^2) int_0^1 mu(alpha k) K'(k) dk, "
            "mu(c) = m(c + x + 1/x + y + 1/y)",
            _plan_r_alpha("polylog"),
            _plan_r_alpha("k-integral"),
            floor="1e-8",
        ),
        _check(
            "high-precision", "eq-3.7",
            "int int F(|cos pi s cos pi t|) ds dt "
            "= (4/pi^2) int_0^1 F(k) K'(k) dk for F = k^m, m = 0..4; "
            "largest deviation vs 0 (left side factors as a squared cosine "
            "moment)",
            _suite_plan(lambda m, **kw: mahler.density_integral_check(m, **kw), 5),
            floor="1e-8",
        ),
        _check(
            "high-precision", "fourier-3.8",
            "K(sin t) cos t = (pi/2) sum_{n>=0} a_n (sin 4nt + sin(4n+2)t), "
            "a_n = 2^(-4n) C(2n,n)^2, truncated at 400 terms and compared at "
            "t = pi/6; deviation vs 0 within the Abel/Dirichlet tail bound "
            "pi a_N / |sin 2t|",
            _plan_fourier("3.8", 1, 6),
            floor="1e-3",
        ),
        _check(
            "high-precision", "fourier-3.9",
            "K(cos t) cos t = (pi/2) sum_{n>=0} a_n (cos 4nt + cos(4n+2)t), "
            "a_n = 2^(-4n) C(2n,n)^2, truncated at 400 terms and compared at "
            "t = pi/4; deviation vs 0",
            _plan_fourier("3.9", 1, 4),
            floor="1e-3",
        ),
        _check(
            "high-precision", "fourier-3.10",
            "m(4 sin t) = log 2 - sum_{n>=1} a_n cos(4nt)/(4n) "
            "- sum_{n>=0} a_n cos((4n+2)t)/(4n+2) truncated at 400 terms and "
            "compared at t = pi/3 against the arithmetic-geometric-mean "
            "route; deviation vs 0 within the absolute tail bound "
            "1/(2 pi (N-1))",
            _plan_fourier("3.10", 1, 3),
            floor="1e-3",
        ),
        _check(
            "high-precision", "eq-4.3",
            "(192/pi^4) L(f,4) - 7 zeta(3)/pi^2 "
            "= sum_{n>=0} 2^(-8n) C(2n,n)^4/(2n+1), eq-2.11's 5F4, here by "
            "Levin on int partial sums (eq-2.11 takes Richardson)",
            _const_plan(lambda w: 192 / mp.pi ** 4 * _l_f4(w) - 7 * _zeta3(w) / mp.pi ** 2),
            _series_plan(_levin_series, _FIVE_F_FOUR),
        ),
        _check(
            "high-precision", "lambda-symmetry-f",
            "Lambda(s) = (sqrt(8)/(2 pi))^s Gamma(s) L(f,s) satisfies "
            "Lambda(s) = Lambda(4-s) on a probe grid, measured without "
            "assuming the functional equation; largest asymmetry vs 0",
            _const_plan(lambda w: modular.fricke_check(NEWFORM_F, precision=w), guard=0),
            cap=_CAP_LAMBDA,
            rule="fricke",
        ),
        _check(
            "high-precision", "lambda-symmetry-h",
            "Lambda(s) = (4/pi)^s Gamma(s) L(h,s) satisfies "
            "Lambda(s) = Lambda(3-s) on a probe grid for the weight-3 "
            "level-16 form h = eta(4t)^6; largest asymmetry vs 0",
            _const_plan(lambda w: modular.fricke_check(NEWFORM_H, precision=w), guard=0),
            cap=_CAP_LAMBDA,
            rule="fricke",
        ),
        # -- statistical ------------------------------------------------------
        _check(
            "statistical", "eq-1.1",
            "m(x + 1/x + y + 1/y - 4) = 4G/pi, G Catalan's constant; "
            "lattice QMC vs Bradley's 3F2 series for G",
            _plan_qmc("p4"),
            _const_plan(lambda w: 4 * special.catalan(w) / mp.pi, guard=16),
        ),
        _check(
            "statistical", "eq-1.2",
            "m((x+1/x)(y+1/y)(z+1/z) - 8) = 4 L'(h,0) for the weight-3 "
            "level-16 newform h = eta(4t)^6; lattice QMC vs completed-L "
            "derivative",
            _plan_qmc("q8"),
            _const_plan(lambda w: 4 * modular.l_prime_at_0(NEWFORM_H, w), guard=16),
        ),
        _check(
            "statistical", "thm-1.1-torus",
            "m((x+1/x)(y+1/y)(z+1/z)(w+1/w) - 16) "
            "= (192/pi^4) L(f,4) + 7 zeta(3)/pi^2; 4-D lattice QMC vs L-route",
            _plan_qmc("r16"),
            _const_plan(_theorem_value, guard=16),
        ),
        _check(
            "statistical", "eq-4.4",
            "m(x + 1/x + y + 1/y + z + 1/z + w + 1/w) = 7 zeta(3)/(2 pi^2); "
            "4-D lattice QMC vs Borwein zeta",
            _plan_qmc("s0"),
            _const_plan(lambda w: 7 * _zeta3(w) / (2 * mp.pi ** 2), guard=16),
        ),
        _check(
            "statistical", "m-r32",
            "m((x+1/x)(y+1/y)(z+1/z)(w+1/w) - 32) = Re(log 32 "
            "- (8/32^2) 6F5(3/2,3/2,3/2,3/2,1,1; 2,2,2,2,2; 256/32^2)); "
            "4-D lattice QMC vs hypergeometric series",
            _plan_qmc("r:32"),
            _const_plan(
                lambda w: mahler.m_rk_hypergeometric(
                    32, target_abs_error=mp.mpf(2) ** (16 - w), precision=w
                ),
                guard=16,
            ),
        ),
    ]
    registry: Dict[str, IdentityCheck] = {}
    for check in checks:
        if check.id in registry:
            raise ValueError(f"duplicate check id {check.id}")
        registry[check.id] = check
    return registry


_REGISTRY = _build_registry()


def check_ids() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def get_check(check_id: str) -> IdentityCheck:
    try:
        return _REGISTRY[check_id]
    except KeyError:
        suggestions = difflib.get_close_matches(
            check_id, list(_REGISTRY), n=3, cutoff=0.4
        )
        raise UnknownCheckError(check_id, suggestions) from None


_PLAN_FAILURES = (
    NoConvergence,
    ResourceLimitError,
    IntegrandError,
    ArithmeticError,
)


def validate_run_args(precision: int, samples: int, tags: Iterable[str] = ()) -> None:
    """Raise ValueError for a precision, sample count or kind tag that no
    run accepts; the CLI reports the same messages as usage errors."""
    if not 32 <= precision <= 4096:
        raise ValueError(f"precision must lie in [32, 4096], got {precision}")
    if samples < 1 << 10 or samples & (samples - 1):
        raise ValueError(f"samples must be a power of two >= 1024, got {samples}")
    unknown = set(tags) - set(KINDS)
    if unknown:
        raise ValueError(
            f"unknown filter tags {sorted(unknown)}; valid: {', '.join(KINDS)}"
        )


def run_check(
    check_id: str,
    precision: int = DEFAULT_PRECISION,
    *,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
) -> CheckResult:
    """Execute both plans of one check and score the deviation.

    Deterministic for fixed arguments: QMC seeds derive from (seed, id),
    series and quadrature targets from the effective precision only.  A
    plan failure (lost acceleration confidence, resource limit, integrand
    blow-up) is reported as a failed CheckResult with the failure note, not
    an exception; only an unknown id or invalid arguments raise.
    """
    check = get_check(check_id)
    validate_run_args(precision, samples)
    ctx = RunContext(
        check_id=check_id,
        effective=check.effective_precision(precision),
        seed=seed,
        samples=samples,
    )
    start = time.perf_counter()
    note = ""
    try:
        left = check.lhs_plan(ctx)
        right = check.rhs_plan(ctx)
        if len(left.values) != len(right.values):
            raise ArithmeticError(
                f"plan shape mismatch: {len(left.values)} vs {len(right.values)}"
            )
        lhs, rhs, deviation = _score(check, ctx, left, right)
        error_estimate = _combined_error(left, right)
        tolerance = check.tolerance_at(precision, error_estimate)
        with mp.workprec(max(ctx.effective, 64) + 16):
            passed = bool(deviation <= tolerance)
        evaluations = left.evaluations + right.evaluations
    except _PLAN_FAILURES as exc:
        lhs = rhs = deviation = None
        tolerance = check.tolerance_at(precision)
        passed = False
        note = f"{type(exc).__name__}: {exc}"
        evaluations = 0
    wall_ms = int(round((time.perf_counter() - start) * 1000))
    return CheckResult(
        id=check.id,
        kind=check.kind,
        lhs=lhs,
        rhs=rhs,
        deviation=deviation,
        tolerance=tolerance,
        passed=passed,
        wall_ms=wall_ms,
        evaluations=evaluations,
        seed_used=seed,
        note=note,
    )


def _combined_error(left: PlanResult, right: PlanResult):
    estimates = [
        e for e in (left.error_estimate, right.error_estimate) if e is not None
    ]
    if not estimates:
        return None
    with mp.workprec(64):
        return mp.sqrt(mp.fsum(e ** 2 for e in estimates))


def _score(check: IdentityCheck, ctx: RunContext, left: PlanResult, right: PlanResult):
    """Worst-part deviation; lhs/rhs from that part (ties: last part).

    Exact parts subtract as Fractions; any other part subtracts its two
    sides exactly and rounds the difference once, to effective + 16 bits.
    """
    pairs = list(zip(left.values, right.values))
    exact = all(
        isinstance(v, (Fraction, int)) for pair in pairs for v in pair
    )
    with mp.workprec(max(ctx.effective, 64) + 16):
        worst_idx = 0
        worst = Fraction(0) if exact else mp.mpf(0)
        for i, (a, b) in enumerate(pairs):
            d = abs(Fraction(a) - Fraction(b)) if exact else abs(mp.fsub(a, b))
            if d >= worst:
                worst, worst_idx = d, i
    lhs, rhs = pairs[worst_idx]
    return lhs, rhs, worst


def run_all(
    tags: Optional[Iterable[str]] = None,
    precision: int = DEFAULT_PRECISION,
    *,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
) -> List[CheckResult]:
    """Run every check whose kind is in tags (all kinds when tags is None),
    in registry order.  Invalid arguments raise before any check runs."""
    if tags is None:
        wanted = set(KINDS)
    else:
        wanted = {tags} if isinstance(tags, str) else set(tags)
    validate_run_args(precision, samples, wanted)
    return [
        run_check(check_id, precision, seed=seed, samples=samples)
        for check_id, check in _REGISTRY.items()
        if check.kind in wanted
    ]


def summarize(results: Sequence[CheckResult]) -> Dict[str, int]:
    counts = {"total": len(results), "passed": 0, "failed": 0}
    for kind in KINDS:
        counts[kind] = 0
    for result in results:
        counts["passed" if result.passed else "failed"] += 1
        counts[result.kind] += 1
    return counts
