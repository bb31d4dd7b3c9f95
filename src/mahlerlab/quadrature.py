"""Double-exponential quadrature on (0,1) and shifted rank-1 lattice QMC on
the torus.

tanh-sinh absorbs endpoint logarithmic singularities because the substituted
weight decays like exp(-c exp |t|) while log-type integrands grow only
linearly in t.  The torus rule exists for integrands of the form log|P| whose
singular set has measure zero; sampled exact zeros are discarded and counted
rather than clamped.  It hands the integrand the points' coordinates on the
unit circle, x = e^(2 pi i theta), never the angles theta: the lattice
factors each coordinate into a table entry shared by every block and one
unit scalar per block, so a coordinate costs one complex multiply and no
cosine.  Each shift is walked in blocks of 2^13 rows through one
preallocated buffer, so the coordinates and their values stay in cache; the
table and the buffer take 2 * d * 2^13 complex128 (1 MB at d = 4), only the
shift's values are kept whole, and its mean is taken over them as one array.
The per-block work is the multiply and the integrand: numpy's divide-by-zero
warning is silenced once per call, and the mean doubles as the finiteness
test, so the NaN, +inf and -inf passes run only on a shift whose mean is not
finite.

numpy is imported by torus_qmc and TorusIntegrand.block when they run, not
with the module, so the tanh-sinh routes never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from mpmath import mp

from .precision import NoConvergence

__all__ = [
    "QuadratureResult",
    "TorusIntegrand",
    "IntegrandError",
    "tanh_sinh",
    "tanh_sinh_interval",
    "torus_qmc",
    "QMC_LATTICE_Z",
    "DEFAULT_QMC_SEED",
]


class IntegrandError(ArithmeticError):
    """Integrand produced NaN or +inf, or -inf at every point of a torus
    shift.  abscissa records where."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


@dataclass(frozen=True)
class QuadratureResult:
    value: object
    error_estimate: object
    evaluations: int
    levels: int = 0
    discarded_fraction: float = 0.0


@dataclass(frozen=True)
class TorusIntegrand:
    """Integrand on the torus |x_1| = ... = |x_dimension| = 1.

    evaluate_block takes a (dimension, n) complex128 array whose column i
    holds point i's coordinates x_j = e^(2 pi i theta_j), and returns their
    n values; evaluating whole blocks is what makes 10^6-point runs
    affordable.  Row j, coordinate j of every point, is contiguous, and
    x.real holds the cosines cos(2 pi theta_j).  Each value must depend
    only on its own column (the point it is evaluated at), not on n or on
    the other columns: torus_qmc passes a shift's points in blocks of at
    most 2^13 columns (_QMC_BLOCK_ROWS), which gives the floats of one call
    on all of them only under that contract.  The block passed is a buffer
    that the next call overwrites, so an integrand may read it but must
    keep no reference to it.  torus_qmc calls it with numpy's divide-by-zero
    warning silenced, so log(0) = -inf (a discarded zero) needs no errstate.
    """

    dimension: int
    evaluate_block: Callable

    def __post_init__(self):
        if not 1 <= self.dimension <= 4:
            raise ValueError(f"dimension must be 1..4, got {self.dimension}")

    def block(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.asarray(self.evaluate_block(x), dtype=np.float64)


def _check_value(v, x):
    if isinstance(v, (complex, mp.mpc)):
        raise IntegrandError(f"integrand returned complex {v} at x = {mp.nstr(mp.mpf(x), 8)}", abscissa=x)
    if mp.isnan(v) or (mp.isinf(v) and v > 0):
        raise IntegrandError(f"integrand returned {v} at x = {mp.nstr(mp.mpf(x), 8)}", abscissa=x)
    return v


# Node cache.  Nodes depend only on the working precision and the abscissa
# t = k 2^-level, so each precision keeps its levels as lists of raw mpf
# tuples (w, x_hi, x_lo), None marking a node whose weight is zero or whose
# abscissa rounds onto an endpoint.  A level is computed whole before any
# integrand runs on it, so an integrand that raises leaves no partial level.
# At most _NODE_CACHE_PAIRS node pairs are kept over all precisions; the
# least recently used precision goes first, and a level that alone would
# pass the bound is used without being kept (as are the deeper levels,
# each larger than the one before).

_NODE_CACHE_PAIRS = 1 << 12
_node_cache: dict = {}


def _node_levels(work: int) -> list:
    """The cached levels of one working precision, marked most recently
    used."""
    levels = _node_cache.pop(work, [])
    _node_cache[work] = levels
    return levels


def _level_nodes(levels: list, level: int, t_max) -> list:
    """Node triples of one level at the ambient precision (t = k for level
    0, t = k 2^-level over odd k otherwise), cached if they fit."""
    if level < len(levels):
        return levels[level]
    pi = mp.pi
    nodes = []
    k, step = 1, (1 if level == 0 else 2)
    while True:
        t = mp.ldexp(k, -level)
        if t > t_max:
            break
        e = mp.exp(-pi * mp.sinh(t))
        d = 1 + e
        w = pi * mp.cosh(t) * e / (d * d)
        x_hi = 1 / d
        x_lo = e / d
        if w == 0 or x_hi >= 1 or x_lo <= 0:
            nodes.append(None)
        else:
            nodes.append((w._mpf_, x_hi._mpf_, x_lo._mpf_))
        k += step
    kept = sum(len(lv) for entry in _node_cache.values() for lv in entry)
    while kept + len(nodes) > _NODE_CACHE_PAIRS and len(_node_cache) > 1:
        kept -= sum(len(lv) for lv in _node_cache.pop(next(iter(_node_cache))))
    if kept + len(nodes) <= _NODE_CACHE_PAIRS:
        levels.append(nodes)
    return nodes


def tanh_sinh(f, tolerance, max_levels: int = 12, precision: Optional[int] = None):
    """Integrate f over (0,1), refining until two successive levels differ by
    less than tolerance (absolute).

    The substitution is x(t) = 1/(1 + exp(-pi sinh t)); the symmetric node
    x(-t) = 1 - x(t) is formed from the same exponential, so abscissae near 0
    carry full relative precision.  Nodes and weights come from the node
    cache above, computed by the same mpf formulas at the same precision.
    """
    tol = mp.mpf(tolerance)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    work = max(int(-mp.log(tol, 2)) + 48, (precision or 0) + 16, 80)
    with mp.workprec(work):
        # stop where 1 - x(t) reaches ~2^(4-work): closer nodes would round
        # onto the endpoint itself, and their weight is already negligible
        t_max = mp.asinh((work - 4) * mp.log(2) / mp.pi)
        levels = _node_levels(work)
        make = mp.make_mpf
        evals = 0

        def level_sum(level, acc):
            nonlocal evals
            for node in _level_nodes(levels, level, t_max):
                # a zero-weight node adds an exact zero: skipping it
                # leaves acc unchanged
                if node is not None:
                    w, x_hi, x_lo = make(node[0]), make(node[1]), make(node[2])
                    evals += 2
                    acc += w * (_check_value(f(x_hi), x_hi) + _check_value(f(x_lo), x_lo))
            return acc

        # level 0: unit step
        evals += 1
        half = mp.mpf("0.5")
        total = level_sum(0, (mp.pi / 4) * _check_value(f(half), half))
        estimates = [total]  # still scaled by h = 1

        d1 = mp.inf
        d2 = mp.inf
        for level in range(1, max_levels + 1):
            h = mp.mpf(2) ** (-level)
            add = level_sum(level, mp.mpf(0))
            # previous estimate already carries its own step factor
            total = estimates[-1] / 2 + h * add
            estimates.append(total)
            if level >= 2:
                d2 = d1
                d1 = abs(estimates[-1] - estimates[-2])
                if d1 <= tol:
                    err = d1 if d2 == mp.inf or d2 == 0 else min(d1, d1 * d1 / d2)
                    err = max(err, abs(estimates[-1]) * mp.mpf(2) ** (8 - work))
                    err = min(err, d1)
                    with mp.workprec(max(precision or 0, work - 48) + 8):
                        return QuadratureResult(
                            value=+estimates[-1],
                            error_estimate=+err,
                            evaluations=evals,
                            levels=level,
                        )
        raise NoConvergence(
            f"tanh_sinh: level differences still {mp.nstr(d1, 5)} after {max_levels} levels",
            best=+estimates[-1],
            terms=evals,
        )


def tanh_sinh_interval(f, a, b, tolerance, max_levels: int = 12, precision: Optional[int] = None):
    """Integrate f over (a,b) by affine reduction to (0,1)."""
    work = max(int(-mp.log(mp.mpf(tolerance), 2)) + 48, (precision or 0) + 16, 80)
    with mp.workprec(work):
        aa = mp.mpf(a)
        width = mp.mpf(b) - aa
        if width <= 0:
            raise ValueError("need a < b")
    return tanh_sinh(
        lambda u: f(aa + width * u) * width,
        tolerance,
        max_levels=max_levels,
        precision=precision,
    )


# first four components of a published CBC generating vector for n = 2^20
# (Kuo's order-2 weighted lattice tables); components are odd, hence valid
# for every power-of-two point count.  182667 and 498753 are multiples of 3,
# so torus_qmc refuses point counts divisible by 3.
QMC_LATTICE_Z = (1, 182667, 469891, 498753)

DEFAULT_QMC_SEED = 0x5EED


# rows per block of the lattice rule: a block of coordinates and its values
# stay in cache, where whole-shift arrays of 2^20 rows would not
_QMC_BLOCK_ROWS = 1 << 13


def _circle(turns):
    """e^(2 pi i t) for an array of t in [0, 2), as complex128.

    t - rint(t) is exact (Sterbenz) and lies in [-1/2, 1/2], so the angle
    handed to cos and sin is at most pi in magnitude.
    """
    import numpy as np

    angle = np.subtract(turns, np.rint(turns))
    np.multiply(angle, 2.0 * np.pi, out=angle)
    x = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=x.real)
    np.sin(angle, out=x.imag)
    return x


def torus_qmc(
    f: TorusIntegrand,
    samples: int,
    shifts: int,
    seed: Union[int, Sequence[int]] = DEFAULT_QMC_SEED,
):
    """Shifted rank-1 lattice rule over the d-torus.

    Each shift gets the same lattice offset by an independent uniform vector;
    value is the median of the per-shift means and error-estimate their
    standard deviation scaled by 1/sqrt(shifts).  Points where the integrand
    is -inf (exact zeros of |P|) are discarded and the fraction reported; a
    shift with no other point raises IntegrandError, as NaN and +inf do.
    samples must be coprime to every lattice component used, or the rule
    would repeat points; ValueError names the component that shares a factor.

    Point i of shift Delta has theta_j = frac(Delta_j + (i z_j mod N) / N).
    With i = i0 + r, i0 the first row of its block of _QMC_BLOCK_ROWS rows,
    its coordinate factors exactly as

        e^(2 pi i theta_j) = T_j[r] * U_j,
        T_j[r] = e^(2 pi i (r z_j mod N) / N),
        U_j    = e^(2 pi i frac(Delta_j + (i0 z_j mod N) / N)),

    with the table T built once per call and the d scalars U once per block
    and shift, each coordinate within about 1e-15 of its exact value.  A
    shift is evaluated in blocks into one array of all its values, and the
    mean is taken over that array; since each value depends only on its own
    point, the floats are those of one evaluation on the whole shift.
    """
    if samples < 2 ** 10:
        raise ValueError(f"samples must be >= 2^10, got {samples}")
    if shifts < 8:
        raise ValueError(f"shifts must be >= 8, got {shifts}")
    d = f.dimension
    for j, zj in enumerate(QMC_LATTICE_Z[:d]):
        g = math.gcd(zj, samples)
        if g > 1:
            raise ValueError(
                f"samples = {samples} shares the factor {g} with lattice component "
                f"QMC_LATTICE_Z[{j}] = {zj}, so that coordinate takes only {samples // g} values"
            )
    import numpy as np

    rng = np.random.default_rng(seed if not isinstance(seed, int) else [seed])
    z = np.array(QMC_LATTICE_Z[:d], dtype=np.int64)
    rows = min(samples, _QMC_BLOCK_ROWS)
    starts = range(0, samples, rows)
    # (d, rows) table T and the (blocks, d) lattice offsets of the first rows
    k = np.multiply.outer(z, np.arange(rows, dtype=np.int64))
    table = _circle(np.remainder(k, samples, out=k) / samples)
    offsets = np.multiply.outer(np.arange(0, samples, rows, dtype=np.int64), z)
    offsets = np.remainder(offsets, samples, out=offsets) / samples
    x = np.empty((d, rows), dtype=np.complex128)
    vals = np.empty(samples)

    means = []
    discarded = 0
    # log|P| is -inf at an exact zero, which is discarded below, so numpy's
    # divide-by-zero warning is silenced once here rather than per block
    with np.errstate(divide="ignore"):
        for _ in range(shifts):
            shift = rng.random(d)
            # (blocks, d, 1): each block's unit scalars as a (d, 1) column, so
            # (d, rows) by (d, 1) is one flat loop per coordinate row
            units = _circle(offsets + shift)[:, :, None]
            for start, unit in zip(starts, units):
                n = min(rows, samples - start)
                np.multiply(table[:, :n], unit, out=x[:, :n])
                vals[start : start + n] = f.block(x[:, :n])
            # a finite mean means every value is finite, so only a shift with
            # a zero, NaN or +inf (or a sum that overflows, whose mean the
            # passes keep) pays for the passes below; +inf beside -inf makes
            # the mean NaN, which needs no warning of its own
            with np.errstate(invalid="ignore"):
                mean = float(np.mean(vals))
            if math.isfinite(mean):
                means.append(mean)
                continue
            bad = np.isnan(vals) | np.isposinf(vals)
            if bad.any():
                idx = int(np.argmax(bad))
                where = np.mod(idx * z % samples / samples + shift, 1.0)
                raise IntegrandError(
                    f"integrand returned {vals[idx]} at theta = {where}",
                    abscissa=tuple(where),
                )
            keep = ~np.isneginf(vals)
            kept = int(keep.sum())
            if not kept:
                raise IntegrandError(
                    f"integrand returned -inf at all {samples} points of the shift "
                    f"whose first point is theta = {shift}",
                    abscissa=tuple(shift),
                )
            discarded += samples - kept
            means.append(float(np.mean(vals[keep])))

    arr = np.array(means)
    value = float(np.median(arr))
    spread = float(np.std(arr, ddof=1)) / math.sqrt(shifts)
    with mp.workprec(64):
        return QuadratureResult(
            value=mp.mpf(value),
            error_estimate=mp.mpf(spread),
            evaluations=samples * shifts,
            discarded_fraction=discarded / (samples * shifts),
        )
