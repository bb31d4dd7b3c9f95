import math
import warnings

import numpy as np
import pytest
from mpmath import mp

from mahlerlab import mahler, quadrature
from mahlerlab.precision import NoConvergence
from mahlerlab.quadrature import (
    IntegrandError,
    QuadratureResult,
    TorusIntegrand,
    _check_value,
    tanh_sinh,
    tanh_sinh_interval,
    torus_qmc,
)
from mahlerlab.special import catalan, ell_k, ell_kprime, zeta_int


def _tanh_sinh_mpf(f, tolerance, max_levels=12, precision=None):
    # the rule as it computed every node pair afresh, kept as the oracle of
    # the node cache
    tol = mp.mpf(tolerance)
    work = max(int(-mp.log(tol, 2)) + 48, (precision or 0) + 16, 80)
    with mp.workprec(work):
        t_max = mp.asinh((work - 4) * mp.log(2) / mp.pi)
        pi = mp.pi
        evals = 0

        def node_pair(t):
            nonlocal evals
            e = mp.exp(-pi * mp.sinh(t))
            d = 1 + e
            w = pi * mp.cosh(t) * e / (d * d)
            x_hi = 1 / d
            x_lo = e / d
            if w == 0 or x_hi >= 1 or x_lo <= 0:
                return mp.mpf(0)
            evals += 2
            return w * (_check_value(f(x_hi), x_hi) + _check_value(f(x_lo), x_lo))

        evals += 1
        total = (pi / 4) * _check_value(f(mp.mpf("0.5")), mp.mpf("0.5"))
        k = 1
        while k <= t_max:
            total += node_pair(mp.mpf(k))
            k += 1
        estimates = [total]
        d1 = mp.inf
        d2 = mp.inf
        for level in range(1, max_levels + 1):
            h = mp.mpf(2) ** (-level)
            add = mp.mpf(0)
            k = 1
            while k * h <= t_max:
                add += node_pair(k * h)
                k += 2
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
        raise NoConvergence("oracle did not converge", best=+estimates[-1], terms=evals)


class TestTanhSinh:
    def test_log_endpoint_singularity(self):
        r = tanh_sinh(lambda x: mp.log(x), mp.mpf(10) ** -30)
        with mp.workprec(160):
            assert abs(r.value + 1) < mp.mpf(10) ** -28

    def test_monomials(self):
        for m in range(9):
            r = tanh_sinh(lambda x, m=m: x ** m, mp.mpf(10) ** -30)
            with mp.workprec(160):
                assert abs(r.value - mp.mpf(1) / (m + 1)) < mp.mpf(10) ** -28

    def test_log_product_closed_form(self):
        # int_0^1 log(x) log(1-x) dx = 2 - pi^2/6, singular at both ends
        r = tanh_sinh(lambda x: mp.log(x) * mp.log(1 - x), mp.mpf(10) ** -30)
        with mp.workprec(160):
            assert abs(r.value - (2 - mp.pi ** 2 / 6)) < mp.mpf(10) ** -28

    def test_elliptic_first_moment(self):
        # int_0^1 K(k) dk = 2G
        r = tanh_sinh(lambda k: ell_k(k), mp.mpf(10) ** -25)
        with mp.workprec(160):
            assert abs(r.value - 2 * catalan(150)) < mp.mpf(10) ** -23

    def test_k_ksquared_moment(self):
        # int_0^1 k K(k)^2 dk = 7 zeta(3) / 4
        r = tanh_sinh(lambda k: k * ell_k(k) ** 2, mp.mpf(10) ** -25)
        with mp.workprec(160):
            assert abs(r.value - 7 * zeta_int(3, 150) / 4) < mp.mpf(10) ** -23

    def test_wan_log_integral(self):
        # int_0^1 (-log(1-k^2)/k) K K' dk = (7/8) pi zeta(3)
        r = tanh_sinh(
            lambda k: -mp.log((1 - k) * (1 + k)) / k * ell_k(k) * ell_kprime(k),
            mp.mpf(10) ** -25,
        )
        with mp.workprec(160):
            ref = mp.mpf(7) / 8 * mp.pi * zeta_int(3, 150)
            assert abs(r.value - ref) < mp.mpf(10) ** -23

    def test_reflection_invariance(self):
        a = tanh_sinh(lambda x: mp.log(x) * x, mp.mpf(10) ** -25)
        b = tanh_sinh(lambda x: mp.log(1 - x) * (1 - x), mp.mpf(10) ** -25)
        with mp.workprec(120):
            assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + mp.mpf(10) ** -24

    def test_converged_respects_tolerance(self):
        tol = mp.mpf(10) ** -20
        r = tanh_sinh(lambda x: mp.sqrt(x), tol)
        assert r.error_estimate <= tol
        assert r.evaluations > 0

    def test_nan_raises_with_abscissa(self):
        def f(x):
            return mp.log(x - mp.mpf("0.5"))  # nan on (0, 1/2)

        with pytest.raises(IntegrandError) as exc:
            tanh_sinh(f, mp.mpf(10) ** -20)
        assert exc.value.abscissa is not None

    def test_nonconvergence_carries_best_value(self):
        with pytest.raises(NoConvergence) as exc:
            tanh_sinh(lambda x: mp.sin(50 * x), mp.mpf(10) ** -30, max_levels=3)
        best = exc.value.best
        with mp.workprec(120):
            ref = (1 - mp.cos(mp.mpf(50))) / 50
            assert abs(best - ref) < mp.mpf("0.01")

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            tanh_sinh(lambda x: x, 0)

    def test_interval_wrapper(self):
        r = tanh_sinh_interval(lambda x: 1 / x, 1, 2, mp.mpf(10) ** -30)
        with mp.workprec(160):
            assert abs(r.value - mp.log(2)) < mp.mpf(10) ** -28

    def test_interval_needs_ordering(self):
        with pytest.raises(ValueError):
            tanh_sinh_interval(lambda x: x, 2, 1, mp.mpf(10) ** -10)


class TestNodeCache:
    # integrands of the elliptic checks at two working precisions
    CASES = [
        (lambda k: ell_k(k) * ell_kprime(k) * mp.log(1 + k) / k, mp.mpf(10) ** -20, 128),
        (lambda x: mp.log(x) * mp.log(1 - x), mp.mpf(10) ** -30, None),
        (lambda k: k ** 3 * ell_k(k) * ell_kprime(k), mp.mpf(10) ** -20, 128),
        (lambda x: mp.sqrt(x), mp.mpf(10) ** -30, None),
    ]

    def test_cold_and_warm_match_the_oracle(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_node_cache", {})
        works = set()
        for rounds in range(2):  # cold, then warm
            for f, tol, precision in self.CASES:
                got = tanh_sinh(f, tol, precision=precision)
                assert got == _tanh_sinh_mpf(f, tol, precision=precision), (rounds, tol)
                works |= set(quadrature._node_cache)
        assert len(works) == 2  # the cases interleave two working precisions

    def test_interval_matches_the_oracle(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_node_cache", {})
        for _ in range(2):
            # the affine map u -> 1 + 2u, then the width 2, as the wrapper
            # forms them
            got = tanh_sinh_interval(lambda x: 1 / x, 1, 3, mp.mpf(10) ** -30)
            ref = _tanh_sinh_mpf(lambda u: 1 / (1 + 2 * u) * 2, mp.mpf(10) ** -30)
            assert got == ref

    def test_integrand_error_mid_level_leaves_the_cache_whole(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_node_cache", {})
        calls = []

        def failing(x):
            # raise half way through level 3, after levels 0-2 were summed
            calls.append(x)
            if len(calls) == 60:
                return mp.nan
            return mp.log(x)

        with pytest.raises(IntegrandError):
            tanh_sinh(failing, mp.mpf(10) ** -30)
        # levels 0-3 are cached whole: 9 + 8 + 16 calls, then 34 at level 3
        levels = next(iter(quadrature._node_cache.values()))
        assert [len(lv) for lv in levels] == [4, 4, 8, 17]
        f = lambda x: mp.log(x) * x  # noqa: E731
        assert tanh_sinh(f, mp.mpf(10) ** -30) == _tanh_sinh_mpf(f, mp.mpf(10) ** -30)
        with pytest.raises(IntegrandError):
            calls.clear()
            tanh_sinh(failing, mp.mpf(10) ** -30)
        assert tanh_sinh(f, mp.mpf(10) ** -30) == _tanh_sinh_mpf(f, mp.mpf(10) ** -30)

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_node_cache", {})
        monkeypatch.setattr(quadrature, "_NODE_CACHE_PAIRS", 300)
        f = lambda x: mp.sqrt(x)  # noqa: E731
        for digits in (20, 30, 40, 50, 30):
            tol = mp.mpf(10) ** -digits
            assert tanh_sinh(f, tol) == _tanh_sinh_mpf(f, tol)
            kept = sum(len(lv) for entry in quadrature._node_cache.values() for lv in entry)
            assert kept <= 300
        # the precision used last is kept; the least recently used went first
        assert list(quadrature._node_cache)[-1] == max(int(30 * math.log2(10)) + 48, 80)


def _theta(x):
    """The angles of torus coordinates x = e^(2 pi i theta), in turns in [0, 1)."""
    return np.mod(np.angle(x) / (2 * np.pi), 1.0)


def _p4_integrand():
    def block(x):
        v = np.abs(2 * x.real[0] + 2 * x.real[1] - 4)
        with np.errstate(divide="ignore"):
            return np.log(v)

    return TorusIntegrand(
        dimension=2,
        evaluate_block=block,
    )


def _smooth_probe(x):
    # cos(2 pi t_1) cos(2 pi t_2) + 1, mean 1
    return x.real[0] * x.real[1] + 1.0


class TestTorusQmc:
    def test_constant_is_exact(self):
        ti = TorusIntegrand(
            dimension=3,
            evaluate_block=lambda x: np.ones(x.shape[1]),
        )
        r = torus_qmc(ti, 2 ** 10, 8)
        assert float(r.value) == 1.0
        assert r.discarded_fraction == 0.0
        assert r.evaluations == 2 ** 10 * 8

    def test_two_torus_log_value(self):
        # log|2cos + 2cos - 4| integrates to 4G/pi
        r = torus_qmc(_p4_integrand(), 2 ** 16, 8)
        with mp.workprec(80):
            ref = 4 * catalan(64) / mp.pi
            dev = abs(r.value - ref)
            assert dev < max(mp.mpf("5e-3"), 6 * r.error_estimate)

    def test_deterministic_under_seed(self):
        a = torus_qmc(_p4_integrand(), 2 ** 12, 8, seed=7)
        b = torus_qmc(_p4_integrand(), 2 ** 12, 8, seed=7)
        assert a.value == b.value and a.error_estimate == b.error_estimate

    def test_seed_changes_shifts_not_answer(self):
        a = torus_qmc(_p4_integrand(), 2 ** 14, 8, seed=1)
        b = torus_qmc(_p4_integrand(), 2 ** 14, 8, seed=2)
        assert a.value != b.value
        assert abs(a.value - b.value) < 6 * (a.error_estimate + b.error_estimate) + mp.mpf("1e-4")

    def test_scalar_fallback_matches_block(self):
        # a scalar integrand applied point by point, against the vectorised block
        def scalar(a, b):
            return a.real * b.real + 1.0

        ti_scalar = TorusIntegrand(
            dimension=2,
            evaluate_block=lambda x: [scalar(*point) for point in x.T],
        )
        ti_block = TorusIntegrand(dimension=2, evaluate_block=_smooth_probe)
        a = torus_qmc(ti_scalar, 2 ** 10, 8, seed=3)
        b = torus_qmc(ti_block, 2 ** 10, 8, seed=3)
        assert abs(float(a.value) - float(b.value)) < 1e-14

    def test_discard_and_report(self):
        # -inf on a fat slab: fraction must come back and the mean must use
        # only the kept points
        def block(x):
            out = np.ones(x.shape[1])
            out[_theta(x[0]) < 0.125] = -np.inf
            return out

        ti = TorusIntegrand(dimension=1, evaluate_block=block)
        r = torus_qmc(ti, 2 ** 12, 8)
        assert abs(r.discarded_fraction - 0.125) < 0.01
        assert float(r.value) == 1.0

    def test_nan_rejected_with_abscissa(self):
        def block(x):
            out = np.ones(x.shape[1])
            out[0] = np.nan
            return out

        ti = TorusIntegrand(dimension=2, evaluate_block=block)
        with pytest.raises(IntegrandError) as exc:
            torus_qmc(ti, 2 ** 10, 8)
        assert exc.value.abscissa is not None

    def test_shift_of_zeros_only_rejected(self):
        # every point of every shift is a zero: no mean to take, so no NaN
        # value, and no numpy warning on the way to the error
        ti = TorusIntegrand(1, lambda x: np.full(x.shape[1], -np.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrandError, match="-inf at all 1024 points") as exc:
                torus_qmc(ti, 2 ** 10, 8)
        assert exc.value.abscissa == tuple(_shifts(1, 8)[0])

    @pytest.mark.parametrize("samples", [2 ** 10, 20000])
    def test_plus_inf_beside_zeros_rejected_at_the_plus_inf(self, samples):
        # -inf and +inf in one shift make its mean NaN; the error names the
        # +inf point, as it does with no -inf beside it, and nothing warns
        def block(x):
            out = np.where(_theta(x[0]) < 0.25, -np.inf, 1.0)
            out[_theta(x[0]) > 0.95] = np.inf
            return out

        ti = TorusIntegrand(2, block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrandError, match="returned inf") as got:
                torus_qmc(ti, samples, 8)
        with pytest.raises(IntegrandError) as ref:
            _torus_qmc_whole(ti, samples, 8)
        assert str(got.value) == str(ref.value)
        assert got.value.abscissa == ref.value.abscissa

    def test_log_of_zero_needs_no_errstate(self):
        # torus_qmc silences numpy's divide-by-zero warning for its
        # integrand, so log 0 = -inf is discarded without one
        def block(x):
            return np.log(np.where(_theta(x[0]) < 0.125, 0.0, 1.5))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = torus_qmc(TorusIntegrand(1, block), 2 ** 12, 8)
        assert abs(r.discarded_fraction - 0.125) < 0.01
        assert abs(float(r.value) - math.log(1.5)) < 1e-15

    def test_reflection_invariance(self):
        # theta -> 1 - theta is x -> conj(x)
        base = _p4_integrand()
        refl = TorusIntegrand(
            dimension=2,
            evaluate_block=lambda x: base.evaluate_block(np.conj(x)),
        )
        a = torus_qmc(base, 2 ** 14, 8, seed=11)
        b = torus_qmc(refl, 2 ** 14, 8, seed=12)
        assert abs(a.value - b.value) < 6 * (a.error_estimate + b.error_estimate) + mp.mpf("1e-4")

    def test_error_decreases_at_lattice_rate(self):
        # spec asks for observed order better than N^-0.8 on the smooth probe
        probe = TorusIntegrand(dimension=2, evaluate_block=_smooth_probe)
        errs = []
        ns = [2 ** 10, 2 ** 16]
        for n in ns:
            r = torus_qmc(probe, n, 8, seed=5)
            errs.append(max(float(abs(r.value - 1)), float(r.error_estimate), 1e-18))
        if max(errs) > 1e-12:  # otherwise roundoff-floor, trivially fast enough
            slope = np.log(errs[1] / errs[0]) / np.log(ns[1] / ns[0])
            assert slope < -0.8

    def test_parameter_validation(self):
        ti = TorusIntegrand(dimension=1, evaluate_block=lambda x: np.ones(x.shape[1]))
        with pytest.raises(ValueError):
            torus_qmc(ti, 2 ** 9, 8)
        with pytest.raises(ValueError):
            torus_qmc(ti, 2 ** 10, 4)
        with pytest.raises(ValueError):
            TorusIntegrand(dimension=0, evaluate_block=np.ones)
        with pytest.raises(ValueError):
            TorusIntegrand(dimension=5, evaluate_block=np.ones)

    @pytest.mark.parametrize("samples", [3072, 3 * 2 ** 12])
    def test_degenerate_lattice_refused(self, samples):
        # QMC_LATTICE_Z[1] = 182667 and [3] = 498753 are multiples of 3: at
        # these counts their coordinates would take only samples/3 values
        ti = TorusIntegrand(dimension=4, evaluate_block=lambda x: np.ones(x.shape[1]))
        component = r"factor 3 with lattice component QMC_LATTICE_Z\[1\] = 182667"
        with pytest.raises(ValueError, match=component):
            torus_qmc(ti, samples, 8)
        with pytest.raises(ValueError, match=r"QMC_LATTICE_Z\[1\]"):
            mahler.mahler_numeric(mahler.builtin_descriptor("r16"), samples=samples)
        with pytest.raises(ValueError, match=r"QMC_LATTICE_Z\[1\]"):
            mahler.r_alpha(0.3, route="torus", samples=samples)
        # one dimension uses only the component 1, coprime to every count
        one = TorusIntegrand(dimension=1, evaluate_block=lambda x: np.ones(x.shape[1]))
        assert float(torus_qmc(one, samples, 8).value) == 1.0


# below the 2^13-row block: 2^10 and 5000; two whole blocks and a partial
# one: 20000; eight whole blocks: 2^16
_ORACLE_SAMPLES = (2 ** 10, 5000, 20000, 2 ** 16)


def _shifts(d, shifts, seed=quadrature.DEFAULT_QMC_SEED):
    # the shift vectors torus_qmc draws, in its order
    rng = np.random.default_rng(seed if not isinstance(seed, int) else [seed])
    return [rng.random(d) for _ in range(shifts)]


class TestLatticeCoordinates:
    @pytest.mark.parametrize("samples", _ORACLE_SAMPLES)
    def test_coordinates_match_mpmath(self, samples):
        # the coordinates torus_qmc hands its integrand, against e^(2 pi i
        # theta) at 100 bits for the exact theta = frac(shift + (i z mod N)/N)
        # of the float shift, on sampled rows of every dimension, the last
        # (partial) block's among them
        seen = []

        def record(x):
            seen.append(x.copy())
            return np.zeros(x.shape[1])

        torus_qmc(TorusIntegrand(dimension=4, evaluate_block=record), samples, 8, seed=17)
        per_shift = len(seen) // 8
        rows = min(samples, quadrature._QMC_BLOCK_ROWS)
        last = samples - (samples - 1) % rows - 1  # first row of the last block
        rng = np.random.default_rng(samples)
        picked = {0, 1, rows - 1, last, samples - 1}
        picked |= set(rng.integers(0, samples, 48).tolist())
        picked |= set(rng.integers(last, samples, 16).tolist())
        worst = 0.0
        for s in (0, 7):
            shift = _shifts(4, 8, seed=17)[s]
            x = np.concatenate(seen[s * per_shift : (s + 1) * per_shift], axis=1)
            assert x.shape == (4, samples)
            with mp.workprec(100):
                for i in sorted(picked):
                    for j, zj in enumerate(quadrature.QMC_LATTICE_Z):
                        theta = mp.mpf(float(shift[j])) + mp.mpf(i * zj % samples) / samples
                        worst = max(
                            worst,
                            float(abs(mp.cospi(2 * theta) - mp.mpf(float(x[j, i].real)))),
                            float(abs(mp.sinpi(2 * theta) - mp.mpf(float(x[j, i].imag)))),
                        )
        assert worst <= 2e-15


# The lattice rule on theta points, as it evaluated each shift whole with
# np.cos, and its integrand blocks: the reference implementation the
# coordinate rule of torus_qmc is held to, within the rounding of the
# coordinates.


def _torus_qmc_theta(f, samples, shifts, seed=quadrature.DEFAULT_QMC_SEED):
    d = f.dimension
    rng = np.random.default_rng(seed if not isinstance(seed, int) else [seed])
    z = np.array(quadrature.QMC_LATTICE_Z[:d], dtype=np.int64)
    base = np.multiply.outer(np.arange(samples, dtype=np.int64), z)
    np.remainder(base, samples, out=base)
    lattice = base / samples
    pts = np.empty_like(lattice)
    means = []
    discarded = 0
    for _ in range(shifts):
        shift = rng.random(d)
        np.add(lattice, shift, out=pts)
        np.mod(pts, 1.0, out=pts)
        vals = f.block(pts)
        bad = np.isnan(vals) | (np.isposinf(vals))
        if bad.any():
            where = pts[int(np.argmax(bad))]
            raise IntegrandError(
                f"integrand returned {vals[np.argmax(bad)]} at theta = {where}",
                abscissa=tuple(where),
            )
        keep = ~np.isneginf(vals)
        discarded += int(len(vals) - keep.sum())
        means.append(float(np.mean(vals[keep])))
    arr = np.array(means)
    with mp.workprec(64):
        return QuadratureResult(
            value=mp.mpf(float(np.median(arr))),
            error_estimate=mp.mpf(float(np.std(arr, ddof=1)) / math.sqrt(shifts)),
            evaluations=samples * shifts,
            discarded_fraction=discarded / (samples * shifts),
        )


def _cosine_block_theta(kind, k):
    def block(pts):
        c = np.multiply(pts, 2.0 * np.pi)
        np.cos(c, out=c)
        if kind == "sum":
            inner = 2.0 * c.sum(axis=1) - k
        elif kind == "product":
            inner = float(2 ** pts.shape[1]) * c.prod(axis=1) - k
        else:
            inner = 4.0 * (k * c[:, 0] * c[:, 1] + c[:, 2] * c[:, 3])
        with np.errstate(divide="ignore"):
            return np.log(np.abs(inner))

    return block


def _bad_on_slab(bad, theta0, block):
    # block, but bad on a slab of the first angle (lattice component 1),
    # which the first shift reaches after about 81 % of its rows: in the
    # last block at 20000 and 2^16 samples
    return lambda p: np.where(np.abs(theta0(p) - 0.952) < 0.002, bad, block(p))


class TestThetaReference:
    @pytest.mark.parametrize("name", ["p4", "q8", "r16", "s0", "r:32", "ralpha"])
    def test_builtins_match_the_theta_route(self, name):
        desc = mahler.builtin_descriptor(name)
        kind, k = mahler._classify_builtin(desc)
        theta_block = _cosine_block_theta(kind, k)
        x_block = mahler.torus_integrand(desc).evaluate_block
        ref = _torus_qmc_theta(TorusIntegrand(desc.dimension, theta_block), 2 ** 16, 16)
        got = torus_qmc(TorusIntegrand(desc.dimension, x_block), 2 ** 16, 16)
        assert abs(got.value - ref.value) <= 1e-12
        assert abs(got.error_estimate - ref.error_estimate) <= 1e-12
        assert got.discarded_fraction == ref.discarded_fraction
        # an integrand that turns NaN on a slab names the row of the theta
        # route, in the same words
        bad_theta = _bad_on_slab(np.nan, lambda p: p[:, 0], theta_block)
        bad_x = _bad_on_slab(np.nan, lambda x: _theta(x[0]), x_block)
        with pytest.raises(IntegrandError) as want:
            _torus_qmc_theta(TorusIntegrand(desc.dimension, bad_theta), 2 ** 16, 16)
        with pytest.raises(IntegrandError) as have:
            torus_qmc(TorusIntegrand(desc.dimension, bad_x), 2 ** 16, 16)
        assert str(have.value) == str(want.value)
        assert have.value.abscissa == want.value.abscissa

    @pytest.mark.parametrize("samples", _ORACLE_SAMPLES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_integrand_error_matches_the_theta_route(self, samples, bad):
        theta_block = lambda p: np.cos(2 * np.pi * p[:, 1])  # noqa: E731
        want_ti = TorusIntegrand(3, _bad_on_slab(bad, lambda p: p[:, 0], theta_block))
        have_ti = TorusIntegrand(3, _bad_on_slab(bad, lambda x: _theta(x[0]), lambda x: x.real[1]))
        with pytest.raises(IntegrandError) as want:
            _torus_qmc_theta(want_ti, samples, 8)
        with pytest.raises(IntegrandError) as have:
            torus_qmc(have_ti, samples, 8)
        assert str(have.value) == str(want.value)
        assert have.value.abscissa == want.value.abscissa


# The rule of torus_qmc evaluated on each shift whole, and the integrand
# blocks as they read whole arrays: the oracles of the blocked loop, which
# must give the same floats.


def _coordinates_whole(d, samples, shift):
    # a shift's (d, samples) coordinates: each row's table entry times its
    # block's unit scalar, multiplied as torus_qmc multiplies them
    z = np.array(quadrature.QMC_LATTICE_Z[:d], dtype=np.int64)
    rows = min(samples, quadrature._QMC_BLOCK_ROWS)
    table = quadrature._circle(np.multiply.outer(z, np.arange(rows)) % samples / samples)
    x = np.empty((d, samples), dtype=np.complex128)
    for start in range(0, samples, rows):
        n = min(rows, samples - start)
        unit = quadrature._circle(start * z % samples / samples + shift)
        np.multiply(table[:, :n], unit[:, None], out=x[:, start : start + n])
    return x


def _torus_qmc_whole(f, samples, shifts, seed=quadrature.DEFAULT_QMC_SEED):
    d = f.dimension
    z = np.array(quadrature.QMC_LATTICE_Z[:d], dtype=np.int64)
    means = []
    discarded = 0
    for shift in _shifts(d, shifts, seed):
        vals = f.block(_coordinates_whole(d, samples, shift))
        bad = np.isnan(vals) | (np.isposinf(vals))
        if bad.any():
            idx = int(np.argmax(bad))
            where = np.mod((idx * z % samples) / samples + shift, 1.0)
            raise IntegrandError(
                f"integrand returned {vals[idx]} at theta = {where}",
                abscissa=tuple(where),
            )
        keep = ~np.isneginf(vals)
        discarded += int(len(vals) - keep.sum())
        means.append(float(np.mean(vals[keep])))
    arr = np.array(means)
    with mp.workprec(64):
        return QuadratureResult(
            value=mp.mpf(float(np.median(arr))),
            error_estimate=mp.mpf(float(np.std(arr, ddof=1)) / math.sqrt(shifts)),
            evaluations=samples * shifts,
            discarded_fraction=discarded / (samples * shifts),
        )


def _cosine_block_whole(kind, k):
    def block(x):
        c = x.real
        if kind == "sum":
            inner = 2.0 * c.sum(axis=0) - k
        elif kind == "product":
            inner = float(2 ** x.shape[0]) * c.prod(axis=0) - k
        else:
            inner = 4.0 * (k * c[0] * c[1] + c[2] * c[3])
        with np.errstate(divide="ignore"):
            return np.log(np.abs(inner))

    return block


def _generic_block_whole(desc):
    def block(x):
        values = np.zeros(x.shape[1], dtype=np.complex128)
        for vec, c in desc.terms.items():
            term = np.full(x.shape[1], complex(c))
            for xj, e in zip(x, vec):
                if e:
                    term *= xj ** e
            values += term
        with np.errstate(divide="ignore"):
            return np.log(np.abs(values))

    return block


class TestBlockedTorusQmc:
    @pytest.mark.parametrize("samples", _ORACLE_SAMPLES)
    @pytest.mark.parametrize(
        "name",
        ["p4", "q8", "r16", "s0", "ralpha", "r:32", "p:3", "p:-6", "q:2", "q:7", "s:1", "s:-9"],
    )
    def test_builtins_match_the_whole_shift_oracle(self, name, samples):
        desc = mahler.builtin_descriptor(name)
        kind, k = mahler._classify_builtin(desc)
        whole = TorusIntegrand(dimension=desc.dimension, evaluate_block=_cosine_block_whole(kind, k))
        got = torus_qmc(mahler.torus_integrand(desc), samples, 16)
        assert got == _torus_qmc_whole(whole, samples, 16)

    @pytest.mark.parametrize("samples", _ORACLE_SAMPLES)
    def test_r_alpha_torus_route_matches_the_oracle(self, samples):
        whole = TorusIntegrand(dimension=4, evaluate_block=_cosine_block_whole("ralpha", 0.3))
        got = mahler.r_alpha(0.3, route="torus", samples=samples)
        assert got == _torus_qmc_whole(whole, samples, 16).value

    @pytest.mark.parametrize("samples", _ORACLE_SAMPLES)
    def test_parsed_descriptor_matches_the_oracle(self, samples):
        desc = mahler.parse_descriptor("1 1 0 2 0\n1 -1 0 0 0\n3 0 1 -1 1\n-2 0 0 0 -1\n-5 0 0 0 0")
        assert mahler._classify_builtin(desc) is None
        whole = TorusIntegrand(dimension=4, evaluate_block=_generic_block_whole(desc))
        got = torus_qmc(mahler.torus_integrand(desc), samples, 8, seed=[3, 4])
        assert got == _torus_qmc_whole(whole, samples, 8, seed=[3, 4])

    @pytest.mark.parametrize("samples", _ORACLE_SAMPLES)
    def test_discarded_zeros_match_the_oracle(self, samples):
        # -inf on a slab, finite and varying elsewhere, one value per point
        def block(x):
            with np.errstate(divide="ignore"):
                return np.where(_theta(x[0]) < 0.125, -np.inf, np.log(1.5 + x.real[1]))

        ti = TorusIntegrand(dimension=2, evaluate_block=block)
        got = torus_qmc(ti, samples, 8)
        assert got.discarded_fraction > 0.1
        assert got == _torus_qmc_whole(ti, samples, 8)

    @pytest.mark.parametrize("samples", _ORACLE_SAMPLES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_integrand_error_matches_the_oracle(self, samples, bad):
        ti = TorusIntegrand(3, _bad_on_slab(bad, lambda x: _theta(x[0]), lambda x: x.real[1]))
        with pytest.raises(IntegrandError) as got:
            torus_qmc(ti, samples, 8)
        with pytest.raises(IntegrandError) as ref:
            _torus_qmc_whole(ti, samples, 8)
        assert str(got.value) == str(ref.value)
        assert got.value.abscissa == ref.value.abscissa
