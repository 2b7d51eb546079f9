"""Welch test against quadrature and reference-implementation oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.integrate import quad

from fluxt1.errors import DegenerateSampleError
from fluxt1.stats import (
    _t_density,
    _t_log_norm,
    ci_of_mean_difference,
    critical_t,
    lgamma,
    welch_t_test,
)


class TestLgamma:
    def test_matches_libm_over_wide_range(self):
        for x in np.concatenate([np.linspace(0.05, 2.0, 40),
                                 np.logspace(0.5, 6, 40)]):
            assert lgamma(float(x)) == pytest.approx(math.lgamma(x), rel=1e-12,
                                                     abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lgamma(0.0)


class TestTPdf:
    def test_peak_value_formula(self):
        for nu in (1.0, 3.5, 10.0, 250.0):
            expected = math.gamma((nu + 1) / 2) / (math.sqrt(math.pi * nu)
                                                   * math.gamma(nu / 2))
            assert _t_density(0.0, nu, _t_log_norm(nu)) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        for t in (0.3, 1.7, 4.2):
            assert _t_density(t, 7.3, _t_log_norm(7.3)) == _t_density(-t, 7.3, _t_log_norm(7.3))

    def test_cauchy_special_case(self):
        for t in np.linspace(-5, 5, 21):
            assert _t_density(float(t), 1.0, _t_log_norm(1.0)) == pytest.approx(
                1.0 / (math.pi * (1.0 + t * t)), rel=1e-12)

    def test_normalized(self):
        total, _ = quad(_t_density, -math.inf, math.inf, args=(6.0, _t_log_norm(6.0)))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("nu", [0.3, 0.8, 0.999, 1.0, 2.5, 7.2, 41.0, 1e5])
    def test_quadrature_integrand_is_the_inline_density_bit_for_bit(self, nu):
        # nu < 1 puts lgamma(nu / 2) on its reflection branch
        log_norm = _t_log_norm(nu)

        def inline(t, nu):
            # the density as written before the normalization was hoisted
            return math.exp(lgamma((nu + 1.0) / 2.0) - lgamma(nu / 2.0)
                            - 0.5 * math.log(math.pi * nu)
                            - 0.5 * (nu + 1.0) * math.log1p(t * t / nu))

        for t in (0.0, 0.3, -1.3, 2.0, 4.2, 37.5, 1e4):
            assert _t_density(t, nu, log_norm) == inline(t, nu)
        tail = quad(inline, 1.3, math.inf, args=(nu,), epsabs=1e-13, epsrel=1e-12)
        assert quad(_t_density, 1.3, math.inf, args=(nu, log_norm),
                    epsabs=1e-13, epsrel=1e-12) == tail

    @pytest.mark.parametrize("nu", [0.0, -1.5, math.nan])
    def test_rejects_nu_that_is_not_positive(self, nu):
        with pytest.raises(ValueError, match="nu must be > 0"):
            _t_density(1.0, nu, _t_log_norm(nu))


class TestCriticalT:
    def test_alpha_one_gives_zero(self):
        assert critical_t(1.0, 11.0) == 0.0

    def test_large_nu_approaches_normal_quantile(self):
        assert critical_t(0.05, 1e6) == pytest.approx(1.95996, abs=1e-3)

    def test_nu_ten_reference_value(self):
        # quadrature oracle: integrate the density to the 2.5% tail
        target = critical_t(0.05, 10.0)
        tail, _ = quad(_t_density, target, math.inf, args=(10.0, _t_log_norm(10.0)))
        assert tail == pytest.approx(0.025, abs=1e-9)
        assert target == pytest.approx(2.2281, abs=1e-3)

    def test_matches_scipy_reference(self):
        for alpha, nu in ((0.05, 3.7), (0.01, 25.0), (0.32, 889.6)):
            assert critical_t(alpha, nu) == pytest.approx(
                scipy_stats.t.ppf(1 - alpha / 2, nu), rel=1e-9)


class TestWelch:
    def test_self_comparison_is_null(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0]
        result = welch_t_test(sample, sample)
        assert result.t0 == 0.0
        assert result.p_value == 1.0
        assert result.ci_low < 0.0 < result.ci_high

    def test_small_samples_against_quadrature_oracle(self):
        result = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        # hand-computed pieces
        se2 = (2.5 / 5) + (2.5 / 5)
        t0_hand = (3.0 - 4.0) / math.sqrt(se2)
        nu_hand = se2**2 / ((0.5**2) / 4 + (0.5**2) / 4)
        assert result.t0 == pytest.approx(t0_hand, rel=1e-12)
        assert result.nu == pytest.approx(nu_hand, rel=1e-12)
        tail, _ = quad(_t_density, abs(t0_hand), math.inf,
                       args=(nu_hand, _t_log_norm(nu_hand)),
                       epsabs=1e-14, epsrel=1e-13)
        assert result.p_value == pytest.approx(2 * tail, abs=1e-6)

    def test_matches_scipy_reference_implementation(self, rng):
        for _ in range(50):
            x = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3),
                           size=rng.integers(5, 60))
            y = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3),
                           size=rng.integers(5, 60))
            ours = welch_t_test(x, y)
            ref = scipy_stats.ttest_ind(x, y, equal_var=False)
            assert ours.t0 == pytest.approx(ref.statistic, rel=1e-9)
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-9)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(DegenerateSampleError):
            welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])

    def test_needs_two_each(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("sizes, constant", [((7, 31), False), ((2, 5), False),
                                                 ((12, 9), True)],
                             ids=["unequal", "smallest", "one_constant"])
    def test_swapped_is_the_reversed_test_bit_for_bit(self, rng, sizes, constant):
        x = rng.lognormal(12.0, 0.4, size=sizes[0])
        y = np.full(sizes[1], 2.3e5) if constant else rng.lognormal(12.1, 0.3, size=sizes[1])
        r = welch_t_test(x, y, alpha=0.1)
        direct = welch_t_test(y, x, alpha=0.1)
        assert r.swapped() == direct  # every field, with ==
        assert ci_of_mean_difference(r.swapped(), r.mean1) == \
            ci_of_mean_difference(direct, direct.mean2)
        assert r.swapped().swapped() == r

    def test_ci_coverage_simulation(self, rng):
        # equal means: about 95% of 95% intervals must contain zero
        hits = 0
        trials = 2000
        for _ in range(trials):
            x = rng.normal(0.0, 1.0, size=25)
            y = rng.normal(0.0, 1.4, size=35)
            result = welch_t_test(x, y, alpha=0.05)
            if result.ci_low <= 0.0 <= result.ci_high:
                hits += 1
        assert hits / trials == pytest.approx(0.95, abs=0.02)


class TestCiOfMeanDifference:
    def test_equal_samples_symmetric_about_zero(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        result = welch_t_test(sample, sample)
        lo, hi = ci_of_mean_difference(result, result.mean2)
        assert lo == pytest.approx(-hi, rel=1e-12)

    def test_scale_invariance(self):
        a = [1.0, 2.0, 3.0, 4.0, 8.0]
        b = [2.0, 2.5, 3.0, 5.0, 6.0]
        r1 = welch_t_test(a, b)
        r2 = welch_t_test([2 * x for x in a], [2 * x for x in b])
        assert ci_of_mean_difference(r1, r1.mean2) == pytest.approx(
            ci_of_mean_difference(r2, r2.mean2), rel=1e-12)

    def test_planted_offset_detected(self):
        # two pools with a +14% mean offset at realistic spread and size;
        # fixed draw for which the (95%-probable) bracketing event holds --
        # interval coverage itself is validated separately over 2000 trials
        rng = np.random.default_rng(0)
        mean_a = 2.4e5
        a = rng.normal(mean_a, 1.7e5, size=900)
        b = rng.normal(1.14 * mean_a, 1.9e5, size=900)
        result = welch_t_test(b, a)
        lo, hi = ci_of_mean_difference(result, result.mean2)
        assert lo > 0.0  # interval excludes zero
        assert lo < 14.0 < hi

    def test_zero_reference_rejected(self):
        result = welch_t_test([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValueError):
            ci_of_mean_difference(result, 0.0)


@settings(max_examples=60)
@given(
    shift=st.floats(-50, 50),
    scale=st.floats(0.01, 100),
    seed=st.integers(0, 2**31),
)
def test_affine_invariance_property(shift, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=12)
    y = rng.normal(0.5, 2, size=9)
    base = welch_t_test(x, y)
    moved = welch_t_test(scale * x + shift, scale * y + shift)
    assert moved.p_value == pytest.approx(base.p_value, rel=1e-9, abs=1e-12)
    assert moved.t0 == pytest.approx(base.t0, rel=1e-9)
    assert moved.nu == pytest.approx(base.nu, rel=1e-9)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**31))
def test_swap_antisymmetry_and_nu_bounds_property(seed):
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(2, 40)), int(rng.integers(2, 40))
    x = rng.normal(0, 1, size=n1)
    y = rng.normal(1, 3, size=n2)
    fwd = welch_t_test(x, y)
    rev = welch_t_test(y, x)
    assert fwd.t0 == pytest.approx(-rev.t0, rel=1e-12)
    assert fwd.nu == pytest.approx(rev.nu, rel=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)
    assert min(n1, n2) - 1 <= fwd.nu <= n1 + n2 - 2 + 1e-9
