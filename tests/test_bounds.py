from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from stablematch.bounds import (
    BinomialPowerPgf,
    RisingProductPgf,
    eval_log,
    harmonic,
    harmonic_second,
    husband_count_envelope,
    optimize_tail,
    tail_bound,
)

from oracles import (
    acceptance_pmf_convolution,
    binomial_pmf,
    harmonic_direct,
    upper_tail,
)

pgfs = st.one_of(
    st.builds(
        BinomialPowerPgf, st.integers(1, 10**6), st.integers(0, 10**9)
    ),
    st.builds(RisingProductPgf, st.integers(1, 10**6)),
)


class TestEvalLog:
    @given(pgfs)
    def test_normalized_at_one(self, pgf):
        assert abs(eval_log(pgf, 1.0)) <= 1e-12

    def test_rising_product_unit_values(self):
        assert eval_log(RisingProductPgf(4), 1.0) == 0.0
        # m=3 at z=2: (2/1)(3/2)(4/3) = 4
        assert eval_log(RisingProductPgf(3), 2.0) == pytest.approx(math.log(4), abs=1e-12)

    def test_log_gamma_matches_direct_product(self):
        for m in (1, 2, 5, 17, 120, 10_000):
            for z in (0.25, 0.5, 0.75, 1.5, 2.0, 3.7, 10.0):
                direct = sum(
                    math.log(k - 1 + z) - math.log(k) for k in range(1, m + 1)
                )
                assert eval_log(RisingProductPgf(m), z) == pytest.approx(
                    direct, rel=1e-10, abs=1e-10
                )

    def test_binomial_power_value(self):
        pgf = BinomialPowerPgf(4, 10)
        assert eval_log(pgf, 2.0) == pytest.approx(10 * math.log(5 / 4), abs=1e-12)

    def test_zero_mass_at_zero(self):
        assert eval_log(RisingProductPgf(5), 0.0) == float("-inf")
        assert eval_log(BinomialPowerPgf(1, 3), 0.0) == float("-inf")
        assert eval_log(BinomialPowerPgf(1, 0), 0.0) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            eval_log(RisingProductPgf(3), -0.5)

    @given(pgfs)
    @settings(max_examples=50)
    def test_nondecreasing_in_z(self, pgf):
        grid = [0.1, 0.5, 1.0, 1.5, 2.0, 4.0]
        values = [eval_log(pgf, z) for z in grid]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BinomialPowerPgf(0, 5)
        with pytest.raises(ValueError):
            RisingProductPgf(0)


class TestTailBound:
    def test_degenerate_at_x_one(self):
        assert tail_bound(RisingProductPgf(9), "upper", 5.0, 1.0).value == 1.0
        assert tail_bound(BinomialPowerPgf(3, 7), "lower", 1.0, 1.0).value == 1.0

    def test_small_window_floor_style_bound(self):
        # One cell of n=32 over floor(2*n*r) draws with r = n**0.4 / 2 = 2;
        # at x = 1/2 the bound telescopes below 2**(r+1) * exp(-r).
        n, r = 32, 2.0
        trials = int(2 * n * r)
        tb = tail_bound(BinomialPowerPgf(n, trials), "lower", r, 0.5)
        assert tb.value == pytest.approx(
            2**r * (1 - 1 / (2 * n)) ** trials, rel=1e-12
        )
        assert tb.value <= 2 ** (r + 1) * math.exp(-r)

    def test_bernoulli_sum_sanity(self):
        # BinomialPowerPgf(2, 10) is Binomial(10, 1/2); the optimized bound
        # at r=8 must dominate the exact tail 56/1024.
        exact = upper_tail(binomial_pmf(10, 0.5), 8)
        assert exact == pytest.approx(56 / 1024)
        tb = optimize_tail(BinomialPowerPgf(2, 10), "upper", 8.0)
        assert tb.value >= exact
        assert tb.value < 0.15  # strong enough to be informative

    def test_illegal_x_ranges(self):
        pgf = RisingProductPgf(4)
        with pytest.raises(ValueError):
            tail_bound(pgf, "lower", 1.0, 1.5)
        with pytest.raises(ValueError):
            tail_bound(pgf, "lower", 1.0, 0.0)
        with pytest.raises(ValueError):
            tail_bound(pgf, "upper", 1.0, 0.9)
        with pytest.raises(ValueError):
            tail_bound(pgf, "sideways", 1.0, 1.0)


@pytest.mark.parametrize(
    "call,named",
    [
        (lambda: tail_bound(RisingProductPgf(4), "upper", math.inf, 2.0),
         "threshold r must be finite"),
        (lambda: optimize_tail(RisingProductPgf(4), "sideways", 1.0),
         "direction must be 'lower' or 'upper'"),
        (lambda: harmonic(-1), "harmonic number index must be nonnegative"),
    ],
    ids=["tail-bound-r-infinite", "optimize-direction-unknown", "harmonic-negative"],
)
def test_bad_argument_is_a_named_error(call, named):
    with pytest.raises(ValueError, match=named):
        call()


class TestOptimizeTail:
    def test_below_mean_degenerates_to_one(self):
        pgf = BinomialPowerPgf(2, 10)  # mean 5
        tb = optimize_tail(pgf, "upper", 3.0)
        assert tb.value == 1.0 and tb.x == 1.0

    @given(
        st.one_of(
            st.builds(BinomialPowerPgf, st.integers(2, 100), st.integers(1, 10_000)),
            st.builds(RisingProductPgf, st.integers(1, 10_000)),
        ),
        st.floats(0.0, 50.0),
    )
    @settings(max_examples=60)
    def test_never_worse_than_fixed_probes(self, pgf, r):
        best = optimize_tail(pgf, "upper", r).value
        for x in (1.0, 1.5, 2.0, 4.0):
            assert best <= tail_bound(pgf, "upper", r, x).value + 1e-12
        best_lower = optimize_tail(pgf, "lower", r).value
        for x in (0.25, 0.5, 0.75, 1.0):
            assert best_lower <= tail_bound(pgf, "lower", r, x).value + 1e-12

    def test_acceptance_undercount_rate_across_sizes(self):
        # Bound on accepting fewer than (1-eps)*ln m of m offers. Optimized
        # values must decay at least like m**(-eps**2/2), and their log-log
        # slope must sit within 10% of the fixed-point rate
        # -eps - (1-eps)*log(1-eps).
        eps = 0.5
        sizes = [10**3, 10**4, 10**5, 10**6]
        logs = []
        for m in sizes:
            r = (1 - eps) * math.log(m)
            tb = optimize_tail(RisingProductPgf(m), "lower", r)
            fixed = tail_bound(RisingProductPgf(m), "lower", r, 1 - eps)
            assert tb.value <= fixed.value + 1e-12
            assert tb.value <= m ** (-(eps**2) / 2)
            logs.append(tb.log_value)
        xs = [math.log(m) for m in sizes]
        xbar = sum(xs) / len(xs)
        ybar = sum(logs) / len(logs)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, logs)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        target = -eps - (1 - eps) * math.log(1 - eps)
        assert abs(slope - target) <= 0.1 * abs(target), (slope, target)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            optimize_tail(RisingProductPgf(3), "upper", -1.0)

    def test_upper_tail_at_support_max_stays_sound(self):
        # Pr(X >= m) = 1/m! exactly; the bound approaches it from above as
        # x grows, so the optimizer must not dip below it.
        for m in range(2, 13):
            exact = 1 / math.factorial(m)
            tb = optimize_tail(RisingProductPgf(m), "upper", float(m))
            assert tb.value >= exact - 1e-15

    def test_eval_log_stable_far_beyond_m(self):
        for m in (1, 2, 7, 40):
            for z in (1e3, 1e9, 1e30, 1e200):
                direct = sum(
                    math.log(k - 1 + z) - math.log(k) for k in range(1, m + 1)
                )
                assert eval_log(RisingProductPgf(m), z) == pytest.approx(
                    direct, rel=1e-12
                )


def _summed_beyond_m(m: int, z: float) -> float:
    """log P(z) of the rising product as a literal sum of log1p factors."""
    tail = math.fsum(math.log1p(j / z) for j in range(1, m))
    return m * math.log(z) + tail - math.lgamma(m + 1)


class TestEvalLogBeyondM:
    """Past z = m, eval_log replaces an O(m) sum by Euler-Maclaurin."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10**5), st.floats(0.0, 1.0, exclude_min=True))
    def test_matches_summed_form(self, m, frac):
        z = m * (1.0 + 99.0 * frac)  # z in (m, 100 m]
        assume(z > m)
        expected = _summed_beyond_m(m, z)
        assert eval_log(RisingProductPgf(m), z) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("m", [64, 65, 66, 67, 1000, 10**5])
    def test_matches_summed_form_at_the_switch(self, m):
        for z in (m * (1 + 1e-12), m + 0.5, 1.01 * m, 100.0 * m):
            assert eval_log(RisingProductPgf(m), z) == pytest.approx(
                _summed_beyond_m(m, z), rel=1e-12
            )

    def test_sizes_the_sum_cannot_reach(self):
        # At m = 1e9 and z = 2m the log-gamma difference loses only about
        # 1e-14 relative, so it serves as the reference here.
        m, z = 10**9, 2e9
        reference = math.lgamma(m + z) - math.lgamma(z) - math.lgamma(m + 1)
        assert eval_log(RisingProductPgf(m), z) == pytest.approx(
            reference, rel=1e-9
        )


class TestSoundnessSmoke:
    def test_acceptance_count_bounds_dominate_exact_tails(self):
        m = 8
        pmf = acceptance_pmf_convolution(m)
        pgf = RisingProductPgf(m)
        for r in range(m + 1):
            exact_up = sum(pmf[r:])
            exact_lo = sum(pmf[: r + 1])
            for x in (1.0, 1.3, 2.0, 3.0):
                assert tail_bound(pgf, "upper", r, x).value >= exact_up - 1e-12
            for x in (0.2, 0.6, 1.0):
                assert tail_bound(pgf, "lower", r, x).value >= exact_lo - 1e-12


class TestMoments:
    def test_derivative_at_one_is_harmonic_number(self):
        # P'(1) is the expected number of acceptances of m offers.
        for m in (100, 1000):
            h = 1e-6
            derivative = (
                math.exp(eval_log(RisingProductPgf(m), 1 + h))
                - math.exp(eval_log(RisingProductPgf(m), 1 - h))
            ) / (2 * h)
            assert derivative == pytest.approx(harmonic_direct(m), rel=1e-4)

    def test_harmonic_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25 / 12, rel=1e-12)
        assert harmonic(10_000) == pytest.approx(harmonic_direct(10_000), rel=1e-12)

    def test_harmonic_asymptotic_branch_continuous(self):
        m = 10**6 + 1
        direct = harmonic_direct(m)
        assert harmonic(m) == pytest.approx(direct, rel=1e-10)

    def test_harmonic_second_converges(self):
        assert harmonic_second(10_000) == pytest.approx(
            math.pi**2 / 6, rel=1e-3
        )

    @pytest.mark.parametrize("m", [10**6 + 1, 2 * 10**6])
    def test_harmonic_second_asymptotic_branch(self, m):
        direct = math.fsum(1.0 / (k * k) for k in range(1, m + 1))
        assert harmonic_second(m) == pytest.approx(direct, rel=1e-15)

    @pytest.mark.parametrize("f, power", [(harmonic, 1), (harmonic_second, 2)])
    def test_branches_meet_at_the_switch(self, f, power):
        # From the last directly summed index to the first asymptotic one,
        # the sum steps by its new term, within 2 ulps.
        m = 10**6
        step = f(m + 1) - f(m)
        assert abs(step - 1.0 / (m + 1) ** power) <= 2 * math.ulp(f(m + 1))


class TestEnvelope:
    def test_reference_values(self):
        env = husband_count_envelope(1024, c=0.4, C=1.5, delta=0.45, epsilon=0.05)
        assert env.lower == pytest.approx(2.7725887222397816, abs=1e-12)
        assert env.upper == pytest.approx(10.39720770839918, abs=1e-12)
        assert env.limit_lower == pytest.approx(0.5 * math.log(1024))
        assert env.limit_upper == pytest.approx(math.log(1024))
        assert env.first_output_window == math.floor(
            1024 * math.log(1024) * math.log(math.log(1024))
        )
        assert env.fresh_proposal_floor == pytest.approx(
            0.5 * 1024**0.45 / math.log(1024)
        )

    def test_c_above_half_rejected(self):
        with pytest.raises(ValueError, match="c"):
            husband_count_envelope(1024, c=0.6, C=1.5, delta=0.45, epsilon=0.05)

    def test_synthetic_n_e(self):
        env = husband_count_envelope(math.e, c=0.4, C=1.5, delta=0.45, epsilon=0.05)
        assert env.lower == pytest.approx(0.4)
        assert env.upper == pytest.approx(1.5)
        assert env.first_output_window is None

    def test_infeasible_combination_named(self):
        with pytest.raises(ValueError, match="infeasible"):
            husband_count_envelope(1024, c=0.4, C=1.5, delta=0.45, epsilon=0.2)
        with pytest.raises(ValueError, match="infeasible"):
            husband_count_envelope(1024, c=0.2, C=1.04, delta=0.45, epsilon=0.05)

    def test_other_preconditions(self):
        with pytest.raises(ValueError, match="delta"):
            husband_count_envelope(1024, c=0.3, C=2.0, delta=0.6, epsilon=0.05)
        with pytest.raises(ValueError, match="C"):
            husband_count_envelope(1024, c=0.3, C=0.9, delta=0.45, epsilon=0.05)
        with pytest.raises(ValueError, match="epsilon"):
            husband_count_envelope(1024, c=0.3, C=2.0, delta=0.45, epsilon=-0.1)
        with pytest.raises(ValueError, match="n"):
            husband_count_envelope(1.0, c=0.3, C=2.0, delta=0.45, epsilon=0.05)
