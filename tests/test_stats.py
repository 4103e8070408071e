import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hocdvs import third_cumulant_lagged, third_cumulant_zero_lag
from hocdvs.errors import HocdvsError
from hocdvs.experiments import snr2_db, snr2_statistics
from hocdvs.stats import mean_cube_axis0

ESTIMATORS = {
    "zero_lag": third_cumulant_zero_lag,
    "lagged": lambda x: third_cumulant_lagged(x, 0, 0),
}


@pytest.mark.parametrize("estimate", ESTIMATORS.values(), ids=ESTIMATORS.keys())
class TestSamples:
    def test_empty_rejected(self, estimate):
        with pytest.raises(HocdvsError, match="at least one sample") as exc:
            estimate(np.empty(0))
        assert exc.type is HocdvsError

    def test_two_dimensional_rejected(self, estimate):
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
            estimate(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, estimate, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            estimate([1.0, bad, -1.0])

    def test_input_left_unchanged(self, estimate):
        x = np.array([1.0, 2.0, 6.0])
        estimate(x)
        np.testing.assert_array_equal(x, [1.0, 2.0, 6.0])

    @pytest.mark.parametrize("x", [[1e200, -1e200, 0.0], [1e308, 1e308]])
    def test_huge_samples_with_zero_cumulant_give_zero(self, estimate, x):
        assert estimate(x) == 0.0

    def test_cumulant_beyond_the_float_range_is_a_value_error(self, estimate):
        with pytest.raises(ValueError, match="^third cumulant exceeds the float range$"):
            estimate([1e200, 0.0, 0.0])


def _cumulant_or_none(estimate, x):
    """The estimate, or None when the cumulant exceeds the float range."""
    try:
        return estimate(x)
    except ValueError:
        return None


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
    st.integers(-1000, 1000),
    st.integers(0, 2),
)
def test_power_of_two_scaling_is_exact_and_never_nan(values, k, lag):
    """k3(2**k * x) == 2**(3k) * k3(x) wherever both are in range, for any
    finite x whose scaling by 2**k is exact."""
    x = np.asarray(values)
    with np.errstate(over="ignore", under="ignore"):  # such an x is skipped
        y = np.ldexp(x, k)
        assume(np.all(np.isfinite(y)) and np.array_equal(np.ldexp(y, -k), x))
    lag = min(lag, x.size - 1)
    for estimate in (third_cumulant_zero_lag, lambda s: third_cumulant_lagged(s, lag, 0)):
        a, b = _cumulant_or_none(estimate, x), _cumulant_or_none(estimate, y)
        assert not (a is not None and math.isnan(a)) and not (b is not None and math.isnan(b))
        # a normal k3(x) is exact; a zero or subnormal one may have underflowed
        if a is not None and abs(a) >= sys.float_info.min:
            try:
                expected = math.ldexp(a, 3 * k)
            except OverflowError:
                expected = None
            assert b == expected


_FINITE = st.floats(min_value=-1e3, max_value=1e3)


@given(st.lists(_FINITE, min_size=1, max_size=50), _FINITE)
def test_estimates_ignore_a_constant_offset(values, offset):
    x = np.asarray(values, dtype=float)
    scale = max(1.0, float(np.max(np.abs(x))), abs(offset)) ** 3
    zero_lag = third_cumulant_zero_lag(x)
    assert third_cumulant_zero_lag(x + offset) == pytest.approx(zero_lag, abs=1e-9 * scale)
    lag = min(2, x.size - 1)
    assert third_cumulant_lagged(x + offset, lag, 0) == pytest.approx(
        third_cumulant_lagged(x, lag, 0), abs=1e-9 * scale
    )
    assert third_cumulant_lagged(x, 0, 0) == pytest.approx(zero_lag, abs=1e-12 * scale)


class TestThirdCumulantLagged:
    def test_zero_lag_equals_joint(self):
        x = [1.0, 1.0, -2.0]
        got = third_cumulant_lagged(x, 0, 0)
        assert got == pytest.approx(third_cumulant_zero_lag(x), rel=1e-15)
        assert got == pytest.approx(-2.0, rel=1e-15)

    def test_unit_lag_example(self):
        x = [1.0, -1.0, 1.0, -1.0]
        got = third_cumulant_lagged(x, 1, 0)
        assert got == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_lag_too_large(self):
        x = [1.0, -1.0]
        with pytest.raises(HocdvsError, match="lag 2 >= sequence length 2") as exc:
            third_cumulant_lagged(x, 2, 0)
        assert exc.type is HocdvsError

    def test_negative_lag_rejected(self):
        x = [1.0, -1.0]
        with pytest.raises(ValueError, match="tau1 must be a non-negative integer, got -1"):
            third_cumulant_lagged(x, -1, 0)

    @pytest.mark.parametrize("tau1", [math.inf, math.nan])
    def test_first_lag_must_be_finite(self, tau1):
        with pytest.raises(ValueError, match=f"tau1 must be a non-negative integer, got {tau1}"):
            third_cumulant_lagged([1.0, -2.0, 1.0], tau1, 0)

    @pytest.mark.parametrize("tau2", [1.5, -2, math.inf, math.nan])
    def test_second_lag_must_be_a_non_negative_integer(self, tau2):
        x = [1.0, -2.0, 1.0]
        with pytest.raises(ValueError, match=f"tau2 must be a non-negative integer, got {tau2}"):
            third_cumulant_lagged(x, 0, tau2)

    @pytest.mark.parametrize("lag", [2.0, np.int64(2)])
    def test_integral_lag_of_any_type_equals_the_int_lag(self, lag):
        x = [1.0, -2.0, 3.0, -4.0, 2.0]
        assert third_cumulant_lagged(x, lag, 0) == third_cumulant_lagged(x, 2, 0)
        assert third_cumulant_lagged(x, 0, lag) == third_cumulant_lagged(x, 0, 2)

    def test_gaussian_null_with_bootstrap_error_bars(self):
        rng = np.random.default_rng(2024)
        x = rng.standard_normal(20000)
        got = third_cumulant_lagged(x, 3, 7)
        s = x - x.mean()
        n_eff = s.size - 7
        products = s[:n_eff] * s[3 : 3 + n_eff] * s[7 : 7 + n_eff]
        boot = np.array([
            rng.choice(products, size=n_eff, replace=True).mean() for _ in range(200)
        ])
        assert abs(got) < 4.0 * boot.std(ddof=1)


class TestThirdCumulantZeroLag:
    def test_zeros(self):
        assert third_cumulant_zero_lag([0.0, 0.0, 0.0, 0.0]) == 0.0

    def test_direct(self):
        assert third_cumulant_zero_lag([1.0, 1.0, -2.0]) == pytest.approx(-2.0)

    def test_exponential_closed_form(self):
        # third cumulant of Exp(rate=1) is 2; tolerance is 4 standard errors,
        # SE = sqrt(Var[(X-1)^3]/N) = sqrt(261/1e6)
        rng = np.random.default_rng(123)
        x = rng.exponential(1.0, 10**6)
        assert third_cumulant_zero_lag(x) == pytest.approx(2.0, abs=4 * math.sqrt(261e-6))

    def test_product_form_matches_pow(self):
        x = np.random.default_rng(8).gamma(2.0, size=10**5)
        c = x - x.mean()
        assert third_cumulant_zero_lag(x) == pytest.approx(
            float(np.mean(c**3)), rel=1e-12
        )
        assert float(mean_cube_axis0(x)) == pytest.approx(float(np.mean(x**3)), rel=1e-12)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50))
    def test_odd_symmetry_null(self, values):
        x = np.asarray(values, dtype=float)
        doubled = np.concatenate([x, -x])
        scale = max(1.0, float(np.max(np.abs(x)))) ** 3
        assert abs(third_cumulant_zero_lag(doubled)) <= 1e-12 * scale

    @pytest.mark.parametrize("a", [2.0, -3.0, 0.5])
    def test_scale_law(self, a):
        rng = np.random.default_rng(99)
        x = rng.normal(size=500)
        base = third_cumulant_zero_lag(x)
        scaled = third_cumulant_zero_lag(a * x)
        assert scaled == pytest.approx(a**3 * base, rel=1e-12, abs=1e-12)

    def test_gaussian_null_across_seeds(self):
        c3s = np.array([
            third_cumulant_zero_lag(np.random.default_rng(s).standard_normal(10000))
            for s in range(100)
        ])
        se = c3s.std(ddof=1) / math.sqrt(len(c3s))
        assert abs(c3s.mean()) < 4.0 * se


def power(row: np.ndarray) -> float:
    """Mean square of the samples."""
    return float(np.mean(row**2))


def one_row(values) -> np.ndarray:
    """values centered, as the one-row stack snr2_db takes."""
    x = np.asarray(values, dtype=float)
    return (x - x.mean())[None]


class TestSnr2Db:
    def test_identity_is_zero_db(self):
        rng = np.random.default_rng(5)
        x = one_row(rng.exponential(1.0, 500))
        [value] = snr2_db(x, x)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_signal_scores_positive(self):
        rng = np.random.default_rng(11)
        skewed = one_row(rng.exponential(1.0, 5000))
        noise = rng.standard_normal(5000)
        noise -= noise.mean()
        noise *= math.sqrt(power(skewed) / np.mean(noise**2))
        [value] = snr2_db(skewed, noise[None])
        assert value > 0.0

    def test_power_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        a = one_row(rng.exponential(1.0, 200))
        b = one_row(3.0 * rng.exponential(1.0, 200))
        with pytest.raises(HocdvsError, match="powers differ by more than 1%") as exc:
            snr2_db(a, b)
        assert exc.type is HocdvsError

    def test_degenerate_reference(self):
        mixed = one_row([4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        ref = np.array([[1.0, -1.0] * 4])  # exactly symmetric, c3 = 0
        ref *= math.sqrt(power(mixed) / power(ref))
        [value] = snr2_db(mixed, ref)
        assert math.isnan(value)

    def test_low_duty_wave_gains_snr_on_average(self):
        # 10%-duty square wave at 0 dB input SNR, window 120: the mean output
        # ratio across noise realizations must come out positive.
        mean, _ = snr2_statistics(0.1, 120, 0.0, range(200))
        assert mean > 0.0

    def test_stack_gives_each_row_its_one_row_value(self):
        rng = np.random.default_rng(21)
        mixed = rng.exponential(1.0, (6, 40))
        mixed -= mixed.mean(axis=1, keepdims=True)
        ref = rng.standard_normal((6, 40))
        ref -= ref.mean(axis=1, keepdims=True)
        ref *= np.sqrt(np.mean(mixed**2, axis=1) / np.mean(ref**2, axis=1))[:, None]
        ref[4] = np.sqrt(np.mean(mixed[4] ** 2)) * np.array([1.0, -1.0] * 20)  # c3 = 0
        got = snr2_db(mixed, ref)
        for row in (0, 1, 2, 3, 5):
            assert [got[row]] == snr2_db(mixed[row : row + 1], ref[row : row + 1])
        assert math.isnan(got[4])

    def test_stack_rows_must_be_centered(self):
        rows = np.array([[1.0, -1.0], [1.0, 2.0]])
        with pytest.raises(HocdvsError, match="row is not centered: its mean is 1.500e") as exc:
            snr2_db(rows, rows)
        assert exc.type is HocdvsError


class TestLaggedAgainstBruteForce:
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=32),
        st.integers(0, 8),
        st.integers(0, 8),
    )
    @settings(max_examples=100)
    def test_matches_python_loop(self, values, tau1, tau2):
        x = np.asarray(values, dtype=float)
        n = x.size
        if max(tau1, tau2) >= n:
            return
        got = third_cumulant_lagged(x, tau1, tau2)
        s = x - x.mean()
        n_eff = n - max(tau1, tau2)
        expected = sum(s[t] * s[t + tau1] * s[t + tau2] for t in range(n_eff)) / n_eff
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
