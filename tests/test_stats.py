import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocdvs import (
    Sequence,
    center,
    third_cumulant_lagged,
    third_cumulant_zero_lag,
)
from hocdvs.errors import HocdvsError
from hocdvs.experiments import snr2_db, snr2_statistics
from hocdvs.stats import mean_cube_axis0


def seq(values, centered=False):
    return Sequence(np.asarray(values, dtype=float), centered=centered)


class TestSequence:
    def test_empty_rejected(self):
        with pytest.raises(HocdvsError, match="at least one sample") as exc:
            seq([])
        assert exc.type is HocdvsError

    def test_centered_flag_checked(self):
        with pytest.raises(HocdvsError, match="flagged centered but mean is") as exc:
            seq([1.0, 2.0, 3.0], centered=True)
        assert exc.type is HocdvsError

    def test_samples_immutable(self):
        s = seq([1.0, 2.0])
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            Sequence(np.zeros((2, 2)))


class TestCenter:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ([1, 2, 3], [-1, 0, 1]),
            ([5, 5, 5], [0, 0, 0]),
            ([1, 1, 4], [-1, -1, 2]),
        ],
    )
    def test_examples(self, values, expected):
        out = center(seq(values))
        assert out.centered
        np.testing.assert_allclose(out.samples, expected, atol=1e-15)

    def test_length_preserved(self):
        assert len(center(seq([3.0, 7.0, 9.0, 9.0]))) == 4


class TestThirdCumulantLagged:
    def test_zero_lag_equals_joint(self):
        x = seq([1, 1, -2], centered=True)
        got = third_cumulant_lagged(x, 0, 0)
        assert got == pytest.approx(third_cumulant_zero_lag(x), rel=1e-15)
        assert got == pytest.approx(-2.0, rel=1e-15)

    def test_unit_lag_example(self):
        x = seq([1, -1, 1, -1], centered=True)
        got = third_cumulant_lagged(x, 1, 0)
        assert got == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_lag_too_large(self):
        x = seq([1.0, -1.0], centered=True)
        with pytest.raises(HocdvsError, match="lag 2 >= sequence length 2") as exc:
            third_cumulant_lagged(x, 2, 0)
        assert exc.type is HocdvsError

    def test_negative_lag_rejected(self):
        x = seq([1.0, -1.0], centered=True)
        with pytest.raises(ValueError, match="tau1 must be a non-negative integer, got -1"):
            third_cumulant_lagged(x, -1, 0)

    @pytest.mark.parametrize("tau2", [1.5, -2])
    def test_second_lag_must_be_a_non_negative_integer(self, tau2):
        x = seq([1.0, -2.0, 1.0], centered=True)
        with pytest.raises(ValueError, match=f"tau2 must be a non-negative integer, got {tau2}"):
            third_cumulant_lagged(x, 0, tau2)

    @pytest.mark.parametrize("lag", [2.0, np.int64(2)])
    def test_integral_lag_of_any_type_equals_the_int_lag(self, lag):
        x = seq([1.0, -2.0, 3.0, -4.0, 2.0], centered=True)
        assert third_cumulant_lagged(x, lag, 0) == third_cumulant_lagged(x, 2, 0)
        assert third_cumulant_lagged(x, 0, lag) == third_cumulant_lagged(x, 0, 2)

    def test_requires_centered(self):
        with pytest.raises(HocdvsError, match="argument 1 is not centered") as exc:
            third_cumulant_lagged(seq([1.0, 2.0, 3.0]), 1, 0)
        assert exc.type is HocdvsError

    def test_gaussian_null_with_bootstrap_error_bars(self):
        rng = np.random.default_rng(2024)
        x = center(seq(rng.standard_normal(20000)))
        got = third_cumulant_lagged(x, 3, 7)
        s = x.samples
        n_eff = len(x) - 7
        products = s[:n_eff] * s[3 : 3 + n_eff] * s[7 : 7 + n_eff]
        boot = np.array([
            rng.choice(products, size=n_eff, replace=True).mean() for _ in range(200)
        ])
        assert abs(got) < 4.0 * boot.std(ddof=1)


class TestThirdCumulantZeroLag:
    def test_zeros(self):
        assert third_cumulant_zero_lag(seq([0, 0, 0, 0], centered=True)) == 0.0

    def test_direct(self):
        assert third_cumulant_zero_lag(seq([1, 1, -2], centered=True)) == pytest.approx(-2.0)

    def test_exponential_closed_form(self):
        # third cumulant of Exp(rate=1) is 2; tolerance is 4 standard errors,
        # SE = sqrt(Var[(X-1)^3]/N) = sqrt(261/1e6)
        rng = np.random.default_rng(123)
        x = center(seq(rng.exponential(1.0, 10**6)))
        assert third_cumulant_zero_lag(x) == pytest.approx(2.0, abs=4 * math.sqrt(261e-6))

    def test_requires_centered(self):
        with pytest.raises(HocdvsError, match="argument 1 is not centered") as exc:
            third_cumulant_zero_lag(seq([1.0, 2.0]))
        assert exc.type is HocdvsError

    def test_product_form_matches_pow(self):
        x = np.random.default_rng(8).gamma(2.0, size=10**5)
        c = x - x.mean()
        assert third_cumulant_zero_lag(seq(c, centered=True)) == pytest.approx(
            float(np.mean(c**3)), rel=1e-12
        )
        assert float(mean_cube_axis0(x)) == pytest.approx(float(np.mean(x**3)), rel=1e-12)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50))
    def test_odd_symmetry_null(self, values):
        x = np.asarray(values, dtype=float)
        doubled = center(seq(np.concatenate([x, -x])))
        scale = max(1.0, float(np.max(np.abs(x)))) ** 3
        assert abs(third_cumulant_zero_lag(doubled)) <= 1e-12 * scale

    @pytest.mark.parametrize("a", [2.0, -3.0, 0.5])
    def test_scale_law(self, a):
        rng = np.random.default_rng(99)
        x = rng.normal(size=500)
        base = third_cumulant_zero_lag(center(seq(x)))
        scaled = third_cumulant_zero_lag(center(seq(a * x)))
        assert scaled == pytest.approx(a**3 * base, rel=1e-12, abs=1e-12)

    def test_gaussian_null_across_seeds(self):
        c3s = np.array([
            third_cumulant_zero_lag(center(seq(np.random.default_rng(s).standard_normal(10000))))
            for s in range(100)
        ])
        se = c3s.std(ddof=1) / math.sqrt(len(c3s))
        assert abs(c3s.mean()) < 4.0 * se


def power(x: Sequence) -> float:
    """Mean square of the samples."""
    return float(np.mean(x.samples**2))


def one_row(x: Sequence) -> np.ndarray:
    """A centered sequence as the one-row stack snr2_db takes."""
    return x.samples[None]


class TestSnr2Db:
    def test_identity_is_zero_db(self):
        rng = np.random.default_rng(5)
        x = one_row(center(seq(rng.exponential(1.0, 500))))
        [value] = snr2_db(x, x)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_signal_scores_positive(self):
        rng = np.random.default_rng(11)
        skewed = center(seq(rng.exponential(1.0, 5000)))
        noise = rng.standard_normal(5000)
        noise -= noise.mean()
        noise *= math.sqrt(power(skewed) / np.mean(noise**2))
        [value] = snr2_db(one_row(skewed), noise[None])
        assert value > 0.0

    def test_power_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        a = center(seq(rng.exponential(1.0, 200)))
        b = center(seq(3.0 * rng.exponential(1.0, 200)))
        with pytest.raises(HocdvsError, match="powers differ by more than 1%") as exc:
            snr2_db(one_row(a), one_row(b))
        assert exc.type is HocdvsError

    def test_degenerate_reference(self):
        mixed = center(seq([4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        ref = seq([1.0, -1.0] * 4, centered=True)  # exactly symmetric, c3 = 0
        ref = ref.samples * math.sqrt(power(mixed) / power(ref))
        [value] = snr2_db(one_row(mixed), ref[None])
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
        with pytest.raises(HocdvsError, match="flagged centered but mean is 1.500e"):
            snr2_db(rows, rows)


class TestLaggedAgainstBruteForce:
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=32),
        st.integers(0, 8),
        st.integers(0, 8),
    )
    @settings(max_examples=100)
    def test_matches_python_loop(self, values, tau1, tau2):
        x = center(seq(values))
        n = len(x)
        if max(tau1, tau2) >= n:
            return
        got = third_cumulant_lagged(x, tau1, tau2)
        s = x.samples
        n_eff = n - max(tau1, tau2)
        expected = sum(s[t] * s[t + tau1] * s[t + tau2] for t in range(n_eff)) / n_eff
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
