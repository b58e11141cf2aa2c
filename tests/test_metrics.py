"""Classification rates, PMSE, and the split integrated squared error."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sflr.metrics import (classification_metrics, complement_intervals, ise,
                          pmse)
from sflr.simulate import beta_one_null


def _labels_from_counts(tp, fp, tn, fn):
    y_true = np.array([1] * tp + [0] * fp + [0] * tn + [1] * fn)
    y_pred = np.array([1] * tp + [1] * fp + [0] * tn + [0] * fn)
    return y_true, y_pred


class TestClassificationMetrics:
    def test_hand_counted_example(self):
        y_true, y_pred = _labels_from_counts(tp=3, fp=1, tn=5, fn=1)
        m = classification_metrics(y_true, y_pred)
        assert (m.tp, m.fp, m.tn, m.fn) == (3, 1, 5, 1)
        assert m.mcr == pytest.approx(0.2)
        assert m.sensitivity == pytest.approx(0.75)
        assert m.specificity == pytest.approx(5 / 6)
        assert m.fdr == pytest.approx(0.25)
        assert m.miss_rate == pytest.approx(0.25)

    def test_perfect_prediction(self):
        y = np.array([0, 1, 1, 0, 1])
        m = classification_metrics(y, y)
        assert m.mcr == 0.0 and m.sensitivity == 1.0
        assert m.specificity == 1.0 and m.fdr == 0.0

    def test_undefined_rates_are_none(self):
        m = classification_metrics([1, 1, 0], [0, 0, 0])
        assert m.sensitivity == 0.0
        assert m.fdr is None  # no positive predictions at all

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            classification_metrics([0, 1], [0, 1, 1])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            classification_metrics([0, 2], [0, 1])

    @given(st.integers(0, 50), st.integers(0, 50),
           st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=200)
    def test_identities_on_random_tables(self, tp, fp, tn, fn):
        n = tp + fp + tn + fn
        if n == 0:
            return
        y_true, y_pred = _labels_from_counts(tp, fp, tn, fn)
        m = classification_metrics(y_true, y_pred)
        assert m.mcr * n == pytest.approx(fp + fn)
        if tp + fn > 0:
            assert m.sensitivity * (tp + fn) == pytest.approx(tp)
            assert m.miss_rate == pytest.approx(1.0 - m.sensitivity)
        if tn + fp > 0:
            assert m.specificity * (tn + fp) == pytest.approx(tn)


class TestPmse:
    def test_identical_is_zero(self):
        p = np.array([0.1, 0.9, 0.5])
        assert pmse(p, p) == 0.0

    def test_maximal_case(self):
        assert pmse([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_arithmetic(self):
        assert pmse([0.2, 0.4], [0.3, 0.1]) == pytest.approx(0.05)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pmse([0.5], [0.5, 0.5])


class TestComplementIntervals:
    def test_basic(self):
        assert complement_intervals([(0.3, 0.7)], 1.0) == [(0.0, 0.3),
                                                           (0.7, 1.0)]

    def test_touching_boundary(self):
        assert complement_intervals([(0.0, 0.2), (0.8, 1.0)], 1.0) == [(0.2, 0.8)]

    def test_malformed_interval(self):
        with pytest.raises(ValueError, match="malformed"):
            complement_intervals([(0.5, 0.2)], 1.0)


class TestIse:
    def test_exact_match_gives_zeros(self):
        f = lambda t: np.sin(np.asarray(t))
        i0, i1 = ise(f, f, [(0.3, 0.7)], 1.0)
        assert i0 == 0.0 and i1 == 0.0

    def test_constant_offset(self):
        c = 1.7
        f = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        g = lambda t: np.full_like(np.asarray(t, dtype=float), c)
        i0, i1 = ise(f, g, [(0.3, 0.7)], 1.0)
        assert i0 == pytest.approx(c ** 2, rel=1e-12)
        assert i1 == pytest.approx(c ** 2, rel=1e-12)

    def test_quadratic_scaling_and_symmetry(self):
        f = lambda t: np.sin(2 * np.pi * np.asarray(t))
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        scaled = lambda t: 3.0 * f(t)
        i0a, i1a = ise(f, zero, [(0.2, 0.5)], 1.0)
        i0b, i1b = ise(scaled, zero, [(0.2, 0.5)], 1.0)
        assert i0b == pytest.approx(9 * i0a, rel=1e-10)
        assert i1b == pytest.approx(9 * i1a, rel=1e-10)
        # symmetric in the two curve arguments
        assert ise(zero, f, [(0.2, 0.5)], 1.0) == pytest.approx((i0a, i1a))

    def test_against_fine_trapezoid_oracle(self):
        # one-null truth versus a zero estimate: ISE0 vanishes and ISE1 is
        # the normalized integral of beta^2 over the non-null region
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        nulls = [(0.3, 0.7)]
        i0, i1 = ise(zero, beta_one_null, nulls, 1.0)
        # the truth only vanishes to rounding (sin(pi) ~ 1e-16) at 0.3
        assert i0 < 1e-30
        ref = 0.0
        for a, b in ((0.0, 0.3), (0.7, 1.0)):
            ts = np.linspace(a, b, 1_000_001)
            ref += np.trapezoid(beta_one_null(ts) ** 2, ts)
        assert i1 == pytest.approx(ref / 0.6, rel=1e-6)

    def test_simpson_close_to_finer_trapezoid(self):
        f = lambda t: np.exp(np.asarray(t)) * np.sin(3 * np.asarray(t))
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        i0, _ = ise(f, zero, [(0.1, 0.9)], 1.0)
        ts = np.linspace(0.1, 0.9, 20001)
        ref = np.trapezoid(f(ts) ** 2, ts) / 0.8
        assert i0 == pytest.approx(ref, abs=1e-6)

    def test_overlapping_null_intervals_count_once(self):
        f = lambda t: np.sin(3 * np.asarray(t))
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        overlapping = ise(f, zero, [(0.1, 0.5), (0.3, 0.7)], 1.0)
        assert overlapping == ise(f, zero, [(0.1, 0.7)], 1.0)
        assert overlapping[0] == pytest.approx(0.6995, abs=1e-4)

    def test_zero_length_component_is_none(self):
        f = lambda t: np.asarray(t, dtype=float)
        i0, i1 = ise(f, f, [], 1.0)
        assert i0 is None and i1 is not None
        i0, i1 = ise(f, f, [(0.0, 1.0)], 1.0)
        assert i0 is not None and i1 is None
