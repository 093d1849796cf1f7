import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclegait.numkit import RngStream, softmax
from reference import entropy


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_shift_invariance_constant_vector(self):
        for c in (-1e6, -3.2, 0.0, 7.5, 1e6):
            assert np.allclose(softmax([c] * 4), [0.25] * 4, atol=1e-15)

    def test_frozen_value(self):
        # oracle: direct high-precision evaluation of exp / sum
        expected = np.exp([1.0, 2.0, 3.0])
        expected /= expected.sum()
        got = softmax([1.0, 2.0, 3.0])
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, [0.090031, 0.244728, 0.665241], atol=1e-5)

    def test_sums_to_one_and_nonnegative(self):
        v = np.array([100.0, -50.0, 3.0, 700.0])
        p = softmax(v)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax([1.0, np.inf])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12),
           st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance_property(self, logits, shift):
        base = softmax(logits)
        shifted = softmax(np.asarray(logits) + shift)
        assert np.max(np.abs(base - shifted)) < 1e-12


class TestEntropy:
    def test_one_hot(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_uniform_is_log_c(self):
        for c in (2, 3, 7, 41):
            assert abs(entropy([1.0 / c] * c) - math.log(c)) < 1e-12

    def test_frozen_value(self):
        # oracle: direct evaluation of -sum p ln p
        expected = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
        assert abs(entropy([0.8, 0.2]) - expected) < 1e-12
        assert abs(entropy([0.8, 0.2]) - 0.500402) < 1e-5

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            entropy([1.2, -0.2])

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_entropy_of_softmax_bounded(self, logits):
        assert entropy(softmax(logits)) <= math.log(len(logits)) + 1e-12


class TestRngStream:
    def test_replay_first_10000(self):
        a, _ = RngStream(99, 5).uniform(10_000)
        b, _ = RngStream(99, 5).uniform(10_000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a, _ = RngStream(99, 5).uniform(1000)
        b, _ = RngStream(99, 6).uniform(1000)
        assert not np.array_equal(a, b)
        # crude independence: low correlation
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_draws_advance(self):
        s = RngStream(1, 2)
        a, s2 = s.normal(100)
        b, _ = s2.normal(100)
        assert not np.array_equal(a, b)

    def test_immutability(self):
        s = RngStream(1, 2)
        s.uniform(10)
        a, _ = s.uniform(10)
        b, _ = s.uniform(10)
        assert np.array_equal(a, b)  # drawing never mutates the stream object

    def test_children_independent(self):
        s = RngStream(3)
        a, _ = s.child(1).uniform(500)
        b, _ = s.child(2).uniform(500)
        assert not np.array_equal(a, b)

    def test_choice_without_replacement(self):
        vals, _ = RngStream(4).choice(10, 10)
        assert sorted(vals.tolist()) == list(range(10))

    def test_large_draw_does_not_collide_with_next(self):
        s = RngStream(5)
        big, s2 = s.uniform(400_000)
        nxt, _ = s2.uniform(100)
        # the follow-up draw must not replay any tail of the big draw
        assert not np.array_equal(big[-100:], nxt)

