import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cyclegait import sieve
from cyclegait.cyclic import TrainerConfig
from reference import ce_loss, entropy, softmax
from cyclegait.sieve import (
    CE_SCALE,
    ENTROPY_SCALE,
    EVIDENCE_FLOOR,
    NoiseScores,
    SieveState,
    adapt_mask,
    detection_stats,
    score_arrays,
)


def score_batch(logits_f, logits_m, labels) -> NoiseScores:
    """Per-row reference for score_arrays: scores one sample at a time."""
    rows = []
    for lf, lm, y in zip(logits_f, logits_m, labels):
        ce, _ = ce_loss(lf, int(y))
        ce_m, _ = ce_loss(lm, int(y))
        agree = int(np.argmax(lf)) == int(np.argmax(lm))
        chance = np.log(len(lf))
        rows.append((entropy(softmax(lm)), ce, agree, agree and ce > chance and ce_m > chance))
    return NoiseScores(*(np.array(col) for col in zip(*rows)))


def score_one(logits_f, logits_m, label):
    """Scores of a one-sample batch, as plain Python values."""
    s = score_arrays(np.array([logits_f], dtype=float), np.array([logits_m], dtype=float), [label])
    return NoiseScores(*(v.item() for v in s))


class TestScoreBatch:
    def test_clean_confident_sample(self):
        sharp = [50.0, 0.0, 0.0]
        s = score_one(sharp, sharp, 0)
        assert s.entropy < 1e-8
        assert s.ce < 1e-8
        assert s.agree

    def test_uniform_teacher_max_entropy(self):
        s = score_one([1.0, 0.0], [0.5, 0.5], 0)
        assert abs(s.entropy - math.log(2.0)) < 1e-12

    def test_argmax_disagreement(self):
        assert not score_one([1.0, 0.0], [0.0, 1.0], 0).agree

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_arrays(np.array([[1.0, 0.0]]), np.zeros((0, 2)), [0])
        with pytest.raises(ValueError):
            score_arrays(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), [0, 1])

    def test_ruled_out_needs_both_networks_below_chance(self):
        # both networks put the label (class 0) far below chance 1/3 and
        # agree on class 1: the label is contradicted
        wrong = [0.0, 8.0, 4.0]
        assert score_one(wrong, wrong, 0).ruled_out
        # a hard sample whose label is the runner-up keeps its label plausible
        runner_up = [2.0, 2.5, -3.0]
        s = score_one(runner_up, runner_up, 0)
        assert s.agree and not s.ruled_out
        # only one network ruling the label out is not enough
        s = score_one(wrong, runner_up, 0)
        assert s.agree and not s.ruled_out

    def test_array_version_matches(self, rng):
        p_f = rng.normal(size=(5, 4))
        p_m = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        listed = score_batch(p_f, p_m, labels)
        arrayed = score_arrays(p_f, p_m, labels)
        assert np.all(np.abs(listed.entropy - arrayed.entropy) < 1e-10)
        assert np.all(np.abs(listed.ce - arrayed.ce) < 1e-10)
        assert np.array_equal(listed.agree, arrayed.agree)
        assert np.array_equal(listed.ruled_out, arrayed.ruled_out)


def make_scores(entropies, ces, agrees, ruled_out=True):
    """NoiseScores from per-sample lists.

    By default every sample is flagged ruled out, so the running evidence is
    1 > EVIDENCE_FLOOR from the first batch on and the CE/entropy rule alone
    decides the mask; the evidence-gate tests pass explicit flags.
    """
    n = len(ces)
    return NoiseScores(
        np.array(entropies, dtype=float),
        np.array(ces, dtype=float),
        np.array(agrees, dtype=bool),
        np.broadcast_to(np.asarray(ruled_out, dtype=bool), (n,)).copy(),
    )


class TestAdaptMask:
    def test_warmup_keeps_everything(self):
        warmup = 3
        state = SieveState()
        # sample 1 is confident-wrong: sharp, agreeing, huge CE
        mixed = make_scores([0.1, 0.1], [0.1, 9.0], [True, True])
        for _ in range(3):
            mask, state = adapt_mask(mixed, state, warmup)
            assert mask.all()
        mask, state = adapt_mask(mixed, state, warmup)  # past warmup: outlier filtered
        assert mask.tolist() == [True, False]

    def test_agreement_gate_defers_activation(self):
        # while the two networks disagree the scores are uninformative and
        # nothing may be masked, regardless of warmup having elapsed
        warmup = 1
        state = SieveState()
        disagreeing = make_scores([0.1, 9.0], [0.1, 9.0], [False, False])
        for _ in range(5):
            mask, state = adapt_mask(disagreeing, state, warmup)
            assert mask.all()
        assert not state.active
        agreeing = make_scores([0.1, 0.1], [0.1, 9.0], [True, True])
        mask, state = adapt_mask(agreeing, state, warmup)
        assert state.active
        assert mask.tolist() == [True, False]
        # activation is sticky: a later uninformative-wrong sample is masked
        mask, state = adapt_mask(disagreeing, state, warmup)
        assert mask.tolist() == [True, False]

    def test_hard_but_uncertain_samples_are_kept(self):
        warmup = 1
        state = SieveState()
        batch = make_scores([0.1, 0.1], [0.1, 0.2], [True, True])
        _, state = adapt_mask(batch, state, warmup)
        _, state = adapt_mask(batch, state, warmup)
        assert state.active
        # high CE but flat prediction while the networks agree: hard, not noisy
        hard = make_scores([0.1, 5.0], [0.1, 9.0], [True, True])
        mask, _ = adapt_mask(hard, state, warmup)
        assert mask.tolist() == [True, True]

    def test_two_group_batch_masks_the_uninformative_half(self):
        # two near-perfect samples vs two uniform disagreeing ones; thresholds
        # sit strictly between the groups since running means are convex mixes
        # of batch means
        ln_c = math.log(4.0)
        ent = [0.001, 0.001, ln_c, ln_c]
        ce = [0.001, 0.001, ln_c, ln_c + 0.01]
        agree = [True, True, False, False]
        warmup = 1
        state = SieveState()
        mask, state = adapt_mask(make_scores(ent, ce, agree), state, warmup)  # warmup pass
        assert mask.tolist() == [True, True, True, True]
        mask, state = adapt_mask(make_scores(ent, ce, agree), state, warmup)
        assert mask.tolist() == [True, True, False, False]

    def test_identical_scores_all_kept(self):
        warmup = 1
        state = SieveState()
        scores = make_scores([0.5] * 4, [0.7] * 4, [True] * 4)
        _, state = adapt_mask(scores, state, warmup)
        mask, _ = adapt_mask(scores, state, warmup)
        assert mask.all()

    def test_minimum_ce_sample_always_kept(self, monkeypatch):
        monkeypatch.setattr(sieve, "CE_SCALE", 1.0)
        warmup = 1
        state = SieveState()
        good = make_scores([0.01, 0.01], [0.01, 0.02], [True, True])
        _, state = adapt_mask(good, state, warmup)
        _, state = adapt_mask(good, state, warmup)  # past warmup with agreement: active
        assert state.active
        # both uninformative-wrong: flat, disagreeing, huge CE
        terrible = make_scores([5.0, 6.0], [5.0, 4.0], [False, False])
        mask, _ = adapt_mask(terrible, state, warmup)
        assert mask.tolist() == [False, True]  # index 1 has the smaller CE

    def test_deterministic(self):
        warmup = 0
        scores = make_scores([0.1, 0.9, 0.5], [0.2, 0.8, 0.5], [True, False, True])
        m1, s1 = adapt_mask(scores, SieveState(), warmup)
        m2, s2 = adapt_mask(scores, SieveState(), warmup)
        assert np.array_equal(m1, m2)
        assert s1 == s2

    def test_running_means_smooth(self, monkeypatch):
        monkeypatch.setattr(sieve, "SMOOTHING", 0.9)
        warmup = 0
        state = SieveState()
        _, state = adapt_mask(make_scores([1.0], [2.0], [True]), state, warmup)
        assert state.mean_entropy == 1.0 and state.mean_ce == 2.0
        _, state = adapt_mask(make_scores([2.0], [4.0], [True]), state, warmup)
        assert abs(state.mean_entropy - (0.9 * 1.0 + 0.1 * 2.0)) < 1e-12
        assert abs(state.mean_ce - (0.9 * 2.0 + 0.1 * 4.0)) < 1e-12

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            adapt_mask(make_scores([], [], []), SieveState(), 0)

    @pytest.mark.parametrize("name, value", [("sieve_warmup", -1)])
    def test_out_of_range_knobs_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainerConfig(**{name: value})


class TestKeepFloor:
    """The keep floor, one indexed assignment in adapt_mask, against the
    sample-by-sample loop of reference.keep_floor."""

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0.5, 1.0, 2.0]),  # entropy around its running mean 1
                st.sampled_from([0.0, 0.5, 2.0, 3.0, 3.0 + 1e-12]),  # CE, with ties
                st.booleans(),  # agreement
            ),
            min_size=1, max_size=12,
        ),
        keep_floor=st.floats(0.01, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_sample_loop(self, rows, keep_floor):
        ent, ce, agree = (np.array(col) for col in zip(*rows))
        state = SieveState(mean_entropy=1.0, mean_ce=1.0, mean_ruled_out=1.0,
                           iteration=0, active=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sieve, "KEEP_FLOOR", keep_floor)
            mask, _ = adapt_mask(make_scores(ent, ce, agree), state, 0)
        high_ce = ce > CE_SCALE * state.mean_ce
        sharp = ent <= ENTROPY_SCALE * state.mean_entropy
        unfloored = ~((agree & sharp & high_ce) | (~agree & ~sharp & high_ce))
        floor_n = max(1, math.ceil(keep_floor * len(ce)))
        assert mask.tolist() == reference.keep_floor(unfloored, ce, floor_n).tolist()


class TestEvidenceGate:
    # a batch of 32: the last two samples are confident-wrong under the CE
    # rule (sharp, agreeing, CE far above the mean); a ruled-out share of
    # 1/32 is one flagged sample in this batch. The entropy is a power of two,
    # so its batch mean is exact and every sample sits on the sharp side.
    B = 32
    ENT = [0.125] * B
    CE = [0.1] * (B - 2) + [9.0, 9.0]
    AGREE = [True] * B
    WARMUP = 1

    def batch(self, n_ruled_out=0):
        flags = [False] * (self.B - n_ruled_out) + [True] * n_ruled_out
        return make_scores(self.ENT, self.CE, self.AGREE, flags)

    def test_hard_clean_samples_kept_without_contradiction(self):
        # the high-CE pair looks confident-wrong, but no network rules its
        # label out: hard clean samples, and the sieve must keep them
        state = SieveState()
        for _ in range(20):
            mask, state = adapt_mask(self.batch(), state, self.WARMUP)
            assert mask.all()
        assert state.active and state.mean_ruled_out == 0.0

    def test_sporadic_contradictions_stay_below_the_floor(self):
        # one contradicted label every fourth batch is a share of 1/32 in that
        # batch but only about 1/128 on the running mean
        state = SieveState()
        for k in range(40):
            mask, state = adapt_mask(self.batch(1 if k % 4 == 3 else 0), state, self.WARMUP)
            assert mask.all()
            assert state.mean_ruled_out < EVIDENCE_FLOOR

    def test_contradicted_labels_are_masked_once_evidence_accumulates(self):
        state = SieveState()
        mask, state = adapt_mask(self.batch(1), state, self.WARMUP)  # warmup
        assert mask.all() and state.mean_ruled_out == EVIDENCE_FLOOR
        mask, state = adapt_mask(self.batch(1), state, self.WARMUP)
        assert mask.tolist() == [True] * (self.B - 2) + [False, False]

    def test_evidence_is_a_share_of_the_batch(self):
        # the same share of contradicted labels gives the same running
        # evidence at every batch size, and a smaller share keeps the gate shut
        small = self.batch(1)
        large = NoiseScores(*(np.concatenate([v, v]) for v in small))
        _, state_small = adapt_mask(small, SieveState(), self.WARMUP)
        _, state_large = adapt_mask(large, SieveState(), self.WARMUP)
        assert state_small.mean_ruled_out == state_large.mean_ruled_out == EVIDENCE_FLOOR
        mask, _ = adapt_mask(large, state_large, self.WARMUP)
        assert not mask.all()
        diluted = NoiseScores(*(np.concatenate([v, w]) for v, w in zip(small, self.batch())))
        _, state = adapt_mask(diluted, SieveState(), self.WARMUP)
        assert state.mean_ruled_out == EVIDENCE_FLOOR / 2
        mask, _ = adapt_mask(diluted, state, self.WARMUP)
        assert mask.all()

    def test_gate_closes_when_evidence_fades(self, monkeypatch):
        monkeypatch.setattr(sieve, "SMOOTHING", 0.5)
        warmup = 0
        state = SieveState()
        _, state = adapt_mask(self.batch(2), state, warmup)
        mask, state = adapt_mask(self.batch(2), state, warmup)
        assert not mask.all()
        # 1/16 -> 1/32 (the floor still holds) -> 1/64: the gate shuts again
        for _ in range(2):
            mask, state = adapt_mask(self.batch(), state, warmup)
            assert not mask.all()
        assert state.mean_ruled_out < EVIDENCE_FLOOR
        mask, state = adapt_mask(self.batch(), state, warmup)
        assert mask.all()


def test_detection_stats():
    mask = np.array([True, False, False, True])
    flags = ["clean", "label-noise", "clean", "label-noise"]
    stats = detection_stats(mask, flags)
    assert stats["masked"] == 2
    assert stats["precision"] == 0.5
    assert stats["recall"] == 0.5
    assert stats["kept_fraction"] == 0.5
