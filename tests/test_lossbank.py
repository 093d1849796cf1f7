import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_grad_close
from cyclegait.lossbank import (
    BatchStructureError,
    CoeffSchedule,
    Ramp,
    batch_ce,
    batch_coteach,
    batch_mil_loss,
    crc_combine,
    has_valid_triplet,
    per_sample_ce,
    triplet_loss,
)
from reference import ce_loss, coteach_loss, cube_triplet_loss, entropy, mil_loss, softmax

# oracle-confirmed constants, frozen from direct high-precision evaluation
COTEACH_OPPOSED = 1.0443203  # softmax([1,0]) cross-entropy against softmax([0,1])
MIL_EXAMPLE = 0.6802697  # -ln(e / (e + 1 + e^0.5))


def fd_vector(loss_of_vec, v, step=1e-6):
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros_like(v)
    for i in range(v.size):
        plus, minus = v.copy(), v.copy()
        plus[i] += step
        minus[i] -= step
        out[i] = (loss_of_vec(plus) - loss_of_vec(minus)) / (2.0 * step)
    return out


class TestCoteachLoss:
    def test_uniform_case_is_ln2(self):
        loss, _, _ = coteach_loss([0.0, 0.0], [0.0, 0.0])
        assert abs(loss - math.log(2.0)) < 1e-10

    def test_monotone_decreasing_in_agreement_margin(self):
        losses = [coteach_loss([m, 0.0], [m, 0.0])[0] for m in (0.0, 1.0, 3.0, 10.0)]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-3

    def test_frozen_opposed_value(self):
        loss, _, _ = coteach_loss([1.0, 0.0], [0.0, 1.0])
        assert abs(loss - COTEACH_OPPOSED) < 1e-6
        assert abs(loss - 1.044324) < 1e-5  # coarser hand evaluation

    def test_equal_inputs_give_entropy(self):
        v = [0.3, -1.2, 2.0]
        loss, _, _ = coteach_loss(v, v)
        assert abs(loss - entropy(softmax(v))) < 1e-12

    def test_gibbs_inequality(self, rng):
        for _ in range(50):
            p_m = rng.normal(size=5)
            p_f = rng.normal(size=5)
            loss, _, _ = coteach_loss(p_m, p_f)
            assert loss >= entropy(softmax(p_m)) - 1e-12

    def test_gradients_match_fd(self, rng):
        p_m = rng.normal(size=6)
        p_f = rng.normal(size=6)
        _, grad_f, grad_m = coteach_loss(p_m, p_f)
        fd_f = fd_vector(lambda v: coteach_loss(p_m, v)[0], p_f)
        fd_m = fd_vector(lambda v: coteach_loss(v, p_f)[0], p_m)
        for a, n in zip(grad_f, fd_f):
            assert_grad_close(a, n)
        for a, n in zip(grad_m, fd_m):
            assert_grad_close(a, n)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coteach_loss([1.0, 2.0], [1.0, 2.0, 3.0])


class TestCeLoss:
    def test_uniform_logits(self):
        loss, _ = ce_loss([0.0] * 4, 2)
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_limiting_confident_correct(self):
        loss, _ = ce_loss([50.0, 0.0], 0)
        assert loss < 1e-12

    def test_frozen_value(self):
        loss, _ = ce_loss([1.0, 2.0, 3.0], 2)
        assert abs(loss - 0.407606) < 1e-5

    def test_grad_sums_to_zero(self, rng):
        _, grad = ce_loss(rng.normal(size=7), 3)
        assert abs(grad.sum()) < 1e-12

    def test_grad_matches_fd(self, rng):
        p = rng.normal(size=5)
        _, grad = ce_loss(p, 1)
        fd = fd_vector(lambda v: ce_loss(v, 1)[0], p)
        for a, n in zip(grad, fd):
            assert_grad_close(a, n)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            ce_loss([1.0, 2.0], 2)


class TestTripletLoss:
    def test_all_identical_gives_margin(self):
        e = np.zeros((4, 3))
        labels = [0, 0, 1, 1]
        loss, _ = triplet_loss(e, labels, margin=0.2)
        assert abs(loss - 0.2) < 1e-12

    def test_separated_clusters_give_zero(self):
        e = np.array([[0.0], [0.1], [1.0], [1.1]])
        labels = [0, 0, 1, 1]
        loss, grad = triplet_loss(e, labels, margin=0.2)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(e))

    def test_hand_enumerated_case(self):
        # 8 triplets, every hinge 0.1 - d_an + 0.2 with d_an in {0.9, 1.0, 1.1}: all negative
        e = np.array([[0.0], [0.1], [1.0], [1.1]])
        loss, _ = triplet_loss(e, [0, 0, 1, 1], margin=0.2)
        assert loss == 0.0

    def test_active_mean_against_bruteforce(self, rng):
        e = rng.normal(size=(8, 4))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        loss, _ = triplet_loss(e, labels, margin=0.5)
        # brute-force oracle
        dist = np.linalg.norm(e[:, None] - e[None, :], axis=2)
        hinges = []
        for a in range(8):
            for p in range(8):
                if p == a or labels[p] != labels[a]:
                    continue
                for n in range(8):
                    if labels[n] == labels[a]:
                        continue
                    h = dist[a, p] - dist[a, n] + 0.5
                    if h > 0:
                        hinges.append(h)
        expected = float(np.mean(hinges)) if hinges else 0.0
        assert abs(loss - expected) < 1e-10

    def test_grad_matches_fd(self, rng):
        e = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        _, grad = triplet_loss(e, labels, margin=0.4)

        def loss_at(flat):
            l, _ = triplet_loss(flat.reshape(6, 3), labels, margin=0.4)
            return l

        fd = fd_vector(loss_at, e.ravel()).reshape(6, 3)
        for a, n in zip(grad.ravel(), fd.ravel()):
            assert_grad_close(a, n)

    def test_no_valid_triplet_rejected(self):
        with pytest.raises(BatchStructureError):
            triplet_loss(np.zeros((3, 2)), [0, 1, 2])
        with pytest.raises(BatchStructureError):
            triplet_loss(np.zeros((3, 2)), [1, 1, 1])

    @pytest.mark.parametrize("labels", [[], [4], [7, 7, 7, 7], [0, 1, 2, 3],
                                        [2**40, 5, -3], [-1, -1]])
    def test_invalid_batches(self, labels):
        """Empty, one sample, a single class, all singletons (also with large
        and negative ids), and a lone pair: no triplet can form."""
        assert not has_valid_triplet(labels)
        assert not has_valid_triplet(np.array(labels, dtype=np.int64))
        with pytest.raises(BatchStructureError):
            triplet_loss(np.zeros((len(labels), 2)), labels)

    @pytest.mark.parametrize("labels", [[0, 0, 1], [9, 3, 9], [2**40, 2**40, 1],
                                        [-7, 2**62, -7, 5]])
    def test_valid_batches_with_sparse_ids(self, labels):
        """Only equality of ids counts: large and negative ids give the loss
        of the same batch relabelled 0, 1, 2, ... bit for bit."""
        assert has_valid_triplet(labels)
        e = np.random.default_rng(3).normal(size=(len(labels), 3))
        dense = np.unique(labels, return_inverse=True)[1]
        loss, grad = triplet_loss(e, labels, margin=5.0)
        loss_dense, grad_dense = triplet_loss(e, dense, margin=5.0)
        assert loss > 0.0
        assert loss == loss_dense and np.array_equal(grad, grad_dense)


def exact_min_distance(e) -> float:
    """Smallest distance between two rows that differ, from the differences."""
    d = np.linalg.norm(e[:, None, :] - e[None, :, :], axis=2)
    return float(d[d > 0.0].min()) if (d > 0.0).any() else 1.0


class TestTripletMatchesCubeOracle:
    """triplet_loss against the (B, B, d) cube form it replaced: the loss
    bit for bit, the gradient within 1e-12 relative to max|e| / d_min. The
    matrix form adds terms w[i, j] e_j whose weights reach 1/d_min, so that
    is the size its rounding scales with."""

    @staticmethod
    def assert_matches(e, labels, margin):
        loss, grad = triplet_loss(e, labels, margin)
        loss_ref, grad_ref = cube_triplet_loss(e, labels, margin)
        assert loss == loss_ref
        atol = 1e-12 * max(np.abs(e).max(), 1e-300) / exact_min_distance(e)
        assert np.allclose(grad, grad_ref, rtol=1e-12, atol=atol)

    @given(
        n_classes=st.integers(2, 5),
        per_class=st.lists(st.integers(1, 4), min_size=2, max_size=5),
        d=st.integers(1, 6),
        scale=st.sampled_from([0.05, 0.3, 1.0, 4.0]),
        margin=st.sampled_from([0.1, 0.5, 2.0]),
        n_dup=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_batches(self, n_classes, per_class, d, scale, margin, n_dup, seed):
        rng = np.random.default_rng(seed)
        labels = np.repeat(rng.permutation(n_classes * 3)[: len(per_class)], per_class)
        e = rng.normal(scale=scale, size=(len(labels), d))
        for _ in range(n_dup):  # zero-distance duplicates, in or across classes
            src, dst = rng.integers(len(labels), size=2)
            e[dst] = e[src]
        if not has_valid_triplet(labels):
            with pytest.raises(BatchStructureError):
                triplet_loss(e, labels, margin)
            return
        self.assert_matches(e, labels, margin)

    def test_all_rows_equal(self):
        e = np.tile(np.random.default_rng(1).normal(size=(1, 5)), (6, 1))
        loss, grad = triplet_loss(e, [0, 0, 1, 1, 2, 2], margin=0.3)
        assert loss == 0.3 and np.array_equal(grad, np.zeros_like(e))
        self.assert_matches(e, [0, 0, 1, 1, 2, 2], 0.3)

    def test_duplicated_positive_with_active_negatives(self):
        """Two equal rows of one class whose negatives all sit inside the
        margin: the pair's Gram distance is rounding noise, so it must add
        no gradient, as the cube's exact zero difference adds none."""
        rng = np.random.default_rng(7)
        for d in (2, 3, 8, 32):
            for _ in range(10):
                e = rng.normal(scale=0.1, size=(12, d))
                e[1] = e[0]
                self.assert_matches(e, np.repeat(np.arange(4), 3), 0.2)

    def test_default_training_shape(self, rng):
        e = rng.normal(size=(32, 32))
        e[9] = e[8]
        self.assert_matches(e, np.repeat(np.arange(8), 4), 0.2)


class TestMilLoss:
    def test_empty_negatives_give_zero(self):
        loss, gq, gp, gn = mil_loss([1.0, 0.0], [[0.5, 0.5]], [])
        assert loss == 0.0

    def test_symmetric_case_is_ln2(self):
        loss, *_ = mil_loss([1.0, 0.0], [[0.3, 0.1]], [[0.3, 0.1]])
        assert abs(loss - math.log(2.0)) < 1e-10

    def test_frozen_value(self):
        # q.k+ = 1.0, q.k- = {0.0, 0.5}; oracle: -ln(e / (e + 1 + e^0.5))
        loss, *_ = mil_loss([1.0, 0.0], [[1.0, 0.0]], [[0.0, 1.0], [0.5, 0.3]])
        assert abs(loss - MIL_EXAMPLE) < 1e-6

    def test_monotonicity_by_perturbation(self):
        q = np.array([1.0, 0.0])
        pos = np.array([[0.8, 0.1]])
        neg = np.array([[0.2, 0.5], [0.1, -0.3]])
        base, *_ = mil_loss(q, pos, neg)
        up_pos, *_ = mil_loss(q, pos + [[0.05, 0.0]], neg)
        up_neg, *_ = mil_loss(q, pos, neg + [[0.05, 0.0], [0.0, 0.0]])
        assert up_pos < base  # higher positive similarity lowers the loss
        assert up_neg > base  # higher negative similarity raises it

    def test_grads_match_fd(self, rng):
        q = rng.normal(size=4)
        pos = rng.normal(size=(2, 4))
        neg = rng.normal(size=(3, 4))
        _, gq, gp, gn = mil_loss(q, pos, neg, temperature=0.7)
        fd_q = fd_vector(lambda v: mil_loss(v, pos, neg, 0.7)[0], q)
        for a, n in zip(gq, fd_q):
            assert_grad_close(a, n)
        fd_p = fd_vector(
            lambda v: mil_loss(q, v.reshape(2, 4), neg, 0.7)[0], pos.ravel()
        ).reshape(2, 4)
        for a, n in zip(gp.ravel(), fd_p.ravel()):
            assert_grad_close(a, n)
        fd_n = fd_vector(
            lambda v: mil_loss(q, pos, v.reshape(3, 4), 0.7)[0], neg.ravel()
        ).reshape(3, 4)
        for a, n in zip(gn.ravel(), fd_n.ravel()):
            assert_grad_close(a, n)

    def test_zero_positives_rejected(self):
        with pytest.raises(BatchStructureError):
            mil_loss([1.0, 0.0], [], [[0.0, 1.0]])

    def test_batch_mil_grads_match_fd(self, rng):
        e = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        _, grad, n_q = batch_mil_loss(e, labels)
        assert n_q == 6

        def loss_at(flat):
            l, _, _ = batch_mil_loss(flat.reshape(6, 3), labels)
            return l

        fd = fd_vector(loss_at, e.ravel()).reshape(6, 3)
        for a, n in zip(grad.ravel(), fd.ravel()):
            assert_grad_close(a, n)

    def test_batch_mil_skips_positive_free_queries(self, rng):
        e = rng.normal(size=(3, 2))
        labels = np.array([0, 0, 1])  # the lone '1' cannot be a query
        _, _, n_q = batch_mil_loss(e, labels)
        assert n_q == 2


class TestLossBreakdown:
    def test_as_dict_is_a_copy_in_field_order(self):
        bd = crc_combine(1.0, 2.0, 3.0, 4.0, CoeffSchedule.constants(), 0)
        d = bd.as_dict()
        assert list(d) == [f.name for f in dataclasses.fields(bd)]
        assert d == dataclasses.asdict(bd)
        d["l_c"] = 99.0
        assert bd.l_c == 1.0

    def test_is_finite(self):
        sched = CoeffSchedule.constants()
        assert crc_combine(1.0, 2.0, 3.0, 4.0, sched, 0).is_finite()
        assert not crc_combine(1.0, float("nan"), 3.0, 4.0, sched, 0).is_finite()
        assert not crc_combine(1.0, 2.0, float("inf"), 4.0, sched, 0).is_finite()


class TestSchedulesAndCombine:
    def test_null_combination(self):
        sched = CoeffSchedule.constants(0.0, 0.0, 0.0, 0.0)
        bd = crc_combine(1.0, 2.0, 3.0, 4.0, sched, 0)
        assert bd.l_crc == 0.0

    def test_projection(self):
        sched = CoeffSchedule.constants(1.0, 0.0, 0.0, 0.0)
        bd = crc_combine(1.7, 2.0, 3.0, 4.0, sched, 5)
        assert bd.l_crc == 1.7

    def test_reference_coefficients_arithmetic(self):
        sched = CoeffSchedule.constants(0.1, 1.0, 0.1, 0.1)
        bd = crc_combine(1.0, 2.0, 3.0, 4.0, sched, 0)
        assert abs(bd.l_crc - 2.8) < 1e-12

    def test_breakdown_identity_invariant(self, rng):
        sched = CoeffSchedule.noisy_default(1000)
        for it in (0, 1, 250, 500, 999, 5000):
            parts = rng.uniform(0, 3, size=4)
            bd = crc_combine(*parts, sched, it)
            recomputed = (
                bd.sigma0 * bd.l_c + bd.sigma1 * bd.l_ce + bd.sigma2 * bd.l_tri + bd.sigma3 * bd.l_mil
            )
            assert abs(bd.l_crc - recomputed) < 1e-10

    def test_linear_in_each_component(self):
        sched = CoeffSchedule.constants(0.3, 0.5, 0.7, 0.9)
        base = crc_combine(1.0, 1.0, 1.0, 1.0, sched, 0).l_crc
        bumped = crc_combine(2.0, 1.0, 1.0, 1.0, sched, 0).l_crc
        assert abs((bumped - base) - 0.3) < 1e-12

    def test_ramp_shape(self):
        r = Ramp(0.01, 0.1, 100)
        assert r.value(0) == 0.01
        assert abs(r.value(50) - 0.055) < 1e-12
        assert r.value(100) == 0.1
        assert r.value(10_000) == 0.1

    def test_noisy_profile_endpoints(self):
        sched = CoeffSchedule.noisy_default(1000)
        s0, s1, s2, s3 = sched.at(0)
        assert (s0, s1, s2, s3) == (0.01, 1.0, 0.01, 0.01)
        s0, s1, s2, s3 = sched.at(500)
        assert (s0, s1, s2, s3) == (0.1, 1.0, 0.1, 0.1)
        assert sched.at(5000) == CoeffSchedule.clean_default().at(0)


class TestBatchHelpersAgreeWithScalarOps:
    def test_batch_coteach_matches_scalar(self, rng):
        p_m = rng.normal(size=(5, 4))
        p_f = rng.normal(size=(5, 4))
        loss, gf, gm = batch_coteach(p_m, p_f)
        per = [coteach_loss(p_m[i], p_f[i]) for i in range(5)]
        assert abs(loss - np.mean([x[0] for x in per])) < 1e-12
        assert np.allclose(gf, np.stack([x[1] for x in per]) / 5.0, atol=1e-12)
        assert np.allclose(gm, np.stack([x[2] for x in per]) / 5.0, atol=1e-12)

    def test_batch_ce_matches_scalar(self, rng):
        p = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        loss, grad = batch_ce(p, labels)
        per = [ce_loss(p[i], int(labels[i])) for i in range(6)]
        assert abs(loss - np.mean([x[0] for x in per])) < 1e-12
        assert np.allclose(grad, np.stack([x[1] for x in per]) / 6.0, atol=1e-12)
        per_sample = per_sample_ce(p, labels)
        assert np.allclose(per_sample, [x[0] for x in per], atol=1e-12)
        assert loss == float(per_sample.mean())
