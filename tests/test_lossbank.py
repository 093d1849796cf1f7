import math

import numpy as np
import pytest

from conftest import assert_grad_close
from cyclegait.lossbank import (
    BatchStructureError,
    CoeffSchedule,
    Ramp,
    batch_ce,
    batch_coteach,
    batch_mil_loss,
    coteach_loss,
    crc_combine,
    mil_loss,
    triplet_loss,
)
from cyclegait.numkit import softmax
from reference import ce_loss, entropy

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

    def test_detached_teacher_gets_zero_grad(self, rng):
        _, _, grad_m = coteach_loss(rng.normal(size=4), rng.normal(size=4), detach_teacher=True)
        assert np.array_equal(grad_m, np.zeros(4))

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
