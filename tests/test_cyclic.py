import math

import numpy as np
import pytest

from cyclegait import cyclic, gaugekit
from cyclegait.cyclic import (
    TrainerConfig,
    TrainState,
    build_schedule,
    group_by_identity,
    init_state,
    pxk_sampler,
    read_trace,
    run_training,
    train_iteration,
)
from cyclegait.gaitgen import make_benchmark
from cyclegait.numkit import RngStream
from cyclegait.setnet import EncoderShape, OptimizerConfig, ema_transfer
from reference import padded_backward_batch, padded_forward_batch

TINY_OPT = OptimizerConfig(lr=0.05, milestones=())


def tiny_bundle(seed=2):
    return make_benchmark(
        n_ids=8,
        n_train_ids=6,
        n_views=2,
        condition_groups={"NM": 2, "BG": 1, "CL": 1},
        frames_per_seq=6,
        d_in=8,
        seed=seed,
    )


def tiny_config(**kwargs):
    defaults = dict(
        mode="cyclic",
        iterations=5,
        p_ids=3,
        k_seqs=2,
        momentum=0.9,
        d_hidden=8,
        d_emb=4,
        optimizer=TINY_OPT,
        augmentation="default",
        seed=11,
    )
    defaults.update(kwargs)
    return TrainerConfig(**defaults)


class TestSampler:
    def test_exhaustive_two_by_two(self):
        bundle = tiny_bundle()
        two_ids = [s for s in bundle.train if s.identity in (0, 1)]
        batch, _ = pxk_sampler(two_ids, 2, 2, RngStream(1))
        assert len(batch) == 4
        ids = [s.identity for s in batch]
        assert ids.count(0) == 2 and ids.count(1) == 2

    def test_replacement_when_identity_is_short(self):
        bundle = tiny_bundle()
        one_seq = [next(s for s in bundle.train if s.identity == 0)]
        other = [s for s in bundle.train if s.identity == 1]
        batch, _ = pxk_sampler(one_seq + other, 2, 4, RngStream(1))
        zero_frames = [s.frames for s in batch if s.identity == 0]
        assert len(zero_frames) == 4
        assert all(np.array_equal(zero_frames[0], f) for f in zero_frames)

    def test_too_few_identities_rejected(self):
        bundle = tiny_bundle()
        two_ids = [s for s in bundle.train if s.identity in (0, 1)]
        with pytest.raises(ValueError):
            pxk_sampler(two_ids, 3, 2, RngStream(1))

    def test_identity_frequency_uniform(self):
        bundle = tiny_bundle()
        groups = group_by_identity(bundle.train)
        n_ids = len(groups)
        counts = dict.fromkeys(groups, 0)
        rng = RngStream(123)
        draws = 10_000
        p = 2
        for _ in range(draws):
            batch, rng = pxk_sampler(groups, p, 2, rng)
            for ident in {s.identity for s in batch}:
                counts[ident] += 1
        expected = draws * p / n_ids
        se = math.sqrt(draws * (p / n_ids) * (1 - p / n_ids))
        for ident, c in counts.items():
            assert abs(c - expected) <= 3 * se, f"id {ident}: {c} vs {expected}"
        # chi-square sanity: statistic within a generous bound for 5 dof
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 30.0


class TestTrainIteration:
    def _state_and_batch(self, config, bundle=None):
        bundle = bundle or tiny_bundle()
        shape = EncoderShape(d_in=bundle.d_in, d_hidden=config.d_hidden,
                             d_emb=config.d_emb, n_classes=bundle.n_train_classes)
        state = init_state(config, shape)
        batch, state.rng_sampler = pxk_sampler(
            bundle.train, config.p_ids, config.k_seqs, state.rng_sampler
        )
        return state, batch

    def test_null_teacher_update(self):
        # sigma0 = 0 and m = 1: the memorizing network must not move at all
        config = tiny_config(momentum=1.0, sigma0_const=0.0)
        schedule = build_schedule(config)
        state, batch = self._state_and_batch(config)
        before = state.params_m.flat.copy()
        train_iteration(batch, state, config, schedule, 1)
        assert np.array_equal(state.params_m.flat, before)

    def test_zero_lr_isolates_ema(self):
        config = tiny_config(optimizer=OptimizerConfig(lr=0.0, milestones=()))
        schedule = build_schedule(config)
        state, batch = self._state_and_batch(config)
        f_before = state.params_f.flat.copy()
        m_expected = ema_transfer(state.params_m, state.params_f, config.momentum)
        train_iteration(batch, state, config, schedule, 1)
        assert np.array_equal(state.params_f.flat, f_before)
        assert np.array_equal(state.params_m.flat, m_expected.flat)

    def test_teacher_gradient_is_label_free(self):
        # shuffling labels must not change M's update in a single iteration
        config = tiny_config()
        schedule = build_schedule(config)
        state_a, batch = self._state_and_batch(config)
        state_b, _ = self._state_and_batch(config)

        shuffled = [type(s)(s.frames, (s.identity + 1) % 6, s.condition, s.view,
                            s.clean_identity, s.noise_flag) for s in batch]
        _, rec_a, _ = train_iteration(batch, state_a, config, schedule, 1)
        _, rec_b, _ = train_iteration(shuffled, state_b, config, schedule, 1)
        assert np.array_equal(rec_a.delta_m, rec_b.delta_m)
        assert not np.array_equal(rec_a.delta_f, rec_b.delta_f)

    def test_pre_ema_hash_differs_after_iteration(self):
        config = tiny_config()
        schedule = build_schedule(config)
        state, batch = self._state_and_batch(config)
        _, record, _ = train_iteration(batch, state, config, schedule, 1)
        assert record.pre_ema_m_hash != state.params_m.sha256()

    def test_breakdown_identity(self):
        config = tiny_config()
        schedule = build_schedule(config)
        state, batch = self._state_and_batch(config)
        breakdown, _, _ = train_iteration(batch, state, config, schedule, 1)
        recomputed = (
            breakdown.sigma0 * breakdown.l_c
            + breakdown.sigma1 * breakdown.l_ce
            + breakdown.sigma2 * breakdown.l_tri
            + breakdown.sigma3 * breakdown.l_mil
        )
        assert abs(breakdown.l_crc - recomputed) < 1e-10
        assert all(v >= 0.0 for v in (breakdown.l_c, breakdown.l_ce, breakdown.l_tri,
                                      breakdown.l_mil))

    def test_forward_counter_two_per_sample(self):
        config = tiny_config()
        schedule = build_schedule(config)
        state, batch = self._state_and_batch(config)
        train_iteration(batch, state, config, schedule, 1)
        assert state.forward_count == 2 * len(batch)


class TestRunTraining:
    def test_deterministic_final_params(self):
        bundle = tiny_bundle()
        config = tiny_config(iterations=8)
        a = run_training(bundle, config)
        b = run_training(bundle, config)
        assert np.array_equal(a.params_f.flat, b.params_f.flat)
        assert np.array_equal(a.params_m.flat, b.params_m.flat)
        assert a.metrics == b.metrics

    def test_supervised_has_no_teacher(self):
        bundle = tiny_bundle()
        result = run_training(bundle, tiny_config(mode="supervised", iterations=3))
        assert result.params_m is None
        assert result.forward_count == 3 * 6  # one forward per sample

    def test_selfsup_runs_without_label_losses(self):
        bundle = tiny_bundle()
        result = run_training(bundle, tiny_config(mode="selfsup", iterations=3))
        last = result.metrics[-1]
        assert last["l_ce"] == 0.0 and last["l_tri"] == 0.0 and last["l_mil"] == 0.0
        assert last["l_c"] > 0.0

    def test_trace_recurrence_reproduces_parameters(self, tmp_path):
        bundle = tiny_bundle()
        config = tiny_config(iterations=6, record_trace=True)
        path = tmp_path / "trace.bin"
        result = run_training(bundle, config, trace_path=str(path))
        _, deltas_f, deltas_m = read_trace(path)
        # replaying the streamed recurrence reproduces both endpoints exactly
        tf = result.init_f.flat.copy()
        tm = result.init_m.flat.copy()
        m = config.momentum
        for delta_f, delta_m in zip(deltas_f, deltas_m):
            tm = m * tm + (1.0 - m) * tf + delta_m
            tf = tf + delta_f
        assert np.array_equal(tf, result.params_f.flat)
        assert np.array_equal(tm, result.params_m.flat)

    def test_trace_file_roundtrip(self, tmp_path):
        bundle = tiny_bundle()
        config = tiny_config(iterations=4, record_trace=True)
        path = tmp_path / "trace.bin"
        result = run_training(bundle, config, trace_path=str(path))
        header, deltas_f, deltas_m = read_trace(path)
        assert header["iterations"] == 4
        assert header["momentum"] == config.momentum
        assert deltas_f.shape == (4, result.params_f.shape.n_params)
        assert deltas_m.shape == deltas_f.shape

    def test_trace_needs_a_path(self):
        with pytest.raises(ValueError, match="trace_path"):
            run_training(tiny_bundle(), tiny_config(record_trace=True))

    def test_dataset_too_small_rejected(self):
        bundle = tiny_bundle()
        config = tiny_config(p_ids=7)
        with pytest.raises(ValueError):
            run_training(bundle, config)

    def test_snapshots_recorded(self):
        bundle = tiny_bundle()
        result = run_training(bundle, tiny_config(iterations=4, snapshot_every=2))
        assert [it for it, _ in result.snapshots] == [0, 2, 4]

    def test_mode_flags_validated(self):
        with pytest.raises(ValueError):
            tiny_config(mode="supervised", and_enabled=True)
        with pytest.raises(ValueError):
            tiny_config(mode="nonsense")
        with pytest.raises(ValueError):
            tiny_config(momentum=1.2)

    def test_supervised_equals_cyclic_with_zeroed_consistency(self):
        # with sigma0 = sigma3 = 0 the teacher cannot influence F, so the
        # F-trajectory must match plain supervised training bit for bit
        bundle = tiny_bundle()
        sup = run_training(bundle, tiny_config(mode="supervised", iterations=5))
        cyc = run_training(
            bundle, tiny_config(iterations=5, sigma0_const=0.0, sigma3_const=0.0)
        )
        assert np.array_equal(sup.params_f.flat, cyc.params_f.flat)


class TestCoteachBaseline:
    def test_forward_counter_matches_cost_realization(self):
        bundle = tiny_bundle()
        for rate in (0.0, 0.2, 0.5):
            config = tiny_config(mode="coteach-baseline", iterations=2,
                                 coteach_noise_rate=rate)
            result = run_training(bundle, config)
            n = config.batch_size
            per_iter = 2 * n + 2 * math.ceil((1.0 - rate) * n)
            assert result.forward_count == 2 * per_iter

    def test_rate_zero_trains_on_full_batch(self):
        bundle = tiny_bundle()
        config = tiny_config(mode="coteach-baseline", iterations=1,
                             coteach_noise_rate=0.0)
        result = run_training(bundle, config)
        assert result.forward_count == 4 * config.batch_size

    def test_selection_tie_break_by_index(self):
        bundle = tiny_bundle()
        batch, _ = pxk_sampler(bundle.train, 3, 2, RngStream(5))
        same = [type(s)(batch[0].frames, s.identity, s.condition, s.view,
                        s.clean_identity, s.noise_flag) for s in batch]

        def zeroed_state(config):
            shape = EncoderShape(d_in=bundle.d_in, d_hidden=config.d_hidden,
                                 d_emb=config.d_emb, n_classes=bundle.n_train_classes)
            state = init_state(config, shape)
            state.params_f.flat[:] = 0.0
            if state.params_m is not None:
                state.params_m.flat[:] = 0.0
            return state

        # all-zero parameters give every sample the same loss, so each network
        # selects samples 0..R-1 and F takes a plain supervised step on them
        config = tiny_config(mode="coteach-baseline", coteach_noise_rate=0.5)
        state = zeroed_state(config)
        _, _, metrics = train_iteration(same, state, config, build_schedule(config), 1)
        assert metrics["kept_fraction"] == 0.5
        sup = tiny_config(mode="supervised", augmentation="none")
        for subset, equal in ((same[:3], True), (same[3:], False)):
            expected = zeroed_state(sup)
            train_iteration(subset, expected, sup, build_schedule(sup), 1)
            assert np.array_equal(state.params_f.flat, expected.params_f.flat) == equal

    def test_invalid_noise_rate_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(mode="coteach-baseline", coteach_noise_rate=1.0)


class TestRaggedEncoderTrajectory:
    """Training through the ragged encoder follows the zero-padded oracle's
    trajectory bit for bit: no sum in the encoder was reordered."""

    @pytest.mark.parametrize("mode", ["cyclic", "supervised", "selfsup", "coteach-baseline"])
    def test_matches_padded_oracle(self, monkeypatch, mode):
        bundle = tiny_bundle()
        config = tiny_config(mode=mode, iterations=20, augmentation="strong")

        def train_and_embed():
            result = run_training(bundle, config)
            z, p = gaugekit.embed_samples(result.params_f, bundle.test)
            return result, z, p

        ragged, z, p = train_and_embed()
        with monkeypatch.context() as m:
            m.setattr(cyclic, "forward_batch", padded_forward_batch)
            m.setattr(cyclic, "backward_batch", padded_backward_batch)
            m.setattr(gaugekit, "forward_batch", padded_forward_batch)
            padded, z_ref, p_ref = train_and_embed()
        assert np.array_equal(ragged.params_f.flat, padded.params_f.flat)
        if mode != "supervised":
            assert np.array_equal(ragged.params_m.flat, padded.params_m.flat)
        assert ragged.metrics == padded.metrics
        assert np.array_equal(z, z_ref) and np.array_equal(p, p_ref)


class TestScheduleByMode:
    def test_supervised_masks_consistency_and_mil(self):
        sched = build_schedule(tiny_config(mode="supervised"))
        s0, s1, s2, s3 = sched.at(100)
        assert s0 == 0.0 and s3 == 0.0
        assert s1 > 0.0 and s2 > 0.0

    def test_selfsup_masks_supervised_terms(self):
        sched = build_schedule(tiny_config(mode="selfsup"))
        s0, s1, s2, s3 = sched.at(100)
        assert s0 > 0.0
        assert s1 == s2 == s3 == 0.0

    def test_overrides_pin_constants(self):
        sched = build_schedule(tiny_config(sigma0_const=0.0, sigma2_const=0.05))
        assert sched.at(0)[0] == 0.0
        assert sched.at(10_000)[0] == 0.0
        assert sched.at(10_000)[2] == 0.05

    def test_clean_profile_constants(self):
        sched = build_schedule(tiny_config(schedule_profile="clean"))
        assert sched.at(0) == (0.1, 1.0, 0.1, 0.1)
        assert sched.at(99_999) == (0.1, 1.0, 0.1, 0.1)
