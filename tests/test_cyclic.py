import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclegait import cyclic, gaugekit
from cyclegait.cyclic import (
    MODE_TABLE,
    MODES,
    StepInputs,
    TraceWriter,
    TrainerConfig,
    TrainingResult,
    build_schedule,
    draw_inputs,
    group_by_identity,
    pxk_sampler,
    read_trace,
    run_training,
    train_iteration,
)
from cyclegait.gaitgen import make_benchmark
from cyclegait.lossbank import Ramp
from cyclegait.numkit import RngStream
from cyclegait.setnet import EncoderShape, ema_transfer
import reference
from conftest import record_dropped_caches
from reference import padded_backward_batch, padded_forward_batch


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
        lr=0.05,
        milestones=(),
        seed=11,
    )
    defaults.update(kwargs)
    return TrainerConfig(**defaults)


def train_pinned(bundle, config, **pins):
    """run_training's loop for one config, calling train_iteration directly
    with build_schedule(config)'s ramps named in pins (sigma1=0.0, ...) set to
    constants, as no config field pins sigma1 or sigma2. Returns (final F,
    per-iteration metrics)."""
    schedule = dataclasses.replace(build_schedule(config),
                                   **{name: Ramp.constant(v) for name, v in pins.items()})
    shape = EncoderShape(d_in=reference.d_in(bundle), d_hidden=config.d_hidden,
                         d_emb=config.d_emb, n_classes=reference.n_train_classes(bundle))
    run = TrainingResult.start(config, shape)
    inputs = draw_inputs(group_by_identity(bundle.train), config, config.recipe.augment_f,
                         config.recipe.ema)
    metrics = [train_iteration(step, run, schedule, k)[2]
               for k, step in enumerate(inputs, start=1)]
    return run.params_f, metrics


class TestSampler:
    def test_exhaustive_two_by_two(self):
        bundle = tiny_bundle()
        two_ids = [s for s in bundle.train if s.identity in (0, 1)]
        batch, _ = pxk_sampler(group_by_identity(two_ids), 2, 2, RngStream(1))
        assert len(batch) == 4
        ids = [s.identity for s in batch]
        assert ids.count(0) == 2 and ids.count(1) == 2

    def test_replacement_when_identity_is_short(self):
        bundle = tiny_bundle()
        one_seq = [next(s for s in bundle.train if s.identity == 0)]
        other = [s for s in bundle.train if s.identity == 1]
        batch, _ = pxk_sampler(group_by_identity(one_seq + other), 2, 4, RngStream(1))
        zero_frames = [s.frames for s in batch if s.identity == 0]
        assert len(zero_frames) == 4
        assert all(np.array_equal(zero_frames[0], f) for f in zero_frames)

    def test_too_few_identities_rejected(self):
        bundle = tiny_bundle()
        two_ids = [s for s in bundle.train if s.identity in (0, 1)]
        with pytest.raises(ValueError):
            pxk_sampler(group_by_identity(two_ids), 3, 2, RngStream(1))

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
    def _state_and_inputs(self, config, bundle=None):
        """A fresh run and the inputs of the first iteration, as run_training
        draws them."""
        bundle = bundle or tiny_bundle()
        shape = EncoderShape(d_in=reference.d_in(bundle), d_hidden=config.d_hidden,
                             d_emb=config.d_emb,
                             n_classes=reference.n_train_classes(bundle))
        state = TrainingResult.start(config, shape)
        inputs = next(draw_inputs(group_by_identity(bundle.train), config, True, True))
        return state, inputs

    def test_null_teacher_update(self):
        # sigma0 = 0 and m = 1: the memorizing network must not move at all
        config = tiny_config(momentum=1.0, sigma0_const=0.0)
        schedule = build_schedule(config)
        state, inputs = self._state_and_inputs(config)
        before = state.params_m.flat.copy()
        train_iteration(inputs, state, schedule, 1)
        assert np.array_equal(state.params_m.flat, before)

    def test_zero_lr_isolates_ema(self):
        config = tiny_config(lr=0.0)
        schedule = build_schedule(config)
        state, inputs = self._state_and_inputs(config)
        f_before = state.params_f.flat.copy()
        m_expected = ema_transfer(state.params_m, state.params_f, config.momentum)
        train_iteration(inputs, state, schedule, 1)
        assert np.array_equal(state.params_f.flat, f_before)
        assert np.array_equal(state.params_m.flat, m_expected.flat)

    def test_teacher_gradient_is_label_free(self):
        # shuffling labels must not change M's update in a single iteration
        config = tiny_config()
        schedule = build_schedule(config)
        state_a, inputs = self._state_and_inputs(config)
        state_b, _ = self._state_and_inputs(config)

        shuffled = [type(s)(s.frames, (s.identity + 1) % 6, s.condition, s.view,
                            s.clean_identity, s.noise_flag) for s in inputs.batch]
        _, rec_a, _ = train_iteration(inputs, state_a, schedule, 1)
        _, rec_b, _ = train_iteration(inputs._replace(batch=shuffled), state_b, schedule, 1)
        assert np.array_equal(rec_a.delta_m, rec_b.delta_m)
        assert not np.array_equal(rec_a.delta_f, rec_b.delta_f)

    def test_pre_ema_hash_differs_after_iteration(self):
        config = tiny_config()
        schedule = build_schedule(config)
        state, inputs = self._state_and_inputs(config)
        _, record, _ = train_iteration(inputs, state, schedule, 1)
        assert record.pre_ema_m_hash != state.params_m.sha256()

    def test_breakdown_identity(self):
        config = tiny_config()
        schedule = build_schedule(config)
        state, inputs = self._state_and_inputs(config)
        breakdown, _, _ = train_iteration(inputs, state, schedule, 1)
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
        state, inputs = self._state_and_inputs(config)
        train_iteration(inputs, state, schedule, 1)
        assert state.forward_count == 2 * len(inputs.batch)


class TestRunTraining:
    def test_deterministic_final_params(self):
        bundle = tiny_bundle()
        config = tiny_config(iterations=8)
        a = run_training(bundle, config)
        b = run_training(bundle, config)
        assert np.array_equal(a.params_f.flat, b.params_f.flat)
        assert np.array_equal(a.params_m.flat, b.params_m.flat)
        assert a.metrics == b.metrics

    @pytest.mark.parametrize("mode", ["cyclic", "coteach-baseline"])
    def test_matches_fresh_generator(self, mode, monkeypatch):
        bundle = tiny_bundle()
        config = tiny_config(mode=mode, iterations=20)
        fast = run_training(bundle, config)
        monkeypatch.setattr(RngStream, "_generator", reference.fresh_generator)
        oracle = run_training(bundle, config)
        assert np.array_equal(fast.params_f.flat, oracle.params_f.flat)
        assert np.array_equal(fast.params_m.flat, oracle.params_m.flat)
        assert fast.metrics == oracle.metrics

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
        _, records = read_trace(path)
        # replaying the streamed recurrence reproduces both endpoints exactly
        tf = result.init_f.flat.copy()
        tm = result.init_m.flat.copy()
        m = config.momentum
        for delta_f, delta_m in records:
            tm = m * tm + (1.0 - m) * tf + delta_m
            tf = tf + delta_f
        assert np.array_equal(tf, result.params_f.flat)
        assert np.array_equal(tm, result.params_m.flat)

    def test_ema_off_trace_verifies(self, tmp_path):
        # momentum 1.0 turns the EMA off: M moves by its own steps only
        bundle = tiny_bundle()
        config = tiny_config(iterations=6, momentum=1.0, record_trace=True)
        path = tmp_path / "trace.bin"
        result = run_training(bundle, config, trace_path=str(path))
        report = gaugekit.verify_trace_file(str(path), result.init_f, result.init_m,
                                            result.params_f, result.params_m)
        assert report["momentum"] == 1.0 and report["max_relative_deviation"] < 1e-8
        assert report["endpoint_f_matches"] and report["endpoint_m_matches"]
        _, records = read_trace(path)
        _, replayed_m = gaugekit.replay_recurrence(result.init_f.flat, result.init_m.flat,
                                                   records, 1.0)
        own_steps = result.init_m.flat.copy()
        for _, delta_m in records:
            own_steps = own_steps + delta_m
        assert np.array_equal(result.params_m.flat, replayed_m)
        assert np.array_equal(result.params_m.flat, own_steps)

    def test_trace_file_roundtrip(self, tmp_path):
        bundle = tiny_bundle()
        config = tiny_config(iterations=4, record_trace=True)
        path = tmp_path / "trace.bin"
        result = run_training(bundle, config, trace_path=str(path))
        header, records = read_trace(path)
        assert header["iterations"] == 4
        assert header["momentum"] == config.momentum
        p = result.params_f.shape.n_params
        assert len(records) == 4
        assert [(f.shape, m.shape) for f, m in records] == [((p,), (p,))] * 4

    def test_record_bytes_match_the_three_write_form(self, tmp_path, monkeypatch):
        nan_payload = np.frombuffer(b"\x01\x00\x00\x00\x00\x00\xf8\x7f", dtype="<f8")[0]
        records = [
            (1, np.array([0.5, -0.0, np.inf]), [1, 2, 3]),
            (2**64 - 1, np.array([1e-300, 2.5, -7.0], dtype=np.float32),
             np.array([nan_payload, -np.inf, 5e-324])),
            (3, np.arange(3), np.array([[1.0, 2.0, 3.0]])[0, ::-1]),
        ]
        for name in ("one.bin", "three.bin"):
            with TraceWriter(tmp_path / name, 3, 0.5, len(records), extra={"mode": "x"}) as w:
                for record in records:
                    w.write(*record)
            monkeypatch.setattr(TraceWriter, "write", reference.trace_write)
        assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "three.bin").read_bytes()

    @pytest.mark.parametrize("mode", ["cyclic", "selfsup"])
    def test_trace_bytes_match_the_three_write_form(self, tmp_path, monkeypatch, mode):
        bundle = tiny_bundle()
        config = tiny_config(mode=mode, iterations=5, record_trace=True)
        run_training(bundle, config, trace_path=str(tmp_path / "one.bin"))
        monkeypatch.setattr(TraceWriter, "write", reference.trace_write)
        run_training(bundle, config, trace_path=str(tmp_path / "three.bin"))
        assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "three.bin").read_bytes()

    def test_trace_needs_a_path(self):
        with pytest.raises(ValueError, match="trace_path"):
            run_training(tiny_bundle(), tiny_config(record_trace=True))

    def test_trace_path_needs_record_trace(self, tmp_path):
        with pytest.raises(ValueError, match="record_trace"):
            run_training(tiny_bundle(), tiny_config(), trace_path=tmp_path / "t")
        assert not (tmp_path / "t").exists()

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
        for mode in ("supervised", "coteach-baseline"):  # no consistency term to weight
            with pytest.raises(ValueError, match="sigma0_const"):
                tiny_config(mode=mode, sigma0_const=0.0)

    def test_supervised_equals_cyclic_with_zeroed_consistency(self):
        # with sigma0 = sigma3 = 0 the teacher cannot influence F, so the
        # F-trajectory must match plain supervised training bit for bit
        bundle = tiny_bundle()
        sup = run_training(bundle, tiny_config(mode="supervised", iterations=5))
        cyc = run_training(
            bundle, tiny_config(iterations=5, sigma0_const=0.0, sigma3_const=0.0)
        )
        assert np.array_equal(sup.params_f.flat, cyc.params_f.flat)


def accepted(ok, **kwargs):
    """tiny_config(**kwargs) when ok, else assert that it raises ValueError."""
    if ok:
        return tiny_config(**kwargs)
    with pytest.raises(ValueError):
        tiny_config(**kwargs)


@pytest.mark.parametrize("mode", MODES)
class TestModeTable:
    """Each rule of a mode's MODE_TABLE row is that mode's behaviour, and the
    rows say what the recipe of each mode is."""

    def test_sieve_only_in_cyclic(self, mode):
        assert MODE_TABLE[mode].sieve == (mode == "cyclic")
        accepted(MODE_TABLE[mode].sieve, mode=mode, and_enabled=True)

    def test_trace_only_where_m_follows_f_by_ema(self, mode, tmp_path):
        ema = MODE_TABLE[mode].ema
        assert ema == (mode in ("cyclic", "selfsup"))
        config = accepted(ema, mode=mode, record_trace=True, iterations=2)
        if ema:
            run_training(tiny_bundle(), config, trace_path=str(tmp_path / "trace.bin"))
            assert len(read_trace(tmp_path / "trace.bin")[1]) == 2

    def test_consistency_pin_only_where_weight_0_is_kept(self, mode):
        kept = MODE_TABLE[mode].sigmas
        assert (0 in kept) == (mode in ("cyclic", "selfsup"))
        accepted(0 in kept, mode=mode, sigma0_const=0.0)
        metrics = run_training(tiny_bundle(), tiny_config(mode=mode, iterations=2)).metrics
        for i in set(range(4)) - set(kept):
            assert all(r[f"sigma{i}"] == 0.0 for r in metrics)

    def test_memorizing_network_only_where_the_row_trains_it(self, mode):
        trains_m = MODE_TABLE[mode].trains_m
        assert trains_m == (mode != "supervised")
        result = run_training(tiny_bundle(), tiny_config(mode=mode, iterations=2))
        assert (result.params_m is None) == (not trains_m)
        assert (result.init_m is None) == (not trains_m)

    def test_forwards_per_iteration(self, mode):
        # 2B for the two-net modes, B for supervised, 2B + 2 ceil((1 - r) B) for
        # co-teaching, the one mode that trains M without the EMA
        recipe = MODE_TABLE[mode]
        config = tiny_config(mode=mode, iterations=3, coteach_noise_rate=0.4)
        b = config.batch_size
        per_iter = 2 * b if recipe.trains_m else b
        if recipe.trains_m and not recipe.ema:
            per_iter += 2 * math.ceil((1.0 - config.coteach_noise_rate) * b)
        result = run_training(tiny_bundle(), config)
        assert [r["forwards"] for r in result.metrics] == [per_iter] * 3
        assert result.forward_count == 3 * per_iter


class TestLabelTermsInEveryMode:
    """One routine forms CE, triplet and contrastive for every mode, so a
    weight the schedule gives is a weight the step applies."""

    @pytest.mark.parametrize("pins", [{"sigma3_const": 0.5},
                                      {"sigma1": 0.0, "sigma3_const": 0.0},
                                      {"sigma1": 0.0, "sigma2": 0.0, "sigma3_const": 0.3}])
    def test_supervised_equals_cyclic_without_consistency(self, pins):
        # sigma0 = 0 keeps the teacher out of F's gradient, so F trains on the
        # label terms alone in both modes; the sigma3 pin is a config field,
        # the sigma1 and sigma2 pins are set on the schedule
        bundle = tiny_bundle()
        sigma3 = pins["sigma3_const"]
        ramp_pins = {name: v for name, v in pins.items() if name != "sigma3_const"}
        sup_f, sup_logs = train_pinned(
            bundle, tiny_config(mode="supervised", sigma3_const=sigma3), **ramp_pins)
        cyc_f, cyc_logs = train_pinned(
            bundle, tiny_config(sigma0_const=0.0, sigma3_const=sigma3), **ramp_pins)
        assert np.array_equal(sup_f.flat, cyc_f.flat)

        def label_logs(metrics):
            return [(r["l_ce"], r["l_tri"], r["l_mil"]) for r in metrics]

        assert label_logs(sup_logs) == label_logs(cyc_logs)

    @pytest.mark.parametrize("mode", ["supervised", "coteach-baseline"])
    def test_pinned_contrastive_weight_trains_and_logs(self, mode):
        bundle = tiny_bundle()
        plain = run_training(bundle, tiny_config(mode=mode, iterations=3))
        pinned = run_training(bundle, tiny_config(mode=mode, iterations=3, sigma3_const=0.5))
        assert all(r["sigma3"] == 0.0 and r["l_mil"] == 0.0 for r in plain.metrics)
        assert all(r["sigma3"] == 0.5 and r["l_mil"] > 0.0 for r in pinned.metrics)
        assert not np.array_equal(plain.params_f.flat, pinned.params_f.flat)

    @pytest.mark.parametrize("mode", ["cyclic", "supervised", "selfsup", "coteach-baseline"])
    def test_zero_ce_weight_logs_zero_ce(self, mode):
        _, metrics = train_pinned(tiny_bundle(), tiny_config(mode=mode, iterations=3),
                                  sigma1=0.0)
        assert all(r["sigma1"] == 0.0 and r["l_ce"] == 0.0 for r in metrics)


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
        batch, _ = pxk_sampler(group_by_identity(bundle.train), 3, 2, RngStream(5))
        same = [type(s)(batch[0].frames, s.identity, s.condition, s.view,
                        s.clean_identity, s.noise_flag) for s in batch]

        def zeroed_state(config):
            shape = EncoderShape(d_in=reference.d_in(bundle), d_hidden=config.d_hidden,
                                 d_emb=config.d_emb,
                                 n_classes=reference.n_train_classes(bundle))
            state = TrainingResult.start(config, shape)
            state.params_f.flat[:] = 0.0
            if state.params_m is not None:
                state.params_m.flat[:] = 0.0
            return state

        # all-zero parameters give every sample the same loss, so each network
        # selects samples 0..R-1 and F takes a plain label step on them
        config = tiny_config(mode="coteach-baseline", coteach_noise_rate=0.5)
        state = zeroed_state(config)
        schedule = build_schedule(config)
        _, _, metrics = train_iteration(StepInputs(same, None, None), state, schedule, 1)
        assert metrics["kept_fraction"] == 0.5
        for subset, equal in ((same[:3], True), (same[3:], False)):
            zeros = zeroed_state(config)
            expected, _, _, _ = cyclic._label_update(
                zeros.params_f, zeros.vel_f, [s.frames for s in subset],
                np.array([s.identity for s in subset]), schedule.at(1)[1:], config, 1)
            assert np.array_equal(state.params_f.flat, expected.flat) == equal

    def test_invalid_noise_rate_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(mode="coteach-baseline", coteach_noise_rate=1.0)


# one config per mode, each with its own network size, EMA ratio and snapshots
LOCKSTEP_CONFIGS = (
    tiny_config(mode="cyclic", and_enabled=True, sieve_warmup=2, snapshot_every=3),
    tiny_config(mode="supervised", schedule_profile="clean", d_hidden=6, snapshot_every=4),
    tiny_config(mode="selfsup", momentum=1.0),
    tiny_config(mode="coteach-baseline", coteach_noise_rate=0.25, d_emb=3),
    tiny_config(mode="cyclic", sigma0_const=0.0, sigma3_const=0.0, lr=0.02),
)


class TestLockstep:
    """run_training over several configs draws each iteration's inputs once
    and gives every config what it gets alone."""

    def test_each_config_matches_its_solo_run(self):
        bundle = tiny_bundle()
        together = run_training(bundle, [dataclasses.replace(c, iterations=8)
                                         for c in LOCKSTEP_CONFIGS])
        assert len(together) == len(LOCKSTEP_CONFIGS)
        for config, joint in zip(LOCKSTEP_CONFIGS, together):
            config = dataclasses.replace(config, iterations=8)
            alone = run_training(bundle, config)
            assert joint.config == config
            for name in ("params_f", "params_m", "init_f", "init_m"):
                a, b = getattr(alone, name), getattr(joint, name)
                assert (a is None) == (b is None), name
                if a is not None:
                    assert a.flat.tobytes() == b.flat.tobytes(), (config.mode, name)
            assert json.dumps(joint.metrics) == json.dumps(alone.metrics)
            assert [(k, p.flat.tobytes()) for k, p in joint.snapshots] == \
                [(k, p.flat.tobytes()) for k, p in alone.snapshots]
            assert joint.forward_count == alone.forward_count

    # a config that reads fewer augmented streams comes first, so the draws
    # must follow every config, not the first
    @pytest.mark.parametrize("modes, augments", [
        (("coteach-baseline", "supervised", "selfsup", "cyclic"), 2),
        (("coteach-baseline", "supervised"), 1),
        (("coteach-baseline", "coteach-baseline"), 0),
    ])
    def test_inputs_are_drawn_once_per_iteration(self, monkeypatch, modes, augments):
        calls = {"sample": 0, "augment": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cyclic, "pxk_sampler", counted("sample", cyclic.pxk_sampler))
        monkeypatch.setattr(cyclic, "augment_frame_sets",
                            counted("augment", cyclic.augment_frame_sets))
        configs = [tiny_config(mode=mode, iterations=3) for mode in modes]
        run_training(tiny_bundle(), configs)
        assert calls == {"sample": 3, "augment": augments * 3}

    @pytest.mark.parametrize("field, value", [
        ("seed", 12), ("p_ids", 2), ("k_seqs", 3), ("iterations", 4)])
    def test_configs_that_draw_other_inputs_are_refused(self, field, value):
        configs = [tiny_config(), tiny_config(mode="supervised", **{field: value})]
        with pytest.raises(ValueError, match=field):
            run_training(tiny_bundle(), configs)

    def test_trace_recording_takes_one_config(self, tmp_path):
        traced = tiny_config(record_trace=True)
        with pytest.raises(ValueError, match="one config"):
            run_training(tiny_bundle(), [traced, tiny_config()], trace_path=tmp_path / "t")
        with pytest.raises(ValueError, match="one config"):
            run_training(tiny_bundle(), [tiny_config(), tiny_config()],
                         trace_path=tmp_path / "t")
        assert not (tmp_path / "t").exists()

    def test_no_config_is_refused(self):
        with pytest.raises(ValueError):
            run_training(tiny_bundle(), [])


def test_coteach_step_drops_every_cache_before_the_next_forward(monkeypatch):
    """The two selection forwards keep no cache, and each training forward's
    cache is gone once its update is made."""
    refs = record_dropped_caches(monkeypatch, cyclic)
    run_training(tiny_bundle(), tiny_config(mode="coteach-baseline", iterations=3,
                                            coteach_noise_rate=0.25))
    assert len(refs) == 3 * 4


class TestRaggedEncoderTrajectory:
    """Training through the ragged encoder follows the zero-padded oracle's
    trajectory bit for bit: no sum in the encoder was reordered."""

    @pytest.mark.parametrize("mode", ["cyclic", "supervised", "selfsup", "coteach-baseline"])
    def test_matches_padded_oracle(self, monkeypatch, mode):
        bundle = tiny_bundle()
        config = tiny_config(mode=mode, iterations=20)

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
        sched = build_schedule(tiny_config(sigma0_const=0.0, sigma3_const=0.05))
        assert sched.at(0)[0] == 0.0
        assert sched.at(10_000)[0] == 0.0
        assert sched.at(0)[3] == sched.at(10_000)[3] == 0.05
        # a pin also sets a weight the mode zeroes
        for mode in ("supervised", "selfsup", "coteach-baseline"):
            sched = build_schedule(tiny_config(mode=mode, sigma3_const=0.25))
            assert sched.at(0)[3] == sched.at(10_000)[3] == 0.25

    def test_clean_profile_constants(self):
        sched = build_schedule(tiny_config(schedule_profile="clean"))
        assert sched.at(0) == (0.1, 1.0, 0.1, 0.1)
        assert sched.at(99_999) == (0.1, 1.0, 0.1, 0.1)


N_RECORDS, N_PARAMS = 8, 5
RECORD = 8 + 16 * N_PARAMS


def trace_blob(tmp_path, rng, n=N_RECORDS):
    """(header line, record bytes) of a valid trace with n random records."""
    path = tmp_path / "valid.bin"
    with TraceWriter(path, N_PARAMS, 0.9, n) as writer:
        for k in range(1, n + 1):
            writer.write(k, rng.normal(size=N_PARAMS), rng.normal(size=N_PARAMS))
    blob = path.read_bytes()
    end = blob.index(b"\n") + 1
    return blob[:end], bytearray(blob[end:])


def put_index(body, row, k):
    body[row * RECORD : row * RECORD + 8] = int(k).to_bytes(8, "little")


def put_value(body, row, col, value):
    at = row * RECORD + 8 + 8 * col
    body[at : at + 8] = np.array([value], dtype="<f8").tobytes()


def drawn(path):
    """cyclic.read_trace drawn to the end: the header and both deltas as
    (N, P) arrays, each record copied out of the stream as it is drawn."""
    header, records = read_trace(path)
    rows = [np.concatenate(pair) for pair in records]
    deltas = np.array(rows).reshape(len(rows), 2 * records.n_params)
    return header, deltas[:, : records.n_params], deltas[:, records.n_params :]


def read_both(path):
    """The message each reader raises, or the header and arrays when both pass."""
    outcomes = []
    for reader in (drawn, reference.read_trace):
        try:
            outcomes.append(reader(path))
        except ValueError as err:
            outcomes.append(str(err))
    return outcomes


class TestReadTrace:
    def test_records_are_views_of_one_reused_chunk(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(cyclic, "_CHUNK_BYTES", 3 * RECORD)
        header, body = trace_blob(tmp_path, rng)
        path = tmp_path / "trace.bin"
        path.write_bytes(header + body)
        _, records = read_trace(path)
        _, want_f, want_m = reference.read_trace(path)
        assert len(records) == N_RECORDS
        chunks = set()
        for k, (delta_f, delta_m) in enumerate(records):
            assert np.array_equal(delta_f, want_f[k]) and np.array_equal(delta_m, want_m[k])
            assert delta_f.base is delta_m.base and not delta_f.flags.owndata
            assert delta_f.base.nbytes == 3 * RECORD
            chunks.add(id(delta_f.base))
        assert len(chunks) == 1
        # every pass reads the file again
        _, again_f, again_m = drawn(path)
        assert np.array_equal(again_f, want_f) and np.array_equal(again_m, want_m)

    def test_empty_run(self, tmp_path, rng):
        header, body = trace_blob(tmp_path, rng, n=0)
        path = tmp_path / "trace.bin"
        path.write_bytes(header + body)
        _, records = read_trace(path)
        assert len(records) == 0 and list(records) == []
        assert records.n_params == N_PARAMS

    def test_a_short_body_bounds_the_chunk(self, tmp_path):
        # a header declaring 2**26 parameters over a 100-byte body: no
        # 1 GiB record is allocated for a read that cannot fill it
        path = tmp_path / "trace.bin"
        header = {"format_version": 1, "iterations": 8, "momentum": 0.9, "n_params": 2**26}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(100))
        _, records = read_trace(path)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^trace truncated at iteration 1 of 8$"):
                list(records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("chunk_records", [1, 3])
    @pytest.mark.parametrize("fault", ["truncated", "cut after", "out-of-sequence",
                                       "non-finite", "trailing bytes"])
    def test_fault_at_each_record_of_each_chunk(self, tmp_path, rng, monkeypatch,
                                                chunk_records, fault):
        # 7 records in chunks of 3 put a fault at a chunk's first and last
        # record and in the final partial chunk
        monkeypatch.setattr(cyclic, "_CHUNK_BYTES", chunk_records * RECORD)
        header, valid = trace_blob(tmp_path, rng, n=7)
        path = tmp_path / "trace.bin"
        for row in range(7):
            body = bytearray(valid)
            if fault == "truncated":
                body = body[: row * RECORD + RECORD // 2]
            elif fault == "cut after":
                body = body[: row * RECORD]
            elif fault == "out-of-sequence":
                put_index(body, row, row + 2)
            elif fault == "non-finite":
                put_value(body, row, row % (2 * N_PARAMS), np.nan)
            else:
                body += bytes(row + 1)
            path.write_bytes(header + body)
            got, want = read_both(path)
            assert isinstance(want, str) and got == want

    @pytest.mark.parametrize("fault, message", [
        ("record 6 cut in half", "trace truncated at iteration 6 of 8"),
        ("run cut after record 5", "trace truncated at iteration 6 of 8"),
        ("record 3 claims iteration 7", "trace record 3 carries iteration index 7"),
        ("NaN in record 5", "non-finite delta in trace at iteration 5"),
        ("inf in record 4", "non-finite delta in trace at iteration 4"),
        ("trailing bytes", "trailing bytes after the declared trace records"),
        ("format version 2", "unsupported trace format in {path}"),
        ("NaN in record 2, index of record 4", "non-finite delta in trace at iteration 2"),
        ("index of record 3, inf in record 3", "trace record 3 carries iteration index 9"),
        ("NaN in record 4, record 6 cut in half", "non-finite delta in trace at iteration 4"),
    ])
    def test_fault_message(self, tmp_path, rng, fault, message):
        header, body = trace_blob(tmp_path, rng)
        if fault == "record 6 cut in half":
            body = body[: 5 * RECORD + RECORD // 2]
        elif fault == "run cut after record 5":
            body = body[: 5 * RECORD]
        elif fault == "record 3 claims iteration 7":
            put_index(body, 2, 7)
        elif fault == "NaN in record 5":
            put_value(body, 4, 0, np.nan)
        elif fault == "inf in record 4":
            put_value(body, 3, 2 * N_PARAMS - 1, -np.inf)
        elif fault == "trailing bytes":
            body += b"\x00"
        elif fault == "format version 2":
            header = header.replace(b'"format_version": 1', b'"format_version": 2')
        elif fault == "NaN in record 2, index of record 4":
            put_value(body, 1, 3, np.nan)
            put_index(body, 3, 1)
        elif fault == "index of record 3, inf in record 3":
            put_index(body, 2, 9)
            put_value(body, 2, 1, np.inf)
        elif fault == "NaN in record 4, record 6 cut in half":
            put_value(body, 3, 0, np.nan)
            body = body[: 5 * RECORD + RECORD // 2]
        path = tmp_path / "trace.bin"
        path.write_bytes(header + body)
        expected = message.format(path=path)
        assert read_both(path) == [expected, expected]

    def test_random_faults_match_the_per_record_reader(self, tmp_path):
        rng = np.random.default_rng(2024)
        header, valid = trace_blob(tmp_path, rng)
        path = tmp_path / "trace.bin"
        messages = set()
        for _ in range(300):
            head, body = header, bytearray(valid)
            for _ in range(rng.integers(1, 4)):
                fault = rng.integers(6)
                row = int(rng.integers(N_RECORDS))
                if fault == 0:
                    put_index(body, row, [0, row, row + 2, 2**64 - 1][rng.integers(4)])
                elif fault == 1:
                    put_value(body, row, int(rng.integers(2 * N_PARAMS)),
                              rng.choice([np.nan, np.inf, -np.inf]))
                elif fault == 2:
                    body = body[: int(rng.integers(len(body) + 1))]
                elif fault == 3:
                    body += bytes(int(rng.integers(1, 2 * RECORD)))
                elif fault == 4:
                    n = int(rng.integers(N_RECORDS + 3))
                    head = header.replace(b'"iterations": 8', f'"iterations": {n}'.encode())
                elif len(body) >= RECORD * (row + 1):
                    put_value(body, row, int(rng.integers(2 * N_PARAMS)), 1.0)
            path.write_bytes(head + body)
            got, want = read_both(path)
            if isinstance(want, str):
                assert got == want
                messages.add(" ".join(want.split(" ")[:2]))
            else:
                assert all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))
                assert got[0] == want[0]
        assert messages == {"trace truncated", "trace record", "non-finite delta",
                            "trailing bytes"}

    @given(n=st.integers(0, 10), chunk_records=st.sampled_from([1, 3, None]),
           faults=st.lists(st.tuples(
               st.sampled_from(["truncated", "out-of-sequence", "non-finite",
                                "trailing bytes"]),
               st.integers(0, 9), st.integers(0, 2 * RECORD)), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_chunk_boundaries_match_the_per_record_reader(self, tmp_path_factory, n,
                                                          chunk_records, faults):
        rng = np.random.default_rng(n)
        work = tmp_path_factory.mktemp("chunks")
        header, body = trace_blob(work, rng, n=n)
        for kind, row, extra in faults:
            row = min(row, max(n - 1, 0))
            if kind == "truncated":
                body = body[: min(len(body), row * RECORD + extra % RECORD)]
            elif kind == "trailing bytes":
                body += bytes(1 + extra)
            elif len(body) >= (row + 1) * RECORD:
                if kind == "out-of-sequence":
                    put_index(body, row, [0, row, row + 2, 2**64 - 1][extra % 4])
                else:
                    put_value(body, row, extra % (2 * N_PARAMS),
                              [np.nan, np.inf, -np.inf][extra % 3])
        path = work / "trace.bin"
        path.write_bytes(header + body)
        with pytest.MonkeyPatch.context() as patch:
            if chunk_records is not None:
                patch.setattr(cyclic, "_CHUNK_BYTES", chunk_records * RECORD)
            got, want = read_both(path)
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0] == want[0]
            assert all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))

    def test_every_pass_checks_the_file_again(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(cyclic, "_CHUNK_BYTES", 3 * RECORD)
        header, body = trace_blob(tmp_path, rng)
        path = tmp_path / "trace.bin"
        path.write_bytes(header + body)
        _, records = read_trace(path)
        assert len(list(records)) == N_RECORDS
        put_value(body, 6, 1, np.inf)
        path.write_bytes(header + body)
        with pytest.raises(ValueError, match="^non-finite delta in trace at iteration 7$"):
            list(records)
        path.write_bytes(header + body[: 4 * RECORD])
        with pytest.raises(ValueError, match="^trace truncated at iteration 5 of 8$"):
            list(records)

    def test_a_pass_left_early_or_failed_closes_its_file(self, tmp_path, rng, monkeypatch):
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        header, body = trace_blob(tmp_path, rng)
        put_value(body, 4, 0, np.nan)  # in the second chunk
        path = tmp_path / "trace.bin"
        path.write_bytes(header + body)
        monkeypatch.setattr(cyclic, "open", tracking_open, raising=False)
        monkeypatch.setattr(cyclic, "_CHUNK_BYTES", 3 * RECORD)
        _, records = read_trace(path)
        assert len(opened) == 1 and opened[0].closed
        one_pass = iter(records)
        next(one_pass)
        assert not opened[1].closed
        del one_pass  # stops after one record
        assert opened[1].closed
        with pytest.raises(ValueError, match="iteration 5$"):
            for _ in records:
                pass
        assert len(opened) == 3 and opened[2].closed
