import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_grad_close, central_difference
from cyclegait.cyclic import TrainerConfig
from cyclegait.lossbank import batch_ce
from cyclegait.numkit import RngStream
from cyclegait.setnet import (
    EncoderShape,
    GradVector,
    ModelParams,
    backward_batch,
    ema_transfer,
    forward_batch,
    init_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from reference import (
    einsum_backward_batch,
    forward,
    looped_forward_batch,
    padded_backward_batch,
    padded_forward_batch,
)

SMALL = EncoderShape(d_in=6, d_hidden=10, d_emb=5, n_classes=4)


def small_params(seed=1):
    params, _ = init_params(SMALL, RngStream(seed).child(1))
    return params


def random_frames(rng, t=7, d=6):
    return rng.normal(size=(t, d))


class TestSegmentViews:
    NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

    def test_repeated_access_returns_the_same_view(self):
        params = small_params()
        for name in self.NAMES:
            assert getattr(params, name) is getattr(params, name)

    def test_write_through_a_view_lands_in_flat(self):
        params = small_params()
        for k, name in enumerate(self.NAMES):
            offset, size, shape = SMALL.segment_table[name]
            getattr(params, name)[:] = k + 0.5
            assert getattr(params, name).shape == shape
            assert np.all(params.flat[offset : offset + size] == k + 0.5)

    def test_copy_gets_its_own_views(self):
        params = small_params()
        before = params.flat.copy()
        views = [getattr(params, name) for name in self.NAMES]
        clone = params.copy()
        for name in self.NAMES:
            assert getattr(clone, name) is not getattr(params, name)
            getattr(clone, name)[:] = -1.0
        assert all(getattr(params, name) is view for name, view in zip(self.NAMES, views))
        assert np.array_equal(params.flat, before)
        assert np.all(clone.flat == -1.0)


class TestForward:
    def test_permutation_invariance(self, rng):
        params = small_params()
        for _ in range(100):
            frames = random_frames(rng, t=int(rng.integers(1, 12)))
            perm = frames[rng.permutation(frames.shape[0])]
            a = forward(frames, params)
            b = forward(perm, params)
            assert np.max(np.abs(a.z - b.z)) < 1e-12
            assert np.max(np.abs(a.p - b.p)) < 1e-12

    def test_singleton_max_equals_mean(self, rng):
        params = small_params()
        frames = random_frames(rng, t=1)
        z, p, cache = forward_batch([frames], params)
        h = SMALL.d_hidden
        assert np.array_equal(cache.pooled[0, :h], cache.pooled[0, h:])

    def test_zero_params_bias_path(self, rng):
        params = ModelParams.zeros(SMALL)
        out = forward(random_frames(rng), params)
        assert np.array_equal(out.z, params.b2)
        assert np.array_equal(out.p, params.b3)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            forward_batch([], small_params())

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            forward(rng.normal(size=(3, 5)), small_params())

    def test_empty_frame_set_rejected(self):
        with pytest.raises(ValueError):
            forward(np.zeros((0, 6)), small_params())


class TestBackward:
    def _loss_fn(self, frame_sets, d_z, d_p):
        def fn(params):
            z, p, _ = forward_batch(frame_sets, params)
            return float(np.sum(z * d_z) + np.sum(p * d_p))

        return fn

    def test_zero_upstream_gives_zero_grad(self, rng):
        params = small_params()
        frames = [random_frames(rng) for _ in range(3)]
        z, p, cache = forward_batch(frames, params)
        grad = backward_batch(cache, params, np.zeros_like(z), np.zeros_like(p))
        assert np.array_equal(grad.flat, np.zeros(SMALL.n_params))

    def test_linearity_in_upstream(self, rng):
        params = small_params()
        frames = [random_frames(rng) for _ in range(3)]
        z, p, cache = forward_batch(frames, params)
        d_z, d_p = rng.normal(size=z.shape), rng.normal(size=p.shape)
        g1 = backward_batch(cache, params, d_z, d_p)
        g2 = backward_batch(cache, params, 2.0 * d_z, 2.0 * d_p)
        assert np.allclose(2.0 * g1.flat, g2.flat, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        params = small_params(seed=3)
        frames = [random_frames(rng, t=int(rng.integers(2, 9))) for _ in range(4)]
        z, p, cache = forward_batch(frames, params)
        d_z, d_p = rng.normal(size=z.shape), rng.normal(size=p.shape)
        grad = backward_batch(cache, params, d_z, d_p)
        loss_fn = self._loss_fn(frames, d_z, d_p)
        for idx in rng.choice(SMALL.n_params, size=60, replace=False):
            numeric = central_difference(loss_fn, params, int(idx))
            assert_grad_close(grad.flat[idx], numeric)

    def test_mismatched_cache_rejected(self, rng):
        params = small_params()
        frames = [random_frames(rng)]
        z, p, cache = forward_batch(frames, params)
        other = ModelParams.zeros(EncoderShape(d_in=6, d_hidden=3, d_emb=2, n_classes=4))
        with pytest.raises(ValueError):
            backward_batch(cache, other, np.zeros_like(z), np.zeros_like(p))


def assert_matches_padded_oracle(frame_sets, params, d_z, d_p, tol=0.0):
    """The ragged encoder reproduces the zero-padded one: bit for bit, or
    within relative and absolute error tol."""
    def same(a, b):
        return np.array_equal(a, b) if tol == 0.0 else np.allclose(a, b, rtol=tol, atol=tol)

    z, p, cache = forward_batch(frame_sets, params)
    z_ref, p_ref, cache_ref = padded_forward_batch(frame_sets, params)
    assert same(z, z_ref)
    assert same(p, p_ref)
    assert same(cache.pooled, cache_ref.pooled)
    grad = backward_batch(cache, params, d_z, d_p)
    grad_ref = padded_backward_batch(cache_ref, params, d_z, d_p)
    for name, _ in params.shape.segments():
        assert same(getattr(grad, name), getattr(grad_ref, name)), name


def ragged_batch(rng, lengths, d_in, duplicate=False):
    """Random frame sets; with duplicate, every set of two or more frames
    repeats one of its frames, so a max can be reached twice."""
    sets = []
    for t in lengths:
        fs = rng.normal(size=(t, d_in))
        if duplicate and t > 1:
            src, dst = rng.choice(t, size=2, replace=False)
            fs[dst] = fs[src]
        sets.append(fs)
    return sets


class TestRaggedMatchesPaddedOracle:
    def test_singletons_ties_and_dead_columns(self, rng):
        params = small_params(seed=4)
        params.b1[:3] = -1e3  # ReLU-dead for every frame: all-zero ties
        frames = ragged_batch(rng, [1, 5, 1, 3, 7], SMALL.d_in, duplicate=True)
        frames[1][2] = frames[1][0]
        d_z, d_p = rng.normal(size=(5, SMALL.d_emb)), rng.normal(size=(5, SMALL.n_classes))
        assert_matches_padded_oracle(frames, params, d_z, d_p)
        _, _, cache = forward_batch(frames, params)
        assert not cache.relu_on[:, :3].any()

    # Two layouts round differently in the padded oracle, so they are held to
    # rounding error in the next test instead: a batch of two or more
    # one-frame sets, whose (B, 1, d_in) stack numpy multiplies as B
    # vector-matrix products, and a single hidden unit, whose frame sums run
    # over a contiguous column that numpy adds pairwise, padding rows included.
    @given(
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7).filter(
            lambda ls: len(ls) == 1 or max(ls) > 1
        ),
        d_in=st.integers(1, 7),
        d_hidden=st.integers(2, 12),
        n_dead=st.integers(0, 3),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_ragged_batches(self, lengths, d_in, d_hidden, n_dead, duplicate, seed):
        rng = np.random.default_rng(seed)
        shape = EncoderShape(d_in=d_in, d_hidden=d_hidden, d_emb=3, n_classes=4)
        params, _ = init_params(shape, RngStream(seed).child(1))
        params.b1[: min(n_dead, d_hidden)] = -1e3
        frames = ragged_batch(rng, lengths, d_in, duplicate)
        b = len(lengths)
        d_z, d_p = rng.normal(size=(b, shape.d_emb)), rng.normal(size=(b, shape.n_classes))
        assert_matches_padded_oracle(frames, params, d_z, d_p)

    @pytest.mark.parametrize("d_hidden,max_len", [(1, 19), (10, 1)])
    def test_padding_dependent_rounding_stays_small(self, rng, d_hidden, max_len):
        shape = EncoderShape(d_in=7, d_hidden=d_hidden, d_emb=3, n_classes=4)
        params, _ = init_params(shape, RngStream(0).child(1))
        for _ in range(20):
            frames = ragged_batch(rng, rng.integers(1, max_len + 1, size=5), shape.d_in)
            d_z, d_p = rng.normal(size=(5, shape.d_emb)), rng.normal(size=(5, shape.n_classes))
            assert_matches_padded_oracle(frames, params, d_z, d_p, tol=1e-12)


def assert_matches_loop_oracle(frame_sets, params, d_z, d_p, tol=0.0):
    """The batch-pooled encoder reproduces the per-sample pooling loop: the
    max rows exactly, everything else bit for bit or within relative and
    absolute error tol. NaNs must sit in the same places."""
    def same(a, b):
        if tol == 0.0:
            return np.array_equal(a, b, equal_nan=True)
        return np.allclose(a, b, rtol=tol, atol=tol, equal_nan=True)

    z, p, cache = forward_batch(frame_sets, params)
    z_ref, p_ref, cache_ref = looped_forward_batch(frame_sets, params)
    assert same(z, z_ref)
    assert same(p, p_ref)
    assert same(cache.pooled, cache_ref.pooled)
    grad = backward_batch(cache, params, d_z, d_p)
    grad_ref = backward_batch(cache_ref, params, d_z, d_p)
    assert same(grad.flat, grad_ref.flat)
    assert_backward_routed_like(cache, cache_ref)


def assert_backward_routed_like(cache, cache_ref):
    """The max rows that backward_batch built on cache, and used, are the
    loop oracle's, as intp."""
    routed = vars(cache)["max_row"]
    assert routed.dtype == np.intp
    assert np.array_equal(routed, cache_ref.max_row)


class TestBatchPoolingMatchesLoopOracle:
    # With d_hidden >= 2 the pooled sums add each sample's frames in frame
    # order, as the loop does, so every output is bit-identical.
    @given(
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
        equal_lengths=st.booleans(),
        d_in=st.integers(1, 7),
        d_hidden=st.integers(2, 12),
        n_dead=st.integers(0, 3),
        duplicate=st.booleans(),
        nan_frame=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_batches(self, lengths, equal_lengths, d_in, d_hidden, n_dead,
                            duplicate, nan_frame, seed):
        rng = np.random.default_rng(seed)
        if equal_lengths:
            lengths = [lengths[0]] * len(lengths)
        shape = EncoderShape(d_in=d_in, d_hidden=d_hidden, d_emb=3, n_classes=4)
        params, _ = init_params(shape, RngStream(seed).child(1))
        params.b1[: min(n_dead, d_hidden)] = -1e3
        frames = ragged_batch(rng, lengths, d_in, duplicate)
        if nan_frame:
            fs = frames[rng.integers(len(frames))]
            fs[rng.integers(fs.shape[0]), rng.integers(d_in)] = np.nan
        b = len(lengths)
        d_z, d_p = rng.normal(size=(b, shape.d_emb)), rng.normal(size=(b, shape.n_classes))
        assert_matches_loop_oracle(frames, params, d_z, d_p)

    def test_nan_peak_routes_to_first_nan_frame(self, rng):
        params = small_params(seed=5)
        frames = ragged_batch(rng, [4, 6, 2], SMALL.d_in)
        frames[1][3, 0] = np.nan
        frames[1][5, 2] = np.nan
        d_z, d_p = rng.normal(size=(3, SMALL.d_emb)), rng.normal(size=(3, SMALL.n_classes))
        _, _, cache = forward_batch(frames, params)
        backward_batch(cache, params, d_z, d_p)
        assert np.array_equal(vars(cache)["max_row"][1], np.full(SMALL.d_hidden, 4 + 3))
        assert_matches_loop_oracle(frames, params, d_z, d_p)

    # One hidden unit makes the frame axis contiguous: numpy sums it
    # pairwise over T_max rows, padding included, and a ragged batch rounds
    # differently from per-sample sums.
    def test_single_hidden_unit_stays_within_rounding(self, rng):
        shape = EncoderShape(d_in=7, d_hidden=1, d_emb=3, n_classes=4)
        params, _ = init_params(shape, RngStream(2).child(1))
        params.b1[:] = 1.0  # keep the one unit alive
        for _ in range(30):
            frames = ragged_batch(rng, rng.integers(1, 30, size=6), shape.d_in)
            d_z, d_p = rng.normal(size=(6, shape.d_emb)), rng.normal(size=(6, shape.n_classes))
            assert_matches_loop_oracle(frames, params, d_z, d_p, tol=1e-12)

    # 40 sets of about 1000 frames stack more rows than an int16 holds, so
    # the max rows past 32 767 must still come out exact.
    @pytest.mark.parametrize("last_len", [1000, 999])
    def test_max_rows_beyond_int16(self, rng, last_len):
        shape = EncoderShape(d_in=2, d_hidden=3, d_emb=2, n_classes=2)
        params, _ = init_params(shape, RngStream(3).child(1))
        frames = ragged_batch(rng, [1000] * 39 + [last_len], shape.d_in)
        z, p, cache = forward_batch(frames, params)
        z_ref, _, cache_ref = looped_forward_batch(frames, params)
        backward_batch(cache, params, np.ones_like(z), np.ones_like(p))
        assert_backward_routed_like(cache, cache_ref)
        assert vars(cache)["max_row"].max() > 2**15
        assert np.array_equal(z, z_ref)


class TestLazyRouting:
    def test_forward_alone_builds_no_routing(self, rng):
        params = small_params()
        frames = ragged_batch(rng, [3, 7, 1, 5], SMALL.d_in)
        z, p, cache = forward_batch(frames, params)
        assert "max_row" not in vars(cache) and "relu_on" not in vars(cache)
        backward_batch(cache, params, np.ones_like(z), np.ones_like(p))
        assert "max_row" in vars(cache) and "relu_on" in vars(cache)

    # The pooled max is the column peak; the routing built later must point
    # at a row holding that value, for ragged, tied and dead columns alike.
    def test_pooled_max_is_the_routed_activation(self, rng):
        params = small_params(seed=4)
        params.b1[:3] = -1e3
        frames = ragged_batch(rng, [1, 5, 1, 3, 7], SMALL.d_in, duplicate=True)
        _, _, cache = forward_batch(frames, params)
        h = SMALL.d_hidden
        assert np.array_equal(cache.pooled[:, :h], cache.hidden[cache.max_row, np.arange(h)])
        assert np.array_equal(cache.relu_on, cache.hidden > 0.0)


def assert_w1_matches_einsum_oracle(frame_sets, params, d_z, d_p):
    """backward_batch equals the frame-by-frame einsum form: every segment
    but w1 bit for bit, w1 within 1e-12 relative to its largest entry."""
    _, _, cache = forward_batch(frame_sets, params)
    grad = backward_batch(cache, params, d_z, d_p)
    grad_ref = einsum_backward_batch(cache, params, d_z, d_p)
    for name, _ in params.shape.segments():
        if name != "w1":
            assert np.array_equal(getattr(grad, name), getattr(grad_ref, name)), name
    scale = np.abs(grad_ref.w1).max()
    assert np.allclose(grad.w1, grad_ref.w1, rtol=1e-12, atol=1e-12 * scale)


class TestBlasW1MatchesEinsumOracle:
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=9),
        d_in=st.integers(1, 9),
        d_hidden=st.integers(1, 16),
        n_dead=st.integers(0, 4),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_ragged_batches(self, lengths, d_in, d_hidden, n_dead, duplicate, seed):
        rng = np.random.default_rng(seed)
        shape = EncoderShape(d_in=d_in, d_hidden=d_hidden, d_emb=3, n_classes=4)
        params, _ = init_params(shape, RngStream(seed).child(1))
        params.b1[: min(n_dead, d_hidden)] = -1e3
        frames = ragged_batch(rng, lengths, d_in, duplicate)
        b = len(lengths)
        d_z, d_p = rng.normal(size=(b, shape.d_emb)), rng.normal(size=(b, shape.n_classes))
        assert_w1_matches_einsum_oracle(frames, params, d_z, d_p)

    def test_default_shape_training_batch(self, rng):
        params, _ = init_params(EncoderShape(d_in=16, d_hidden=64, d_emb=32, n_classes=40),
                                RngStream(6).child(1))
        frames = ragged_batch(rng, rng.integers(20, 32, size=32), 16, duplicate=True)
        d_z, d_p = rng.normal(size=(32, 32)), rng.normal(size=(32, 40))
        assert_w1_matches_einsum_oracle(frames, params, d_z, d_p)


class TestEmaTransfer:
    def test_endpoints(self):
        a, b = small_params(1), small_params(2)
        assert np.array_equal(ema_transfer(a, b, 1.0).flat, a.flat)
        assert np.array_equal(ema_transfer(a, b, 0.0).flat, b.flat)

    def test_arithmetic(self):
        shape = EncoderShape(d_in=1, d_hidden=1, d_emb=1, n_classes=1)
        ones = ModelParams(shape, np.ones(shape.n_params))
        zeros = ModelParams.zeros(shape)
        out = ema_transfer(ones, zeros, 0.99)
        assert np.allclose(out.flat, 0.99, atol=1e-15)

    def test_affine_in_scale(self, rng):
        a, b = small_params(1), small_params(2)
        for scale in (0.5, -2.0, 3.7):
            left = ema_transfer(
                ModelParams(SMALL, scale * a.flat), ModelParams(SMALL, scale * b.flat), 0.7
            )
            right = scale * ema_transfer(a, b, 0.7).flat
            assert np.allclose(left.flat, right, atol=1e-12)

    def test_out_of_range_rejected(self):
        a, b = small_params(1), small_params(2)
        for m in (-0.1, 1.1):
            with pytest.raises(ValueError):
                ema_transfer(a, b, m)


class TestOptimizer:
    def test_zero_lr_is_identity(self):
        params = small_params()
        grad = GradVector(SMALL, np.ones(SMALL.n_params))
        new, velocity, delta = optimizer_step(params, grad, np.zeros(SMALL.n_params), 0.0, 0.9)
        assert np.array_equal(new.flat, params.flat)
        assert np.array_equal(delta, np.zeros(SMALL.n_params))
        assert np.array_equal(velocity, grad.flat)  # the velocity still accumulates

    def test_plain_rule_definition(self, rng):
        params = small_params()
        g = rng.normal(size=SMALL.n_params)
        new, _, delta = optimizer_step(params, GradVector(SMALL, g), np.zeros(SMALL.n_params),
                                       0.05, 0.0)
        assert np.array_equal(delta, -0.05 * g)
        assert np.array_equal(new.flat, params.flat + delta)

    def test_milestone_decay(self, rng):
        g = rng.normal(size=SMALL.n_params)
        cfg = TrainerConfig(lr=0.1, milestones=(10,))
        assert [cfg.lr_at(k) for k in (9, 10, 11)] == [0.1, 0.1 * 0.1, 0.1 * 0.1]
        params, velocity = small_params(), np.zeros(SMALL.n_params)
        steps = [optimizer_step(params, GradVector(SMALL, g), velocity, cfg.lr_at(k), 0.0)
                 for k in (9, 11)]
        # momentum 0: identical grads, so the step literally shrinks 10x
        assert np.allclose(steps[0][2], 10.0 * steps[1][2], rtol=1e-12)

    def test_momentum_accumulates(self, rng):
        g = rng.normal(size=SMALL.n_params)
        params, velocity = small_params(), np.zeros(SMALL.n_params)
        params, velocity, d1 = optimizer_step(params, GradVector(SMALL, g), velocity, 1.0, 0.9)
        _, velocity, d2 = optimizer_step(params, GradVector(SMALL, g), velocity, 1.0, 0.9)
        assert np.allclose(d2, 1.9 * d1, rtol=1e-12)
        assert np.array_equal(velocity, 0.9 * g + g)

    def test_delta_reconstructs_bit_exactly(self, rng):
        params = small_params()
        g = rng.normal(size=SMALL.n_params)
        velocity = rng.normal(size=SMALL.n_params)
        new, _, delta = optimizer_step(params, GradVector(SMALL, g), velocity, 0.05, 0.9)
        assert np.array_equal(new.flat, params.flat + delta)


class TestGradientSuiteThroughLosses:
    def test_ce_through_encoder(self, rng):
        params = small_params(seed=5)
        frames = [random_frames(rng) for _ in range(4)]
        labels = np.array([0, 1, 2, 3])

        def loss_fn(p):
            _, logits, _ = forward_batch(frames, p)
            loss, _ = batch_ce(logits, labels)
            return loss

        z, logits, cache = forward_batch(frames, params)
        _, d_p = batch_ce(logits, labels)
        grad = backward_batch(cache, params, np.zeros_like(z), d_p)
        for idx in rng.choice(SMALL.n_params, size=40, replace=False):
            numeric = central_difference(loss_fn, params, int(idx))
            assert_grad_close(grad.flat[idx], numeric)


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        params = small_params(7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, extra={"config_hash": "abc"})
        loaded, header = load_checkpoint(path)
        assert np.array_equal(loaded.flat, params.flat)
        assert loaded.shape == SMALL
        assert header["config_hash"] == "abc"

    def test_truncated_payload_rejected(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_header_length_mismatch_rejected(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        head, rest = blob.split(b"\n", 1)
        head = head.replace(b'"n_params": %d' % SMALL.n_params, b'"n_params": 11')
        path.write_bytes(head + b"\n" + rest)
        with pytest.raises(ValueError):
            load_checkpoint(path)


def test_param_vector_layout_guard():
    with pytest.raises(ValueError):
        ModelParams(SMALL, np.zeros(3))


def test_init_distinct_streams_differ():
    a, _ = init_params(SMALL, RngStream(1).child(1))
    b, _ = init_params(SMALL, RngStream(1).child(2))
    assert not np.array_equal(a.flat, b.flat)
