import hashlib
import json

import numpy as np
import pytest

from cyclegait.gaitgen import (
    AugmentationSpec,
    DatasetBundle,
    FLAG_CLEAN,
    FLAG_LABEL,
    FLAG_SPLIT,
    SequenceSample,
    augment_frame_sets,
    corrupt_bundle,
    dataset_hash,
    inject_identity_split,
    inject_random_label_noise,
    load_bundle,
    make_benchmark,
    make_clean_dataset,
    regenerate_from_manifest,
    save_bundle,
)
from cyclegait import gaitgen
from cyclegait import numkit
from cyclegait.numkit import _DRAW_BLOCK, RngStream
import reference
from reference import geometry_of, nearest_prototype_ids

MASK64 = 2**64 - 1

# the augmentations the tests run: one that changes nothing, the training
# default, and one that drops more frames and jitters harder
SPECS = {
    "none": AugmentationSpec(drop_prob=0.0, jitter_sigma=0.0),
    "default": AugmentationSpec(),
    "strong": AugmentationSpec(drop_prob=0.3, jitter_sigma=0.1),
}


def small_dataset(n_ids=6, seed=3, **kwargs):
    defaults = dict(
        n_views=2,
        condition_groups={"NM": 2, "BG": 1, "CL": 1},
        frames_per_seq=8,
        d_in=16,
        seed=seed,
    )
    defaults.update(kwargs)
    return make_clean_dataset(n_ids, **defaults)


def frames_equal(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x.frames, y.frames)
        and x.identity == y.identity
        and x.condition == y.condition
        and x.view == y.view
        and x.clean_identity == y.clean_identity
        and x.noise_flag == y.noise_flag
        for x, y in zip(a, b)
    )


def frame_bytes_equal(a, b):
    return frames_equal(a, b) and all(
        x.frames.shape == y.frames.shape and x.frames.tobytes() == y.frames.tobytes()
        for x, y in zip(a, b)
    )


class TestBlockGeneratorMatchesLoopOracle:
    @pytest.fixture()
    def draw_addresses(self, monkeypatch):
        """The address and size of every draw, as (seed, stream, block, n
        values), in draw order: an RngStream.normal call by its stream, and a
        yield of RngStream.generators by the key and counter its Philox holds
        when yielded."""
        calls = []
        real_normal, real_generators = RngStream.normal, RngStream.generators

        def normal(stream, n, *args):
            calls.append((stream.seed & MASK64, stream.stream & MASK64, stream.block, n))
            return real_normal(stream, n, *args)

        def generators(stream, sizes):
            sizes = list(sizes)
            for n, gen in zip(sizes, real_generators(stream, sizes)):
                state = gen.bit_generator.state["state"]
                counter, key = state["counter"].tolist(), state["key"].tolist()
                assert counter[0] % _DRAW_BLOCK == 0 and counter[1:] == [0, 0, 0]
                calls.append((key[0], key[1], counter[0] // _DRAW_BLOCK, n))
                yield gen

        monkeypatch.setattr(RngStream, "normal", normal)
        monkeypatch.setattr(RngStream, "generators", generators)
        return calls

    @pytest.mark.parametrize("n_views", [1, 4])
    @pytest.mark.parametrize("d_in", [5, 16])
    @pytest.mark.parametrize("frames_per_seq", [1, 30])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_frames_tags_and_draws(self, n_views, d_in, frames_per_seq, seed, draw_addresses):
        args = (5, n_views, {"NM": 2, "BG": 0, "CL": 1}, frames_per_seq, d_in, seed)
        samples, manifest = make_clean_dataset(*args)
        n_block = len(draw_addresses)
        oracle, oracle_manifest = reference.per_sequence_clean_dataset(*args)
        assert len(samples) == 5 * 3 * n_views
        assert frame_bytes_equal(samples, oracle)
        assert manifest == oracle_manifest
        assert draw_addresses[:n_block] == draw_addresses[n_block:]

    @pytest.mark.parametrize("mode, amount", [("label", 0.3), ("split", 0.5)])
    def test_after_corruption_and_regeneration(self, mode, amount, draw_addresses, monkeypatch):
        def build():
            bundle = corrupt_bundle(make_benchmark(
                n_ids=8, n_train_ids=5, n_views=2, condition_groups={"NM": 2, "BG": 1, "CL": 1},
                frames_per_seq=6, seed=3), mode, amount, seed=7)
            return bundle, regenerate_from_manifest(bundle.manifest)

        built = build()
        n_block = len(draw_addresses)
        monkeypatch.setattr(gaitgen, "make_clean_dataset", reference.per_sequence_clean_dataset)
        oracle = build()
        assert draw_addresses[:n_block] == draw_addresses[n_block:]
        for fast, slow in zip((*built, built[1]), (*oracle, built[0])):
            assert frame_bytes_equal(fast.train, slow.train)
            assert frame_bytes_equal(fast.test, slow.test)
            assert fast.manifest == slow.manifest

    def test_frames_are_views_of_one_block_per_identity(self):
        samples, _ = small_dataset()
        blocks = {}
        for s in samples:
            assert s.frames.base is blocks.setdefault(s.identity, s.frames.base)
        assert len({id(b) for b in blocks.values()}) == len(blocks) == 6


class TestCleanGeneration:
    def test_deterministic(self):
        a, _ = small_dataset()
        b, _ = small_dataset()
        assert frames_equal(a, b)

    def test_counts_and_tags(self):
        samples, manifest = small_dataset()
        assert len(samples) == 6 * (2 + 1 + 1) * 2
        for s in samples:
            assert s.identity == s.clean_identity
            assert s.noise_flag == FLAG_CLEAN
            assert 0 <= s.view < 2
            assert s.frames.shape == (8, 16)

    def test_zero_jitter_nearest_prototype_perfect(self, monkeypatch):
        monkeypatch.setattr(gaitgen, "FRAME_JITTER", 0.0)
        monkeypatch.setattr(gaitgen, "SEQ_JITTER", 0.0)
        samples, manifest = make_clean_dataset(2, 1, {"NM": 1}, 5, 16, seed=9)
        geom = geometry_of(manifest)
        preds = nearest_prototype_ids(samples, geom)
        assert np.array_equal(preds, [s.clean_identity for s in samples])

    def test_cl_frames_farther_than_nm_within_identity(self):
        # Monte-Carlo audit of the clothing-offset calibration
        samples, manifest = small_dataset(n_ids=10, seed=5)
        geom = geometry_of(manifest)
        rng = np.random.default_rng(0)
        nm = [s for s in samples if s.condition == "NM"]
        cl = [s for s in samples if s.condition == "CL"]
        by_id_nm = {}
        for s in nm:
            by_id_nm.setdefault(s.identity, []).append(s)

        def frame_dist(s1, s2, n_pairs=10):
            d = 0.0
            for _ in range(n_pairs):
                f1 = s1.frames[rng.integers(len(s1.frames))]
                f2 = s2.frames[rng.integers(len(s2.frames))]
                # compare in the unrotated latent frame
                u1 = geom.rotations[s1.view].T @ f1
                u2 = geom.rotations[s2.view].T @ f2
                d += np.linalg.norm(u1 - u2)
            return d / n_pairs

        nm_nm, cl_nm = [], []
        for _ in range(100):
            s_cl = cl[rng.integers(len(cl))]
            peers = by_id_nm[s_cl.identity]
            s_nm1, s_nm2 = peers[rng.integers(len(peers))], peers[rng.integers(len(peers))]
            cl_nm.append(frame_dist(s_cl, s_nm1))
            nm_nm.append(frame_dist(s_nm1, s_nm2))
        assert np.mean(cl_nm) > np.mean(nm_nm)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_clean_dataset(1, 2, {"NM": 1}, 5, 16, seed=1)
        with pytest.raises(ValueError):
            make_clean_dataset(4, 0, {"NM": 1}, 5, 16, seed=1)


class TestLabelNoise:
    def test_rate_zero_is_noop(self):
        samples, _ = small_dataset()
        out, _ = inject_random_label_noise(samples, 0.0, seed=1)
        assert frames_equal(samples, out)

    def test_exact_count_and_no_self_relabel(self):
        samples, _ = make_clean_dataset(
            10, 4, {"NM": 13, "BG": 6, "CL": 6}, 4, 16, seed=2
        )
        assert len(samples) == 1000
        out, _ = inject_random_label_noise(samples, 0.2, seed=11)
        flagged = [s for s in out if s.noise_flag == FLAG_LABEL]
        assert len(flagged) == 200
        for s in flagged:
            assert s.identity != s.clean_identity
        untouched = [s for s in out if s.noise_flag == FLAG_CLEAN]
        assert all(s.identity == s.clean_identity for s in untouched)

    def test_deterministic_in_seed(self):
        samples, _ = small_dataset()
        a, _ = inject_random_label_noise(samples, 0.3, seed=4)
        b, _ = inject_random_label_noise(samples, 0.3, seed=4)
        assert frames_equal(a, b)
        c, _ = inject_random_label_noise(samples, 0.3, seed=5)
        assert not frames_equal(a, c)

    def test_rate_one_rejected(self):
        samples, _ = small_dataset()
        with pytest.raises(ValueError):
            inject_random_label_noise(samples, 1.0, seed=1)

    @pytest.mark.parametrize("ids", [(0, 1), (3, 7, 8, 20), (-4, 2, 5, 9, 11, 30)])
    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.45])
    def test_matches_per_victim_loop(self, ids, rate):
        # ten sequences per identity, in shuffled id order, so victims hold the
        # smallest and the largest id across the seeds
        order = np.random.default_rng(len(ids)).permutation(10 * len(ids))
        samples = [SequenceSample(np.full((2, 3), float(k)), ids[k % len(ids)], "NM", 0,
                                  ids[k % len(ids)]) for k in order.tolist()]
        before = [dict(vars(s)) for s in samples]
        victim_ids = set()
        for seed in range(8):
            out, descriptor = inject_random_label_noise(samples, rate, seed)
            want, want_descriptor = reference.per_victim_label_noise(samples, rate, seed)
            assert frame_bytes_equal(out, want) and descriptor == want_descriptor
            for s, new in zip(samples, out):
                # an unchanged sample is shared, a relabelled one a copy
                assert (new is s) == (new.noise_flag == FLAG_CLEAN)
                assert new.frames is s.frames
                if new is not s:
                    victim_ids.add(s.identity)
            assert all(vars(s) == b for s, b in zip(samples, before))
        if rate > 0.0:
            assert {min(ids), max(ids)} <= victim_ids


class TestIdentitySplit:
    def test_fraction_zero_is_noop(self):
        samples, _ = small_dataset()
        out, _ = inject_identity_split(samples, 0.0)
        assert frames_equal(samples, out)

    def test_full_split_moves_every_cl_sequence(self):
        samples, _ = small_dataset(n_ids=5)
        out, _ = inject_identity_split(samples, 1.0)
        assert not any(s.condition == "CL" for s in out)
        new_ids = {s.identity for s in out if s.noise_flag == FLAG_SPLIT}
        assert new_ids == set(range(5, 10))  # one new id per original with CL

    def test_paper_operating_point_74_ids(self):
        samples, _ = make_clean_dataset(
            74, 1, {"NM": 1, "CL": 1}, 3, 16, seed=4
        )
        out, _ = inject_identity_split(samples, 0.6)
        affected = {s.clean_identity for s in out if s.noise_flag == FLAG_SPLIT}
        assert affected == set(range(44))  # floor(0.6 * 74) = 44 first ids

    def test_only_relabelled_sequences_are_copied(self):
        samples, _ = small_dataset(n_ids=4)
        before = [dict(vars(s)) for s in samples]
        out, _ = inject_identity_split(samples, 0.5)
        for s, new in zip(samples, out):
            assert (new is s) == (new.noise_flag == FLAG_CLEAN)
            assert new.frames is s.frames
        assert any(new is not s for s, new in zip(samples, out))
        assert all(vars(s) == b for s, b in zip(samples, before))

    def test_condition_rewritten_and_clean_id_kept(self):
        samples, _ = small_dataset(n_ids=4)
        out, _ = inject_identity_split(samples, 0.5)
        moved = [s for s in out if s.noise_flag == FLAG_SPLIT]
        assert moved
        for s in moved:
            assert s.condition == "NM"
            assert s.clean_identity < 4 <= s.identity
            assert s.identity != s.clean_identity


class TestBundleAndManifest:
    def test_benchmark_split(self):
        bundle = make_benchmark(n_ids=8, n_train_ids=5, n_views=2,
                                condition_groups={"NM": 2, "BG": 1, "CL": 1},
                                frames_per_seq=6, seed=2)
        assert {s.identity for s in bundle.train} == set(range(5))
        assert {s.identity for s in bundle.test} == {5, 6, 7}
        assert reference.n_train_classes(bundle) == 5

    def test_manifest_roundtrip_bytes(self):
        bundle = make_benchmark(n_ids=6, n_train_ids=4, n_views=2,
                                condition_groups={"NM": 2, "BG": 1, "CL": 1},
                                frames_per_seq=5, seed=7)
        bundle = corrupt_bundle(bundle, "label", 0.2, seed=3)
        bundle = corrupt_bundle(bundle, "split", 0.5, seed=0)
        regen = regenerate_from_manifest(bundle.manifest)
        assert frames_equal(bundle.train, regen.train)
        assert frames_equal(bundle.test, regen.test)

    def test_save_load_roundtrip(self, tmp_path):
        bundle = make_benchmark(n_ids=5, n_train_ids=3, n_views=2,
                                condition_groups={"NM": 1, "CL": 1},
                                frames_per_seq=4, seed=1)
        save_bundle(bundle, tmp_path)
        loaded = load_bundle(tmp_path)
        assert frames_equal(bundle.train, loaded.train)
        assert frames_equal(bundle.test, loaded.test)
        # the saved manifest gains its hash; the caller's bundle is left as it was
        assert "config_hash" not in bundle.manifest
        digest = dataset_hash(bundle.manifest)
        assert loaded.manifest == {**bundle.manifest, "config_hash": digest}

    def test_split_file_layout(self, tmp_path):
        bundle = make_benchmark(n_ids=5, n_train_ids=3, n_views=1,
                                condition_groups={"NM": 1, "CL": 1},
                                frames_per_seq=4, seed=1)
        save_bundle(bundle, tmp_path)
        blob = (tmp_path / "train.bin").read_bytes()
        header_end = blob.index(b"\n") + 1
        header = json.loads(blob[:header_end])
        assert blob[:header_end] == json.dumps(header, sort_keys=True).encode() + b"\n"
        assert set(header) == {"format_version", "n_sequences", "d_in", "lengths", "id",
                               "clean_id", "condition", "view", "noise_flag", "config_hash"}
        assert header["format_version"] == 2
        assert header["config_hash"] == dataset_hash(bundle.manifest)
        assert header["n_sequences"] == len(bundle.train)
        assert header["lengths"] == [s.frames.shape[0] for s in bundle.train]
        assert len(blob) - header_end == 8 * sum(header["lengths"]) * header["d_in"]
        frames = np.concatenate([s.frames for s in bundle.train])
        assert blob[header_end:] == frames.astype("<f8").tobytes()

    def test_ragged_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        flags = (FLAG_CLEAN, FLAG_LABEL, FLAG_SPLIT, FLAG_CLEAN)
        samples = [
            SequenceSample(rng.normal(size=(t, 3)) * 10.0 ** rng.integers(-300, 300, size=(t, 3)),
                           identity=k + 1, condition=cond, view=k, clean_identity=k,
                           noise_flag=flag)
            for k, (t, cond, flag) in enumerate(zip((1, 5, 30, 2), ("NM", "BG", "CL", "NM"), flags))
        ]
        samples[1].frames[0, :] = (-0.0, 5e-324, np.nextafter(1.0, 2.0))
        bundle = DatasetBundle(samples, samples[::-1],
                               {"format_version": gaitgen.DATASET_FORMAT_VERSION})
        save_bundle(bundle, tmp_path)
        loaded = load_bundle(tmp_path)
        for split, back in ((bundle.train, loaded.train), (bundle.test, loaded.test)):
            assert frames_equal(split, back)
            for s, b in zip(split, back):
                assert b.frames.tobytes() == s.frames.tobytes()
                assert b.frames.dtype == np.float64 and b.frames.flags.writeable

    def test_bad_split_files_are_rejected(self, tmp_path):
        bundle = make_benchmark(n_ids=5, n_train_ids=3, n_views=1,
                                condition_groups={"NM": 1, "CL": 1},
                                frames_per_seq=4, seed=1)
        save_bundle(bundle, tmp_path)
        path = tmp_path / "train.bin"
        good = path.read_bytes()
        header_end = good.index(b"\n") + 1
        header = json.loads(good[:header_end])

        def with_header(**changes):
            return json.dumps({**header, **changes}, sort_keys=True).encode() + b"\n"

        for blob in (good[:-8], good + b"\0" * 4,
                     with_header(format_version=1) + good[header_end:],
                     with_header(view=header["view"][:-1]) + good[header_end:],
                     with_header(lengths=header["lengths"] + [4]) + good[header_end:],
                     with_header(lengths=[0, 8, *header["lengths"][2:]]) + good[header_end:],
                     with_header(lengths=[-1, 9, *header["lengths"][2:]]) + good[header_end:]):
            path.write_bytes(blob)
            with pytest.raises(ValueError, match="train.bin"):
                load_bundle(tmp_path)

    def test_manifest_of_another_format_is_refused(self, tmp_path):
        bundle = make_benchmark(n_ids=5, n_train_ids=3, n_views=1,
                                condition_groups={"NM": 1, "CL": 1},
                                frames_per_seq=4, seed=1)
        save_bundle(bundle, tmp_path)
        # format 1 wrote the same split files
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps(reference.format_1_manifest(manifest)))
        with pytest.raises(ValueError, match="format 1") as err:
            load_bundle(tmp_path)
        assert str(tmp_path) in str(err.value) and "gen-data" in str(err.value)

    def test_default_benchmark_is_pinned(self):
        # sha256 of each split's frames in sample order; a generator change
        # that moves them must bump DATASET_FORMAT_VERSION with this pin
        assert gaitgen.DATASET_FORMAT_VERSION == 2
        bundle = make_benchmark(seed=1)
        for split, n, digest in (
                (bundle.train, 1600,
                 "0b147a817e37f952cc636471557f21f43ac6ba2c806890aac5477b2fb6501e0a"),
                (bundle.test, 800,
                 "42a42fd38a337fb527e746989175e03e6557a3ccaba268f7f1bbfd3c10f754dc")):
            assert len(split) == n
            frames = np.concatenate([s.frames for s in split]).astype("<f8")
            assert hashlib.sha256(frames.tobytes()).hexdigest() == digest

    def test_counts_preserved_by_corruptions(self):
        bundle = make_benchmark(n_ids=6, n_train_ids=4, n_views=2,
                                condition_groups={"NM": 2, "BG": 1, "CL": 1},
                                frames_per_seq=5, seed=7)
        n = len(bundle.train)
        for mode, amount in (("label", 0.2), ("split", 0.5)):
            out = corrupt_bundle(bundle, mode, amount, seed=1)
            assert len(out.train) == n

    @pytest.mark.parametrize("mode, amount", [("label", 0.2), ("split", 0.6)])
    def test_benchmark_matches_fresh_generator(self, mode, amount, monkeypatch):
        def build():
            return corrupt_bundle(make_benchmark(seed=1), mode, amount, seed=7)

        fast = build()
        # every draw, RngStream's methods and its generators alike, resets
        # through numkit._reset
        monkeypatch.setattr(numkit, "_reset", lambda seed, stream, block:
                            reference.fresh_generator(RngStream(seed, stream, block)))
        oracle = build()
        assert frames_equal(fast.train, oracle.train)
        assert frames_equal(fast.test, oracle.test)
        assert fast.manifest == oracle.manifest


class TestTrainingAugmentation:
    def test_null_spec_is_identity(self, rng):
        frame_sets = [rng.normal(size=(t, 4)) for t in (9, 3, 12)]
        out, _ = augment_frame_sets(frame_sets, SPECS["none"], RngStream(1))
        assert all(np.array_equal(a, f) for a, f in zip(out, frame_sets))

    def test_min_frames_clamp(self, rng):
        frame_sets = [rng.normal(size=(t, 4)) for t in (10, 6, 5, 4, 3)]
        for spec in (AugmentationSpec(), AugmentationSpec(drop_prob=0.9, jitter_sigma=0.0)):
            stream = RngStream(2)
            rescued = 0
            for _ in range(200):
                out, stream = augment_frame_sets(frame_sets, spec, stream)
                for aug, frames in zip(out, frame_sets):
                    t = frames.shape[0]
                    assert aug.shape[0] >= min(t, spec.min_frames)
                    if t <= spec.min_frames:
                        assert aug.shape[0] == t  # too short to drop from
                    rescued += aug.shape[0] == spec.min_frames < t
                    if spec.jitter_sigma == 0.0:
                        # kept frames are original rows, in their original order
                        rows = [np.flatnonzero((frames == f).all(axis=1))[0] for f in aug]
                        assert rows == sorted(set(rows))
            assert rescued > 0

    @pytest.mark.parametrize("name", ["none", "default", "strong"])
    def test_matches_per_sample_loop(self, rng, name):
        # oracle: the per-sample loop on the same draws. Lengths 3 and 4 are
        # too short to drop from; 5 and 6 often need the min_frames fallback.
        spec = SPECS[name]
        frame_sets = [rng.normal(size=(t, 16)) for t in (3, 4, 5, 6, 30, 17, 5, 30)]
        t_max = max(f.shape[0] for f in frame_sets)
        stream = ref_stream = RngStream(11, 4)
        rescued = 0
        for _ in range(300):
            u, _ = stream.uniform(len(frame_sets) * t_max)
            u = u.reshape(len(frame_sets), t_max)
            out, stream = augment_frame_sets(frame_sets, spec, stream)
            expected, ref_stream = reference.augment_frame_sets(frame_sets, spec, ref_stream)
            assert stream == ref_stream
            assert len(out) == len(expected)
            for got, want in zip(out, expected):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            for i, frames in enumerate(frame_sets):
                t = frames.shape[0]
                if spec.drop_prob > 0.0 and t > spec.min_frames:
                    rescued += (u[i, :t] >= spec.drop_prob).sum() < spec.min_frames
        if name != "none":
            assert rescued > 0

    def test_same_state_same_transform(self, rng):
        frame_sets = [rng.normal(size=(t, 4)) for t in (12, 7, 5)]
        for name in ("default", "strong"):
            out1, after1 = augment_frame_sets(frame_sets, SPECS[name], RngStream(5, 7))
            out2, after2 = augment_frame_sets(frame_sets, SPECS[name], RngStream(5, 7))
            assert after1 == after2
            assert all(np.array_equal(a, b) for a, b in zip(out1, out2))
