import json
from dataclasses import replace

import numpy as np
import pytest

from cyclegait.gaitgen import (
    AUGMENTATIONS,
    FLAG_AUG,
    FLAG_CLEAN,
    FLAG_LABEL,
    FLAG_SPLIT,
    GeometryParams,
    augment_frame_sets,
    corrupt_bundle,
    geometry_of,
    inject_augmentation_noise,
    inject_identity_split,
    inject_random_label_noise,
    load_bundle,
    make_benchmark,
    make_clean_dataset,
    nearest_prototype_ids,
    regenerate_from_manifest,
    save_bundle,
)
from cyclegait.numkit import RngStream


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

    def test_zero_jitter_nearest_prototype_perfect(self):
        params = GeometryParams(frame_jitter=0.0, seq_jitter=0.0)
        samples, manifest = make_clean_dataset(
            2, 1, {"NM": 1}, 5, 16, seed=9, params=params
        )
        geom = geometry_of(
            {"generator": {"n_ids": 2, "n_views": 1, "d_in": 16, "seed": 9,
                           "geometry": params.to_dict()}}
        )
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


class TestAugmentationNoise:
    def test_rate_zero_is_noop(self):
        samples, _ = small_dataset()
        out, _ = inject_augmentation_noise(samples, 0.0, seed=1)
        assert frames_equal(samples, out)

    def test_perturbed_frames_move_but_labels_stay(self):
        samples, _ = small_dataset()
        out, _ = inject_augmentation_noise(samples, 0.25, seed=3)
        flagged = [(orig, new) for orig, new in zip(samples, out) if new.noise_flag == FLAG_AUG]
        assert len(flagged) == round(0.25 * len(samples))
        for orig, new in flagged:
            assert new.identity == new.clean_identity == orig.identity
            assert np.linalg.norm(new.frames - orig.frames) > 0.0

    def test_calibration_drops_prototype_accuracy(self):
        # a nearest-prototype classifier must lose >= 10 points on the
        # perturbed sequences of a 20-identity dataset
        samples, manifest = make_clean_dataset(
            20, 2, {"NM": 3, "BG": 2, "CL": 2}, 10, 16, seed=8
        )
        geom = geometry_of(manifest)
        out, _ = inject_augmentation_noise(samples, 0.5, seed=21)
        hit = np.array([s.noise_flag == FLAG_AUG for s in out])
        clean_before = np.array([s.clean_identity for s in samples])[hit]
        preds_before = nearest_prototype_ids([s for s, h in zip(samples, hit) if h], geom)
        preds_after = nearest_prototype_ids([s for s, h in zip(out, hit) if h], geom)
        acc_before = float(np.mean(preds_before == clean_before))
        acc_after = float(np.mean(preds_after == clean_before))
        assert acc_before - acc_after >= 0.10


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
        assert bundle.n_train_classes == 5

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
        assert loaded.manifest == bundle.manifest

    def test_jsonl_keys(self, tmp_path):
        bundle = make_benchmark(n_ids=5, n_train_ids=3, n_views=1,
                                condition_groups={"NM": 1, "CL": 1},
                                frames_per_seq=4, seed=1)
        save_bundle(bundle, tmp_path)
        with open(tmp_path / "train.jsonl") as fh:
            header = json.loads(fh.readline())
            assert header["format_version"] == 1
            row = json.loads(fh.readline())
        assert set(row) == {"id", "clean_id", "condition", "view", "noise_flag", "frames"}

    def test_counts_preserved_by_corruptions(self):
        bundle = make_benchmark(n_ids=6, n_train_ids=4, n_views=2,
                                condition_groups={"NM": 2, "BG": 1, "CL": 1},
                                frames_per_seq=5, seed=7)
        n = len(bundle.train)
        for mode, amount in (("label", 0.2), ("augmentation", 0.2), ("split", 0.5)):
            out = corrupt_bundle(bundle, mode, amount, seed=1)
            assert len(out.train) == n


class TestTrainingAugmentation:
    def test_null_spec_is_identity(self, rng):
        frame_sets = [rng.normal(size=(t, 4)) for t in (9, 3, 12)]
        out, after = augment_frame_sets(frame_sets, AUGMENTATIONS["none"], RngStream(1))
        assert all(np.array_equal(a, f) for a, f in zip(out, frame_sets))
        assert after == RngStream(1)  # no draw is spent

    def test_min_frames_clamp(self, rng):
        frame_sets = [rng.normal(size=(t, 4)) for t in (10, 6, 5, 4, 3)]
        for spec in (AUGMENTATIONS["default"],
                     replace(AUGMENTATIONS["default"], drop_prob=0.9, jitter_sigma=0.0)):
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

    def test_same_state_same_transform(self, rng):
        frame_sets = [rng.normal(size=(t, 4)) for t in (12, 7, 5)]
        for name in ("default", "strong"):
            out1, after1 = augment_frame_sets(frame_sets, AUGMENTATIONS[name], RngStream(5, 7))
            out2, after2 = augment_frame_sets(frame_sets, AUGMENTATIONS[name], RngStream(5, 7))
            assert after1 == after2
            assert all(np.array_equal(a, b) for a, b in zip(out1, out2))

    def test_strong_lengths_reach_duplicate(self, rng):
        spec = AUGMENTATIONS["strong"]
        t = 6
        frame_sets = [rng.normal(size=(t, 4)) for _ in range(64)]
        lengths = []
        stream = RngStream(3)
        for _ in range(10):
            out, stream = augment_frame_sets(frame_sets, spec, stream)
            lengths += [aug.shape[0] for aug in out]
        assert spec.min_frames <= min(lengths) and max(lengths) == t + 1
        # without jitter a duplicated frame repeats a kept frame exactly
        out, _ = augment_frame_sets(frame_sets, replace(spec, jitter_sigma=0.0), RngStream(3))
        duplicated = [aug for aug in out if aug.shape[0] == t + 1]
        assert duplicated
        for aug in duplicated:
            assert (aug[:-1] == aug[-1]).all(axis=1).any()
