import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclegait import cyclic, gaugekit
from cyclegait.gaitgen import SequenceSample, make_benchmark
from cyclegait.gaugekit import (
    PROBE_CHUNK,
    EvalStructureError,
    cost_model,
    closed_form_theta_m,
    embed_samples,
    evaluate_checkpoint,
    memorization_curve,
    nearest_gallery_entry,
    rank1,
    replay_recurrence,
    split_gallery_probe,
    variance_stats,
    verify_ema_closed_form,
    verify_trace_file,
)
from cyclegait.cyclic import TraceWriter
from cyclegait.numkit import RngStream
from cyclegait.setnet import EncoderShape, init_params
import reference
from conftest import record_dropped_caches


def pairs(deltas_f, deltas_m):
    """Two (N, P) arrays as the N (delta_f, delta_m) record pairs gaugekit reads."""
    return list(zip(deltas_f, deltas_m))


def write_trace(path, rng, n, p, m, scale=0.01):
    """A trace of n random records of p parameters at momentum m; returns path."""
    with TraceWriter(path, p, m, n) as writer:
        for k in range(1, n + 1):
            writer.write(k, rng.normal(scale=scale, size=p), rng.normal(scale=scale, size=p))
    return path


def sample(identity, view, condition):
    """A test-split sample; rank1 reads only its tags."""
    return SequenceSample(np.zeros((1, 1)), identity, condition, view, identity)


class TestRank1:
    # The first NM of each (identity, view) is gallery, so every hand-made
    # probe is BG or CL.
    def test_hand_computed_half_accuracy(self):
        samples = [sample(0, 0, "NM"), sample(1, 0, "NM"),  # ids A=0, B=1
                   sample(0, 1, "BG"), sample(1, 1, "BG")]
        z = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.6], [0.2, 0.8]])
        report = rank1(z, samples)
        # probe A: d(A)=0.849 > d(B)=0.566 -> wrong; probe B correct
        assert report.cells[("BG", 1)] == 50.0
        assert (report.gallery_size, report.probe_size) == (2, 2)

    def test_tie_break_lowest_gallery_index(self):
        samples = [sample(7, 0, "NM"), sample(8, 0, "NM"), sample(9, 0, "NM"),
                   sample(7, 1, "CL"), sample(9, 1, "CL")]
        report = rank1(np.zeros((5, 2)), samples)
        # every probe resolves to gallery index 0 (id 7)
        assert report.cells[("CL", 1)] == 50.0

    def test_same_view_exclusion_changes_candidates(self):
        samples = [sample(0, 0, "NM"), sample(1, 1, "NM"), sample(0, 0, "BG")]
        z = np.array([[0.0, 0.0], [10.0, 10.0], [0.1, 0.0]])
        report = rank1(z, samples)
        assert report.cells[("BG", 0)] == 0.0  # only the far id-1 entry admissible
        assert report.to_json_dict()["exclude_same_view"] is True

    def test_later_nm_of_a_gallery_key_probes(self):
        samples = [sample(0, 0, "NM"), sample(1, 1, "NM"), sample(1, 1, "NM")]
        report = rank1(np.array([[0.0], [5.0], [0.0]]), samples)
        assert (report.gallery_size, report.probe_size) == (2, 1)
        assert report.cells == {("NM", 1): 0.0}

    def test_a_cell_without_probes_is_empty_in_the_csv(self):
        samples = [sample(0, 0, "NM"), sample(0, 1, "NM"), sample(0, 0, "BG"),
                   sample(0, 1, "CL")]
        text = rank1(np.zeros((4, 1)), samples).to_csv_text()
        assert text.splitlines() == ["probe,0,1,Mean",
                                     "BG,100.000000,,100.000000",
                                     "CL,,100.000000,100.000000",
                                     "Overall,,,100.000000"]

    def test_empty_admissible_gallery_is_structural_error(self):
        samples = [sample(0, 0, "NM"), sample(0, 1, "NM"), sample(0, 0, "BG"),
                   sample(3, 2, "CL")]
        with pytest.raises(EvalStructureError,
                           match=r"^probe 0 \(id 0, view 0, BG\) has no admissible"):
            rank1(np.zeros((2, 2)), samples[:1] + samples[2:3])
        # view 2 has no gallery entry of its own, so its probe can match
        assert rank1(np.zeros((4, 2)), samples).probe_size == 2

    def test_embeddings_must_align_with_samples(self):
        samples = [sample(0, 0, "NM"), sample(0, 1, "BG")]
        for z in (np.zeros((3, 2)), np.zeros((1, 2)), np.zeros(2)):
            with pytest.raises(ValueError, match="one embedding row per test sample"):
                rank1(z, samples)

    def test_means_recompute_from_cells(self, rng):
        samples = [sample(int(rng.integers(0, 5)), int(rng.integers(0, 3)),
                          ("NM", "BG", "CL")[i % 3]) for i in range(50)]
        report = rank1(rng.normal(size=(50, 4)), samples)
        for c in report.conditions:
            cells = [report.cells[(c, v)] for v in report.views if (c, v) in report.cells]
            assert abs(report.condition_means[c] - np.mean(cells)) < 1e-12
        assert abs(report.overall_mean - np.mean(list(report.cells.values()))) < 1e-12


class TestRank1MatchesPerProbeOracle:
    # Sample lists mix conditions and order, so later NMs of a gallery key
    # probe; copied embedding rows give ties; with one view every probe has
    # no admissible entry, and both must raise the same error.
    @given(
        n_samples=st.integers(2, 160),
        n_ids=st.integers(1, 6),
        n_views=st.integers(1, 4),
        d=st.integers(1, 6),
        n_copies=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_splits(self, n_samples, n_ids, n_views, d, n_copies, seed):
        rng = np.random.default_rng(seed)
        samples = [sample(int(rng.integers(n_ids)), int(rng.integers(n_views)),
                          str(rng.choice(["NM", "NM", "BG", "CL"])))
                   for _ in range(n_samples)]
        z = rng.normal(size=(n_samples, d))
        for _ in range(n_copies):
            z[rng.integers(n_samples)] = z[rng.integers(n_samples)]
        try:
            expected = reference.rank1(z, samples)
        except (ValueError, EvalStructureError) as err:
            with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                rank1(z, samples)
            return
        got = rank1(z, samples)
        assert got.to_json_dict() == expected.to_json_dict()
        assert got.to_csv_text() == expected.to_csv_text()

    def test_probe_counts_across_the_chunk_edge(self):
        # two views, three ids: 6 gallery entries, then probes in file order
        rng = np.random.default_rng(4)
        for n_probes in (PROBE_CHUNK - 1, PROBE_CHUNK, PROBE_CHUNK + 1, 3 * PROBE_CHUNK):
            samples = [sample(i % 3, i // 3, "NM") for i in range(6)]
            samples += [sample(int(rng.integers(3)), int(rng.integers(2)),
                               ("NM", "BG", "CL")[k % 3]) for k in range(n_probes)]
            z = rng.normal(size=(len(samples), 3))
            z[-1] = z[0]
            got, expected = rank1(z, samples), reference.rank1(z, samples)
            assert got.probe_size == n_probes
            assert got.to_json_dict() == expected.to_json_dict()
            assert got.to_csv_text() == expected.to_csv_text()


class TestNearestGalleryEntryMatchesPerProbeSearch:
    # Probe counts cross the 64-probe chunk edge; non-finite features give
    # NaN and +inf distances, and copied gallery rows give ties.
    @given(
        n_gallery=st.integers(1, 40),
        n_probes=st.integers(1, 150),
        d=st.integers(1, 40),
        n_views=st.integers(1, 4),
        exclude=st.booleans(),
        n_copies=st.integers(0, 3),
        n_nonfinite=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_shapes(self, n_gallery, n_probes, d, n_views, exclude, n_copies,
                           n_nonfinite, seed):
        rng = np.random.default_rng(seed)
        gallery = rng.normal(size=(n_gallery, d))
        probes = rng.normal(size=(n_probes, d))
        for _ in range(n_copies):
            gallery[rng.integers(n_gallery)] = gallery[rng.integers(n_gallery)]
        for _ in range(n_nonfinite):
            feats = gallery if rng.random() < 0.5 else probes
            value = rng.choice([np.nan, np.inf, -np.inf, 1e200])
            feats[rng.integers(len(feats)), rng.integers(d)] = value
        g_views = rng.integers(0, n_views, n_gallery)
        p_views = rng.integers(0, n_views, n_probes)
        if exclude:
            admissible = g_views[None, :] != p_views[:, None]
            admissible[~admissible.any(axis=1), 0] = True
        else:
            admissible = np.ones((n_probes, n_gallery), bool)
        with np.errstate(over="ignore", invalid="ignore"):
            nearest = nearest_gallery_entry(gallery, probes, admissible)
            expected = reference.nearest_gallery_entry(gallery, probes, admissible)
        assert np.array_equal(nearest, expected)

    def test_infinite_and_nan_distances(self):
        gallery = np.array([[0.0], [np.inf], [0.0], [0.0]])
        probes = np.array([[-np.inf], [np.inf], [np.nan]])
        admissible = np.array([
            [False, True, True, True],  # every distance +inf: first admissible
            [False, False, True, True],  # NaN and +inf only where inadmissible
            [False, True, True, True],  # every distance NaN: first admissible NaN
        ])
        with np.errstate(invalid="ignore"):
            nearest = nearest_gallery_entry(gallery, probes, admissible)
            expected = reference.nearest_gallery_entry(gallery, probes, admissible)
        assert np.array_equal(nearest, [1, 2, 1])
        assert np.array_equal(nearest, expected)


class TestVarianceStats:
    def test_all_identical_features(self):
        f = np.ones((6, 3))
        stats = variance_stats(f, [0, 0, 1, 1, 2, 2], ["NM"] * 6)
        assert list(stats) == ["intra_class", "intra_class_nm_bg", "intra_class_cl", "total"]
        assert stats["intra_class"] == 0.0
        assert stats["total"] == 0.0

    def test_two_point_configuration(self):
        d = 3.0
        f = np.array([[0.0], [d]] * 2)
        ids = [0, 1, 0, 1]
        stats = variance_stats(f, ids, ["NM"] * 4)
        assert stats["intra_class"] == 0.0
        assert abs(stats["total"] - d * d / 4.0) < 1e-12

    def test_total_matches_covariance_trace_oracle(self, rng):
        f = rng.normal(size=(100, 7))
        stats = variance_stats(f, rng.integers(0, 5, 100), ["NM"] * 100)
        oracle = float(np.trace(np.cov(f.T, bias=True)))
        assert abs(stats["total"] - oracle) < 1e-9

    def test_condition_restriction(self, rng):
        f = np.concatenate([rng.normal(size=(10, 2)), 5.0 + rng.normal(size=(10, 2))])
        ids = [0] * 10 + [0] * 10
        conds = ["NM"] * 10 + ["CL"] * 10
        stats = variance_stats(f, ids, conds)
        assert stats["intra_class_nm_bg"] < stats["intra_class"]  # mixing conditions spreads


def test_embed_samples_keeps_no_cache_across_chunks(monkeypatch):
    bundle = make_benchmark(n_ids=6, n_train_ids=4, n_views=2,
                            condition_groups={"NM": 2, "CL": 1}, frames_per_seq=5, seed=3)
    shape = EncoderShape(d_in=16, d_hidden=8, d_emb=4, n_classes=4)
    params, _ = init_params(shape, RngStream(1).child(1))
    z_ref, p_ref = embed_samples(params, bundle.test, batch=5)
    refs = record_dropped_caches(monkeypatch, gaugekit)
    z, p = embed_samples(params, bundle.test, batch=5)
    assert len(refs) == math.ceil(len(bundle.test) / 5) >= 3
    assert all(ref() is None for ref in refs)
    assert np.array_equal(z, z_ref) and np.array_equal(p, p_ref)


class TestMemorizationCurve:
    def test_untrained_model_near_chance(self):
        bundle = make_benchmark(n_ids=12, n_train_ids=10, n_views=2,
                                condition_groups={"NM": 3, "BG": 1, "CL": 1},
                                frames_per_seq=6, seed=5)
        shape = EncoderShape(d_in=16, d_hidden=16, d_emb=8, n_classes=10)
        params, _ = init_params(shape, RngStream(3).child(1))
        [(it, clean_acc, noisy_acc)] = memorization_curve([(0, params)], bundle.train)
        n = len(bundle.train)
        chance = 1.0 / 10.0
        se = math.sqrt(chance * (1 - chance) / n)
        assert it == 0
        assert abs(clean_acc - chance) <= 4 * se
        assert noisy_acc is None  # clean set: no noisy accuracy

    def test_accuracies_split_by_flag(self):
        bundle = make_benchmark(n_ids=6, n_train_ids=4, n_views=2,
                                condition_groups={"NM": 2, "CL": 1},
                                frames_per_seq=5, seed=3)
        from cyclegait.gaitgen import corrupt_bundle

        noisy = corrupt_bundle(bundle, "label", 0.3, seed=2)
        shape = EncoderShape(d_in=16, d_hidden=8, d_emb=4, n_classes=4)
        params, _ = init_params(shape, RngStream(1).child(1))
        rows = memorization_curve([(0, params), (10, params)], noisy.train)
        assert [it for it, _, _ in rows] == [0, 10]
        assert all(noisy_acc is not None for _, _, noisy_acc in rows)
        assert all(0.0 <= a <= 1.0 for _, clean_acc, noisy_acc in rows
                   for a in (clean_acc, noisy_acc))

    def test_first_reach(self):
        assert reference.first_reach_iteration((0, 10, 20), (0.1, 0.5, 0.9), 0.45) == 10
        assert reference.first_reach_iteration((0, 10), (0.1, 0.2), 0.9) is None


class TestClosedForm:
    def test_zero_iterations_is_initial_teacher(self, rng):
        t0f, t0m = rng.normal(size=50), rng.normal(size=50)
        out = closed_form_theta_m(t0f, t0m, [], 0.99)
        assert np.array_equal(out, t0m)

    def test_momentum_zero_degenerate_case(self, rng):
        n, p = 7, 20
        t0f, t0m = rng.normal(size=p), rng.normal(size=p)
        df, dm = rng.normal(size=(n, p)), rng.normal(size=(n, p))
        deviation = verify_ema_closed_form(t0f, t0m, pairs(df, dm), 0.0)
        assert deviation < 1e-12
        # closed form collapses to theta_f^{N-1} + delta_m^N
        direct = closed_form_theta_m(t0f, t0m, pairs(df, dm), 0.0)
        expected = t0f + df[:-1].sum(axis=0) + dm[-1]
        assert np.allclose(direct, expected, atol=1e-12)

    def test_random_trace_against_independent_replay(self, rng):
        # oracle: a replay loop written here, independent of the library path
        n, p = 100, 1000
        m = 0.99
        t0f, t0m = rng.normal(size=p), rng.normal(size=p)
        df = rng.normal(scale=0.01, size=(n, p))
        dm = rng.normal(scale=0.01, size=(n, p))
        tf, tm = t0f.copy(), t0m.copy()
        for k in range(n):
            tm = m * tm + (1 - m) * tf + dm[k]
            tf = tf + df[k]
        direct = closed_form_theta_m(t0f, t0m, pairs(df, dm), m)
        denom = np.maximum(np.abs(tm), 1e-12)
        assert np.max(np.abs(direct - tm) / denom) < 1e-9
        assert verify_ema_closed_form(t0f, t0m, pairs(df, dm), m) < 1e-9

    def test_long_trace_error_stays_small(self, rng):
        # accumulated floating error only: 1000 iterations at 10^4 parameters
        n, p = 1000, 10_000
        df = rng.normal(scale=0.01, size=(n, p))
        dm = rng.normal(scale=0.01, size=(n, p))
        t0f, t0m = rng.normal(size=p), rng.normal(size=p)
        assert verify_ema_closed_form(t0f, t0m, pairs(df, dm), 0.99) < 1e-8

    def test_replay_endpoints(self, rng):
        t0f, t0m = rng.normal(size=10), rng.normal(size=10)
        df = rng.normal(size=(3, 10))
        dm = rng.normal(size=(3, 10))
        tf, tm = replay_recurrence(t0f, t0m, pairs(df, dm), 0.5)
        assert np.allclose(tf, t0f + df.sum(axis=0), atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 37])
    @pytest.mark.parametrize("m", [0.0, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("layout", ["contiguous", "record views", "strided"])
    def test_bit_equal_to_full_array_forms(self, rng, n, m, layout):
        # oracles: the replay with a fresh vector per step, and the closed form
        # summing its (N, P) array of weighted terms
        p = 50
        t0f, t0m = rng.normal(size=p), rng.normal(size=p)
        records = rng.normal(scale=0.01, size=(n, 2 * p))
        if layout == "contiguous":
            df, dm = records[:, :p].copy(), records[:, p:].copy()
        elif layout == "record views":  # as a read_trace pass yields them
            df, dm = records[:, :p], records[:, p:]
        else:
            df, dm = records[:, ::2], records[:, 1::2]
        got = closed_form_theta_m(t0f, t0m, pairs(df, dm), m)
        assert np.array_equal(got, reference.closed_form_theta_m(t0f, t0m, df, dm, m))
        got_f, got_m = replay_recurrence(t0f, t0m, pairs(df, dm), m)
        want_f, want_m = reference.replay_recurrence(t0f, t0m, df, dm, m)
        assert np.array_equal(got_f, want_f) and np.array_equal(got_m, want_m)

    @pytest.mark.parametrize("chunk_records", [1, 3, None])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 37])
    @pytest.mark.parametrize("m", [0.0, 0.99, 1.0])
    def test_streamed_records_bit_equal_to_the_oracles(self, tmp_path, monkeypatch,
                                                       chunk_records, n, m):
        # oracles: the whole-trace reader feeding the (N, P)-array replay and
        # closed form
        p = 50
        rng = np.random.default_rng(n)
        t0f, t0m = rng.normal(size=p), rng.normal(size=p)
        path = write_trace(tmp_path / "trace.bin", rng, n, p, m)
        if chunk_records is not None:
            monkeypatch.setattr(cyclic, "_CHUNK_BYTES", chunk_records * (8 + 16 * p))
        _, records = cyclic.read_trace(path)
        _, df, dm = reference.read_trace(path)
        got_f, got_m = replay_recurrence(t0f, t0m, records, m)
        want_f, want_m = reference.replay_recurrence(t0f, t0m, df, dm, m)
        assert np.array_equal(got_f, want_f) and np.array_equal(got_m, want_m)
        got = closed_form_theta_m(t0f, t0m, records, m)
        want = reference.closed_form_theta_m(t0f, t0m, df, dm, m)
        assert np.array_equal(got, want)
        deviation = float(np.max(np.abs(want_m - want) / np.maximum(np.abs(want_m), 1e-12)))
        assert verify_ema_closed_form(t0f, t0m, records, m) == deviation

    def test_trace_verification_holds_one_payload(self, tmp_path):
        # at the default encoder shape, the traced peak of a verification
        # with both endpoints is the same at 100 and at 400 records, and
        # stays within one read chunk plus a few parameter vectors
        shape = EncoderShape()
        p = shape.n_params
        init_f, _ = init_params(shape, RngStream(1).child(1))
        init_m, _ = init_params(shape, RngStream(1).child(2))
        peaks = {}
        for n in (100, 400):
            path = write_trace(tmp_path / f"trace-{n}.bin", np.random.default_rng(3), n, p,
                               0.99, scale=1e-3)
            tracemalloc.start()
            try:
                report = verify_trace_file(path, init_f, init_m, init_f, init_m)
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report["max_relative_deviation"] < 1e-9
            path.unlink()
        bound = cyclic._CHUNK_BYTES + 12 * 8 * p
        assert peaks[100] < bound and peaks[400] < bound, (peaks, bound)
        # the closed form's weights are the only per-record storage
        assert peaks[400] - peaks[100] <= 8 * 300 + 4096, peaks


class TestCostModel:
    def test_reference_point(self):
        assert cost_model(8, 0.2) == (28.8, 16.0, 8.0)

    def test_zero_noise_endpoints(self):
        coteach, with_aug, without = cost_model(8, 0.0)
        assert (coteach, with_aug, without) == (32.0, 16.0, 8.0)
        assert coteach / with_aug == 2.0
        assert coteach / without == 4.0

    def test_unit_batch(self):
        assert cost_model(1, 0.0) == (4.0, 2.0, 1.0)

    def test_ordering_invariant(self):
        for n in (1, 4, 33):
            for s in (0.0, 0.3, 0.9):
                coteach, with_aug, without = cost_model(n, s)
                assert coteach >= with_aug >= without

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cost_model(0, 0.1)
        with pytest.raises(ValueError):
            cost_model(4, 1.0)


class TestGalleryProbeProtocol:
    def test_first_nm_per_view_is_gallery(self):
        bundle = make_benchmark(n_ids=6, n_train_ids=4, n_views=2,
                                condition_groups={"NM": 3, "BG": 1, "CL": 1},
                                frames_per_seq=4, seed=6)
        g_idx, p_idx = split_gallery_probe(bundle.test)
        test = bundle.test
        assert len(g_idx) == 2 * 2  # two test ids, two views
        for i in g_idx:
            assert test[i].condition == "NM"
        seen = {(test[i].identity, test[i].view) for i in g_idx}
        assert len(seen) == len(g_idx)
        assert len(g_idx) + len(p_idx) == len(test)

    def test_untrained_eval_close_to_chance(self):
        bundle = make_benchmark(n_ids=30, n_train_ids=10, n_views=4,
                                condition_groups={"NM": 4, "BG": 3, "CL": 3},
                                frames_per_seq=10, seed=4)
        shape = EncoderShape(d_in=16, d_hidden=64, d_emb=32, n_classes=10)
        params, _ = init_params(shape, RngStream(17).child(1))
        report = evaluate_checkpoint(params, bundle.test)
        n_test_ids = 20
        chance = 100.0 / n_test_ids
        n_probes = report.probe_size
        se = 100.0 * math.sqrt((1.0 / n_test_ids) * (1 - 1.0 / n_test_ids) / n_probes)
        assert abs(report.overall_mean - chance) <= 3 * se
