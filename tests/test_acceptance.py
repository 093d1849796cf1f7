"""Acceptance gate: every criterion runs end to end at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s or -v to see them).
The statistical criteria train real models over multiple seeds on the
default desk-scale benchmark; the whole module is laptop-runnable.
"""

import math
import time

import numpy as np
import pytest

from conftest import central_difference
from cyclegait.bench_cli import ExperimentConfig, run_ablation
from cyclegait.cyclic import TrainerConfig, run_training
from cyclegait.gaitgen import (
    FLAG_LABEL,
    FLAG_SPLIT,
    corrupt_bundle,
    make_benchmark,
    make_clean_dataset,
    inject_identity_split,
    inject_random_label_noise,
)
from cyclegait.gaugekit import (
    cost_model,
    evaluate_checkpoint,
    memorization_curve,
    verify_trace_file,
)
from cyclegait.lossbank import (
    batch_ce,
    batch_coteach,
    batch_mil_loss,
    triplet_loss,
)
from cyclegait.numkit import RngStream
from cyclegait.setnet import (
    EncoderShape,
    ema_transfer,
    forward_batch,
    backward_batch,
    init_params,
)
from reference import coteach_loss, first_reach_iteration, forward, mil_loss

pytestmark = pytest.mark.acceptance

SEEDS5 = (1, 2, 3, 4, 5)


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def default_optimizer():
    return dict(lr=0.05, milestones=(1000,))


@pytest.fixture(scope="module")
def split_bundle():
    clean = make_benchmark(seed=1)
    return corrupt_bundle(clean, "split", 0.6, seed=7)


@pytest.fixture(scope="module")
def label_bundle():
    clean = make_benchmark(seed=1)
    return corrupt_bundle(clean, "label", 0.2, seed=7)


@pytest.fixture(scope="module")
def split_runs(split_bundle):
    """Supervised and full-cyclic runs over 5 seeds on split-noise data, for
    the robustness criterion."""
    t0 = time.time()
    rows = {}
    for seed in SEEDS5:
        sup = run_training(split_bundle, TrainerConfig(
            mode="supervised", iterations=2000, schedule_profile="noisy",
            **default_optimizer(), seed=seed))
        full = run_training(split_bundle, TrainerConfig(
            mode="cyclic", iterations=2000, schedule_profile="noisy",
            and_enabled=True, **default_optimizer(), seed=seed))
        rows[seed] = {
            "supervised": evaluate_checkpoint(sup.params_f, split_bundle.test),
            "full": evaluate_checkpoint(full.params_f, split_bundle.test),
        }
    rows["elapsed"] = time.time() - t0
    return rows


def test_c01_closed_form_parameter_evolution(split_bundle, tmp_path):
    config = TrainerConfig(mode="cyclic", iterations=500, momentum=0.99,
                           record_trace=True, **default_optimizer())
    trace_path = tmp_path / "trace.bin"
    result = run_training(split_bundle, config, trace_path=str(trace_path))
    n_params = result.params_f.shape.n_params
    t0 = time.time()
    verdict = verify_trace_file(str(trace_path), result.init_f, result.init_m,
                                result.params_f, result.params_m)
    elapsed = time.time() - t0
    ok = (
        verdict["max_relative_deviation"] < 1e-8
        and verdict["endpoint_f_matches"]
        and verdict["endpoint_m_matches"]
        and elapsed < 5.0
    )
    report(
        "C1 closed-form trace equivalence",
        ok,
        f"N=500, {n_params} params, m=0.99: max rel deviation "
        f"{verdict['max_relative_deviation']:.2e} (<1e-8), endpoints exact, "
        f"verified in {elapsed:.2f}s (<5s)",
    )


def test_c02_gradient_suite_through_encoder():
    t0 = time.time()
    shape = EncoderShape(d_in=6, d_hidden=10, d_emb=5, n_classes=5)
    rng = np.random.default_rng(7)
    params_f, _ = init_params(shape, RngStream(3).child(1))
    params_m, _ = init_params(shape, RngStream(3).child(2))
    frames = [rng.normal(size=(int(rng.integers(3, 8)), 6)) for _ in range(6)]
    labels = np.array([0, 0, 1, 1, 2, 2])
    checked = 0
    worst = 0.0

    def check(loss_fn, grad_vec, params, n=30):
        nonlocal checked, worst
        for idx in rng.choice(shape.n_params, size=n, replace=False):
            numeric = central_difference(loss_fn, params, int(idx))
            analytic = grad_vec.flat[idx]
            err = abs(analytic - numeric)
            scale = max(abs(analytic), abs(numeric), 1e-8)
            rel = err / scale
            worst = max(worst, rel if err > 1e-8 else 0.0)
            assert err <= max(1e-4 * scale, 1e-8), (analytic, numeric)
            checked += 1

    # cross-entropy through the encoder
    z, p, cache = forward_batch(frames, params_f)
    loss, d_p = batch_ce(p, labels)
    g = backward_batch(cache, params_f, np.zeros_like(z), d_p)
    check(lambda q: batch_ce(forward_batch(frames, q)[1], labels)[0], g, params_f, 50)

    # consistency loss, both parameter sets
    _, p_m, _ = forward_batch(frames, params_m)
    loss, d_pf, d_pm = batch_coteach(p_m, p)
    g_f = backward_batch(cache, params_f, np.zeros_like(z), d_pf)
    check(lambda q: batch_coteach(forward_batch(frames, params_m)[1],
                                  forward_batch(frames, q)[1])[0], g_f, params_f, 50)
    _, _, cache_m = forward_batch(frames, params_m)
    g_m = backward_batch(cache_m, params_m, np.zeros_like(z), d_pm)
    check(lambda q: batch_coteach(forward_batch(frames, q)[1],
                                  forward_batch(frames, params_f)[1])[0], g_m, params_m, 50)

    # batch-all triplet through the encoder
    loss, d_z = triplet_loss(z, labels, margin=0.4)
    g = backward_batch(cache, params_f, d_z, np.zeros_like(p))
    check(lambda q: triplet_loss(forward_batch(frames, q)[0], labels, 0.4)[0],
          g, params_f, 50)

    # contrastive loss on normalized embeddings through the encoder
    def mil_of(q):
        zq, _, _ = forward_batch(frames, q)
        norms = np.maximum(np.linalg.norm(zq, axis=1, keepdims=True), 1e-12)
        return batch_mil_loss(zq / norms, labels, 1.0)[0]

    norms = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    zn = z / norms
    _, g_norm, _ = batch_mil_loss(zn, labels, 1.0)
    inner = np.sum(zn * g_norm, axis=1, keepdims=True)
    d_z = (g_norm - inner * zn) / norms
    g = backward_batch(cache, params_f, d_z, np.zeros_like(p))
    check(mil_of, g, params_f, 50)

    elapsed = time.time() - t0
    ok = checked >= 200 and elapsed < 30.0
    report("C2 finite-difference gradient suite", ok,
           f"{checked} parameters across 4 losses, worst rel err {worst:.2e} "
           f"(<1e-4), {elapsed:.1f}s (<30s)")


def test_c03_analytic_loss_values():
    # uniform two-class consistency loss and symmetric contrastive case
    l_uniform, _, _ = coteach_loss([0.0, 0.0], [0.0, 0.0])
    l_symmetric, *_ = mil_loss([1.0, 0.0], [[0.3, 0.1]], [[0.3, 0.1]])
    ok1 = abs(l_uniform - math.log(2.0)) < 1e-10
    ok2 = abs(l_symmetric - math.log(2.0)) < 1e-10

    # opposed-logit consistency value; oracle: softmax/log evaluation
    a = math.exp(1.0) / (math.exp(1.0) + 1.0)
    oracle_coteach = a * math.log(1.0 + math.exp(1.0)) + (1 - a) * (
        math.log(1.0 + math.exp(1.0)) - 1.0
    )
    l_opposed, _, _ = coteach_loss([1.0, 0.0], [0.0, 1.0])
    ok3 = abs(l_opposed - oracle_coteach) < 1e-12 and abs(l_opposed - 1.044324) < 1e-5

    # contrastive reference point; oracle: -ln(e / (e + 1 + e^0.5)).
    # the stated decimal 0.680236 is an arithmetic slip in its source: the
    # expression itself evaluates to 0.680270, which is what we assert.
    oracle_mil = -math.log(math.exp(1.0) / (math.exp(1.0) + 1.0 + math.exp(0.5)))
    l_ref, *_ = mil_loss([1.0, 0.0], [[1.0, 0.0]], [[0.0, 1.0], [0.5, 0.3]])
    ok4 = abs(l_ref - oracle_mil) < 1e-12 and abs(l_ref - 0.680270) < 1e-5

    ok = ok1 and ok2 and ok3 and ok4
    report("C3 analytic loss values", ok,
           f"uniform={l_uniform:.12f} (ln2), symmetric={l_symmetric:.12f} (ln2), "
           f"opposed={l_opposed:.6f} (oracle {oracle_coteach:.6f}), "
           f"contrastive={l_ref:.6f} (oracle {oracle_mil:.6f})")


def test_c04_cost_model_and_live_counters(split_bundle):
    exact = cost_model(8, 0.2) == (28.8, 16.0, 8.0) and cost_model(1, 0.0) == (4.0, 2.0, 1.0)

    iters = 5
    counters_ok = True
    details = []
    for mode, rate, expected_per_iter in (
        ("cyclic", None, lambda n: 2 * n),
        ("supervised", None, lambda n: n),
        ("coteach-baseline", 0.2, lambda n: 2 * n + 2 * math.ceil(0.8 * n)),
        ("coteach-baseline", 0.0, lambda n: 4 * n),
    ):
        cfg = TrainerConfig(mode=mode, iterations=iters,
                            coteach_noise_rate=rate if rate is not None else 0.2,
                            **default_optimizer())
        result = run_training(split_bundle, cfg)
        n = cfg.batch_size
        want = expected_per_iter(n) * iters
        counters_ok &= result.forward_count == want
        details.append(f"{mode}{'' if rate is None else f'@{rate}'}: "
                       f"{result.forward_count}=={want}")
    ok = exact and counters_ok
    report("C4 cost model and live forward counters", ok,
           "formula exact (28.8/16/8); " + ", ".join(details))


def test_c05_corruption_audits():
    samples, _ = make_clean_dataset(10, 4, {"NM": 13, "BG": 6, "CL": 6}, 4, 16, seed=2)
    assert len(samples) == 1000
    noised, _ = inject_random_label_noise(samples, 0.2, seed=11)
    flagged = [s for s in noised if s.noise_flag == FLAG_LABEL]
    ok1 = len(flagged) == 200 and all(s.identity != s.clean_identity for s in flagged)

    samples74, _ = make_clean_dataset(74, 1, {"NM": 1, "CL": 1}, 3, 16, seed=4)
    split74, _ = inject_identity_split(samples74, 0.6)
    affected = {s.clean_identity for s in split74 if s.noise_flag == FLAG_SPLIT}
    ok2 = affected == set(range(44))
    report("C5 corruption audits", ok1 and ok2,
           f"label 0.2 on 1000 sequences: exactly {len(flagged)} flagged, none "
           f"self-relabeled; split 0.6 on 74 ids affects exactly the first "
           f"{len(affected)} ids")


def test_c06_split_noise_robustness_gap(split_runs):
    gaps = []
    for seed in SEEDS5:
        full_cl = split_runs[seed]["full"].condition_means["CL"]
        sup_cl = split_runs[seed]["supervised"].condition_means["CL"]
        gaps.append(full_cl - sup_cl)
    wins = sum(1 for g in gaps if g >= 3.0)
    elapsed = split_runs["elapsed"]
    ok = wins >= 4 and elapsed < 20 * 60
    report("C6 split-noise robustness gap", ok,
           f"CL gain full-vs-supervised per seed: "
           + ", ".join(f"{g:+.1f}" for g in gaps)
           + f"; {wins}/5 seeds >= +3.0, runs took {elapsed / 60:.1f} min (<20)")


def test_c07_ablation_ordering(split_bundle):
    base = ExperimentConfig(iterations=2000, schedule_profile="noisy")
    seeds = (1, 2)
    table = run_ablation(base, split_bundle, seeds)

    def cl(cell):
        return table[cell]["CL"][0]

    def overall(cell):
        return table[cell]["overall"][0]

    sup_cells = ("supervised", "supervised+cyclic", "supervised+cyclic+and",
                 "full-no-cyclic", "full-no-and", "full")
    selfsup_cells = ("selfsup", "selfsup+cyclic")
    tol = 1e-9
    ordering = (
        cl("full") >= cl("supervised+cyclic") - tol
        and cl("supervised+cyclic") >= cl("supervised") - tol
    )
    separation = min(overall(c) for c in sup_cells) > max(overall(c) for c in selfsup_cells)
    ok = ordering and separation
    report("C7 ablation ordering", ok,
           f"CL means: full={cl('full'):.1f} >= supervised+cyclic="
           f"{cl('supervised+cyclic'):.1f} >= supervised={cl('supervised'):.1f}; "
           f"worst supervised overall {min(overall(c) for c in sup_cells):.1f} > "
           f"best selfsup overall {max(overall(c) for c in selfsup_cells):.1f}")


def test_c08_degeneration_effect_timing(label_bundle):
    # constant weights and constant lr: the diagnostic must not be masked by
    # the noise-robust schedule it is meant to motivate
    opt = dict(lr=0.05, milestones=())
    wins = 0
    details = []
    for seed in SEEDS5:
        run = run_training(label_bundle, TrainerConfig(
            mode="supervised", iterations=2000, schedule_profile="clean",
            **opt, seed=seed, snapshot_every=100))
        iterations, clean, noisy = zip(*memorization_curve(run.snapshots,
                                                           label_bundle.train))
        it_clean = first_reach_iteration(iterations, clean, 0.9 * clean[-1])
        it_noisy = first_reach_iteration(iterations, noisy, 0.9 * noisy[-1])
        win = it_clean is not None and it_noisy is not None and it_clean < it_noisy
        wins += int(win)
        details.append(f"seed {seed}: clean@{it_clean} vs noisy@{it_noisy}")
    ok = wins >= 4
    report("C8 degeneration-effect timing", ok,
           f"clean subset reaches 90% of final strictly earlier in {wins}/5 seeds "
           f"({'; '.join(details)})")


def test_c09_noise_detection_floor(label_bundle):
    precisions = []
    for seed in SEEDS5:
        run = run_training(label_bundle, TrainerConfig(
            mode="cyclic", iterations=2000, schedule_profile="noisy",
            and_enabled=True, **default_optimizer(), seed=seed))
        second_half = run.metrics[len(run.metrics) // 2 :]
        vals = [m["noise_precision"] for m in second_half
                if "noise_precision" in m and not math.isnan(m["noise_precision"])]
        precisions.append(float(np.mean(vals)))
    mean_precision = float(np.mean(precisions))

    clean = make_benchmark(seed=1)
    clean_run = run_training(clean, TrainerConfig(
        mode="cyclic", iterations=2000, schedule_profile="clean",
        and_enabled=True, **default_optimizer(), seed=1))
    kept_end = float(np.mean([m["kept_fraction"] for m in clean_run.metrics[-50:]]))
    ok = mean_precision >= 1.5 * 0.2 and kept_end >= 0.9
    report("C9 detection sanity floor", ok,
           f"masked-set precision {mean_precision:.2f} (need >= 0.30, 5-seed mean; "
           f"per-seed {', '.join(f'{p:.2f}' for p in precisions)}); "
           f"noise-free kept_fraction at end {kept_end:.3f} (need >= 0.9)")


def test_c10_pipeline_determinism(tmp_path, monkeypatch):
    from cyclegait.bench_cli import main as cli_main, run_experiment

    digests = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        monkeypatch.chdir(base)
        cli_main(["gen-data", "--out", "data", "--ids", "12", "--train-ids", "8",
                  "--views", "2", "--nm", "2", "--bg", "1", "--cl", "1",
                  "--frames", "8", "--seed", "5",
                  "--corrupt", "split", "--fraction", "0.6"])
        cfg = ExperimentConfig(data_dir="data", out_dir="run", mode="cyclic",
                               iterations=30, p_ids=4, k_seqs=2, d_hidden=16,
                               d_emb=8, record_trace=True,
                               milestones=(15,),
                               and_enabled=True, sieve_warmup=5, seed=3)
        run_experiment(cfg)
        cli_main(["eval", "--checkpoint", "run/model_f.ckpt", "--data", "data",
                  "--out", "eval"])
        digests.append({
            rel: (base / rel).read_bytes()
            for rel in ("data/train.bin", "data/test.bin", "run/model_f.ckpt", "run/model_m.ckpt",
                        "run/trace.bin", "run/metrics.jsonl", "eval/rank1.csv")
        })
    mismatches = [rel for rel in digests[0] if digests[0][rel] != digests[1][rel]]
    ok = not mismatches
    report("C10 pipeline determinism", ok,
           "gen-data -> corrupt -> train -> eval twice: all artifacts byte-identical"
           if ok else f"differs: {mismatches}")


def test_c11_permutation_invariance_and_ema_identities():
    shape = EncoderShape(d_in=10, d_hidden=16, d_emb=8, n_classes=6)
    params, _ = init_params(shape, RngStream(2).child(1))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        frames = rng.normal(size=(int(rng.integers(1, 20)), 10))
        perm = frames[rng.permutation(frames.shape[0])]
        a, b = forward(frames, params), forward(perm, params)
        worst = max(worst, float(np.max(np.abs(a.z - b.z))),
                    float(np.max(np.abs(a.p - b.p))))
    theta_a, _ = init_params(shape, RngStream(5).child(1))
    theta_b, _ = init_params(shape, RngStream(5).child(2))
    ema_exact = (
        np.array_equal(ema_transfer(theta_a, theta_b, 1.0).flat, theta_a.flat)
        and np.array_equal(ema_transfer(theta_a, theta_b, 0.0).flat, theta_b.flat)
    )
    ok = worst < 1e-12 and ema_exact
    report("C11 permutation invariance and EMA identities", ok,
           f"100 random permutation pairs, worst |delta|={worst:.2e} (<1e-12); "
           f"EMA endpoints m=0 and m=1 exact")
