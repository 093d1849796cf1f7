"""Acceptance gate: every criterion runs end to end at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s or -v to see them).
The statistical criteria C06-C09 train real models over multiple seeds on the
default desk-scale benchmark; their runs and judges are declared once in
experiments.py. The whole module is laptop-runnable.
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
from experiments import (
    C06,
    C07,
    C08,
    C09,
    C09_CLEAN,
    Verdict,
    judge_c06,
    judge_c07,
    judge_c08,
    judge_c09,
    make_bundle,
    train,
    verdict,
)
from reference import coteach_loss, forward, mil_loss

pytestmark = pytest.mark.acceptance


def check(outcome: Verdict):
    print(f"\n{outcome.line}")
    assert outcome.ok, outcome.line


def report(criterion: str, ok: bool, detail: str):
    check(verdict(criterion, ok, detail))


def test_c01_closed_form_parameter_evolution(tmp_path):
    config = TrainerConfig(mode="cyclic", iterations=500, momentum=0.99,
                           record_trace=True)
    trace_path = tmp_path / "trace.bin"
    result = run_training(make_bundle("split"), config, trace_path=str(trace_path))
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


def test_c04_cost_model_and_live_counters():
    exact = cost_model(8, 0.2) == (28.8, 16.0, 8.0) and cost_model(1, 0.0) == (4.0, 2.0, 1.0)
    split_bundle = make_bundle("split")

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
                            coteach_noise_rate=rate if rate is not None else 0.2)
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


def test_c06_split_noise_robustness_gap():
    bundle = make_bundle(C06.bundle)
    t0 = time.time()
    cl_means = {seed: {name: evaluate_checkpoint(run.params_f, bundle.test).condition_means["CL"]
                       for name, run in runs.items()}
                for seed, runs in train(C06, bundle).items()}
    check(judge_c06(cl_means, time.time() - t0))


def test_c07_ablation_ordering():
    check(judge_c07(run_ablation(C07.configs["grid"], make_bundle(C07.bundle), C07.seeds)))


def test_c08_degeneration_effect_timing():
    bundle = make_bundle(C08.bundle)
    curves = {seed: memorization_curve(runs["supervised"].snapshots, bundle.train)
              for seed, runs in train(C08, bundle).items()}
    check(judge_c08(curves))


def test_c09_noise_detection_floor():
    metrics = {seed: runs["full"].metrics
               for seed, runs in train(C09, make_bundle(C09.bundle)).items()}
    (clean_runs,) = train(C09_CLEAN, make_bundle(C09_CLEAN.bundle)).values()
    check(judge_c09(metrics, [m["kept_fraction"] for m in clean_runs["full"].metrics]))


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
