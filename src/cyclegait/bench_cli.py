"""Command-line orchestration: data generation, corruption, training,
evaluation, the component ablation grid, trace verification and the
forward-cost calculator.

Experiment configs are plain sectioned key=value text (diffable provenance,
lossless round-trip). A run is a pure function of its config and its
dataset's manifest, so the config hash that every output file embeds covers
exactly those two: the config without data_dir and out_dir, which only say
where files live, and the sha256 of the manifest. The same experiment at two
paths writes byte-identical files; runs on different data never share a hash.
One output directory holds one reproducible experiment:

    config.snapshot     config_hash and dataset_hash comments, then the config
    model_f_init.ckpt   initial forgetting-network parameters
    model_m_init.ckpt   initial memorizing-network parameters (two-net modes)
    model_f.ckpt        final forgetting network (the inference model)
    model_m.ckpt        final memorizing network (two-net modes)
    trace.bin           per-iteration updates (when tracing)
    metrics.jsonl       per-iteration loss/mask/lr log
    memorization.csv    train-accuracy curves (when snapshots are on)
    eval/               rank-1 CSV/JSON and variance statistics

A dataset directory (gen-data, corrupt) holds:

    manifest.json       generator sizes, seed and corruptions; regenerates the data
    train.bin test.bin  one split each: JSON header line, then float64 frames
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import typing

import numpy as np

from . import gaitgen, gaugekit
from .cyclic import (
    MODES,
    NonFiniteLossError,
    TrainerConfig,
    in_section,
    run_training,
    train_groups,
)
from .gaitgen import FLAG_CLEAN, DatasetBundle, dataset_hash
from .setnet import load_checkpoint, save_checkpoint

CONFIG_FORMAT_VERSION = 1

OUT_ROOT_ENV = "CYCLEGAIT_OUT_ROOT"

# largest relative deviation from the EMA closed form that verify-closed-form passes
CLOSED_FORM_TOLERANCE = 1e-8


@dataclasses.dataclass(frozen=True)
class ExperimentConfig(TrainerConfig):
    """Everything a run needs besides its data.

    The trainer and optimizer settings are the inherited TrainerConfig
    fields; this class adds the dataset directory and the output and meta
    settings. What the data is, the dataset's manifest.json alone records.
    Each field is written to the config-file section it is tagged with
    (in_section), or to [trainer] when untagged.
    """

    format_version: int = in_section("meta", CONFIG_FORMAT_VERSION)
    data_dir: str = in_section("dataset", "")
    out_dir: str = in_section("output", "runs/exp")


# Config files group keys into these sections, in this order
_SECTION_ORDER = ("meta", "dataset", "trainer", "optimizer", "output")


def _schema() -> dict:
    """Config-file key (the field name) -> (section, type), in file order."""
    hints = typing.get_type_hints(ExperimentConfig)
    keys = {f.name: (f.metadata.get("section", "trainer"), hints[f.name])
            for f in dataclasses.fields(ExperimentConfig)}
    return dict(sorted(keys.items(), key=lambda kv: _SECTION_ORDER.index(kv[1][0])))


_SCHEMA = _schema()


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(int(v)) for v in value)
    return str(value)


def _parse_value(key: str, ftype, text: str):
    text = text.strip()
    if typing.get_origin(ftype) is tuple:
        return tuple(int(t) for t in text.split(",") if t.strip())
    args = typing.get_args(ftype)
    if type(None) in args:
        if text == "none":
            return None
        (ftype,) = (a for a in args if a is not type(None))
    if ftype is bool:
        if text not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {text!r}")
        return text == "true"
    if ftype in (int, float):
        return ftype(text)
    return text


def serialize_config(cfg: ExperimentConfig) -> str:
    out = io.StringIO()
    for section in _SECTION_ORDER:
        out.write(f"[{section}]\n")
        for key, (sec, _) in _SCHEMA.items():
            if sec == section:
                out.write(f"{key} = {_format_value(getattr(cfg, key))}\n")
        out.write("\n")
    return out.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:  # its message runs over several lines
        raise ValueError(f"config syntax: {err.message.splitlines()[0]}") from err
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _SCHEMA:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            sec, ftype = _SCHEMA[key]
            if sec != section:
                raise ValueError(f"key {key!r} belongs in [{sec}]")
            values[key] = _parse_value(key, ftype, raw)
    cfg = ExperimentConfig(**values)
    if cfg.format_version != CONFIG_FORMAT_VERSION:
        raise ValueError(f"unsupported config format_version {cfg.format_version}")
    return cfg


def load_config_file(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_hash(cfg: ExperimentConfig, manifest: dict, n_seeds: int | None = None) -> str:
    """sha256 of what a run computes: the serialized config with data_dir and
    out_dir blanked, then the dataset_hash of the manifest it trains on. A
    grid over n_seeds seeds from cfg.seed adds a line with that count."""
    text = serialize_config(dataclasses.replace(cfg, data_dir="", out_dir=""))
    text += f"# dataset_hash={dataset_hash(manifest)}\n"
    if n_seeds is not None:
        text += f"# seeds={n_seeds}\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _resolve_out(path: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV, "")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


# ---------------------------------------------------------------------------
# dataset plumbing


def _corrupt(bundle: DatasetBundle, mode: str, args) -> DatasetBundle:
    """bundle with mode applied by the corruption flags of gen-data or corrupt."""
    amount = args.fraction if mode == "split" else args.rate
    return gaitgen.corrupt_bundle(bundle, mode, amount, args.corrupt_seed)


# ---------------------------------------------------------------------------
# training / evaluation pipelines


def _write_metrics(path: str, metrics: list, digest: str):
    def clean(obj):
        return {
            k: (None if isinstance(v, float) and not math.isfinite(v) else v)
            for k, v in obj.items()
        }

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config_hash": digest, "format_version": 1}) + "\n")
        for row in metrics:
            fh.write(json.dumps(clean(row), sort_keys=True) + "\n")


def _write_csv(path: str, text: str, digest: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={digest}\n")
        fh.write(text)


def run_experiment(cfg: ExperimentConfig):
    """Train per config on the dataset in cfg.data_dir, reading only its
    train split's frames; persist the run directory, return (result, outdir).

    No dataset directory, or a dataset that cannot fill the batch shape,
    raises ValueError before anything is written.
    """
    if not cfg.data_dir:
        raise ValueError("train needs a dataset directory: pass --data or set data_dir")
    bundle = gaitgen.load_bundle(cfg.data_dir, frames=("train",))
    train_groups(bundle, cfg)
    outdir = _resolve_out(cfg.out_dir)
    os.makedirs(outdir, exist_ok=True)
    digest = config_hash(cfg, bundle.manifest)
    with open(os.path.join(outdir, "config.snapshot"), "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={digest}\n# dataset_hash={dataset_hash(bundle.manifest)}\n")
        fh.write(serialize_config(cfg))
    trace_path = os.path.join(outdir, "trace.bin") if cfg.record_trace else None

    try:
        result = run_training(bundle, cfg, trace_path=trace_path)
    except NonFiniteLossError as err:
        diag_path = os.path.join(outdir, "diagnostics.json")
        with open(diag_path, "w", encoding="utf-8") as fh:
            json.dump({"config_hash": digest, **err.diagnostics}, fh, indent=2)
        raise

    extra = {"config_hash": digest}
    save_checkpoint(os.path.join(outdir, "model_f_init.ckpt"), result.init_f, extra)
    save_checkpoint(os.path.join(outdir, "model_f.ckpt"), result.params_f, extra)
    if result.params_m is not None:
        save_checkpoint(os.path.join(outdir, "model_m_init.ckpt"), result.init_m, extra)
        save_checkpoint(os.path.join(outdir, "model_m.ckpt"), result.params_m, extra)
    _write_metrics(os.path.join(outdir, "metrics.jsonl"), result.metrics, digest)

    if result.snapshots:
        curve = gaugekit.memorization_curve(result.snapshots, bundle.train)
        rows = ["iteration,clean_accuracy,noisy_accuracy"]
        for it, clean_acc, noisy_acc in curve:
            noisy_txt = "" if noisy_acc is None else f"{noisy_acc:.6f}"
            rows.append(f"{it},{clean_acc:.6f},{noisy_txt}")
        _write_csv(os.path.join(outdir, "memorization.csv"), "\n".join(rows) + "\n", digest)
    return result, outdir


def evaluate_to_dir(params, test_samples, outdir: str, digest: str):
    """Write rank1.csv / rank1.json / variance.csv for a checkpoint."""
    os.makedirs(outdir, exist_ok=True)
    z, _ = gaugekit.embed_samples(params, test_samples)
    report = gaugekit.rank1(z, test_samples)
    _write_csv(os.path.join(outdir, "rank1.csv"), report.to_csv_text(), digest)
    with open(os.path.join(outdir, "rank1.json"), "w", encoding="utf-8") as fh:
        json.dump({"config_hash": digest, **report.to_json_dict()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    stats = gaugekit.variance_stats(
        z, [s.identity for s in test_samples], [s.condition for s in test_samples]
    )
    lines = ["statistic,value"] + [f"{k},{v:.9f}" for k, v in stats.items()]
    _write_csv(os.path.join(outdir, "variance.csv"), "\n".join(lines) + "\n", digest)
    return report


# ---------------------------------------------------------------------------
# ablation grid


# The supervised-family rows train with the plain constant-weight recipe;
# the coefficient ramp schedule is part of the noise-tolerant method and is
# applied only to rows that include the consistency loss.
# "supervised+cyclic" trains bitwise the same F as "supervised": with
# sigma0 = sigma3 = 0 and no sieve, M never reaches F's gradient, so the EMA
# network only costs forwards. The ordering supervised+cyclic >= supervised
# therefore holds with equality. Before sieve_warmup the sieve keeps every
# sample, so "supervised+cyclic+and" matches them and "full" matches
# "full-no-and" (tests/test_cli.py pins these collapses).
# "selfsup" and "full-no-cyclic" run without the EMA: at momentum 1.0 M
# takes nothing from F.
# Every cell of one seed draws the same batches and augmentations, so
# run_ablation trains the cells of a seed in lockstep and draws them once.
ABLATION_CELLS = (
    ("supervised", {"mode": "supervised", "and_enabled": False,
                    "schedule_profile": "clean"}),
    ("supervised+cyclic", {"mode": "cyclic", "and_enabled": False,
                           "sigma0_const": 0.0, "sigma3_const": 0.0,
                           "schedule_profile": "clean"}),
    ("supervised+cyclic+and", {"mode": "cyclic", "and_enabled": True,
                               "sigma0_const": 0.0, "sigma3_const": 0.0,
                               "schedule_profile": "clean"}),
    ("selfsup", {"mode": "selfsup", "momentum": 1.0, "and_enabled": False,
                 "schedule_profile": "noisy"}),
    ("selfsup+cyclic", {"mode": "selfsup", "and_enabled": False,
                        "schedule_profile": "noisy"}),
    ("full-no-cyclic", {"mode": "cyclic", "momentum": 1.0, "and_enabled": False,
                        "schedule_profile": "noisy"}),
    ("full-no-and", {"mode": "cyclic", "and_enabled": False,
                     "schedule_profile": "noisy"}),
    ("full", {"mode": "cyclic", "and_enabled": True,
              "schedule_profile": "noisy"}),
)


def _ablation_cell_job(result, test_samples) -> dict:
    """Evaluate one trained grid cell (a TrainingResult of run_training) on
    the test split; returns its rank-1 means by condition and overall.
    Evaluation only reads the samples, so every cell can share one bundle."""
    report = gaugekit.evaluate_checkpoint(result.params_f, test_samples)
    scores = {c: report.condition_means.get(c, float("nan")) for c in ("NM", "BG", "CL")}
    scores["overall"] = report.overall_mean
    return scores


def _check_grid(cfg: ExperimentConfig, bundle: DatasetBundle, seeds: list):
    """Raise ValueError when the grid cannot run: no seed, or a train split
    that cannot fill the batch shape."""
    if not seeds:
        raise ValueError("the ablation grid needs at least one seed")
    train_groups(bundle, cfg)


def run_ablation(cfg: ExperimentConfig, data: DatasetBundle, seeds) -> dict:
    """Train and evaluate every grid cell for every seed on data; returns
    {cell: {condition: (mean, std) over the seeds}}, with "overall" among the
    conditions. The cells of one seed train in lockstep, then each is
    evaluated; seeds run one after another."""
    scores = {cell_name: [] for cell_name, _ in ABLATION_CELLS}
    for seed in seeds:
        configs = [dataclasses.replace(cfg, **overrides, seed=seed)
                   for _, overrides in ABLATION_CELLS]
        for cell_name, result in zip(scores, run_training(data, configs)):
            scores[cell_name].append(_ablation_cell_job(result, data.test))
    table = {}
    for cell_name, cell_scores in scores.items():
        table[cell_name] = {}
        for key in ("NM", "BG", "CL", "overall"):
            vals = np.array([s[key] for s in cell_scores])
            table[cell_name][key] = (float(vals.mean()), float(vals.std()))
    return table


def ablation_csv(table: dict) -> str:
    header = "cell,nm_mean,nm_std,bg_mean,bg_std,cl_mean,cl_std,overall_mean,overall_std"
    lines = [header]
    for cell_name, _ in ABLATION_CELLS:
        e = table[cell_name]
        lines.append(
            f"{cell_name},"
            + ",".join(
                f"{e[c][0]:.4f},{e[c][1]:.4f}" for c in ("NM", "BG", "CL", "overall")
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _refuse_existing(path: str, force: bool, what: str):
    if os.path.exists(path) and not force:
        raise ValueError(f"{what} {path} already exists; pass --force to overwrite")


def _config_fields(args) -> dict:
    """The parsed flags whose dest is an ExperimentConfig field and that were set."""
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def cmd_gen_data(args) -> int:
    outdir = _resolve_out(args.out)
    _refuse_existing(os.path.join(outdir, "manifest.json"), args.force, "dataset")
    bundle = gaitgen.make_benchmark(
        n_ids=args.n_ids,
        n_train_ids=args.n_train_ids,
        n_views=args.n_views,
        condition_groups={"NM": args.nm, "BG": args.bg, "CL": args.cl},
        frames_per_seq=args.frames_per_seq,
        d_in=args.d_in,
        seed=args.seed,
    )
    if args.corrupt != "none":
        bundle = _corrupt(bundle, args.corrupt, args)
    gaitgen.save_bundle(bundle, outdir)
    n_flagged = sum(1 for s in bundle.train if s.noise_flag != FLAG_CLEAN)
    print(f"wrote {outdir}: {len(bundle.train)} train / {len(bundle.test)} test sequences")
    print(f"train identities: {len(set(s.identity for s in bundle.train))}, "
          f"flagged noisy: {n_flagged}")
    return 0


def cmd_corrupt(args) -> int:
    bundle = gaitgen.load_bundle(args.data)
    outdir = _resolve_out(args.out)
    _refuse_existing(os.path.join(outdir, "manifest.json"), args.force, "dataset")
    bundle = _corrupt(bundle, args.mode, args)
    gaitgen.save_bundle(bundle, outdir)
    n_flagged = sum(1 for s in bundle.train if s.noise_flag != FLAG_CLEAN)
    print(f"wrote {outdir}: {n_flagged} train sequences flagged {args.mode}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config_file(args.config) if args.config else ExperimentConfig()
    cfg = dataclasses.replace(cfg, **_config_fields(args))
    outdir = _resolve_out(cfg.out_dir)
    _refuse_existing(os.path.join(outdir, "model_f.ckpt"), args.force, "run")
    try:
        result, outdir = run_experiment(cfg)
    except NonFiniteLossError as err:
        print(f"aborted: {err} (diagnostics written)", file=sys.stderr)
        return 1
    last = result.metrics[-1] if result.metrics else {}
    print(f"trained {cfg.mode} for {cfg.iterations} iterations "
          f"({result.forward_count} forwards) -> {outdir}")
    if last:
        print(f"final losses: combined={last['l_crc']:.4f} ce={last['l_ce']:.4f} "
              f"kept={last['kept_fraction']:.3f}")
    return 0


def cmd_eval(args) -> int:
    params, header = load_checkpoint(args.checkpoint)
    bundle = gaitgen.load_bundle(args.data, frames=("test",))
    digest = header.get("config_hash", "unknown")
    outdir = _resolve_out(args.out) if args.out else os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)), "eval"
    )
    report = evaluate_to_dir(params, bundle.test, outdir, digest)
    print(f"rank-1 means: " + ", ".join(
        f"{c}={report.condition_means[c]:.2f}" for c in report.conditions
    ) + f", overall={report.overall_mean:.2f}")
    print(f"wrote {outdir}")
    return 0


def cmd_ablate(args) -> int:
    # every cell trains and evaluates on the manifest's regeneration, so a
    # dataset whose files were edited after gen-data scores as its manifest
    # describes it, and neither split's frames are read
    bundle = gaitgen.load_bundle(args.data, frames=())
    base = ExperimentConfig(iterations=args.iterations, seed=args.seed)
    seeds = [args.seed + i for i in range(args.seeds)]
    outdir = _resolve_out(args.out)
    csv_path = os.path.join(outdir, "ablation.csv")
    # every check that can fail runs before --out is made and before the grid
    # trains its first cell
    _refuse_existing(csv_path, args.force, "ablation")
    try:
        data = gaitgen.regenerate_from_manifest(bundle.manifest)
    except ValueError as err:
        raise ValueError(f"{os.path.join(args.data, 'manifest.json')}: {err}") from None
    _check_grid(base, data, seeds)
    os.makedirs(outdir, exist_ok=True)
    table = run_ablation(base, data, seeds)
    _write_csv(csv_path, ablation_csv(table),
               config_hash(base, bundle.manifest, n_seeds=args.seeds))
    print(f"{'cell':<24}{'NM':>16}{'BG':>16}{'CL':>16}")
    for cell_name, _ in ABLATION_CELLS:
        e = table[cell_name]
        print(f"{cell_name:<24}" + "".join(
            f"{e[c][0]:>9.2f}±{e[c][1]:<6.2f}" for c in ("NM", "BG", "CL")
        ))
    print(f"wrote {csv_path}")
    return 0


def cmd_verify_closed_form(args) -> int:
    if not args.run:
        raise ValueError("verify-closed-form needs --run, a run directory with a trace")
    init_f, init_m, final_f, final_m = (
        load_checkpoint(os.path.join(args.run, f"{name}.ckpt"))[0]
        for name in ("model_f_init", "model_m_init", "model_f", "model_m")
    )
    try:
        report = gaugekit.verify_trace_file(os.path.join(args.run, "trace.bin"),
                                            init_f, init_m, final_f, final_m)
    except (OSError, ValueError) as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 2
    endpoints = ("endpoint_f_matches", "endpoint_m_matches")
    ok = (report["max_relative_deviation"] <= CLOSED_FORM_TOLERANCE
          and all(report[key] for key in endpoints))
    print(f"iterations={report['iterations']} params={report['n_params']} "
          f"momentum={report['momentum']}")
    print(f"max relative deviation: {report['max_relative_deviation']:.3e} "
          f"(tolerance {CLOSED_FORM_TOLERANCE:.1e})")
    for key in endpoints:
        print(f"{key}: {report[key]}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_cost(args) -> int:
    coteach, with_aug, without = gaugekit.cost_model(args.batch, args.noise_rate)
    print(f"small-loss co-teaching forwards/iter: {coteach:g}")
    print(f"two-network scheme with augmentation: {with_aug:g}")
    print(f"two-network scheme without augmentation: {without:g}")
    print(f"speedup vs with-augmentation: {100.0 * (coteach / with_aug - 1.0):.0f}%")
    print(f"speedup vs without-augmentation: {100.0 * (coteach / without - 1.0):.0f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclegait",
        description="cyclic two-network noise-tolerant training benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def corruption_flags(p, seed_flag: str):
        """The corruption amounts and seed of gen-data and corrupt."""
        p.add_argument("--rate", type=float, default=0.2,
                       help="label and augmentation noise: share of train sequences")
        p.add_argument("--fraction", type=float, default=0.6,
                       help="split noise: share of train identities")
        p.add_argument(seed_flag, dest="corrupt_seed", type=int, default=7)

    # gen-data flags are stored under make_benchmark's argument names, with its defaults
    gen = gaitgen.GENERATOR_DEFAULTS
    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--ids", dest="n_ids", type=int, default=gen["n_ids"])
    p.add_argument("--train-ids", dest="n_train_ids", type=int, default=gen["n_train_ids"])
    p.add_argument("--views", dest="n_views", type=int, default=gen["n_views"])
    groups = gen["condition_groups"]
    p.add_argument("--nm", type=int, default=groups["NM"])
    p.add_argument("--bg", type=int, default=groups["BG"])
    p.add_argument("--cl", type=int, default=groups["CL"])
    p.add_argument("--frames", dest="frames_per_seq", type=int, default=gen["frames_per_seq"])
    p.add_argument("--d-in", dest="d_in", type=int, default=gen["d_in"])
    p.add_argument("--seed", type=int, default=gen["seed"])
    p.add_argument("--corrupt", default="none", choices=("none", *gaitgen.CORRUPTIONS))
    corruption_flags(p, "--corrupt-seed")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("corrupt", help="corrupt the train split of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=tuple(gaitgen.CORRUPTIONS), required=True)
    corruption_flags(p, "--seed")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_corrupt)

    # train flags are stored under their ExperimentConfig field names; unset
    # ones (None) leave the --config value in place
    d = ExperimentConfig
    p = sub.add_parser("train", help="run a training experiment")
    p.add_argument("--config", default=None, help="experiment config file")
    p.add_argument("--data", dest="data_dir", default=None,
                   help="dataset directory (required unless --config sets data_dir)")
    p.add_argument("--out", dest="out_dir", default=None)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--schedule", dest="schedule_profile", choices=("noisy", "clean"),
                   default=None)
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int, default=None)
    p.add_argument("--trace", dest="record_trace", action="store_true", default=None)
    p.add_argument("--and", dest="and_enabled", action="store_true", default=None)
    p.add_argument("--no-and", dest="and_enabled", action="store_false")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank-1 retrieval evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the component ablation grid")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int, default=d.seed, help="first seed of the range")
    p.add_argument("--iterations", type=int, default=d.iterations)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify-closed-form",
                       help="check a training trace against the EMA closed form")
    p.add_argument("--run", default=None, help="run directory with trace + checkpoints")
    p.set_defaults(func=cmd_verify_closed_form)

    p = sub.add_parser("cost", help="forward-pass cost model")
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--noise-rate", dest="noise_rate", type=float, default=0.0)
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:  # bad input, or an output that exists
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
