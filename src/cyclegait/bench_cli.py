"""Command-line orchestration: data generation, corruption, training,
evaluation, the component ablation grid, trace verification and the
forward-cost calculator.

Experiment configs are plain sectioned key=value text (diffable provenance,
lossless round-trip); every output file embeds the config hash. One output
directory holds one reproducible experiment:

    config.snapshot     effective config as written
    model_f_init.ckpt   initial forgetting-network parameters
    model_m_init.ckpt   initial memorizing-network parameters (two-net modes)
    model_f.ckpt        final forgetting network (the inference model)
    model_m.ckpt        final memorizing network (two-net modes)
    trace.bin           per-iteration updates (when tracing)
    metrics.jsonl       per-iteration loss/mask/lr log
    memorization.csv    train-accuracy curves (when snapshots are on)
    eval/               rank-1 CSV/JSON and variance statistics
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
from .cyclic import MODES, NonFiniteLossError, TrainerConfig, run_training, train_groups
from .gaitgen import DatasetBundle
from .setnet import OptimizerConfig, load_checkpoint, save_checkpoint

CONFIG_FORMAT_VERSION = 1

OUT_ROOT_ENV = "CYCLEGAIT_OUT_ROOT"
WORKERS_ENV = "CYCLEGAIT_WORKERS"


def _section(name: str, default):
    return dataclasses.field(default=default, metadata={"section": name})


@dataclasses.dataclass(frozen=True)
class ExperimentConfig(TrainerConfig):
    """Everything a full run needs; defaults give the desk-scale benchmark.

    The trainer and optimizer settings are the inherited TrainerConfig
    fields; this class adds the dataset, corruption, eval, output and meta
    settings, each tagged with the config-file section it is written to.
    """

    format_version: int = _section("meta", CONFIG_FORMAT_VERSION)
    data_dir: str = _section("dataset", "")
    n_ids: int = _section("dataset", 60)
    n_train_ids: int = _section("dataset", 40)
    n_views: int = _section("dataset", 4)
    nm_groups: int = _section("dataset", 4)
    bg_groups: int = _section("dataset", 3)
    cl_groups: int = _section("dataset", 3)
    frames_per_seq: int = _section("dataset", 30)
    d_in: int = _section("dataset", 16)
    data_seed: int = _section("dataset", 1)
    # corruption of the train split: none | label | augmentation | split
    corruption: str = _section("corruption", "none")
    corruption_rate: float = _section("corruption", 0.2)
    corruption_fraction: float = _section("corruption", 0.6)
    corruption_seed: int = _section("corruption", 7)
    exclude_same_view: bool = _section("eval", True)
    out_dir: str = _section("output", "runs/exp")


# Config files group keys into these sections, in this order. Untagged
# fields belong to [trainer]; the nested optimizer config fills [optimizer].
# The optimizer's kind and momentum get an opt_ prefix, which keeps momentum
# apart from the EMA ratio of the same name in [trainer].
_SECTION_ORDER = ("meta", "dataset", "corruption", "trainer", "optimizer", "eval", "output")
_OPTIMIZER_KEYS = {"kind": "opt_kind", "momentum": "opt_momentum"}


def _schema() -> dict:
    """Config-file key -> (section, nested config field or None, field name, type)."""
    keys = {}
    hints = typing.get_type_hints(ExperimentConfig)
    opt_hints = typing.get_type_hints(OptimizerConfig)
    for f in dataclasses.fields(ExperimentConfig):
        if f.name == "optimizer":
            for g in dataclasses.fields(OptimizerConfig):
                key = _OPTIMIZER_KEYS.get(g.name, g.name)
                keys[key] = ("optimizer", f.name, g.name, opt_hints[g.name])
        else:
            keys[f.name] = (f.metadata.get("section", "trainer"), None, f.name, hints[f.name])
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
        for key, (sec, nested, name, _) in _SCHEMA.items():
            if sec == section:
                owner = getattr(cfg, nested) if nested else cfg
                out.write(f"{key} = {_format_value(getattr(owner, name))}\n")
        out.write("\n")
    return out.getvalue()


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:  # its message runs over several lines
        raise ValueError(f"config syntax: {err.message.splitlines()[0]}") from err
    values, optimizer = {}, {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _SCHEMA:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            sec, nested, name, ftype = _SCHEMA[key]
            if sec != section:
                raise ValueError(f"key {key!r} belongs in [{sec}]")
            (optimizer if nested else values)[name] = _parse_value(key, ftype, raw)
    cfg = ExperimentConfig(**values, optimizer=OptimizerConfig(**optimizer))
    if cfg.format_version != CONFIG_FORMAT_VERSION:
        raise ValueError(f"unsupported config format_version {cfg.format_version}")
    return cfg


def load_config_file(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def _resolve_out(path: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV, "")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _workers() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# dataset plumbing


def build_bundle(cfg: ExperimentConfig) -> DatasetBundle:
    """Generate (and corrupt) the dataset described by the config."""
    bundle = gaitgen.make_benchmark(
        n_ids=cfg.n_ids,
        n_train_ids=cfg.n_train_ids,
        n_views=cfg.n_views,
        condition_groups={"NM": cfg.nm_groups, "BG": cfg.bg_groups, "CL": cfg.cl_groups},
        frames_per_seq=cfg.frames_per_seq,
        d_in=cfg.d_in,
        seed=cfg.data_seed,
    )
    if cfg.corruption != "none":
        amount = cfg.corruption_fraction if cfg.corruption == "split" else cfg.corruption_rate
        bundle = gaitgen.corrupt_bundle(bundle, cfg.corruption, amount, cfg.corruption_seed)
    return bundle


def obtain_bundle(cfg: ExperimentConfig) -> DatasetBundle:
    """Load the dataset from data_dir when set, else generate it in memory."""
    if cfg.data_dir:
        return gaitgen.load_bundle(cfg.data_dir)
    return build_bundle(cfg)


def _manifest_with_hash(manifest: dict) -> dict:
    manifest = dict(manifest)
    manifest.pop("config_hash", None)
    digest = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode("utf-8")
    ).hexdigest()
    manifest["config_hash"] = digest
    return manifest


def write_dataset(bundle: DatasetBundle, outdir: str):
    bundle = DatasetBundle(bundle.train, bundle.test, _manifest_with_hash(bundle.manifest))
    gaitgen.save_bundle(
        bundle, outdir, extra_header={"config_hash": bundle.manifest["config_hash"]}
    )


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


def run_experiment(cfg: ExperimentConfig, bundle: DatasetBundle | None = None):
    """Train per config, persist the run directory, return (result, outdir).

    A dataset that cannot fill the batch shape raises ValueError before
    anything is written.
    """
    if bundle is None:
        bundle = obtain_bundle(cfg)
    train_groups(bundle, cfg)
    outdir = _resolve_out(cfg.out_dir)
    os.makedirs(outdir, exist_ok=True)
    digest = config_hash(cfg)
    with open(os.path.join(outdir, "config.snapshot"), "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={digest}\n")
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
        for it, clean_acc, noisy_acc in curve.rows():
            noisy_txt = "" if noisy_acc is None else f"{noisy_acc:.6f}"
            rows.append(f"{it},{clean_acc:.6f},{noisy_txt}")
        _write_csv(os.path.join(outdir, "memorization.csv"), "\n".join(rows) + "\n", digest)
    return result, outdir


def evaluate_to_dir(params, test_samples, outdir: str, digest: str,
                    exclude_same_view: bool = True):
    """Write rank1.csv / rank1.json / variance.csv for a checkpoint."""
    os.makedirs(outdir, exist_ok=True)
    z, _ = gaugekit.embed_samples(params, test_samples)
    report = gaugekit.evaluate_embeddings(z, test_samples, exclude_same_view)
    _write_csv(os.path.join(outdir, "rank1.csv"), report.to_csv_text(), digest)
    with open(os.path.join(outdir, "rank1.json"), "w", encoding="utf-8") as fh:
        json.dump({"config_hash": digest, **report.to_json_dict()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    stats = gaugekit.variance_stats(
        z, [s.identity for s in test_samples], [s.condition for s in test_samples]
    )
    lines = ["statistic,value"] + [f"{k},{v:.9f}" for k, v in stats.as_dict().items()]
    _write_csv(os.path.join(outdir, "variance.csv"), "\n".join(lines) + "\n", digest)
    return report


# ---------------------------------------------------------------------------
# ablation grid


# The supervised-family rows train with the plain constant-weight recipe;
# the coefficient ramp schedule is part of the noise-tolerant method and is
# applied only to rows that include the consistency loss.
# "supervised+cyclic" trains bitwise the same F as "supervised" (checked with
# np.array_equal on params_f): with sigma0 = sigma3 = 0 and no sieve, M never
# reaches F's gradient, so the EMA network only costs forwards. The ordering
# supervised+cyclic >= supervised therefore holds with equality.
ABLATION_CELLS = (
    ("supervised", {"mode": "supervised", "and_enabled": False,
                    "schedule_profile": "clean"}),
    ("supervised+cyclic", {"mode": "cyclic", "ema_enabled": True, "and_enabled": False,
                           "sigma0_const": 0.0, "sigma3_const": 0.0,
                           "schedule_profile": "clean"}),
    ("supervised+cyclic+and", {"mode": "cyclic", "ema_enabled": True, "and_enabled": True,
                               "sigma0_const": 0.0, "sigma3_const": 0.0,
                               "schedule_profile": "clean"}),
    ("selfsup", {"mode": "selfsup", "ema_enabled": False, "and_enabled": False,
                 "schedule_profile": "noisy"}),
    ("selfsup+cyclic", {"mode": "selfsup", "ema_enabled": True, "and_enabled": False,
                        "schedule_profile": "noisy"}),
    ("full-no-cyclic", {"mode": "cyclic", "ema_enabled": False, "and_enabled": False,
                        "schedule_profile": "noisy"}),
    ("full-no-and", {"mode": "cyclic", "ema_enabled": True, "and_enabled": False,
                     "schedule_profile": "noisy"}),
    ("full", {"mode": "cyclic", "ema_enabled": True, "and_enabled": True,
              "schedule_profile": "noisy"}),
)


def _ablation_cell_job(args):
    base, bundle_manifest, cell_name, overrides, seed = args
    bundle = gaitgen.regenerate_from_manifest(bundle_manifest)
    cfg = dataclasses.replace(base, **overrides, seed=seed)
    result = run_training(bundle, cfg)
    report = gaugekit.evaluate_checkpoint(
        result.params_f, bundle.test, cfg.exclude_same_view
    )
    means = {c: report.condition_means.get(c, float("nan")) for c in ("NM", "BG", "CL")}
    return cell_name, seed, means, report.overall_mean


def run_ablation(cfg: ExperimentConfig, bundle: DatasetBundle, seeds) -> dict:
    """Train and evaluate every grid cell for every seed; returns
    {cell: {condition: (mean, std)}} plus raw per-seed values under "raw"."""
    jobs = [
        (cfg, bundle.manifest, cell_name, overrides, seed)
        for cell_name, overrides in ABLATION_CELLS
        for seed in seeds
    ]

    workers = _workers()
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_ablation_cell_job, jobs))
    else:
        outcomes = [_ablation_cell_job(j) for j in jobs]

    raw: dict = {}
    for cell_name, seed, means, overall in outcomes:
        raw.setdefault(cell_name, []).append((seed, means, overall))

    table = {}
    for cell_name, rows in raw.items():
        entry = {}
        for cond in ("NM", "BG", "CL"):
            vals = np.array([r[1][cond] for r in rows])
            entry[cond] = (float(vals.mean()), float(vals.std()))
        overall = np.array([r[2] for r in rows])
        entry["overall"] = (float(overall.mean()), float(overall.std()))
        table[cell_name] = entry
    return {"table": table, "raw": raw}


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
        raise SystemExit(f"{what} {path} already exists; pass --force to overwrite")


def _config_fields(args) -> dict:
    """The parsed flags whose dest is an ExperimentConfig field and that were set."""
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def cmd_gen_data(args) -> int:
    cfg = ExperimentConfig(**_config_fields(args))
    outdir = _resolve_out(args.out)
    _refuse_existing(os.path.join(outdir, "manifest.json"), args.force, "dataset")
    bundle = build_bundle(cfg)
    write_dataset(bundle, outdir)
    n_flagged = sum(1 for s in bundle.train if s.noise_flag != "clean")
    print(f"wrote {outdir}: {len(bundle.train)} train / {len(bundle.test)} test sequences")
    print(f"train identities: {len(set(s.identity for s in bundle.train))}, "
          f"flagged noisy: {n_flagged}")
    return 0


def cmd_corrupt(args) -> int:
    bundle = gaitgen.load_bundle(args.data)
    outdir = _resolve_out(args.out)
    _refuse_existing(os.path.join(outdir, "manifest.json"), args.force, "dataset")
    amount = args.fraction if args.mode == "split" else args.rate
    bundle = gaitgen.corrupt_bundle(bundle, args.mode, amount, args.seed)
    write_dataset(bundle, outdir)
    n_flagged = sum(1 for s in bundle.train if s.noise_flag != "clean")
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
    bundle = gaitgen.load_bundle(args.data)
    digest = header.get("config_hash", "unknown")
    outdir = _resolve_out(args.out) if args.out else os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)), "eval"
    )
    report = evaluate_to_dir(
        params, bundle.test, outdir, digest, exclude_same_view=args.exclude_same_view
    )
    print(f"rank-1 means: " + ", ".join(
        f"{c}={report.condition_means[c]:.2f}" for c in report.conditions
    ) + f", overall={report.overall_mean:.2f}")
    print(f"wrote {outdir}")
    return 0


def cmd_ablate(args) -> int:
    bundle = gaitgen.load_bundle(args.data)
    base = ExperimentConfig(
        data_dir=args.data,
        iterations=args.iterations,
    )
    seeds = [args.seed + i for i in range(args.seeds)]
    outcome = run_ablation(base, bundle, seeds)
    outdir = _resolve_out(args.out)
    os.makedirs(outdir, exist_ok=True)
    digest = config_hash(base)
    _write_csv(os.path.join(outdir, "ablation.csv"), ablation_csv(outcome["table"]), digest)
    print(f"{'cell':<24}{'NM':>16}{'BG':>16}{'CL':>16}")
    for cell_name, _ in ABLATION_CELLS:
        e = outcome["table"][cell_name]
        print(f"{cell_name:<24}" + "".join(
            f"{e[c][0]:>9.2f}±{e[c][1]:<6.2f}" for c in ("NM", "BG", "CL")
        ))
    print(f"wrote {os.path.join(outdir, 'ablation.csv')}")
    return 0


def cmd_verify_closed_form(args) -> int:
    if args.run:
        run_dir = args.run
        trace = os.path.join(run_dir, "trace.bin")
        init_f, _ = load_checkpoint(os.path.join(run_dir, "model_f_init.ckpt"))
        init_m, _ = load_checkpoint(os.path.join(run_dir, "model_m_init.ckpt"))
        final_f, _ = load_checkpoint(os.path.join(run_dir, "model_f.ckpt"))
        final_m, _ = load_checkpoint(os.path.join(run_dir, "model_m.ckpt"))
    else:
        trace = args.trace
        init_f, _ = load_checkpoint(args.init_f)
        init_m, _ = load_checkpoint(args.init_m)
        final_f = final_m = None
    try:
        report = gaugekit.verify_trace_file(trace, init_f, init_m, final_f, final_m)
    except (OSError, ValueError) as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return 2
    ok = report["max_relative_deviation"] <= args.tolerance
    for key in ("endpoint_f_matches", "endpoint_m_matches"):
        if key in report:
            ok = ok and report[key]
    print(f"iterations={report['iterations']} params={report['n_params']} "
          f"momentum={report['momentum']}")
    print(f"max relative deviation: {report['max_relative_deviation']:.3e} "
          f"(tolerance {args.tolerance:.1e})")
    for key in ("endpoint_f_matches", "endpoint_m_matches"):
        if key in report:
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

    # gen-data and train flags are stored under their ExperimentConfig field
    # names, and flag defaults that are config settings read the config's
    d = ExperimentConfig
    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--ids", dest="n_ids", type=int, default=d.n_ids)
    p.add_argument("--train-ids", dest="n_train_ids", type=int, default=d.n_train_ids)
    p.add_argument("--views", dest="n_views", type=int, default=d.n_views)
    p.add_argument("--nm", dest="nm_groups", type=int, default=d.nm_groups)
    p.add_argument("--bg", dest="bg_groups", type=int, default=d.bg_groups)
    p.add_argument("--cl", dest="cl_groups", type=int, default=d.cl_groups)
    p.add_argument("--frames", dest="frames_per_seq", type=int, default=d.frames_per_seq)
    p.add_argument("--d-in", dest="d_in", type=int, default=d.d_in)
    p.add_argument("--seed", dest="data_seed", type=int, default=d.data_seed)
    p.add_argument("--corrupt", dest="corruption", default=d.corruption,
                   choices=("none", "label", "augmentation", "split"))
    p.add_argument("--rate", dest="corruption_rate", type=float, default=d.corruption_rate)
    p.add_argument("--fraction", dest="corruption_fraction", type=float,
                   default=d.corruption_fraction)
    p.add_argument("--corrupt-seed", dest="corruption_seed", type=int,
                   default=d.corruption_seed)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("corrupt", help="corrupt the train split of a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("label", "augmentation", "split"), required=True)
    p.add_argument("--rate", type=float, default=d.corruption_rate)
    p.add_argument("--fraction", type=float, default=d.corruption_fraction)
    p.add_argument("--seed", type=int, default=d.corruption_seed)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_corrupt)

    # unset train flags (None) leave the --config value in place
    p = sub.add_parser("train", help="run a training experiment")
    p.add_argument("--config", default=None, help="experiment config file")
    p.add_argument("--data", dest="data_dir", default=None, help="dataset directory")
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
    p.add_argument("--exclude-same-view", dest="exclude_same_view",
                   action="store_true", default=d.exclude_same_view)
    p.add_argument("--include-same-view", dest="exclude_same_view", action="store_false")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the component ablation grid")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int, default=d.seed, help="first seed of the range")
    p.add_argument("--iterations", type=int, default=d.iterations)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify-closed-form",
                       help="check a training trace against the EMA closed form")
    p.add_argument("--run", default=None, help="run directory with trace + checkpoints")
    p.add_argument("--trace", default=None)
    p.add_argument("--init-f", dest="init_f", default=None)
    p.add_argument("--init-m", dest="init_m", default=None)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify_closed_form)

    p = sub.add_parser("cost", help="forward-pass cost model")
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--noise-rate", dest="noise_rate", type=float, default=0.0)
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify-closed-form" and not args.run and not (
        args.trace and args.init_f and args.init_m
    ):
        print("need --run or all of --trace/--init-f/--init-m", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError) as err:  # a bad input path, config value or dataset
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
