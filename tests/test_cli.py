import json
import math
import os

import numpy as np
import pytest

from cyclegait.bench_cli import (
    ABLATION_CELLS,
    ExperimentConfig,
    config_hash,
    main,
    parse_config,
    run_experiment,
    serialize_config,
)
from cyclegait.cyclic import TrainerConfig
from cyclegait.setnet import OptimizerConfig, load_checkpoint


def run_cli(*argv):
    return main(list(argv))


TINY_GEN = (
    "--ids", "8", "--train-ids", "6", "--views", "2", "--nm", "2", "--bg", "1",
    "--cl", "1", "--frames", "6", "--seed", "3",
)


def tiny_train_config(data_dir, out_dir, **kwargs):
    base = dict(
        data_dir=str(data_dir),
        out_dir=str(out_dir),
        mode="cyclic",
        iterations=4,
        p_ids=3,
        k_seqs=2,
        d_hidden=8,
        d_emb=4,
        optimizer=OptimizerConfig(lr=0.05, milestones=()),
        seed=5,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


# serialize_config(ExperimentConfig()), pinned: config_hash and every
# config.snapshot depend on the key names, sections and order staying the same
DEFAULT_CONFIG_TEXT = "\n".join([
    "[meta]", "format_version = 1", "",
    "[dataset]", "data_dir = ", "n_ids = 60", "n_train_ids = 40", "n_views = 4",
    "nm_groups = 4", "bg_groups = 3", "cl_groups = 3", "frames_per_seq = 30",
    "d_in = 16", "data_seed = 1", "",
    "[corruption]", "corruption = none", "corruption_rate = 0.2",
    "corruption_fraction = 0.6", "corruption_seed = 7", "",
    "[trainer]", "mode = cyclic", "iterations = 2000", "p_ids = 8", "k_seqs = 4",
    "momentum = 0.99", "ema_enabled = true", "and_enabled = false",
    "detach_teacher = false", "augmentation = default", "seed = 1",
    "schedule_profile = noisy", "triplet_margin = 0.2", "mil_temperature = 0.2",
    "d_hidden = 64", "d_emb = 32", "record_trace = false", "snapshot_every = 0",
    "coteach_noise_rate = 0.2", "sieve_beta = 0.9", "sieve_warmup = 200",
    "sieve_scale = 1.5", "sieve_entropy_scale = 1.0", "sieve_keep_floor = 0.5",
    "schedule_ramp_fraction = 0.5", "sigma0_const = none", "sigma1_const = none",
    "sigma2_const = none", "sigma3_const = none", "",
    "[optimizer]", "opt_kind = sgd", "lr = 0.05", "opt_momentum = 0.9",
    "milestones = 1000", "gamma = 0.1", "",
    "[eval]", "exclude_same_view = true", "",
    "[output]", "out_dir = runs/exp", "", "",
])


class TestConfigRoundtrip:
    def test_serialize_parse_identity(self):
        cfg = ExperimentConfig(mode="selfsup", iterations=123,
                               optimizer=OptimizerConfig(lr=0.007, milestones=(10, 20)),
                               sigma2_const=0.05, and_enabled=False, out_dir="runs/x")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_fill_missing_sections(self):
        cfg = parse_config("[trainer]\nmode = supervised\n")
        assert cfg.mode == "supervised"
        assert cfg.iterations == ExperimentConfig().iterations

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[trainer]\nbogus = 1\n")

    def test_wrong_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[trainer]\nlr = 0.5\n")

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig(seed=2)
        assert config_hash(a) == config_hash(ExperimentConfig())
        assert config_hash(a) != config_hash(b)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("sieve_entropy_scale", 0.75),
            ("sieve_keep_floor", 0.25),
            ("schedule_ramp_fraction", 0.3),
        ],
    )
    def test_sieve_and_schedule_knobs_have_provenance(self, name, value):
        cfg = ExperimentConfig(**{name: value})
        text = serialize_config(cfg)
        assert f"{name} = {value!r}" in text
        assert parse_config(text) == cfg
        assert config_hash(cfg) != config_hash(ExperimentConfig())
        # the experiment config is itself the trainer config run_training reads
        assert isinstance(cfg, TrainerConfig)
        assert getattr(cfg, name) == value

    def test_every_field_is_serialized(self):
        import configparser
        import dataclasses

        parser = configparser.ConfigParser()
        parser.read_string(serialize_config(ExperimentConfig()))
        keys = [key for section in parser.sections() for key in parser[section]]
        aliases = {"kind": "opt_kind", "momentum": "opt_momentum"}
        expected = [f.name for f in dataclasses.fields(ExperimentConfig)
                    if f.name != "optimizer"]
        expected += [aliases.get(f.name, f.name) for f in dataclasses.fields(OptimizerConfig)]
        assert sorted(keys) == sorted(expected)

    def test_default_text_is_pinned(self):
        assert serialize_config(ExperimentConfig()) == DEFAULT_CONFIG_TEXT

    def test_float_roundtrip_exact(self):
        cfg = ExperimentConfig(optimizer=OptimizerConfig(lr=0.1 + 2e-17), momentum=1 / 3)
        assert parse_config(serialize_config(cfg)) == cfg


class TestGenDataCommand:
    def test_default_contract(self):
        # the stock benchmark: 40 train + 20 test identities, 4 views
        cfg = ExperimentConfig()
        assert (cfg.n_ids, cfg.n_train_ids, cfg.n_views) == (60, 40, 4)
        assert cfg.data_seed == 1
        from cyclegait.bench_cli import build_parser

        args = build_parser().parse_args(["gen-data", "--out", "x"])
        assert (args.n_ids, args.n_train_ids, args.n_views, args.data_seed) == (60, 40, 4, 1)

    def test_generates_and_refuses_overwrite(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run_cli("gen-data", "--out", str(out), *TINY_GEN) == 0
        assert (out / "train.jsonl").exists()
        assert (out / "test.jsonl").exists()
        assert (out / "manifest.json").exists()
        with pytest.raises(SystemExit):
            run_cli("gen-data", "--out", str(out), *TINY_GEN)
        assert run_cli("gen-data", "--out", str(out), *TINY_GEN, "--force") == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("gen-data", "--out", str(out1), *TINY_GEN)
        run_cli("gen-data", "--out", str(out2), *TINY_GEN)
        for name in ("train.jsonl", "test.jsonl", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_corruption_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "data"
        run_cli("gen-data", "--out", str(out), *TINY_GEN,
                "--corrupt", "split", "--fraction", "0.5")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["corruptions"] == [
            {"mode": "split", "fraction": 0.5, "seed": 7}
        ]

    def test_corrupt_command_writes_new_dataset(self, tmp_path):
        src, dst = tmp_path / "clean", tmp_path / "noisy"
        run_cli("gen-data", "--out", str(src), *TINY_GEN)
        assert run_cli("corrupt", "--data", str(src), "--out", str(dst),
                       "--mode", "label", "--rate", "0.25", "--seed", "9") == 0
        manifest = json.loads((dst / "manifest.json").read_text())
        assert manifest["corruptions"][0]["mode"] == "label"


class TestTrainEvalPipeline:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        out = tmp_path / "data"
        run_cli("gen-data", "--out", str(out), *TINY_GEN)
        return out

    def test_run_experiment_outputs(self, data_dir, tmp_path):
        cfg = tiny_train_config(data_dir, tmp_path / "run", record_trace=True,
                                snapshot_every=2)
        result, outdir = run_experiment(cfg)
        for name in ("config.snapshot", "model_f_init.ckpt", "model_m_init.ckpt",
                     "model_f.ckpt", "model_m.ckpt", "trace.bin", "metrics.jsonl",
                     "memorization.csv"):
            assert os.path.exists(os.path.join(outdir, name)), name
        with open(os.path.join(outdir, "config.snapshot")) as fh:
            snap = fh.read()
        assert config_hash(cfg) in snap
        _, header = load_checkpoint(os.path.join(outdir, "model_f.ckpt"))
        assert header["config_hash"] == config_hash(cfg)
        with open(os.path.join(outdir, "metrics.jsonl")) as fh:
            head = json.loads(fh.readline())
            assert head["config_hash"] == config_hash(cfg)
            row = json.loads(fh.readline())
        assert {"iter", "l_c", "l_ce", "l_tri", "l_mil", "l_crc", "sigma0",
                "sigma1", "sigma2", "sigma3", "kept_fraction", "lr"} <= set(row)

    def test_invalid_config_value_is_a_usage_error(self, data_dir, tmp_path, capsys):
        run, config = tmp_path / "run", tmp_path / "exp.cfg"
        # a run the tiny dataset can train, apart from the smoothing factor
        config.write_text("[trainer]\np_ids = 3\nk_seqs = 2\niterations = 2\n"
                          "sieve_beta = 1.5\n")
        code = run_cli("train", "--config", str(config), "--data", str(data_dir),
                       "--out", str(run))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and "sieve_beta" in err[0]
        assert not (run / "config.snapshot").exists()

    @pytest.mark.parametrize("argv", [
        ("train", "--data", "{missing}", "--out", "{out}"),
        # TINY_GEN has 6 train identities; the default batch takes 8
        ("train", "--data", "{data}", "--out", "{out}"),
        ("train", "--config", "{unsectioned}", "--data", "{data}", "--out", "{out}"),
        ("eval", "--checkpoint", "{missing}/model_f.ckpt", "--data", "{data}", "--out", "{out}"),
        ("corrupt", "--data", "{missing}", "--out", "{out}", "--mode", "label"),
        ("ablate", "--data", "{missing}", "--out", "{out}"),
        ("verify-closed-form", "--run", "{missing}"),
    ], ids=["train-missing-data", "train-too-few-ids", "train-unsectioned-config", "eval",
            "corrupt", "ablate", "verify"])
    def test_bad_input_is_a_usage_error(self, data_dir, tmp_path, capsys, argv):
        out = tmp_path / "out"
        unsectioned = tmp_path / "exp.cfg"
        unsectioned.write_text("p_ids = 3\n")
        paths = {"data": data_dir, "missing": tmp_path / "missing", "out": out,
                 "unsectioned": unsectioned}
        capsys.readouterr()
        code = run_cli(*(arg.format(**paths) for arg in argv))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()  # nothing is written, config.snapshot included

    def test_supervised_mode_emits_no_teacher_checkpoint(self, data_dir, tmp_path):
        cfg = tiny_train_config(data_dir, tmp_path / "run", mode="supervised")
        _, outdir = run_experiment(cfg)
        assert os.path.exists(os.path.join(outdir, "model_f.ckpt"))
        assert not os.path.exists(os.path.join(outdir, "model_m.ckpt"))

    def test_train_then_verify_closed_form(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = tiny_train_config(data_dir, run, record_trace=True, iterations=6)
        run_experiment(cfg)
        code = run_cli("verify-closed-form", "--run", str(run))
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_verify_detects_tampered_trace(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = tiny_train_config(data_dir, run, record_trace=True, iterations=6)
        run_experiment(cfg)
        trace = run / "trace.bin"
        blob = bytearray(trace.read_bytes())
        header_end = blob.index(b"\n") + 1
        # corrupt the iteration index of the third record
        header = json.loads(bytes(blob[: header_end - 1]))
        rec_bytes = 8 + 16 * header["n_params"]
        off = header_end + 2 * rec_bytes
        blob[off : off + 8] = (999).to_bytes(8, "little")
        trace.write_bytes(bytes(blob))
        code = run_cli("verify-closed-form", "--run", str(run))
        err = capsys.readouterr().err
        assert code == 2
        assert "3" in err  # failure names the offending record index

    def test_eval_writes_tab_layout_csv(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        cfg = tiny_train_config(data_dir, run)
        run_experiment(cfg)
        code = run_cli("eval", "--checkpoint", str(run / "model_f.ckpt"),
                       "--data", str(data_dir), "--out", str(tmp_path / "eval"))
        assert code == 0
        lines = (tmp_path / "eval" / "rank1.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "probe,0,1,Mean"
        assert lines[2].startswith("NM,")
        assert (tmp_path / "eval" / "variance.csv").exists()

    def test_full_pipeline_determinism(self, tmp_path, monkeypatch):
        # identical configs (same relative paths) from two working directories
        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir()
            monkeypatch.chdir(base)
            run_cli("gen-data", "--out", "data", *TINY_GEN,
                    "--corrupt", "label", "--rate", "0.2")
            cfg = tiny_train_config("data", "run", record_trace=True)
            run_experiment(cfg)
            run_cli("eval", "--checkpoint", "run/model_f.ckpt",
                    "--data", "data", "--out", "eval")
            outputs.append(base)
        for rel in ("run/model_f.ckpt", "run/model_m.ckpt", "run/trace.bin",
                    "run/metrics.jsonl", "eval/rank1.csv", "eval/variance.csv"):
            a = (outputs[0] / rel).read_bytes()
            b = (outputs[1] / rel).read_bytes()
            assert a == b, f"{rel} differs between identical pipelines"

    # a huge learning rate reliably overflows the logits, warnings included
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_abort_writes_diagnostics(self, data_dir, tmp_path):
        cfg = tiny_train_config(data_dir, tmp_path / "run",
                                optimizer=OptimizerConfig(lr=1e6, milestones=()),
                                iterations=60)
        from cyclegait.cyclic import NonFiniteLossError

        with pytest.raises(NonFiniteLossError):
            run_experiment(cfg)
        assert (tmp_path / "run" / "diagnostics.json").exists()


class TestAblateCommand:
    def test_grid_writes_one_finite_row_per_cell(self, tmp_path):
        # the grid's default batch takes 8 identities, so widen the train split
        data, out = tmp_path / "data", tmp_path / "ablation"
        run_cli("gen-data", "--out", str(data), *TINY_GEN, "--ids", "10", "--train-ids", "8")
        assert run_cli("ablate", "--data", str(data), "--out", str(out),
                       "--seeds", "1", "--iterations", "2") == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        rows = [line.split(",") for line in lines[2:]]
        assert [row[0] for row in rows] == [name for name, _ in ABLATION_CELLS]
        assert all(math.isfinite(float(v)) for row in rows for v in row[1:])

    def test_too_few_train_identities_is_a_usage_error(self, tmp_path, capsys):
        # TINY_GEN has 6 train identities; the grid's default batch takes 8
        data, out = tmp_path / "data", tmp_path / "ablation"
        run_cli("gen-data", "--out", str(data), *TINY_GEN)
        capsys.readouterr()
        code = run_cli("ablate", "--data", str(data), "--out", str(out),
                       "--seeds", "1", "--iterations", "2")
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (out / "ablation.csv").exists()


class TestCostCommand:
    def test_reference_values(self, capsys):
        assert run_cli("cost", "--batch", "8", "--noise-rate", "0.2") == 0
        out = capsys.readouterr().out
        assert "28.8" in out
        assert "16" in out
        assert "8" in out

    def test_zero_rate_speedups(self, capsys):
        run_cli("cost", "--batch", "8")
        out = capsys.readouterr().out
        assert "100%" in out  # 2x over the with-augmentation variant
        assert "300%" in out  # 4x over the without-augmentation variant


class TestEnvOverrides:
    def test_out_root_prefixes_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLEGAIT_OUT_ROOT", str(tmp_path))
        run_cli("gen-data", "--out", "nested/data", *TINY_GEN)
        assert (tmp_path / "nested" / "data" / "manifest.json").exists()
