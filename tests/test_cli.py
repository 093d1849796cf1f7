import copy
import dataclasses
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from cyclegait import bench_cli, gaitgen
from cyclegait.bench_cli import (
    ABLATION_CELLS,
    ExperimentConfig,
    _ablation_cell_job,
    build_parser,
    config_hash,
    main,
    parse_config,
    run_ablation,
    run_experiment,
    run_training,
    serialize_config,
)
from cyclegait.gaitgen import load_bundle, make_benchmark, regenerate_from_manifest
from cyclegait.setnet import load_checkpoint


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def load_tool(name):
    """The script tools/<name>.py as a module, imported without writing
    bytecode next to it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


TINY_GEN = (
    "--ids", "8", "--train-ids", "6", "--views", "2", "--nm", "2", "--bg", "1",
    "--cl", "1", "--frames", "6", "--seed", "3",
)
# 8 train identities fill the default 8 x 4 batch that ablate and a train
# without --config use
WIDE_GEN = (*TINY_GEN, "--ids", "10", "--train-ids", "8")

# 9 train identities fill the default batch, but every sequence has view 0
ONE_VIEW_GEN = (*TINY_GEN, "--ids", "12", "--train-ids", "9", "--views", "1")

# the manifest the hash tests pair with a config
MANIFEST = make_benchmark(n_ids=3, n_train_ids=2, n_views=1, frames_per_seq=1).manifest


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
        lr=0.05,
        milestones=(),
        seed=5,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


# serialize_config(ExperimentConfig()), pinned: config_hash and every
# config.snapshot depend on the key names, sections and order staying the same
DEFAULT_CONFIG_TEXT = "\n".join([
    "[meta]", "format_version = 1", "",
    "[dataset]", "data_dir = ", "",
    "[trainer]", "mode = cyclic", "iterations = 2000", "p_ids = 8", "k_seqs = 4",
    "momentum = 0.99", "and_enabled = false", "seed = 1", "schedule_profile = noisy",
    "d_hidden = 64", "d_emb = 32", "record_trace = false", "snapshot_every = 0",
    "coteach_noise_rate = 0.2", "sieve_warmup = 200",
    "sigma0_const = none", "sigma3_const = none", "",
    "[optimizer]", "lr = 0.05", "milestones = 1000", "",
    "[output]", "out_dir = runs/exp", "", "",
])


class TestConfigRoundtrip:
    def test_serialize_parse_identity(self):
        cfg = ExperimentConfig(mode="selfsup", iterations=123,
                               lr=0.007, milestones=(10, 20),
                               sigma3_const=0.05, and_enabled=False, out_dir="runs/x")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_fill_missing_sections(self):
        cfg = parse_config("[trainer]\nmode = supervised\n")
        assert cfg.mode == "supervised"
        assert cfg.iterations == ExperimentConfig().iterations

    def test_unknown_key_rejected(self):
        # a made-up key, then the keys that became constants, each in its old section
        unknown = [("trainer", "bogus"), ("trainer", "sieve_beta"), ("trainer", "sieve_scale"),
                   ("trainer", "sieve_entropy_scale"), ("trainer", "sieve_keep_floor"),
                   ("trainer", "sigma1_const"), ("trainer", "sigma2_const"),
                   ("optimizer", "opt_momentum"), ("optimizer", "gamma"),
                   ("eval", "exclude_same_view")]
        for section, key in unknown:
            with pytest.raises(ValueError, match=repr(key)):
                parse_config(f"[{section}]\n{key} = 1\n")

    def test_wrong_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config("[trainer]\nlr = 0.5\n")

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig(seed=2)
        assert config_hash(a, MANIFEST) == config_hash(ExperimentConfig(), copy.deepcopy(MANIFEST))
        assert config_hash(a, MANIFEST) != config_hash(b, MANIFEST)

    @staticmethod
    def changed_value(name):
        """A valid value of config field name other than its default."""
        default = getattr(ExperimentConfig(), name)
        if name in ("mode", "schedule_profile", "milestones"):
            return {"mode": "supervised", "schedule_profile": "clean", "milestones": (7, 9)}[name]
        if default is None:  # a sigma pin
            return 0.5
        if isinstance(default, bool):
            return not default
        if isinstance(default, str):
            return default + "/elsewhere"
        return default + 1 if isinstance(default, int) else default / 2

    # built from the fields, so a knob added later is covered without an edit here
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_every_field_has_provenance(self, name):
        cfg = ExperimentConfig(**{name: self.changed_value(name)})
        assert parse_config(serialize_config(cfg)) == cfg
        moved = config_hash(cfg, MANIFEST) != config_hash(ExperimentConfig(), MANIFEST)
        # where the data and the outputs live changes nothing a run computes
        assert moved == (name not in ("data_dir", "out_dir"))

    def test_format_version_is_checked_on_parse(self):
        # the file's own version line, not a config field: it is written,
        # may be left out, and any other version is refused by name
        assert parse_config("[meta]\nformat_version = 1\n") == ExperimentConfig()
        with pytest.raises(ValueError, match="^unsupported config format_version 2$"):
            parse_config("[meta]\nformat_version = 2\n")
        with pytest.raises(ValueError, match="^key 'format_version' belongs in \\[meta\\]$"):
            parse_config("[trainer]\nformat_version = 1\n")

    def test_a_changed_manifest_moves_the_hash(self):
        cfg = ExperimentConfig()
        base = config_hash(cfg, MANIFEST)
        for edit in (lambda m: m["generator"].update(seed=2),
                     lambda m: m["generator"]["condition_groups"].update(CL=2),
                     lambda m: m["corruptions"].append({"mode": "label", "rate": 0.2, "seed": 7})):
            manifest = copy.deepcopy(MANIFEST)
            edit(manifest)
            assert config_hash(cfg, manifest) != base
        # apart from the manifest's own hash entry, which save_bundle adds
        assert config_hash(cfg, {**MANIFEST, "config_hash": "x"}) == base

    def test_every_field_is_serialized(self):
        import configparser

        parser = configparser.ConfigParser()
        parser.read_string(serialize_config(ExperimentConfig()))
        keys = [key for section in parser.sections() for key in parser[section]]
        expected = ["format_version", *(f.name for f in dataclasses.fields(ExperimentConfig))]
        assert sorted(keys) == sorted(expected)

    def test_default_text_is_pinned(self):
        assert serialize_config(ExperimentConfig()) == DEFAULT_CONFIG_TEXT

    def test_float_roundtrip_exact(self):
        cfg = ExperimentConfig(lr=0.1 + 2e-17, momentum=1 / 3)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("section, key, text, expected", [
        ("trainer", "iterations", "abc", "an int"),
        ("trainer", "iterations", "1.5", "an int"),
        ("trainer", "momentum", "high", "a float"),
        ("trainer", "sigma3_const", "off", "a float or none"),
        ("optimizer", "milestones", "1.5", "comma-separated ints"),
        ("optimizer", "milestones", "10,x", "comma-separated ints"),
    ])
    def test_unparsable_value_names_its_key(self, section, key, text, expected):
        with pytest.raises(ValueError, match=f"^{key} must be {expected}, got '{text}'$"):
            parse_config(f"[{section}]\n{key} = {text}\n")


class TestGenDataCommand:
    def test_default_contract(self):
        # the stock benchmark: 40 train + 20 test identities, 4 views, as
        # make_benchmark's defaults declare it; both corrupting commands share
        # the corruption defaults
        args = build_parser().parse_args(["gen-data", "--out", "x"])
        assert (args.n_ids, args.n_train_ids, args.n_views, args.seed) == (60, 40, 4, 1)
        assert (args.nm, args.bg, args.cl, args.frames_per_seq, args.d_in) == (4, 3, 3, 30, 16)
        assert args.corrupt == "none"
        corrupt = build_parser().parse_args(["corrupt", "--data", "x", "--out", "y",
                                             "--mode", "label"])
        for parsed in (args, corrupt):
            assert (parsed.rate, parsed.fraction, parsed.corrupt_seed) == (0.2, 0.6, 7)

    def test_generates_and_refuses_overwrite(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run_cli("gen-data", "--out", str(out), *TINY_GEN) == 0
        assert (out / "train.bin").exists()
        assert (out / "test.bin").exists()
        assert (out / "manifest.json").exists()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert run_cli("gen-data", "--out", str(out), *TINY_GEN, "--seed", "4") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--force" in err[0]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert run_cli("gen-data", "--out", str(out), *TINY_GEN, "--force") == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("gen-data", "--out", str(out1), *TINY_GEN)
        run_cli("gen-data", "--out", str(out2), *TINY_GEN)
        for name in ("train.bin", "test.bin", "manifest.json"):
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

    @pytest.mark.parametrize("flags, message", [
        (("--nm", "-2"), "condition_groups['NM'] must be >= 0, got -2"),
        (("--bg", "-1"), "condition_groups['BG'] must be >= 0, got -1"),
        (("--cl", "-1"), "condition_groups['CL'] must be >= 0, got -1"),
        (("--d-in", "0"), "d_in must be >= 1, got 0"),
    ])
    def test_bad_generator_sizes_are_refused(self, tmp_path, capsys, flags, message):
        out = tmp_path / "data"
        capsys.readouterr()
        assert run_cli("gen-data", "--out", str(out), *TINY_GEN, *flags) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestTrainEvalPipeline:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        out = tmp_path / "data"
        run_cli("gen-data", "--out", str(out), *TINY_GEN)
        return out

    def test_run_experiment_outputs(self, data_dir, tmp_path):
        cfg = tiny_train_config(data_dir, tmp_path / "run", record_trace=True,
                                snapshot_every=2)
        result = run_experiment(cfg)
        outdir = cfg.out_dir
        for name in ("config.snapshot", "model_f_init.ckpt", "model_m_init.ckpt",
                     "model_f.ckpt", "model_m.ckpt", "trace.bin", "metrics.jsonl",
                     "memorization.csv"):
            assert os.path.exists(os.path.join(outdir, name)), name
        with open(os.path.join(outdir, "config.snapshot")) as fh:
            snap = fh.read()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        digest = config_hash(cfg, manifest)
        assert snap.startswith(f"# config_hash={digest}\n"
                               f"# dataset_hash={manifest['config_hash']}\n[meta]\n")
        _, header = load_checkpoint(os.path.join(outdir, "model_f.ckpt"))
        assert header["config_hash"] == digest
        with open(os.path.join(outdir, "metrics.jsonl")) as fh:
            head = json.loads(fh.readline())
            assert head["config_hash"] == digest
            row = json.loads(fh.readline())
        assert {"iter", "l_c", "l_ce", "l_tri", "l_mil", "l_crc", "sigma0",
                "sigma1", "sigma2", "sigma3", "kept_fraction", "lr"} <= set(row)

    def test_invalid_config_value_is_a_usage_error(self, data_dir, tmp_path, capsys):
        run, config = tmp_path / "run", tmp_path / "exp.cfg"
        for section, key, value in [("trainer", "d_hidden", "0"),
                                    ("trainer", "d_emb", "0"),
                                    ("trainer", "snapshot_every", "-1"),
                                    ("optimizer", "lr", "nan"),
                                    ("trainer", "sigma3_const", "nan"),
                                    ("optimizer", "lr", "inf")]:
            # a run the tiny dataset can train, apart from this one value
            trainer = "[trainer]\np_ids = 3\nk_seqs = 2\niterations = 2\n"
            bad = f"{key} = {value}\n"
            config.write_text(trainer + bad if section == "trainer"
                              else f"{trainer}[{section}]\n{bad}")
            capsys.readouterr()
            code = run_cli("train", "--config", str(config), "--data", str(data_dir),
                           "--out", str(run))
            err = capsys.readouterr().err.splitlines()
            assert code == 2, key
            assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
            assert not run.exists()

    @pytest.mark.parametrize("section, line", [("optimizer", "opt_kind = sgd"),
                                               ("trainer", "ema_enabled = false"),
                                               ("dataset", "n_ids = 60"),
                                               ("trainer", "detach_teacher = false"),
                                               ("trainer", "augmentation = default")])
    def test_snapshot_with_a_removed_key_is_refused(self, data_dir, tmp_path, capsys,
                                                    section, line):
        run, config = tmp_path / "run", tmp_path / "config.snapshot"
        old = serialize_config(tiny_train_config(data_dir, run))
        config.write_text(old.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        capsys.readouterr()
        code = run_cli("train", "--config", str(config))
        err = capsys.readouterr().err.splitlines()
        key = line.split(" = ")[0]
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and repr(key) in err[0]
        assert not run.exists()

    @pytest.mark.parametrize("mode", ["supervised", "coteach-baseline"])
    def test_consistency_pin_without_consistency_term_is_a_usage_error(
            self, data_dir, tmp_path, capsys, mode):
        run, config = tmp_path / "run", tmp_path / "exp.cfg"
        config.write_text("[trainer]\np_ids = 3\nk_seqs = 2\niterations = 2\n"
                          "sigma0_const = 0.1\n")
        capsys.readouterr()
        code = run_cli("train", "--config", str(config), "--data", str(data_dir),
                       "--out", str(run), "--mode", mode)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and "sigma0_const" in err[0]
        assert not run.exists()

    @pytest.mark.parametrize("argv", [
        ("train", "--data", "{missing}", "--out", "{out}"),
        # TINY_GEN has 6 train identities; the default batch takes 8
        ("train", "--data", "{data}", "--out", "{out}"),
        ("train", "--config", "{unsectioned}", "--data", "{data}", "--out", "{out}"),
        ("eval", "--checkpoint", "{missing}/model_f.ckpt", "--data", "{data}", "--out", "{out}"),
        ("corrupt", "--data", "{missing}", "--out", "{out}", "--mode", "label"),
        ("ablate", "--data", "{missing}", "--out", "{out}"),
        ("verify-closed-form", "--run", "{missing}"),
        ("ablate", "--data", "{data}", "--out", "{out}", "--seeds", "0"),
        ("verify-closed-form",),
        ("train", "--out", "{out}", "--iterations", "2"),
    ], ids=["train-missing-data", "train-too-few-ids", "train-unsectioned-config", "eval",
            "corrupt", "ablate", "verify", "ablate-no-seeds", "verify-no-inputs",
            "train-without-data"])
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

    @pytest.mark.parametrize("command", ["train", "corrupt"])
    def test_jsonl_dataset_is_a_usage_error(self, data_dir, tmp_path, capsys, command):
        # a dataset directory as format 1 wrote it: a manifest that records the
        # generator geometry, plus JSONL splits
        old, out = tmp_path / "old", tmp_path / "out"
        old.mkdir()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        (old / "manifest.json").write_text(json.dumps(reference.format_1_manifest(manifest)))
        for split in ("train", "test"):
            (old / f"{split}.jsonl").write_text(
                '{"format_version": 1, "n_sequences": 1}\n'
                '{"clean_id": 0, "condition": "NM", "frames": [[0.5, 1.5]], "id": 0, '
                '"noise_flag": "clean", "view": 0}\n')
        argv = {"train": ("train", "--data", str(old), "--out", str(out)),
                "corrupt": ("corrupt", "--data", str(old), "--out", str(out),
                            "--mode", "label")}[command]
        capsys.readouterr()
        code = run_cli(*argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(old) in err[0] and "format 1" in err[0] and "gen-data" in err[0]
        assert not out.exists()

    def test_truncated_split_fails_train_and_eval(self, data_dir, tmp_path, capsys):
        run = tmp_path / "run"
        run_experiment(tiny_train_config(data_dir, run))
        train_bin = data_dir / "train.bin"
        train_bin.write_bytes(train_bin.read_bytes()[:-8])
        capsys.readouterr()
        assert run_cli("train", "--data", str(data_dir), "--out", str(tmp_path / "run2"),
                       "--iterations", "2") == 2
        assert run_cli("eval", "--checkpoint", str(run / "model_f.ckpt"),
                       "--data", str(data_dir), "--out", str(tmp_path / "eval")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("error:") and "train.bin" in e for e in err)
        assert not (tmp_path / "run2").exists() and not (tmp_path / "eval").exists()

    def test_eval_builds_no_train_sample(self, data_dir, tmp_path, monkeypatch):
        def frames_of(samples):
            return [(s.identity, s.frames.tobytes()) for s in samples]

        run = tmp_path / "run"
        run_experiment(tiny_train_config(data_dir, run))
        built = []
        real = gaitgen.SequenceSample

        def counted(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(gaitgen, "SequenceSample", counted)
        assert run_cli("eval", "--checkpoint", str(run / "model_f.ckpt"),
                       "--data", str(data_dir), "--out", str(tmp_path / "eval")) == 0
        by_eval = list(built)
        bundle = load_bundle(data_dir)
        assert len(built) == len(by_eval) + len(bundle.train) + len(bundle.test)
        assert frames_of(by_eval) == frames_of(bundle.test)

    def test_train_reads_no_test_frames(self, data_dir, tmp_path, monkeypatch):
        reads, read_split = [], gaitgen._read_split

        def spied(path, config_hash, with_frames=True):
            reads.append((os.path.basename(path), with_frames))
            return read_split(path, config_hash, with_frames)

        config = tmp_path / "exp.cfg"
        config.write_text(serialize_config(tiny_train_config(data_dir, tmp_path / "run")))
        monkeypatch.setattr(gaitgen, "_read_split", spied)
        assert run_cli("train", "--config", str(config)) == 0
        assert reads == [("train.bin", True), ("test.bin", False)]

    def test_supervised_mode_emits_no_teacher_checkpoint(self, data_dir, tmp_path):
        cfg = tiny_train_config(data_dir, tmp_path / "run", mode="supervised")
        run_experiment(cfg)
        assert os.path.exists(os.path.join(cfg.out_dir, "model_f.ckpt"))
        assert not os.path.exists(os.path.join(cfg.out_dir, "model_m.ckpt"))

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

    @pytest.mark.parametrize("checkpoint, name", [
        ("model_f_init", "initial F"), ("model_m_init", "initial M"),
        ("model_f", "final F"), ("model_m", "final M"),
    ])
    def test_verify_names_a_checkpoint_of_another_shape(self, data_dir, tmp_path, capsys,
                                                        checkpoint, name):
        run, other = tmp_path / "run", tmp_path / "other"
        run_experiment(tiny_train_config(data_dir, run, record_trace=True, iterations=3))
        run_experiment(tiny_train_config(data_dir, other, record_trace=True, iterations=1,
                                         d_hidden=6))
        (run / f"{checkpoint}.ckpt").write_bytes((other / f"{checkpoint}.ckpt").read_bytes())
        capsys.readouterr()
        code = run_cli("verify-closed-form", "--run", str(run))
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 2 and captured.out == ""
        assert len(err) == 1 and err[0].startswith("FAIL:") and f"the {name} checkpoint" in err[0]

    def test_eval_of_one_view_dataset_is_a_usage_error(self, tmp_path, capsys):
        data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        run_cli("gen-data", "--out", str(data), *ONE_VIEW_GEN)
        run_experiment(tiny_train_config(data, run, iterations=2))
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(run / "model_f.ckpt"), "--data", str(data),
                       "--out", str(out))
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 2 and captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: probe 0 ")
        assert "has no admissible gallery entry" in err[0]
        assert not out.exists()

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

    # a huge learning rate reliably overflows the logits; the training loop
    # raises no RuntimeWarning on the way, which pytest would turn into an error
    def test_nonfinite_abort_writes_diagnostics(self, data_dir, tmp_path):
        cfg = tiny_train_config(data_dir, tmp_path / "run",
                                lr=1e6, milestones=(),
                                iterations=60)
        from cyclegait.cyclic import NonFiniteLossError

        with pytest.raises(NonFiniteLossError):
            run_experiment(cfg)
        diagnostics = json.loads((tmp_path / "run" / "diagnostics.json").read_text())
        assert list(diagnostics["losses"]) == ["l_c", "l_ce", "l_tri", "l_mil", "l_crc",
                                               "sigma0", "sigma1", "sigma2", "sigma3"]

    def test_diverging_train_prints_only_its_abort_line(self, tmp_path):
        # the gen-split and train-diverge steps of tools/output_digests.py, each
        # in its own process, so numpy's warnings would reach its stderr
        tool = load_tool("output_digests")
        steps = {step: (command, code) for step, command, code in tool.COMMANDS}
        for name, text in tool.CONFIGS.items():
            (tmp_path / name).write_text(text)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        for step in ("gen-split", "train-diverge"):
            command, code = steps[step]
            proc = subprocess.run([sys.executable, "-m", "cyclegait.bench_cli", *command],
                                  cwd=tmp_path, env=env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == code, proc.stderr
        assert proc.stderr.splitlines() == [
            "aborted: non-finite loss at iteration 6 (diagnostics written)"]


def rewrite_header(path, edit):
    """Replace the JSON header line of a binary file with edit(header) bytes."""
    blob = path.read_bytes()
    end = blob.index(b"\n")
    path.write_bytes(edit(json.loads(blob[:end])) + blob[end:])


def without(key):
    return lambda header: json.dumps({k: v for k, v in header.items() if k != key}).encode()


def with_value(key, value):
    return lambda header: json.dumps({**header, key: value}).encode()


class TestBinaryHeaders:
    """A header line that is not a JSON object, or that lacks a key its reader
    needs or holds a value of the wrong type there, is one usage-error line
    naming the file, and the key if one is at fault."""

    EVAL = ("eval", "--checkpoint", "{run}/model_f.ckpt", "--data", "{data}", "--out", "{out}")

    @pytest.mark.parametrize("file, edit, argv, named", [
        ("run/model_f.ckpt", without("d_in"), EVAL, "'d_in'"),
        ("run/model_f.ckpt", lambda header: b"[1,2]", EVAL, "not a JSON object"),
        ("run/model_f.ckpt", lambda header: b"{d_in: 16}", EVAL, "not JSON"),
        ("data/test.bin", without("d_in"), EVAL, "'d_in'"),
        ("run/trace.bin", without("momentum"), ("verify-closed-form", "--run", "{run}"),
         "'momentum'"),
        ("run/model_f.ckpt", with_value("d_in", [16]), EVAL, "'d_in'"),
        ("data/test.bin", with_value("lengths", 5), EVAL, "'lengths'"),
        ("data/test.bin", lambda header: with_value("lengths", ["6"] * header["n_sequences"])(
            header), EVAL, "'lengths'"),
        ("data/train.bin", with_value("view", 3), EVAL, "'view'"),
        ("data/test.bin", lambda header: with_value("view", ["x"] * header["n_sequences"])(
            header), EVAL, "'view'"),
        ("data/test.bin", lambda header: with_value("id", [True] * header["n_sequences"])(
            header), EVAL, "'id'"),
        ("data/train.bin", lambda header: with_value("condition", ["XX"] * header[
            "n_sequences"])(header), EVAL, "'condition'"),
        ("data/test.bin", lambda header: with_value("noise_flag", [[]] * header[
            "n_sequences"])(header), EVAL, "'noise_flag'"),
    ], ids=["checkpoint-without-d_in", "checkpoint-list", "checkpoint-not-json",
            "split-without-d_in", "trace-without-momentum", "checkpoint-d_in-list",
            "split-lengths-int", "split-length-string", "split-view-int",
            "split-view-strings", "split-id-bools", "split-unknown-condition",
            "split-noise-flag-lists"])
    def test_bad_header_is_a_usage_error(self, tmp_path, capsys, file, edit, argv, named):
        data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "out"
        run_cli("gen-data", "--out", str(data), *TINY_GEN)
        run_experiment(tiny_train_config(data, run, record_trace=True, iterations=2))
        rewrite_header(tmp_path / file, edit)
        capsys.readouterr()
        code = run_cli(*(arg.format(data=data, run=run, out=out) for arg in argv))
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 2 and captured.out == ""
        assert len(err) == 1 and err[0].split(" ")[0] in ("error:", "FAIL:")
        assert str(tmp_path / file) in err[0] and named in err[0]
        assert not out.exists()


class TestAblateCommand:
    def test_grid_writes_one_finite_row_per_cell(self, tmp_path):
        # the grid's default batch takes 8 identities, so widen the train split
        data, out = tmp_path / "data", tmp_path / "ablation"
        run_cli("gen-data", "--out", str(data), *WIDE_GEN)
        assert run_cli("ablate", "--data", str(data), "--out", str(out),
                       "--seeds", "1", "--iterations", "2") == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        rows = [line.split(",") for line in lines[2:]]
        assert [row[0] for row in rows] == [name for name, _ in ABLATION_CELLS]
        assert all(math.isfinite(float(v)) for row in rows for v in row[1:])

    def test_grid_aggregates_each_cell_over_seeds(self, tmp_path):
        data = tmp_path / "data"
        run_cli("gen-data", "--out", str(data), *WIDE_GEN)
        bundle = load_bundle(str(data))
        base = ExperimentConfig(data_dir=str(data), iterations=2)
        seeds = (1, 2)
        table = run_ablation(base, bundle, seeds)
        assert list(table) == [name for name, _ in ABLATION_CELLS]
        stds = []
        for cell_name, overrides in ABLATION_CELLS:
            # each cell trained on its own, outside the lockstep grid
            scores = [_ablation_cell_job(run_training(bundle, dataclasses.replace(
                base, **overrides, seed=s)), bundle.test) for s in seeds]
            assert list(table[cell_name]) == ["NM", "BG", "CL", "overall"]
            for key, (mean, std) in table[cell_name].items():
                vals = [score[key] for score in scores]
                assert (mean, std) == (np.mean(vals), np.std(vals)), (cell_name, key)
                stds.append(std)
        assert max(stds) > 0.0  # the seeds differ, so the spread is exercised

    def test_collapsed_cells_are_pinned(self):
        """Which cells train the same F today, below sieve_warmup: a redesign
        of the cells that separates them has to change this test."""
        bundle = make_benchmark(n_ids=8, n_train_ids=6, n_views=2, frames_per_seq=6, d_in=8,
                                condition_groups={"NM": 2, "BG": 1, "CL": 1}, seed=3)
        base = ExperimentConfig(iterations=6, p_ids=3, k_seqs=2, d_hidden=8, d_emb=4)
        assert base.iterations < base.sieve_warmup
        results = run_training(bundle, [dataclasses.replace(base, **overrides)
                                        for _, overrides in ABLATION_CELLS])
        final_f = {name: result.params_f.flat.tobytes()
                   for (name, _), result in zip(ABLATION_CELLS, results)}
        classes = [("supervised", "supervised+cyclic", "supervised+cyclic+and"),
                   ("selfsup",), ("selfsup+cyclic",), ("full-no-cyclic",),
                   ("full-no-and", "full")]
        assert sorted(name for names in classes for name in names) == sorted(final_f)
        for names in classes:
            assert len({final_f[name] for name in names}) == 1, names
        assert len({final_f[names[0]] for names in classes}) == len(classes)

    def test_reads_no_train_frames(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        run_cli("gen-data", "--out", str(data), *WIDE_GEN)
        reads, read_split = [], gaitgen._read_split

        def spied(path, config_hash, with_frames=True):
            reads.append((os.path.basename(path), with_frames))
            return read_split(path, config_hash, with_frames)

        monkeypatch.setattr(gaitgen, "_read_split", spied)
        grid = ("--seeds", "1", "--iterations", "2")
        assert run_cli("ablate", "--data", str(data), "--out", str(tmp_path / "a"), *grid) == 0
        assert reads == [("train.bin", False), ("test.bin", False)]
        # both headers and payload sizes are still checked
        for name in ("test.bin", "train.bin"):
            split = data / name
            split.write_bytes(split.read_bytes()[:-8])
            capsys.readouterr()
            assert run_cli("ablate", "--data", str(data), "--out", str(tmp_path / "b"),
                           *grid) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and name in err[0]
            assert not (tmp_path / "b").exists()

    def test_one_view_dataset_is_refused_before_training(self, tmp_path, capsys,
                                                         monkeypatch):
        # with one view no probe has a gallery entry of another view to match
        data, out = tmp_path / "data", tmp_path / "ablation"
        run_cli("gen-data", "--out", str(data), *ONE_VIEW_GEN)
        monkeypatch.setattr(bench_cli, "run_training", None)  # training would fail here
        capsys.readouterr()
        code = run_cli("ablate", "--data", str(data), "--out", str(out),
                       "--seeds", "1", "--iterations", "2")
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: probe 0 ")
        assert "has no admissible gallery entry" in err[0]
        assert not out.exists()

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
        assert not out.exists()  # checked before the output directory is made

    @pytest.mark.parametrize("edit, key", [
        (lambda m: m["generator"].update(bogus=1), "'bogus'"),
        (lambda m: m["generator"].pop("n_train_ids"), "'n_train_ids'"),
        # the geometry block that format 1 recorded
        (lambda m: m["generator"].update(geometry={"frame_jitter": 0.12}), "'geometry'"),
        (lambda m: m["generator"].update(frames_per_seq=[6]), "'frames_per_seq'"),
        (lambda m: m["generator"].update(n_views="2"), "'n_views'"),
        (lambda m: m["generator"].update(d_in=True), "'d_in'"),
        (lambda m: m["generator"]["condition_groups"].update(CL=1.0), "'condition_groups'"),
        (lambda m: m["generator"]["condition_groups"].update(BG=-1), "condition_groups['BG']"),
        (lambda m: m["corruptions"].append({"mode": "label", "rate": "0.2", "seed": 7}),
         "'rate'"),
        (lambda m: m["corruptions"].append({"mode": "split", "fraction": 0.5, "seed": "7"}),
         "'seed'"),
        (lambda m: m.update(generator=[1]), "'generator'"),
        (lambda m: m.update(corruptions=["split"]), "'corruptions'"),
        (lambda m: m.update(corruptions={"mode": "split"}), "'corruptions'"),
        (lambda m: m["corruptions"].append({"mode": ["label"], "rate": 0.2, "seed": 7}),
         "'mode'"),
        # the appearance corruption that format 2 once listed
        (lambda m: m["corruptions"].append({"mode": "augmentation", "rate": 0.2, "seed": 7}),
         "'augmentation'"),
        # the mode is checked before its amount key is looked up
        (lambda m: m["corruptions"].append({"mode": "bogus", "seed": 7}), "'bogus'"),
        (lambda m: m["corruptions"].append({"mode": "split", "rate": 0.5, "seed": 7}),
         "lacks key 'fraction'"),
    ], ids=["unknown-generator-key", "missing-n_train_ids", "unknown-geometry-key",
            "generator-value-list", "n_views-str", "d_in-bool", "condition_groups-float",
            "condition_groups-negative", "rate-str", "seed-str", "generator-list",
            "corruption-str", "corruptions-object", "corruption-mode-list",
            "corruption-mode-augmentation", "corruption-mode-unknown", "split-amount-missing"])
    def test_manifest_that_cannot_regenerate_is_refused(self, tmp_path, capsys, monkeypatch,
                                                        edit, key):
        data, out = tmp_path / "data", tmp_path / "ablation"
        run_cli("gen-data", "--out", str(data), *TINY_GEN, "--ids", "12", "--train-ids", "9")
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest)
        (data / "manifest.json").write_text(json.dumps(manifest))
        regenerations = []
        regenerate = gaitgen.regenerate_from_manifest
        monkeypatch.setattr(gaitgen, "regenerate_from_manifest",
                            lambda m: regenerations.append(m) or regenerate(m))
        capsys.readouterr()
        code = run_cli("ablate", "--data", str(data), "--out", str(out),
                       "--seeds", "1", "--iterations", "2")
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert str(data / "manifest.json") in err[0]
        assert not out.exists()
        assert len(regenerations) == 1


class TestSharedGridBundle:
    """ablate regenerates its dataset once and every cell and seed shares it."""

    @pytest.fixture()
    def data(self, tmp_path):
        # split noise, so the regeneration replays a corruption as well
        out = tmp_path / "data"
        run_cli("gen-data", "--out", str(out), *WIDE_GEN,
                "--corrupt", "split", "--fraction", "0.5")
        return out

    @pytest.fixture()
    def regenerations(self, monkeypatch):
        """Every bundle gaitgen.regenerate_from_manifest returns, in call order."""
        made, regenerate = [], gaitgen.regenerate_from_manifest

        def counted(manifest):
            made.append(regenerate(manifest))
            return made[-1]

        monkeypatch.setattr(gaitgen, "regenerate_from_manifest", counted)
        return made

    def test_table_equals_the_per_cell_regeneration_oracle(self, data):
        bundle = load_bundle(str(data))
        base = ExperimentConfig(iterations=2)
        seeds = (1, 2)
        table = run_ablation(base, regenerate_from_manifest(bundle.manifest), seeds)
        assert table == reference.per_cell_ablation(base, bundle, seeds)

    @pytest.mark.parametrize("n_seeds", [1, 2])
    def test_one_regeneration_per_grid(self, data, tmp_path, regenerations, n_seeds):
        assert run_cli("ablate", "--data", str(data), "--out", str(tmp_path / "grid"),
                       "--seeds", str(n_seeds), "--iterations", "2") == 0
        assert len(regenerations) == 1

    def test_training_leaves_the_shared_bundle_as_regenerated(self, data):
        bundle = load_bundle(str(data))
        shared = regenerate_from_manifest(bundle.manifest)
        run_ablation(ExperimentConfig(iterations=2), shared, (1, 2))
        fresh = regenerate_from_manifest(bundle.manifest)
        for split in ("train", "test"):
            used, new = getattr(shared, split), getattr(fresh, split)
            assert len(used) == len(new)
            for a, b in zip(used, new):
                assert a.frames.dtype == b.frames.dtype and a.frames.shape == b.frames.shape
                assert a.frames.tobytes() == b.frames.tobytes()
                assert ((a.identity, a.condition, a.view, a.noise_flag)
                        == (b.identity, b.condition, b.view, b.noise_flag))

    def test_edited_train_frames_do_not_change_the_table(self, data, tmp_path):
        before, after = tmp_path / "before", tmp_path / "after"
        grid = ("--seeds", "1", "--iterations", "2")
        assert run_cli("ablate", "--data", str(data), "--out", str(before), *grid) == 0
        train_bin = data / "train.bin"
        blob = train_bin.read_bytes()
        header_end = blob.index(b"\n") + 1
        n_values = (len(blob) - header_end) // 8
        other = np.random.default_rng(0).normal(size=n_values).astype("<f8").tobytes()
        train_bin.write_bytes(blob[:header_end] + other)
        edited = load_bundle(str(data))
        assert edited.train[0].frames.tobytes() != regenerate_from_manifest(
            edited.manifest).train[0].frames.tobytes()
        assert run_cli("ablate", "--data", str(data), "--out", str(after), *grid) == 0
        assert (after / "ablation.csv").read_bytes() == (before / "ablation.csv").read_bytes()


class TestAblateOutput:
    """ablate checks its output before the grid trains a cell."""

    @pytest.fixture()
    def data(self, tmp_path):
        out = tmp_path / "data"
        run_cli("gen-data", "--out", str(out), *WIDE_GEN)
        return out

    @pytest.fixture()
    def no_grid(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(bench_cli, "run_ablation", refuse)

    @pytest.mark.usefixtures("no_grid")
    def test_existing_table_is_refused_without_force(self, data, tmp_path, capsys):
        out = tmp_path / "ablation"
        out.mkdir()
        (out / "ablation.csv").write_text("kept\n")
        capsys.readouterr()
        code = run_cli("ablate", "--data", str(data), "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and "--force" in err[0]
        assert os.listdir(out) == ["ablation.csv"]
        assert (out / "ablation.csv").read_text() == "kept\n"

    @pytest.mark.usefixtures("no_grid")
    def test_out_that_is_a_file_fails_before_the_grid(self, data, tmp_path, capsys):
        out = tmp_path / "ablation"
        out.write_text("kept\n")
        capsys.readouterr()
        code = run_cli("ablate", "--data", str(data), "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert out.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["ablation", "data"]

    def test_force_overwrites_the_table(self, data, tmp_path):
        out = tmp_path / "ablation"
        out.mkdir()
        (out / "ablation.csv").write_text("old\n")
        assert run_cli("ablate", "--data", str(data), "--out", str(out), "--force",
                       "--seeds", "1", "--iterations", "2") == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=") and len(lines) == 2 + len(ABLATION_CELLS)


class TestProvenance:
    """A run's hash names its config and its dataset, never the paths of either."""

    def test_different_data_at_one_path_gets_different_hashes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        digests = []
        for corruption in (("split", "--fraction", "0.6"), ("label", "--rate", "0.4")):
            for path in ("d", "r"):
                shutil.rmtree(path, ignore_errors=True)
            assert run_cli("gen-data", "--out", "d", *WIDE_GEN, "--corrupt", *corruption) == 0
            assert run_cli("train", "--data", "d", "--out", "r", "--iterations", "3") == 0
            digests.append(load_checkpoint("r/model_f.ckpt")[1]["config_hash"])
        assert digests[0] != digests[1]

    def test_one_dataset_at_two_paths_trains_identical_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli("gen-data", "--out", "d", *WIDE_GEN, "--corrupt", "split", "--fraction", "0.5")
        shutil.copytree("d", "x/d")
        for data, out in (("d", "r1"), ("x/d", "r2")):
            assert run_cli("train", "--data", data, "--out", out, "--iterations", "3",
                           "--trace", "--snapshot-every", "2") == 0
            assert run_cli("eval", "--checkpoint", f"{out}/model_f.ckpt", "--data", data) == 0
        for name in ("model_f_init.ckpt", "model_m_init.ckpt", "model_f.ckpt", "model_m.ckpt",
                     "metrics.jsonl", "trace.bin", "memorization.csv", "eval/rank1.csv",
                     "eval/rank1.json", "eval/variance.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        snapshots = [(tmp_path / run / "config.snapshot").read_text().splitlines()
                     for run in ("r1", "r2")]
        assert [(a, b) for a, b in zip(*snapshots) if a != b] == [
            ("data_dir = d", "data_dir = x/d"), ("out_dir = r1", "out_dir = r2")]
        # --config reads a snapshot, its hash comments included, as the same run
        assert run_cli("train", "--config", "r1/config.snapshot", "--out", "r3") == 0
        assert (tmp_path / "r3" / "metrics.jsonl").read_bytes() == (
            tmp_path / "r1" / "metrics.jsonl").read_bytes()

    def test_ablate_at_two_paths_writes_identical_tables(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli("gen-data", "--out", "d", *WIDE_GEN)
        shutil.copytree("d", "x/d")
        for data, out in (("d", "a1"), ("x/d", "a2")):
            assert run_cli("ablate", "--data", data, "--out", out,
                           "--seeds", "1", "--iterations", "2") == 0
        assert (tmp_path / "a1" / "ablation.csv").read_bytes() == (
            tmp_path / "a2" / "ablation.csv").read_bytes()

    def test_ablate_hash_covers_the_seeds(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli("gen-data", "--out", "d", *WIDE_GEN)
        tables = {}
        for seeds in (("1", "1"), ("2", "5"), ("2", "1"), ("1", "5")):
            out = f"a{'-'.join(seeds)}"
            assert run_cli("ablate", "--data", "d", "--out", out, "--seeds", seeds[0],
                           "--seed", seeds[1], "--iterations", "2") == 0
            tables[seeds] = (tmp_path / out / "ablation.csv").read_text().splitlines()
        # the first seed and the seed count each move the hash line
        hashes = {lines[0] for lines in tables.values()}
        assert len(hashes) == len(tables)
        assert tables[("1", "1")][1:] != tables[("2", "5")][1:]

    @pytest.mark.parametrize("split, commands", [
        ("train", [("train", "--data", "b", "--out", "out", "--iterations", "2")]),
        ("test", [("eval", "--checkpoint", "r/model_f.ckpt", "--data", "b", "--out", "out"),
                  ("ablate", "--data", "b", "--out", "out", "--seeds", "1",
                   "--iterations", "2")]),
    ])
    def test_split_file_of_another_dataset_is_refused(self, tmp_path, monkeypatch, capsys,
                                                      split, commands):
        # two datasets of one shape, and b holds a's copy of one split file,
        # which carries a's config_hash stamp, not b's
        monkeypatch.chdir(tmp_path)
        for data, seed in (("a", "1"), ("b", "2")):
            assert run_cli("gen-data", "--out", data, *TINY_GEN, "--ids", "12",
                           "--train-ids", "9", "--seed", seed) == 0
        assert run_cli("train", "--data", "a", "--out", "r", "--iterations", "2") == 0
        shutil.copyfile(f"a/{split}.bin", f"b/{split}.bin")
        for argv in commands:
            capsys.readouterr()
            assert run_cli(*argv) == 2, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), err
            assert os.path.join("b", f"{split}.bin") in err[0] and "another dataset" in err[0]
            assert sorted(os.listdir(tmp_path)) == ["a", "b", "r"]


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


class TestEnvironment:
    def test_out_root_variable_moves_no_output(self, tmp_path, monkeypatch):
        # an output-root variable in the environment changes nothing: every
        # command writes under its own relative --out
        root, work = tmp_path / "root", tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("CYCLEGAIT_OUT_ROOT", str(root))
        assert run_cli("gen-data", "--out", "data", *WIDE_GEN) == 0
        assert run_cli("train", "--data", "data", "--out", "run", "--iterations", "2") == 0
        assert run_cli("ablate", "--data", "data", "--out", "grid", "--seeds", "1",
                       "--iterations", "2") == 0
        assert not root.exists()
        for path in ("data/manifest.json", "run/model_f.ckpt", "grid/ablation.csv"):
            assert (work / path).is_file(), path
