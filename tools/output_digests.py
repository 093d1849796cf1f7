"""Run a fixed set of cyclegait commands against one source tree and print
the sha256 of every file they write, for byte-identity checks between trees.

    python tools/output_digests.py --src TREE/src --out DIR

Each command runs in its own process with PYTHONPATH=TREE/src and working
directory DIR. Every --data and --out path, and every data_dir and out_dir
of a config file, is relative, because config.snapshot records them as
given: only relative paths make two trees' snapshots equal. Each command's
stdout is kept as stdout/<step>.txt and hashed with the rest. The output
is one "sha256  path" line per file under DIR, sorted by path; run it once
per tree into two new directories and compare the two listings. Each
command has an expected exit code: train-diverge must abort with 1, after
writing its diagnostics.json, and every other command must succeed. The
exit code is non-zero if a command exits otherwise, and the set stops there.
"""

import argparse
import hashlib
import os
import subprocess
import sys

# config file -> text: the cyclic run's P x K = 4 x 2 batch, whose sieve
# opens after 5 iterations, a learning rate that diverges within 60
# iterations, before any milestone, a file that states its format version,
# and a run whose dataset and output directories only its file names
CONFIGS = {
    "cyclic.cfg": "[trainer]\np_ids = 4\nk_seqs = 2\nsieve_warmup = 5\n",
    "diverge.cfg": "[optimizer]\nlr = 1000000.0\nmilestones =\n",
    "meta.cfg": "[meta]\nformat_version = 1\n",
    "paths.cfg": ("[dataset]\ndata_dir = data/label-split\n[trainer]\niterations = 50\n"
                  "[output]\nout_dir = runs/from-config\n"),
}

# (step, command, expected exit code)
COMMANDS = (
    ("gen-clean", ["gen-data", "--out", "data/clean"], 0),
    ("gen-label", ["gen-data", "--out", "data/label", "--corrupt", "label"], 0),
    ("gen-label-2", ["gen-data", "--out", "data/label2", "--seed", "2", "--corrupt", "label",
                     "--rate", "0.45", "--corrupt-seed", "3"], 0),
    ("gen-split", ["gen-data", "--out", "data/split", "--corrupt", "split"], 0),
    ("corrupt-label", ["corrupt", "--data", "data/clean", "--out", "data/relabel",
                       "--mode", "label"], 0),
    ("corrupt-split", ["corrupt", "--data", "data/label", "--out", "data/label-split",
                       "--mode", "split"], 0),
    ("train-cyclic", ["train", "--config", "cyclic.cfg", "--data", "data/split",
                      "--out", "runs/cyclic", "--mode", "cyclic", "--and", "--trace",
                      "--iterations", "300"], 0),
    ("train-supervised", ["train", "--data", "data/label", "--out", "runs/supervised",
                          "--mode", "supervised", "--iterations", "200",
                          "--snapshot-every", "50"], 0),
    ("train-clean", ["train", "--config", "meta.cfg", "--data", "data/clean",
                     "--out", "runs/clean", "--mode", "supervised", "--schedule", "clean",
                     "--iterations", "100"], 0),
    ("train-selfsup", ["train", "--data", "data/clean", "--out", "runs/selfsup",
                       "--mode", "selfsup", "--trace", "--iterations", "100"], 0),
    ("train-from-config", ["train", "--config", "paths.cfg"], 0),
    ("train-coteach", ["train", "--data", "data/relabel", "--out", "runs/coteach",
                       "--mode", "coteach-baseline", "--iterations", "100"], 0),
    ("eval-cyclic", ["eval", "--checkpoint", "runs/cyclic/model_f.ckpt",
                     "--data", "data/split", "--out", "evals/cyclic"], 0),
    ("eval-supervised", ["eval", "--checkpoint", "runs/supervised/model_f.ckpt",
                         "--data", "data/label", "--out", "evals/supervised"], 0),
    ("eval-selfsup", ["eval", "--checkpoint", "runs/selfsup/model_f.ckpt",
                      "--data", "data/clean", "--out", "evals/selfsup"], 0),
    ("eval-coteach", ["eval", "--checkpoint", "runs/coteach/model_f.ckpt",
                      "--data", "data/relabel", "--out", "evals/coteach"], 0),
    ("verify-cyclic", ["verify-closed-form", "--run", "runs/cyclic"], 0),
    ("verify-selfsup", ["verify-closed-form", "--run", "runs/selfsup"], 0),
    ("train-diverge", ["train", "--config", "diverge.cfg", "--data", "data/split",
                       "--out", "runs/diverge", "--mode", "cyclic", "--and",
                       "--iterations", "60"], 1),
    ("ablate", ["ablate", "--data", "data/split", "--out", "ablation", "--seeds", "1",
                "--iterations", "20"], 0),
    ("ablate-label-split", ["ablate", "--data", "data/label-split", "--out",
                            "ablation-label-split", "--seeds", "1", "--iterations", "20"], 0),
)


def file_digests(root: str) -> list:
    """(relative path, sha256) of every file under root, sorted by path."""
    out = []
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out.append((os.path.relpath(path, root), digest))
    return sorted(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the tree's src directory")
    parser.add_argument("--out", required=True, help="a new or empty working directory")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "cyclegait", "bench_cli.py")):
        print(f"error: no cyclegait sources under {src}", file=sys.stderr)
        return 2
    if os.path.isdir(args.out) and os.listdir(args.out):
        print(f"error: {args.out} is not empty", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(args.out, "stdout"), exist_ok=True)
    for name, text in CONFIGS.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    env = dict(os.environ, PYTHONPATH=src)
    for step, command, expected in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "cyclegait.bench_cli", *command],
                              cwd=args.out, env=env, capture_output=True, text=True)
        with open(os.path.join(args.out, "stdout", f"{step}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(proc.stdout)
        if proc.returncode != expected:
            print(f"error: {step} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1

    for path, digest in file_digests(args.out):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
