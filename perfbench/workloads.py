"""The four benchmark workloads, run in-process through ``bench_cli.main``.

Each workload has a set-up step (``gen-data``, timed as setup_s) and a session
that the benchmark repeats for the measured time. A session runs the CLI
commands a user would type, checks their outputs and returns its timings.
Every command, grid cell, check and negative probe is one operation in the
Ledger; error_rate is the failed share of them.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import statistics
import time
import tracemalloc
import traceback
from dataclasses import dataclass

from cyclegait import bench_cli, gaugekit

import tracing

# Rank-1 over the 20 test identities must stay clear of chance (5 %); an
# untrained encoder scores 2.5-5 %, and across data seeds 11-22 the trained
# models here scored 8.6-25 %.
RANK1_FLOOR = 7.5
CLOSED_FORM_TOLERANCE = 1e-8
LOSS_KEYS = ("l_c", "l_ce", "l_tri", "l_mil", "l_crc")
_DEFAULTS = bench_cli.ExperimentConfig()
DEFAULT_BATCH = _DEFAULTS.p_ids * _DEFAULTS.k_seqs


class Ledger:
    """Operations attempted and failed, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class CommandResult:
    rc: int
    seconds: float
    out: str
    err: str


def run_cli(argv) -> CommandResult:
    """One ``cyclegait`` command in this process, timed, output captured."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = bench_cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed operation, reported below
        err.write(traceback.format_exc())
        rc = -1
    return CommandResult(rc, time.perf_counter() - t0, out.getvalue(), err.getvalue())


def command(ledger: Ledger, argv) -> CommandResult:
    res = run_cli(argv)
    ledger.check(f"cyclegait {argv[0]}", res.rc == 0,
                 f"exit {res.rc}: {res.err.strip()[-400:]}")
    return res


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class SessionFailed(RuntimeError):
    """A command of the session failed, so its timings are not usable."""


class Workload:
    """Base: gen-data set-up plus a repeated session of CLI commands."""

    name = ""
    why = ""
    gen_args: tuple = ()
    iterations = 0
    # traced-run expectations, checked so a wrapper bound to the wrong name
    # cannot silently read zero
    train_forwards_per_iter = None
    replays_per_session = 0
    expect_zero: tuple = ()
    expect_active: tuple = ()

    def __init__(self, work_dir: str, seed: int, ledger: Ledger):
        self.work = work_dir
        self.seed = seed
        self.ledger = ledger
        self.data = None

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def fresh(self, name: str) -> str:
        path = self.path(name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def settle(self):
        """Flush what the last step wrote, so its write-back does not run
        during the next timed command."""
        for dirpath, _, filenames in os.walk(self.work):
            for name in filenames:
                fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    def run(self, argv) -> CommandResult:
        res = command(self.ledger, argv)
        if res.rc != 0:
            raise SessionFailed(f"cyclegait {argv[0]} exited {res.rc}")
        return res

    def gen_data(self, dest: str) -> float:
        res = self.run(["gen-data", "--out", dest, "--seed", str(self.seed), *self.gen_args])
        return res.seconds

    def write_config(self, name: str, trainer: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[trainer]\n")
            for key, value in trainer.items():
                fh.write(f"{key} = {value}\n")
        return path

    def session(self, tracer) -> dict:
        raise NotImplementedError

    def finish(self) -> dict:
        """Work after the measured sessions; returns extra report values."""
        return {}

    # -- shared checks ---------------------------------------------------

    def check_training(self, run_dir: str, res: CommandResult, per_iter: int) -> float:
        """Finite losses and the live forward counter; returns the final l_crc."""
        with open(os.path.join(run_dir, "metrics.jsonl"), encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh][1:]
        bad = [(row["iter"], k) for row in rows for k in LOSS_KEYS
               if row.get(k) is None or not math.isfinite(row[k])]
        self.ledger.check("every loss is finite", not bad and len(rows) == self.iterations,
                          f"{len(rows)} rows, non-finite at {bad[:3]}")
        match = re.search(r"\((\d+) forwards\)", res.out)
        live = int(match.group(1)) if match else -1
        self.ledger.check("live forward counter matches the cost model",
                          live == per_iter * self.iterations,
                          f"{live} forwards, expected {per_iter} x {self.iterations}")
        return rows[-1]["l_crc"] if rows else float("nan")

    def check_rank1(self, eval_dir: str) -> tuple:
        with open(os.path.join(eval_dir, "rank1.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        overall = report["overall_mean"]
        cl = report["condition_means"].get("CL", float("nan"))
        self.ledger.check("rank-1 overall above the floor", overall > RANK1_FLOOR,
                          f"{overall:.2f} <= {RANK1_FLOOR}")
        return overall, cl

    def train_and_eval(self, train_args, per_iter: int) -> dict:
        run_dir = self.fresh("run")
        train = self.run(["train", "--data", self.data, "--out", run_dir,
                          "--iterations", str(self.iterations), "--seed", str(self.seed),
                          *train_args])
        loss = self.check_training(run_dir, train, per_iter)
        ckpt = os.path.join(run_dir, "model_f.ckpt")
        ev = self.run(["eval", "--checkpoint", ckpt, "--data", self.data])
        overall, cl = self.check_rank1(os.path.join(run_dir, "eval"))
        return {
            "train_ms_per_iter": 1000.0 * train.seconds / self.iterations,
            "eval_s": ev.seconds,
            "wall_s": train.seconds + ev.seconds,
            "fingerprint": {"final_l_crc": loss, "rank1_overall": overall,
                            "rank1_cl": cl, "model_f_sha256": sha256_file(ckpt)},
        }


class CyclicSplit(Workload):
    name = "cyclic-split"
    why = ("paper headline: cyclic training with the sieve on clothing-split noise; "
           "every training layer does work")
    gen_args = ("--corrupt", "split", "--fraction", "0.6")
    iterations = 200
    train_forwards_per_iter = 2
    expect_active = (
        "cyclic.sampler", "cyclic.iteration", "cyclic.run_training", "gaitgen.augment",
        "gaitgen.load", "numkit.rng", "setnet.forward.train", "setnet.forward.eval",
        "setnet.backward", "setnet.optimizer", "setnet.ema", "setnet.hash",
        "setnet.checkpoint", "lossbank.consistency", "lossbank.ce", "lossbank.triplet",
        "lossbank.mil", "sieve.score", "sieve.mask", "gaugekit.embed", "gaugekit.rank1",
        "gaugekit.variance", "gaugekit.memcurve", "bench_cli.train",
    )

    def session(self, tracer) -> dict:
        return self.train_and_eval(
            ["--mode", "cyclic", "--and", "--snapshot-every", str(self.iterations // 2)],
            per_iter=2 * DEFAULT_BATCH,
        )


class CoteachLabel(Workload):
    name = "coteach-label"
    why = ("small-loss co-teaching baseline on random label noise; bypasses "
           "augmentation, sieve, EMA, hash, consistency and MIL")
    gen_args = ("--corrupt", "label", "--rate", "0.2")
    iterations = 400
    prior = 0.2
    train_forwards_per_iter = 4
    expect_zero = ("gaitgen.augment", "sieve.score", "sieve.mask", "setnet.ema",
                   "setnet.hash", "lossbank.consistency", "lossbank.mil")
    expect_active = (
        "cyclic.sampler", "cyclic.iteration", "cyclic.run_training", "gaitgen.load",
        "setnet.forward.train", "setnet.forward.eval", "setnet.backward",
        "setnet.optimizer", "setnet.checkpoint", "lossbank.ce", "lossbank.triplet",
        "gaugekit.embed", "gaugekit.rank1", "bench_cli.train",
    )

    def session(self, tracer) -> dict:
        b = DEFAULT_BATCH
        per_iter = 2 * b + 2 * math.ceil((1.0 - self.prior) * b)
        priced, _, _ = gaugekit.cost_model(b, self.prior)
        self.ledger.check("co-teaching counter is 2N(2 - sigma) up to the ceiling",
                          priced <= per_iter < priced + 2, f"{per_iter} vs {priced}")
        config = self.write_config("coteach.ini", {"coteach_noise_rate": self.prior})
        return self.train_and_eval(
            ["--config", config, "--mode", "coteach-baseline"], per_iter=per_iter
        )


class TraceVerify(Workload):
    name = "trace-verify"
    why = ("small P x K batch with a streamed trace, then closed-form verification: "
           "parameter-sized work and trace I/O dominate")
    gen_args = ("--corrupt", "split", "--fraction", "0.6")
    iterations = 500
    p_ids, k_seqs = 4, 2
    probe_iterations = 8
    # one verification is short and allocation-bound, so each session takes
    # the median of five
    verify_repeats = 5
    train_forwards_per_iter = 2
    # verify_trace_file replays the recurrence twice per verification
    replays_per_session = 2 * verify_repeats
    expect_active = (
        "cyclic.sampler", "cyclic.iteration", "cyclic.trace_write", "gaitgen.augment",
        "numkit.rng", "setnet.forward.train", "setnet.backward", "setnet.ema",
        "setnet.hash", "setnet.checkpoint", "sieve.score", "sieve.mask",
        "gaugekit.read_trace", "gaugekit.replay", "gaugekit.closed_form",
    )

    def train_args(self, run_dir, iterations):
        config = self.write_config("small.ini", {"p_ids": self.p_ids, "k_seqs": self.k_seqs})
        return ["train", "--config", config, "--data", self.data, "--out", run_dir,
                "--mode", "cyclic", "--and", "--trace", "--iterations", str(iterations),
                "--seed", str(self.seed)]

    def check_verify(self, res: CommandResult) -> float:
        match = re.search(r"max relative deviation: (\S+)", res.out)
        deviation = float(match.group(1)) if match else float("inf")
        lines = res.out.strip().splitlines()
        ok = (lines[-1:] == ["PASS"] and deviation <= CLOSED_FORM_TOLERANCE
              and "endpoint_f_matches: True" in lines and "endpoint_m_matches: True" in lines)
        self.ledger.check("verify-closed-form passes with bit-equal endpoints", ok,
                          res.out.strip()[-300:])
        return deviation

    def session(self, tracer) -> dict:
        run_dir = self.fresh("run")
        train = self.run(self.train_args(run_dir, self.iterations))
        loss = self.check_training(run_dir, train, 2 * self.p_ids * self.k_seqs)
        verify_times = []
        for _ in range(self.verify_repeats):
            verify = self.run(["verify-closed-form", "--run", run_dir])
            deviation = self.check_verify(verify)
            verify_times.append(verify.seconds)
        verify_s = statistics.median(verify_times)
        return {
            "train_ms_per_iter": 1000.0 * train.seconds / self.iterations,
            "eval_s": verify_s,
            "verify_s": verify_s,
            "wall_s": train.seconds + sum(verify_times),
            "fingerprint": {
                "final_l_crc": loss, "max_relative_deviation": deviation,
                "model_f_sha256": sha256_file(os.path.join(run_dir, "model_f.ckpt")),
            },
        }

    def finish(self) -> dict:
        """Peak memory of one separate, untimed verification of the last
        trace, then the negative probes."""
        tracemalloc.start()
        try:
            res = command(self.ledger, ["verify-closed-form", "--run", self.path("run")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        self.check_verify(res)
        self.probe_broken_traces()
        return {"verify_peak_mb": peak / 2**20}

    def probe_broken_traces(self):
        """Three broken short traces must each fail, naming the bad iteration."""
        base = self.fresh("probe")
        if command(self.ledger, self.train_args(base, self.probe_iterations)).rc != 0:
            return
        with open(os.path.join(base, "trace.bin"), "rb") as fh:
            header = fh.readline()
            body = bytearray(fh.read())
        record = 8 + 16 * json.loads(header)["n_params"]

        def truncated(blob):  # record 6 cut in half
            return blob[: 5 * record + record // 2]

        def out_of_sequence(blob):  # record 3 claims iteration 7
            blob[2 * record : 2 * record + 8] = (7).to_bytes(8, "little")
            return blob

        def non_finite(blob):  # first delta of record 5 is NaN
            blob[4 * record + 8 : 4 * record + 16] = b"\x00" * 6 + b"\xf8\x7f"
            return blob

        for label, mutate, iteration in (("truncated", truncated, 6),
                                         ("out-of-sequence", out_of_sequence, 3),
                                         ("non-finite", non_finite, 5)):
            probe_dir = self.fresh(f"probe-{label}")
            shutil.copytree(base, probe_dir)
            with open(os.path.join(probe_dir, "trace.bin"), "wb") as fh:
                fh.write(header + bytes(mutate(bytearray(body))))
            res = run_cli(["verify-closed-form", "--run", probe_dir])
            named = re.search(rf"\b{iteration}\b", res.err) is not None
            self.ledger.check(f"{label} trace is rejected naming iteration {iteration}",
                              res.rc != 0 and named, f"exit {res.rc}: {res.err.strip()}")


class AblationGrid(Workload):
    name = "ablation-grid"
    why = ("serial 8-cell ablation grid: grid orchestration, per-cell dataset "
           "regeneration, supervised and selfsup modes")
    gen_args = ("--corrupt", "split", "--fraction", "0.6")
    iterations = 20  # per cell
    expect_active = (
        "bench_cli.cell", "gaitgen.regenerate", "gaitgen.load", "cyclic.run_training",
        "gaugekit.evaluate", "setnet.forward.train", "setnet.forward.eval",
        "gaugekit.embed", "gaugekit.rank1",
    )

    def session(self, tracer) -> dict:
        out = self.fresh("grid")
        timer = tracer
        if timer is None:
            timer = tracing.Tracer()
            tracing.install_cell_timer(timer)
        before = len(timer.samples.get("gaugekit.evaluate", ()))
        try:
            grid = self.run(["ablate", "--data", self.data, "--out", out, "--seeds", "1",
                             "--seed", str(self.seed), "--iterations", str(self.iterations)])
        finally:
            if tracer is None:
                timer.close()
        cell_evals = [ns * 1e-9 for ns in timer.samples["gaugekit.evaluate"][before:]]
        csv_path = os.path.join(out, "ablation.csv")
        with open(csv_path, encoding="utf-8") as fh:
            rows = {row["cell"]: row for row in csv.DictReader(
                line for line in fh if not line.startswith("#"))}
        for cell, _ in bench_cli.ABLATION_CELLS:
            row = rows.get(cell)
            finite = row is not None and all(
                math.isfinite(float(v)) for k, v in row.items() if k != "cell")
            self.ledger.check(f"grid cell {cell} present and finite", finite, str(row))
        n_cells = len(bench_cli.ABLATION_CELLS)
        full = rows.get("full", {})
        train_s = grid.seconds - sum(cell_evals)
        return {
            "train_ms_per_iter": 1000.0 * train_s / (n_cells * self.iterations),
            # one evaluation is short, so a slow cell would swing a plain sum
            "eval_s": n_cells * statistics.median(cell_evals),
            "grid_s": grid.seconds,
            "wall_s": grid.seconds,
            "fingerprint": {
                "full_overall_mean": full.get("overall_mean"),
                "full_cl_mean": full.get("cl_mean"),
                "ablation_csv_sha256": sha256_file(csv_path),
            },
        }


WORKLOADS = {w.name: w for w in (CyclicSplit, CoteachLabel, TraceVerify, AblationGrid)}
