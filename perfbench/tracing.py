"""Per-layer tracing from outside the program.

A Tracer replaces module attributes with timing wrappers and puts the
originals back on close. Modules import functions by name, so each wrapper is
bound to the name the caller looks up (``cyclic.forward_batch`` and
``gaugekit.forward_batch``, not ``setnet.forward_batch``). Every wrapper
records a call count and busy time under a layer key; nested wrapped calls
give each span its self time and its time per child layer.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import numpy as np


class Span:
    __slots__ = ("child_ns", "by_child")

    def __init__(self):
        self.child_ns = 0
        self.by_child = {}  # child layer key -> ns


class Tracer:
    """Call counts, busy and self time per layer key, plus named counters."""

    def __init__(self):
        self.calls = Counter()
        self.busy_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()  # work counters filled by the on_call hooks
        self.samples = {}  # key -> per-call durations in ns
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, key, on_call=None, on_exit=None, keep_samples=False):
        """Replace owner.attr with a wrapper that records under ``key``.

        on_call(tracer, args, result) counts work; on_exit(tracer, span, dt)
        sees the finished span, for metrics defined by a layer's children.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = Span()
            stack.append(span)
            t0 = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent.child_ns += dt
                    parent.by_child[key] = parent.by_child.get(key, 0) + dt
                self.calls[key] += 1
                self.busy_ns[key] += dt
                self.self_ns[key] += dt - span.child_ns
                if keep_samples:
                    self.samples.setdefault(key, []).append(dt)
                if on_exit is not None:
                    on_exit(self, span, dt)
            if on_call is not None:
                on_call(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def close(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# the layer map: which names are wrapped, under which key


def _count_frames(tracer, args, result):
    frame_sets = args[0]
    tracer.counts["forward_seqs"] += len(frame_sets)
    tracer.counts["forward_frames"] += sum(f.shape[0] for f in frame_sets)


def _count_augment(tracer, args, result):
    tracer.counts["frames_in"] += sum(f.shape[0] for f in args[0])
    tracer.counts["frames_kept"] += sum(f.shape[0] for f in result[0])


def _count_trace_write(tracer, args, result):
    _, _, delta_f, delta_m = args
    tracer.counts["trace_bytes"] += 8 + 8 * (np.size(delta_f) + np.size(delta_m))


def _count_trace_read(tracer, args, result):
    tracer.counts["trace_bytes_read"] += os.path.getsize(args[0])


def _count_saved(tracer, args, result):
    outdir = args[1]
    tracer.counts["dataset_bytes"] += sum(
        os.path.getsize(os.path.join(outdir, name)) for name in os.listdir(outdir)
    )


def _count_detection(tracer, args, result):
    mask = np.asarray(args[0], dtype=bool)
    noisy = np.array([flag != "clean" for flag in args[1]], dtype=bool)
    tracer.counts["sieve_seen"] += mask.size
    tracer.counts["sieve_masked"] += int((~mask).sum())
    tracer.counts["sieve_masked_noisy"] += int((~mask & noisy).sum())


def _train_overhead(tracer, span, dt):
    tracer.counts["train_overhead_ns"] += dt - span.by_child.get("cyclic.run_training", 0)


def _cell_split(tracer, span, dt):
    tracer.counts["cell_train_ns"] += span.by_child.get("cyclic.run_training", 0)
    tracer.counts["cell_eval_ns"] += span.by_child.get("gaugekit.evaluate", 0)


RNG_DRAWS = ("uniform", "normal", "integers", "permutation", "choice", "key_pair")


def install_layers(tracer):
    """Wrap the public functions of every module at the names callers use."""
    from cyclegait import bench_cli, cyclic, gaitgen, gaugekit, numkit, setnet

    w = tracer.wrap
    # trainer
    w(cyclic, "pxk_sampler", "cyclic.sampler")
    w(cyclic, "train_iteration", "cyclic.iteration", keep_samples=True)
    w(bench_cli, "run_training", "cyclic.run_training")
    w(cyclic.TraceWriter, "write", "cyclic.trace_write", on_call=_count_trace_write)
    w(cyclic, "read_trace", "gaugekit.read_trace", on_call=_count_trace_read)
    # generator, augmentation, persistence
    w(cyclic, "augment_frame_sets", "gaitgen.augment", on_call=_count_augment)
    w(gaitgen, "make_benchmark", "gaitgen.generate")
    w(gaitgen, "corrupt_bundle", "gaitgen.generate")
    w(gaitgen, "save_bundle", "gaitgen.save", on_call=_count_saved)
    w(gaitgen, "load_bundle", "gaitgen.load")
    w(gaitgen, "regenerate_from_manifest", "gaitgen.regenerate")
    for name in RNG_DRAWS:
        w(numkit.RngStream, name, "numkit.rng")
    # encoder
    w(cyclic, "forward_batch", "setnet.forward.train", on_call=_count_frames)
    w(gaugekit, "forward_batch", "setnet.forward.eval", on_call=_count_frames)
    w(cyclic, "backward_batch", "setnet.backward")
    w(cyclic, "optimizer_step", "setnet.optimizer")
    w(cyclic, "ema_transfer", "setnet.ema")
    w(setnet.ParamVector, "sha256", "setnet.hash")
    w(bench_cli, "save_checkpoint", "setnet.checkpoint")
    w(bench_cli, "load_checkpoint", "setnet.checkpoint")
    # losses
    w(cyclic, "batch_coteach", "lossbank.consistency")
    w(cyclic, "batch_ce", "lossbank.ce")
    w(cyclic, "triplet_loss", "lossbank.triplet")
    w(cyclic, "batch_mil_loss", "lossbank.mil")
    # sieve
    w(cyclic, "score_arrays", "sieve.score")
    w(cyclic, "adapt_mask", "sieve.mask")
    w(cyclic, "detection_stats", "sieve.detection", on_call=_count_detection)
    # analysis kit
    w(gaugekit, "embed_samples", "gaugekit.embed")
    w(gaugekit, "rank1", "gaugekit.rank1")
    w(gaugekit, "variance_stats", "gaugekit.variance")
    w(gaugekit, "memorization_curve", "gaugekit.memcurve")
    w(gaugekit, "replay_recurrence", "gaugekit.replay")
    w(gaugekit, "closed_form_theta_m", "gaugekit.closed_form")
    w(gaugekit, "evaluate_checkpoint", "gaugekit.evaluate", keep_samples=True)
    # CLI orchestration
    w(bench_cli, "cmd_train", "bench_cli.train", on_exit=_train_overhead)
    w(bench_cli, "_ablation_cell_job", "bench_cli.cell", on_exit=_cell_split)


def install_cell_timer(tracer):
    """The one timer untraced ablation sessions need: per-cell evaluation."""
    from cyclegait import gaugekit

    tracer.wrap(gaugekit, "evaluate_checkpoint", "gaugekit.evaluate", keep_samples=True)


# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, value from the tracer)

_MS = 1e-6


def _ms(*keys):
    return lambda t: sum(t.busy_ns[k] for k in keys) * _MS


def _calls(*keys):
    return lambda t: sum(t.calls[k] for k in keys)


def _count(key, scale=1.0):
    return lambda t: t.counts[key] * scale


def _ratio(num, den):
    return lambda t: t.counts[num] / t.counts[den] if t.counts[den] else 0.0


def _percentile(q):
    def value(t):
        samples = t.samples.get("cyclic.iteration")
        return float(np.percentile(samples, q)) * _MS if samples else 0.0
    return value


FORWARD = ("setnet.forward.train", "setnet.forward.eval")

# Values are totals per traced session, except the iteration percentiles
# (over all traced iterations) and the setup layers (per traced gen-data).
PER_SESSION = {
    "cyclic.sampler_calls": ("count", _calls("cyclic.sampler")),
    "cyclic.sampler_ms": ("ms", _ms("cyclic.sampler")),
    "cyclic.iteration_ms": ("ms", _ms("cyclic.iteration")),
    "cyclic.iteration_self_ms": ("ms", lambda t: t.self_ns["cyclic.iteration"] * _MS),
    "cyclic.run_training_ms": ("ms", _ms("cyclic.run_training")),
    "cyclic.trace_write_ms": ("ms", _ms("cyclic.trace_write")),
    "cyclic.trace_bytes": ("bytes", _count("trace_bytes")),
    "gaitgen.augment_calls": ("count", _calls("gaitgen.augment")),
    "gaitgen.augment_ms": ("ms", _ms("gaitgen.augment")),
    "gaitgen.frames_in": ("count", _count("frames_in")),
    "gaitgen.frames_kept": ("count", _count("frames_kept")),
    "gaitgen.load_ms": ("ms", _ms("gaitgen.load")),
    "gaitgen.regenerate_calls": ("count", _calls("gaitgen.regenerate")),
    "gaitgen.regenerate_ms": ("ms", _ms("gaitgen.regenerate")),
    "numkit.rng_calls": ("count", _calls("numkit.rng")),
    "numkit.rng_ms": ("ms", _ms("numkit.rng")),
    "setnet.forward_calls": ("count", _calls(*FORWARD)),
    "setnet.forward_ms": ("ms", _ms(*FORWARD)),
    "setnet.forward_seqs": ("count", _count("forward_seqs")),
    "setnet.forward_frames": ("count", _count("forward_frames")),
    "setnet.backward_calls": ("count", _calls("setnet.backward")),
    "setnet.backward_ms": ("ms", _ms("setnet.backward")),
    "setnet.optimizer_ms": ("ms", _ms("setnet.optimizer")),
    "setnet.ema_calls": ("count", _calls("setnet.ema")),
    "setnet.ema_ms": ("ms", _ms("setnet.ema")),
    "setnet.hash_calls": ("count", _calls("setnet.hash")),
    "setnet.hash_ms": ("ms", _ms("setnet.hash")),
    "setnet.checkpoint_ms": ("ms", _ms("setnet.checkpoint")),
    "lossbank.consistency_calls": ("count", _calls("lossbank.consistency")),
    "lossbank.consistency_ms": ("ms", _ms("lossbank.consistency")),
    "lossbank.ce_calls": ("count", _calls("lossbank.ce")),
    "lossbank.ce_ms": ("ms", _ms("lossbank.ce")),
    "lossbank.triplet_calls": ("count", _calls("lossbank.triplet")),
    "lossbank.triplet_ms": ("ms", _ms("lossbank.triplet")),
    "lossbank.mil_calls": ("count", _calls("lossbank.mil")),
    "lossbank.mil_ms": ("ms", _ms("lossbank.mil")),
    "sieve.score_ms": ("ms", _ms("sieve.score")),
    "sieve.mask_calls": ("count", _calls("sieve.mask")),
    "sieve.mask_ms": ("ms", _ms("sieve.mask")),
    "sieve.masked_frac": ("ratio", _ratio("sieve_masked", "sieve_seen")),
    "sieve.masked_precision": ("ratio", _ratio("sieve_masked_noisy", "sieve_masked")),
    "gaugekit.embed_ms": ("ms", _ms("gaugekit.embed")),
    "gaugekit.rank1_ms": ("ms", _ms("gaugekit.rank1")),
    "gaugekit.variance_ms": ("ms", _ms("gaugekit.variance")),
    "gaugekit.memcurve_ms": ("ms", _ms("gaugekit.memcurve")),
    "gaugekit.read_trace_ms": ("ms", _ms("gaugekit.read_trace")),
    "gaugekit.trace_bytes_read": ("bytes", _count("trace_bytes_read")),
    "gaugekit.replay_calls": ("count", _calls("gaugekit.replay")),
    "gaugekit.replay_ms": ("ms", _ms("gaugekit.replay")),
    "gaugekit.closed_form_ms": ("ms", _ms("gaugekit.closed_form")),
    "bench_cli.train_overhead_ms": ("ms", _count("train_overhead_ns", _MS)),
    "bench_cli.grid_cells": ("count", _calls("bench_cli.cell")),
    "bench_cli.cell_train_ms": ("ms", _count("cell_train_ns", _MS)),
    "bench_cli.cell_eval_ms": ("ms", _count("cell_eval_ns", _MS)),
}

RATIOS = {"sieve.masked_frac", "sieve.masked_precision"}

OVER_ALL_ITERATIONS = {
    "cyclic.iter_p50_ms": ("ms", _percentile(50)),
    "cyclic.iter_p99_ms": ("ms", _percentile(99)),
    "cyclic.iter_samples": ("count", lambda t: len(t.samples.get("cyclic.iteration", ()))),
}

PER_SETUP = {
    "gaitgen.generate_ms": ("ms", _ms("gaitgen.generate")),
    "gaitgen.save_ms": ("ms", _ms("gaitgen.save")),
    "gaitgen.dataset_bytes": ("bytes", _count("dataset_bytes")),
}


def layer_metrics(session_tracer, n_sessions, setup_tracer, n_setups):
    """Every per-layer metric as {name: (value, unit)}."""
    out = {}
    for name, (unit, fn) in PER_SESSION.items():
        value = fn(session_tracer)
        out[name] = (value if name in RATIOS else value / n_sessions, unit)
    for name, (unit, fn) in OVER_ALL_ITERATIONS.items():
        out[name] = (fn(session_tracer), unit)
    for name, (unit, fn) in PER_SETUP.items():
        out[name] = (fn(setup_tracer) / n_setups, unit)
    return out
