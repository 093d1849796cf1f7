"""Training loops: cyclic two-network training plus comparison modes.

One cyclic iteration, in order:
  1. EMA transfer into the memorizing network M from the forgetting network F
  2. independent augmentation draw per network per sample
  3. forward both networks
  4. consistency loss between M's and F's predictions (all samples)
  5. CE / triplet / contrastive losses on F's outputs, restricted to the
     samples kept by the noise sieve when it is enabled
  6. weighted combination via the coefficient schedule
  7. F steps on the full combined gradient; M steps on the consistency term
     only, so it never receives label-dependent gradient

Comparison modes: "supervised" (single network, CE + triplet),
"selfsup" (consistency only, labels unused) and "coteach-baseline"
(classic small-loss sample exchange, which unlike the cyclic scheme needs
the noise rate as prior knowledge).

Every run is a pure function of (dataset, config): sampling, initialization
and augmentation draws all come from substreams of config.seed.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .gaitgen import AUGMENTATIONS, DatasetBundle, augment_frame_sets
from .lossbank import (
    CoeffSchedule,
    LossBreakdown,
    Ramp,
    batch_ce,
    batch_coteach,
    batch_mil_loss,
    crc_combine,
    has_valid_triplet,
    log_softmax_rows,
    triplet_loss,
)
from .numkit import RngStream
from .setnet import (
    EncoderShape,
    GradVector,
    ModelParams,
    OptimizerConfig,
    OptimizerState,
    backward_batch,
    ema_transfer,
    forward_batch,
    init_params,
    optimizer_step,
)
from .sieve import SieveState, adapt_mask, detection_stats, score_arrays

TRACE_FORMAT_VERSION = 1

MODES = ("cyclic", "supervised", "selfsup", "coteach-baseline")


class NonFiniteLossError(RuntimeError):
    """Training hit a non-finite loss; carries a diagnostic dump."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class TrainerConfig:
    mode: str = "cyclic"
    iterations: int = 2000
    p_ids: int = 8
    k_seqs: int = 4
    momentum: float = 0.99
    ema_enabled: bool = True
    and_enabled: bool = False
    detach_teacher: bool = False
    augmentation: str = "default"
    seed: int = 1
    schedule_profile: str = "noisy"  # "noisy" or "clean"
    triplet_margin: float = 0.2
    mil_temperature: float = 0.2
    d_hidden: int = 64
    d_emb: int = 32
    record_trace: bool = False
    snapshot_every: int = 0
    coteach_noise_rate: float = 0.2  # prior required by the baseline only
    sieve_beta: float = 0.9
    sieve_warmup: int = 200
    sieve_scale: float = 1.5
    sieve_entropy_scale: float = 1.0
    sieve_keep_floor: float = 0.5
    schedule_ramp_fraction: float = 0.5
    # pin a coefficient to a constant, overriding profile and mode (None = off)
    sigma0_const: float | None = None
    sigma1_const: float | None = None
    sigma2_const: float | None = None
    sigma3_const: float | None = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.p_ids < 2 or self.k_seqs < 2:
            raise ValueError("batch shape needs P >= 2 and K >= 2")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("EMA ratio must lie in [0, 1]")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.augmentation not in AUGMENTATIONS:
            raise ValueError(f"unknown augmentation spec {self.augmentation!r}")
        if self.schedule_profile not in ("noisy", "clean"):
            raise ValueError(f"unknown schedule profile {self.schedule_profile!r}")
        if self.and_enabled and self.mode != "cyclic":
            raise ValueError("the noise sieve needs the two-network cyclic mode")
        if self.record_trace and self.mode not in ("cyclic", "selfsup"):
            raise ValueError("update traces require a two-network EMA-capable mode")
        if self.mode == "coteach-baseline" and not 0.0 <= self.coteach_noise_rate < 1.0:
            raise ValueError("coteach baseline noise rate must lie in [0, 1)")
        if not 0.0 < self.sieve_beta < 1.0:
            raise ValueError("sieve_beta (smoothing factor) must lie in (0, 1)")
        if self.sieve_warmup < 0:
            raise ValueError("sieve_warmup must be >= 0")
        if not 0.0 < self.sieve_keep_floor <= 1.0:
            raise ValueError("sieve_keep_floor must lie in (0, 1]")

    @property
    def batch_size(self) -> int:
        return self.p_ids * self.k_seqs


def build_schedule(config: TrainerConfig) -> CoeffSchedule:
    """Coefficient schedule for a mode; inactive losses get weight zero."""
    if config.schedule_profile == "clean":
        base = CoeffSchedule.clean_default()
    else:
        base = CoeffSchedule.noisy_default(config.iterations, config.schedule_ramp_fraction)
    zero = Ramp.constant(0.0)
    if config.mode == "supervised":
        base = replace(base, sigma0=zero, sigma3=zero)
    elif config.mode == "selfsup":
        base = replace(base, sigma1=zero, sigma2=zero, sigma3=zero)
    elif config.mode == "coteach-baseline":
        base = replace(base, sigma0=zero, sigma3=zero)
    overrides = {
        f"sigma{i}": Ramp.constant(v)
        for i, v in enumerate(
            (config.sigma0_const, config.sigma1_const, config.sigma2_const, config.sigma3_const)
        )
        if v is not None
    }
    return replace(base, **overrides) if overrides else base


@dataclass
class TraceRecord:
    """Applied updates for one iteration, enough to replay the run."""

    delta_f: np.ndarray
    delta_m: np.ndarray | None
    pre_ema_m_hash: str | None


@dataclass
class TrainState:
    """Everything that evolves across iterations; single-writer only."""

    params_f: ModelParams
    params_m: ModelParams | None
    opt_f: OptimizerState
    opt_m: OptimizerState | None
    sieve: SieveState
    rng_sampler: RngStream
    rng_aug_f: RngStream
    rng_aug_m: RngStream
    forward_count: int = 0


def group_by_identity(samples) -> dict:
    groups: dict = {}
    for s in samples:
        groups.setdefault(s.identity, []).append(s)
    return groups


def pxk_sampler(dataset, p_ids: int, k_seqs: int, rng: RngStream):
    """Sample P identities, then K sequences each (with replacement only when
    an identity has fewer than K). Returns (batch, advanced rng)."""
    groups = dataset if isinstance(dataset, dict) else group_by_identity(dataset)
    ids = sorted(groups)
    if len(ids) < p_ids:
        raise ValueError(f"need at least {p_ids} identities, dataset has {len(ids)}")
    chosen, rng = rng.choice(len(ids), p_ids, replace_=False)
    batch = []
    for idx in chosen.tolist():
        seqs = groups[ids[idx]]
        if len(seqs) >= k_seqs:
            sel, rng = rng.choice(len(seqs), k_seqs, replace_=False)
        else:
            sel, rng = rng.integers(k_seqs, 0, len(seqs))
        batch.extend(seqs[int(j)] for j in sel.tolist())
    return batch, rng


def _augment_batch(batch, spec_name: str, rng: RngStream):
    spec = AUGMENTATIONS[spec_name]
    return augment_frame_sets([s.frames for s in batch], spec, rng)


def _normalize_rows_with_grad_chain(z: np.ndarray):
    """Row-normalize; returns (normalized, chain) where chain maps gradients
    wrt the normalized rows back to gradients wrt the raw rows."""
    norms = np.linalg.norm(z, axis=1)
    safe = np.maximum(norms, 1e-12)
    zn = z / safe[:, None]
    zn[norms < 1e-12] = 0.0

    def chain(g_norm: np.ndarray) -> np.ndarray:
        inner = np.sum(zn * g_norm, axis=1, keepdims=True)
        g = (g_norm - inner * zn) / safe[:, None]
        g[norms < 1e-12] = 0.0
        return g

    return zn, chain


def _loss_diagnostics(batch, breakdown: LossBreakdown, iteration: int) -> dict:
    return {
        "iteration": iteration,
        "losses": breakdown.as_dict(),
        "batch_identities": [int(s.identity) for s in batch],
        "batch_conditions": [s.condition for s in batch],
        "batch_views": [int(s.view) for s in batch],
        "batch_noise_flags": [s.noise_flag for s in batch],
    }


class StepProposal(NamedTuple):
    """One mode's step: its losses and the networks it proposes to commit."""

    losses: tuple  # (l_c, l_ce, l_tri, l_mil)
    nets: tuple  # (params_f, opt_f, params_m, opt_m)
    record: TraceRecord
    kept_fraction: float
    forwards: int
    extra: dict  # mode-specific metrics


def train_iteration(batch, state: TrainState, config: TrainerConfig,
                    schedule: CoeffSchedule, k: int):
    """Run iteration k (1-based) in place; returns (breakdown, TraceRecord, metrics).

    The mode's step proposes new networks; they replace the ones in state
    only once the combined loss is finite.
    """
    step = _STEPS[config.mode](batch, state, config, schedule, k)
    breakdown = crc_combine(*step.losses, schedule, k)
    if not breakdown.is_finite():
        raise NonFiniteLossError(
            f"non-finite loss at iteration {k}", _loss_diagnostics(batch, breakdown, k)
        )
    state.params_f, state.opt_f, state.params_m, state.opt_m = step.nets
    state.forward_count += step.forwards
    metrics = {
        "iter": k,
        **breakdown.as_dict(),
        "kept_fraction": step.kept_fraction,
        "lr": state.opt_f.lr_at(k),
        "forwards": step.forwards,
        **step.extra,
    }
    return breakdown, step.record, metrics


def _two_net_step(batch, state, config, schedule, k):
    labels = np.array([s.identity for s in batch], dtype=int)
    b = len(batch)
    pre_hash = state.params_m.sha256()

    params_m = state.params_m
    if config.ema_enabled:
        params_m = ema_transfer(params_m, state.params_f, config.momentum)

    frames_f, state.rng_aug_f = _augment_batch(batch, config.augmentation, state.rng_aug_f)
    frames_m, state.rng_aug_m = _augment_batch(batch, config.augmentation, state.rng_aug_m)
    z_f, p_f, cache_f = forward_batch(frames_f, state.params_f)
    z_m, p_m, cache_m = forward_batch(frames_m, params_m)

    s0, s1, s2, s3 = schedule.at(k)

    # consistency term over every sample, label-free
    l_c, d_pf_c, d_pm_c = batch_coteach(p_m, p_f, config.detach_teacher)

    # noise sieve decides which samples feed the supervised losses
    mask_stats = {}
    if config.and_enabled:
        scores = score_arrays(p_f, p_m, labels)
        mask, state.sieve = adapt_mask(scores, state.sieve, config)
        mask_stats = {
            "mask_mean_entropy": float(scores.entropy.mean()),
            "mask_mean_ce": float(scores.ce.mean()),
        }
        mask_stats.update(
            {
                f"noise_{key}": val
                for key, val in detection_stats(mask, [s.noise_flag for s in batch]).items()
                if key in ("precision", "recall")
            }
        )
    else:
        mask = np.ones(b, dtype=bool)
    kept = np.flatnonzero(mask)

    d_pf = s0 * d_pf_c
    d_zf = np.zeros_like(z_f)

    l_ce = 0.0
    if s1 != 0.0 and kept.size:
        l_ce, g = batch_ce(p_f[kept], labels[kept])
        d_pf[kept] += s1 * g

    l_tri = 0.0
    if s2 != 0.0 and kept.size and has_valid_triplet(labels[kept]):
        l_tri, g = triplet_loss(z_f[kept], labels[kept], config.triplet_margin)
        d_zf[kept] += s2 * g

    l_mil = 0.0
    if s3 != 0.0 and kept.size >= 2:
        z_norm, chain = _normalize_rows_with_grad_chain(z_f[kept])
        l_mil, g_norm, n_queries = batch_mil_loss(z_norm, labels[kept], config.mil_temperature)
        if n_queries:
            d_zf[kept] += s3 * chain(g_norm)

    grad_f = backward_batch(cache_f, state.params_f, d_zf, d_pf)
    params_f, opt_f, delta_f = optimizer_step(state.params_f, grad_f, state.opt_f, k)

    if s0 != 0.0 and not config.detach_teacher:
        grad_m = backward_batch(cache_m, params_m, np.zeros_like(z_m), s0 * d_pm_c)
    else:
        grad_m = GradVector.zeros(params_m.shape)
    params_m, opt_m, delta_m = optimizer_step(params_m, grad_m, state.opt_m, k)

    return StepProposal(
        (l_c, l_ce, l_tri, l_mil), (params_f, opt_f, params_m, opt_m),
        TraceRecord(delta_f, delta_m, pre_hash), kept.size / b, 2 * b, mask_stats,
    )


def _supervised_step(batch, state, config, schedule, k):
    labels = np.array([s.identity for s in batch], dtype=int)
    frames, state.rng_aug_f = _augment_batch(batch, config.augmentation, state.rng_aug_f)
    params_f, opt_f, delta_f, l_ce, l_tri = _ce_triplet_update(
        state.params_f, state.opt_f, frames, labels, config, schedule, k
    )
    return StepProposal(
        (0.0, l_ce, l_tri, 0.0), (params_f, opt_f, None, None),
        TraceRecord(delta_f, None, None), 1.0, len(batch), {},
    )


def _ce_triplet_update(params, opt, frame_sets, labels, config, schedule, k):
    """One CE + triplet update of one network on the given frame sets.

    Returns (new params, new optimizer state, applied delta, l_ce, l_tri).
    """
    z, p, cache = forward_batch(frame_sets, params)
    _, s1, s2, _ = schedule.at(k)
    l_ce, d_p = batch_ce(p, labels)
    d_p = s1 * d_p
    d_z = np.zeros_like(z)
    l_tri = 0.0
    if s2 != 0.0 and has_valid_triplet(labels):
        l_tri, g = triplet_loss(z, labels, config.triplet_margin)
        d_z += s2 * g
    grad = backward_batch(cache, params, d_z, d_p)
    new_params, new_opt, delta = optimizer_step(params, grad, opt, k)
    return new_params, new_opt, delta, l_ce, l_tri


def _coteach_step(batch, state, config, schedule, k):
    """Classic small-loss co-teaching step: each network selects its smallest-CE
    fraction (1 - coteach_noise_rate) of the batch and the peer trains on it.

    Requires the noise rate as prior knowledge, unlike the cyclic scheme.
    Selection forwards plus training forwards cost 2N + 2*ceil((1-rate)*N).
    """
    labels = np.array([s.identity for s in batch], dtype=int)
    b = len(batch)
    frame_sets = [s.frames for s in batch]

    _, p_a, _ = forward_batch(frame_sets, state.params_f)
    _, p_b, _ = forward_batch(frame_sets, state.params_m)
    ce_a = -log_softmax_rows(p_a)[np.arange(b), labels]
    ce_b = -log_softmax_rows(p_b)[np.arange(b), labels]
    n_keep = math.ceil((1.0 - config.coteach_noise_rate) * b)
    sel_a = np.argsort(ce_a, kind="stable")[:n_keep]  # ties break by sample index
    sel_b = np.argsort(ce_b, kind="stable")[:n_keep]

    # peer exchange: A trains on B's selection and vice versa
    params_f, opt_f, delta_f, ce_f, tri_f = _ce_triplet_update(
        state.params_f, state.opt_f, [frame_sets[i] for i in sel_b], labels[sel_b],
        config, schedule, k,
    )
    params_m, opt_m, _, ce_m, tri_m = _ce_triplet_update(
        state.params_m, state.opt_m, [frame_sets[i] for i in sel_a], labels[sel_a],
        config, schedule, k,
    )
    return StepProposal(
        (0.0, (ce_f + ce_m) / 2.0, (tri_f + tri_m) / 2.0, 0.0),
        (params_f, opt_f, params_m, opt_m),
        TraceRecord(delta_f, None, None), n_keep / b, 2 * b + 2 * n_keep, {},
    )


_STEPS = {
    "cyclic": _two_net_step,
    "selfsup": _two_net_step,
    "supervised": _supervised_step,
    "coteach-baseline": _coteach_step,
}


# ---------------------------------------------------------------------------
# trace persistence


class TraceWriter:
    """Streams per-iteration records: k (uint64 LE) then both deltas (f64 LE)."""

    def __init__(self, path, n_params: int, momentum: float, iterations: int,
                 extra: dict | None = None):
        header = {
            "format_version": TRACE_FORMAT_VERSION,
            "n_params": n_params,
            "momentum": momentum,
            "iterations": iterations,
        }
        if extra:
            header.update(extra)
        self.n_params = n_params
        self._fh = open(path, "wb")
        self._fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")

    def write(self, k: int, delta_f: np.ndarray, delta_m: np.ndarray):
        self._fh.write(struct.pack("<Q", k))
        self._fh.write(np.asarray(delta_f, dtype="<f8").tobytes())
        self._fh.write(np.asarray(delta_m, dtype="<f8").tobytes())

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_trace(path):
    """Load a trace file; returns (header, deltas_f (N, P), deltas_m (N, P)).

    Validates the format version, the strictly sequential iteration indices
    and record finiteness; a violated record is named by its iteration.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format_version") != TRACE_FORMAT_VERSION:
            raise ValueError(f"unsupported trace format in {path}")
        n_params = int(header["n_params"])
        n_iters = int(header["iterations"])
        record_bytes = 8 + 16 * n_params
        deltas_f = np.zeros((n_iters, n_params))
        deltas_m = np.zeros((n_iters, n_params))
        for row in range(n_iters):
            blob = fh.read(record_bytes)
            if len(blob) != record_bytes:
                raise ValueError(
                    f"trace truncated at iteration {row + 1} of {n_iters}"
                )
            (k,) = struct.unpack("<Q", blob[:8])
            if k != row + 1:
                raise ValueError(
                    f"trace record {row + 1} carries iteration index {k}"
                )
            rec = np.frombuffer(blob[8:], dtype="<f8")
            if not np.all(np.isfinite(rec)):
                raise ValueError(f"non-finite delta in trace at iteration {k}")
            deltas_f[row] = rec[:n_params]
            deltas_m[row] = rec[n_params:]
        if fh.read(1):
            raise ValueError("trailing bytes after the declared trace records")
    return header, deltas_f, deltas_m


# ---------------------------------------------------------------------------
# full runs


@dataclass
class TrainingResult:
    params_f: ModelParams
    params_m: ModelParams | None
    init_f: ModelParams
    init_m: ModelParams | None
    metrics: list
    snapshots: list  # (iteration, ModelParams) copies of F
    forward_count: int
    config: TrainerConfig


def init_state(config: TrainerConfig, shape: EncoderShape) -> TrainState:
    """Fresh training state; the two networks draw distinct init streams."""
    root = RngStream(config.seed)
    params_f, _ = init_params(shape, root.child(1))
    two_net = config.mode in ("cyclic", "selfsup", "coteach-baseline")
    params_m = None
    opt_m = None
    if two_net:
        params_m, _ = init_params(shape, root.child(2))
        opt_m = OptimizerState.fresh(config.optimizer, shape)
    return TrainState(
        params_f=params_f,
        params_m=params_m,
        opt_f=OptimizerState.fresh(config.optimizer, shape),
        opt_m=opt_m,
        sieve=SieveState(),
        rng_sampler=root.child(3),
        rng_aug_f=root.child(4),
        rng_aug_m=root.child(5),
    )


def train_groups(dataset, config: TrainerConfig) -> dict:
    """The train split grouped by identity; raises ValueError when it cannot
    fill the batch shape of config."""
    samples = dataset.train if isinstance(dataset, DatasetBundle) else list(dataset)
    if not samples:
        raise ValueError("empty dataset")
    groups = group_by_identity(samples)
    if len(groups) < config.p_ids:
        raise ValueError(
            f"dataset has {len(groups)} identities; batch shape needs {config.p_ids}"
        )
    return groups


def run_training(dataset, config: TrainerConfig, trace_path=None) -> TrainingResult:
    """Train per config on the dataset's train split; deterministic in seed.

    The forgetting network F is the inference model. Metrics are logged every
    iteration; trace recording streams the applied update of both networks to
    trace_path for closed-form verification.
    """
    if config.record_trace and trace_path is None:
        raise ValueError("record_trace needs a trace_path to stream the trace to")
    groups = train_groups(dataset, config)
    shape = EncoderShape(
        d_in=next(iter(groups.values()))[0].frames.shape[1],
        d_hidden=config.d_hidden,
        d_emb=config.d_emb,
        n_classes=max(groups) + 1,
    )
    state = init_state(config, shape)
    schedule = build_schedule(config)

    init_f = state.params_f.copy()
    init_m = state.params_m.copy() if state.params_m is not None else None

    writer = None
    if config.record_trace:
        # a disabled EMA step is the m = 1 recurrence
        momentum = config.momentum if config.ema_enabled else 1.0
        writer = TraceWriter(
            trace_path, shape.n_params, momentum, config.iterations,
            extra={"mode": config.mode},
        )

    metrics_log = []
    snapshots = []
    if config.snapshot_every > 0:
        snapshots.append((0, state.params_f.copy()))

    try:
        for k in range(1, config.iterations + 1):
            batch, state.rng_sampler = pxk_sampler(
                groups, config.p_ids, config.k_seqs, state.rng_sampler
            )
            breakdown, record, metrics = train_iteration(batch, state, config, schedule, k)
            metrics_log.append(metrics)
            if writer is not None and record.delta_m is not None:
                writer.write(k, record.delta_f, record.delta_m)
            if config.snapshot_every > 0 and (
                k % config.snapshot_every == 0 or k == config.iterations
            ):
                snapshots.append((k, state.params_f.copy()))
    finally:
        if writer is not None:
            writer.close()

    return TrainingResult(
        params_f=state.params_f,
        params_m=state.params_m,
        init_f=init_f,
        init_m=init_m,
        metrics=metrics_log,
        snapshots=snapshots,
        forward_count=state.forward_count,
        config=config,
    )
