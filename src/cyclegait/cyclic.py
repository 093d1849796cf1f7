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
the noise rate as prior knowledge). MODE_TABLE holds each mode's recipe in
one row: its step, the schedule weights it keeps, whether it trains M,
whether M follows F by EMA, whether F reads augmented frames and whether the
sieve may run. A mode zeroes the weights it does not keep, a sigma0_const or
sigma3_const pin then sets that weight in any mode (sigma0 only where weight
0 is kept), and _label_terms, the one CE / triplet / contrastive routine of
every mode, runs each non-zero term.

Every run is a pure function of (dataset, config): sampling, initialization
and augmentation draws all come from substreams of config.seed. The loop
draws each iteration's inputs (the P x K batch and each network's augmented
frames) once and hands them to the step, so configs that share the seed and
the batch shape can train in lockstep on the same inputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .gaitgen import AugmentationSpec, augment_frame_sets
from .lossbank import (
    CoeffSchedule,
    LossBreakdown,
    Ramp,
    batch_ce,
    batch_coteach,
    batch_mil_loss,
    crc_combine,
    has_valid_triplet,
    per_sample_ce,
    triplet_loss,
)
from .numkit import RngStream, read_header, write_header
from .setnet import (
    EncoderShape,
    GradVector,
    ModelParams,
    backward_batch,
    ema_transfer,
    forward_batch,
    init_params,
    optimizer_step,
)
from .sieve import SieveState, adapt_mask, detection_stats, score_arrays

TRACE_FORMAT_VERSION = 1

# fixed parts of the recipe: the training-time augmentation of every mode that
# augments, the temperature of the contrastive (MIL) label term, and the
# momentum SGD of both networks, whose lr decays by LR_DECAY at each milestone
AUGMENTATION = AugmentationSpec()
MIL_TEMPERATURE = 0.2
SGD_MOMENTUM = 0.9
LR_DECAY = 0.1


class NonFiniteLossError(RuntimeError):
    """Training hit a non-finite loss; carries a diagnostic dump."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def in_section(name: str, default):
    """A config field written to the config-file section [name]; an untagged
    field is written to [trainer]."""
    return field(default=default, metadata={"section": name})


@dataclass(frozen=True)
class TrainerConfig:
    mode: str = "cyclic"
    iterations: int = 2000
    p_ids: int = 8
    k_seqs: int = 4
    momentum: float = 0.99  # EMA ratio m: M <- m*M + (1-m)*F; 1.0 turns the EMA off
    and_enabled: bool = False
    seed: int = 1
    schedule_profile: str = "noisy"  # "noisy" or "clean"
    d_hidden: int = EncoderShape.d_hidden
    d_emb: int = EncoderShape.d_emb
    record_trace: bool = False
    snapshot_every: int = 0
    coteach_noise_rate: float = 0.2  # prior required by the baseline only
    sieve_warmup: int = 200
    # pin a coefficient to a constant after the mode's zeroing (None = off);
    # supervised and coteach-baseline have no consistency term to pin sigma0 on
    sigma0_const: float | None = None
    sigma3_const: float | None = None
    # the learning rate, and the iterations from which it decays by LR_DECAY
    lr: float = in_section("optimizer", 0.05)
    milestones: tuple[int, ...] = in_section("optimizer", (1000,))

    def __post_init__(self):
        if self.mode not in MODE_TABLE:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sigma0_const is not None and 0 not in self.recipe.sigmas:
            raise ValueError(f"mode {self.mode} has no consistency term; sigma0_const "
                             "must be none")
        if self.p_ids < 2 or self.k_seqs < 2:
            raise ValueError("batch shape needs P >= 2 and K >= 2")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("EMA ratio must lie in [0, 1]")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.schedule_profile not in ("noisy", "clean"):
            raise ValueError(f"unknown schedule profile {self.schedule_profile!r}")
        if self.and_enabled and not self.recipe.sieve:
            raise ValueError("the noise sieve needs the two-network cyclic mode")
        if self.record_trace and not self.recipe.ema:
            raise ValueError("update traces require a two-network EMA-capable mode")
        if self.mode == "coteach-baseline" and not 0.0 <= self.coteach_noise_rate < 1.0:
            raise ValueError("coteach baseline noise rate must lie in [0, 1)")
        if self.sieve_warmup < 0:
            raise ValueError("sieve_warmup must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0 (0 takes no snapshots)")
        if self.d_hidden < 1 or self.d_emb < 1:
            raise ValueError("d_hidden and d_emb must be >= 1")
        if not 0.0 <= self.lr < math.inf:  # NaN fails too
            raise ValueError("lr (learning rate) must be finite and >= 0")
        for name in ("sigma0_const", "sigma3_const"):
            pin = getattr(self, name)
            if pin is not None and not math.isfinite(pin):
                raise ValueError(f"{name} must be finite when set")

    @property
    def recipe(self) -> Recipe:
        """The mode's row of MODE_TABLE."""
        return MODE_TABLE[self.mode]

    @property
    def batch_size(self) -> int:
        return self.p_ids * self.k_seqs

    def lr_at(self, iteration: int) -> float:
        """The learning rate of an iteration: lr, times LR_DECAY per milestone reached."""
        decays = sum(1 for ms in self.milestones if ms <= iteration)
        return self.lr * LR_DECAY**decays


def build_schedule(config: TrainerConfig) -> CoeffSchedule:
    """The profile's weights that the mode keeps, zero for the others, then
    the sigma0_const and sigma3_const pins."""
    if config.schedule_profile == "clean":
        base = CoeffSchedule.clean_default()
    else:
        base = CoeffSchedule.noisy_default(config.iterations)
    kept = config.recipe.sigmas
    ramps = (base.sigma0, base.sigma1, base.sigma2, base.sigma3)
    pins = (config.sigma0_const, None, None, config.sigma3_const)
    return CoeffSchedule(*(
        Ramp.constant(pin) if pin is not None else ramp if i in kept else Ramp.constant(0.0)
        for i, (ramp, pin) in enumerate(zip(ramps, pins))
    ))


@dataclass
class TraceRecord:
    """Applied updates for one iteration, enough to replay the run."""

    delta_f: np.ndarray
    delta_m: np.ndarray | None
    pre_ema_m_hash: str | None


class StepInputs(NamedTuple):
    """One iteration's inputs, drawn by the loop and only read by the steps."""

    batch: list
    frames_f: list | None  # F's augmented frames; None when no config reads them
    frames_m: list | None  # M's augmented frames; None when no config reads them


def group_by_identity(samples) -> dict:
    groups: dict = {}
    for s in samples:
        groups.setdefault(s.identity, []).append(s)
    return groups


def pxk_sampler(groups: dict, p_ids: int, k_seqs: int, rng: RngStream):
    """Sample P identities of groups (group_by_identity's map), then K
    sequences each (with replacement only when an identity has fewer than K).
    Returns (batch, advanced rng)."""
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


def draw_inputs(groups, config: TrainerConfig, augment_f: bool, augment_m: bool):
    """Yield the inputs of iterations 1..config.iterations: the P x K batch
    (substream 3 of config.seed), then F's augmented frames (substream 4) when
    augment_f and M's (substream 5) when augment_m. Each stream only serves
    its own draw, so leaving one out moves no other."""
    root = RngStream(config.seed)
    rng_sampler, rng_f, rng_m = root.child(3), root.child(4), root.child(5)
    for _ in range(config.iterations):
        batch, rng_sampler = pxk_sampler(groups, config.p_ids, config.k_seqs, rng_sampler)
        raw = [s.frames for s in batch]
        frames_f = frames_m = None
        if augment_f:
            frames_f, rng_f = augment_frame_sets(raw, AUGMENTATION, rng_f)
        if augment_m:
            frames_m, rng_m = augment_frame_sets(raw, AUGMENTATION, rng_m)
        yield StepInputs(batch, frames_f, frames_m)


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
    nets: tuple  # (params_f, vel_f, params_m, vel_m)
    record: TraceRecord
    kept_fraction: float
    forwards: int
    extra: dict  # mode-specific metrics


def train_iteration(inputs: StepInputs, run: TrainingResult, schedule: CoeffSchedule,
                    k: int):
    """Run iteration k (1-based) of run on inputs, updating run in place;
    returns (breakdown, TraceRecord, metrics).

    The mode's step proposes new networks; they replace the ones in run only
    once the combined loss is finite.
    """
    config = run.config
    step = config.recipe.step(inputs, run, schedule, k)
    breakdown = crc_combine(*step.losses, schedule, k)
    if not breakdown.is_finite():
        raise NonFiniteLossError(
            f"non-finite loss at iteration {k}", _loss_diagnostics(inputs.batch, breakdown, k)
        )
    run.params_f, run.vel_f, run.params_m, run.vel_m = step.nets
    run.forward_count += step.forwards
    metrics = {
        "iter": k,
        **breakdown.as_dict(),
        "kept_fraction": step.kept_fraction,
        "lr": config.lr_at(k),
        "forwards": step.forwards,
        **step.extra,
    }
    return breakdown, step.record, metrics


def _two_net_step(inputs, run, schedule, k):
    config = run.config
    batch = inputs.batch
    labels = np.array([s.identity for s in batch], dtype=int)
    b = len(batch)
    pre_hash = run.params_m.sha256()
    params_m = ema_transfer(run.params_m, run.params_f, config.momentum)

    z_f, p_f, cache_f = forward_batch(inputs.frames_f, run.params_f)
    z_m, p_m, cache_m = forward_batch(inputs.frames_m, params_m)

    s0, s1, s2, s3 = schedule.at(k)

    # consistency term over every sample, label-free
    l_c, d_pf_c, d_pm_c = batch_coteach(p_m, p_f)

    # noise sieve decides which samples feed the supervised losses
    mask_stats = {}
    if config.and_enabled:
        scores = score_arrays(p_f, p_m, labels)
        mask, run.sieve = adapt_mask(scores, run.sieve, config.sieve_warmup)
        detected = detection_stats(mask, [s.noise_flag for s in batch])
        mask_stats = {
            "mask_mean_entropy": float(scores.entropy.mean()),
            "mask_mean_ce": float(scores.ce.mean()),
            "noise_precision": detected["precision"],
            "noise_recall": detected["recall"],
        }
    else:
        mask = np.ones(b, dtype=bool)
    kept = np.flatnonzero(mask)

    # label terms on the kept rows, scattered into F's gradients
    l_ce, l_tri, l_mil, d_z, d_p = _label_terms(z_f[kept], p_f[kept], labels[kept],
                                                (s1, s2, s3))
    d_zf = np.zeros_like(z_f)
    d_zf[kept] = d_z
    d_pf = s0 * d_pf_c
    d_pf[kept] += d_p

    grad_f = backward_batch(cache_f, run.params_f, d_zf, d_pf)
    lr = config.lr_at(k)
    params_f, vel_f, delta_f = optimizer_step(run.params_f, grad_f, run.vel_f, lr,
                                              SGD_MOMENTUM)

    if s0 != 0.0:
        grad_m = backward_batch(cache_m, params_m, np.zeros_like(z_m), s0 * d_pm_c)
    else:
        grad_m = GradVector.zeros(params_m.shape)
    params_m, vel_m, delta_m = optimizer_step(params_m, grad_m, run.vel_m, lr,
                                              SGD_MOMENTUM)

    return StepProposal(
        (l_c, l_ce, l_tri, l_mil), (params_f, vel_f, params_m, vel_m),
        TraceRecord(delta_f, delta_m, pre_hash), kept.size / b, 2 * b, mask_stats,
    )


def _label_terms(z, p, labels, sigmas):
    """CE, triplet and contrastive losses of embeddings z and logits p against
    labels, weighted by sigmas = (s1, s2, s3); returns (l_ce, l_tri, l_mil,
    d_z, d_p). A term runs when its weight is non-zero and the rows can form
    it; otherwise it reads 0.0 and adds no gradient."""
    s1, s2, s3 = sigmas
    l_ce = l_tri = l_mil = 0.0
    d_z = np.zeros_like(z)
    d_p = np.zeros_like(p)
    if s1 != 0.0 and len(labels):
        l_ce, g = batch_ce(p, labels)
        d_p = s1 * g
    if s2 != 0.0 and has_valid_triplet(labels):
        l_tri, g = triplet_loss(z, labels)
        d_z += s2 * g
    if s3 != 0.0 and len(labels) >= 2:
        z_norm, chain = _normalize_rows_with_grad_chain(z)
        l_mil, g_norm, n_queries = batch_mil_loss(z_norm, labels, MIL_TEMPERATURE)
        if n_queries:
            d_z += s3 * chain(g_norm)
    return l_ce, l_tri, l_mil, d_z, d_p


def _label_update(params, velocity, frame_sets, labels, sigmas, config, k):
    """Forward, label terms, backward and step of one network; returns
    (new params, new velocity, applied delta, (l_ce, l_tri, l_mil))."""
    z, p, cache = forward_batch(frame_sets, params)
    l_ce, l_tri, l_mil, d_z, d_p = _label_terms(z, p, labels, sigmas)
    grad = backward_batch(cache, params, d_z, d_p)
    new_params, new_velocity, delta = optimizer_step(params, grad, velocity, config.lr_at(k),
                                                     SGD_MOMENTUM)
    return new_params, new_velocity, delta, (l_ce, l_tri, l_mil)


def _supervised_step(inputs, run, schedule, k):
    labels = np.array([s.identity for s in inputs.batch], dtype=int)
    params_f, vel_f, delta_f, losses = _label_update(
        run.params_f, run.vel_f, inputs.frames_f, labels, schedule.at(k)[1:], run.config, k
    )
    return StepProposal(
        (0.0, *losses), (params_f, vel_f, None, None),
        TraceRecord(delta_f, None, None), 1.0, len(labels), {},
    )


def _coteach_step(inputs, run, schedule, k):
    """Classic small-loss co-teaching step: each network selects its smallest-CE
    fraction (1 - coteach_noise_rate) of the batch and the peer trains on it.

    Requires the noise rate as prior knowledge, unlike the cyclic scheme.
    Selection forwards plus training forwards cost 2N + 2*ceil((1-rate)*N).
    """
    config = run.config
    batch = inputs.batch
    labels = np.array([s.identity for s in batch], dtype=int)
    b = len(batch)
    frame_sets = [s.frames for s in batch]

    p_a = forward_batch(frame_sets, run.params_f)[1]  # selection only: no cache kept
    p_b = forward_batch(frame_sets, run.params_m)[1]
    n_keep = math.ceil((1.0 - config.coteach_noise_rate) * b)
    sel_a = np.argsort(per_sample_ce(p_a, labels), kind="stable")[:n_keep]  # ties by index
    sel_b = np.argsort(per_sample_ce(p_b, labels), kind="stable")[:n_keep]

    # peer exchange: A trains on B's selection and vice versa; losses log the peers' mean
    sigmas = schedule.at(k)[1:]
    params_f, vel_f, delta_f, losses_f = _label_update(
        run.params_f, run.vel_f, [frame_sets[i] for i in sel_b], labels[sel_b],
        sigmas, config, k,
    )
    params_m, vel_m, _, losses_m = _label_update(
        run.params_m, run.vel_m, [frame_sets[i] for i in sel_a], labels[sel_a],
        sigmas, config, k,
    )
    return StepProposal(
        (0.0, *((f + m) / 2.0 for f, m in zip(losses_f, losses_m))),
        (params_f, vel_f, params_m, vel_m),
        TraceRecord(delta_f, None, None), n_keep / b, 2 * b + 2 * n_keep, {},
    )


class Recipe(NamedTuple):
    """One mode's training recipe, a row of MODE_TABLE."""

    step: Callable  # (inputs, run, schedule, k) -> StepProposal
    sigmas: tuple  # schedule weights kept, by sigma index; the others read 0
    trains_m: bool  # a second network M trains beside F
    ema: bool  # M follows F by EMA, so a trace may be recorded; M reads augmented frames
    augment_f: bool  # F reads augmented frames, else the raw ones
    sieve: bool  # the noise sieve (and_enabled) may run


MODE_TABLE = {
    "cyclic": Recipe(_two_net_step, (0, 1, 2, 3), True, True, True, True),
    "supervised": Recipe(_supervised_step, (1, 2), False, False, True, False),
    "selfsup": Recipe(_two_net_step, (0,), True, True, True, False),
    "coteach-baseline": Recipe(_coteach_step, (1, 2), True, False, False, False),
}
MODES = tuple(MODE_TABLE)


# ---------------------------------------------------------------------------
# trace persistence


def trace_record_dtype(n_params: int) -> np.dtype:
    """One trace record: the iteration k (uint64 LE), then delta_f and
    delta_m side by side (2 * n_params float64 LE)."""
    return np.dtype([("k", "<u8"), ("d", "<f8", (2 * n_params,))])


class TraceWriter:
    """Streams per-iteration records of trace_record_dtype after a JSON header line."""

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
        self._record = np.zeros((), dtype=trace_record_dtype(n_params))
        self._fh = open(path, "wb")
        write_header(self._fh, header)

    def write(self, k: int, delta_f: np.ndarray, delta_m: np.ndarray):
        record = self._record
        record["k"] = k
        record["d"][: self.n_params] = delta_f
        record["d"][self.n_params :] = delta_m
        self._fh.write(record)

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# bytes of records one pass over a trace reads at a time; a pass holds one
# such chunk, not the whole trace
_CHUNK_BYTES = 1 << 20


def read_trace(path):
    """Open a trace file; returns (header, records).

    The header's format version and dimensions are checked now. records is a
    TraceRecords: its len() is the declared iteration count, and every pass
    over it reads the file again, chunk by chunk, checking each record.
    """
    with open(path, "rb") as fh:
        header = read_header(fh, path, "trace", TRACE_FORMAT_VERSION,
                             {"n_params": int, "iterations": int, "momentum": (int, float)})
        n_params = int(header["n_params"])
        n_iters = int(header["iterations"])
        if n_params < 0 or n_iters < 0:
            raise ValueError(f"negative trace dimensions in {path}")
        offset = fh.tell()
    return header, TraceRecords(path, offset, n_params, n_iters)


class TraceRecords:
    """The records of a trace file as (delta_f, delta_m) pairs, one per
    iteration, re-iterable.

    A pass reads about _CHUNK_BYTES of records at a time into one buffer it
    reuses, never larger than the complete records the file holds, so a
    yielded pair is two views into that buffer that stay valid only until
    the next pair is drawn. A pass closes its file when it ends, fails or is
    dropped.

    Faults raise as the pass reaches them, so the earliest faulty record is
    named by its iteration. Within one record, a wrong iteration index comes
    before a non-finite delta. Truncation, then trailing bytes, are reported
    once every complete declared record has passed.
    """

    def __init__(self, path, offset: int, n_params: int, n_iters: int):
        self.path = path
        self.offset = offset
        self.n_params = n_params
        self.n_iters = n_iters
        self.record = trace_record_dtype(n_params)

    def __len__(self) -> int:
        return self.n_iters

    def __iter__(self):
        p, n, size = self.n_params, self.n_iters, self.record.itemsize
        with open(self.path, "rb") as fh:
            complete = min(n, (os.fstat(fh.fileno()).st_size - self.offset) // size)
            chunk = np.empty(min(max(1, _CHUNK_BYTES // size), complete), dtype=self.record)
            raw = chunk.view(np.uint8)
            deltas_f, deltas_m = chunk["d"][:, :p], chunk["d"][:, p:]
            fh.seek(self.offset)
            done = 0
            while done < complete:
                want = min(len(chunk), complete - done)
                got = fh.readinto(raw[: want * size]) // size
                _check_records(chunk[:got], done)
                for i in range(got):
                    yield deltas_f[i], deltas_m[i]
                done += got
                if got < want:
                    break
            if done < n:
                raise ValueError(f"trace truncated at iteration {done + 1} of {n}")
            if fh.read(1):
                raise ValueError("trailing bytes after the declared trace records")


def _check_records(chunk, done: int):
    """Raise for the earliest faulty record of a chunk that follows `done`
    records: a non-finite delta before the first wrong index, else that index."""
    expected = np.arange(done + 1, done + len(chunk) + 1, dtype=np.uint64)
    wrong = np.flatnonzero(chunk["k"] != expected)
    n_ok = int(wrong[0]) if wrong.size else len(chunk)
    deltas = chunk["d"][:n_ok]
    if not np.isfinite(deltas).all():
        row = int(np.argmin(np.isfinite(deltas).all(axis=1)))
        raise ValueError(f"non-finite delta in trace at iteration {done + row + 1}")
    if n_ok < len(chunk):
        k = int(chunk["k"][n_ok])
        raise ValueError(f"trace record {done + n_ok + 1} carries iteration index {k}")


# ---------------------------------------------------------------------------
# full runs


@dataclass
class TrainingResult:
    """One config's run. train_iteration updates it in place, and
    run_training returns it; single-writer only. The sampler and augmentation
    streams are not here: the loop owns them, as configs trained in lockstep
    share their draws."""

    config: TrainerConfig
    params_f: ModelParams
    params_m: ModelParams | None
    init_f: ModelParams
    init_m: ModelParams | None
    vel_f: np.ndarray  # momentum-SGD velocity of F, in the parameter layout
    vel_m: np.ndarray | None
    sieve: SieveState = field(default_factory=SieveState)
    metrics: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (iteration, ModelParams) copies of F
    forward_count: int = 0

    @classmethod
    def start(cls, config: TrainerConfig, shape: EncoderShape) -> TrainingResult:
        """A fresh run of config; the two networks draw distinct init streams."""
        root = RngStream(config.seed)
        params_f, _ = init_params(shape, root.child(1))
        params_m = init_m = vel_m = None
        if config.recipe.trains_m:
            params_m, _ = init_params(shape, root.child(2))
            init_m, vel_m = params_m.copy(), np.zeros(shape.n_params)
        snapshots = [(0, params_f.copy())] if config.snapshot_every > 0 else []
        return cls(config, params_f, params_m, params_f.copy(), init_m,
                   np.zeros(shape.n_params), vel_m, snapshots=snapshots)


def train_groups(dataset, config: TrainerConfig) -> dict:
    """The train split grouped by identity; raises ValueError when it cannot
    fill the batch shape of config."""
    groups = group_by_identity(dataset.train)
    if not groups:
        raise ValueError("empty dataset")
    if len(groups) < config.p_ids:
        raise ValueError(
            f"dataset has {len(groups)} identities; batch shape needs {config.p_ids}"
        )
    return groups


# the fields that fix every iteration's inputs, so configs trained in
# lockstep must share them
LOCKSTEP_FIELDS = ("seed", "p_ids", "k_seqs", "iterations")


def run_training(dataset, configs, trace_path=None):
    """Train per config on the dataset's train split; deterministic in seed.

    configs is one TrainerConfig, which returns its TrainingResult, or a
    sequence of them, which returns one TrainingResult per config, in order.
    A sequence trains in lockstep: each iteration samples one batch and
    augments each network's frames once, and every config takes its step on
    those inputs. The configs must share LOCKSTEP_FIELDS, and each result is
    byte for byte the one its config would get alone.

    The forgetting network F is the inference model. Metrics are logged every
    iteration; trace recording, for one config only, streams the applied
    update of both networks to trace_path for closed-form verification.
    """
    single = isinstance(configs, TrainerConfig)
    configs = [configs] if single else list(configs)
    if not configs:
        raise ValueError("run_training needs at least one config")
    lead = configs[0]
    for name in LOCKSTEP_FIELDS:
        if len({getattr(c, name) for c in configs}) > 1:
            raise ValueError(f"configs trained in lockstep must share {name}")
    if len(configs) > 1 and (trace_path is not None or any(c.record_trace for c in configs)):
        raise ValueError("trace recording trains one config at a time")
    if lead.record_trace and trace_path is None:
        raise ValueError("record_trace needs a trace_path to stream the trace to")
    if trace_path is not None and not lead.record_trace:
        raise ValueError("a trace_path needs record_trace to write the trace")
    groups = train_groups(dataset, lead)
    d_in = next(iter(groups.values()))[0].frames.shape[1]

    def shape(config):
        return EncoderShape(d_in=d_in, d_hidden=config.d_hidden, d_emb=config.d_emb,
                            n_classes=max(groups) + 1)

    runs = [(TrainingResult.start(c, shape(c)), build_schedule(c)) for c in configs]

    writer = None
    if lead.record_trace:
        writer = TraceWriter(
            trace_path, shape(lead).n_params, lead.momentum, lead.iterations,
            extra={"mode": lead.mode},
        )

    augment_f = any(c.recipe.augment_f for c in configs)
    augment_m = any(c.recipe.ema for c in configs)
    try:
        inputs = draw_inputs(groups, lead, augment_f, augment_m)
        for k, step_inputs in enumerate(inputs, start=1):
            for run, schedule in runs:
                _, record, metrics = train_iteration(step_inputs, run, schedule, k)
                run.metrics.append(metrics)
                if writer is not None and record.delta_m is not None:
                    writer.write(k, record.delta_f, record.delta_m)
                every = run.config.snapshot_every
                if every > 0 and (k % every == 0 or k == run.config.iterations):
                    run.snapshots.append((k, run.params_f.copy()))
    finally:
        if writer is not None:
            writer.close()

    results = [run for run, _ in runs]
    return results[0] if single else results
