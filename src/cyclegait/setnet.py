"""Permutation-invariant set encoder with hand-derived gradients.

The network maps a set of frame vectors to an embedding z and class logits p:

    per-frame affine (d_in -> d_hidden) -> ReLU
    -> pooling over frames: concat(elementwise max, elementwise mean)
    -> affine projection (2*d_hidden -> d_emb) = z
    -> affine classifier (d_emb -> n_classes) = p

Pooling makes the output independent of frame order. A batch of sets of
different lengths runs as one stack of all their frames, each set owning a
row range, so no work or memory goes to padding; forward_batch says in
which order its pooling sums add. Parameters live in one
flat float64 vector so that EMA transfer, optimizer steps and update traces
are plain vector arithmetic; named segment views expose the layer tensors.

Any encoder exposing the same forward/backward surface plugs into the
trainer unchanged; this one is the smallest stack that exercises set pooling,
metric losses and classification.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .numkit import RngStream

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EncoderShape:
    """Layer size descriptor; fixes the parameter layout."""

    d_in: int = 16
    d_hidden: int = 64
    d_emb: int = 32
    n_classes: int = 40

    @property
    def d_pooled(self) -> int:
        return 2 * self.d_hidden

    def segments(self):
        """Ordered (name, shape) pairs defining the flat layout."""
        return (
            ("w1", (self.d_hidden, self.d_in)),
            ("b1", (self.d_hidden,)),
            ("w2", (self.d_emb, self.d_pooled)),
            ("b2", (self.d_emb,)),
            ("w3", (self.n_classes, self.d_emb)),
            ("b3", (self.n_classes,)),
        )

    @functools.cached_property
    def n_params(self) -> int:
        return sum(int(np.prod(s)) for _, s in self.segments())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderShape":
        return cls(int(d["d_in"]), int(d["d_hidden"]), int(d["d_emb"]), int(d["n_classes"]))


@functools.lru_cache(maxsize=None)
def _segment_table(shape: EncoderShape) -> dict:
    table = {}
    offset = 0
    for name, seg_shape in shape.segments():
        size = int(np.prod(seg_shape))
        table[name] = (offset, size, seg_shape)
        offset += size
    return table


class ParamVector:
    """Flat float64 parameter (or gradient) vector with named segment views.

    Two vectors with equal shape descriptors are combinable with plain
    arithmetic; the segment properties return numpy views into the flat
    buffer, so reading them never copies.
    """

    __slots__ = ("shape", "flat")

    def __init__(self, shape: EncoderShape, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1 or flat.size != shape.n_params:
            raise ValueError(
                f"flat vector of length {flat.size} does not match layout "
                f"({shape.n_params} parameters)"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "flat", flat)

    def __setattr__(self, name, value):
        raise AttributeError("ParamVector fields are fixed at construction")

    @classmethod
    def zeros(cls, shape: EncoderShape) -> "ParamVector":
        return cls(shape, np.zeros(shape.n_params))

    def copy(self) -> "ParamVector":
        return ParamVector(self.shape, self.flat.copy())

    def _segment(self, name: str) -> np.ndarray:
        offset, size, seg_shape = _segment_table(self.shape)[name]
        return self.flat[offset : offset + size].reshape(seg_shape)

    @property
    def w1(self):
        return self._segment("w1")

    @property
    def b1(self):
        return self._segment("b1")

    @property
    def w2(self):
        return self._segment("w2")

    @property
    def b2(self):
        return self._segment("b2")

    @property
    def w3(self):
        return self._segment("w3")

    @property
    def b3(self):
        return self._segment("b3")

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.flat)))

    def sha256(self) -> str:
        return hashlib.sha256(self.flat.astype("<f8").tobytes()).hexdigest()


# Semantic aliases: same layout, different role.
ModelParams = ParamVector
GradVector = ParamVector


def init_params(shape: EncoderShape, rng: RngStream):
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per segment."""
    fan_in = {
        "w1": shape.d_in,
        "b1": shape.d_in,
        "w2": shape.d_pooled,
        "b2": shape.d_pooled,
        "w3": shape.d_emb,
        "b3": shape.d_emb,
    }
    chunks = []
    for name, seg_shape in shape.segments():
        bound = 1.0 / np.sqrt(fan_in[name])
        vals, rng = rng.uniform(int(np.prod(seg_shape)), -bound, bound)
        chunks.append(vals)
    return ModelParams(shape, np.concatenate(chunks)), rng


@dataclass(frozen=True)
class NetOutputs:
    """Per-sample embedding and class logits."""

    z: np.ndarray
    p: np.ndarray


@dataclass
class ForwardCache:
    """Activations kept from forward_batch for the matching backward pass.

    Row-indexed arrays stack the batch's frames in sample order, with no
    padding rows: sample i owns the lengths[i] rows that follow those of
    samples 0 .. i-1.
    """

    frames: np.ndarray  # (sum T_i, d_in)
    lengths: np.ndarray  # (B,) frame count per sample
    relu_on: np.ndarray  # (sum T_i, d_hidden) bool
    max_row: np.ndarray  # (B, d_hidden) row whose activation is each sample's max
    pooled: np.ndarray  # (B, 2*d_hidden)
    z: np.ndarray  # (B, d_emb)
    n_params: int


def forward_batch(frame_sets, params: ModelParams):
    """Run the encoder on a list of (T_i, d_in) frame arrays.

    Returns (Z, P, cache) with Z of shape (B, d_emb) and P of (B, n_classes).

    The frames are stacked into one (sum T_i, d_in) array, so the per-frame
    layer is a single matrix product over real frames only. Each sample's
    pooling reads its own row range:
    - the mean is that range's column sum divided by T_i. The sum runs per
      sample and adds the rows one after another in frame order;
      np.add.reduceat adds them in another order, which rounds differently
      and would move every training trajectory;
    - the max feeds from the first frame of the sample that reaches it, so a
      tie (say, a duplicated frame) routes the whole max gradient to one frame.
    """
    shape = params.shape
    if not frame_sets:
        raise ValueError("empty batch")
    for fs in frame_sets:
        if fs.ndim != 2 or fs.shape[1] != shape.d_in:
            raise ValueError(
                f"frame set of shape {fs.shape} does not match d_in={shape.d_in}"
            )
        if fs.shape[0] < 1:
            raise ValueError("a sample must contain at least one frame")
    lengths = np.array([fs.shape[0] for fs in frame_sets])
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    frames = np.concatenate(frame_sets)

    # in place: a second (sum T_i, H) temporary costs more than the add
    pre = frames @ params.w1.T
    pre += params.b1
    relu_on = pre > 0.0
    hidden = np.maximum(pre, 0.0, out=pre)

    sums = np.empty((len(frame_sets), shape.d_hidden))
    max_row = np.empty(sums.shape, dtype=np.intp)
    for i, (lo, t) in enumerate(zip(starts.tolist(), lengths.tolist())):
        rows = hidden[lo : lo + t]
        np.sum(rows, axis=0, out=sums[i])
        np.argmax(rows, axis=0, out=max_row[i])
    max_row += starts[:, None]
    mx = hidden[max_row, np.arange(shape.d_hidden)]
    mn = sums / lengths[:, None]

    pooled = np.concatenate([mx, mn], axis=1)
    z = pooled @ params.w2.T + params.b2
    p = z @ params.w3.T + params.b3

    cache = ForwardCache(frames, lengths, relu_on, max_row, pooled, z, shape.n_params)
    return z, p, cache


def forward(frames, params: ModelParams) -> NetOutputs:
    """Single-sample forward; frames is a (T, d_in) array or list of vectors."""
    fs = np.asarray(frames, dtype=np.float64)
    if fs.ndim != 2:
        raise ValueError("frames must be a (T, d_in) array")
    z, p, _ = forward_batch([fs], params)
    return NetOutputs(z[0], p[0])


def backward_batch(cache: ForwardCache, params: ModelParams, d_z, d_p) -> GradVector:
    """Gradient of a scalar batch loss given upstream d(loss)/dz and d(loss)/dp.

    The cache must come from a forward_batch call with the same parameters;
    a layout mismatch means the caller paired unrelated passes.
    """
    if cache.n_params != params.shape.n_params:
        raise ValueError("activation cache does not match parameter layout")
    shape = params.shape
    d_z = np.asarray(d_z, dtype=np.float64)
    d_p = np.asarray(d_p, dtype=np.float64)
    if d_z.shape != cache.z.shape or d_p.shape[0] != cache.z.shape[0]:
        raise ValueError("upstream gradient shapes do not match the cached batch")

    grad = GradVector.zeros(shape)

    grad.w3[:] = d_p.T @ cache.z
    grad.b3[:] = d_p.sum(axis=0)
    d_z_total = d_z + d_p @ params.w3

    grad.w2[:] = d_z_total.T @ cache.pooled
    grad.b2[:] = d_z_total.sum(axis=0)
    d_pooled = d_z_total @ params.w2

    h = shape.d_hidden
    d_max = d_pooled[:, :h]
    d_mean = d_pooled[:, h:]

    # mean path: spread evenly over the sample's frames
    d_hidden = np.repeat(d_mean / cache.lengths[:, None], cache.lengths, axis=0)
    # max path: route to the frame that produced each max
    d_hidden[cache.max_row, np.arange(h)] += d_max
    d_pre = np.multiply(d_hidden, cache.relu_on, out=d_hidden)

    # Both sums add frames in order, one row after another. The einsum is
    # spelled with d_hidden's axis innermost, which is faster than "th,td->hd"
    # and adds in the same order; a BLAS d_pre.T @ frames would not.
    grad.w1[:] = np.einsum("td,th->dh", cache.frames, d_pre).T
    grad.b1[:] = d_pre.sum(axis=0)
    return grad


def ema_transfer(theta_m: ModelParams, theta_f: ModelParams, m: float) -> ModelParams:
    """Exponential moving average transfer: m*theta_m + (1-m)*theta_f."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"EMA ratio must lie in [0, 1], got {m}")
    if theta_m.shape != theta_f.shape:
        raise ValueError("parameter layouts differ")
    return ModelParams(theta_m.shape, m * theta_m.flat + (1.0 - m) * theta_f.flat)


# Adam moment decay rates and denominator guard; no run sets other values
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "sgd"  # "sgd" (momentum) or "adam"
    lr: float = 0.05
    momentum: float = 0.9
    milestones: tuple[int, ...] = (1000,)
    gamma: float = 0.1

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr < 0.0:
            raise ValueError("learning rate must be >= 0")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("decay factor must lie in (0, 1]")


@dataclass
class OptimizerState:
    """Update-rule state; buffers share the parameter layout."""

    config: OptimizerConfig
    velocity: np.ndarray | None = None  # sgd
    moment1: np.ndarray | None = None  # adam
    moment2: np.ndarray | None = None
    steps: int = 0

    @classmethod
    def fresh(cls, config: OptimizerConfig, shape: EncoderShape) -> "OptimizerState":
        n = shape.n_params
        if config.kind == "sgd":
            return cls(config, velocity=np.zeros(n))
        return cls(config, moment1=np.zeros(n), moment2=np.zeros(n))

    def lr_at(self, iteration: int) -> float:
        decays = sum(1 for ms in self.config.milestones if ms <= iteration)
        return self.config.lr * self.config.gamma**decays


def optimizer_step(params: ModelParams, grad: GradVector, state: OptimizerState, iteration: int):
    """Apply one update; returns (new_params, new_state, applied delta).

    The returned delta is exactly what was added: new = old + delta bit for
    bit, so traces reconstruct parameters without rounding slack.
    """
    if params.shape != grad.shape:
        raise ValueError("gradient layout does not match parameters")
    cfg = state.config
    lr = state.lr_at(iteration)
    if cfg.kind == "sgd":
        velocity = cfg.momentum * state.velocity + grad.flat
        delta = -lr * velocity
        new_state = OptimizerState(cfg, velocity=velocity, steps=state.steps + 1)
    else:
        t = state.steps + 1
        m1 = ADAM_BETA1 * state.moment1 + (1.0 - ADAM_BETA1) * grad.flat
        m2 = ADAM_BETA2 * state.moment2 + (1.0 - ADAM_BETA2) * grad.flat**2
        m1_hat = m1 / (1.0 - ADAM_BETA1**t)
        m2_hat = m2 / (1.0 - ADAM_BETA2**t)
        delta = -lr * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)
        new_state = OptimizerState(cfg, moment1=m1, moment2=m2, steps=t)
    new_params = ModelParams(params.shape, params.flat + delta)
    return new_params, new_state, delta


def save_checkpoint(path, params: ModelParams, extra: dict | None = None):
    """Write header (JSON line) + flat little-endian float64 parameters."""
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        **params.shape.to_dict(),
        "n_params": params.shape.n_params,
    }
    if extra:
        header.update(extra)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, header dict)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format in {path}")
    shape = EncoderShape.from_dict(header)
    declared = int(header["n_params"])
    if declared != shape.n_params:
        raise ValueError(f"checkpoint header inconsistent: {declared} != {shape.n_params}")
    if len(blob) != 8 * declared:
        raise ValueError(
            f"checkpoint payload holds {len(blob) // 8} floats, header says {declared}"
        )
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    return ModelParams(shape, flat), header
