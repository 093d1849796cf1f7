"""Permutation-invariant set encoder with hand-derived gradients.

The network maps a set of frame vectors to an embedding z and class logits p:

    per-frame affine (d_in -> d_hidden) -> ReLU
    -> pooling over frames: concat(elementwise max, elementwise mean)
    -> affine projection (2*d_hidden -> d_emb) = z
    -> affine classifier (d_emb -> n_classes) = p

Pooling makes the output independent of frame order. A batch of sets of
different lengths runs the per-frame layer as one stack of all their frames,
each set owning a row range, so no product is spent on padding. The pooling
is one reduction over a zero-padded (B, T_max, d_hidden) array, which is a
free view of the stack when all sets have the same length; forward_batch
says in which order its sums add and where that differs from summing each
set on its own (d_hidden = 1). The max-pool routing is built only for a
backward pass (ForwardCache), which forms w1's gradient as one BLAS product.
Parameters live in one flat float64 vector so that EMA transfer, optimizer
steps and update traces are plain vector arithmetic; named segment views
expose the layer tensors.

Any encoder exposing the same forward/backward surface plugs into the
trainer unchanged; this one is the smallest stack that exercises set pooling,
metric losses and classification.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from .numkit import RngStream, read_header, write_header

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EncoderShape:
    """Layer size descriptor; fixes the parameter layout."""

    d_in: int
    d_hidden: int
    d_emb: int
    n_classes: int

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

    @functools.cached_property
    def segment_table(self) -> dict:
        """name -> (offset, size, shape) of each segment in the flat layout."""
        table = {}
        offset = 0
        for name, seg_shape in self.segments():
            size = int(np.prod(seg_shape))
            table[name] = (offset, size, seg_shape)
            offset += size
        return table

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderShape":
        return cls(int(d["d_in"]), int(d["d_hidden"]), int(d["d_emb"]), int(d["n_classes"]))


class ParamVector:
    """Flat float64 parameter (or gradient) vector with named segment views.

    Two vectors with equal shape descriptors are combinable with plain
    arithmetic; the segment properties return numpy views into the flat
    buffer, so reading them never copies. Each view is built on first access
    and kept, so a write through it lands in flat.
    """

    __slots__ = ("shape", "flat", "_views")

    def __init__(self, shape: EncoderShape, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1 or flat.size != shape.n_params:
            raise ValueError(
                f"flat vector of length {flat.size} does not match layout "
                f"({shape.n_params} parameters)"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "_views", {})

    def __setattr__(self, name, value):
        raise AttributeError("ParamVector fields are fixed at construction")

    @classmethod
    def zeros(cls, shape: EncoderShape) -> "ParamVector":
        return cls(shape, np.zeros(shape.n_params))

    def copy(self) -> "ParamVector":
        return ParamVector(self.shape, self.flat.copy())

    def _segment(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            offset, size, seg_shape = self.shape.segment_table[name]
            view = self._views[name] = self.flat[offset : offset + size].reshape(seg_shape)
        return view

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

    def sha256(self) -> str:
        return hashlib.sha256(self.flat.astype("<f8").tobytes()).hexdigest()


# Semantic aliases: same layout, different role.
ModelParams = ParamVector
GradVector = ParamVector


def init_params(shape: EncoderShape, rng: RngStream):
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per segment: a
    weight's fan-in is its input width (d_in, d_pooled, d_emb), and the bias
    that follows it shares that bound."""
    chunks = []
    for _, seg_shape in shape.segments():
        if len(seg_shape) == 2:  # a weight (out, in)
            bound = 1.0 / np.sqrt(seg_shape[1])
        vals, rng = rng.uniform(int(np.prod(seg_shape)), -bound, bound)
        chunks.append(vals)
    return ModelParams(shape, np.concatenate(chunks)), rng


@dataclass
class ForwardCache:
    """Activations kept from forward_batch for the matching backward pass.

    Row-indexed arrays stack the batch's frames in sample order, with no
    padding rows: sample i owns the lengths[i] rows from starts[i] on. The
    routing of the max pool (max_row) and the ReLU mask (relu_on) are built
    from the kept activations the first time backward_batch reads them, so a
    forward that is never differentiated does not pay for them.
    """

    frames: np.ndarray  # (sum T_i, d_in)
    lengths: np.ndarray  # (B,) frame count per sample
    starts: np.ndarray  # (B,) first row of each sample
    hidden: np.ndarray  # (sum T_i, d_hidden) ReLU output
    padded: np.ndarray  # (B, T_max, d_hidden) hidden, zero after each sample's last frame
    peak: np.ndarray  # (B, d_hidden) each sample's max activation
    pooled: np.ndarray  # (B, 2*d_hidden)
    z: np.ndarray  # (B, d_emb)
    n_params: int

    @functools.cached_property
    def relu_on(self) -> np.ndarray:
        """(sum T_i, d_hidden) bool: where the ReLU passed its input. The
        output is positive exactly where the input was."""
        return self.hidden > 0.0

    @functools.cached_property
    def max_row(self) -> np.ndarray:
        """(B, d_hidden) row whose activation is each sample's max.

        The max feeds from the first frame of the sample that reaches it, so
        a tie (say, a duplicated frame) routes the whole max gradient to one
        frame. That frame is found as the highest descending rank among the
        frames equal to the peak, which is cheaper than an argmax along the
        strided frame axis. ReLU output is never below the zero padding, so
        padding cannot come first. A NaN peak takes argmax's first NaN frame.
        """
        padded, peak = self.padded, self.peak
        t_max = padded.shape[1]
        # the rank fits the smallest type that holds T_max; the row index is
        # widened to intp before the row offsets, which pass int16 in big batches
        rank = np.arange(t_max, 0, -1, dtype=np.min_scalar_type(t_max))
        first = t_max - ((padded == peak[:, None, :]) * rank[:, None]).max(axis=1).astype(np.intp)
        nan_peak = np.isnan(peak)
        if nan_peak.any():
            first[nan_peak] = padded.argmax(axis=1)[nan_peak]
        return first + self.starts[:, None]


def forward_batch(frame_sets, params: ModelParams):
    """Run the encoder on a list of (T_i, d_in) frame arrays.

    Returns (Z, P, cache) with Z of shape (B, d_emb) and P of (B, n_classes).

    The frames are stacked into one (sum T_i, d_in) array, so the per-frame
    layer is a single matrix product over real frames only. Pooling then
    reduces a (B, T_max, d_hidden) array of the hidden activations, zero
    after each sample's last frame. When all samples have T_max frames it is
    a view of the stack; otherwise the stack is copied into it once.
    - the mean is the column sum over frames divided by T_i. Reducing the
      middle axis adds the rows one after another in frame order, as
      summing each sample's own rows does, and the trailing zero rows change
      no sum, so the result is that of a per-sample sum bit for bit. The
      exception is d_hidden = 1: the frame axis is then contiguous, numpy
      sums it pairwise, and a ragged batch rounds differently (within 1e-12);
    - the max is the column peak itself; ReLU output is never below the zero
      padding, so padding cannot raise it. Which frame reached it is left to
      ForwardCache.max_row.
    A caller that only needs Z and P should drop the cache at once
    (forward_batch(...)[:2]): it holds the hidden activations.
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
    hidden = np.maximum(pre, 0.0, out=pre)

    b, t_max = len(frame_sets), int(lengths.max())
    if b * t_max == hidden.shape[0]:
        padded = hidden.reshape(b, t_max, shape.d_hidden)
    else:
        padded = np.zeros((b, t_max, shape.d_hidden))
        padded[np.arange(t_max) < lengths[:, None]] = hidden
    mn = padded.sum(axis=1) / lengths[:, None]
    peak = padded.max(axis=1)

    pooled = np.concatenate([peak, mn], axis=1)
    z = pooled @ params.w2.T + params.b2
    p = z @ params.w3.T + params.b3

    cache = ForwardCache(frames, lengths, starts, hidden, padded, peak, pooled, z,
                         shape.n_params)
    return z, p, cache


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

    # One BLAS product over the stacked frames. It adds them in blocked
    # order, not one after another, so it rounds unlike a per-frame sum
    # (within 1e-12 relative); b1's column sum still adds in frame order.
    grad.w1[:] = d_pre.T @ cache.frames
    grad.b1[:] = d_pre.sum(axis=0)
    return grad


def ema_transfer(theta_m: ModelParams, theta_f: ModelParams, m: float) -> ModelParams:
    """Exponential moving average transfer: m*theta_m + (1-m)*theta_f."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"EMA ratio must lie in [0, 1], got {m}")
    if theta_m.shape != theta_f.shape:
        raise ValueError("parameter layouts differ")
    return ModelParams(theta_m.shape, m * theta_m.flat + (1.0 - m) * theta_f.flat)


def optimizer_step(params: ModelParams, grad: GradVector, velocity: np.ndarray,
                   lr: float, momentum: float):
    """One momentum-SGD step; returns (new_params, new_velocity, applied delta).

    The velocity buffer shares the parameter layout. The returned delta is
    exactly what was added: new = old + delta bit for bit, so traces
    reconstruct parameters without rounding slack.
    """
    if params.shape != grad.shape:
        raise ValueError("gradient layout does not match parameters")
    velocity = momentum * velocity + grad.flat
    delta = -lr * velocity
    return ModelParams(params.shape, params.flat + delta), velocity, delta


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
        write_header(fh, header)
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, header dict)."""
    with open(path, "rb") as fh:
        header = read_header(fh, path, "checkpoint", CHECKPOINT_FORMAT_VERSION,
                             dict.fromkeys(("d_in", "d_hidden", "d_emb", "n_classes",
                                            "n_params"), int))
        blob = fh.read()
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
