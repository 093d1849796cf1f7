"""Reference implementations the tests compare the package against.

These are the plain, slower forms of computations that `src/` carries in a
faster shape: per-sample losses and scores next to their row-vectorized
versions, and the zero-padded set encoder next to the ragged one.
"""

from dataclasses import dataclass

import numpy as np

from cyclegait.numkit import as_vec, softmax
from cyclegait.setnet import GradVector, ModelParams


def entropy(p) -> float:
    """Shannon entropy in nats of a probability vector, with 0*ln(0) = 0."""
    v = as_vec(p)
    if v.size == 0:
        raise ValueError("entropy of an empty vector")
    if np.any(v < 0.0):
        raise ValueError("entropy input has a negative entry")
    total = v.sum()
    if not np.isfinite(total) or abs(total - 1.0) > 1e-9:
        raise ValueError(f"entropy input sums to {total!r}, not 1")
    nz = v[v > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def ce_loss(p, y: int):
    """Cross-entropy of logits against a class index; grad = softmax - onehot."""
    p = np.asarray(p, dtype=np.float64)
    if not 0 <= y < p.size:
        raise ValueError(f"label {y} out of range for {p.size} classes")
    probs = softmax(p)
    log_p = p - p.max()
    log_p = log_p - np.log(np.exp(log_p).sum())
    loss = float(-log_p[y])
    grad = probs.copy()
    grad[y] -= 1.0
    return loss, grad


@dataclass
class PaddedCache:
    """Activations of padded_forward_batch, laid out as (B, T_max, ...)."""

    frames: np.ndarray  # (B, T, d_in), zero-padded
    mask: np.ndarray  # (B, T) bool, True where a real frame sits
    relu_on: np.ndarray  # (B, T, d_hidden) bool
    max_idx: np.ndarray  # (B, d_hidden) frame index feeding the max pool
    counts: np.ndarray  # (B,) real frame counts
    pooled: np.ndarray  # (B, 2*d_hidden)
    z: np.ndarray  # (B, d_emb)


def padded_forward_batch(frame_sets, params: ModelParams):
    """setnet.forward_batch on a zero-padded (B, T_max, d_in) batch.

    Pooling masks the padding: the max reads a -inf copy and takes the
    argmax's first frame on ties, the mean sums the masked batch.
    """
    shape = params.shape
    lengths = [fs.shape[0] for fs in frame_sets]
    frames = np.zeros((len(frame_sets), max(lengths), shape.d_in))
    mask = np.zeros((len(frame_sets), max(lengths)), dtype=bool)
    for i, fs in enumerate(frame_sets):
        frames[i, : fs.shape[0]] = fs
        mask[i, : fs.shape[0]] = True

    pre = frames @ params.w1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    relu_on = pre > 0.0

    hidden_for_max = np.where(mask[:, :, None], hidden, -np.inf)
    mx = hidden_for_max.max(axis=1)
    max_idx = hidden_for_max.argmax(axis=1)

    counts = mask.sum(axis=1).astype(np.float64)
    mn = (hidden * mask[:, :, None]).sum(axis=1) / counts[:, None]

    pooled = np.concatenate([mx, mn], axis=1)
    z = pooled @ params.w2.T + params.b2
    p = z @ params.w3.T + params.b3
    return z, p, PaddedCache(frames, mask, relu_on, max_idx, counts, pooled, z)


def padded_backward_batch(cache: PaddedCache, params: ModelParams, d_z, d_p) -> GradVector:
    """setnet.backward_batch for a PaddedCache; scatters the max path with
    put_along_axis and contracts w1's gradient over (B, T)."""
    shape = params.shape
    d_z = np.asarray(d_z, dtype=np.float64)
    d_p = np.asarray(d_p, dtype=np.float64)
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

    d_hidden = np.zeros_like(cache.relu_on, dtype=np.float64)
    d_hidden += (d_mean / cache.counts[:, None])[:, None, :] * cache.mask[:, :, None]
    np.put_along_axis(
        d_hidden,
        cache.max_idx[:, None, :],
        np.take_along_axis(d_hidden, cache.max_idx[:, None, :], axis=1) + d_max[:, None, :],
        axis=1,
    )
    d_pre = d_hidden * cache.relu_on

    grad.w1[:] = np.einsum("bth,btd->hd", d_pre, cache.frames)
    grad.b1[:] = d_pre.sum(axis=(0, 1))
    return grad
