"""Reference implementations the tests compare the package against, and
the audit helpers only tests use.

The references are the plain, slower forms of computations that `src/`
carries in a faster shape, each next to the fast one:
- per-sample losses, softmax and the single-set forward pass, next to
  their row-vectorized or batched versions;
- the per-sample pooling loop and the zero-padded set encoder, next to the
  batch-pooled ragged one;
- the frame-by-frame einsum for w1's gradient, next to the BLAS product,
  and the (B, B, d) difference cube of the triplet gradient, next to its
  two matrix products;
- the per-probe rank-1 search and the whole retrieval protocol spelled
  out one probe at a time, next to the chunked ones;
- the sequence-by-sequence dataset generator, next to the one that builds
  each identity's sequences as one block;
- the three-write trace record, the whole-trace reader and the
  (N, P)-array replay and closed form, next to the streamed ones;
- the sieve's sample-by-sample keep floor, next to its one indexed
  assignment;
- the ablation grid that regenerated the dataset for every cell, next to
  the one that regenerates it once.
The audit helpers are readers that only tests need: the generator's latent
geometry and its nearest-prototype oracle, a manifest as format 1 wrote it, a
bundle's class count and frame width, and the first iteration a curve
reaches a target.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from cyclegait.bench_cli import ABLATION_CELLS
from cyclegait.cyclic import run_training
from cyclegait import gaitgen
from cyclegait.gaitgen import (
    CONDITIONS,
    DATASET_FORMAT_VERSION,
    SequenceSample,
    _condition_offset,
    build_geometry,
    regenerate_from_manifest,
)
from cyclegait.gaugekit import EvalReport, EvalStructureError, evaluate_checkpoint
from cyclegait.lossbank import BatchStructureError, _pairwise_distances, has_valid_triplet
from cyclegait.numkit import _DRAW_BLOCK, RngStream
from cyclegait.setnet import GradVector, ModelParams, forward_batch


def as_vec(values) -> np.ndarray:
    """Coerce to a 1-D float64 vector without copying when already one."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def softmax(logits) -> np.ndarray:
    """lossbank.softmax_rows for one logit vector.

    Output entries are nonnegative and sum to 1 within 1e-12 for any finite
    input; adding a constant to all logits does not change the result.
    """
    v = as_vec(logits)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("softmax input must be finite")
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


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


def coteach_loss(p_m, p_f):
    """lossbank.batch_coteach for one sample: soft cross-entropy of the
    F-network prediction against the M-network.

    Returns (loss, grad wrt p_f, grad wrt p_m).
    """
    p_m = np.asarray(p_m, dtype=np.float64)
    p_f = np.asarray(p_f, dtype=np.float64)
    if p_m.shape != p_f.shape or p_m.ndim != 1:
        raise ValueError("logit vectors must be 1-D and equally sized")
    if p_m.size < 2:
        raise ValueError("need at least two classes")
    a = softmax(p_m)  # teacher distribution
    b = softmax(p_f)
    log_b = p_f - p_f.max()
    log_b = log_b - np.log(np.exp(log_b).sum())
    loss = float(-np.sum(a * log_b))
    grad_f = b - a
    grad_m = a * (-log_b - loss)
    return loss, grad_f, grad_m


def mil_loss(q, positives, negatives, temperature: float = 1.0):
    """lossbank.batch_mil_loss for one query with explicit key sets.

    loss = -log( sum_pos exp(q.k/t) / (sum_pos exp(q.k/t) + sum_neg exp(q.k/t)) )

    Returns (loss, grad_q, grad_positives, grad_negatives). An empty negative
    set gives exactly zero loss; an empty positive set is a caller bug.
    """
    q = np.asarray(q, dtype=np.float64)
    pos = np.asarray(positives, dtype=np.float64).reshape(-1, q.size)
    neg = (
        np.asarray(negatives, dtype=np.float64).reshape(-1, q.size)
        if len(negatives)
        else np.zeros((0, q.size))
    )
    if pos.shape[0] == 0:
        raise BatchStructureError("contrastive query needs at least one positive")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")

    s_pos = pos @ q / temperature
    s_neg = neg @ q / temperature
    shift = max(s_pos.max(), s_neg.max() if s_neg.size else -np.inf)
    w_pos = np.exp(s_pos - shift)
    w_neg = np.exp(s_neg - shift) if s_neg.size else np.zeros(0)
    s_sum = w_pos.sum() + w_neg.sum()
    loss = float(-np.log(w_pos.sum() / s_sum))

    # d loss / d score
    d_pos = (-w_pos / w_pos.sum() + w_pos / s_sum) / temperature
    d_neg = (w_neg / s_sum) / temperature if w_neg.size else np.zeros(0)

    grad_q = d_pos @ pos + (d_neg @ neg if d_neg.size else 0.0)
    grad_pos = d_pos[:, None] * q[None, :]
    grad_neg = d_neg[:, None] * q[None, :] if d_neg.size else np.zeros_like(neg)
    return loss, grad_q, grad_pos, grad_neg


@dataclass(frozen=True)
class NetOutputs:
    """Per-sample embedding and class logits."""

    z: np.ndarray
    p: np.ndarray


def forward(frames, params: ModelParams) -> NetOutputs:
    """setnet.forward_batch for one sample; frames is a (T, d_in) array or
    list of vectors."""
    fs = np.asarray(frames, dtype=np.float64)
    if fs.ndim != 2:
        raise ValueError("frames must be a (T, d_in) array")
    z, p, _ = forward_batch([fs], params)
    return NetOutputs(z[0], p[0])


@dataclass
class LoopedCache:
    """The activations setnet.backward_batch reads, with the max-pool
    routing and the ReLU mask built at once by looped_forward_batch."""

    frames: np.ndarray  # (sum T_i, d_in)
    lengths: np.ndarray  # (B,)
    relu_on: np.ndarray  # (sum T_i, d_hidden) bool
    max_row: np.ndarray  # (B, d_hidden)
    pooled: np.ndarray  # (B, 2*d_hidden)
    z: np.ndarray  # (B, d_emb)
    n_params: int


def looped_forward_batch(frame_sets, params: ModelParams):
    """setnet.forward_batch with each sample pooled on its own, one loop
    pass per sample over its row range of the stacked frames.

    The mean's sum adds the sample's rows one after another in frame order;
    the max row is the first of the sample's frames to reach the max (an
    argmax, so a NaN column routes to its first NaN), and the max is read
    from that row. The cache is a LoopedCache, on which
    setnet.backward_batch runs unchanged.
    """
    shape = params.shape
    lengths = np.array([fs.shape[0] for fs in frame_sets])
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    frames = np.concatenate(frame_sets)

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

    cache = LoopedCache(frames, lengths, relu_on, max_row, pooled, z, shape.n_params)
    return z, p, cache


def einsum_backward_batch(cache, params: ModelParams, d_z, d_p) -> GradVector:
    """setnet.backward_batch with w1's gradient as an einsum that adds the
    frames one after another, in frame order, instead of a BLAS product."""
    grad = GradVector.zeros(params.shape)
    d_z = np.asarray(d_z, dtype=np.float64)
    d_p = np.asarray(d_p, dtype=np.float64)
    grad.w3[:] = d_p.T @ cache.z
    grad.b3[:] = d_p.sum(axis=0)
    d_z_total = d_z + d_p @ params.w3
    grad.w2[:] = d_z_total.T @ cache.pooled
    grad.b2[:] = d_z_total.sum(axis=0)
    d_pooled = d_z_total @ params.w2

    h = params.shape.d_hidden
    d_hidden = np.repeat(d_pooled[:, h:] / cache.lengths[:, None], cache.lengths, axis=0)
    d_hidden[cache.max_row, np.arange(h)] += d_pooled[:, :h]
    d_pre = d_hidden * cache.relu_on
    grad.w1[:] = np.einsum("td,th->dh", cache.frames, d_pre).T
    grad.b1[:] = d_pre.sum(axis=0)
    return grad


def cube_triplet_loss(embeddings, labels, margin: float = 0.2):
    """lossbank.triplet_loss with the gradient summed over the (B, B, d)
    cube of weighted row differences w[i, j] (e_i - e_j); a weight takes
    1/d wherever the Gram-form distance is positive."""
    e = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if not has_valid_triplet(labels):
        raise BatchStructureError("no valid (anchor, positive, negative) triplet in batch")
    b = e.shape[0]
    dist, _ = _pairwise_distances(e)
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(b, dtype=bool)
    neg_mask = ~same

    hinge = dist[:, :, None] - dist[:, None, :] + margin  # (a, p, n)
    active = pos_mask[:, :, None] & neg_mask[:, None, :] & (hinge > 0.0)
    n_active = int(active.sum())
    if n_active == 0:
        return 0.0, np.zeros_like(e)
    loss = float(hinge[active].sum() / n_active)

    coeff = np.zeros((b, b))
    coeff += active.sum(axis=2)
    coeff -= active.sum(axis=1)
    coeff /= n_active
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(dist > 0.0, 1.0 / np.where(dist > 0.0, dist, 1.0), 0.0)
    w = coeff * inv
    w_diff = w[:, :, None] * (e[:, None, :] - e[None, :, :])
    return loss, w_diff.sum(axis=1) - w_diff.sum(axis=0)


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
    put_along_axis. w1's gradient is the same BLAS product over the real
    frames' rows, gathered from the padded layout in frame order."""
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

    grad.w1[:] = d_pre[cache.mask].T @ cache.frames[cache.mask]
    grad.b1[:] = d_pre.sum(axis=(0, 1))
    return grad


def keep_floor(mask, ce, floor_n: int) -> np.ndarray:
    """sieve.adapt_mask's keep floor one sample at a time: unmask samples in
    CE order, ties by index, until floor_n are kept."""
    mask = np.array(mask, dtype=bool)
    for idx in np.lexsort((np.arange(len(ce)), ce)):  # CE asc, index asc
        if mask.sum() >= floor_n:
            break
        mask[idx] = True
    return mask


def nearest_gallery_entry(gallery_features, probe_features, admissible):
    """gaugekit.nearest_gallery_entry one probe at a time: the norms of the
    probe's differences to its admissible gallery entries, and their first
    argmin."""
    nearest = np.empty(len(probe_features), dtype=np.intp)
    for i, adm in enumerate(admissible):
        d = np.linalg.norm(gallery_features[adm] - probe_features[i], axis=1)
        nearest[i] = np.flatnonzero(adm)[int(np.argmin(d))]
    return nearest


def rank1(z, samples) -> EvalReport:
    """gaugekit.rank1 one probe at a time: the gallery is the first NM
    sequence per (identity, view), every other sequence probes, and a probe
    is a hit when its nearest other-view gallery entry, by np.linalg.norm
    with the first minimum on ties, has its identity."""
    gallery, probes = [], []
    for i, s in enumerate(samples):
        first_nm = s.condition == "NM" and all(
            (samples[g].identity, samples[g].view) != (s.identity, s.view) for g in gallery)
        (gallery if first_nm else probes).append(i)
    if not gallery or not probes:
        raise ValueError("test split does not contain both gallery and probe sequences")
    hits, totals = {}, {}
    for n, i in enumerate(probes):
        probe = samples[i]
        candidates = [g for g in gallery if samples[g].view != probe.view]
        if not candidates:
            raise EvalStructureError(
                f"probe {n} (id {probe.identity}, view {probe.view}, {probe.condition}) "
                "has no admissible gallery entry")
        d = [np.linalg.norm(z[g] - z[i]) for g in candidates]
        nearest = candidates[int(np.argmin(d))]
        key = (probe.condition, probe.view)
        totals[key] = totals.get(key, 0) + 1
        hits[key] = hits.get(key, 0) + int(samples[nearest].identity == probe.identity)
    conditions = tuple(c for c in CONDITIONS if any(c == k[0] for k in totals))
    views = tuple(sorted({k[1] for k in totals}))
    cells = {}
    for c in conditions:
        for v in views:
            if (c, v) in totals:
                cells[(c, v)] = 100.0 * hits[(c, v)] / totals[(c, v)]
    condition_means = {}
    for c in conditions:
        condition_means[c] = float(np.mean([cells[k] for k in cells if k[0] == c]))
    return EvalReport(conditions=conditions, views=views, cells=cells,
                      condition_means=condition_means,
                      overall_mean=float(np.mean(list(cells.values()))),
                      gallery_size=len(gallery), probe_size=len(probes))


def per_sequence_clean_dataset(n_ids, n_views, condition_groups, frames_per_seq, d_in, seed):
    """gaitgen.make_clean_dataset as one loop over the sequences, on the same
    draws and the same geometry constants (read at call time, so a patched
    constant moves both): each sequence's offset, jitter and view rotation
    are applied on their own, to a frame array of its own. Same signature and
    result, so a test can patch it in."""
    geom = build_geometry(n_ids, n_views, d_in, seed)
    root = RngStream(seed)
    samples = []
    for identity in range(n_ids):
        s = root.child(4).child(identity)
        for condition in CONDITIONS:
            for _group in range(condition_groups.get(condition, 0)):
                for view in range(n_views):
                    seq_off, s = s.normal(d_in, gaitgen.SEQ_JITTER)
                    noise, s = s.normal(frames_per_seq * d_in, gaitgen.FRAME_JITTER)
                    base = (
                        geom.prototypes[identity]
                        + _condition_offset(geom, identity, condition)
                        + seq_off
                    )
                    frames = base + noise.reshape(frames_per_seq, d_in)
                    frames = frames @ geom.rotations[view].T
                    samples.append(
                        SequenceSample(frames, identity, condition, view, identity)
                    )
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "generator": {
            "n_ids": n_ids,
            "n_views": n_views,
            "condition_groups": dict(condition_groups),
            "frames_per_seq": frames_per_seq,
            "d_in": d_in,
            "seed": seed,
        },
        "corruptions": [],
    }
    return samples, manifest


def augment_frame_sets(frame_sets, spec, rng):
    """gaitgen.augment_frame_sets as one loop over the samples, on the same
    draws: each sample's keep mask, min_frames fallback and jitter are built
    on its own."""
    b = len(frame_sets)
    t_max = max(f.shape[0] for f in frame_sets)
    d = frame_sets[0].shape[1]
    u, rng = rng.uniform(b * t_max)
    u = u.reshape(b, t_max)
    jitter, rng = rng.normal(b * (t_max + 1) * d, spec.jitter_sigma)
    jitter = jitter.reshape(b, t_max + 1, d)

    out = []
    for i, frames in enumerate(frame_sets):
        t = frames.shape[0]
        keep = np.ones(t, dtype=bool)
        if spec.drop_prob > 0.0 and t > spec.min_frames:
            ui = u[i, :t]
            keep = ui >= spec.drop_prob
            if keep.sum() < spec.min_frames:
                order = np.argsort(-ui, kind="stable")
                keep = np.zeros(t, dtype=bool)
                keep[order[: spec.min_frames]] = True
        out.append(frames[keep] + jitter[i, :t][keep] if spec.jitter_sigma > 0.0
                   else frames[keep])
    return out, rng


def philox_generator(stream, draw_block: int):
    """The generator of an RngStream built by advancing a fresh Philox by
    block * draw_block draws."""
    key = np.array([stream.seed & (2**64 - 1), stream.stream & (2**64 - 1)], dtype=np.uint64)
    bg = np.random.Philox(key=key)
    bg.advance(stream.block * draw_block)
    return np.random.Generator(bg)


def fresh_generator(stream):
    """RngStream._generator as a freshly constructed Philox per draw, keyed
    (seed, stream) with its counter at block * _DRAW_BLOCK; it has the
    signature of the method, so a test can patch it in."""
    key = np.array([stream.seed & (2**64 - 1), stream.stream & (2**64 - 1)], dtype=np.uint64)
    start = stream.block * _DRAW_BLOCK
    if start > 2**64 - 1:
        raise ValueError(f"draw block {stream.block} is past the end of the stream")
    return np.random.Generator(np.random.Philox(key=key, counter=[start, 0, 0, 0]))


def trace_write(writer, k, delta_f, delta_m):
    """TraceWriter.write as three writes: the struct-packed index, then the
    float64 bytes of each delta; it has the signature of the method, so a
    test can patch it in."""
    import struct

    writer._fh.write(struct.pack("<Q", k))
    writer._fh.write(np.asarray(delta_f, dtype="<f8").tobytes())
    writer._fh.write(np.asarray(delta_m, dtype="<f8").tobytes())


def read_trace(path):
    """cyclic.read_trace drawn to the end, as a per-record reader into two
    zeroed (N, P) arrays; the first fault met while reading raises."""
    import json
    import struct

    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format_version") != 1:
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


def replay_recurrence(theta0_f, theta0_m, deltas_f, deltas_m, m: float):
    """gaugekit.replay_recurrence over two (N, P) arrays, with a fresh vector
    per step."""
    tf = np.array(theta0_f, dtype=np.float64, copy=True)
    tm = np.array(theta0_m, dtype=np.float64, copy=True)
    for df, dm in zip(deltas_f, deltas_m):
        tm = m * tm + (1.0 - m) * tf + dm
        tf = tf + df
    return tf, tm


def closed_form_theta_m(theta0_f, theta0_m, deltas_f, deltas_m, m: float):
    """gaugekit.closed_form_theta_m over two (N, P) arrays, from the full
    (N, P) array of weighted terms, summed over its rows."""
    deltas_f = np.asarray(deltas_f, dtype=np.float64)
    deltas_m = np.asarray(deltas_m, dtype=np.float64)
    n = deltas_f.shape[0]
    theta0_f = np.asarray(theta0_f, dtype=np.float64)
    theta0_m = np.asarray(theta0_m, dtype=np.float64)
    if n == 0:
        return theta0_m.copy()
    powers = np.array([m ** (n - k) for k in range(1, n + 1)])
    weighted = powers[:, None] * deltas_m + (1.0 - powers)[:, None] * deltas_f
    return theta0_f + (m**n) * (theta0_m - theta0_f) + weighted.sum(axis=0)


def per_cell_ablation(cfg, bundle, seeds) -> dict:
    """bench_cli.run_ablation with a fresh regeneration of the dataset from
    bundle's manifest for every cell and seed: {cell: {condition: (mean, std)}}."""
    table = {}
    for cell_name, overrides in ABLATION_CELLS:
        scores = {key: [] for key in ("NM", "BG", "CL", "overall")}
        for seed in seeds:
            data = regenerate_from_manifest(bundle.manifest)
            cell_cfg = dataclasses.replace(cfg, **overrides, seed=seed)
            result = run_training(data, cell_cfg)
            report = evaluate_checkpoint(result.params_f, data.test)
            for c in ("NM", "BG", "CL"):
                scores[c].append(report.condition_means.get(c, float("nan")))
            scores["overall"].append(report.overall_mean)
        table[cell_name] = {key: (float(np.mean(vals)), float(np.std(vals)))
                            for key, vals in scores.items()}
    return table


def first_reach_iteration(iterations, values, target: float):
    """First iteration at which the curve reaches the target value."""
    for it, v in zip(iterations, values):
        if v >= target:
            return it
    return None


def geometry_of(manifest: dict):
    """Latent geometry of a dataset, regenerated from its manifest."""
    gen = manifest["generator"]
    return build_geometry(gen["n_ids"], gen["n_views"], gen["d_in"], gen["seed"])


def format_1_manifest(manifest: dict) -> dict:
    """manifest as format 1 wrote it: the generator's geometry, at the values
    that are now gaitgen's constants, recorded beside its sizes."""
    geometry = {"rotated_planes": 7, "view_angle": 1.5707963267948966, "frame_jitter": 0.12,
                "seq_jitter": 0.12, "bg_scale": 0.35, "cl_common_scale": 1.1,
                "cl_id_scale": 0.1, "cl_matrix_scale": 0.05, "cl_attenuation": 0.0}
    return {**manifest, "format_version": 1,
            "generator": {**manifest["generator"], "geometry": geometry}}


def nearest_prototype_ids(samples, geom) -> np.ndarray:
    """Oracle classifier: unrotate the mean frame, pick the nearest prototype."""
    preds = np.zeros(len(samples), dtype=int)
    for k, s in enumerate(samples):
        mean_frame = s.frames.mean(axis=0)
        unrotated = geom.rotations[s.view].T @ mean_frame
        dists = np.linalg.norm(geom.prototypes - unrotated, axis=1)
        preds[k] = int(np.argmin(dists))
    return preds


def n_train_classes(bundle) -> int:
    """Class count of a bundle's train split: its largest identity plus one."""
    return max(s.identity for s in bundle.train) + 1


def d_in(bundle) -> int:
    """Frame width of a bundle."""
    return bundle.train[0].frames.shape[1]
