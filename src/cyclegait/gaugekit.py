"""Evaluation and analysis: rank-1 retrieval, feature variance statistics,
memorization curves, the closed-form check of the EMA parameter recurrence,
and the forward-pass cost model.

The recurrence check takes a trace's records as a re-iterable of
(delta_f, delta_m) pairs with a len(), such as the TraceRecords that
cyclic.read_trace returns. Each replay and the closed form make one pass
and read each pair once, so they hold a few parameter vectors however long
the trace is.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass

import numpy as np

from .gaitgen import CONDITIONS, FLAG_CLEAN
from .setnet import ModelParams, forward_batch


class EvalStructureError(RuntimeError):
    """A probe has no admissible gallery entry under the exclusion policy."""


@dataclass
class EvalReport:
    """Per-(probe condition, probe view) rank-1 percentages plus means."""

    conditions: tuple
    views: tuple
    cells: dict  # (condition, view) -> percentage
    condition_means: dict  # condition -> percentage
    overall_mean: float
    gallery_size: int
    probe_size: int
    exclude_same_view: bool

    def to_json_dict(self) -> dict:
        return {
            "conditions": list(self.conditions),
            "views": list(self.views),
            "cells": {f"{c}:{v}": self.cells[(c, v)] for c, v in self.cells},
            "condition_means": dict(self.condition_means),
            "overall_mean": self.overall_mean,
            "gallery_size": self.gallery_size,
            "probe_size": self.probe_size,
            "exclude_same_view": self.exclude_same_view,
        }

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write("probe," + ",".join(str(v) for v in self.views) + ",Mean\n")
        for c in self.conditions:
            row = [f"{self.cells[(c, v)]:.6f}" for v in self.views]
            out.write(f"{c}," + ",".join(row) + f",{self.condition_means[c]:.6f}\n")
        out.write(
            "Overall," + ",".join("" for _ in self.views) + f",{self.overall_mean:.6f}\n"
        )
        return out.getvalue()


# probes per distance block in rank1: the (chunk, gallery, d) difference
# array holds 64 x 80 x 32 floats (1.3 MB) at eval size, not all probes'
PROBE_CHUNK = 64


def nearest_gallery_entry(gallery_features, probe_features, admissible) -> np.ndarray:
    """Index of each probe's nearest admissible gallery entry.

    admissible is a (probes, gallery) bool array with at least one True per
    row. Distances are Euclidean, taken for PROBE_CHUNK probes at a time;
    each is the same norm of the same differences that one probe on its own
    would take, so the choice matches a per-probe search bit for bit: the
    first minimum among the admissible entries, the first NaN if one is
    there, and the first admissible entry when all of them are at +inf.
    """
    nearest = np.empty(len(probe_features), dtype=np.intp)
    for lo in range(0, len(probe_features), PROBE_CHUNK):
        chunk = probe_features[lo : lo + PROBE_CHUNK]
        adm = admissible[lo : lo + PROBE_CHUNK]
        # np.linalg.norm's products and reduction, squared in place
        d = gallery_features[None] - chunk[:, None]
        d = np.sqrt(np.add.reduce(np.multiply(d, d, out=d), axis=2))
        d[~adm] = np.inf
        best = d.argmin(axis=1)
        all_inf = np.isposinf(d[np.arange(len(d)), best])
        best[all_inf] = adm[all_inf].argmax(axis=1)
        nearest[lo : lo + PROBE_CHUNK] = best
    return nearest


def rank1(gallery_features, gallery_ids, gallery_views,
          probe_features, probe_ids, probe_views, probe_conditions,
          exclude_same_view: bool = True) -> EvalReport:
    """Nearest-neighbor rank-1 accuracy per (probe condition, probe view).

    Distances are Euclidean; when exclusion is on, gallery entries sharing
    the probe's view are inadmissible. Ties resolve to the lowest gallery
    index. Means are plain arithmetic means of their constituent cells.
    """
    g_feat = np.asarray(gallery_features, dtype=np.float64)
    p_feat = np.asarray(probe_features, dtype=np.float64)
    if g_feat.size == 0 or p_feat.size == 0:
        raise ValueError("gallery and probe must both be nonempty")
    if g_feat.shape[1] != p_feat.shape[1]:
        raise ValueError("gallery and probe feature dimensions differ")
    g_ids = np.asarray(gallery_ids)
    g_views = np.asarray(gallery_views)
    p_ids = np.asarray(probe_ids)
    p_views = np.asarray(probe_views)
    p_conds = list(probe_conditions)

    if exclude_same_view:
        admissible = g_views[None, :] != p_views[:, None]
    else:
        admissible = np.ones((len(p_ids), len(g_ids)), bool)
    no_entry = np.flatnonzero(~admissible.any(axis=1))
    if no_entry.size:
        i = int(no_entry[0])
        raise EvalStructureError(
            f"probe {i} (id {p_ids[i]}, view {p_views[i]}, {p_conds[i]}) "
            "has no admissible gallery entry"
        )
    hit = g_ids[nearest_gallery_entry(g_feat, p_feat, admissible)] == p_ids

    hits: dict = {}
    totals: dict = {}
    for c, v, h in zip(p_conds, p_views.tolist(), hit.tolist()):
        key = (c, int(v))
        totals[key] = totals.get(key, 0) + 1
        hits[key] = hits.get(key, 0) + int(h)

    conditions = tuple(c for c in CONDITIONS if any(k[0] == c for k in totals))
    views = tuple(sorted({k[1] for k in totals}))
    cells = {}
    for c in conditions:
        for v in views:
            key = (c, v)
            if key in totals:
                cells[key] = 100.0 * hits[key] / totals[key]
    condition_means = {
        c: float(np.mean([cells[(c, v)] for v in views if (c, v) in cells]))
        for c in conditions
    }
    overall = float(np.mean(list(cells.values())))
    return EvalReport(
        conditions=conditions,
        views=views,
        cells=cells,
        condition_means=condition_means,
        overall_mean=overall,
        gallery_size=len(g_ids),
        probe_size=len(p_ids),
        exclude_same_view=exclude_same_view,
    )


@dataclass
class VarianceStats:
    """Feature-spread statistics (trace of biased covariances)."""

    intra_class: float
    intra_class_nm_bg: float
    intra_class_cl: float
    total: float

    def as_dict(self) -> dict:
        return asdict(self)


def _mean_class_variance(features, ids, keep) -> float:
    """Mean over classes of the trace of the biased per-class covariance.

    Classes with a single (or no) retained sample contribute variance 0 and
    no retained sample means the class is skipped.
    """
    per_class = []
    for cid in np.unique(ids):
        sel = (ids == cid) & keep
        if not sel.any():
            continue
        pts = features[sel]
        centered = pts - pts.mean(axis=0)
        per_class.append(float((centered**2).sum(axis=1).mean()))
    return float(np.mean(per_class)) if per_class else 0.0


def variance_stats(features, ids, conditions) -> VarianceStats:
    """Intra-class (optionally condition-restricted) and total feature variance."""
    f = np.asarray(features, dtype=np.float64)
    ids = np.asarray(ids)
    conds = np.asarray(list(conditions))
    if f.shape[0] == 0:
        raise ValueError("no features")
    if not (f.shape[0] == ids.shape[0] == conds.shape[0]):
        raise ValueError("features, ids and conditions must align")
    everything = np.ones(f.shape[0], dtype=bool)
    nm_bg = (conds == "NM") | (conds == "BG")
    cl = conds == "CL"
    centered = f - f.mean(axis=0)
    total = float((centered**2).sum(axis=1).mean())
    return VarianceStats(
        intra_class=_mean_class_variance(f, ids, everything),
        intra_class_nm_bg=_mean_class_variance(f, ids, nm_bg),
        intra_class_cl=_mean_class_variance(f, ids, cl),
        total=total,
    )


@dataclass
class MemCurve:
    """Train accuracy against assigned labels, split by ground-truth noise."""

    iterations: tuple
    clean_accuracy: tuple
    noisy_accuracy: tuple | None  # None when the set has no noisy samples

    def rows(self):
        for i, it in enumerate(self.iterations):
            noisy = self.noisy_accuracy[i] if self.noisy_accuracy is not None else None
            yield it, self.clean_accuracy[i], noisy


def embed_samples(params: ModelParams, samples, batch: int = 256):
    """Embeddings and logits for whole sequences (no augmentation)."""
    zs, ps = [], []
    for lo in range(0, len(samples), batch):
        chunk = samples[lo : lo + batch]
        z, p = forward_batch([s.frames for s in chunk], params)[:2]  # no backward: drop the cache
        zs.append(z)
        ps.append(p)
    return np.concatenate(zs), np.concatenate(ps)


def memorization_curve(snapshots, samples) -> MemCurve:
    """Accuracy of argmax logits vs the assigned label per parameter snapshot,
    separately on the ground-truth-clean and ground-truth-noisy subsets."""
    if not snapshots:
        raise ValueError("no snapshots")
    labels = np.array([s.identity for s in samples], dtype=int)
    noisy = np.array([s.noise_flag != FLAG_CLEAN for s in samples], dtype=bool)
    iters, clean_acc, noisy_acc = [], [], []
    for it, params in snapshots:
        _, logits = embed_samples(params, samples)
        pred = logits.argmax(axis=1)
        correct = pred == labels
        iters.append(int(it))
        clean_acc.append(float(correct[~noisy].mean()))
        if noisy.any():
            noisy_acc.append(float(correct[noisy].mean()))
    return MemCurve(
        iterations=tuple(iters),
        clean_accuracy=tuple(clean_acc),
        noisy_accuracy=tuple(noisy_acc) if noisy.any() else None,
    )


# ---------------------------------------------------------------------------
# closed-form verification of the EMA parameter recurrence


def replay_recurrence(theta0_f, theta0_m, records, m: float):
    """Step-by-step replay: theta_m <- m*theta_m + (1-m)*theta_f + delta_m,
    theta_f <- theta_f + delta_f, for each (delta_f, delta_m) pair of records
    in order. Returns (final theta_f, final theta_m).

    Both vectors are updated in place, left to right in the order written,
    with one reused vector for the (1-m)*theta_f term, so each pair is read
    once and may be a view that the next draw overwrites."""
    tf = np.array(theta0_f, dtype=np.float64, copy=True)
    tm = np.array(theta0_m, dtype=np.float64, copy=True)
    term = np.empty_like(tf)
    for df, dm in records:
        tm *= m
        tm += np.multiply(1.0 - m, tf, out=term)
        tm += dm
        tf += df
    return tf, tm


def closed_form_theta_m(theta0_f, theta0_m, records, m: float):
    """Direct evaluation of the geometric-weight closed form over the N =
    len(records) (delta_f, delta_m) pairs of records:

    theta_N^m = theta_0^f + m^N (theta_0^m - theta_0^f)
                + sum_k [ m^(N-k) delta_k^m + (1 - m^(N-k)) delta_k^f ]

    The sum is a running total: it starts from the k = 1 term and adds the
    terms in order k = 2..N through two reused term vectors, so each pair is
    read once and no per-record vector is allocated.
    """
    n = len(records)
    theta0_f = np.asarray(theta0_f, dtype=np.float64)
    theta0_m = np.asarray(theta0_m, dtype=np.float64)
    powers = np.array([m ** (n - k) for k in range(1, n + 1)])
    pairs = iter(records)
    first = next(pairs, None)
    if first is None:
        return theta0_m.copy()
    df, dm = first
    total = powers[0] * dm + (1.0 - powers[0]) * df
    term_m, term_f = np.empty_like(total), np.empty_like(total)
    for k, (df, dm) in enumerate(pairs, start=1):
        np.multiply(powers[k], dm, out=term_m)
        np.multiply(1.0 - powers[k], df, out=term_f)
        total += np.add(term_m, term_f, out=term_m)
    return theta0_f + (m**n) * (theta0_m - theta0_f) + total


def verify_ema_closed_form(theta0_f, theta0_m, records, m: float,
                           floor: float = 1e-12) -> float:
    """Max elementwise relative deviation between replay and closed form,
    each one pass over the (delta_f, delta_m) pairs of records."""
    _, replayed = replay_recurrence(theta0_f, theta0_m, records, m)
    direct = closed_form_theta_m(theta0_f, theta0_m, records, m)
    denom = np.maximum(np.abs(replayed), floor)
    return float(np.max(np.abs(replayed - direct) / denom))


def verify_trace_file(trace_path, theta0_f: ModelParams, theta0_m: ModelParams,
                      final_f: ModelParams, final_m: ModelParams) -> dict:
    """Verify a recorded training trace against the closed form.

    Returns a report with the max relative deviation of the closed form from
    the replayed recurrence, and whether the replayed endpoints match the
    final checkpoints bit for bit. Every checkpoint must hold the trace's
    parameter count.
    The records stream from the file on each of three passes (two replays
    and the closed form), so memory stays at about one read chunk plus a
    few parameter vectors, whatever the trace's length.
    """
    from .cyclic import read_trace

    header, records = read_trace(trace_path)
    m = float(header["momentum"])
    n_params = int(header["n_params"])
    for name, params in (("initial F", theta0_f), ("initial M", theta0_m),
                         ("final F", final_f), ("final M", final_m)):
        if params.flat.size != n_params:
            raise ValueError(
                f"trace layout ({n_params} parameters) does not match the {name} "
                f"checkpoint ({params.flat.size} parameters)"
            )
    deviation = verify_ema_closed_form(theta0_f.flat, theta0_m.flat, records, m)
    rep_f, rep_m = replay_recurrence(theta0_f.flat, theta0_m.flat, records, m)
    return {
        "iterations": int(header["iterations"]),
        "n_params": n_params,
        "momentum": m,
        "max_relative_deviation": deviation,
        "endpoint_f_matches": bool(np.array_equal(rep_f, final_f.flat)),
        "endpoint_m_matches": bool(np.array_equal(rep_m, final_m.flat)),
    }


def cost_model(batch_size: int, noise_rate: float):
    """Expected forward passes per iteration: (small-loss co-teaching,
    two-network scheme with augmentation, without augmentation)."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if not 0.0 <= noise_rate < 1.0:
        raise ValueError("noise rate must lie in [0, 1)")
    n = batch_size
    return (2.0 * n * (2.0 - noise_rate), 2.0 * n, float(n))


# ---------------------------------------------------------------------------
# gallery/probe protocol


def split_gallery_probe(test_samples):
    """Gallery = the first NM sequence per (identity, view) in file order;
    everything else probes. Returns (gallery indices, probe indices)."""
    seen = set()
    gallery, probe = [], []
    for i, s in enumerate(test_samples):
        key = (s.identity, s.view)
        if s.condition == "NM" and key not in seen:
            seen.add(key)
            gallery.append(i)
        else:
            probe.append(i)
    if not gallery or not probe:
        raise ValueError("test split does not contain both gallery and probe sequences")
    return gallery, probe


def evaluate_checkpoint(params: ModelParams, test_samples) -> EvalReport:
    """Full retrieval evaluation of a model on a test split."""
    z, _ = embed_samples(params, test_samples)
    return evaluate_embeddings(z, test_samples)


def evaluate_embeddings(z, test_samples) -> EvalReport:
    """Retrieval evaluation from the embeddings z of a test split, same-view
    matches excluded."""
    g_idx, p_idx = split_gallery_probe(test_samples)
    return rank1(
        z[g_idx],
        [test_samples[i].identity for i in g_idx],
        [test_samples[i].view for i in g_idx],
        z[p_idx],
        [test_samples[i].identity for i in p_idx],
        [test_samples[i].view for i in p_idx],
        [test_samples[i].condition for i in p_idx],
    )
