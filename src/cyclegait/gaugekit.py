"""Evaluation and analysis: rank-1 retrieval, feature variance statistics,
memorization curves, the closed-form check of the EMA parameter recurrence,
and the forward-pass cost model.
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

    hits: dict = {}
    totals: dict = {}
    for i in range(p_feat.shape[0]):
        admissible = g_views != p_views[i] if exclude_same_view else np.ones(len(g_ids), bool)
        if not admissible.any():
            raise EvalStructureError(
                f"probe {i} (id {p_ids[i]}, view {p_views[i]}, {p_conds[i]}) "
                "has no admissible gallery entry"
            )
        d = np.linalg.norm(g_feat[admissible] - p_feat[i], axis=1)
        nearest = np.flatnonzero(admissible)[int(np.argmin(d))]
        key = (p_conds[i], int(p_views[i]))
        totals[key] = totals.get(key, 0) + 1
        hits[key] = hits.get(key, 0) + int(g_ids[nearest] == p_ids[i])

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
        z, p, _ = forward_batch([s.frames for s in chunk], params)
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


def first_reach_iteration(iterations, values, target: float):
    """First iteration at which the curve reaches the target value."""
    for it, v in zip(iterations, values):
        if v >= target:
            return it
    return None


# ---------------------------------------------------------------------------
# closed-form verification of the EMA parameter recurrence


def replay_recurrence(theta0_f, theta0_m, deltas_f, deltas_m, m: float):
    """Step-by-step replay: theta_m <- m*theta_m + (1-m)*theta_f + delta_m,
    theta_f <- theta_f + delta_f. Returns (final theta_f, final theta_m)."""
    tf = np.array(theta0_f, dtype=np.float64, copy=True)
    tm = np.array(theta0_m, dtype=np.float64, copy=True)
    for df, dm in zip(deltas_f, deltas_m):
        tm = m * tm + (1.0 - m) * tf + dm
        tf = tf + df
    return tf, tm


def closed_form_theta_m(theta0_f, theta0_m, deltas_f, deltas_m, m: float):
    """Direct evaluation of the geometric-weight closed form:

    theta_N^m = theta_0^f + m^N (theta_0^m - theta_0^f)
                + sum_k [ m^(N-k) delta_k^m + (1 - m^(N-k)) delta_k^f ]
    """
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


def verify_ema_closed_form(theta0_f, theta0_m, deltas_f, deltas_m, m: float,
                           floor: float = 1e-12) -> float:
    """Max elementwise relative deviation between replay and closed form."""
    deltas_f = np.asarray(deltas_f, dtype=np.float64)
    deltas_m = np.asarray(deltas_m, dtype=np.float64)
    if deltas_f.shape != deltas_m.shape:
        raise ValueError("delta arrays must have matching shapes")
    _, replayed = replay_recurrence(theta0_f, theta0_m, deltas_f, deltas_m, m)
    direct = closed_form_theta_m(theta0_f, theta0_m, deltas_f, deltas_m, m)
    denom = np.maximum(np.abs(replayed), floor)
    return float(np.max(np.abs(replayed - direct) / denom))


def verify_trace_file(trace_path, theta0_f: ModelParams, theta0_m: ModelParams,
                      final_f: ModelParams | None = None,
                      final_m: ModelParams | None = None) -> dict:
    """Verify a recorded training trace against the closed form.

    Returns a report with the max relative deviation and, when final
    checkpoints are supplied, whether the replayed endpoints match them
    bit for bit.
    """
    from .cyclic import read_trace

    header, deltas_f, deltas_m = read_trace(trace_path)
    m = float(header["momentum"])
    if deltas_f.shape[1] != theta0_f.flat.size:
        raise ValueError("trace layout does not match the initial checkpoint")
    deviation = verify_ema_closed_form(theta0_f.flat, theta0_m.flat, deltas_f, deltas_m, m)
    rep_f, rep_m = replay_recurrence(theta0_f.flat, theta0_m.flat, deltas_f, deltas_m, m)
    report = {
        "iterations": int(header["iterations"]),
        "n_params": int(header["n_params"]),
        "momentum": m,
        "max_relative_deviation": deviation,
    }
    if final_f is not None:
        report["endpoint_f_matches"] = bool(np.array_equal(rep_f, final_f.flat))
    if final_m is not None:
        report["endpoint_m_matches"] = bool(np.array_equal(rep_m, final_m.flat))
    return report


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


def evaluate_checkpoint(params: ModelParams, test_samples,
                        exclude_same_view: bool = True) -> EvalReport:
    """Full retrieval evaluation of a model on a test split."""
    z, _ = embed_samples(params, test_samples)
    return evaluate_embeddings(z, test_samples, exclude_same_view)


def evaluate_embeddings(z, test_samples, exclude_same_view: bool = True) -> EvalReport:
    """Retrieval evaluation from the embeddings z of a test split."""
    g_idx, p_idx = split_gallery_probe(test_samples)
    return rank1(
        z[g_idx],
        [test_samples[i].identity for i in g_idx],
        [test_samples[i].view for i in g_idx],
        z[p_idx],
        [test_samples[i].identity for i in p_idx],
        [test_samples[i].view for i in p_idx],
        [test_samples[i].condition for i in p_idx],
        exclude_same_view=exclude_same_view,
    )
