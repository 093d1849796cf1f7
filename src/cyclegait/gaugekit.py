"""Evaluation and analysis: rank-1 evaluation of a test split (rank1 holds
the gallery/probe protocol), feature variance statistics, memorization
curves, the closed-form check of the EMA parameter recurrence, and the
forward-pass cost model.

The recurrence check takes a trace's records as a re-iterable of
(delta_f, delta_m) pairs with a len(), such as the TraceRecords that
cyclic.read_trace returns. Each replay and the closed form make one pass
and read each pair once, so they hold a few parameter vectors however long
the trace is.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import cyclic
from .gaitgen import CONDITIONS, FLAG_CLEAN
from .setnet import ModelParams, forward_batch


class EvalStructureError(ValueError):
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

    def to_json_dict(self) -> dict:
        return {
            "conditions": list(self.conditions),
            "views": list(self.views),
            "cells": {f"{c}:{v}": self.cells[(c, v)] for c, v in self.cells},
            "condition_means": dict(self.condition_means),
            "overall_mean": self.overall_mean,
            "gallery_size": self.gallery_size,
            "probe_size": self.probe_size,
            "exclude_same_view": True,  # rank1 always excludes same-view matches
        }

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write("probe," + ",".join(str(v) for v in self.views) + ",Mean\n")
        for c in self.conditions:
            # a view with no probe of this condition leaves its cell empty
            row = [f"{self.cells[(c, v)]:.6f}" if (c, v) in self.cells else ""
                   for v in self.views]
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


def rank1(z, test_samples) -> EvalReport:
    """Rank-1 retrieval accuracy of a test split's embeddings z (one row per
    sample), per (probe condition, probe view), plus plain means of the cells.

    The gallery is the first NM sequence per (identity, view) in file order,
    and every other sequence probes (split_gallery_probe). A probe's
    candidates are the gallery entries of other views: same-view matches are
    excluded. It takes the candidate at the least Euclidean distance; ties
    resolve to the lowest gallery index (nearest_gallery_entry).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or len(z) != len(test_samples):
        raise ValueError("z must hold one embedding row per test sample")
    g_idx, p_idx = split_gallery_probe(test_samples)
    probes = [test_samples[i] for i in p_idx]
    g_ids = np.array([test_samples[i].identity for i in g_idx])
    g_views = np.array([test_samples[i].view for i in g_idx])
    p_ids = np.array([s.identity for s in probes])
    p_views = np.array([s.view for s in probes])

    admissible = g_views[None, :] != p_views[:, None]
    hit = g_ids[nearest_gallery_entry(z[g_idx], z[p_idx], admissible)] == p_ids

    hits: dict = {}
    totals: dict = {}
    for s, h in zip(probes, hit.tolist()):
        key = (s.condition, int(s.view))
        totals[key] = totals.get(key, 0) + 1
        hits[key] = hits.get(key, 0) + int(h)

    conditions = tuple(c for c in CONDITIONS if any(k[0] == c for k in totals))
    views = tuple(sorted({k[1] for k in totals}))
    cells = {(c, v): 100.0 * hits[(c, v)] / totals[(c, v)]
             for c in conditions for v in views if (c, v) in totals}
    condition_means = {
        c: float(np.mean([cells[(c, v)] for v in views if (c, v) in cells]))
        for c in conditions
    }
    return EvalReport(
        conditions=conditions,
        views=views,
        cells=cells,
        condition_means=condition_means,
        overall_mean=float(np.mean(list(cells.values()))),
        gallery_size=len(g_idx),
        probe_size=len(p_idx),
    )


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


def variance_stats(features, ids, conditions) -> dict:
    """Intra-class (optionally condition-restricted) and total feature variance
    (traces of biased covariances), keyed intra_class, intra_class_nm_bg,
    intra_class_cl and total in that order."""
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
    return {
        "intra_class": _mean_class_variance(f, ids, everything),
        "intra_class_nm_bg": _mean_class_variance(f, ids, nm_bg),
        "intra_class_cl": _mean_class_variance(f, ids, cl),
        "total": total,
    }


def embed_samples(params: ModelParams, samples, batch: int = 256):
    """Embeddings and logits for whole sequences (no augmentation)."""
    zs, ps = [], []
    for lo in range(0, len(samples), batch):
        chunk = samples[lo : lo + batch]
        z, p = forward_batch([s.frames for s in chunk], params)[:2]  # no backward: drop the cache
        zs.append(z)
        ps.append(p)
    return np.concatenate(zs), np.concatenate(ps)


def memorization_curve(snapshots, samples) -> list:
    """Accuracy of argmax logits vs the assigned label per parameter snapshot,
    separately on the ground-truth-clean and ground-truth-noisy subsets: one
    (iteration, clean accuracy, noisy accuracy) row per snapshot, the noisy
    accuracy None when the set has no noisy samples."""
    if not snapshots:
        raise ValueError("no snapshots")
    labels = np.array([s.identity for s in samples], dtype=int)
    noisy = np.array([s.noise_flag != FLAG_CLEAN for s in samples], dtype=bool)
    rows = []
    for it, params in snapshots:
        _, logits = embed_samples(params, samples)
        correct = logits.argmax(axis=1) == labels
        noisy_acc = float(correct[noisy].mean()) if noisy.any() else None
        rows.append((int(it), float(correct[~noisy].mean()), noisy_acc))
    return rows


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


def verify_ema_closed_form(theta0_f, theta0_m, records, m: float) -> float:
    """Max elementwise relative deviation between replay and closed form,
    each one pass over the (delta_f, delta_m) pairs of records; a replayed
    entry below 1e-12 in magnitude is divided by 1e-12."""
    _, replayed = replay_recurrence(theta0_f, theta0_m, records, m)
    direct = closed_form_theta_m(theta0_f, theta0_m, records, m)
    denom = np.maximum(np.abs(replayed), 1e-12)
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
    header, records = cyclic.read_trace(trace_path)
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
    """rank1's gallery/probe split of a test split: (gallery indices, probe
    indices). Raises ValueError when either is empty, and EvalStructureError
    when a probe has no gallery entry of another view to match."""
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
    g_views = {test_samples[i].view for i in gallery}
    for n, i in enumerate(probe):
        s = test_samples[i]
        if len(g_views) == 1 and s.view in g_views:  # no gallery entry of another view
            raise EvalStructureError(f"probe {n} (id {s.identity}, view {s.view}, "
                                     f"{s.condition}) has no admissible gallery entry")
    return gallery, probe


def evaluate_checkpoint(params: ModelParams, test_samples) -> EvalReport:
    """Full retrieval evaluation of a model on a test split."""
    z, _ = embed_samples(params, test_samples)
    return rank1(z, test_samples)
