"""Scalar training losses with analytic gradients.

Four losses feed the weighted combination
    combined = sigma0 * consistency + sigma1 * ce + sigma2 * triplet + sigma3 * contrastive
whose weights TrainerConfig.sigmas_at in cyclic.py gives per iteration. Every
gradient here is exact (finite-difference checked in the tests).
"""

from __future__ import annotations

import numpy as np


class BatchStructureError(ValueError):
    """A batch violates the structural contract of a loss (sampler bug)."""


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def batch_coteach(p_m: np.ndarray, p_f: np.ndarray):
    """Soft cross-entropy of each F-network logit row against the M-network
    row's distribution, averaged over the batch.

    Returns (mean loss, grad wrt p_f rows, grad wrt p_m rows); gradients are
    already divided by the batch size so they differentiate the mean.
    """
    if p_m.shape != p_f.shape:
        raise ValueError("logit batches must have equal shapes")
    b = p_m.shape[0]
    a = softmax_rows(p_m)
    sm_f = softmax_rows(p_f)
    log_f = log_softmax_rows(p_f)
    per_sample = -np.sum(a * log_f, axis=1)
    grad_f = (sm_f - a) / b
    grad_m = a * (-log_f - per_sample[:, None]) / b
    return float(per_sample.mean()), grad_f, grad_m


def per_sample_ce(p: np.ndarray, labels) -> np.ndarray:
    """(B,) cross-entropy of each logit row against its label."""
    return -log_softmax_rows(p)[np.arange(p.shape[0]), np.asarray(labels, dtype=int)]


def batch_ce(p: np.ndarray, labels) -> tuple:
    """Cross-entropy of each logit row against its label, averaged over the
    batch; grads include the 1/B."""
    labels = np.asarray(labels, dtype=int)
    b = p.shape[0]
    loss = float(per_sample_ce(p, labels).mean())
    grad = softmax_rows(p)
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


def _pairwise_distances(embeddings: np.ndarray):
    """Euclidean distances from the Gram expansion, and where they are
    resolved. A squared distance of at most (d + 2) eps (|e_i|^2 + |e_j|^2)
    is within the expansion's rounding error, where two equal rows land, so
    it tells nothing about the pair's direction."""
    sq = np.sum(embeddings**2, axis=1)
    scale = sq[:, None] + sq[None, :]
    d2 = scale - 2.0 * embeddings @ embeddings.T
    resolved = d2 > (embeddings.shape[1] + 2) * np.finfo(np.float64).eps * scale
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2), resolved


def has_valid_triplet(labels) -> bool:
    """Whether the labels hold two classes and a class with two members. A
    sort rather than a bincount, so any integer ids work, large or negative."""
    s = np.sort(np.asarray(labels))
    return s.size > 0 and bool(s[0] != s[-1]) and bool((s[1:] == s[:-1]).any())


def triplet_loss(embeddings, labels, margin: float = 0.2):
    """Batch-all triplet loss with Euclidean distances.

    Mean of hinge(d(a,p) - d(a,n) + margin) over triplets whose hinge is
    strictly positive or NaN; zero when every valid triplet already satisfies
    the margin, NaN (loss and gradient) when a hinge is NaN. Returns (loss,
    per-embedding gradients).

    Hinges are formed only for anchor-positive pairs, a row of B candidate
    negatives each, in the (a, p, n) order of the full cube, so the mean
    adds the same terms in the same order. With c[a, j] the active triplets
    that take (a, j) as positive pair minus those that take it as negative
    pair, over the active count, and w = c / d (0 where d is not resolved),
    row i's gradient is sum_j (w[i, j] + w[j, i]) (e_i - e_j). It is formed
    as e * (w.sum(1) + w.sum(0))[:, None] - (w + w.T) @ e, without the
    (B, B, d) difference cube; that rounds differently, within 1e-12
    relative to max|e| / d_min, the largest term it adds.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if e.ndim != 2 or e.shape[0] != labels.shape[0]:
        raise ValueError("embeddings must be (B, d) with one label per row")
    if not has_valid_triplet(labels):
        raise BatchStructureError(
            "no valid (anchor, positive, negative) triplet in batch"
        )
    b = e.shape[0]
    dist, resolved = _pairwise_distances(e)
    same = labels[:, None] == labels[None, :]
    anchor, positive = np.nonzero(same & ~np.eye(b, dtype=bool))  # row-major (a, p)

    hinge = dist[anchor, positive][:, None] - dist[anchor] + margin  # (pair, n)
    active = ~same[anchor] & ~(hinge <= 0.0)  # a NaN hinge is active: NaN in, NaN out
    n_active = np.count_nonzero(active)
    if n_active == 0:
        return 0.0, np.zeros_like(e)
    loss = float(hinge[active].sum() / n_active)

    # coefficient on each pair distance: +count over n for (a,p), -count over p for (a,n)
    coeff = np.zeros((b, b))
    coeff[anchor, positive] = np.count_nonzero(active, axis=1)
    coeff -= (np.arange(b)[:, None] == anchor).astype(np.float64) @ active  # pairs -> anchors
    coeff /= n_active

    w = coeff * np.divide(1.0, dist, out=np.zeros_like(dist), where=resolved)
    return loss, e * (w.sum(axis=1) + w.sum(axis=0))[:, None] - (w + w.T) @ e


def batch_mil_loss(embeddings, labels, temperature: float = 1.0):
    """Mean contrastive loss over every sample that has an in-batch positive.

    Embeddings are used as given (normalize upstream). Samples without any
    same-label peer are skipped as queries but still serve as keys. Returns
    (loss, per-embedding gradients, number of queries).
    """
    e = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    b = e.shape[0]
    if b == 0:
        return 0.0, np.zeros_like(e), 0
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(b, dtype=bool)
    neg_mask = ~same
    is_query = pos_mask.any(axis=1)
    n_queries = int(is_query.sum())
    if n_queries == 0:
        return 0.0, np.zeros_like(e), 0

    sim = e @ e.T / temperature
    key_mask = pos_mask | neg_mask
    shifted = np.where(key_mask, sim, -np.inf)
    shift = shifted.max(axis=1, keepdims=True)
    shift[~is_query] = 0.0
    w = np.where(key_mask, np.exp(sim - shift), 0.0)
    s_pos = (w * pos_mask).sum(axis=1)
    s_all = (w * key_mask).sum(axis=1)
    losses = np.where(is_query, -np.log(np.where(is_query, s_pos / np.where(s_all > 0, s_all, 1.0), 1.0)), 0.0)
    loss = float(losses.sum() / n_queries)

    # d(loss_i)/d(sim_ij): positives get (-w/s_pos + w/s_all), negatives w/s_all
    d_sim = np.zeros((b, b))
    rows = is_query
    with np.errstate(invalid="ignore", divide="ignore"):
        d_sim += np.where(pos_mask, -w / s_pos[:, None] + w / s_all[:, None], 0.0)
        d_sim += np.where(neg_mask, w / s_all[:, None], 0.0)
    d_sim[~rows] = 0.0
    d_sim /= temperature * n_queries
    grads = d_sim @ e + d_sim.T @ e
    return loss, grads, n_queries

