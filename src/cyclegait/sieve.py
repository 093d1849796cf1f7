"""Adaptive noise detection: score samples, mask probable noisy labels.

Scoring uses three signals per sample: the memorizing network's predictive
entropy, the forgetting network's CE against the assigned label, and argmax
agreement between the networks. A sample is masked out of the supervised
losses when the evidence says its label is wrong rather than merely hard:

  confident-wrong:      the networks agree on a sharp prediction, yet the CE
                        against the label is large (the label contradicts a
                        confident consensus);
  uninformative-wrong:  the networks disagree, the prediction is flat, and
                        the CE is large (no usable label signal at all).

Uncertain-but-consistent samples (high entropy, agreeing) are kept: they are
the hard clean cases that still need gradient. Thresholds are scaled running
means of the batch scores, so no noise-rate prior is needed. Masking only
activates once the two networks agree on at least half of a batch (before
rough convergence the agreement flag is noise), and never removes more than
half of a batch; the surviving budget is spent on the largest-CE offenders.

A large CE alone is no evidence of a wrong label. Noise that is a consistent
relabeling (clothing-split identities) is fitted early and with low CE, so
the high-CE tail is then made of hard clean samples, and a CE-ranked mask
removes exactly the clean sequences that teach invariance. The masking rule
is therefore gated on independent evidence that the labels are contradicted:
a sample is *ruled out* when both networks agree on another class and each
gives the assigned label less than chance probability 1/C. The running mean
of the ruled-out fraction of each batch must reach evidence_floor before
anything is masked. Random label noise produces such contradictions in every
batch (the true class wins, the assigned one is implausible); hard clean
samples produce them only sporadically, so without such evidence the sieve
keeps every sample instead of masking clean ones. evidence_floor = 0
disables the gate; the trainer uses EVIDENCE_FLOOR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numkit import entropy, softmax
from .lossbank import ce_loss, log_softmax_rows, softmax_rows

# Running ruled-out fraction that opens the evidence gate in training: one
# contradicted label per 32 samples. Checked at P x K = 8x4, 4x2 and 16x4
# on the split 0.6 and label 0.2 benchmarks (see CHANGES.md for the values).
EVIDENCE_FLOOR = 1.0 / 32.0


@dataclass(frozen=True)
class NoiseScore:
    """Per-sample noisiness evidence for one batch."""

    index: int
    entropy: float  # of the memorizing network's predictive distribution
    ce: float  # forgetting network's CE against the assigned label
    agree: bool  # argmax agreement between the two networks
    # both networks agree on another class and give the label < 1/C
    ruled_out: bool = False


@dataclass(frozen=True)
class SieveState:
    """Running thresholds; adapt_mask returns an updated copy each batch."""

    beta: float = 0.9
    warmup: int = 200
    threshold_scale: float = 1.5  # CE multiple of the running mean
    entropy_scale: float = 1.0  # sharp/flat boundary as a multiple of the mean
    agreement_floor: float = 0.5
    keep_floor: float = 0.5
    evidence_floor: float = 0.0  # running ruled-out fraction needed to mask
    mean_entropy: float | None = None
    mean_ce: float | None = None
    mean_ruled_out: float | None = None
    iteration: int = 0
    active: bool = False

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("smoothing factor must lie in (0, 1)")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if not 0.0 < self.keep_floor <= 1.0:
            raise ValueError("keep floor must lie in (0, 1]")
        if self.evidence_floor < 0.0:
            raise ValueError("evidence floor must be >= 0")


def score_batch(outputs_f, outputs_m, labels) -> list:
    """One NoiseScore per sample from the two networks' logits.

    outputs_f / outputs_m are sequences of NetOutputs (or anything with a .p
    logit vector); labels are the assigned class indices.
    """
    if not (len(outputs_f) == len(outputs_m) == len(labels)):
        raise ValueError("outputs_f, outputs_m and labels must align")
    scores = []
    for i, (of, om, y) in enumerate(zip(outputs_f, outputs_m, labels)):
        ent = entropy(softmax(om.p))
        ce, _ = ce_loss(of.p, int(y))
        ce_m, _ = ce_loss(om.p, int(y))
        agree = int(np.argmax(of.p)) == int(np.argmax(om.p))
        chance = np.log(len(of.p))
        ruled_out = agree and ce > chance and ce_m > chance
        scores.append(NoiseScore(i, ent, ce, agree, ruled_out))
    return scores


def score_arrays(logits_f: np.ndarray, logits_m: np.ndarray, labels) -> list:
    """Row-vectorized score_batch over (B, C) logit arrays."""
    if logits_f.shape != logits_m.shape or logits_f.shape[0] != len(labels):
        raise ValueError("logit arrays and labels must align")
    labels = np.asarray(labels, dtype=int)
    b, n_classes = logits_f.shape
    rows = np.arange(b)
    probs_m = softmax_rows(logits_m)
    ent = -np.sum(probs_m * np.log(np.maximum(probs_m, 1e-300)), axis=1)
    ce = -log_softmax_rows(logits_f)[rows, labels]
    ce_m = -np.log(np.maximum(probs_m[rows, labels], 1e-300))
    agree = logits_f.argmax(axis=1) == logits_m.argmax(axis=1)
    chance = np.log(n_classes)
    ruled_out = agree & (ce > chance) & (ce_m > chance)
    return [
        NoiseScore(i, float(ent[i]), float(ce[i]), bool(agree[i]), bool(ruled_out[i]))
        for i in range(b)
    ]


def adapt_mask(scores, state: SieveState):
    """Binary keep-mask over the batch plus the advanced state.

    During warmup (and until the agreement gate opens) everything is kept
    while the running means accumulate. Afterwards the confident-wrong and
    uninformative-wrong samples are masked, subject to the keep floor, in
    every batch where the running ruled-out fraction meets the evidence floor;
    the minimum-CE sample can never be masked, so the supervised gradient
    never becomes empty.
    """
    if not scores:
        raise ValueError("empty score list")
    ent = np.array([s.entropy for s in scores])
    ce = np.array([s.ce for s in scores])
    agree = np.array([s.agree for s in scores], dtype=bool)
    ruled_out = float(np.mean([s.ruled_out for s in scores]))

    active = state.active or (
        state.iteration >= state.warmup
        and state.mean_entropy is not None
        and float(agree.mean()) >= state.agreement_floor
    )
    evidenced = state.evidence_floor <= 0.0 or (
        state.mean_ruled_out is not None and state.mean_ruled_out >= state.evidence_floor
    )
    if not (active and evidenced):
        mask = np.ones(len(scores), dtype=bool)
    else:
        high_ce = ce > state.threshold_scale * state.mean_ce
        sharp = ent <= state.entropy_scale * state.mean_entropy
        confident_wrong = agree & sharp & high_ce
        uninformative = ~agree & ~sharp & high_ce
        mask = ~(confident_wrong | uninformative)
        # never starve the supervised loss: mask at most (1 - keep_floor) of
        # the batch, and spend the masking budget on the largest-CE samples
        floor_n = max(1, int(np.ceil(state.keep_floor * len(scores))))
        if int(mask.sum()) < floor_n:
            order = np.lexsort((np.arange(len(scores)), ce))  # CE asc, index asc
            for idx in order:
                if mask.sum() >= floor_n:
                    break
                mask[idx] = True

    batch_ent = float(ent.mean())
    batch_ce = float(ce.mean())
    if state.mean_entropy is None:
        new_ent, new_ce, new_out = batch_ent, batch_ce, ruled_out
    else:
        new_ent = state.beta * state.mean_entropy + (1.0 - state.beta) * batch_ent
        new_ce = state.beta * state.mean_ce + (1.0 - state.beta) * batch_ce
        new_out = state.beta * state.mean_ruled_out + (1.0 - state.beta) * ruled_out
    new_state = replace(
        state,
        mean_entropy=new_ent,
        mean_ce=new_ce,
        mean_ruled_out=new_out,
        iteration=state.iteration + 1,
        active=active,
    )
    return mask, new_state


def apply_mask(mask, per_sample_grads: np.ndarray) -> np.ndarray:
    """Zero the gradient rows of masked-out samples.

    The trainer builds supervised losses on the kept subset only, so masked
    samples neither receive nor emit supervised gradient; this helper is the
    row-level form of that contract for per-sample gradient stacks.
    """
    mask = np.asarray(mask, dtype=bool)
    grads = np.asarray(per_sample_grads, dtype=np.float64)
    if mask.shape[0] != grads.shape[0]:
        raise ValueError("mask length must equal the batch size")
    if not mask.any():
        raise ValueError("all-zero mask violates the adapt_mask contract")
    out = grads.copy()
    out[~mask] = 0.0
    return out


def detection_stats(mask, noise_flags) -> dict:
    """Precision/recall of the masked-out set against ground-truth noise flags."""
    mask = np.asarray(mask, dtype=bool)
    noisy = np.array([f != "clean" for f in noise_flags], dtype=bool)
    masked_out = ~mask
    n_masked = int(masked_out.sum())
    n_noisy = int(noisy.sum())
    hit = int((masked_out & noisy).sum())
    return {
        "masked": n_masked,
        "noisy": n_noisy,
        "precision": hit / n_masked if n_masked else float("nan"),
        "recall": hit / n_noisy if n_noisy else float("nan"),
        "kept_fraction": float(mask.mean()),
    }
