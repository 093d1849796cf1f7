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
of the ruled-out fraction of each batch must reach EVIDENCE_FLOOR before
anything is masked. Random label noise produces such contradictions in every
batch (the true class wins, the assigned one is implausible); hard clean
samples produce them only sporadically, so without such evidence the sieve
keeps every sample instead of masking clean ones.

The rule's knobs (smoothing, warmup, CE and entropy scales, keep floor) are
the sieve_* fields of the TrainerConfig; SieveState holds only the running
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .lossbank import log_softmax_rows, softmax_rows

if TYPE_CHECKING:
    from .cyclic import TrainerConfig

# Share of the batch on which the two networks must agree before masking can
# activate; before rough convergence the agreement flag is noise.
AGREEMENT_FLOOR = 0.5

# Running ruled-out fraction that opens the evidence gate: one contradicted
# label per 32 samples. Checked at P x K = 8x4, 4x2 and 16x4 on the split 0.6
# and label 0.2 benchmarks (see CHANGES.md for the values).
EVIDENCE_FLOOR = 1.0 / 32.0


class NoiseScores(NamedTuple):
    """Per-sample noisiness evidence for one batch, one (B,) array each."""

    entropy: np.ndarray  # of the memorizing network's predictive distribution
    ce: np.ndarray  # forgetting network's CE against the assigned label
    agree: np.ndarray  # bool: argmax agreement between the two networks
    ruled_out: np.ndarray  # bool: both agree on another class, label < 1/C


@dataclass(frozen=True)
class SieveState:
    """Running statistics; adapt_mask returns an updated copy each batch."""

    mean_entropy: float | None = None
    mean_ce: float | None = None
    mean_ruled_out: float | None = None
    iteration: int = 0
    active: bool = False


def score_arrays(logits_f: np.ndarray, logits_m: np.ndarray, labels) -> NoiseScores:
    """Noise scores of a batch from the two networks' (B, C) logit arrays."""
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
    return NoiseScores(ent, ce, agree, ruled_out)


def adapt_mask(scores: NoiseScores, state: SieveState, config: TrainerConfig):
    """Binary keep-mask over the batch plus the advanced state.

    During config.sieve_warmup iterations (and until the agreement gate
    opens) everything is kept while the running means accumulate.
    Afterwards the confident-wrong and uninformative-wrong samples are
    masked, subject to the keep floor, in every batch where the running
    ruled-out fraction meets EVIDENCE_FLOOR; the minimum-CE sample can never
    be masked, so the supervised gradient never becomes empty.
    """
    ent, ce, agree, ruled_out = scores
    b = len(ce)
    if not b:
        raise ValueError("empty batch of scores")

    active = state.active or (
        state.iteration >= config.sieve_warmup
        and state.mean_entropy is not None
        and float(agree.mean()) >= AGREEMENT_FLOOR
    )
    evidenced = state.mean_ruled_out is not None and state.mean_ruled_out >= EVIDENCE_FLOOR
    if not (active and evidenced):
        mask = np.ones(b, dtype=bool)
    else:
        high_ce = ce > config.sieve_scale * state.mean_ce
        sharp = ent <= config.sieve_entropy_scale * state.mean_entropy
        confident_wrong = agree & sharp & high_ce
        uninformative = ~agree & ~sharp & high_ce
        mask = ~(confident_wrong | uninformative)
        # never starve the supervised loss: mask at most (1 - keep_floor) of
        # the batch, and spend the masking budget on the largest-CE samples
        floor_n = max(1, int(np.ceil(config.sieve_keep_floor * b)))
        if int(mask.sum()) < floor_n:
            order = np.lexsort((np.arange(b), ce))  # CE asc, index asc
            for idx in order:
                if mask.sum() >= floor_n:
                    break
                mask[idx] = True

    def smooth(old, now):
        return now if old is None else config.sieve_beta * old + (1.0 - config.sieve_beta) * now

    new_state = SieveState(
        mean_entropy=smooth(state.mean_entropy, float(ent.mean())),
        mean_ce=smooth(state.mean_ce, float(ce.mean())),
        mean_ruled_out=smooth(state.mean_ruled_out, float(ruled_out.mean())),
        iteration=state.iteration + 1,
        active=active,
    )
    return mask, new_state


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
