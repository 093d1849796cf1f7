"""The statistical acceptance experiments C06-C09, each declared once, and one
judge per criterion.

A criterion's training is data: the bundle it reads, its seeds, and its runs
at each seed. A judge takes plain trained results (rank-1 means, the ablation
table, memorization rows, metrics rows) and returns the criterion's numbers
and its PASS/FAIL line. tests/test_acceptance.py trains through these
declarations and calls the judges; a script can do the same outside pytest:

    PYTHONPATH=src:tests python -c "import experiments"

This module imports neither pytest nor conftest.
"""

import dataclasses
import math
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from cyclegait.bench_cli import ExperimentConfig
from cyclegait.cyclic import TrainerConfig, run_training
from cyclegait.gaitgen import DatasetBundle, corrupt_bundle, make_benchmark
from reference import first_reach_iteration

SEEDS5 = (1, 2, 3, 4, 5)

# the corruptions of each bundle's train split, applied in order to
# make_benchmark(seed=1) with corruption seed 7
BUNDLES = {"clean": (), "split": (("split", 0.6),), "label": (("label", 0.2),)}


def make_bundle(name: str) -> DatasetBundle:
    """The bundle BUNDLES names."""
    bundle = make_benchmark(seed=1)
    for mode, amount in BUNDLES[name]:
        bundle = corrupt_bundle(bundle, mode, amount, seed=7)
    return bundle


@dataclasses.dataclass(frozen=True)
class Experiment:
    """A criterion's training: the bundle it reads (a key of BUNDLES), its
    seeds, and its runs by name, each config declared with the seed left at
    its default."""

    bundle: str
    seeds: tuple[int, ...]
    configs: Mapping[str, TrainerConfig]

    def runs(self, seed: int) -> dict:
        """The configs of every run at one seed, by name."""
        return {name: dataclasses.replace(config, seed=seed)
                for name, config in self.configs.items()}


# the full scheme: cyclic training with the sieve, on the noise-robust schedule
FULL = TrainerConfig(mode="cyclic", iterations=2000, schedule_profile="noisy",
                     and_enabled=True)

C06 = Experiment("split", SEEDS5, {
    "supervised": TrainerConfig(mode="supervised", iterations=2000,
                                schedule_profile="noisy"),
    "full": FULL,
})
# run_ablation trains the grid's eight cells from this one config at each seed
C07 = Experiment("split", (1, 2), {
    "grid": ExperimentConfig(iterations=2000, schedule_profile="noisy"),
})
# constant weights and constant lr: the diagnostic must not be masked by the
# noise-robust schedule it is meant to motivate
C08 = Experiment("label", SEEDS5, {
    "supervised": TrainerConfig(mode="supervised", iterations=2000,
                                schedule_profile="clean", milestones=(),
                                snapshot_every=100),
})
C09 = Experiment("label", SEEDS5, {"full": FULL})
C09_CLEAN = Experiment("clean", (1,), {
    "full": dataclasses.replace(FULL, schedule_profile="clean"),
})


def train(experiment: Experiment, bundle: DatasetBundle) -> dict:
    """{seed: {run name: TrainingResult}} of experiment on bundle, each run
    trained on its own, seeds in order."""
    return {seed: {name: run_training(bundle, config)
                   for name, config in experiment.runs(seed).items()}
            for seed in experiment.seeds}


class Verdict(NamedTuple):
    """A criterion's outcome: whether it holds, the PASS/FAIL line the
    acceptance gate prints, and the numbers behind it."""

    ok: bool
    line: str
    numbers: dict


def verdict(criterion: str, ok: bool, detail: str, **numbers) -> Verdict:
    return Verdict(ok, f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", numbers)


def judge_c06(cl_means: Mapping[int, Mapping[str, float]], elapsed: float) -> Verdict:
    """C06 from each seed's CL rank-1 means of the "supervised" and "full" F
    and the seconds their runs took: the full scheme gains at least 3.0 CL
    points in 4 of 5 seeds, in under 20 minutes."""
    gaps = [by_run["full"] - by_run["supervised"] for by_run in cl_means.values()]
    wins = sum(1 for g in gaps if g >= 3.0)
    ok = wins >= 4 and elapsed < 20 * 60
    return verdict("C6 split-noise robustness gap", ok,
                   f"CL gain full-vs-supervised per seed: "
                   + ", ".join(f"{g:+.1f}" for g in gaps)
                   + f"; {wins}/5 seeds >= +3.0, runs took {elapsed / 60:.1f} min (<20)",
                   gains=gaps, wins=wins, elapsed=elapsed)


def judge_c07(table: dict) -> Verdict:
    """C07 from run_ablation's table: full >= supervised+cyclic >= supervised
    on CL, and every supervised cell strictly above every selfsup cell
    overall."""

    def cl(cell):
        return table[cell]["CL"][0]

    def overall(cell):
        return table[cell]["overall"][0]

    sup_cells = ("supervised", "supervised+cyclic", "supervised+cyclic+and",
                 "full-no-cyclic", "full-no-and", "full")
    selfsup_cells = ("selfsup", "selfsup+cyclic")
    tol = 1e-9
    ordering = (
        cl("full") >= cl("supervised+cyclic") - tol
        and cl("supervised+cyclic") >= cl("supervised") - tol
    )
    worst_sup = min(overall(c) for c in sup_cells)
    best_selfsup = max(overall(c) for c in selfsup_cells)
    separation = worst_sup > best_selfsup
    ok = ordering and separation
    return verdict("C7 ablation ordering", ok,
                   f"CL means: full={cl('full'):.1f} >= supervised+cyclic="
                   f"{cl('supervised+cyclic'):.1f} >= supervised={cl('supervised'):.1f}; "
                   f"worst supervised overall {worst_sup:.1f} > "
                   f"best selfsup overall {best_selfsup:.1f}",
                   ordering=ordering, separation=separation, worst_supervised=worst_sup,
                   best_selfsup=best_selfsup)


def judge_c08(curves: Mapping[int, list]) -> Verdict:
    """C08 from each seed's memorization rows (iteration, clean accuracy,
    noisy accuracy): the clean subset reaches 90% of its final accuracy
    strictly earlier than the noisy one in 4 of 5 seeds."""
    wins = 0
    details = []
    for seed, rows in curves.items():
        iterations, clean, noisy = zip(*rows)
        it_clean = first_reach_iteration(iterations, clean, 0.9 * clean[-1])
        it_noisy = first_reach_iteration(iterations, noisy, 0.9 * noisy[-1])
        win = it_clean is not None and it_noisy is not None and it_clean < it_noisy
        wins += int(win)
        details.append(f"seed {seed}: clean@{it_clean} vs noisy@{it_noisy}")
    ok = wins >= 4
    return verdict("C8 degeneration-effect timing", ok,
                   f"clean subset reaches 90% of final strictly earlier in {wins}/5 seeds "
                   f"({'; '.join(details)})", wins=wins)


def judge_c09(metrics: Mapping[int, list], kept_fractions: list) -> Verdict:
    """C09 from each label-noise seed's metrics rows and the noise-free run's
    kept fraction per iteration: the masked set's precision over the second
    half of training, averaged over seeds, is at least 1.5x the noise rate,
    and the noise-free run keeps at least 90% over its last 50 iterations."""
    precisions = []
    for rows in metrics.values():
        second_half = rows[len(rows) // 2 :]
        vals = [m["noise_precision"] for m in second_half
                if "noise_precision" in m and not math.isnan(m["noise_precision"])]
        precisions.append(float(np.mean(vals)))
    mean_precision = float(np.mean(precisions))
    kept_end = float(np.mean(kept_fractions[-50:]))
    ok = mean_precision >= 1.5 * 0.2 and kept_end >= 0.9
    return verdict("C9 detection sanity floor", ok,
                   f"masked-set precision {mean_precision:.2f} (need >= 0.30, 5-seed mean; "
                   f"per-seed {', '.join(f'{p:.2f}' for p in precisions)}); "
                   f"noise-free kept_fraction at end {kept_end:.3f} (need >= 0.9)",
                   precisions=precisions, mean_precision=mean_precision, kept_end=kept_end)
