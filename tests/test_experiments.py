"""The acceptance judges of experiments.py on hand-made results: each pass
condition at its boundary, without training anything."""

import math

import pytest

from cyclegait.bench_cli import ABLATION_CELLS
from experiments import SEEDS5, judge_c06, judge_c07, judge_c08, judge_c09


def c06_means(gains):
    return {seed: {"supervised": 30.0, "full": 30.0 + g} for seed, g in zip(SEEDS5, gains)}


class TestJudgeC06:
    def test_line_of_the_measured_gains(self):
        outcome = judge_c06(c06_means([-0.8, 3.3, -4.6, 0.0, 2.1]), 66.0)
        assert outcome.line == (
            "[FAIL] C6 split-noise robustness gap: CL gain full-vs-supervised per seed: "
            "-0.8, +3.3, -4.6, +0.0, +2.1; 1/5 seeds >= +3.0, runs took 1.1 min (<20)")

    def test_a_gain_of_exactly_three_is_a_win(self):
        outcome = judge_c06(c06_means([3.0, 3.0, 3.0, 3.0, 0.0]), 60.0)
        assert outcome.ok and outcome.numbers["wins"] == 4
        assert outcome.line.startswith("[PASS] C6 ")

    def test_three_wins_of_five_fail(self):
        outcome = judge_c06(c06_means([3.0, 3.0, 3.0, 2.9, 0.0]), 60.0)
        assert not outcome.ok and outcome.numbers["wins"] == 3

    @pytest.mark.parametrize("elapsed, ok", [(20 * 60 - 1, True), (20 * 60, False)])
    def test_twenty_minutes_or_more_fail(self, elapsed, ok):
        assert judge_c06(c06_means([3.0] * 5), elapsed).ok is ok


def c07_table(cl=None, overall=None):
    """A grid table: CL 27.5 and overall 36.1 in every cell, selfsup overall
    3.8, apart from the cells given."""
    table = {}
    for cell, _ in ABLATION_CELLS:
        rest = 3.8 if cell.startswith("selfsup") else 36.1
        table[cell] = {"NM": (50.0, 0.0), "BG": (40.0, 0.0),
                       "CL": ((cl or {}).get(cell, 27.5), 0.0),
                       "overall": ((overall or {}).get(cell, rest), 0.0)}
    return table


class TestJudgeC07:
    @pytest.mark.parametrize("full_cl, ok", [(27.5, True), (27.5 - 5e-10, True),
                                             (27.5 - 1e-8, False)])
    def test_equal_cl_means_pass_through_the_tolerance(self, full_cl, ok):
        outcome = judge_c07(c07_table(cl={"full": full_cl}))
        assert outcome.ok is ok and outcome.numbers["ordering"] is ok

    def test_ordering_needs_each_step(self):
        assert not judge_c07(c07_table(cl={"supervised": 28.0})).ok

    @pytest.mark.parametrize("selfsup, ok", [(29.9, True), (30.0, False)])
    def test_separation_is_strict(self, selfsup, ok):
        outcome = judge_c07(c07_table(overall={"full-no-and": 30.0, "selfsup+cyclic": selfsup}))
        assert outcome.ok is ok and outcome.numbers["separation"] is ok

    def test_line_of_the_measured_table(self):
        table = c07_table(cl={"full": 30.2})
        assert judge_c07(table).line == (
            "[PASS] C7 ablation ordering: CL means: full=30.2 >= supervised+cyclic=27.5 >= "
            "supervised=27.5; worst supervised overall 36.1 > best selfsup overall 3.8")


WIN = [(0, 0.0, 0.0), (100, 0.95, 0.2), (200, 1.0, 1.0)]
TIE = [(0, 0.0, 0.0), (100, 1.0, 1.0)]
NEVER = [(0, 0.0, 0.0), (100, 1.0, math.nan)]  # the noisy curve never reaches 90%


class TestJudgeC08:
    def test_four_wins_pass(self):
        outcome = judge_c08(dict(zip(SEEDS5, [WIN, WIN, WIN, WIN, TIE])))
        assert outcome.ok and outcome.numbers["wins"] == 4
        assert "seed 5: clean@100 vs noisy@100" in outcome.line

    @pytest.mark.parametrize("lost", [TIE, NEVER], ids=["equal-iterations", "never-reached"])
    def test_a_tie_or_an_unreached_curve_loses_the_seed(self, lost):
        outcome = judge_c08(dict(zip(SEEDS5, [WIN, WIN, WIN, lost, lost])))
        assert not outcome.ok and outcome.numbers["wins"] == 3


def c09_rows(precision):
    """Six metrics rows whose second half holds a NaN precision, a row without
    one, and precision."""
    return [{"noise_precision": 0.0}] * 3 + [{"noise_precision": math.nan}, {},
                                             {"noise_precision": precision}]


class TestJudgeC09:
    def test_nan_and_missing_precisions_are_skipped(self):
        outcome = judge_c09({seed: c09_rows(0.5) for seed in SEEDS5}, [1.0] * 60)
        assert outcome.ok and outcome.numbers["precisions"] == [0.5] * 5

    def test_precision_floor_is_one_and_a_half_times_the_rate_as_computed(self):
        # 1.5 * 0.2 is 0.30000000000000004, so a precision of 0.3 falls short
        assert not judge_c09({seed: c09_rows(0.3) for seed in SEEDS5}, [1.0] * 60).ok
        assert judge_c09({seed: c09_rows(0.31) for seed in SEEDS5}, [1.0] * 60).ok

    @pytest.mark.parametrize("kept, ok", [([0.0] * 10 + [1.0] * 50, True),
                                          ([1.0] * 10 + [0.89] * 50, False)])
    def test_kept_fraction_over_the_last_fifty(self, kept, ok):
        assert judge_c09({seed: c09_rows(0.5) for seed in SEEDS5}, kept).ok is ok
