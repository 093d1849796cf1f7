"""The names the benchmark's tracer wraps must stay live.

perfbench/tracing.py replaces module attributes of cyclegait with timing
wrappers, and perfbench/workloads.py states which layers each workload must
reach. A renamed or re-imported function would leave its wrapper unused and
its per-layer counters at zero. These tests import both files unchanged and
run a tiny version of every workload's commands under the full layer map.
"""

import sys
from pathlib import Path

import pytest

from cyclegait import bench_cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# 9 train identities fill the default 8 x 4 batch the ablation grid trains with
TINY_GEN = ("--ids", "12", "--train-ids", "9", "--views", "2", "--nm", "2", "--bg", "1",
            "--cl", "1", "--frames", "6", "--seed", "3")
ITERATIONS = 4


@pytest.fixture(scope="module")
def perfbench():
    """The tracing and workloads modules, imported from perfbench/ as is and
    without writing bytecode next to them."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode
    return tracing, workloads


def run(tracer, *argv):
    """One CLI command; returns the tracer's call counts it added."""
    before = tracer.calls.copy()
    assert bench_cli.main(list(argv)) == 0, argv
    return tracer.calls - before


def test_every_pinned_layer_is_reached(perfbench, tmp_path, monkeypatch):
    tracing, workloads = perfbench
    data, runs = str(tmp_path / "data"), tmp_path / "runs"
    train = ("train", "--data", data, "--iterations", str(ITERATIONS), "--seed", "2")
    with tracing.Tracer() as tracer:
        tracing.install_layers(tracer)
        run(tracer, "gen-data", "--out", data, *TINY_GEN)
        cyclic = run(tracer, *train, "--out", str(runs / "cyclic"), "--mode", "cyclic",
                     "--and", "--trace", "--snapshot-every", "2")
        run(tracer, "eval", "--checkpoint", str(runs / "cyclic" / "model_f.ckpt"),
            "--data", data)
        verify = run(tracer, "verify-closed-form", "--run", str(runs / "cyclic"))
        grids = {n: run(tracer, "ablate", "--data", data, "--out", str(runs / f"grid{n}"),
                        "--seeds", str(n), "--iterations", "2") for n in (1, 2)}
        called = tracer.calls.copy()
        coteach = run(tracer, *train, "--out", str(runs / "coteach"),
                      "--mode", "coteach-baseline")

    for workload in (workloads.CyclicSplit, workloads.TraceVerify, workloads.AblationGrid):
        missing = [key for key in workload.expect_active if not called[key]]
        assert not missing, f"{workload.name}: never called {missing}"

    # one regeneration per grid, however many cells and seeds train on it
    for n_seeds, calls in grids.items():
        assert calls["gaitgen.regenerate"] == 1
        assert calls["bench_cli.cell"] == len(bench_cli.ABLATION_CELLS) * n_seeds

    tv = workloads.TraceVerify
    assert verify["gaugekit.replay"] == tv.replays_per_session / tv.verify_repeats

    for workload, calls in ((workloads.CyclicSplit, cyclic), (workloads.TraceVerify, cyclic),
                            (workloads.CoteachLabel, coteach)):
        assert calls["setnet.forward.train"] == workload.train_forwards_per_iter * ITERATIONS

    nonzero = {key: coteach[key] for key in workloads.CoteachLabel.expect_zero if coteach[key]}
    assert not nonzero, f"coteach-baseline reached {nonzero}"
