"""Tests of the benchmark itself, at a tiny run length.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("sdp.solve.calls", "sdp.ipm_iters", "srocr.rounds",
                "optimizer.outer_iters_mean")


def run(workload, seed, trace, root=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(workload, 3, trace)
        assert proc.returncode == 0, proc.stderr
        out = result_of(proc)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
        units = {name: m["unit"] for name, m in out["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
        if trace == 0:
            assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs(workload):
    first, second = (result_of(run(workload, seed, 1))["metrics"]
                     for seed in (1, 2))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["sdp.solve.calls"]["value"] > 0


def _copy_bench(dst: Path):
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(BENCH, dst / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))


def test_fails_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    proc = run(WORKLOADS[0], 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("key,index,message", [
    ("se_bps_hz", 0, "reference SE"),
    # at the run length of these tests, 1 s, solve-pathloss has 10 instances
    ("mean_se_bps_hz", "10", "mean SE"),
])
def test_failed_check_exits_nonzero(tmp_path, key, index, message):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = tmp_path / BENCH.name / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref[key]["solve-pathloss"][index] *= 1.001
    ref_path.write_text(json.dumps(ref))
    proc = run("solve-pathloss", 1, 0, root=tmp_path)
    assert proc.returncode == 1
    assert result_of(proc)["correct"] is False
    assert message in proc.stderr


@pytest.mark.parametrize("kind", ["solve", "sweep"])
def test_infeasible_result_counted_once(monkeypatch, kind):
    sys.path.insert(0, str(BENCH))
    import env
    env.use_checkout_source()
    import workloads
    from ris_crn import experiments, optimizer

    real = optimizer.run_algorithm1

    def infeasible(*args, **kwargs):
        result = real(*args, **kwargs)
        result.feasible = False
        return result

    tally, meter = workloads.Tally(), workloads.Speedometer()
    if kind == "solve":
        monkeypatch.setattr(optimizer, "run_algorithm1", infeasible)
        wl = workloads.WORKLOADS["solve-pathloss"]
        workloads.solve_pass(wl.scenario(), [0, 1], tally, meter)
    else:
        monkeypatch.setattr(experiments, "run_algorithm1", infeasible)
        wl = workloads.WORKLOADS["sweep-tilt"]
        spec = experiments.SweepSpec(kind="tilt", grid=(-30.0,), trials=2,
                                     base_seed=0, methods=("proposed",),
                                     overrides=wl.overrides)
        workloads.sweep_pass(spec, tally, meter, record=True)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert not tally.problems
