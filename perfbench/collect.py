"""Run the benchmark repeatedly and write a baseline file.

    python3 perfbench/collect.py --runs 10 --out perfbench/BENCH_baseline.json

For every workload in BENCHMARK.json: ``--runs`` untraced runs, each with
another seed, and two traced runs.  It records each end-to-end metric's
median, quartiles and spread (quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives them), the same for the raw
wall-time figures that the run rescaled (``raw``), the per-layer metrics of
the first traced run, and whether the exact counts repeat between the two
traced runs.  Runs are interleaved across workloads so slow drift of the
machine spreads over all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# deterministic given the instance set and pinned BLAS
EXACT_COUNTS = ("sdp.solve.calls", "sdp.ipm_iters", "srocr.rounds",
                "optimizer.outer_iters_mean")


def run_once(spec, workload, seed, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((BENCH / "results" /
                         f"{workload}_seed{seed}_trace{trace}.json").read_text())
    result["raw_metrics"] = record["raw_metrics"]
    print(f"{workload} seed={seed} trace={trace}: "
          + ", ".join(f"{k}={v['value']:.6g}" for k, v in
                      list(result["metrics"].items())[:8]), flush=True)
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    untraced = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            untraced[name].append(run_once(spec, name, seed, 0))
    traced = {name: [run_once(spec, name, seed, 1) for seed in seeds[:2]]
              for name in names}

    report = {"command": spec["command"], "run_seconds": spec["run_seconds"],
              "seeds": seeds, "workloads": {}}
    for name in names:
        e2e = {}
        for metric in spec["end_to_end"]:
            stats = summarize([r["metrics"][metric["name"]]["value"]
                               for r in untraced[name]])
            stats.update(unit=metric["unit"], better=metric["better"],
                         bound=metric["bound"])
            if metric["name"] in untraced[name][0]["raw_metrics"]:
                stats["raw"] = summarize(
                    [r["raw_metrics"][metric["name"]]["value"]
                     for r in untraced[name]])
            e2e[metric["name"]] = stats
        first, second = (t["metrics"] for t in traced[name])
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in untraced[name] + traced[name]),
            "failed": sum(r["failed"] for r in untraced[name]),
            "attempted": sum(r["attempted"] for r in untraced[name]),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in first.items()},
            "exact_counts_repeat": all(first[k]["value"] == second[k]["value"]
                                       for k in EXACT_COUNTS),
        }
        for metric, stats in e2e.items():
            raw = stats.get("raw")
            print(f"{name:15s} {metric:16s} median={stats['median']:.6g} "
                  f"spread={stats['spread'] if stats['spread'] is None else round(stats['spread'], 4)} "
                  f"bound={stats['bound']}"
                  + (f" raw median={raw['median']:.6g} raw spread="
                     f"{round(raw['spread'], 4)}" if raw else ""))
        print(f"{name}: exact counts repeat: "
              f"{report['workloads'][name]['exact_counts_repeat']}")

    environ = BENCH / "results" / f"{names[0]}_seed{seeds[0]}_trace0.json"
    report["environment"] = json.loads(environ.read_text())["environment"]
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
