"""ris-crn benchmark runner.

    python3 perfbench/run.py --workload solve-pathloss --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py for why each was chosen): ``solve-pathloss``,
``solve-iid-n32`` and ``sweep-tilt``.  A run's instances are split into
ten rounds.

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  Each round is run at workers=1 and at workers=2, back to back.
Solve workloads time a sequential run_algorithm1 loop over the round's
instances at workers=1 and run the same instances through
run_sweep(workers=2); sweep-tilt runs the round's tilt sweep at both worker
counts.  On sweep-tilt the solve-time percentiles are over the proposed
method's run_algorithm1 calls.  setup_s is the median of seven fresh
processes that import ris_crn, build the scenario and make one warm-up
solve.

``--trace 1`` runs each round twice at workers=1 (the sweep is traced at
one worker because forked workers' spans cannot be gathered from outside
the program): once untraced, once with spans around the public entry
points of each layer.  It prints the per-layer metrics and
trace_overhead_frac.  The spans go to perfbench/results/.

The shared host's speed drifts by tens of percent within a minute, so
the end-to-end times are rescaled to a reference speed measured by a
calibration kernel that runs in this process alone (see
workloads.Speedometer).  The result file in perfbench/results/ also holds
the raw figures, every pass's timings and the kernel samples.

Every run checks each timed result (C1 and power caps, non-decreasing SE
trace, finite design), that the workers=1 and workers=2 outputs agree
exactly, that the SE of fixed reference instances and the run's mean SE
match reference.json.  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics; a failed check exits with
status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter

import env

env.use_checkout_source()
import numpy as np  # noqa: E402  (after env: BLAS threads pinned)

from spans import Tracer  # noqa: E402
from workloads import (ROUNDS, WORKLOADS, Speedometer, Tally,  # noqa: E402
                       bracketed, check_mean_se, check_reference,
                       reference_values, solve_pass, stored_mean_se,
                       sweep_pass, workload_mean_se)

SETUP_PROBES = 7


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_setup(workload: str, meter: Speedometer) -> tuple[float, float]:
    """Set-up time of fresh processes (import, scenario, warm-up): the
    median of the probes at reference speed, each rescaled by the speed
    sampled just before and after it, and the median of the raw times."""
    samples = []
    meter.burst()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        out = subprocess.run(
            [sys.executable, str(env.BENCH_DIR / "setup_probe.py"), workload],
            cwd=env.ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        end = perf_counter()
        meter.burst()
        raw = json.loads(out.stdout.splitlines()[-1])["setup_s"]
        samples.append((raw * meter.factor(start, end), raw))
    return (statistics.median(s for s, _ in samples),
            statistics.median(r for _, r in samples))


def run_pass(wl, scen, work, tally, meter, workers=1, tracer=None):
    """Time one round's instances once; see solve_pass and sweep_pass."""
    if wl.kind == "sweep":
        return sweep_pass(work, tally, meter, workers,
                          record=workers == 1 and tracer is None)
    if workers == 1:
        return solve_pass(scen, work, tally, meter, tracer)
    return sweep_pass(wl.as_sweep(work), tally, meter, workers)


def same_results(a, b) -> bool:
    """Whether two passes over one round's instances gave the same SEs."""
    if a.result is None or b.result is None:
        return a.result is None and b.result is None and a.se == b.se
    return a.result.to_csv() == b.result.to_csv()


def end_to_end(wl, scen, seed, seconds, tally, meter):
    """Untraced run: the end-to-end metrics, the same figures from raw wall
    times, and the passes' timings.

    Each round is timed at workers=1 and at workers=2, one right after the
    other, in alternating order.  Times at workers=1 are rescaled to
    reference speed call by call.  scaling_eff is the median over rounds of
    each round's efficiency from raw wall times: the two passes of a round
    run seconds apart, so the machine's speed mostly cancels, and the median
    keeps out a round during which it jumped.  Nothing rescales a workers=2
    pass on its own, so any loss from running two workers at once stays in
    scaling_eff.  trials_per_s_w2 is 2 * scaling_eff * trials_per_s_w1.
    """
    rounds = wl.rounds(seconds, seed)
    schedule = [(r, w) for r in range(ROUNDS)
                for w in ((1, 2) if r % 2 == 0 else (2, 1))]
    timed = bracketed(meter, [
        lambda r=r, w=w: run_pass(wl, scen, rounds[r], tally, meter, w)
        for r, w in schedule])
    passes = dict(zip(schedule, timed))
    w1 = [passes[r, 1] for r in range(ROUNDS)]
    w2 = [passes[r, 2] for r in range(ROUNDS)]
    for r in range(ROUNDS):
        if wl.kind == "solve":
            # the sweep harness must reproduce the client loop's SEs exactly
            mean_se = float(np.mean([w1[r].se[s] for s in sorted(w1[r].se)]))
            row = w2[r].result.rows[0] if w2[r].result is not None else None
            if row is not None and len(w1[r].se) == row.trials and (
                    row.mean_se_bps_hz != mean_se):
                tally.problems.append(
                    f"round {r}: workers=2 sweep mean SE "
                    f"{row.mean_se_bps_hz!r} != sequential mean SE {mean_se!r}")
        elif not same_results(w1[r], w2[r]):
            tally.problems.append(f"sweep round {r}: CSV differs between "
                                  "workers=1 and workers=2")
    mean_se = workload_mean_se(wl, w1)
    tally.problems.extend(check_mean_se(wl, wl.size(seconds), mean_se))
    n_tasks = wl.tasks(seconds)

    def timing(scale):
        solve_ms = [ms for p in w1 for ms in p.ms_at_ref(scale)]
        rate_w1 = n_tasks / sum(p.wall_at_ref(scale) for p in w1)
        eff = statistics.median(a.wall_s / (2 * b.wall_s) for a, b in zip(w1, w2))
        return {
            "solve_ms_p50": _metric(float(np.percentile(solve_ms, 50)), "ms"),
            "solve_ms_p90": _metric(float(np.percentile(solve_ms, 90)), "ms"),
            "trials_per_s_w1": _metric(rate_w1, "1/s"),
            "trials_per_s_w2": _metric(2 * eff * rate_w1, "1/s"),
            "scaling_eff": _metric(eff, "ratio"),
        }, len(solve_ms)

    metrics, n_calls = timing(meter)
    metrics["mean_se_bps_hz"] = _metric(mean_se or 0.0, "bps/Hz")
    raw, _ = timing(None)
    raw["passes"] = [{"round": r, "workers": w, "start": p.start, "end": p.end,
                      "wall_s": p.wall_s, "calls": p.calls}
                     for (r, w), p in passes.items()]
    return metrics, raw, n_calls


def per_layer(wl, scen, seed, seconds, tally, spans_path):
    """Traced run at workers=1: each round once untraced and once traced,
    one right after the other, in alternating order.

    trace_overhead_frac is the median over rounds of the traced pass's raw
    wall time over the untraced one's, less 1; pairing adjacent passes keeps
    the machine's drifting speed out of it.  The meter is inactive, so
    nothing but the program runs inside either pass.
    """
    rounds = wl.rounds(seconds, seed)
    tracer = Tracer()
    meter = Speedometer(active=False)

    def one_pass(r, traced):
        if not traced:
            return run_pass(wl, scen, rounds[r], tally, meter)
        with tracer.installed():
            return run_pass(wl, scen, rounds[r], tally, meter, tracer=tracer)

    passes = {(r, traced): one_pass(r, traced) for r in range(ROUNDS)
              for traced in ((False, True) if r % 2 == 0 else (True, False))}
    for r in range(ROUNDS):
        if not same_results(passes[r, False], passes[r, True]):
            tally.problems.append(f"round {r}: traced pass gave other results "
                                  "than untraced")
    tally.problems.extend(check_mean_se(wl, wl.size(seconds), workload_mean_se(
        wl, [passes[r, False] for r in range(ROUNDS)])))
    tracer.dump(spans_path)
    out = {name: _metric(value, unit)
           for name, (value, unit) in tracer.layer_metrics().items()}
    out["trace_overhead_frac"] = _metric(statistics.median(
        passes[r, True].wall_s / passes[r, False].wall_s
        for r in range(ROUNDS)) - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    wl = WORKLOADS[args.workload]
    results_dir = env.BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    meter = Speedometer(active=not args.trace)
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(wl.name, meter)
    scen = wl.scenario()
    tally = Tally()
    tally.problems.extend(check_reference(wl, reference_values(wl, scen)))

    size = wl.size(args.seconds)
    if stored_mean_se(wl, size) is None:
        print(f"# no mean SE stored for size {size}: the run's mean SE "
              "goes unchecked")
    stem = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    start = perf_counter()
    n_calls = raw = None
    if args.trace:
        metrics = per_layer(wl, scen, args.seed, args.seconds, tally,
                            results_dir / f"{stem}.spans.jsonl")
    else:
        metrics, raw, n_calls = end_to_end(wl, scen, args.seed, args.seconds,
                                           tally, meter)
        print(f"# {n_calls} timed run_algorithm1 calls")
        metrics["feasible_frac"] = _metric(
            1.0 - tally.failed / max(tally.attempted, 1), "ratio")
        metrics["setup_s"] = _metric(setup_s, "s")
        raw["setup_s"] = _metric(raw_setup_s, "s")
    measured_s = perf_counter() - start

    correct = not tally.problems
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "measured_s": measured_s,
              "solve_samples": n_calls, "speed_samples": meter.samples,
              "environment": env.environment(sys.argv),
              "correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems,
              "metrics": metrics, "raw_metrics": raw}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(f"# environment {json.dumps(record['environment'])}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
