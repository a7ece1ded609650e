"""The three benchmark workloads and the passes that time them.

All load is a closed loop from one client: sequential library calls, the
way ``ris-crn solve`` and ``run_sweep`` are used.  The only parallelism is
``run_sweep(workers=2)``.

Each workload runs a fixed set of instances whose size follows from the
run length alone, so every count in a traced run is reproducible.  The
benchmark seed sets the order in which that set is visited (solve order,
tilt-grid order), never which instances are solved: instance difficulty
varies far more than the run-to-run noise (the slowest of 200
``solve-iid-n32`` instances took 15 times their median, and the mean SE
of 150 ``solve-pathloss`` instances moves by a quarter from one set of seeds
to the next), so a seed-dependent instance set would make the end-to-end
metrics as unsteady as that spread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ris_crn import channels, experiments, metrics, optimizer, scenario

from env import BENCH_DIR

# warm-up and reference instances, outside every timed instance set
REFERENCE_SEEDS = (1_000_000, 1_000_001)
REFERENCE_TILT_DEG = -30.0
REFERENCE_RTOL = 1e-6
REFERENCE_FILE = BENCH_DIR / "reference.json"

SLACK = 1e-6  # relative slack of the C1 and power checks
ROUNDS = 10   # rounds of a run; each round's instances are timed at
              # workers=1 and at workers=2 (traced runs: untraced and traced)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "solve": run_algorithm1 loop; "sweep": run_sweep
    overrides: dict | None
    per_second: float        # solve instances, or sweep trials per cell and
                             # round, per second of run length
    grid: tuple = ()
    methods: tuple = ("proposed",)

    def scenario(self):
        base = scenario.paper_default()
        return scenario.apply_overrides(base, self.overrides) if self.overrides else base

    def size(self, seconds: float) -> int:
        """Solve instances of a run, or sweep trials per cell and round."""
        least = ROUNDS if self.kind == "solve" else 1
        return max(least, round(self.per_second * seconds))

    def tasks(self, seconds: float) -> int:
        """Solves, or sweep trials, of a run at one worker count."""
        if self.kind == "solve":
            return self.size(seconds)
        return ROUNDS * len(self.grid) * len(self.methods) * self.size(seconds)

    def rounds(self, seconds: float, seed: int) -> list:
        """Each round's instances: instance seeds in visiting order for a
        solve workload, a SweepSpec for the sweep.  Every sweep round visits
        the tilt grid in its own order, so that which cell the workers
        finish last varies from round to round."""
        size = self.size(seconds)
        if self.kind == "solve":
            order = visit_order(size, seed)
            return [[i for i in order if chunk[0] <= i <= chunk[-1]]
                    for chunk in np.array_split(np.arange(size), ROUNDS)]
        return [experiments.SweepSpec(
                    kind="tilt", trials=size, base_seed=r * size,
                    grid=tuple(self.grid[i] for i in
                               visit_order(len(self.grid), (seed, r))),
                    methods=self.methods, overrides=self.overrides)
                for r in range(ROUNDS)]

    def as_sweep(self, seeds) -> experiments.SweepSpec:
        """A solve round as a sweep: an ``elements`` sweep at the scenario's
        own RIS size keeps the analytic tilt and runs generate_channels +
        run_algorithm1 for the seeds min(seeds)..max(seeds)."""
        return experiments.SweepSpec(kind="elements", grid=(self.scenario().n_ris,),
                                     trials=len(seeds), base_seed=min(seeds),
                                     methods=("proposed",), overrides=self.overrides)


WORKLOADS = {w.name: w for w in (
    # what `ris-crn solve` runs: path-loss Rician, analytic tilt, small SDPs.
    # A round's 20 instances make five chunks of run_sweep's four for the
    # two workers, so scaling_eff here includes that imbalance.
    Workload("solve-pathloss", "solve", None, per_second=5.0),
    # the largest SDPs (d33); C1 binds, so SDR + SROCR is always needed
    Workload("solve-iid-n32", "solve",
             {"channel": {"iid_mode": True}, "n_ris": 32}, per_second=2.5),
    # criterion-6-style tilt sweep: the only user of the experiments layer
    # and of beamformer SROCR re-solves; off-boresight tilts work hardest
    Workload("sweep-tilt", "sweep", {"channel": {"iid_mode": True}, "n_s": 4},
             per_second=0.05,
             grid=(-180.0, -150.0, -120.0, -90.0, -60.0, -30.0, 0.0),
             methods=("proposed", "random_phase")),
)}


@dataclass
class Tally:
    """Outcomes of the timed solves and trials of one run."""
    attempted: int = 0
    failed: int = 0              # exceptions plus infeasible results, each
                                 # counted once, where it is produced
    problems: list = field(default_factory=list)

    def check(self, result, chans, scen, tag):
        """Independent checks of one run_algorithm1 result.  It counts no
        failure: the loop that made the result does."""
        state = result.state
        leak = metrics.pu_interference(state, chans, scen)
        power = float(np.vdot(state.w_s, state.w_s).real)
        trace = result.se_trace
        bad = []
        if not leak <= scen.gamma_w * (1 + SLACK):
            bad.append(f"pu_interference {leak!r} > gamma {scen.gamma_w!r}")
        if not power <= scen.p_max_w * (1 + SLACK):
            bad.append(f"|w_s|^2 {power!r} > P {scen.p_max_w!r}")
        if any(b < a for a, b in zip(trace, trace[1:])):
            bad.append(f"se_trace decreases: {trace}")
        if not (np.all(np.isfinite(state.phases)) and np.all(np.isfinite(state.w_s))):
            bad.append("non-finite phases or beamformer")
        self.problems.extend(f"{tag}: {b}" for b in bad)


# -- machine speed ----------------------------------------------------------

CALIBRATION_REF_MS = 2.8   # calibration kernel time that defines unit speed
SAMPLE_EVERY_S = 0.1       # at most one calibration sample per interval
NEAREST = 8                # samples that set the speed of a short interval

_CAL_RNG = np.random.default_rng(0)
_CAL_MAT = _CAL_RNG.standard_normal((24, 24)) + 1j * _CAL_RNG.standard_normal((24, 24))
_CAL_MAT = _CAL_MAT @ _CAL_MAT.conj().T + 24 * np.eye(24)


class Speedometer:
    """Tracks the machine's speed through a run.

    The host is shared: the same solve takes 120 ms in one ten-second window
    and 190 ms in the next, and a fixed LAPACK-and-Python kernel slows down
    with it.  The kernel is sampled in this process only, while no other
    benchmark process runs: between the timed calls of a workers=1 pass and
    in bursts around every pass.  Each time is rescaled to the speed at
    which the kernel takes CALIBRATION_REF_MS.  The kernel calls no ris_crn
    code, so a change to the program cannot move it, and since it never
    runs beside a sweep worker, the cost of running two workers at once is
    never mistaken for machine speed.  BENCH_baseline.json gives the spread
    of every rescaled figure beside that of the raw one.
    """

    def __init__(self, active: bool = True):
        self.active = active       # an inactive meter never samples
        self.samples = []          # (midpoint, kernel ms)
        self.busy_s = 0.0          # time spent sampling
        self._last = -np.inf

    def sample(self, force: bool = False):
        start = perf_counter()
        if not self.active or (not force and start - self._last < SAMPLE_EVERY_S):
            return
        for _ in range(60):
            np.linalg.cholesky(_CAL_MAT)
            np.linalg.eigvalsh(_CAL_MAT)
        end = perf_counter()
        self.samples.append((0.5 * (start + end), 1e3 * (end - start)))
        self.busy_s += end - start
        self._last = end

    def burst(self):
        for _ in range(NEAREST // 2):
            self.sample(force=True)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed during [start, end]."""
        inside = [ms for t, ms in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            mid = 0.5 * (start + end)
            inside = [ms for _, ms in sorted(
                self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]]
        return CALIBRATION_REF_MS / float(np.median(inside))


@dataclass
class Pass:
    """One timed pass: a sequential solve loop or one run_sweep call."""
    start: float
    end: float
    wall_s: float           # end - start, less the time spent sampling speed
    calls: list             # (start, end, timed) of each run_algorithm1 call
                            # made in this process; timed ones count for the
                            # solve-time percentiles
    se: dict = None         # solve passes: instance seed -> final SE
    result: object = None   # sweep passes: SweepResult, None if it raised

    def wall_at_ref(self, meter: Speedometer | None) -> float:
        """Wall time at reference speed; raw wall time without a meter.

        Each run_algorithm1 call is rescaled by the speed sampled nearest to
        it, the rest of the pass by the samples inside or around the pass,
        so a step in the machine's speed halfway through a pass is tracked.
        """
        if meter is None:
            return self.wall_s
        in_calls = sum(t1 - t0 for t0, t1, _ in self.calls)
        return (sum((t1 - t0) * meter.factor(t0, t1) for t0, t1, _ in self.calls)
                + (self.wall_s - in_calls) * meter.factor(self.start, self.end))

    def ms_at_ref(self, meter: Speedometer | None) -> list[float]:
        return [1e3 * (t1 - t0) * (meter.factor(t0, t1) if meter else 1.0)
                for t0, t1, timed in self.calls if timed]


def visit_order(n: int, seed) -> list[int]:
    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


# -- solve workloads ------------------------------------------------------

def solve_pass(scen, seeds, tally: Tally, meter: Speedometer,
               tracer=None) -> Pass:
    """Sequential closed loop: draw channels, then solve, one instance at a
    time.  Results are checked after the loop, outside the timed region."""
    done, calls = [], []
    sampled = meter.busy_s
    start = perf_counter()
    for seed in seeds:
        if tracer is not None:
            tracer.request = seed
        try:
            chans = channels.generate_channels(scen, seed=seed)
            t0 = perf_counter()
            result = optimizer.run_algorithm1(chans, scen, seed=seed)
            calls.append((t0, perf_counter(), True))
        except Exception as exc:  # counted, reported, and the loop goes on
            tally.problems.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            tally.failed += 1
        else:
            done.append((seed, chans, result))
        tally.attempted += 1
        meter.sample()
    end = perf_counter()
    for seed, chans, result in done:
        tally.check(result, chans, scen, f"seed {seed}")
        tally.failed += not result.feasible
    return Pass(start, end, end - start - (meter.busy_s - sampled), calls,
                se={seed: r.se for seed, _, r in done})


# -- sweep workload -------------------------------------------------------

def sweep_pass(spec, tally: Tally, meter: Speedometer, workers: int = 1,
               record: bool = False) -> Pass:
    """One run_sweep call, pool start-up included in the timed region.

    At workers=1 every run_algorithm1 call is timed and the machine's
    speed is sampled between calls; at workers=2 the calls run in the pool
    and the speed is not sampled at all, since the kernel would run beside
    the workers.  Only the proposed method's calls count for the solve-time
    percentiles: random_phase calls are 5-10x shorter and would put the
    median between the two methods.  With ``record`` (workers=1 only) the
    results are kept for the checks, which run after the sweep.  Infeasible
    trials are counted from the sweep's rows.
    """
    n_tasks = len(spec.grid) * len(spec.methods) * spec.trials
    seen, calls = [], []
    inner = experiments.run_algorithm1

    def wrapped(chans, scen, *args, **kwargs):
        t0 = perf_counter()
        result = inner(chans, scen, *args, **kwargs)
        calls.append((t0, perf_counter(), kwargs.get("update_phases", True)))
        if record:
            seen.append((chans, scen, kwargs, result))
        meter.sample()
        return result

    if workers == 1 and (record or meter.active):
        experiments.run_algorithm1 = wrapped
    sampled = meter.busy_s
    start = perf_counter()
    try:
        result = experiments.run_sweep(spec, scenario.paper_default(),
                                       workers=workers)
    except experiments.SweepError as exc:
        tally.problems.append(f"sweep workers={workers}: {exc}")
        tally.failed += n_tasks
        result = None
    finally:
        end = perf_counter()
        experiments.run_algorithm1 = inner
    tally.attempted += n_tasks
    if result is not None:
        tally.failed += sum(row.violations for row in result.rows)
    for chans, scen, kwargs, res in seen:
        tally.check(res, chans, scen,
                    f"tilt {kwargs.get('fixed_tilt_deg')} seed {kwargs.get('seed')}")
    return Pass(start, end, end - start - (meter.busy_s - sampled), calls,
                result=result)


def bracketed(meter: Speedometer, passes) -> list:
    """Run each pass (a callable) with a burst of speed samples before and
    after it, so that every pass has samples close to it."""
    out = []
    meter.burst()
    for run_pass in passes:
        out.append(run_pass())
        meter.burst()
    return out


def workload_mean_se(wl: Workload, passes) -> float | None:
    """Mean SE over the solves of solve passes, or over the proposed trials
    of sweep passes (every cell holds the same trial count).  The values are
    summed in sorted order, so the visiting order cannot move the last bits.
    None if a sweep raised."""
    if wl.kind == "solve":
        values = [se for p in passes for se in p.se.values()]
    elif any(p.result is None for p in passes):
        return None
    else:
        values = [r.mean_se_bps_hz for p in passes for r in p.result.rows
                  if r.method == "proposed"]
    return float(np.mean(sorted(values))) if values else None


# -- warm-up and reference ------------------------------------------------

def reference_values(wl: Workload, scen) -> list[float]:
    """Solve the fixed reference instances (untimed; doubles as warm-up)."""
    if wl.kind == "solve":
        out = []
        for seed in REFERENCE_SEEDS:
            chans = channels.generate_channels(scen, seed=seed)
            out.append(optimizer.run_algorithm1(chans, scen, seed=seed).se)
        return out
    return [experiments.run_trial(scen, method, seed,
                                  fixed_tilt_deg=REFERENCE_TILT_DEG).se_bps_hz
            for method in wl.methods for seed in REFERENCE_SEEDS]


def warm_up(wl: Workload, scen):
    """One untimed solve on a seed outside the timed set."""
    if wl.kind == "solve":
        chans = channels.generate_channels(scen, seed=REFERENCE_SEEDS[0])
        optimizer.run_algorithm1(chans, scen, seed=REFERENCE_SEEDS[0])
    else:
        experiments.run_trial(scen, wl.methods[0], REFERENCE_SEEDS[0],
                              fixed_tilt_deg=REFERENCE_TILT_DEG)


def check_reference(wl: Workload, values: list[float]) -> list[str]:
    """Compare the reference SEs with those stored beside the benchmark.

    A change that alters SE on purpose updates reference.json in the open.
    """
    stored = json.loads(REFERENCE_FILE.read_text())["se_bps_hz"][wl.name]
    if len(stored) != len(values) or not np.allclose(
            values, stored, rtol=REFERENCE_RTOL, atol=0.0):
        return [f"reference SE {values} differs from stored {stored} "
                f"(rtol {REFERENCE_RTOL})"]
    return []


def stored_mean_se(wl: Workload, size: int) -> float | None:
    """The workload's mean SE stored for this instance count, if any.

    The instance set follows from the run length alone, so the mean SE of a
    run is fixed by it; reference.json holds it for the benchmark's own run
    length and for the tiny length its tests use.
    """
    stored = json.loads(REFERENCE_FILE.read_text())["mean_se_bps_hz"]
    return stored.get(wl.name, {}).get(str(size))


def check_mean_se(wl: Workload, size: int, value: float | None) -> list[str]:
    expected = stored_mean_se(wl, size)
    if value is None or expected is None:
        return []
    if not np.isclose(value, expected, rtol=REFERENCE_RTOL, atol=0.0):
        return [f"mean SE {value!r} over {size} instances differs from "
                f"stored {expected!r} (rtol {REFERENCE_RTOL})"]
    return []
