"""Monte Carlo sweep harness, baseline methods and CSV emission.

Three sweep kinds are supported: ``tilt`` (grid of fixed tilt angles),
``elements`` (grid of RIS sizes) and ``power`` (grid of transmit power
budgets).  Each (grid value, method, trial) task draws its own channel
realization from the trial's seed, so every method of a (grid value,
trial) cell sees the same channels and method comparisons are paired.
Trials are embarrassingly parallel; their results come back in task order
at any worker count, so the CSV is bitwise-identical across worker counts.
"""

from __future__ import annotations

import contextlib
import json
import logging
from dataclasses import dataclass, fields

import numpy as np

from .channels import generate_channels
from .optimizer import run_algorithm1
from .scenario import (Scenario, ScenarioError, _check_angle, _check_fields,
                       _from_dict, _is_finite_number, _is_integer,
                       apply_overrides)

log = logging.getLogger(__name__)

SWEEP_KINDS = ("tilt", "elements", "power")
METHODS = ("proposed", "random_phase", "fixed_zero_phase", "no_ris")


class SweepError(ValueError):
    pass


class TrialError(SweepError):
    """A trial that raised: the message names its cell, and ``cause`` is
    the trial's exception, which pickling drops from ``__cause__`` when the
    trial ran in a worker process."""

    def __init__(self, message: str, cause: Exception | None = None):
        super().__init__(message)
        self.cause = cause


@dataclass(frozen=True)
class SweepSpec:
    kind: str
    grid: tuple
    trials: int
    base_seed: int = 0
    methods: tuple = ("proposed",)
    overrides: dict | None = None

    def __post_init__(self):
        _check_fields(self, SweepError)
        if self.kind not in SWEEP_KINDS:
            raise SweepError(f"kind must be one of {SWEEP_KINDS}, "
                             f"got {self.kind!r}")
        if len(self.grid) == 0:
            raise SweepError("grid must be non-empty")
        for g in self.grid:
            if not _is_finite_number(g):
                raise SweepError(f"each grid value must be a finite number, "
                                 f"got {g!r}")
            if self.kind == "elements" and (int(g) != g or g < 0):
                raise SweepError(f"elements grid values must be "
                                 f"non-negative integers, got {g}")
            if self.kind == "tilt":
                _check_angle("tilt grid value", g, SweepError)
        for key, least in (("trials", 1), ("base_seed", 0)):
            value = getattr(self, key)
            if value < least:
                raise SweepError(f"{key} must be >= {least}, got {value}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown or not self.methods:
            raise SweepError(f"methods must be one or more of {METHODS}, "
                             f"got {list(self.methods)}")


def sweepspec_from_dict(doc: dict) -> SweepSpec:
    """SweepSpec of a JSON object; its grid and methods lists are read as
    tuples."""
    if isinstance(doc, dict):
        doc = {**doc, **{key: tuple(doc[key]) for key in ("grid", "methods")
                         if isinstance(doc.get(key), list)}}
    return _from_dict(SweepSpec, doc, "sweep spec", SweepError)


def load_sweep_spec(path) -> SweepSpec:
    with open(path) as fh:
        return sweepspec_from_dict(json.load(fh))


@dataclass(frozen=True)
class TrialResult:
    se_bps_hz: float
    outer_iterations: int
    feasible: bool


@dataclass(frozen=True)
class SweepRow:
    sweep_kind: str
    grid_value: float
    method: str
    trials: int
    mean_se_bps_hz: float
    std_se: float
    mean_outer_iters: float
    violations: int


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(str(getattr(r, c)) for c in CSV_COLUMNS)
                  for r in self.rows]
        return "\n".join(lines) + "\n"


def _cell_setup(spec: SweepSpec, scenario: Scenario, grid_value):
    """Scenario and fixed tilt for one grid value."""
    if spec.kind == "tilt":
        return scenario, float(grid_value)
    if spec.kind == "elements":
        return apply_overrides(scenario, {"n_ris": int(grid_value)}), None
    return apply_overrides(scenario, {"p_max_dbw": float(grid_value)}), None


def run_trial(scenario: Scenario, method: str, seed: int,
              fixed_tilt_deg: float | None = None) -> TrialResult:
    """One channel draw, one method.

    ``proposed`` runs the full alternating optimization; ``random_phase``
    and ``fixed_zero_phase`` freeze the RIS at a random / all-zero phase
    profile and optimize only the beamformer; ``no_ris`` removes the
    surface entirely.  The random profile reuses the proposed method's own
    initialization draw for the same seed, so the two are paired.
    """
    if method not in METHODS:
        raise SweepError(f"unknown method {method!r}; valid: {METHODS}")
    if method == "no_ris":
        scenario = apply_overrides(scenario, {"n_ris": 0})
    channels = generate_channels(scenario, seed=seed)
    result = run_algorithm1(channels, scenario, seed=seed,
                            fixed_tilt_deg=fixed_tilt_deg,
                            update_phases=(method == "proposed"),
                            zero_phase_start=(method == "fixed_zero_phase"))
    log.debug("trial method=%s seed=%d se=%.6f iters=%d feasible=%s",
              method, seed, result.se, result.outer_iterations,
              result.feasible)
    return TrialResult(se_bps_hz=result.se,
                       outer_iterations=result.outer_iterations,
                       feasible=result.feasible)


def _trial_task(args):
    grid_value, method, scenario, seed, fixed_tilt = args
    try:
        return run_trial(scenario, method, seed, fixed_tilt)
    except Exception as exc:
        raise TrialError(f"trial failed at grid_value {grid_value}, "
                         f"method {method!r}, seed {seed}: {exc}",
                         exc) from exc


def _work(tasks: list, counter) -> list:
    """Run the tasks this worker claims from the shared counter, as
    (index, result) pairs."""
    done = []
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value += 1
        if index >= len(tasks):
            return done
        done.append((index, _trial_task(tasks[index])))


def _child(tasks: list, counter, conn):
    """A worker process: send its (index, result) list over its own pipe,
    or the exception one of its tasks raised, after moving the counter
    past the end so that every worker stops claiming."""
    try:
        out = _work(tasks, counter)
    except Exception as exc:
        counter.value = len(tasks)
        out = exc
    conn.send(out)
    conn.close()


def _run_tasks(tasks: list, workers: int) -> list:
    """Every task's result, in task order.

    The calling process is one of the workers; the other
    ``min(workers, len(tasks)) - 1`` are forked children, which start with
    the task list and the caller's imports in memory (a spawned one would
    import numpy again); a child that solves an SDP before the caller ever
    has loads the LAPACK bindings itself.  All workers claim task indices
    from one shared counter.  A task's exception, the caller's own or else
    the first child's in start order, is raised once every child has
    exited; a child that exits without sending its results is a
    ``SweepError``.  No child outlives the call.
    """
    n_children = min(workers, len(tasks)) - 1
    if n_children == 0:
        return [_trial_task(task) for task in tasks]
    import multiprocessing      # only a forking sweep pays for it
    fork = multiprocessing.get_context("fork")
    counter = fork.Value("q", 0)
    pipes, children = [], []
    try:
        for _ in range(n_children):
            recv, send = fork.Pipe(duplex=False)
            pipes.append(recv)
            with send:      # the child holds its own copy
                child = fork.Process(target=_child,
                                     args=(tasks, counter, send))
                child.start()
            children.append(child)
        done = _work(tasks, counter)
        for recv in pipes:
            try:
                out = recv.recv()
            except EOFError:
                raise SweepError("a sweep worker process exited without "
                                 "sending its results") from None
            if isinstance(out, BaseException):
                raise out
            done += out
    finally:
        counter.value = len(tasks)      # no-op unless the caller raised
        for recv in pipes:      # a child blocks until its result is read
            with contextlib.suppress(EOFError):
                recv.recv()
            recv.close()
        for child in children:
            child.join()
    return [result for _, result in sorted(done, key=lambda d: d[0])]


def run_sweep(spec: SweepSpec, scenario: Scenario, out_path=None,
              workers: int = 1) -> SweepResult:
    """Run all (grid value, method, trial) tasks and aggregate.

    Every grid value's scenario is built before any trial runs.  With
    ``workers`` > 1 the calling process runs trials too, beside
    ``min(workers, #tasks) - 1`` forked worker processes; all of them take
    the next unclaimed task until none is left, and no worker process
    outlives the call.  Results come back in task order (grid value, then
    method, then trial) at any worker count, so the CSV does not depend on
    scheduling.  ``workers`` must be an integer >= 1 (not a bool).
    """
    if not _is_integer(workers) or workers < 1:
        raise SweepError(f"workers must be an integer >= 1, got {workers!r}")
    if spec.overrides:
        try:
            scenario = apply_overrides(scenario, spec.overrides)
        except ScenarioError as exc:
            raise SweepError(f"bad scenario overrides: {exc}") from exc

    tasks = []
    for grid_value in spec.grid:
        try:
            cell_scenario, fixed_tilt = _cell_setup(spec, scenario, grid_value)
        except ScenarioError as exc:
            raise SweepError(f"bad grid_value {grid_value}: {exc}") from exc
        tasks += [(grid_value, method, cell_scenario, spec.base_seed + t,
                   fixed_tilt)
                  for method in spec.methods for t in range(spec.trials)]

    trials = _run_tasks(tasks, workers)

    rows = []
    for k, (grid_value, method) in enumerate(
            (g, m) for g in spec.grid for m in spec.methods):
        cell = trials[k * spec.trials:(k + 1) * spec.trials]
        ses = [c.se_bps_hz for c in cell]
        rows.append(SweepRow(
            sweep_kind=spec.kind, grid_value=float(grid_value),
            method=method, trials=spec.trials,
            mean_se_bps_hz=float(np.mean(ses)),
            std_se=float(np.std(ses, ddof=1)) if spec.trials > 1 else 0.0,
            mean_outer_iters=float(np.mean([c.outer_iterations
                                            for c in cell])),
            violations=sum(not c.feasible for c in cell)))
        log.info("cell %s=%g method=%s mean_se=%.4f violations=%d",
                 spec.kind, grid_value, method, rows[-1].mean_se_bps_hz,
                 rows[-1].violations)

    result = SweepResult(rows=tuple(rows))
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(result.to_csv())
    return result
