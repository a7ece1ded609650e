"""Monte Carlo sweep harness, baseline methods and CSV emission.

Three sweep kinds are supported: ``tilt`` (grid of fixed tilt angles),
``elements`` (grid of RIS sizes) and ``power`` (grid of transmit power
budgets).  Each (grid value, trial) cell draws one channel realization and
evaluates every requested method on it, so method comparisons are paired.
Trials are embarrassingly parallel; their results come back in task order
at any worker count, so the CSV is bitwise-identical across worker counts.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .channels import generate_channels
from .optimizer import run_algorithm1
from .scenario import (Scenario, ScenarioError, _check_angle, _check_fields,
                       _from_dict, _is_finite_number, apply_overrides)

log = logging.getLogger(__name__)

SWEEP_KINDS = ("tilt", "elements", "power")
METHODS = ("proposed", "random_phase", "fixed_zero_phase", "no_ris")


class SweepError(ValueError):
    pass


class TrialError(SweepError):
    """A trial that raised; the message names its cell."""


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
    spec: SweepSpec
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
                         f"method {method!r}, seed {seed}: {exc}") from exc


def run_sweep(spec: SweepSpec, scenario: Scenario, out_path=None,
              workers: int = 1) -> SweepResult:
    """Run all (grid value, method, trial) cells and aggregate.

    Every grid value's scenario is built before any trial runs.  Results
    come back in task order (grid value, then method, then trial) at any
    worker count, so the CSV does not depend on scheduling.
    """
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

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trials = list(pool.map(_trial_task, tasks))
    else:
        trials = [_trial_task(task) for task in tasks]

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

    result = SweepResult(spec=spec, rows=tuple(rows))
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(result.to_csv())
    return result
