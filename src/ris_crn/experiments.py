"""Monte Carlo sweep harness, baseline methods and CSV emission.

Three sweep kinds are supported: ``tilt`` (grid of fixed tilt angles),
``elements`` (grid of RIS sizes) and ``power`` (grid of transmit power
budgets).  Each (grid value, trial) cell draws one channel realization and
evaluates every requested method on it, so method comparisons are paired.
Trials are embarrassingly parallel; aggregation runs in a fixed order so
the CSV is bitwise-identical regardless of the worker count.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .channels import generate_channels
from .optimizer import run_algorithm1
from .scenario import Scenario, ScenarioError, apply_overrides

log = logging.getLogger(__name__)

SWEEP_KINDS = ("tilt", "elements", "power")
METHODS = ("proposed", "random_phase", "fixed_zero_phase", "no_ris")

CSV_COLUMNS = ("sweep_kind", "grid_value", "method", "trials",
               "mean_se_bps_hz", "std_se", "mean_outer_iters", "violations")


class SweepError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    kind: str
    grid: tuple
    trials: int
    base_seed: int
    methods: tuple = ("proposed",)
    overrides: dict | None = None

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise SweepError(f"kind must be one of {SWEEP_KINDS}, "
                             f"got {self.kind!r}")
        if len(self.grid) == 0:
            raise SweepError("grid must be non-empty")
        if self.trials < 1:
            raise SweepError(f"trials must be >= 1, got {self.trials}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise SweepError(f"unknown methods {unknown}; valid: {METHODS}")
        if not self.methods:
            raise SweepError("methods must be non-empty")
        if self.kind == "elements":
            for g in self.grid:
                if int(g) != g or g < 0:
                    raise SweepError(f"elements grid values must be "
                                     f"non-negative integers, got {g}")
        if self.kind == "tilt":
            for g in self.grid:
                if not -180.0 <= g <= 0.0:
                    raise SweepError(f"tilt grid values must lie in "
                                     f"[-180, 0] degrees, got {g}")


def sweepspec_from_dict(doc: dict) -> SweepSpec:
    if not isinstance(doc, dict):
        raise SweepError("sweep spec document must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(SweepSpec)})
    if unknown:
        raise SweepError(f"unknown keys in sweep spec: {unknown}")
    missing = sorted({"kind", "grid", "trials"} - set(doc))
    if missing:
        raise SweepError(f"sweep spec missing required keys {missing}")
    doc = {"base_seed": 0, "methods": ["proposed"], **doc}
    for key in ("grid", "methods"):
        if not isinstance(doc[key], list):
            raise SweepError(f"{key} must be a list, got {doc[key]!r}")
    if not all(_is_number(g) for g in doc["grid"]):
        raise SweepError(f"grid values must be numbers, got {doc['grid']!r}")
    for key in ("trials", "base_seed"):
        if not _is_integer(doc[key]):
            raise SweepError(f"{key} must be an integer, got {doc[key]!r}")
    return SweepSpec(kind=doc["kind"], grid=tuple(doc["grid"]),
                     trials=doc["trials"], base_seed=doc["base_seed"],
                     methods=tuple(doc["methods"]),
                     overrides=doc.get("overrides"))


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join([
                r.sweep_kind, repr(float(r.grid_value)), r.method,
                str(r.trials), repr(float(r.mean_se_bps_hz)),
                repr(float(r.std_se)), repr(float(r.mean_outer_iters)),
                str(r.violations)]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def _cell_setup(spec: SweepSpec, scenario: Scenario, grid_value):
    """Scenario and fixed tilt for one grid value."""
    if spec.kind == "tilt":
        return scenario, float(grid_value)
    if spec.kind == "elements":
        return apply_overrides(scenario, {"n_ris": int(grid_value)}), None
    return apply_overrides(scenario, {"p_max_dbw": float(grid_value)}), None


def run_trial(scenario: Scenario, method: str, seed: int,
              fixed_tilt_deg: float = None) -> TrialResult:
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
    grid_idx, grid_value, method, trial, scenario, seed, fixed_tilt = args
    try:
        return grid_idx, method, trial, run_trial(scenario, method, seed,
                                                  fixed_tilt)
    except Exception as exc:
        raise SweepError(f"trial failed at grid_value {grid_value}, "
                         f"method {method!r}, seed {seed}: {exc}") from exc


def run_sweep(spec: SweepSpec, scenario: Scenario, out_path=None,
              workers: int = 1) -> SweepResult:
    """Run all (grid value, method, trial) cells and aggregate.

    Results are keyed and reduced in a fixed order after all trials
    complete, so the output is independent of scheduling; a single writer
    emits the CSV at the end.
    """
    if spec.overrides:
        try:
            scenario = apply_overrides(scenario, spec.overrides)
        except (ScenarioError, TypeError) as exc:
            raise SweepError(f"bad scenario overrides: {exc}") from exc

    tasks = []
    for grid_idx, grid_value in enumerate(spec.grid):
        cell_scenario, fixed_tilt = _cell_setup(spec, scenario, grid_value)
        for method in spec.methods:
            for trial in range(spec.trials):
                tasks.append((grid_idx, grid_value, method, trial,
                              cell_scenario, spec.base_seed + trial,
                              fixed_tilt))

    results = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for grid_idx, method, trial, tr in pool.map(
                    _trial_task, tasks, chunksize=4):
                results[(grid_idx, method, trial)] = tr
    else:
        for task in tasks:
            grid_idx, method, trial, tr = _trial_task(task)
            results[(grid_idx, method, trial)] = tr

    rows = []
    for grid_idx, grid_value in enumerate(spec.grid):
        for method in spec.methods:
            cell = [results[(grid_idx, method, t)]
                    for t in range(spec.trials)]
            ses = np.array([c.se_bps_hz for c in cell])
            iters = np.array([c.outer_iterations for c in cell], dtype=float)
            violations = sum(1 for c in cell if not c.feasible)
            rows.append(SweepRow(
                sweep_kind=spec.kind, grid_value=float(grid_value),
                method=method, trials=spec.trials,
                mean_se_bps_hz=float(np.mean(ses)),
                std_se=float(np.std(ses, ddof=1)) if spec.trials > 1 else 0.0,
                mean_outer_iters=float(np.mean(iters)),
                violations=violations))
            log.info("cell %s=%g method=%s mean_se=%.4f violations=%d",
                     spec.kind, grid_value, method, rows[-1].mean_se_bps_hz,
                     violations)

    result = SweepResult(spec=spec, rows=tuple(rows))
    if out_path is not None:
        result.write_csv(out_path)
    return result
