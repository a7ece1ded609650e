"""Command-line front end: ``sweep`` runs a Monte Carlo sweep to CSV,
``solve`` optimizes a single instance and prints the result as JSON.

The RIS_CRN_LOG environment variable (error | info | debug) controls
diagnostics verbosity on stderr.
"""

from __future__ import annotations

import json
import logging
import os
import sys

import click

from .channels import generate_channels
from .experiments import SweepError, TrialError, load_sweep_spec, run_sweep
from .optimizer import run_algorithm1
from .scenario import ScenarioError, load_scenario, paper_default

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


def _configure_logging():
    raw = os.environ.get("RIS_CRN_LOG", "error").lower()
    if raw not in _LOG_LEVELS:
        raise click.ClickException(
            f"RIS_CRN_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}")
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[raw],
                        format="%(levelname)s %(name)s: %(message)s")


def _document(load):
    """Option callback that loads a JSON document with ``load``; a document
    that does not parse or validate is a usage error (exit status 2)."""
    def callback(ctx, param, path):
        if path is None:
            return None
        try:
            return load(path)
        except (json.JSONDecodeError, ScenarioError, SweepError) as exc:
            raise click.BadParameter(str(exc), ctx, param) from exc
    return callback


@click.group()
def main():
    """RIS-aided cognitive-radio beamforming simulator."""
    _configure_logging()


@main.command()
@click.option("--spec", required=True,
              type=click.Path(exists=True, dir_okay=False),
              callback=_document(load_sweep_spec),
              help="Sweep specification JSON.")
@click.option("--scenario", default=None,
              type=click.Path(exists=True, dir_okay=False),
              callback=_document(load_scenario),
              help="Scenario JSON (default: bundled scenario).")
@click.option("--out", "out_path", required=True,
              type=click.Path(dir_okay=False, writable=True),
              help="Output CSV path.")
@click.option("--seed", default=None, type=click.IntRange(min=0),
              help="Override the spec's base seed.")
@click.option("--workers", default=1, type=click.IntRange(min=1),
              show_default=True, help="Parallel trial workers.")
def sweep(spec, scenario, out_path, seed, workers):
    """Run a tilt / elements / power sweep and write a CSV."""
    from dataclasses import replace

    if seed is not None:
        spec = replace(spec, base_seed=seed)
    try:
        run_sweep(spec, scenario or paper_default(), out_path=out_path,
                  workers=workers)
    except TrialError:
        raise
    except SweepError as exc:   # the spec gives no valid scenario
        raise click.BadParameter(str(exc), param_hint="--spec") from exc
    click.echo(f"wrote {out_path}")


@main.command()
@click.option("--scenario", default=None,
              type=click.Path(exists=True, dir_okay=False),
              callback=_document(load_scenario),
              help="Scenario JSON (default: bundled scenario).")
@click.option("--seed", default=0, type=click.IntRange(min=0),
              show_default=True, help="Channel and initialization seed.")
@click.option("--tilt", "fixed_tilt", default=None, type=float,
              help="Fix the tilt in degrees, in [-180, 0], instead of "
                   "selecting it.")
def solve(scenario, seed, fixed_tilt):
    """Optimize one channel realization and print the design as JSON."""
    scenario = scenario or paper_default()
    channels = generate_channels(scenario, seed=seed)
    try:
        result = run_algorithm1(channels, scenario, seed=seed,
                                fixed_tilt_deg=fixed_tilt)
    except ScenarioError as exc:   # only the fixed tilt is checked there
        raise click.BadParameter(str(exc), param_hint="--tilt") from exc
    doc = {
        "se_bps_hz": result.se,
        "se_trace": [float(v) for v in result.se_trace],
        "outer_iterations": result.outer_iterations,
        "w_s": [[float(z.real), float(z.imag)] for z in result.state.w_s],
        "phases_rad": [float(p) for p in result.state.phases],
        "tilt": {
            "theta_tilt_deg": float(result.state.theta_tilt_deg),
            "branch": result.tilt.branch,
        },
        "feasibility": {
            "feasible": bool(result.feasible),
            "pu_interference_w": float(result.pu_interference_w),
            "gamma_w": float(scenario.gamma_w),
            "power_w": float(result.power_w),
            "p_max_w": float(scenario.p_max_w),
        },
    }
    click.echo(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
