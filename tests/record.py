"""Every store of expected values under tests/data/: its builder from the
code under test, its file format, and the moves between two records.

``PYTHONPATH=src python tests/record.py`` rewrites every store and prints
each moved value, then each cell of results/*.csv that differs from HEAD's.
"""
import dataclasses
import difflib
import hashlib
import itertools
import json
import subprocess
from pathlib import Path
from typing import Callable
from unittest import mock

from ris_crn import sdp
from ris_crn.channels import generate_channels
from ris_crn.experiments import SweepSpec, run_sweep, run_trial
from ris_crn.optimizer import run_algorithm1
from ris_crn.scenario import apply_overrides, paper_default

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
IID = {"channel": {"iid_mode": True}}
LINKS = ("G", "u", "v", "h_s", "h_p", "f_p", "f_s")
DRAW_CASES = {"paper_default": {}, "no-ris": {"n_ris": 0},
              "iid-ns4": {**IID, "n_s": 4}}
SDP_TRIALS = {f"iid-ns4-seed{seed}": ({}, seed) for seed in range(5)}
SDP_TRIALS["iid-ns4-n32-seed0"] = ({"n_ris": 32}, 0)
ROW_KEYS = ("grid_value", "method", "n_ris", "trial")


def _pathloss_solve(seed: str) -> dict:
    """``ris-crn solve`` on paper_default: every SE of the trace and the
    bytes of the final beamformer and phases."""
    sc = paper_default()
    res = run_algorithm1(generate_channels(sc, seed=int(seed)), sc,
                         seed=int(seed))
    return {"se_trace": [se.hex() for se in res.se_trace],
            "w_s": res.state.w_s.astype("<c16").tobytes().hex(),
            "phases": res.state.phases.astype("<f8").tobytes().hex()}


def _sdp_solves(case: str) -> list:
    """Every sdp.solve of a proposed trial (iid, n_s=4, -30 deg), in order:
    d<dim>m<#constraints>, status, iterations, objective, residuals, gap
    and the sha256 of X."""
    overrides, seed = SDP_TRIALS[case]
    sc = apply_overrides(paper_default(), {**IID, "n_s": 4, **overrides})
    records, real = [], sdp.solve

    def spy(problem):
        sol = real(problem)
        records.append([
            f"d{problem.dim}m{len(problem.constraints)}", sol.status,
            sol.iterations, *(v.hex() for v in (
                sol.objective, sol.primal_residual, sol.dual_residual,
                sol.gap)),
            hashlib.sha256(sol.x.astype("<c16").tobytes()).hexdigest()])
        return sol

    with mock.patch.object(sdp, "solve", spy):
        run_trial(sc, "proposed", seed, fixed_tilt_deg=-30.0)
    return records


def _tilt_sweep(case: str) -> dict:
    grid = (-180.0, -150.0, -120.0, -90.0, -60.0, -30.0, 0.0)
    spec = SweepSpec("tilt", grid, trials=2, overrides={"n_s": 4}, methods=(
        "proposed", "random_phase", "fixed_zero_phase", "no_ris"))
    return csv_cells(run_sweep(spec, apply_overrides(paper_default(), IID))
                     .to_csv())


def _fixed_point_trace(seed: str) -> list:
    """iid n_s=2 at -30 deg, where the last real iteration's SROCR phase
    step is rejected and the run ends at a fixed point."""
    sc = apply_overrides(paper_default(), {**IID, "n_s": 2})
    res = run_algorithm1(generate_channels(sc, seed=int(seed)), sc,
                         seed=int(seed), fixed_tilt_deg=-30.0)
    return [float(se) for se in res.se_trace]


def digests(ch) -> dict:
    """sha256 prefix of each drawn array; e3b0... is an N=0 link's."""
    return {name: hashlib.sha256(getattr(ch, name).tobytes()).hexdigest()[:16]
            for name in LINKS}


def _draw(case: str) -> dict:
    name, seed = case.rsplit("-", 1)
    sc = apply_overrides(paper_default(), DRAW_CASES[name])
    return digests(generate_channels(sc, seed=int(seed)))


def _rows_text(records: dict) -> str:
    """JSON with one record per line."""
    return "{\n" + ",\n".join(
        f" {json.dumps(case)}: [\n"
        + ",\n".join(f"  {json.dumps(rec)}" for rec in recs) + "\n ]"
        for case, recs in records.items()) + "\n}\n"


def csv_cells(text: str) -> dict:
    """A CSV's cells by row and column.  A row is named by its grid value
    and method (sweeps) or its n_ris and trial (elements_per_trial.csv)."""
    header, *rows = (line.split(",") for line in text.splitlines())
    header[0] = header[0].removeprefix("# ")
    keys = [header.index(col) for col in ROW_KEYS if col in header]
    return {",".join(row[k] for k in keys): dict(zip(header, row))
            for row in rows}


def _csv_text(records: dict) -> str:
    rows = list(records["sweep"].values())
    return "".join(",".join(cols) + "\n"
                   for cols in [rows[0], *map(dict.values, rows)])


@dataclasses.dataclass(frozen=True)
class Store:
    """A file's cases, each case's record, and the file's format."""
    cases: tuple
    record: Callable  # case -> its record
    dump: Callable = lambda records: json.dumps(records, indent=1) + "\n"
    load: Callable = json.loads  # the file's text -> {case: record}


STORES = {
    "pathloss_pin.json": Store(tuple(map(str, range(20))), _pathloss_solve),
    "sdp_pin.json": Store(tuple(sorted(SDP_TRIALS)), _sdp_solves, _rows_text),
    "golden_tilt_sweep.csv": Store(("sweep",), _tilt_sweep, _csv_text,
                                   lambda text: {"sweep": csv_cells(text)}),
    "fixed_point_traces.json": Store(("8", "17"), _fixed_point_trace),
    "pinned_draws.json": Store(tuple(
        f"{case}-{seed}" for case in DRAW_CASES for seed in (0, 7, 10**6)),
        _draw),
}


def committed(name: str) -> dict:
    return STORES[name].load((DATA / name).read_text())


def write(directory: Path) -> None:
    for name, store in STORES.items():
        (directory / name).write_text(store.dump(
            {case: store.record(case) for case in store.cases}))


def _float(value):
    """A float, or a decimal or hex float string, as a float; else None."""
    try:
        return (float.fromhex(value) if "0x" in value
                else float(value) if "." in value else None)
    except (TypeError, ValueError):  # not a string, or not a number
        return value if isinstance(value, float) else None


def _aligned(old: list, new: list) -> list:
    """(index, old entry, new entry) for each entry of two lists outside
    their runs of equal entries: a removed entry as (its old index, entry,
    None), an inserted one as (its new index, None, entry), and a replaced
    block entry by entry."""
    matcher = difflib.SequenceMatcher(None, [json.dumps(v) for v in old],
                                      [json.dumps(v) for v in new],
                                      autojunk=False)
    return [(i1 + k if i1 + k < i2 else j1 + k, *pair)
            for tag, i1, i2, j1, j2 in matcher.get_opcodes() if tag != "equal"
            for k, pair in enumerate(itertools.zip_longest(old[i1:i2],
                                                           new[j1:j2]))]


def moves(old, new, path: str = "") -> list:
    """Each value that differs between two records, by its path, as
    'path: old → new' (None where one side lacks it), with the relative
    move where both are floats.  Lists are aligned on their equal entries
    first, so an entry removed or inserted moves nothing after it."""
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(k, old.get(k), new.get(k)) for k in {**old, **new}]
    elif isinstance(old, list) and isinstance(new, list):
        pairs = _aligned(old, new)
    elif old == new:
        return []
    else:
        a, b = _float(old), _float(new)
        rel = f" ({(b - a) / abs(a):+.2e})" if a and b is not None else ""
        return [f"{path}: {old} → {new}{rel}"]
    return [line for key, a, b in pairs
            for line in moves(a, b, f"{path}/{key}")]


def csv_moves(old: str, new: str, path: str = "") -> list:
    """Each cell that differs between two CSV texts."""
    return moves(csv_cells(old), csv_cells(new), path)


def main() -> None:
    old = {name: committed(name) for name in STORES}
    write(DATA)
    lines = [line for name in STORES
             for line in moves(old[name], committed(name), name)]
    for path in sorted(ROOT.glob("results/*.csv")):
        rel = path.relative_to(ROOT).as_posix()
        lines += csv_moves(subprocess.run(
            ["git", "show", f"HEAD:{rel}"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout, path.read_text(), rel)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
