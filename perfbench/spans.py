"""In-memory span recorder wrapped around the public entry points of ris_crn.

Spans are recorded from the benchmark's side only: ``Tracer.installed()``
replaces module attributes with timing wrappers and restores them on exit,
so nothing inside ``src/`` knows it is traced.  A span is
``[name, start, end, parent index, request id, annotation]``; the request id
is the solve or trial the span belongs to.  Self time is a span's duration
minus the time covered by its direct children (calls are sequential, so the
children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import warnings
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name).  A function imported by name into another
# module has to be patched there too, because that module looks it up in
# its own namespace.
PATCHES = (
    ("ris_crn.channels", "generate_channels", "channels.generate_channels"),
    ("ris_crn.experiments", "generate_channels", "channels.generate_channels"),
    ("ris_crn.optimizer", "run_algorithm1", "optimizer.run_algorithm1"),
    ("ris_crn.experiments", "run_algorithm1", "optimizer.run_algorithm1"),
    ("ris_crn.optimizer", "build_ws_problem", "optimizer.build_ws_problem"),
    ("ris_crn.optimizer", "build_phase_problem", "optimizer.build_phase_problem"),
    # scenario, antenna and metrics are thin helpers, measured together
    ("ris_crn.optimizer", "sinr_su", "metrics.eval"),
    ("ris_crn.optimizer", "pu_interference", "metrics.eval"),
    ("ris_crn.sdp", "solve", "sdp.solve"),
    ("ris_crn.srocr", "refine", "srocr.refine"),
    ("ris_crn.srocr", "randomize_phases", "srocr.randomize_phases"),
    ("ris_crn.experiments", "run_trial", "experiments.run_trial"),
    ("ris_crn.experiments", "run_sweep", "experiments.run_sweep"),
)

SDP_STATUSES = ("optimal", "infeasible", "max-iterations", "numerical-failure")

# (dim, #constraints) of every SDP the three workloads solve: beamformer
# d<n_s>m2 and its SROCR rounds d<n_s>m3, phases d<N+1>m<N+2> and d<N+1>m<N+3>.
SDP_KEYS = ("d2m2", "d2m3", "d4m2", "d4m3", "d21m22", "d21m23",
            "d33m34", "d33m35")


def _annotate(name, args, result, caught):
    if name == "sdp.solve":
        problem = args[0]
        return {"key": f"d{problem.dim}m{len(problem.constraints)}",
                "status": result.status, "iters": result.iterations,
                "warnings": sum(issubclass(w.category, RuntimeWarning)
                                for w in caught)}
    if name == "srocr.refine":
        return {"rounds": result.iterations, "feasible": bool(result.feasible)}
    if name == "optimizer.run_algorithm1":
        return {"outer": result.outer_iterations, "branch": result.tilt.branch,
                "randomized": sum(d.get("phase_recovery") == "randomization"
                                  for d in result.diagnostics)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "experiments.run_trial":   # each trial is a request
                tracer.request = 0 if tracer.request is None else tracer.request + 1
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                   tracer.request, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            caught = ()
            try:
                if name == "sdp.solve":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        rec[1] = perf_counter()
                        result = fn(*args, **kwargs)
                else:
                    rec[1] = perf_counter()
                    result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            rec[5] = _annotate(name, args, result, caught)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point in PATCHES for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, span_name in PATCHES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(span_name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _, _), c in zip(self.spans, child)]

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, req, note in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": req,
                                     "note": note}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and times, as {name: (value, unit)}."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        for (name, t0, t1, _, _, _), self_s in zip(self.spans, self.self_times()):
            calls[name] += 1
            busy[name] += t1 - t0
            own[name] += self_s
        notes = defaultdict(list)
        for name, t0, t1, _, _, note in self.spans:
            if note is not None:
                notes[name].append((t1 - t0, note))

        out = {}
        sdp_notes = notes["sdp.solve"]
        out["sdp.solve.calls"] = (calls["sdp.solve"], "count")
        out["sdp.solve.busy_s"] = (busy["sdp.solve"], "s")
        out["sdp.ipm_iters"] = (sum(n["iters"] for _, n in sdp_notes), "count")
        for key in SDP_KEYS:
            sel = [(d, n) for d, n in sdp_notes if n["key"] == key]
            k_busy = sum(d for d, _ in sel)
            k_iters = sum(n["iters"] for _, n in sel)
            out[f"sdp.solve.{key}.calls"] = (len(sel), "count")
            out[f"sdp.solve.{key}.busy_s"] = (k_busy, "s")
            out[f"sdp.solve.{key}.ipm_iters"] = (k_iters, "count")
            out[f"sdp.solve.{key}.us_per_ipm_iter"] = (
                1e6 * k_busy / k_iters if k_iters else 0.0, "us")
        for status in SDP_STATUSES:
            out[f"sdp.status.{status}"] = (
                sum(n["status"] == status for _, n in sdp_notes), "count")
        out["sdp.runtime_warnings"] = (sum(n["warnings"] for _, n in sdp_notes),
                                       "count")

        refine = [n for _, n in notes["srocr.refine"]]
        out["srocr.refine.calls"] = (calls["srocr.refine"], "count")
        out["srocr.refine.busy_s"] = (busy["srocr.refine"], "s")
        out["srocr.refine.self_s"] = (own["srocr.refine"], "s")
        out["srocr.rounds"] = (sum(n["rounds"] for n in refine), "count")
        out["srocr.rank_one_rate"] = (
            sum(n["feasible"] for n in refine) / len(refine) if refine else 0.0,
            "ratio")
        out["srocr.randomize_phases.calls"] = (calls["srocr.randomize_phases"],
                                               "count")
        out["srocr.randomize_phases.busy_s"] = (busy["srocr.randomize_phases"],
                                                "s")

        solves = [n for _, n in notes["optimizer.run_algorithm1"]]
        out["optimizer.run_algorithm1.calls"] = (len(solves), "count")
        out["optimizer.run_algorithm1.busy_s"] = (
            busy["optimizer.run_algorithm1"], "s")
        out["optimizer.run_algorithm1.self_s"] = (
            own["optimizer.run_algorithm1"], "s")
        out["optimizer.outer_iters_mean"] = (
            float(np.mean([n["outer"] for n in solves])) if solves else 0.0,
            "iters")
        out["optimizer.tilt_ris_frac"] = (
            sum(n["branch"] == "ris" for n in solves) / len(solves)
            if solves else 0.0, "ratio")
        out["optimizer.phase_recovery_randomization"] = (
            sum(n["randomized"] for n in solves), "count")
        for name in ("optimizer.build_ws_problem", "optimizer.build_phase_problem",
                     "metrics.eval", "channels.generate_channels"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")

        trial_ms = [1e3 * (t1 - t0) for name, t0, t1, _, _, _ in self.spans
                    if name == "experiments.run_trial"]
        out["experiments.run_trial.calls"] = (len(trial_ms), "count")
        out["experiments.run_trial.busy_s"] = (busy["experiments.run_trial"], "s")
        out["experiments.trial_ms_p50"] = (
            float(np.percentile(trial_ms, 50)) if trial_ms else 0.0, "ms")
        out["experiments.trial_ms_max"] = (max(trial_ms, default=0.0), "ms")
        out["experiments.overhead_s"] = (
            busy["experiments.run_sweep"] - busy["experiments.run_trial"], "s")
        return out
