"""Spans, self time, and the code that runs inside a measured interpreter.

Run as a script it has two modes, both started with ``PYTHONPATH=src``:

    python perfbench/tracing.py setup <spec.json>
        import ``atomlight.cli`` and resolve one workload's config, no
        simulation; its wall time from outside is the set-up time.

    python perfbench/tracing.py run <spans.json> <run id> <cli args...>
        run ``atomlight.cli.main`` with the public functions of each module
        wrapped in spans, and write the spans and counts to ``spans.json``.

The program is not changed: every function is wrapped from outside, in each
module namespace that binds it, because the modules bind names with
``from .x import y`` and a caller looks a name up in its own module.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time

# (module, function, layer) for every wrapped function.  Span names are
# "<module>.<function>"; per-layer self times sum the spans of one layer.
TARGETS = (
    ("config", "load_config_file", "config"),
    ("config", "parse_assignments", "config"),
    ("config", "make_config", "config"),
    ("cli", "cmd_phi_sweep", "cli"),
    ("cli", "cmd_r_scan", "cli"),
    ("cli", "cmd_scatter", "cli"),
    ("cli", "write_table", "write"),
    ("cli", "write_summary", "write"),
    ("phasespace", "sample_initial_ensemble", "phasespace"),
    ("phasespace", "sample_coherent_batch", "phasespace"),
    ("dynamics", "build_ensemble", "dynamics"),
    ("dynamics", "evolve_tw", "dynamics"),
    ("interferometer", "lo_noise_samples", "interferometer"),
    ("interferometer", "measure_signals", "interferometer"),
    ("interferometer", "calibrate_correction_sign", "interferometer"),
    ("estimator", "scan_over_r", "estimator"),
    ("estimator", "sensitivity_curve", "estimator"),
    ("estimator", "m_at_phi", "estimator"),
    ("estimator", "signal_matrix", "estimator"),
    ("estimator", "point_statistics", "estimator"),
    ("estimator", "bootstrap_ci", "estimator"),
)
ROOT = "trace.process"
IMPORT_SPAN = "setup.import"
MAIN_SPAN = "cli.main"
LAYER_OF = {f"{m}.{f}": layer for m, f, layer in TARGETS}
LAYER_OF.update({IMPORT_SPAN: "setup", MAIN_SPAN: "cli", ROOT: "trace"})


class Recorder:
    """Spans kept in memory: (id, name, start, end, parent, thread, run id).

    Each thread keeps its own stack of open spans.  Spans opened off the
    main thread are recorded with no parent; they overlap main-thread spans
    in time, so self-time sums skip them.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        main = threading.current_thread() is threading.main_thread()
        span = {
            "id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
            "parent": stack[-1] if stack and main else None, "main_thread": main,
            "run_id": self.run_id,
        }
        self.spans.append(span)
        stack.append(span["id"])
        return span["id"]

    def close(self, span_id: int):
        self.spans[span_id]["end"] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def maximum(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, value), value)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_length(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of main-thread self time per layer."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        if span["main_thread"]:
            layer = LAYER_OF.get(span["name"], span["name"])
            out[layer] = out.get(layer, 0.0) + own[span["id"]]
    return out


def span_total(spans: list[dict], name: str, self_only: bool = False) -> float:
    """Summed duration (or self time) of the main-thread spans with one name."""
    own = self_times(spans) if self_only else None
    return sum(
        own[s["id"]] if self_only else s["end"] - s["start"]
        for s in spans if s["name"] == name and s["main_thread"]
    )


def call_counts(spans: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in spans:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    return counts


# --------------------------------------------------------------------------
# counts computed from call arguments and return values, at the same
# boundaries as the spans


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_sample_batch(rec, args, kwargs, out):
    rec.add("phasespace.draws", _arg(args, kwargs, 3, "n_traj", 0))


def _count_evolve_tw(rec, args, kwargs, out):
    state, r = _arg(args, kwargs, 0, "state"), float(_arg(args, kwargs, 1, "r", 0.0))
    spec = _arg(args, kwargs, 2, "spec")
    steps_per_unit_r = getattr(spec, "steps_per_unit_r", None)
    if steps_per_unit_r is None:
        steps_per_unit_r = getattr(sys.modules.get("atomlight.dynamics"),
                                   "DEFAULT_STEPS_PER_UNIT_R", 0)
    n_traj = getattr(state, "n_traj", 0)
    rec.add("dynamics.traj_steps", n_traj * math.ceil(steps_per_unit_r * r))
    rec.add("dynamics.r_integrated", r)
    report = out[1] if isinstance(out, tuple) and len(out) > 1 else None
    drifts = [getattr(report, k, 0.0) for k in
              ("max_rel_drift_atoms", "max_rel_drift_manley_rowe")]
    rec.maximum("dynamics.max_drift", float(max(drifts)))


def _count_write_table(rec, args, kwargs, out):
    rows = _arg(args, kwargs, 2, "rows", ())
    rec.add("cli.rows_written", len(rows) if hasattr(rows, "__len__") else 0)


COUNTERS = {
    "phasespace.sample_coherent_batch": _count_sample_batch,
    "dynamics.evolve_tw": _count_evolve_tw,
    "cli.write_table": _count_write_table,
}


def _wrap(rec: Recorder, fn, name: str):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span_id)
        if counter is not None:
            counter(rec, args, kwargs, out)
        return out

    return wrapper


def install(rec: Recorder) -> list[str]:
    """Wrap every target in each atomlight module that binds it.

    Targets the program no longer has are skipped; their names are returned
    so a run can say what it could not trace.
    """
    modules = [m for k, m in list(sys.modules.items())
               if (k == "atomlight" or k.startswith("atomlight.")) and m is not None]
    missing = []
    for module_name, func_name, _layer in TARGETS:
        home = sys.modules.get(f"atomlight.{module_name}")
        original = getattr(home, func_name, None)
        if original is None:
            missing.append(f"{module_name}.{func_name}")
            continue
        wrapper = _wrap(rec, original, f"{module_name}.{func_name}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return missing


# --------------------------------------------------------------------------
# entry points inside the measured interpreter


def _setup(spec_path: str) -> int:
    """Import the CLI and resolve one workload's config, as a user's run does."""
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import atomlight.cli  # noqa: F401  (the import is what is measured)
    from atomlight.config import load_config_file, make_config, parse_assignments

    mapping = dict(load_config_file(spec["config"]))
    for item in spec["sets"]:
        mapping.update(parse_assignments([item], source="--set"))
    mapping["master_seed"] = spec["seed"]
    mapping["threads"] = spec["threads"]
    make_config(mapping)
    return 0


def _run(spans_path: str, argv: list[str], run_id: str, t_start: float) -> int:
    rec = Recorder(run_id)
    root = rec.open(ROOT)
    rec.spans[root]["start"] = t_start
    span = rec.open(IMPORT_SPAN)
    import atomlight.cli as cli
    rec.close(span)
    missing = install(rec)
    span = rec.open(MAIN_SPAN)
    try:
        status = cli.main(argv)
    finally:
        rec.close(span)
        rec.close(root)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "spans": rec.spans, "counts": rec.counts,
                       "untraced": missing}, fh)
    return status


if __name__ == "__main__":
    _T_START = time.perf_counter()
    if len(sys.argv) >= 3 and sys.argv[1] == "setup":
        sys.exit(_setup(sys.argv[2]))
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        sys.exit(_run(sys.argv[2], sys.argv[4:], sys.argv[3], _T_START))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
