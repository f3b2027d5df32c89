"""Benchmark of the atomlight batch simulator, one workload per invocation.

    python3 perfbench/run.py --workload phi_sweep_wp --seed 12345 --seconds 60 --trace 0

Run it from the repository root.  Every measured run is a fresh
``python -m atomlight.cli <verb>`` process with ``PYTHONPATH=src``, the way
the package is run uninstalled.  The seed is passed to the program as
``--seed``.  Each run's outputs must pass the workload's physics check and
must be byte-identical to the first run's; a run that exits non-zero or
misses a check is counted as failed.

``--trace 0`` reports the end-to-end metrics: medians over the runs made in
``--seconds`` seconds (at least three), and the median of several set-up
probes.  A run starts only if, at the median pace so far, it ends within
``--seconds``, so an invocation lasts about as long as it is asked to.
``--trace 1`` alternates untraced runs with traced runs, in which spans wrap
each module's public functions from outside (see tracing.py), and reports
per-layer self times and counts.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A record with the environment, every run and the sha256 of every
output file is written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

from tracing import call_counts, layer_self_times, span_total
from workloads import WORKLOADS, Workload, check_outputs

HERE = Path(__file__).resolve().parent
OUT_ROOT = Path(".bench_build") / "perfbench"
SETUP_PROBES = 5  # least number of timed set-up probes, after one warm-up
MIN_RUNS = 3  # untraced runs per invocation, however short --seconds is
BUDGET_S = 170.0  # a child still running this long after start is killed
LAST_START_S = 100.0  # no new run starts this long after start
T0 = time.perf_counter()


@dataclass
class Run:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    sha256: dict[str, str]
    bytes_written: int
    problems: list[str] = field(default_factory=list)
    spans_file: str | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_process(argv: list[str], log_path: Path,
                  limit_s: float) -> tuple[float, float, float, int]:
    """(wall s, user+sys CPU s, peak RSS MB, exit code) of one child process.

    CPU and peak RSS come from the child's own rusage (``os.wait4``), not the
    cumulative RUSAGE_CHILDREN of this process.  Linux carries the spawning
    process's peak RSS into the child's, so this process reads its outputs
    streamed and stays far smaller (about 25 MB, kept in the record) than any
    run of the program.  A child still running after ``limit_s`` seconds is
    killed.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env())
        killer = threading.Timer(limit_s, proc.kill)
        killer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if status is None:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def remaining() -> float:
    return max(1.0, BUDGET_S - (time.perf_counter() - T0))


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def log_tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def run_once(wl: Workload, seed: int, work: Path, index: int, traced: bool) -> Run:
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cli_args = wl.cli_args(seed, str(out_dir))
    spans_file = None
    if traced:
        spans_file = str(work / f"spans-{index}.json")
        run_id = f"{wl.name}-seed{seed}-{index}"
        argv = [sys.executable, str(HERE / "tracing.py"), "run", spans_file, run_id, *cli_args]
    else:
        argv = [sys.executable, "-m", "atomlight.cli", *cli_args]
    log = work / f"run-{index}.log"
    wall, cpu, rss, code = timed_process(argv, log, remaining())
    problems = [] if code == 0 else [f"exit code {code}: {log_tail(log)}"]
    problems += check_outputs(wl, out_dir)
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    return Run(
        traced=traced, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss, exit_code=code,
        sha256={p.name: file_sha256(p) for p in files},
        bytes_written=sum(p.stat().st_size for p in files),
        problems=problems, spans_file=spans_file,
    )


def setup_probe(wl: Workload, seed: int, work: Path):
    """A callable that times one fresh interpreter importing the CLI and
    resolving the workload's config, with no simulation.

    One untimed warm-up probe runs here, so byte-compilation and a cold file
    cache are not charged to set-up.  It also fails fast when the program is
    not there.
    """
    spec = work / "setup_spec.json"
    spec.write_text(json.dumps({"config": wl.config, "sets": list(wl.sets),
                                "seed": seed, "threads": wl.threads}), encoding="utf-8")
    argv = [sys.executable, str(HERE / "tracing.py"), "setup", str(spec)]
    count = 0

    def probe() -> float:
        nonlocal count
        log = work / f"setup-{count}.log"
        count += 1
        wall, _, _, code = timed_process(argv, log, remaining())
        if code != 0:
            raise SystemExit(f"set-up probe failed with exit code {code}: {log_tail(log)}")
        return wall

    probe()
    return probe


def layer_metrics(wl: Workload, run: Run, doc: dict) -> dict[str, float]:
    """Per-layer numbers of one traced run from its spans file ``doc``.  Counts
    are computed from call arguments at the span boundaries, except
    bytes_written, which is measured from the files written."""
    spans, counts = doc["spans"], doc["counts"]
    calls = call_counts(spans)
    layers = layer_self_times(spans)
    sample_s = layers.get("phasespace", 0.0)
    draws = counts.get("phasespace.draws", 0)
    evolve_s = layers.get("dynamics", 0.0)
    steps = counts.get("dynamics.traj_steps", 0)
    ensembles = calls.get("dynamics.build_ensemble", 0)
    curves = calls.get("estimator.sensitivity_curve", 0) + calls.get("estimator.m_at_phi", 0)
    return {
        "setup.import_s": layers.get("setup", 0.0),
        "config.resolve_s": layers.get("config", 0.0),
        "cli.self_s": layers.get("cli", 0.0),
        "cli.write_s": layers.get("write", 0.0),
        "cli.bytes_written": run.bytes_written,
        "cli.rows_written": counts.get("cli.rows_written", 0),
        "phasespace.sample_s": sample_s,
        "phasespace.draws": draws,
        "phasespace.ns_per_draw": 1e9 * sample_s / draws if draws else 0.0,
        "dynamics.evolve_s": evolve_s,
        "dynamics.traj_steps": steps,
        "dynamics.ns_per_traj_step": 1e9 * evolve_s / steps if steps else 0.0,
        "dynamics.ensembles": ensembles,
        "dynamics.max_drift": counts.get("dynamics.max_drift", 0.0),
        "dynamics.r_units_ratio": counts.get("dynamics.r_integrated", 0.0) / wl.max_r,
        "interferometer.signals_s": layers.get("interferometer", 0.0),
        "interferometer.phase_evals": calls.get("interferometer.measure_signals", 0),
        "interferometer.lo_draws_per_ensemble":
            calls.get("interferometer.lo_noise_samples", 0) / ensembles if ensembles else 0.0,
        "estimator.self_s": layers.get("estimator", 0.0),
        "estimator.bootstrap_s": span_total(spans, "estimator.bootstrap_ci"),
        "estimator.signal_matrix_s": span_total(spans, "estimator.signal_matrix", self_only=True),
        "estimator.signal_passes_per_curve":
            calls.get("estimator.signal_matrix", 0) / curves if curves else 0.0,
        "estimator.stats_calls": calls.get("estimator.point_statistics", 0),
        "trace.wall_s": run.wall_s,
        "trace.unattributed_s": run.wall_s - sum(v for k, v in layers.items() if k != "trace"),
    }


END_TO_END_UNITS = {"wall_s": "s", "traj_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.import_s": "s", "config.resolve_s": "s", "cli.self_s": "s", "cli.write_s": "s",
    "cli.bytes_written": "B", "cli.rows_written": "count",
    "phasespace.sample_s": "s", "phasespace.draws": "count", "phasespace.ns_per_draw": "ns",
    "dynamics.evolve_s": "s", "dynamics.traj_steps": "count",
    "dynamics.ns_per_traj_step": "ns", "dynamics.ensembles": "count",
    "dynamics.max_drift": "ratio", "dynamics.r_units_ratio": "ratio",
    "interferometer.signals_s": "s", "interferometer.phase_evals": "count",
    "interferometer.lo_draws_per_ensemble": "ratio",
    "estimator.self_s": "s", "estimator.bootstrap_s": "s", "estimator.signal_matrix_s": "s",
    "estimator.signal_passes_per_curve": "ratio", "estimator.stats_calls": "count",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s",
}


def environment(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        source.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_commit": commit, "source_sha256": source.hexdigest(), "seed": seed,
    }


def more(runs: list[Run], least: int, deadline: float, steps: list[float]) -> bool:
    """Whether to start another step (one or two runs, taking ``steps`` seconds
    each so far): until there are ``least`` runs, then while one more step of
    median length ends by the deadline, but none after LAST_START_S so the
    invocation ends in time."""
    now = time.perf_counter()
    step = statistics.median(steps) if steps else 0.0
    return (len(runs) < least or now + step <= deadline) and now - T0 < LAST_START_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    work = OUT_ROOT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = setup_probe(wl, args.seed, work)

    # Set-up probes are spread between the runs, so that set-up is sampled
    # over the same stretch of machine load as the runs are.
    runs: list[Run] = []
    setup: list[float] = []
    steps: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while more(runs, MIN_RUNS if args.trace == 0 else 2, deadline, steps):
        start = time.perf_counter()
        if args.trace == 0:
            setup.append(probe())
            runs.append(run_once(wl, args.seed, work, len(runs), traced=False))
        else:
            runs.append(run_once(wl, args.seed, work, len(runs), traced=False))
            runs.append(run_once(wl, args.seed, work, len(runs), traced=True))
        steps.append(time.perf_counter() - start)
    while args.trace == 0 and len(setup) < SETUP_PROBES:
        setup.append(probe())

    shutil.rmtree(work / "out", ignore_errors=True)  # up to 7 MB; the hashes are kept
    reference = runs[0].sha256
    for run in runs[1:]:
        if run.sha256 != reference:
            run.problems.append("output bytes differ from the first run with this seed")
    failed = sum(1 for run in runs if run.problems)

    plain = [run for run in runs if not run.traced]
    wall = statistics.median(run.wall_s for run in plain)
    if args.trace == 0:
        values = {
            "wall_s": wall,
            "traj_per_s": wl.requested_trajectories / wall,
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(run.cpu_s for run in plain),
            "peak_rss_mb": statistics.median(run.peak_rss_mb for run in plain),
        }
        units = END_TO_END_UNITS
    else:
        traced = [run for run in runs if run.traced and Path(run.spans_file).is_file()]
        if not traced:
            raise SystemExit("no traced run wrote its spans; see the run logs in " + str(work))
        docs = [json.loads(Path(run.spans_file).read_text(encoding="utf-8")) for run in traced]
        per_run = [layer_metrics(wl, run, doc) for run, doc in zip(traced, docs)]
        untraced = sorted({name for doc in docs for name in doc["untraced"]})
        if untraced:
            print("not traced, missing from the program: " + ", ".join(untraced), file=sys.stderr)
        values = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
        values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - wall
        units = PER_LAYER_UNITS
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}

    env = environment(args.seed)
    record = {"workload": wl.name, "cli_args": wl.cli_args(args.seed, "<out>"),
              "trace": args.trace, "environment": env, "setup_s": setup,
              "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "runs": [asdict(run) for run in runs], "metrics": metrics}
    record_path = OUT_ROOT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for run in runs:
        for problem in run.problems:
            print(f"run failed ({wl.name}, seed {args.seed}): {problem}", file=sys.stderr)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)} ({len(plain)} untraced)  set-up probes {len(setup)}")
    for key, metric in metrics.items():
        print(f"  {key:40s} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace == 1:
        print("  counts are computed from call arguments at the span boundaries; "
              "cli.bytes_written is measured from the files written")
    print(f"  {'fail_frac':40s} {failed / len(runs):>16.6g} ratio  ({failed}/{len(runs)})")
    for name, digest in reference.items():
        print(f"  sha256 {name} {digest}")
    print("  environment " + json.dumps(env, sort_keys=True))
    print(f"  record {record_path}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
