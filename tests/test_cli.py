"""Command-line interface: schemas, determinism, error records."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atomlight import cli, dynamics, estimator, interferometer, threewave
from atomlight.cli import DRIFT_LIMIT, RK4_LIMIT, _gates, main
from atomlight.dynamics import ConservationReport

FAST = [
    "--set", "trajectories=150",
    "--set", "r=1.0",
    "--set", "phi_count=21",
    "--set", "steps_per_unit_r=100",
    "--set", "bootstrap_resamples=100",
]


SRC = Path(__file__).resolve().parents[1] / "src"


def run(args, tmp_path, sub="out"):
    out = tmp_path / sub
    code = main(args + ["--out", str(out)])
    return code, out


# --- phi sweep -------------------------------------------------------------------

def test_phi_sweep_outputs(tmp_path):
    code, out = run(["phi-sweep"] + FAST, tmp_path)
    assert code == 0
    csv = (out / "phi_sweep.csv").read_text()
    header = [line for line in csv.splitlines() if not line.startswith("#")][0]
    assert header == ("phi,mean_s_a,var_s_a,mean_s_b,mean_s,var_s,"
                      "ds_dphi,delta_phi,m,m_ci_lo,m_ci_hi")
    assert "# n_total = 10000000" in csv
    summary = json.loads((out / "phi_sweep_summary.json").read_text())
    assert summary["config"]["trajectories"] == 150
    assert summary["correction_sign"] in ("plus", "minus")
    assert summary["max_rel_drift_atoms"] < 1e-6
    assert np.isfinite(summary["min_m"])


def test_phi_sweep_deterministic(tmp_path):
    _, out1 = run(["phi-sweep"] + FAST, tmp_path, "a")
    _, out2 = run(["phi-sweep"] + FAST, tmp_path, "b")
    assert (out1 / "phi_sweep.csv").read_bytes() == (out2 / "phi_sweep.csv").read_bytes()
    assert (out1 / "phi_sweep_summary.json").read_bytes() == \
        (out2 / "phi_sweep_summary.json").read_bytes()


def test_thread_count_does_not_change_outputs(tmp_path):
    _, out1 = run(["phi-sweep"] + FAST + ["--threads", "1"], tmp_path, "a")
    _, out2 = run(["phi-sweep"] + FAST + ["--threads", "3"], tmp_path, "b")
    assert (out1 / "phi_sweep.csv").read_bytes() == (out2 / "phi_sweep.csv").read_bytes()
    assert (out1 / "phi_sweep_summary.json").read_bytes() == \
        (out2 / "phi_sweep_summary.json").read_bytes()


def test_rerun_from_embedded_config(tmp_path):
    _, out1 = run(["phi-sweep"] + FAST, tmp_path, "a")
    summary = out1 / "phi_sweep_summary.json"
    _, out2 = run(["phi-sweep", "--config", str(summary)], tmp_path, "b")
    assert (out1 / "phi_sweep.csv").read_bytes() == (out2 / "phi_sweep.csv").read_bytes()


def test_seventeen_digit_round_trip(tmp_path):
    _, out = run(["phi-sweep"] + FAST, tmp_path)
    lines = [l for l in (out / "phi_sweep.csv").read_text().splitlines()
             if not l.startswith("#")]
    value = float(lines[1].split(",")[1])
    assert format(value, ".17g") == lines[1].split(",")[1]


def test_phi_sweep_default_working_point(tmp_path):
    # untouched defaults: r = 3, seed 1e4, g = 100, 1000 trajectories
    code, out = run(["phi-sweep"], tmp_path)
    assert code == 0
    summary = json.loads((out / "phi_sweep_summary.json").read_text())
    assert 0.06 <= summary["min_m"] <= 0.13
    assert abs(summary["argmin_phi"] - np.pi / 2) < 0.2
    assert summary["correction_sign"] == "plus"


def test_phi_sweep_sql_point(tmp_path):
    code, out = run(["phi-sweep", "--set", "r=0", "--set", "n_seed=0",
                     "--set", "correction=off", "--set", "trajectories=2000",
                     "--set", "bootstrap_resamples=100"], tmp_path)
    assert code == 0
    summary = json.loads((out / "phi_sweep_summary.json").read_text())
    assert 0.9 <= summary["min_m"] <= 1.05  # min over the grid biases slightly low


# --- config handling ----------------------------------------------------------------

def test_unknown_key_rejected(tmp_path, capsys):
    code = main(["phi-sweep", "--set", "trajectoriez=10", "--out", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "trajectoriez" in record["message"]


def test_invalid_value_rejected(tmp_path, capsys):
    code = main(["phi-sweep", "--set", "trajectories=-5", "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("verb,assignment", [
    ("phi-sweep", "phi_start=nan"),
    ("phi-sweep", "phi_stop=inf"),
    ("phi-sweep", "r=nan"),
    ("phi-sweep", "r=inf"),
    ("phi-sweep", "gain_g=nan"),
    ("r-scan", "r_list=1.0, nan"),
    ("scatter", "scatter_phis=1.0, inf"),
    ("scatter", "scatter_phis="),
    ("phi-sweep", "master_seed=-1"),
    ("phi-sweep", f"master_seed={2**64}"),
    ("phi-sweep", "trajectories=50"),
])
def test_bad_value_rejected_before_work(tmp_path, capsys, verb, assignment):
    out = tmp_path / "out"
    code = main([verb, "--set", assignment, "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config" and assignment.split("=")[0] in record["message"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key,value", [
    ("r", True), ("gain_g", "100"), ("r_list", "1, 2"), ("n_seed", None),
    ("n_total", 10**400),  # a JSON integer past the float range
])
def test_embedded_config_values_must_be_numbers(tmp_path, capsys, key, value):
    # a config embedded in a JSON summary skips the text parser's conversions
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"config": {key: value}}))
    out = tmp_path / "out"
    code = main(["phi-sweep", "--config", str(summary), "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config" and record["message"].startswith(f"{key} must be")
    assert not out.exists()


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# working point\n"
        "trajectories = 120\n"
        "r = 0.5\n"
        "phi_count = 11  # coarse grid\n"
        "steps_per_unit_r = 100\n"
    )
    code, out = run(["phi-sweep", "--config", str(cfg),
                     "--set", "bootstrap_resamples=100"], tmp_path)
    assert code == 0
    summary = json.loads((out / "phi_sweep_summary.json").read_text())
    assert summary["config"]["trajectories"] == 120
    assert summary["config"]["r"] == 0.5


def test_seed_override(tmp_path):
    _, out1 = run(["phi-sweep"] + FAST + ["--seed", "7"], tmp_path, "a")
    _, out2 = run(["phi-sweep"] + FAST + ["--seed", "8"], tmp_path, "b")
    s1 = json.loads((out1 / "phi_sweep_summary.json").read_text())
    s2 = json.loads((out2 / "phi_sweep_summary.json").read_text())
    assert s1["config"]["master_seed"] == 7
    assert s1["min_m"] != s2["min_m"]


# --- r scan -----------------------------------------------------------------------

def test_r_scan_requires_r_list(tmp_path, capsys):
    code = main(["r-scan", "--out", str(tmp_path)])
    assert code == 2
    assert "r_list" in json.loads(capsys.readouterr().err)["message"]


def test_r_scan_analytic_mode(tmp_path):
    code, out = run([
        "r-scan", "--set", "mode=analytic", "--set", "r_list=0.5,1.0,1.5,2.0",
    ], tmp_path)
    assert code == 0
    lines = [l for l in (out / "r_scan.csv").read_text().splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[0:4] == ["r", "m", "m_ci_lo", "m_ci_hi"]
    assert header[6:8] == ["m_plain", "m_recycled"]
    for line in lines[1:]:
        parts = line.split(",")
        r, m, lo, hi = (float(v) for v in parts[0:4])
        m_plain, m_recycled = float(parts[6]), float(parts[7])
        assert m_plain == pytest.approx(np.sqrt(np.cosh(2.0 * r)), rel=1e-14)
        assert m_recycled == pytest.approx(np.sqrt(2.0) * np.exp(-r), rel=1e-14)
        assert lo < m < hi  # sampled, with a bootstrap interval
    summary = json.loads((out / "r_scan_summary.json").read_text())
    assert summary["r_star"] == 2.0
    assert summary["at_boundary"] is True


def test_analytic_r_scan_refuses_r_past_the_pump(tmp_path, capsys):
    # r = 30 would transfer 2.9e29 atoms out of a pump of 1e7 - 1e4
    code, out = run(["r-scan", "--set", "mode=analytic", "--set", "r_list=1, 40, 30"], tmp_path)
    assert code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith("r = 30.0 is past the analytic mode's undepleted-pump range: ")
    assert not out.exists()
    # in range, the rows are the sampled Bogoliubov map
    code, out = run(["r-scan", "--set", "mode=analytic", "--set", "r_list=1,2"], tmp_path)
    assert code == 0
    lines = [l for l in (out / "r_scan.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[1:] == [
        "1,0.50711660164320693,0.4857685736197766,0.52981301757176968,13820.517541189827,"
        "0.25690613240728821,1.939638030943823,0.52026009502288895,plus",
        "2,0.21687145997973087,0.20791140565589805,0.22658925678012556,131616.02732915818,"
        "0.034768464194563142,5.2257279718730567,0.19139299302082188,plus",
    ]


@pytest.mark.parametrize("verb, mode", [
    ("phi-sweep", "analytic"), ("scatter", "clamped"), ("r-scan", "clamped"),
    ("figures", "analytic"),
])
def test_held_pump_past_the_pump_is_refused_in_every_verb(tmp_path, capsys, verb, mode):
    # r = 12 would transfer 6.6e13 atoms out of a pump of 1e7 - 1e4
    code, out = run([verb, "--set", f"mode={mode}", "--set", "r=12", "--set", "r_list=12",
                     "--set", "trajectories=100"], tmp_path)
    assert code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith(f"r = 12.0 is past the {mode} mode's undepleted-pump range: ")
    assert not out.exists()


def test_retired_mode_is_refused_before_work(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sampled for a refused mode")

    monkeypatch.setattr(dynamics, "sample_initial_ensemble", unreachable)
    code, out = run(["phi-sweep", "--set", "mode=decorrelated"], tmp_path)
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config" and record["message"].startswith("mode must be one of")
    assert not out.exists()


def test_r_scan_tw_smoke(tmp_path):
    code, out = run([
        "r-scan", "--set", "r_list=0.5,1.0", "--set", "trajectories=150",
        "--set", "steps_per_unit_r=100", "--set", "bootstrap_resamples=100",
    ], tmp_path)
    assert code == 0
    summary = json.loads((out / "r_scan_summary.json").read_text())
    assert summary["equivalent_atom_gain"] == pytest.approx(1.0 / summary["m_star"] ** 2)


@pytest.mark.parametrize("r_list, at_boundary", [("3, 1, 2", True), ("2, 2", False)])
def test_r_scan_summary_reads_the_best_row(tmp_path, r_list, at_boundary):
    # the optimum is the data row with the least m, whatever the order of r_list
    code, out = run(["r-scan", "--config", str(SRC.parent / "configs" / "r_scan_seeded.cfg"),
                     "--set", f"r_list={r_list}", "--set", "trajectories=150",
                     "--set", "bootstrap_resamples=100"], tmp_path)
    assert code == 0
    lines = [l for l in (out / "r_scan.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    best = min((dict(zip(header, line.split(","))) for line in lines[1:]),
               key=lambda row: float(row["m"]))
    m = float(best["m"])
    summary = json.loads((out / "r_scan_summary.json").read_text())
    assert list(summary) == ["config", "r_star", "m_star", "atoms_transferred_at_star",
                             "equivalent_atom_gain", "at_boundary", "error_budget", "gates"]
    assert summary["r_star"] == float(best["r"])
    assert summary["m_star"] == m
    assert summary["atoms_transferred_at_star"] == float(best["transferred"])
    assert summary["equivalent_atom_gain"] == 1.0 / m**2
    assert summary["at_boundary"] is at_boundary


def _fresh_python(args, openblas_threads=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONWARNINGS"] = "error"
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_openblas_threads_default_yields_to_the_user(preset, expected):
    code = "import os, atomlight; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(["-c", code], preset).strip() == expected


def test_r_scan_is_independent_of_openblas_threads(tmp_path):
    args = ["-m", "atomlight.cli", "r-scan", "--set", "r_list=0.5, 1.0, 2.0",
            "--set", "trajectories=150", "--set", "steps_per_unit_r=100",
            "--set", "bootstrap_resamples=100", "--out"]
    _fresh_python(args + [str(tmp_path / "default")])
    _fresh_python(args + [str(tmp_path / "two")], "2")
    files = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "two").iterdir())
    assert "r_scan.csv" in files
    for name in files:
        assert (tmp_path / "default" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_runs_stay_off_the_interferometer_path(tmp_path, monkeypatch):
    # the fringe features carry every phase, the sign calibration and the correction,
    # in closed form from the unsplit amplitudes
    counts = {"run_mzi": 0, "measure_signals": 0, "combine_signals": 0, "beam_splitter_half": 0}
    for name in counts:
        def counted(*args, _original=getattr(interferometer, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (interferometer, estimator, cli):  # wherever the name is bound
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    code, _ = run(["phi-sweep"] + FAST, tmp_path, "phi")
    assert code == 0
    code, _ = run(["r-scan", "--set", "r_list=0.5, 1.0"] + FAST, tmp_path, "rs")
    assert code == 0
    code, _ = run(["scatter"] + FAST, tmp_path, "sc")
    assert code == 0
    assert counts == {"run_mzi": 0, "measure_signals": 0, "combine_signals": 0,
                      "beam_splitter_half": 0}


# --- scatter ------------------------------------------------------------------------

def test_scatter_outputs(tmp_path):
    code, out = run(["scatter"] + FAST, tmp_path)
    assert code == 0
    lines = [l for l in (out / "scatter.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "trajectory,phi,s_a,s_b_over_g,s"
    assert len(lines) == 1 + 150 * 3  # three default phases
    summary = json.loads((out / "scatter_summary.json").read_text())
    assert len(summary["corr_s_a_vs_s_b_over_g"]) == 3


@pytest.mark.parametrize("correction, weight", [
    ("on", -1.0), ("off", 0.0), ("auto_sign", None)])
def test_scatter_signal_is_the_weighted_light_record(tmp_path, correction, weight):
    # s = s_a + w s_b / g, with w the weight of the sign the summary reports
    code, out = run(["scatter", "--set", f"correction={correction}"] + FAST, tmp_path)
    assert code == 0
    sign = json.loads((out / "scatter_summary.json").read_text())["correction_sign"]
    if weight is None:
        weight = interferometer.correction_weight(sign)
    assert weight == {"plus": -1.0, "minus": 1.0, "off": 0.0}[sign]
    lines = [l for l in (out / "scatter.csv").read_text().splitlines() if not l.startswith("#")]
    s_a, s_b_over_g, s = np.array([l.split(",") for l in lines[1:]], dtype=float)[:, 2:].T
    assert np.array_equal(s, s_a + weight * s_b_over_g)
    assert np.all(s_b_over_g != 0.0)  # the light record is written for every setting


# --- feasibility ----------------------------------------------------------------------

def test_feasibility_defaults(tmp_path):
    code, out = run(["feasibility"], tmp_path)
    assert code == 0
    report = json.loads((out / "feasibility.json").read_text())
    assert 0.025 < report["capture_fraction"] < 0.035
    assert 250 < report["rate_ratio"] < 350
    assert report["single_mode_valid"] is True
    assert report["scaling_estimate"] == pytest.approx(0.29906975624424414, rel=1e-9)


def test_feasibility_small_seed_flagged(tmp_path):
    code, out = run(["feasibility", "--set", "n_seed=10"], tmp_path)
    assert code == 0
    report = json.loads((out / "feasibility.json").read_text())
    assert report["rate_ratio"] < 1.0
    assert report["single_mode_valid"] is False


def test_feasibility_rejects_unknown_key(tmp_path, capsys):
    code = main(["feasibility", "--set", "r=3", "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_feasibility_config_file_and_rerun(tmp_path):
    cfg = tmp_path / "setup.cfg"
    cfg.write_text("atomic_mass = 1.443e-25\nradial_trap_freq = 1000\n"
                   "wavelength = 780e-9\nn_seed = 1e4\nn_total = 1e7\n")
    code, out1 = run(["feasibility", "--config", str(cfg)], tmp_path, "a")
    assert code == 0
    code, out2 = run(["feasibility", "--config", str(out1 / "feasibility.json")],
                     tmp_path, "b")
    assert code == 0
    assert (out1 / "feasibility.json").read_bytes() == (out2 / "feasibility.json").read_bytes()


NOT_AN_OBJECT = "feasibility.json: the embedded config must be a JSON object"


@pytest.mark.parametrize("given,key", [
    ("--set wavelength=nan", "wavelength"),
    ("--set n_total=inf", "n_total"),
    ('{"n_seed": true}', "n_seed"),
    ('{"n_seed": "1e4"}', "n_seed"),
    ('{"n_total": null}', "n_total"),
    # an embedded config that is not a JSON object, refused with the file's name
    ("null", NOT_AN_OBJECT),
    ("5", NOT_AN_OBJECT),
    ("[[1]]", NOT_AN_OBJECT),
    ('"abc"', NOT_AN_OBJECT),
    ("[]", NOT_AN_OBJECT),
    ("", "feasibility.json: Expecting value: line 1 column 12"),  # malformed JSON
    ("--seed 5", "master_seed"),
    ("--threads 3", "threads"),
    ("--format json", "output_format"),
    # k2 sigma overflows, underflows to 0, or gives a capture fraction above 1
    ("--set wavelength=1e300", "capture_fraction"),
    ("--set wavelength=1e-300", "capture_fraction"),
    ("--set radial_trap_freq=1e300", "capture_fraction"),
])
def test_feasibility_bad_input_rejected_before_work(tmp_path, capsys, given, key):
    # anything but a flag is an embedded JSON config; a common flag names a key
    # feasibility lacks
    args = given.split()
    if not given.startswith("--"):
        summary = tmp_path / "feasibility.json"
        summary.write_text(f'{{"config": {given}}}')
        args = ["--config", str(summary)]
    out = tmp_path / "out"
    code = main(["feasibility", *args, "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config" and key in record["message"]
    assert not out.exists()


def test_benchmark_set_up_resolves_its_workloads(tmp_path):
    # perfbench times this set-up (import and config resolution) for every
    # listed workload; a rename or a stricter parse must fail here first
    root = SRC.parent
    sys.path.insert(0, str(root / "perfbench"))
    try:
        from workloads import LISTED, WORKLOADS
    finally:
        sys.path.remove(str(root / "perfbench"))
    for name in LISTED:  # phi_sweep_wp and r_scan_seeded
        wl = WORKLOADS[name]
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"config": wl.config, "sets": list(wl.sets),
                                    "seed": 12345, "threads": wl.threads}))
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "tracing.py"), "setup",
                               str(spec)], cwd=root, env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


# --- analytic table ----------------------------------------------------------------

def test_analytic_table(tmp_path):
    code, out = run(["analytic-table", "--set", "r_list=0,0.34657359027997264,1"],
                    tmp_path)
    assert code == 0
    lines = [l for l in (out / "analytic_table.csv").read_text().splitlines()
             if not l.startswith("#")]
    crossover = lines[2].split(",")
    assert float(crossover[4]) == pytest.approx(1.0, rel=1e-12)  # m_recycled at r_crit
    summary = json.loads((out / "analytic_table_summary.json").read_text())
    assert summary["sql"] == pytest.approx(1.0 / np.sqrt(1.0e7))
    assert summary["heisenberg"] == pytest.approx(1.0e-7)
    assert summary["r_crit"] == pytest.approx(np.log(np.sqrt(2.0)))


# --- json output format ----------------------------------------------------------------

def test_json_table_format(tmp_path):
    code, out = run(["phi-sweep"] + FAST + ["--format", "json"], tmp_path)
    assert code == 0
    table = json.loads((out / "phi_sweep.json").read_text())
    assert table["columns"][0] == "phi"
    assert len(table["rows"]) == 21
    assert table["config"]["output_format"] == "json"


def test_drift_gate():
    def passed(atoms, manley_rowe):
        report = ConservationReport(max_rel_drift_atoms=atoms,
                                    max_rel_drift_manley_rowe=manley_rowe)
        return _gates([report], {})["drift"]["passed"]

    assert passed(0.0, DRIFT_LIMIT)
    assert not passed(0.0, 2 * DRIFT_LIMIT)


@pytest.mark.parametrize("nan_first", [True, False])
def test_gates_name_a_nan_drift_as_the_worst(nan_first):
    # |alpha2|^2 overflows in clamped mode at r = 400: the drift there is NaN
    finite = ConservationReport(max_rel_drift_atoms=0.0, max_rel_drift_manley_rowe=3.6e-11,
                                rk4_error=1e-9)
    broken = ConservationReport(max_rel_drift_atoms=0.0, max_rel_drift_manley_rowe=np.nan,
                                rk4_error=np.nan)
    reports = [broken, finite] if nan_first else [finite, broken]
    for gates in (_gates(reports, {}), _gates([broken], {})):
        assert gates["drift"]["passed"] is False
        assert gates["drift"]["invariant"] == "manley_rowe"
        assert np.isnan(gates["drift"]["value"])
        assert gates["rk4"]["passed"] is False and np.isnan(gates["rk4"]["value"])
    assert _gates([finite], {})["drift"] == {"invariant": "manley_rowe", "value": 3.6e-11,
                                             "limit": DRIFT_LIMIT, "passed": True}


@pytest.mark.parametrize("verb,extra", [
    ("phi-sweep", ["--set", "phi_count=21", "--set", "bootstrap_resamples=100"]),
    ("r-scan", ["--set", "r_list=1.0, 3.0", "--set", "bootstrap_resamples=100"]),
])
def test_drift_failure_is_reported(tmp_path, capsys, verb, extra):
    # the clamped mode's RK4 at 2 steps per unit r: Manley-Rowe drift 6.6e-6
    # (phi-sweep at r = 3) and 1.2e-4 (r-scan); tw has no step to coarsen
    code, out = run([verb, "--set", "trajectories=150", "--set", "steps_per_unit_r=2",
                     "--set", "mode=clamped"] + extra, tmp_path)
    assert code == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    (record,) = [rec for rec in records if rec["error"] == "drift"]
    assert record["invariant"] in ("atom_number", "manley_rowe")
    assert record["value"] > record["limit"] == DRIFT_LIMIT
    stem = verb.replace("-", "_")
    gate = json.loads((out / f"{stem}_summary.json").read_text())["gates"]["drift"]
    assert gate["passed"] is False
    assert gate["value"] == record["value"]


@pytest.mark.parametrize("verb,extra", [
    ("phi-sweep", ["--set", "phi_count=21", "--set", "bootstrap_resamples=100"]),
    ("r-scan", ["--set", "r_list=1.0, 3.0", "--set", "bootstrap_resamples=100"]),
])
def test_rk4_failure_is_reported(tmp_path, capsys, verb, extra):
    # the clamped mode's RK4 at 8 steps per unit r to r = 3: step-doubling
    # estimate 1.6e-6, Manley-Rowe drift 1.1e-7 at most
    code, out = run([verb, "--set", "trajectories=150", "--set", "steps_per_unit_r=8",
                     "--set", "mode=clamped"] + extra, tmp_path)
    assert code == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record["error"] == "rk4" and record["invariant"] == "rk4_step_error"
    assert record["value"] > record["limit"] == RK4_LIMIT
    gates = json.loads((out / f"{verb.replace('-', '_')}_summary.json").read_text())["gates"]
    assert gates["rk4"]["passed"] is False and gates["drift"]["passed"] is True
    assert gates["rk4"]["value"] == record["value"]


def test_integration_error_is_reported(tmp_path, capsys, monkeypatch):
    # no config overflows a propagator any more (the clamped RK4 grows no faster
    # than the exact map, whose range is checked, and the closed form works in
    # units of sqrt(A)), so the sample carries one alpha2 = 1e308, which the
    # clamped h pass takes past the largest double near r = 1.2 (step index 47 of 120)
    original = dynamics.sample_initial_ensemble

    def with_a_huge_amplitude(*args):
        t0 = original(*args)
        t0.alpha2[3] = 1.0e308
        return t0

    monkeypatch.setattr(dynamics, "sample_initial_ensemble", with_a_huge_amplitude)
    out = tmp_path / "out"
    code = main(["phi-sweep", "--set", "mode=clamped", "--set", "trajectories=100",
                 "--out", str(out)])
    assert code == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record == {"error": "integration", "invariant": "finite_state", "pass": "h",
                      "step_index": record["step_index"], "limit": "finite"}
    assert 0 < record["step_index"] < 720
    assert not out.exists()


def test_failed_allocation_is_reported(tmp_path, capsys):
    # numpy refuses the first trajectory-sized array (petabytes) before taking any memory
    out = tmp_path / "out"
    code = main(["phi-sweep", "--set", "trajectories=1000000000000000", "--out", str(out)])
    assert code == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record["error"] == "memory" and "allocate" in record["message"]
    assert not out.exists()


def test_summaries_carry_passed_gates(tmp_path):
    for verb, extra in (("phi-sweep", []), ("scatter", []),
                        ("r-scan", ["--set", "r_list=0.5, 1.0"])):
        code, out = run([verb] + FAST + extra, tmp_path, verb)
        assert code == 0
        summary = json.loads((out / f"{verb.replace('-', '_')}_summary.json").read_text())
        gate = summary["gates"]["drift"]
        assert gate["passed"] is True and gate["value"] <= gate["limit"] == DRIFT_LIMIT
        gate = summary["gates"]["rk4"]
        assert gate["passed"] is True and 0 < gate["value"] <= gate["limit"] == RK4_LIMIT
        assert gate["invariant"] == "rk4_step_error"
        if verb != "scatter":  # the r-scan gate takes the worst row, the budget r_star's
            budget = summary["error_budget"]
            assert 0 < budget["rk4_rel"] <= gate["value"] and 0 < budget["mc_rel"] < 1


@pytest.mark.parametrize("verb,extra,keys", [
    ("phi-sweep", [], ("min_m", "argmin_phi")),
    ("r-scan", ["--set", "r_list=0.5, 1.0"], ("m_star",)),
    ("scatter", [], ("corr_s_a_vs_s_b_over_g[1.5707963267948966]",)),
    ("analytic-table", ["--set", "r_list=1, 900"], ("delta_phi_plain",)),  # cosh(1800) overflows
])
def test_non_finite_output_is_refused(tmp_path, capsys, monkeypatch, verb, extra, keys):
    original = estimator.fringe_features

    def nan_features(*args, **kwargs):
        features, s_b, sign = original(*args, **kwargs)
        return np.full_like(features, np.nan), s_b, sign

    monkeypatch.setattr(estimator, "fringe_features", nan_features)
    monkeypatch.setattr(cli, "fringe_features", nan_features)
    code, out = run([verb] + FAST + extra, tmp_path)
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "finite" and record["limit"] == "finite"
    assert record["invariant"] in keys and not np.isfinite(record["value"])
    gates = json.loads((out / f"{verb.replace('-', '_')}_summary.json").read_text())["gates"]
    assert gates["finite"]["passed"] is False and gates["drift"]["passed"] is True
    assert gates["finite"]["invariant"] == record["invariant"]


OVERFLOWING_STATISTICS = [
    ("phi-sweep", []),
    ("r-scan", ["--set", "r_list=1, 2"]),
    ("scatter", []),
    ("figures", ["--set", "r=2"]),
]


def test_overflowing_closed_forms_leave_one_json_record_per_stderr_line(tmp_path):
    # run in a fresh interpreter, where any warning is an error: the closed
    # forms overflow at r = 900, and S_b / g at g = 1e-320 in every sampled verb
    runs = [["analytic-table", "--set", "r_list=1,900"]]
    runs += [[verb, "--set", "gain_g=1e-320", "--set", "trajectories=200",
              "--set", "bootstrap_resamples=100", *extra]
             for verb, extra in OVERFLOWING_STATISTICS]
    for i, args in enumerate(runs):
        proc = subprocess.run(
            [sys.executable, "-m", "atomlight.cli", *args, "--out", str(tmp_path / str(i))],
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, args
        records = [json.loads(line) for line in proc.stderr.splitlines()]
        assert records and all(record["error"] == "finite" for record in records), args
        if args[0] != "figures":  # a figures run gives a record per failed recipe
            assert len(records) == 1, args


@pytest.mark.parametrize("verb,extra", OVERFLOWING_STATISTICS)
@pytest.mark.parametrize("setting", ["n_total=1e300", "gain_g=1e-300", "gain_g=1e-320"])
def test_overflowing_statistics_leave_only_gate_records(tmp_path, capsys, verb, extra, setting):
    # the finite gate reports the overflow; numpy warns of none of it on the way
    code, _ = run([verb, "--set", setting, "--set", "trajectories=200",
                   "--set", "bootstrap_resamples=100", *extra], tmp_path)
    assert code == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert records and all(record["error"] == "finite" for record in records)
    if verb != "figures":  # a figures run gives a record per failed recipe
        assert len(records) == 1


def _numpy_error_state_sites(module: Path) -> list[str]:
    """module.function for each use of np.errstate or np.seterr in module,
    named by its innermost enclosing function (a decorator by the one it wraps)."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "attr", getattr(child, "id", None))
            if isinstance(child, (ast.Attribute, ast.Name)) and name in ("errstate", "seterr"):
                sites.append(f"{module.stem}.{scope}")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

    visit(ast.parse(module.read_text(encoding="utf-8")), "<module>")
    return sites


def test_numpy_error_state_is_set_by_main_and_expected_non_finites_only():
    # main silences numpy around the verb, whose gates report what overflows;
    # library code sets it only where its own algorithm expects a non-finite
    sites = sorted(site for module in sorted((SRC / "atomlight").glob("*.py"))
                   for site in _numpy_error_state_sites(module))
    assert sites == [
        "cli.main",
        "dynamics._integrate",  # non-finite amplitudes, checked once per stop
        "dynamics.check_pump_range",  # sinh^2 r overflows to inf: past the pump
        "estimator.evaluate",  # inf - inf in _percentile next to an infinite M
        "estimator.statistics",  # x / 0, a zero slope: an infinite M
    ]


# --- figures -----------------------------------------------------------------------

def test_figures_sample_and_integrate_each_ensemble_once(tmp_path, monkeypatch):
    counts = {"sample_initial_ensemble": 0, "evolve_closed_form": 0, "evolve_tw": 0}
    for name in counts:
        def counted(*args, _original=getattr(dynamics, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    code, _ = run(["--figures", "--set", "trajectories=100", "--set", "steps_per_unit_r=20",
                   "--set", "bootstrap_resamples=100", "--set", "phi_count=21"], tmp_path)
    assert code == 0
    # unseeded and seeded: one sample and one closed-form evaluation each
    assert counts == {"sample_initial_ensemble": 2, "evolve_closed_form": 2, "evolve_tw": 0}


def test_figures_refuse_an_r_past_the_pump_before_any_build(tmp_path, capsys, monkeypatch):
    # every recipe group's range is checked before the TW groups are integrated
    counts = {"sample_initial_ensemble": 0, "evolve_closed_form": 0, "evolve_tw": 0}
    for name in counts:
        def counted(*args, _original=getattr(dynamics, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    code, out = run(["--figures", "--set", "mode=analytic", "--set", "r=12"], tmp_path)
    assert code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith("r = 12.0 is past the analytic mode's undepleted-pump range: ")
    assert counts == {"sample_initial_ensemble": 0, "evolve_closed_form": 0, "evolve_tw": 0}
    assert not out.exists()


def test_figures_recipes(tmp_path):
    code, out = run([
        "--figures",
        "--set", "trajectories=100",
        "--set", "steps_per_unit_r=60",
        "--set", "bootstrap_resamples=100",
        "--set", "phi_count=41",
    ], tmp_path)
    assert code == 0
    fig = out / "figures"
    for name in (
        "squeezing_vs_r.csv",
        "m_vs_r_unseeded.csv",
        "m_vs_r_seeded.csv",
        "phi_sweep_working_point.csv",
        "scatter_working_point.csv",
    ):
        assert (fig / name).exists(), name
    # every written table has its gates
    summary = json.loads((fig / "squeezing_vs_r_summary.json").read_text())
    assert all(gate["passed"] for gate in summary["gates"].values())


def flip_the_orbit_branch(monkeypatch):
    """Start every closed-form trajectory on the wrong side of its orbit's minimum."""
    original = threewave._orbit

    def flipped(*args):
        o = original(*args)
        return {**o, "v0": -o["v0"], "s0": -o["s0"]}

    monkeypatch.setattr(threewave, "_orbit", flipped)


def test_a_flipped_orbit_branch_fails_the_rk4_gate(tmp_path, capsys, monkeypatch):
    # the amplitudes keep A and D exactly, so the drift gate passes; the drift of
    # K = Re(conj(a1) a2 b2), which gates.rk4 holds for tw, catches the branch
    flip_the_orbit_branch(monkeypatch)
    code, out = run(["phi-sweep"] + FAST, tmp_path)
    assert code == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record["error"] == "rk4" and record["value"] > 1e3 * RK4_LIMIT
    gates = json.loads((out / "phi_sweep_summary.json").read_text())["gates"]
    assert gates["rk4"]["passed"] is False and gates["drift"]["passed"] is True


def test_figures_gate_the_squeezing_table(tmp_path, capsys, monkeypatch):
    # with mode=analytic only the squeezing table reads the TW ensembles, and
    # a flipped orbit branch fails the rk4 gate there
    flip_the_orbit_branch(monkeypatch)
    code, out = run(["--figures", "--set", "mode=analytic", "--set", "trajectories=100"],
                    tmp_path)
    assert code == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert {record["error"] for record in records} == {"rk4"}
    gates = json.loads((out / "figures" / "squeezing_vs_r_summary.json").read_text())["gates"]
    assert gates["drift"]["passed"] is True and gates["rk4"]["passed"] is False
    assert gates["finite"]["passed"] is True
    assert (out / "figures" / "squeezing_vs_r.csv").exists()


# --- what a run loads ----------------------------------------------------------------

def test_runs_leave_numpy_ma_unloaded(tmp_path):
    # np.percentile would import numpy.ma (through np.unique) in every bootstrap
    runs = [["phi-sweep", "--set", "trajectories=200", "--set", "phi_count=5",
             "--set", "bootstrap_resamples=100", "--out", str(tmp_path / "a")],
            ["r-scan", "--config", str(SRC.parent / "configs" / "r_scan_seeded.cfg"),
             "--set", "trajectories=200", "--out", str(tmp_path / "b")]]
    code = (f"import sys; from atomlight.cli import main; "
            f"assert [main(args) for args in {runs!r}] == [0, 0]; "
            f"print('numpy.ma' in sys.modules)")
    assert _fresh_python(["-c", code]).strip() == "False"


def test_benchmark_counters_read_the_run(tmp_path):
    # perfbench derives its per-layer metrics from evolve_tw's call shape and
    # report; a change to either must fail here, not zero the metrics.  Only
    # the clamped mode calls evolve_tw: tw runs read 0 there by construction
    root = SRC.parent
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracing.py"), "run", str(spans), "probe",
         "phi-sweep", "--config", "configs/working_point.cfg", "--set", "trajectories=200",
         "--set", "phi_count=5", "--set", "bootstrap_resamples=100", "--set", "mode=clamped",
         "--seed", "1", "--threads", "1", "--out", str(tmp_path / "out")],
        cwd=root, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(spans.read_text())["counts"]
    assert counts["dynamics.traj_steps"] == 24000  # 200 trajectories, 40 steps per unit r to 3
    assert counts["dynamics.max_drift"] > 0
