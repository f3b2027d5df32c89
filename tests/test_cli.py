"""Command-line interface: schemas, determinism, error records."""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from atomlight import cli, dynamics, estimator, interferometer, threewave
from atomlight.cli import DRIFT_LIMIT, K_DRIFT_LIMIT, _gates, main
from atomlight.dynamics import ConservationReport

FAST = [
    "--set", "trajectories=150",
    "--set", "r=1.0",
    "--set", "phi_count=21",
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

def test_unknown_key_rejected(tmp_path, capsys, monkeypatch):
    # steps_per_unit_r is a retired key: refused like a typo, in --set, in a
    # config file and in a summary's embedded config, before any sampling
    def unreachable(*args, **kwargs):
        raise AssertionError("sampled for a refused key")

    monkeypatch.setattr(dynamics, "sample_initial_ensemble", unreachable)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps_per_unit_r = 40\n")
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"config": {"trajectories": 150, "steps_per_unit_r": 40}}))
    out = tmp_path / "out"
    for args, key in ((["--set", "trajectoriez=10"], "trajectoriez"),
                      (["--set", "steps_per_unit_r=40"], "steps_per_unit_r"),
                      (["--config", str(cfg)], "steps_per_unit_r"),
                      (["--config", str(summary)], "steps_per_unit_r")):
        code = main(["phi-sweep", *args, "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"
        assert "unknown key" in record["message"] and key in record["message"]
        assert not out.exists()


def test_phase_range_of_infinite_width_rejected(tmp_path, capsys):
    # phi_stop - phi_start overflows, where np.linspace would give NaN and inf phases
    out = tmp_path / "out"
    code = main(["phi-sweep", "--set", "phi_start=-1e308", "--set", "phi_stop=1e308",
                 "--set", "trajectories=100", "--set", "phi_count=5",
                 "--set", "bootstrap_resamples=100", "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)  # one line: one record
    assert record["error"] == "config"
    assert "phi_start" in record["message"] and "phi_stop" in record["message"]
    assert not out.exists()


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
    # a common flag is the --set of its key, refused in the same record
    ("phi-sweep", "--seed=abc"),
    ("phi-sweep", "--seed=1.5"),
    ("phi-sweep", "--threads=x"),
])
def test_bad_value_rejected_before_work(tmp_path, capsys, verb, assignment):
    key = assignment.split("=")[0]
    args = [assignment] if key.startswith("--") else ["--set", assignment]
    out = tmp_path / "out"
    code = main([verb, *args, "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)  # one line: one record
    key = {"--seed": "master_seed", "--threads": "threads"}.get(key, key)
    assert record["error"] == "config" and key in record["message"]
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
    )
    code, out = run(["phi-sweep", "--config", str(cfg),
                     "--set", "bootstrap_resamples=100"], tmp_path)
    assert code == 0
    summary = json.loads((out / "phi_sweep_summary.json").read_text())
    assert summary["config"]["trajectories"] == 120
    assert summary["config"]["r"] == 0.5


def test_non_utf8_config_file_is_named(tmp_path, capsys):
    # a UTF-16 byte-order mark is not UTF-8: the record names the file, as for bad JSON
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfetrajectories = 120\n")
    out = tmp_path / "out"
    code = main(["phi-sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config" and record["message"].startswith(f"{cfg}: ")
    assert not out.exists()


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
        assert lo < m < hi  # sampled, with an interval
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
        "1,0.50711660164320693,0.48512498526505715,0.53010513882653743,13820.517541189827,"
        "0.25690613240728821,1.939638030943823,0.52026009502288895,plus",
        "2,0.21687145997973087,0.20783841904946454,0.2262970935250731,131616.02732915818,"
        "0.034768464194563142,5.2257279718730567,0.19139299302082188,plus",
    ]


@pytest.mark.parametrize("verb, mode", [
    ("phi-sweep", "analytic"), ("scatter", "analytic"), ("r-scan", "analytic"),
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
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = clamped\n")
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"config": {"mode": "clamped"}}))
    for args in (["--set", "mode=decorrelated"], ["--set", "mode=clamped"],
                 ["--config", str(cfg)], ["--config", str(summary)]):
        code, out = run(["phi-sweep", *args], tmp_path)
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config" and record["message"].startswith("mode must be one of")
        assert not out.exists()


def test_r_scan_tw_smoke(tmp_path):
    code, out = run([
        "r-scan", "--set", "r_list=0.5,1.0", "--set", "trajectories=150",
        "--set", "bootstrap_resamples=100",
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
            "--set", "trajectories=150", "--set", "bootstrap_resamples=100", "--out"]
    _fresh_python(args + [str(tmp_path / "default")])
    _fresh_python(args + [str(tmp_path / "two")], "2")
    files = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "two").iterdir())
    assert "r_scan.csv" in files
    for name in files:
        assert (tmp_path / "default" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


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
        weight = estimator.correction_weight(sign)
    assert weight == {"plus": -1.0, "minus": 1.0, "off": 0.0}[sign]
    lines = [l for l in (out / "scatter.csv").read_text().splitlines() if not l.startswith("#")]
    s_a, s_b_over_g, s = np.array([l.split(",") for l in lines[1:]], dtype=float)[:, 2:].T
    assert np.array_equal(s, s_a + weight * s_b_over_g)
    assert np.all(s_b_over_g != 0.0)  # the light record is written for every setting


def test_scatter_reads_the_features_of_one_lo_draw(tmp_path, monkeypatch):
    # scatter's features are the read-out's features of its one ensemble, from one LO draw
    draws = []
    lo_noise_samples = interferometer.lo_noise_samples

    def counting(ensemble):
        draws.append(ensemble.n_traj)
        return lo_noise_samples(ensemble)

    monkeypatch.setattr(interferometer, "lo_noise_samples", counting)
    code, out = run(["scatter"] + FAST, tmp_path)
    assert code == 0 and draws == [150]
    config = cli.make_config(json.loads((out / "scatter_summary.json").read_text())["config"])
    ensembles, spec = estimator.prepare(config, [config.r])
    (features,) = interferometer.feature_sets(ensembles, spec)
    lines = [l for l in (out / "scatter.csv").read_text().splitlines() if not l.startswith("#")]
    rows = np.array([l.split(",") for l in lines[1:]], dtype=float)
    for k in range(len(config.scatter_phis)):
        assert np.array_equal(rows[k * 150:(k + 1) * 150, 3], features[:, 2])


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
    # a report read from non-finite amplitudes holds NaN drifts
    finite = ConservationReport(max_rel_drift_atoms=0.0, max_rel_drift_manley_rowe=3.6e-11,
                                k_drift=1e-9)
    broken = ConservationReport(max_rel_drift_atoms=0.0, max_rel_drift_manley_rowe=np.nan,
                                k_drift=np.nan)
    reports = [broken, finite] if nan_first else [finite, broken]
    for gates in (_gates(reports, {}), _gates([broken], {})):
        assert gates["drift"]["passed"] is False
        assert gates["drift"]["invariant"] == "manley_rowe"
        assert np.isnan(gates["drift"]["value"])
        assert gates["k_drift"]["passed"] is False and np.isnan(gates["k_drift"]["value"])
    assert _gates([finite], {})["drift"] == {"invariant": "manley_rowe", "value": 3.6e-11,
                                             "limit": DRIFT_LIMIT, "passed": True}


def perturb_the_closed_form(monkeypatch, pump=1.0, phase=1.0):
    """Scale every closed-form pump occupation by pump and every phase integral by phase."""
    original = threewave._integrals

    def perturbed(*args):
        n1, q, g = original(*args)
        return n1 * pump, q, g * phase

    monkeypatch.setattr(threewave, "_integrals", perturbed)


FAILING_RUNS = [
    ("phi-sweep", ["--set", "phi_count=21", "--set", "bootstrap_resamples=100"]),
    ("r-scan", ["--set", "r_list=1.0, 3.0", "--set", "bootstrap_resamples=100"]),
]


@pytest.mark.parametrize("verb,extra", FAILING_RUNS)
def test_drift_failure_is_reported(tmp_path, capsys, monkeypatch, verb, extra):
    # the pump occupation 1e-5 high: the atom number drifts by about 9e-6
    perturb_the_closed_form(monkeypatch, pump=1.0 + 1.0e-5)
    code, out = run([verb, "--set", "trajectories=150"] + extra, tmp_path)
    assert code == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    (record,) = [rec for rec in records if rec["error"] == "drift"]
    assert record["invariant"] == "atom_number"
    assert record["value"] > record["limit"] == DRIFT_LIMIT
    stem = verb.replace("-", "_")
    gate = json.loads((out / f"{stem}_summary.json").read_text())["gates"]["drift"]
    assert gate["passed"] is False
    assert gate["value"] == record["value"]


@pytest.mark.parametrize("verb,extra", FAILING_RUNS)
def test_k_drift_failure_is_reported(tmp_path, capsys, monkeypatch, verb, extra):
    # every phase integral 1e-4 high: the moduli, and so A and D, stay exact,
    # while K = Re(conj(a1) a2 b2) drifts with the phases, by about 3e-4
    perturb_the_closed_form(monkeypatch, phase=1.0 + 1.0e-4)
    code, out = run([verb, "--set", "trajectories=150"] + extra, tmp_path)
    assert code == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record["error"] == "k_drift" and record["invariant"] == "hamiltonian"
    assert record["value"] > record["limit"] == K_DRIFT_LIMIT
    gates = json.loads((out / f"{verb.replace('-', '_')}_summary.json").read_text())["gates"]
    assert gates["k_drift"]["passed"] is False and gates["drift"]["passed"] is True
    assert gates["k_drift"]["value"] == record["value"]


def test_integration_error_is_reported(tmp_path, capsys, monkeypatch):
    # no config overflows the closed form (it works in units of sqrt(A)), so the
    # sample carries one alpha2 = 1e308, whose A overflows: the one stop, r = 3,
    # is not finite
    original = dynamics.sample_initial_ensemble

    def with_a_huge_amplitude(*args):
        t0 = original(*args)
        t0.alpha2[3] = 1.0e308
        return t0

    monkeypatch.setattr(dynamics, "sample_initial_ensemble", with_a_huge_amplitude)
    out = tmp_path / "out"
    code = main(["phi-sweep", "--set", "trajectories=100", "--out", str(out)])
    assert code == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record == {"error": "integration", "invariant": "finite_state", "r": 3.0,
                      "limit": "finite"}
    assert not out.exists()


def test_failed_allocation_is_reported(tmp_path, capsys):
    # numpy refuses the first trajectory-sized array (petabytes) before taking any memory
    out = tmp_path / "out"
    code = main(["phi-sweep", "--set", "trajectories=1000000000000000", "--out", str(out)])
    assert code == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record["error"] == "memory" and "allocate" in record["message"]
    assert not out.exists()


def test_phase_grid_is_made_before_any_build(tmp_path, capsys, monkeypatch):
    # a grid past memory fails its allocation before any sampling
    def unreachable(*args, **kwargs):
        raise AssertionError("sampled before the phase grid was made")

    monkeypatch.setattr(dynamics, "sample_initial_ensemble", unreachable)
    out = tmp_path / "out"
    code = main(["phi-sweep", "--set", "phi_count=1000000000000000", "--out", str(out)])
    assert code == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record["error"] == "memory" and "allocate" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("verb", ["phi-sweep", "feasibility"])
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, verb):
    # an --out under a regular file is an io record (exit 1) before any sampling,
    # and nothing is created
    def unreachable(*args, **kwargs):
        raise AssertionError("sampled for an unwritable --out")

    monkeypatch.setattr(dynamics, "sample_initial_ensemble", unreachable)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for out in (blocker / "x", blocker / "x" / "y", blocker):
        code = main([verb, "--out", str(out)])
        assert code == 1
        (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert record == {"error": "io", "message": f"[Errno 20] Not a directory: '{out}'"}
    assert sorted(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"


def test_summaries_carry_passed_gates(tmp_path):
    for verb, extra in (("phi-sweep", []), ("scatter", []),
                        ("r-scan", ["--set", "r_list=0.5, 1.0"])):
        code, out = run([verb] + FAST + extra, tmp_path, verb)
        assert code == 0
        summary = json.loads((out / f"{verb.replace('-', '_')}_summary.json").read_text())
        gate = summary["gates"]["drift"]
        assert gate["passed"] is True and gate["value"] <= gate["limit"] == DRIFT_LIMIT
        gate = summary["gates"]["k_drift"]
        assert gate["passed"] is True and 0 < gate["value"] <= gate["limit"] == K_DRIFT_LIMIT
        assert gate["invariant"] == "hamiltonian"
        if verb != "scatter":  # the r-scan gate takes the worst row, the budget r_star's
            budget = summary["error_budget"]
            assert 0 < budget["k_drift_rel"] <= gate["value"] and 0 < budget["mc_rel"] < 1


@pytest.mark.parametrize("verb,extra,keys", [
    ("phi-sweep", [], ("min_m", "argmin_phi")),
    ("r-scan", ["--set", "r_list=0.5, 1.0"], ("m_star",)),
    ("scatter", [], ("corr_s_a_vs_s_b_over_g[1.5707963267948966]",)),
    ("analytic-table", ["--set", "r_list=1, 900"], ("delta_phi_plain",)),  # cosh(1800) overflows
])
def test_non_finite_output_is_refused(tmp_path, capsys, monkeypatch, verb, extra, keys):
    original = interferometer.fringe_features

    def nan_features(*args, **kwargs):
        features = original(*args, **kwargs)
        features[...] = np.nan
        return features

    monkeypatch.setattr(interferometer, "fringe_features", nan_features)
    code, out = run([verb] + FAST + extra, tmp_path)
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "finite" and record["limit"] == "finite"
    assert record["invariant"] in keys and not np.isfinite(record["value"])
    gates = json.loads((out / f"{verb.replace('-', '_')}_summary.json").read_text())["gates"]
    assert gates["finite"]["passed"] is False and gates["drift"]["passed"] is True
    assert gates["finite"]["invariant"] == record["invariant"]


def test_r_scan_gates_every_numeric_column(tmp_path, capsys):
    # m_plain overflows at r = 400 (cosh(800)), in a row away from the optimum;
    # analytic-table refuses the same r
    code, out = run(["r-scan"] + FAST + ["--set", "r_list=3, 400"], tmp_path)
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert (record["error"], record["invariant"]) == ("finite", "m_plain")
    gates = json.loads((out / "r_scan_summary.json").read_text())["gates"]
    assert gates["finite"]["passed"] is False and gates["finite"]["invariant"] == "m_plain"
    assert (out / "r_scan.csv").exists()


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
        "dynamics.check_pump_range",  # sinh^2 r overflows to inf: past the pump
        "estimator._statistics",  # x / 0, a zero slope: an infinite M
    ]


# --- figures -----------------------------------------------------------------------

def test_figures_sample_and_integrate_each_ensemble_once(tmp_path, monkeypatch):
    counts = {"sample_initial_ensemble": 0, "evolve_closed_form": 0}
    for name in counts:
        def counted(*args, _original=getattr(dynamics, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    code, _ = run(["--figures", "--set", "trajectories=100",
                   "--set", "bootstrap_resamples=100", "--set", "phi_count=21"], tmp_path)
    assert code == 0
    # unseeded and seeded: one sample and one closed-form evaluation each
    assert counts == {"sample_initial_ensemble": 2, "evolve_closed_form": 2}


def test_figures_refuse_an_r_past_the_pump_before_any_build(tmp_path, capsys, monkeypatch):
    # every recipe group's range is checked before the TW groups are integrated
    counts = {"sample_initial_ensemble": 0, "evolve_closed_form": 0}
    for name in counts:
        def counted(*args, _original=getattr(dynamics, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    code, out = run(["--figures", "--set", "mode=analytic", "--set", "r=12"], tmp_path)
    assert code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith("r = 12.0 is past the analytic mode's undepleted-pump range: ")
    assert counts == {"sample_initial_ensemble": 0, "evolve_closed_form": 0}
    assert not out.exists()


def test_figures_recipes(tmp_path):
    code, out = run([
        "--figures",
        "--set", "trajectories=100",
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


def test_a_flipped_orbit_branch_fails_the_k_drift_gate(tmp_path, capsys, monkeypatch):
    # the amplitudes keep A and D exactly, so the drift gate passes; the drift of
    # K = Re(conj(a1) a2 b2), which gates.k_drift holds, catches the branch
    flip_the_orbit_branch(monkeypatch)
    code, out = run(["phi-sweep"] + FAST, tmp_path)
    assert code == 1
    (record,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record["error"] == "k_drift" and record["value"] > 1e3 * K_DRIFT_LIMIT
    gates = json.loads((out / "phi_sweep_summary.json").read_text())["gates"]
    assert gates["k_drift"]["passed"] is False and gates["drift"]["passed"] is True


def test_figures_gate_the_squeezing_table(tmp_path, capsys, monkeypatch):
    # with mode=analytic only the squeezing table reads the TW ensembles, and
    # a flipped orbit branch fails the K-drift gate there
    flip_the_orbit_branch(monkeypatch)
    code, out = run(["--figures", "--set", "mode=analytic", "--set", "trajectories=100"],
                    tmp_path)
    assert code == 1
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert {record["error"] for record in records} == {"k_drift"}
    gates = json.loads((out / "figures" / "squeezing_vs_r_summary.json").read_text())["gates"]
    assert gates["drift"]["passed"] is True and gates["k_drift"]["passed"] is False
    assert gates["finite"]["passed"] is True
    assert (out / "figures" / "squeezing_vs_r.csv").exists()


# --- what a run keeps -----------------------------------------------------------------

@pytest.mark.parametrize("verb, config", [("phi-sweep", "working_point.cfg"),
                                          ("r-scan", "r_scan_seeded.cfg")])
def test_the_estimator_holds_one_set_at_a_time(tmp_path, monkeypatch, verb, config):
    """At 1e5 trajectories, the estimator stage (_curves: the read-out's
    features and their sums) traces a peak above the live ensembles of less
    than two sets' features and evaluate's five rows, 11 rows of n doubles,
    whatever the number of sets.

    Measured: 10.03 rows for the one set of the phi-sweep and for the 13
    sets of the r-scan, the LO noise (2 rows), one set's features (3) and
    the five rows; with the (sets, n, 3) feature stack the r-scan read
    46.0.  Below 65536 trajectories the LO draw's fixed block of raw words
    sets the peak instead (14.8 rows at 2e4).
    """
    n, peaks = 100_000, []
    curves = estimator._curves

    def traced(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return curves(*args, **kwargs)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / (8 * n))

    monkeypatch.setattr(estimator, "_curves", traced)
    tracemalloc.start()
    try:
        code, _ = run([verb, "--config", str(SRC.parent / "configs" / config),
                       "--set", f"trajectories={n}"], tmp_path)
    finally:
        tracemalloc.stop()
    assert code == 0 and len(peaks) == 1
    assert peaks[0] < 2 * 3 + 5, peaks


# --- what a run loads ----------------------------------------------------------------

def test_runs_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 10 ms and 1.3-2 MB to import (np.percentile and np.unique
    # load it), and no run needs it
    runs = [["phi-sweep", "--set", "trajectories=200", "--set", "phi_count=5",
             "--set", "bootstrap_resamples=100", "--out", str(tmp_path / "a")],
            ["r-scan", "--config", str(SRC.parent / "configs" / "r_scan_seeded.cfg"),
             "--set", "trajectories=200", "--out", str(tmp_path / "b")]]
    code = (f"import sys; from atomlight.cli import main; "
            f"assert [main(args) for args in {runs!r}] == [0, 0]; "
            f"print('numpy.ma' in sys.modules)")
    assert _fresh_python(["-c", code]).strip() == "False"
