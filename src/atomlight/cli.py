"""Batch command-line interface.

Verbs (``_verbs``): ``phi-sweep``, ``r-scan``, ``scatter``, ``analytic-table``,
``feasibility``, and ``figures`` (also ``--figures``), the bundled figure
recipes.  Config input is checked by key kind before any work.  Every output
embeds the fully resolved configuration, numbers are written with 17
significant digits, and re-running from an output's embedded config reproduces
the files byte-for-byte at any thread count.  main alone sets numpy's
floating-point error state: it ignores every error around the verb, whose
gates report each non-finite value it hides; library calls warn as numpy does.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analytics import heisenberg, predict, r_crit, sql
from .config import (
    RUN_KINDS,
    SETUP_KINDS,
    ConfigError,
    RunConfig,
    check_kinds,
    load_config_file,
    make_config,
    parse_assignments,
)
from .dynamics import ConservationReport, IntegrationError, check_pump_range, transferred_atoms
from .estimator import (
    fringe_features,
    prepare,
    scan_over_r,
    sensitivity_curve,
    squeezed_combo_variance,
)
from .feasibility import PhysicalSetup, capture_fraction, rate_ratio, scaling_estimate
from .interferometer import correction_weight
from . import __version__

DRIFT_LIMIT = 1.0e-6  # conservation drift above this fails the run
RK4_LIMIT = 1.0e-6  # the propagator's error estimate (rk4_error) above this fails the run
RATE_RATIO_VALID = 100.0  # single-mode model considered valid above this


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _config_echo_lines(config: dict) -> list[str]:
    lines = []
    for key, value in config.items():
        if isinstance(value, (list, tuple)):
            value = ", ".join(_fmt(v) for v in value)
        elif value is None:
            value = ""
        else:
            value = _fmt(value)
        lines.append(f"# {key} = {value}")
    return lines


def write_table(path: Path, columns: list[str], rows, config: dict, fmt: str):
    """Write a data table as CSV (with a config-echo comment block) or JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = {
            "config": config,
            "columns": columns,
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return
    lines = _config_echo_lines(config)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_summary(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_run(config: RunConfig, out_dir: Path, stem: str, columns: list[str], rows,
               summary: dict, reports=None, finite=None) -> int:
    """Write the data table and the summary (config, summary, then the gates over
    reports and finite when reports are given); 0 unless a gate failed."""
    payload = {"config": config.to_dict(), **summary}
    write_table(out_dir / f"{stem}.{config.output_format}", columns, rows, payload["config"],
                config.output_format)
    if reports is not None:
        payload["gates"] = _gates(reports, finite)
    write_summary(out_dir / f"{stem}_summary.json", payload)
    return _gate_status(payload.get("gates", {}))


PHI_SWEEP_COLUMNS = [
    "phi", "mean_s_a", "var_s_a", "mean_s_b", "mean_s", "var_s",
    "ds_dphi", "delta_phi", "m", "m_ci_lo", "m_ci_hi",
]


def cmd_phi_sweep(config: RunConfig, out_dir: Path, stem: str = "phi_sweep",
                  ensembles=None) -> int:
    (ensemble,), spec = prepare(config, [config.r], ensembles)
    phi = np.linspace(config.phi_start, config.phi_stop, config.phi_count)
    curve = sensitivity_curve(ensemble, phi, spec, resamples=config.bootstrap_resamples)
    rows = list(zip(*(getattr(curve, c) for c in PHI_SWEEP_COLUMNS)))
    min_m, argmin_phi, k = curve.min_m()
    drift = ensemble.conservation
    transferred = transferred_atoms(ensemble)
    ci = [float(curve.m_ci_lo[k]), float(curve.m_ci_hi[k])]
    return _write_run(config, out_dir, stem, PHI_SWEEP_COLUMNS, rows, {
        "min_m": min_m,
        "argmin_phi": argmin_phi,
        "m_ci_at_argmin": ci,
        "transferred_atoms": transferred,
        "correction_sign": curve.correction_sign,
        "max_rel_drift_atoms": drift.max_rel_drift_atoms,
        "max_rel_drift_manley_rowe": drift.max_rel_drift_manley_rowe,
        "traj_count": curve.traj_count,
        "error_budget": _error_budget(drift, min_m, ci),
    }, [drift], {"min_m": min_m, "argmin_phi": argmin_phi, "transferred_atoms": transferred})


R_SCAN_COLUMNS = [
    "r", "m", "m_ci_lo", "m_ci_hi", "transferred", "var_squeezed_combo",
    "m_plain", "m_recycled", "correction_sign",
]


def cmd_r_scan(config: RunConfig, out_dir: Path, stem: str = "r_scan", ensembles=None) -> int:
    if not config.r_list:
        raise ConfigError("r-scan needs a non-empty r_list")
    result = scan_over_r(config.r_list, config, ensembles)
    rows = [tuple(getattr(row, c) for c in R_SCAN_COLUMNS) for row in result.rows]
    star = result.rows[result.star]
    finite = {"r_star": star.r, "m_star": star.m, "atoms_transferred_at_star": star.transferred}
    return _write_run(config, out_dir, stem, R_SCAN_COLUMNS, rows, {
        **finite,
        "equivalent_atom_gain": 1.0 / star.m**2 if star.m > 0 else float("inf"),
        "at_boundary": result.at_boundary,
        "error_budget": _error_budget(star.conservation, star.m, (star.m_ci_lo, star.m_ci_hi)),
    }, [row.conservation for row in result.rows], finite)


SCATTER_COLUMNS = ["trajectory", "phi", "s_a", "s_b_over_g", "s"]


def cmd_scatter(config: RunConfig, out_dir: Path, stem: str = "scatter", ensembles=None) -> int:
    (ensemble,), spec = prepare(config, [config.r], ensembles)
    features, _, sign = fringe_features(ensemble, spec)
    b, c, s_b_scaled = features.T
    rows = []
    corr = {}
    for phi in config.scatter_phis:
        s_a = b * np.cos(phi) + c * np.sin(phi)
        s = s_a + correction_weight(sign) * s_b_scaled
        rows.extend(zip(range(ensemble.n_traj), [phi] * ensemble.n_traj, s_a, s_b_scaled, s))
        corr[_fmt(float(phi))] = float(np.corrcoef(s_a, s_b_scaled)[0, 1])
    drift = ensemble.conservation
    transferred = transferred_atoms(ensemble)
    finite = {f"corr_s_a_vs_s_b_over_g[{phi}]": c for phi, c in corr.items()}
    return _write_run(config, out_dir, stem, SCATTER_COLUMNS, rows, {
        "correction_sign": sign,
        "corr_s_a_vs_s_b_over_g": corr,
        "transferred_atoms": transferred,
        "max_rel_drift_atoms": drift.max_rel_drift_atoms,
        "max_rel_drift_manley_rowe": drift.max_rel_drift_manley_rowe,
    }, [drift], {**finite, "transferred_atoms": transferred})


def make_setup(mapping: dict) -> PhysicalSetup:
    """The feasibility setup of mapping, checked by kind as a run config is; a
    number given in JSON is stored as a float, as the report echoes it."""
    check_kinds(mapping, SETUP_KINDS)
    return PhysicalSetup(**{key: float(value) for key, value in mapping.items()}).validate()


def cmd_feasibility(setup: PhysicalSetup, out_dir: Path, stem: str = "feasibility") -> int:
    fraction = capture_fraction(setup)
    ratio = rate_ratio(setup)
    scaling = scaling_estimate(setup.n_seed, setup.n_total) if setup.n_seed > 0 else None
    write_summary(out_dir / f"{stem}.json", {
        "config": asdict(setup),
        "capture_fraction": fraction,
        "rate_ratio": ratio,
        "scaling_estimate": scaling,
        "single_mode_valid": bool(ratio >= RATE_RATIO_VALID),
    })
    return 0


ANALYTIC_COLUMNS = [
    "r", "delta_phi_plain", "delta_phi_recycled", "m_plain", "m_recycled",
    "var_squeezed_combo", "var_antisqueezed_combo",
]


def cmd_analytic_table(config: RunConfig, out_dir: Path, stem: str = "analytic_table") -> int:
    r_values = config.r_list if config.r_list else list(np.linspace(0.0, 5.0, 51))
    rows = []
    for r in r_values:
        p = predict(float(r), config.n_total)
        rows.append((p.r, p.delta_phi_plain, p.delta_phi_recycled, p.m_plain,
                     p.m_recycled, p.var_squeezed_combo, p.var_antisqueezed_combo))
    return _write_run(config, out_dir, stem, ANALYTIC_COLUMNS, rows, {
        "sql": sql(config.n_total),
        "heisenberg": heisenberg(config.n_total),
        "r_crit": r_crit(),
    }, [ConservationReport()], _column_maxima(ANALYTIC_COLUMNS, rows))


def cmd_figures(config: RunConfig, out_dir: Path) -> int:
    """Run the bundled figure recipes: squeezing vs r, M vs r, and the phase sweep.

    Each recipe's config lists the r values it reads.  One sample and one
    pass per distinct (n_seed, mode) serve every recipe that shares them.
    """
    fig_dir = out_dir / "figures"
    r_grid = [round(v, 10) for v in np.arange(0.0, 4.01, 0.2)]
    unseeded = replace(config, n_seed=0.0,
                       r_list=[round(v, 10) for v in np.arange(3.0, 5.51, 0.25)])
    seeded = replace(config, r_list=[round(v, 10) for v in np.arange(1.0, 4.01, 0.25)])
    recipes = [replace(cfg, mode="tw", r_list=r_grid) for cfg in (unseeded, seeded)]
    recipes += [unseeded, seeded, replace(config, r_list=[config.r])]
    runs = {}
    for cfg in recipes:
        runs.setdefault((cfg.n_seed, cfg.mode), (cfg, []))[1].extend(cfg.r_list)
        check_pump_range(cfg.n_total, cfg.n_seed, cfg.r_list, cfg.mode)  # before any build
    built = {key: dict(zip(rs, prepare(cfg, rs)[0])) for key, (cfg, rs) in runs.items()}
    tw_unseeded, tw_seeded, m_unseeded, m_seeded, working = (
        [built[cfg.n_seed, cfg.mode][r] for r in cfg.r_list] for cfg in recipes)

    # (a) variance of the squeezed quadrature combination vs r, gated over its TW ensembles
    columns = ["r", "var_undepleted", "var_tw_unseeded", "transferred_unseeded",
               "var_tw_seeded", "transferred_seeded"]
    rows = [(r, predict(r, config.n_total).var_squeezed_combo,
             squeezed_combo_variance(u), transferred_atoms(u),
             squeezed_combo_variance(s), transferred_atoms(s))
            for r, u, s in zip(r_grid, tw_unseeded, tw_seeded)]
    status = _write_run(config, fig_dir, "squeezing_vs_r", columns, rows, {},
                        [e.conservation for e in tw_unseeded + tw_seeded],
                        _column_maxima(columns[2:], [row[2:] for row in rows]))
    # (b), (c) M vs r, unseeded and seeded
    status |= cmd_r_scan(unseeded, fig_dir, "m_vs_r_unseeded", m_unseeded)
    status |= cmd_r_scan(seeded, fig_dir, "m_vs_r_seeded", m_seeded)
    # (d) fringe, per-trajectory scatter and M vs phi at the working point
    status |= cmd_phi_sweep(config, fig_dir, "phi_sweep_working_point", working)
    status |= cmd_scatter(config, fig_dir, "scatter_working_point", working)
    return status


def _error_budget(conservation: ConservationReport, m: float, ci) -> dict:
    """Relative precision of M at the reported point: the propagator's estimate
    (ConservationReport.rk4_error: the drift of K in tw mode, step doubling in
    clamped mode) against Monte Carlo (half the bootstrap interval over M)."""
    return {"rk4_rel": conservation.rk4_error,
            "mc_rel": float(np.divide(ci[1] - ci[0], 2.0 * m))}


def _column_maxima(columns, rows) -> dict:
    """Each column's largest |value|, for the finite gate (NaN and inf survive the max)."""
    return {key: float(np.max(np.abs(column))) for key, column in zip(columns, zip(*rows))}


def _gates(reports, finite: dict) -> dict:
    """Summary gates block: the worse conservation drift and the propagator's error
    estimate (rk4_error) over reports against their limits, and the first value
    in finite that is not finite (on a pass, the keys checked).  A NaN in any
    report is the worst value."""
    drifts = {"atom_number": float(np.max([c.max_rel_drift_atoms for c in reports])),
              "manley_rowe": float(np.max([c.max_rel_drift_manley_rowe for c in reports]))}
    worst = max(drifts, key=lambda key: (np.isnan(drifts[key]), drifts[key]))
    rk4 = float(np.max([c.rk4_error for c in reports]))
    bad = next((key for key, value in finite.items() if not np.isfinite(value)), None)
    return {"drift": {"invariant": worst, "value": drifts[worst], "limit": DRIFT_LIMIT,
                      "passed": all(d <= DRIFT_LIMIT for d in drifts.values())},
            "rk4": {"invariant": "rk4_step_error", "value": rk4, "limit": RK4_LIMIT,
                    "passed": rk4 <= RK4_LIMIT},
            "finite": {"invariant": bad or ", ".join(finite), "limit": "finite",
                       "value": None if bad is None else float(finite[bad]),
                       "passed": bad is None}}


def _gate_status(gates: dict) -> int:
    """Exit status 0 when every gate passed; each failure goes to stderr as a record."""
    status = 0
    for kind, gate in gates.items():
        if not gate["passed"]:
            print(json.dumps({"error": kind, "invariant": gate["invariant"],
                              "value": gate["value"], "limit": gate["limit"]}), file=sys.stderr)
            status = 1
    return status


def _error_record(kind: str, message: str) -> str:
    return json.dumps({"error": kind, "message": message})


def _verbs() -> dict:
    """verb: (handler, config keys and kinds, config constructor, help).  Built when
    called, so that a function rebound on this module (as perfbench/tracing.py
    wraps the handlers) is the one that runs."""
    run = (RUN_KINDS, make_config)
    return {
        "phi-sweep": (cmd_phi_sweep, *run, "sensitivity across the interferometer phase grid"),
        "r-scan": (cmd_r_scan, *run, "M at phi = pi/2 across r_list, with the optimum"),
        "scatter": (cmd_scatter, *run, "per-trajectory signals at a few phases"),
        "feasibility": (cmd_feasibility, SETUP_KINDS, make_setup,
                        "geometric capture fraction and rate-ratio estimates"),
        "analytic-table": (cmd_analytic_table, *run,
                           "closed-form undepleted-pump predictions per r"),
        "figures": (cmd_figures, *run, "run the bundled figure recipes"),
    }


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file, or a summary JSON "
                                         "with an embedded config")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("--seed", type=int, help="override master_seed")
    common.add_argument("--threads", type=int,
                        help="accepted for the benchmark workloads, which pass it; "
                             "changes nothing, as the program runs on one thread")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--format", help="data file format, csv or json")

    parser = argparse.ArgumentParser(
        prog="atomlight",
        description="Monte Carlo phase-space simulation of an atom interferometer "
                    "with homodyne read-out of the beam-splitting light.",
    )
    parser.add_argument("--version", action="version", version=f"atomlight {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (*_, text) in _verbs().items():
        sub.add_parser(verb, parents=[common], help=text)
    return parser


def _resolve_mapping(args, keys) -> dict:
    """The config file, then each --set, then the common flags (refused for a key
    that keys lacks, as an unknown --set key is)."""
    mapping = {}
    if args.config:
        mapping.update(load_config_file(args.config, keys=keys))
    for item in args.set:
        mapping.update(parse_assignments([item], source="--set", keys=keys))
    flags = {"master_seed": args.seed, "threads": args.threads, "output_format": args.format}
    flags = {key: value for key, value in flags.items() if value is not None}
    unknown = sorted(set(flags) - set(keys))
    if unknown:
        raise ConfigError(f"common flags set keys {args.command} does not have: {unknown}")
    mapping.update(flags)
    return mapping


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    verbs = _verbs()
    if "--figures" in argv:  # common-flag spelling of the figures verb
        argv.remove("--figures")
        if argv and argv[0] in verbs and argv[0] != "figures":
            print(_error_record("config", f"--figures conflicts with the "
                                          f"{argv[0]!r} command"), file=sys.stderr)
            return 2
        if not argv or argv[0] != "figures":
            argv.insert(0, "figures")
    args = _build_parser().parse_args(argv)
    handler, kinds, make, _ = verbs[args.command]

    try:
        with np.errstate(all="ignore"):  # the gates report what overflows
            return handler(make(_resolve_mapping(args, kinds)), Path(args.out))
    except IntegrationError as exc:  # raised before any file is written
        print(json.dumps({"error": "integration", "invariant": "finite_state", "pass": exc.lattice,
                          "step_index": exc.step_index, "limit": "finite"}), file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:  # ConfigError is a ValueError
        print(_error_record("config", str(exc)), file=sys.stderr)
        return 2
    except OSError as exc:
        print(_error_record("io", str(exc)), file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(_error_record("memory", str(exc)), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
