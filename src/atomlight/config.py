"""Run configuration: every physical and numerical parameter of one experiment.

Configs load from flat ``key = value`` text files (``#`` starts a comment;
unknown keys are hard errors so typos cannot silently fall back to a
default), with command-line overrides applied on top.  The defaults
reproduce the standard working point: r = 3, N_seed = 1e4, N_t = 1e7,
g = 100, 1000 trajectories.

Each key of a run config (``RUN_KINDS``) and of a feasibility setup
(``SETUP_KINDS``) has one kind: how its text parses and which values it takes,
checked again on the values of a config embedded in a JSON summary.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import DEFAULT_STEPS_PER_UNIT_R, EVOLUTION_MODES

# config value -> HomodyneSpec.correction_sign
CORRECTIONS = {"on": "plus", "off": "off", "auto_sign": "auto"}
OUTPUT_FORMATS = ("csv", "json")
# the fewest trajectories a sensitivity is estimated from, and the fewest
# bootstrap resamples an interval is read from
MIN_TRAJECTORIES = 100
MIN_RESAMPLES = 100
_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def _is_number(value) -> bool:
    """A real number that is not a bool (JSON true/false would pass as 1/0)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(values) -> bool:
    try:
        return bool(np.all(np.isfinite(np.array(values, dtype=np.float64))))
    except OverflowError:  # an int beyond the float range
        return False


def _is_floats(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_number, value)) and _finite(value)


def _parse_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


# A kind is (what a value must be, text -> value, does a value qualify).
INT = ("an integer", int, lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool))
FLOAT = ("a finite number", float, lambda v: _is_number(v) and _finite(v))
FLOATS = ("a list of finite numbers", _parse_floats, _is_floats)
FLOATS_OR_NONE = ("a list of finite numbers or null", _parse_floats,
                  lambda v: v is None or _is_floats(v))
BOOL = ("a boolean", lambda raw: _BOOL_STRINGS[raw.lower()], lambda v: isinstance(v, bool))


def _choice(options: tuple) -> tuple:
    return (f"one of {options}", str, lambda v: v in options)


RUN_KINDS = {
    "n_total": FLOAT, "n_seed": FLOAT, "r": FLOAT, "r_list": FLOATS_OR_NONE,
    "phi_start": FLOAT, "phi_stop": FLOAT, "phi_count": INT, "gain_g": FLOAT,
    "trajectories": INT, "steps_per_unit_r": INT, "master_seed": INT,
    "mode": _choice(EVOLUTION_MODES), "correction": _choice(tuple(CORRECTIONS)),
    "lo_sampled": BOOL, "output_format": _choice(OUTPUT_FORMATS), "threads": INT,
    "bootstrap_resamples": INT, "scatter_phis": FLOATS,
}
SETUP_KINDS = dict.fromkeys(
    ("atomic_mass", "radial_trap_freq", "wavelength", "n_seed", "n_total"), FLOAT)


def check_kinds(values: dict, kinds: dict):
    """Raise a ConfigError naming the first key whose value its kind refuses."""
    for key, value in values.items():
        what, _, qualifies = kinds[key]
        if not qualifies(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")


@dataclass
class RunConfig:
    n_total: float = 1.0e7
    n_seed: float = 1.0e4
    r: float = 3.0
    r_list: list[float] | None = None
    phi_start: float = 0.0
    phi_stop: float = 2.0 * np.pi
    phi_count: int = 201
    gain_g: float = 100.0
    trajectories: int = 1000
    steps_per_unit_r: int = DEFAULT_STEPS_PER_UNIT_R
    master_seed: int = 12345
    mode: str = "tw"
    correction: str = "auto_sign"
    lo_sampled: bool = True
    output_format: str = "csv"
    threads: int = 1
    bootstrap_resamples: int = 200
    scatter_phis: list[float] = field(
        default_factory=lambda: [np.pi / 2, np.pi, 3 * np.pi / 2]
    )

    def validate(self) -> "RunConfig":
        check_kinds(vars(self), RUN_KINDS)
        if self.n_total <= 0:
            raise ConfigError("n_total must be finite and > 0")
        if self.n_seed < 0 or self.n_seed >= self.n_total:
            raise ConfigError("need 0 <= n_seed < n_total")
        if self.r < 0:
            raise ConfigError("r must be >= 0")
        if self.r_list is not None:
            if len(self.r_list) == 0 or any(v < 0 for v in self.r_list):
                raise ConfigError("r_list must be non-empty with all values >= 0")
        if self.phi_count < 2 or self.phi_stop <= self.phi_start:
            raise ConfigError("phi grid needs phi_stop > phi_start and phi_count >= 2")
        if self.gain_g <= 0:
            raise ConfigError("gain_g must be > 0")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must lie in [0, 2^64)")
        if self.trajectories < MIN_TRAJECTORIES:
            raise ConfigError(f"trajectories must be >= {MIN_TRAJECTORIES}")
        if self.steps_per_unit_r < 1:
            raise ConfigError("steps_per_unit_r must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.bootstrap_resamples < MIN_RESAMPLES:
            raise ConfigError(f"bootstrap_resamples must be >= {MIN_RESAMPLES}")
        if len(self.scatter_phis) == 0:
            raise ConfigError("scatter_phis must be non-empty")
        return self

    def to_dict(self) -> dict:
        """Resolved config for embedding in outputs.

        The worker-thread count is an execution detail with no effect on any
        result, so it is left out: outputs stay byte-identical at any thread
        count and a re-run from an embedded config needs no thread setting.
        """
        out = asdict(self)
        del out["threads"]
        return out


def parse_assignments(lines, source: str = "<config>", keys=RUN_KINDS) -> dict:
    """Parse ``key = value`` lines into a mapping of the keys of ``keys``, by kind."""
    out = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        what, parse, _ = keys[key]
        try:
            out[key] = parse(raw)
        except (ValueError, KeyError):
            raise ConfigError(f"{source}:{lineno}: {key} must be {what}, got {raw!r}") from None
    return out


def load_config_file(path, keys=RUN_KINDS) -> dict:
    """Load a flat key=value config file, or the embedded config of a JSON summary."""
    import json
    from pathlib import Path

    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        embedded = payload.get("config", payload)
        if not isinstance(embedded, dict):
            raise ConfigError(f"{path}: the embedded config must be a JSON object")
        unknown = set(embedded) - set(keys)
        if unknown:
            raise ConfigError(f"{path}: unknown keys in embedded config: {sorted(unknown)}")
        return dict(embedded)
    return parse_assignments(text.splitlines(), source=str(path), keys=keys)


def make_config(mapping: dict) -> RunConfig:
    return RunConfig(**mapping).validate()
