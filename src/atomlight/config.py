"""Run configuration: every physical and numerical parameter of one experiment.

Configs load from flat ``key = value`` text files (``#`` starts a comment;
unknown keys are hard errors so typos cannot silently fall back to a
default), with command-line overrides applied on top.  The defaults
reproduce the standard working point: r = 3, N_seed = 1e4, N_t = 1e7,
g = 100, 1000 trajectories.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dynamics import DEFAULT_STEPS_PER_UNIT_R, EVOLUTION_MODES

# config value -> HomodyneSpec.correction_sign
CORRECTIONS = {"on": "plus", "off": "off", "auto_sign": "auto"}
OUTPUT_FORMATS = ("csv", "json")
INT_KEYS = ("phi_count", "trajectories", "steps_per_unit_r", "master_seed", "threads",
            "bootstrap_resamples")
FLOAT_KEYS = ("n_total", "n_seed", "r", "phi_start", "phi_stop", "gain_g")
LIST_KEYS = ("r_list", "scatter_phis")


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def _is_number(value) -> bool:
    """A real number that is not a bool (JSON true/false would pass as 1/0)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        for key in INT_KEYS:  # a config embedded in a JSON summary skips the text parser
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not isinstance(self.lo_sampled, bool):
            raise ConfigError(f"lo_sampled must be a boolean, got {self.lo_sampled!r}")
        for key in FLOAT_KEYS + LIST_KEYS:
            value = getattr(self, key)
            if key == "r_list" and value is None:
                continue
            values = value if key in LIST_KEYS else [value]
            if not isinstance(values, (list, tuple)) or not all(map(_is_number, values)):
                kind = "a list of numbers" if key in LIST_KEYS else "a number"
                raise ConfigError(f"{key} must be {kind}, got {value!r}")
            try:
                finite = np.all(np.isfinite(np.array(values, dtype=np.float64)))
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise ConfigError(f"{key} must be finite")
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
        if self.trajectories < 100:
            raise ConfigError("trajectories must be >= 100")
        if self.steps_per_unit_r < 1:
            raise ConfigError("steps_per_unit_r must be >= 1")
        if self.mode not in EVOLUTION_MODES:
            raise ConfigError(f"mode must be one of {EVOLUTION_MODES}")
        if self.correction not in CORRECTIONS:
            raise ConfigError(f"correction must be one of {tuple(CORRECTIONS)}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(f"output_format must be one of {OUTPUT_FORMATS}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.bootstrap_resamples < 100:
            raise ConfigError("bootstrap_resamples must be >= 100")
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


RUN_KEYS = tuple(f.name for f in fields(RunConfig))
FEASIBILITY_KEYS = ("atomic_mass", "radial_trap_freq", "wavelength", "n_seed", "n_total")

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in ("r_list", "scatter_phis"):
        return [float(tok) for tok in raw.replace(",", " ").split()]
    if key == "lo_sampled":
        try:
            return _BOOL_STRINGS[raw.lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected a boolean, got {raw!r}") from None
    if key in ("mode", "correction", "output_format"):
        return raw
    if key in INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def parse_assignments(lines, source: str = "<config>", keys=RUN_KEYS) -> dict:
    """Parse ``key = value`` lines into a mapping of known config keys."""
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
        out[key] = _parse_value(key, raw)
    return out


def load_config_file(path, keys=RUN_KEYS) -> dict:
    """Load a flat key=value config file, or the embedded config of a JSON summary."""
    import json
    from pathlib import Path

    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        embedded = payload.get("config", payload)
        unknown = set(embedded) - set(keys)
        if unknown:
            raise ConfigError(f"{path}: unknown keys in embedded config: {sorted(unknown)}")
        return dict(embedded)
    return parse_assignments(text.splitlines(), source=str(path), keys=keys)


def make_config(mapping: dict) -> RunConfig:
    cfg = RunConfig(**mapping)
    return cfg.validate()
