"""Property tests: every bad config mapping is refused by validation."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlight.cli import make_setup
from atomlight.config import (
    CORRECTIONS,
    RUN_KINDS,
    SETUP_KINDS,
    ConfigError,
    RunConfig,
    make_config,
)
from atomlight.dynamics import EVOLUTION_MODES
from atomlight.feasibility import PhysicalSetup

FLOAT_KEYS = ("n_total", "n_seed", "r", "phi_start", "phi_stop", "gain_g")
SETUP_KEYS = ("atomic_mass", "radial_trap_freq", "wavelength", "n_seed", "n_total")
LIST_KEYS = ("r_list", "scatter_phis")
INT_KEYS = ("phi_count", "trajectories", "master_seed", "threads", "bootstrap_resamples")
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

# valid settings that do not constrain one another, to vary the rest of the mapping
valid_rest = st.fixed_dictionaries({}, optional={
    "r": st.floats(0.0, 5.0),
    "gain_g": st.floats(1.0, 1.0e3),
    "trajectories": st.integers(100, 10_000),
    "master_seed": st.integers(0, 2**64 - 1),
    "phi_count": st.integers(2, 401),
    "threads": st.integers(1, 8),
    "bootstrap_resamples": st.integers(100, 1000),
    "mode": st.sampled_from(EVOLUTION_MODES),
    "correction": st.sampled_from(list(CORRECTIONS)),
})


# a valid feasibility setup around the bundled Rb-87 example
valid_setup = st.fixed_dictionaries({}, optional={
    "radial_trap_freq": st.floats(10.0, 1.0e4),
    "wavelength": st.floats(1.0e-7, 2.0e-6),
    "n_seed": st.floats(0.0, 1.0e4),
})


def rejected(mapping, make=make_config) -> bool:
    with pytest.raises(ConfigError):
        make(mapping)
    return True


def test_every_field_has_one_kind():
    assert list(RUN_KINDS) == [f.name for f in fields(RunConfig)]
    assert list(SETUP_KINDS) == [f.name for f in fields(PhysicalSetup)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(valid_rest, st.sampled_from(FLOAT_KEYS), st.just(make_config)),
                 st.tuples(valid_setup, st.sampled_from(SETUP_KEYS), st.just(make_setup))),
       NON_FINITE)
def test_non_finite_float_key_rejected(case, value):
    # run configs and feasibility setups pass the same check on each key's kind
    rest, key, make = case
    assert rejected({**rest, key: value}, make)


@settings(max_examples=60, deadline=None)
@given(valid_rest, st.sampled_from(LIST_KEYS),
       st.lists(st.floats(0.0, 5.0), max_size=4), NON_FINITE, st.data())
def test_non_finite_list_entry_rejected(rest, key, values, bad, data):
    position = data.draw(st.integers(0, len(values)))
    assert rejected({**rest, key: values[:position] + [bad] + values[position:]})


@settings(max_examples=60, deadline=None)
@given(valid_rest, st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)))
def test_master_seed_outside_u64_rejected(rest, seed):
    assert rejected({**rest, "master_seed": seed})


@settings(max_examples=60, deadline=None)
@given(valid_rest, st.integers(1, 99))
def test_too_few_trajectories_rejected(rest, trajectories):
    assert rejected({**rest, "trajectories": trajectories})


@settings(max_examples=60, deadline=None)
@given(valid_rest, st.sampled_from(INT_KEYS),
       st.one_of(st.booleans(), st.floats(100.0, 1000.0), st.text(max_size=4)))
def test_non_integer_count_rejected(rest, key, value):
    # a config embedded in a JSON summary arrives as raw JSON values
    assert rejected({**rest, key: value})


@settings(max_examples=60, deadline=None)
@given(valid_rest, st.one_of(st.integers(0, 1), st.floats(0.0, 1.0),
                             st.sampled_from(["no", "yes", "true", ""])))
def test_non_boolean_lo_sampled_rejected(rest, value):
    assert rejected({**rest, "lo_sampled": value})


@settings(max_examples=60, deadline=None)
@given(valid_rest)
def test_valid_mapping_accepted(rest):
    config = make_config(rest)
    assert config.trajectories >= 100 and 0 <= config.master_seed < 2**64
