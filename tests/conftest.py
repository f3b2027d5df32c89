import numpy as np
import pytest

from atomlight import build_ensembles, phasespace

MASTER_SEED = 12345
N_TOTAL = 1.0e7
N_SEED = 1.0e4


@pytest.fixture(scope="session")
def working_point_ensemble():
    """Full-dynamics ensemble at the standard working point: r = 3, seeded."""
    return build_ensembles(N_TOTAL, N_SEED, [3.0], 1000, MASTER_SEED)[0]


@pytest.fixture(scope="session")
def coherent_ensemble():
    """No squeezing, no seed: a plain coherent-state interferometer input."""
    return build_ensembles(N_TOTAL, 0.0, [0.0], 4000, MASTER_SEED)[0]


@pytest.fixture
def drawn_streams(monkeypatch):
    """The tag of each noise stream opened during the test, in order."""
    tags, open_stream = [], phasespace.open_stream

    def counting(master_seed, stream_tag, *args):
        tags.append(stream_tag)
        return open_stream(master_seed, stream_tag, *args)

    monkeypatch.setattr(phasespace, "open_stream", counting)
    return tags
