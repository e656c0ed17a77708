import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from smirsim.infonet import InfoNetwork
from smirsim.scenario import Scenario

# Reproducible property tests that keep no example database, and whose
# caches (source constants, unicode tables) stay out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "smirsim-hypothesis")
settings.register_profile(
    "smirsim", derandomize=True, deadline=None, database=None, max_examples=300
)
settings.load_profile("smirsim")


def build_infonet(n, edges, county=None, alignment=None, seeds=()):
    """Small hand-built network; edges are (src, dst, weight) index triples."""
    edges = list(edges)
    seed = np.zeros(n, dtype=bool)
    seed[list(seeds)] = True
    if alignment is None:
        alignment = np.ones(n)
    return InfoNetwork(
        ids=np.arange(n, dtype=np.int64),
        county=np.asarray(county if county is not None else [1000] * n, dtype=np.int64),
        alignment=np.asarray(alignment, dtype=float),
        seed=seed,
        edge_src=np.asarray([e[0] for e in edges], dtype=np.int64),
        edge_dst=np.asarray([e[1] for e in edges], dtype=np.int64),
        edge_weight=np.asarray([e[2] for e in edges], dtype=np.int64),
    )


def build_scenario(voters, shares=None, users=None, mobility=None):
    n = len(voters)
    ids = np.arange(1000, 1000 + n, dtype=np.int64)
    if mobility is None:
        mobility = np.ones((n, n))
    return Scenario(
        county_ids=ids,
        voters=np.asarray(voters, dtype=np.int64),
        republican_share=np.asarray(shares if shares is not None else [0.5] * n, dtype=float),
        twitter_users=np.asarray(users if users is not None else [10] * n, dtype=np.int64),
        mobility=mobility,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
