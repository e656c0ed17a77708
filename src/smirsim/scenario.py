"""County scenarios: real-data ingestion and synthetic stand-ins.

A scenario is a county table (voter population, republican vote share,
twitter user count) plus a symmetric county-by-county mobility matrix whose
entry L[x, y] is the average daily number of individuals moving between
counties x and y (the diagonal is within-county movement).

CSV is the only ingestion format. ``load_scenario`` validates everything and
reports parse errors with line numbers; ``save_scenario`` writes a canonical
form whose load/save round-trip is byte-identical. ``generate_scenario``
synthesizes a realistic scenario, with gravity-model mobility from
``generate_synthetic_mobility``, plus a matching information network, all
randomness flowing from one master seed split hierarchically (counties ->
mobility -> infonet), so each stage is reproducible in isolation.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParseError, ValidationError
from .infonet import InfoNetwork, generate_synthetic_infonet
from .tables import has_duplicates, lookup, read_columns, utf8_text, write_columns

# Stream indices for hierarchical seed derivation from the master seed.
_STREAM_COUNTIES = 0
_STREAM_MOBILITY = 1
_STREAM_INFONET = 2


def derive_seed(master_seed: int, stream: int) -> int:
    """A child seed for one named stage of the generation hierarchy."""
    return int(np.random.SeedSequence([master_seed, stream]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Scenario:
    """County table plus mobility, index-aligned: ``mobility`` is the (n, n) symmetric
    nonnegative matrix of daily movement counts between counties, not all zero."""

    county_ids: np.ndarray
    voters: np.ndarray
    republican_share: np.ndarray
    twitter_users: np.ndarray
    mobility: np.ndarray

    def __post_init__(self):
        n = len(self.county_ids)
        if n < 1:
            raise ValidationError("scenario needs at least one county")
        v = self.mobility
        if v.shape != (n, n):
            raise ValidationError(
                f"mobility shape {v.shape} does not match {n} counties"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("mobility entries must be finite")
        if np.any(v < 0):
            raise ValidationError("mobility entries must be nonnegative")
        scale = max(float(v.max()), 1.0)
        if not np.allclose(v, v.T, rtol=0, atol=1e-9 * scale):
            raise ValidationError("mobility matrix must be symmetric")
        if not np.any(v > 0):
            raise ValidationError("mobility matrix needs at least one positive entry")
        if has_duplicates(self.county_ids):
            raise ValidationError("county ids are not unique")
        for name in ("voters", "republican_share", "twitter_users"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"{name} length does not match county count")
        if np.any(self.voters < 0):
            raise ValidationError("voter populations must be nonnegative")
        if not np.all((self.republican_share >= 0) & (self.republican_share <= 1)):
            raise ValidationError("republican_share must be in [0, 1]")
        if np.any(self.twitter_users < 0):
            raise ValidationError("twitter user counts must be nonnegative")

    @property
    def n_counties(self) -> int:
        return len(self.county_ids)


def load_scenario(counties_path, mobility_path) -> Scenario:
    """Load and validate a scenario from its two CSV files.

    County rows: fips, voters, republican_share, twitter_users.
    Mobility rows: x_fips, y_fips, value; missing pairs are zero, and rows
    for (x, y) and (y, x) are averaged. The matrix is symmetrized as
    (L + L^T) / 2, with a warning when the relative asymmetry exceeds 1%.
    """
    (fips, voters, share, users), lines = read_columns(counties_path, (int, int, float, int))
    if not len(fips):
        raise ValidationError(f"{counties_path}: scenario needs at least one county")
    bad = (voters < 0) | ~((share >= 0) & (share <= 1))
    if bad.any():
        row = int(np.argmax(bad))
        where = f"{counties_path}:{lines[row]}"
        if voters[row] < 0:
            raise ValidationError(f"{where}: negative voter population {int(voters[row])}")
        raise ValidationError(f"{where}: republican_share {float(share[row])} outside [0, 1]")

    (x, y, v), lines = read_columns(mobility_path, (int, int, float))
    i, j = lookup(fips, x), lookup(fips, y)
    bad = (i < 0) | (j < 0) | (v < 0) | ~np.isfinite(v)
    if bad.any():
        row = int(np.argmax(bad))
        if i[row] < 0 or j[row] < 0:
            raise ParseError(
                mobility_path, int(lines[row]), f"unknown county in pair ({x[row]}, {y[row]})"
            )
        kind = "negative" if v[row] < 0 else "non-finite"
        raise ValidationError(f"{mobility_path}:{lines[row]}: {kind} mobility {float(v[row])}")
    n = len(fips)
    # A repeated (x, y) pair keeps the value of its last row.
    _, last = np.unique((i * n + j)[::-1], return_index=True)
    last = len(v) - 1 - last
    raw = np.zeros((n, n))
    raw[i[last], j[last]] = v[last]
    filled = np.zeros((n, n), dtype=bool)
    filled[i, j] = True

    # Where only one direction was given, mirror it; where both, average.
    both = filled & filled.T
    l_matrix = np.where(both, (raw + raw.T) / 2.0, raw + raw.T * ~filled)
    asym = np.abs(np.where(both, raw - raw.T, 0.0))
    scale = max(float(l_matrix.max()), 1e-300)
    if asym.max() / scale > 0.01:
        warnings.warn(
            f"mobility asymmetry of {asym.max() / scale:.1%} symmetrized by averaging",
            stacklevel=2,
        )
    return Scenario(county_ids=fips, voters=voters, republican_share=share, twitter_users=users,
                    mobility=l_matrix)


def save_scenario(scenario: Scenario, counties_path, mobility_path) -> None:
    """Write the canonical CSV form (upper-triangular nonzero mobility rows)."""
    write_columns(
        counties_path,
        ["fips", "voters", "republican_share", "twitter_users"],
        [scenario.county_ids, scenario.voters, scenario.republican_share.astype(float),
         scenario.twitter_users],
    )
    values = scenario.mobility
    i, j = np.triu_indices(scenario.n_counties)  # row-major: (0, 0), (0, 1), ...
    keep = values[i, j] > 0
    i, j = i[keep], j[keep]
    ids = scenario.county_ids
    write_columns(
        mobility_path, ["x_fips", "y_fips", "value"], [ids[i], ids[j], values[i, j].astype(float)]
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Shape parameters for synthetic scenario generation; every field but
    ``seed`` is a config-file key.

    Defaults produce 341 counties with at least 200 twitter users each,
    log-normal voter populations, and Beta-distributed republican shares.
    The last five fields shape the synthetic retweet network.
    """

    county_count: int = 341
    pop_median: float = 12000.0
    pop_sigma: float = 1.0
    share_alpha: float = 2.0
    share_beta: float = 2.0
    twitter_user_rate: float = 0.03
    twitter_users_min: int = 200
    gravity_exponent: float = 2.0
    edges_per_node: int = 5  # retweeters per arriving account, drawn preferentially by in-degree
    homophily: float = 0.7  # probability that a new edge connects same-party accounts
    seed_rate_republican: float = 0.08  # per-party probability that an account is a seed
    seed_rate_democrat: float = 0.02
    retweet_weight_p: float = 0.5  # geometric-distribution parameter of edge weights
    seed: int = 0

    def __post_init__(self):
        if self.county_count < 1:
            raise ValidationError("county_count must be positive")
        for name in ("pop_median", "pop_sigma", "share_alpha", "share_beta", "gravity_exponent"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.pop_median <= 0 or self.pop_sigma <= 0:
            raise ValidationError("population distribution parameters must be positive")
        if self.share_alpha <= 0 or self.share_beta <= 0:
            raise ValidationError("share distribution parameters must be positive")
        if not (0 < self.twitter_user_rate <= 1):
            raise ValidationError("twitter_user_rate must be in (0, 1]")
        if self.twitter_users_min < 1:
            raise ValidationError("twitter_users_min must be >= 1")
        if self.edges_per_node < 1:
            raise ValidationError("edges_per_node must be >= 1")
        for name in ("homophily", "seed_rate_republican", "seed_rate_democrat"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if not (0.0 < self.retweet_weight_p <= 1.0):
            raise ValidationError("retweet_weight_p must be in (0, 1]")


# Keys accepted by parse_scenario_config, with their coercions: the int and
# float fields of ScenarioConfig (annotations are strings); seed is refused first.
_COERCIONS = {"int": int, "float": float}
_CONFIG_FIELDS = {f.name: _COERCIONS[f.type] for f in fields(ScenarioConfig) if f.type in _COERCIONS}


def parse_scenario_config(path) -> ScenarioConfig:
    """Parse a flat ``key = value`` text file into a ScenarioConfig.

    Blank lines and ``#`` comments are ignored.
    """
    values: dict = {}
    with open(path, "rb") as f:
        text = utf8_text(path, f.read())
    with io.StringIO(text, newline=None) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(path, line_no, f"expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "seed":  # a run parameter (--seed, in manifest.json), never a config key
                raise ParseError(path, line_no, "seed is not a config key; give it with --seed")
            if key not in _CONFIG_FIELDS:
                raise ParseError(path, line_no, f"unknown config key {key!r}")
            try:
                values[key] = _CONFIG_FIELDS[key](value)
            except ValueError as e:
                raise ParseError(path, line_no, str(e)) from e
    return ScenarioConfig(**values)


# Reference within-county travel distance on the unit square; sets how much
# the gravity model's diagonal dominates at positive exponents.
LOCAL_DISTANCE = 0.05


def generate_synthetic_mobility(
    voters: np.ndarray,
    gravity_exponent: float,
    rng_seed: int,
    coordinates: np.ndarray | None = None,
) -> np.ndarray:
    """Gravity-model mobility matrix of the counties whose populations are `voters`.

    L[x, y] = voters_x * voters_y / dist(x, y)^exponent for distinct counties
    and voters_x^2 / LOCAL_DISTANCE^exponent on the diagonal. Coordinates are
    drawn uniformly on the unit square from ``rng_seed`` unless supplied.
    """
    if np.any(voters <= 0):
        raise ValidationError("gravity model needs positive county populations")
    n = len(voters)
    if coordinates is None:
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
        coordinates = rng.uniform(0.0, 1.0, size=(n, 2))
    coordinates = np.asarray(coordinates, dtype=float)
    if coordinates.shape != (n, 2):
        raise ValidationError(f"coordinates must have shape ({n}, 2)")
    delta = coordinates[:, None, :] - coordinates[None, :, :]
    dist = np.sqrt((delta**2).sum(axis=2))
    # Counties are spatially extended: centroid distances below the
    # within-county travel scale would concentrate unbounded mobility mass
    # on one pair, so they are floored at that scale.
    np.fill_diagonal(dist, LOCAL_DISTANCE)
    dist = np.maximum(dist, LOCAL_DISTANCE)
    pop = voters.astype(float)
    with np.errstate(over="ignore", divide="ignore"):  # a huge |exponent|: Scenario rejects it
        values = np.outer(pop, pop) / dist**gravity_exponent
    return (values + values.T) / 2.0


def generate_scenario(cfg: ScenarioConfig) -> tuple[Scenario, InfoNetwork]:
    """Synthesize a scenario and its information network from one master seed."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _STREAM_COUNTIES])
    )
    n = cfg.county_count
    county_ids = np.arange(1000, 1000 + n, dtype=np.int64)
    voters = np.maximum(
        100, np.floor(rng.lognormal(np.log(cfg.pop_median), cfg.pop_sigma, size=n) + 0.5)
    )
    share = rng.beta(cfg.share_alpha, cfg.share_beta, size=n)
    users = np.maximum(cfg.twitter_users_min, np.floor(voters * cfg.twitter_user_rate + 0.5))
    if not (voters.max() < 2**63 and users.max() < 2**63):  # before the int64 casts
        raise ValidationError(f"pop_median {cfg.pop_median}, pop_sigma {cfg.pop_sigma} and "
                              f"twitter_users_min {cfg.twitter_users_min} give counts past 2^63")
    voters, users = voters.astype(np.int64), users.astype(np.int64)

    mobility = generate_synthetic_mobility(
        voters, cfg.gravity_exponent, derive_seed(cfg.seed, _STREAM_MOBILITY)
    )
    scenario = Scenario(county_ids=county_ids, voters=voters, republican_share=share,
                        twitter_users=users, mobility=mobility)
    net = generate_synthetic_infonet(scenario, cfg, derive_seed(cfg.seed, _STREAM_INFONET))
    return scenario, net
