"""Directed weighted information-diffusion networks.

An edge ``(i -> j, w)`` records that account ``j`` retweeted account ``i``
``w`` times. The "friends" of ``j`` are therefore its in-neighbors: the
accounts ``j`` retweeted, i.e. the accounts whose content reaches ``j``.
Exposure to misinformation flows along that direction, from the retweeted
account to the retweeter.

Three operations live here: a single-pass linear-threshold conversion of
ordinary nodes into misinformed ones, label propagation of political
alignment scores over the retweet graph, and a synthetic generator that
stands in for real retweet data (heavy-tailed in-degrees via directed
preferential attachment, party homophily, per-party misinformation seeding).

Networks are immutable after construction; operations return new value
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError, ValidationError
from .tables import FLOAT_OR_NAN, ID, has_duplicates, lookup, read_columns, write_columns

if TYPE_CHECKING:
    from .scenario import Scenario

REPUBLICAN = 1
DEMOCRAT = -1
NO_PARTY = 0

DISTINCT_FRIENDS = "distinct_friends"
RETWEET_WEIGHTED = "retweet_weighted"

PARTY_NAMES = {REPUBLICAN: "republican", DEMOCRAT: "democrat", NO_PARTY: "none"}


@dataclass(frozen=True)
class InfoNetwork:
    """Retweet graph with per-node county, alignment, and seed attributes.

    Attributes:
        ids: unique node identifiers, shape (n,); int64, or text if any is no canonical decimal.
        county: county id per node, shape (n,), int64.
        alignment: political alignment score per node, NaN where unknown.
        seed: True for accounts that empirically shared misinformation.
        edge_src: retweeted account (node index), shape (m,), int64.
        edge_dst: retweeting account (node index), shape (m,), int64.
        edge_weight: retweet counts, shape (m,), int64, all >= 1.
    """

    ids: np.ndarray
    county: np.ndarray
    alignment: np.ndarray
    seed: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_weight: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if n < 1:
            raise ValidationError("information network needs at least one node")
        if has_duplicates(self.ids):
            raise ValidationError("node ids are not unique")
        for name in ("county", "alignment", "seed"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"{name} length does not match node count")
        m = len(self.edge_src)
        if len(self.edge_dst) != m or len(self.edge_weight) != m:
            raise ValidationError("edge arrays have mismatched lengths")
        if m:
            if self.edge_src.min() < 0 or self.edge_src.max() >= n:
                raise ValidationError("edge_src index out of range")
            if self.edge_dst.min() < 0 or self.edge_dst.max() >= n:
                raise ValidationError("edge_dst index out of range")
            if np.any(self.edge_src == self.edge_dst):
                raise ValidationError("self-edges are not allowed")
            if self.edge_weight.min() < 1:
                raise ValidationError("edge weights must be >= 1")
            # Indices in [0, n) cast to uint64 exactly, and the key fits in one.
            key = np.multiply(self.edge_src, n, dtype=np.uint64, casting="unsafe")
            np.add(key, self.edge_dst, out=key, dtype=np.uint64, casting="unsafe")
            key.sort()
            if np.any(key[1:] == key[:-1]):
                raise ValidationError("duplicate directed edges are not allowed")

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @property
    def party(self) -> np.ndarray:
        """Party per node: sign of the alignment score, 0 for unscored or zero scores."""
        score = self.alignment
        out = np.zeros(len(score), dtype=np.int8)
        out[np.nan_to_num(score) > 0] = REPUBLICAN
        out[np.nan_to_num(score) < 0] = DEMOCRAT
        return out


def spread_misinformation(
    net: InfoNetwork, phi: int, mode: str = DISTINCT_FRIENDS
) -> np.ndarray:
    """Single-pass linear-threshold conversion from the empirical seeds:
    which accounts are misinformed, as one bool per account.

    An account becomes misinformed iff it is a seed, or its exposure from seed
    friends meets the threshold ``phi``. Exposure counts distinct seed
    in-neighbors in ``distinct_friends`` mode, or the summed retweet weights
    of those edges in ``retweet_weighted`` mode. The pass never iterates:
    freshly converted nodes do not expose anyone.
    """
    if phi < 1:
        raise ValidationError(f"phi must be >= 1, got {phi}")
    if mode not in (DISTINCT_FRIENDS, RETWEET_WEIGHTED):
        raise ValidationError(f"unknown exposure mode {mode!r}")
    exposure = np.zeros(net.n_nodes, dtype=np.int64)
    from_seed = net.seed[net.edge_src]
    weight = 1 if mode == DISTINCT_FRIENDS else net.edge_weight[from_seed]
    np.add.at(exposure, net.edge_dst[from_seed], weight)
    return net.seed | (exposure >= phi)


def propagate_alignment(net: InfoNetwork, max_rounds: int = 100) -> InfoNetwork:
    """Fill in missing alignment scores by weighted label propagation.

    Each round, every unscored node whose neighbor set (union of in- and
    out-neighbors) contains at least one scored node receives the
    retweet-weight-weighted average of its scored neighbors' scores. Updates
    are synchronous: scores gained in a round only propagate in the next one.
    Rounds stop when no unscored node can gain a score or after
    ``max_rounds``. Nodes unreachable from any scored node stay unscored.
    """
    score = net.alignment.astype(float).copy()
    scored = ~np.isnan(score)
    if not scored.any():
        raise ValidationError("no node has an alignment score to propagate")
    w = net.edge_weight.astype(float)
    for _ in range(max_rounds):
        num = np.zeros(net.n_nodes)
        den = np.zeros(net.n_nodes)
        take = scored[net.edge_src] & ~scored[net.edge_dst]
        np.add.at(num, net.edge_dst[take], score[net.edge_src[take]] * w[take])
        np.add.at(den, net.edge_dst[take], w[take])
        give = scored[net.edge_dst] & ~scored[net.edge_src]
        np.add.at(num, net.edge_src[give], score[net.edge_dst[give]] * w[give])
        np.add.at(den, net.edge_src[give], w[give])
        gained = ~scored & (den > 0)
        if not gained.any():
            break
        score[gained] = num[gained] / den[gained]
        scored |= gained
    return replace(net, alignment=score)


@dataclass(frozen=True)
class InfoGenConfig:
    """Knobs of the synthetic retweet-network generator.

    Attributes:
        edges_per_node: retweeter links attached per arriving account; targets
            are drawn preferentially by in-degree, which makes in-degrees
            heavy-tailed.
        homophily: probability that a new edge connects same-party accounts.
        seed_rate_republican / seed_rate_democrat: per-party probability that
            an account is an empirical misinformation seed.
        retweet_weight_p: geometric-distribution parameter of edge weights.
    """

    edges_per_node: int = 5
    homophily: float = 0.7
    seed_rate_republican: float = 0.08
    seed_rate_democrat: float = 0.02
    retweet_weight_p: float = 0.5

    def __post_init__(self):
        if self.edges_per_node < 1:
            raise ValidationError("edges_per_node must be >= 1")
        for name in ("homophily", "seed_rate_republican", "seed_rate_democrat"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if not (0.0 < self.retweet_weight_p <= 1.0):
            raise ValidationError("retweet_weight_p must be in (0, 1]")


def generate_synthetic_infonet(
    scenario: "Scenario", cfg: InfoGenConfig, rng_seed: int
) -> InfoNetwork:
    """Generate a synthetic county-attributed retweet network.

    Accounts are created per county (counts from the scenario's
    ``twitter_users``); the first floor(share * count + 0.5) of a county are
    republican, the rest democrat. They arrive in random order. Each arrival
    attracts ``edges_per_node`` retweeters chosen proportionally to
    (in-degree + 1): with probability ``homophily`` from the arriving
    account's party, else from the opposite party. Misinformation seeds are
    Bernoulli per party. Output is fully determined by ``rng_seed``.

    The choice is a copy model over one pool per party (an entry per account
    and per in-edge), resolved in bulk. The events are, step by step, the
    ``edges_per_node`` draws and then the arrival. A draw succeeds iff its
    wanted party arrived at an earlier step (else it is skipped and takes no
    weight); each surviving event adds one entry to its party's pool, so the
    pool length before an event is its rank among its party's surviving
    events. A draw copies the entry at min(floor(pick * length), length - 1),
    an earlier event; pointer jumping (``ptr = ptr[ptr]`` until nothing
    changes) follows the copies to the arrival that ends each chain, whose
    account is the draw's target.
    """
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    users = scenario.twitter_users
    county = np.repeat(scenario.county_ids.astype(np.int64), users)
    n = len(county)
    # Each account's rank within its county; ranks below the county's
    # rounded republican count are republican.
    rank = np.arange(n) - np.repeat(np.cumsum(users) - users, users)
    n_rep = np.floor(scenario.republican_share * users + 0.5)
    party = np.where(rank < np.repeat(n_rep, users), REPUBLICAN, DEMOCRAT).astype(np.int8)

    # Alignment magnitude carries no meaning beyond its sign here.
    alignment = party * rng.uniform(0.05, 1.0, size=n)

    seed_rate = np.where(
        party == REPUBLICAN, cfg.seed_rate_republican, cfg.seed_rate_democrat
    )
    seeds = rng.random(n) < seed_rate

    order = rng.permutation(n)
    k = cfg.edges_per_node
    same_party = rng.random((n, k)) < cfg.homophily
    pick = rng.random((n, k))
    weights_flat = rng.geometric(cfg.retweet_weight_p, size=n * k)

    # The events as a (step, k draws + the arrival) grid, read row-major.
    index = np.int32 if n * (k + 1) < 2**31 else np.int64
    arrives_rep = party[order] == REPUBLICAN
    wants_rep = np.column_stack([same_party == arrives_rep[:, None], arrives_rep])
    # A draw succeeds iff its wanted party arrived at an earlier step.
    step = np.arange(n)[:, None]
    first_rep = np.argmax(arrives_rep) if arrives_rep.any() else n
    first_dem = np.argmax(~arrives_rep) if not arrives_rep.all() else n
    drawn = np.where(wants_rep[:, :k], step > first_rep, step > first_dem)
    survives = np.column_stack([drawn, np.ones(n, dtype=bool)])
    # From here on, events are the surviving ones: `at` numbers them, and
    # `pools` lists them democrats first, so republican pool entry c is
    # pools[n_dem + c].
    at = np.cumsum(survives, dtype=index).reshape(n, k + 1) - 1
    rep = wants_rep[survives]
    n_dem = len(rep) - int(rep.sum())
    pools = np.concatenate([np.flatnonzero(~rep), np.flatnonzero(rep)]).astype(index)
    rep_before = np.cumsum(rep, dtype=index) - rep
    draws = at[:, :k][drawn]
    rep_draw = rep[draws]
    length = np.where(rep_draw, rep_before[draws], draws - rep_before[draws])
    chosen = np.minimum((pick[drawn] * length).astype(index), length - 1)
    ptr = np.arange(len(rep), dtype=index)  # an arrival points at itself
    ptr[draws] = pools[chosen + rep_draw * n_dem]
    while not np.array_equal(jumped := ptr[ptr], ptr):
        ptr = jumped
    account = np.empty(len(rep), dtype=np.int64)
    account[at[:, k]] = order
    src = np.broadcast_to(order[:, None], (n, k))[drawn]
    dst = account[ptr[draws]]
    w = weights_flat[: len(dst)]
    if len(src):
        # Merge repeated (src, dst) draws into one edge with summed weight.
        key = src.astype(np.uint64) * np.uint64(n) + dst.astype(np.uint64)
        uniq, inverse = np.unique(key, return_inverse=True)
        w_agg = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(w_agg, inverse, w)
        src = (uniq // np.uint64(n)).astype(np.int64)
        dst = (uniq % np.uint64(n)).astype(np.int64)
        w = w_agg

    return InfoNetwork(ids=np.arange(n, dtype=np.int64), county=county, alignment=alignment,
                       seed=seeds, edge_src=src, edge_dst=dst, edge_weight=w)


def save_infonet(net: InfoNetwork, nodes_path, edges_path) -> None:
    """Write the node and edge tables in the documented CSV contract; an
    unknown alignment score is an empty cell."""
    write_columns(nodes_path, ["id", "county_fips", "alignment", "misinformed_seed"],
                  [net.ids, net.county, net.alignment, net.seed.astype(np.int64)])
    write_columns(edges_path, ["src", "dst", "weight"],
                  [net.ids[net.edge_src], net.ids[net.edge_dst], net.edge_weight])


def load_infonet(nodes_path, edges_path) -> InfoNetwork:
    """Read a network from the node/edge CSV contract.

    Node rows: id, county_fips, alignment (may be empty), misinformed_seed.
    Edge rows: src, dst, weight, referring to node ids.
    """
    (ids, county, alignment, seed), _ = read_columns(nodes_path, (ID, int, FLOAT_OR_NAN, int))
    (src, dst, weight), lines = read_columns(edges_path, (ID, ID, int))
    edge_src = lookup(ids, src)  # one id column at a time, each dropped once looked up
    unknown = [(row, src[row]) for row in np.flatnonzero(edge_src < 0)[:1]]
    del src
    edge_dst = lookup(ids, dst)
    unknown += [(row, dst[row]) for row in np.flatnonzero(edge_dst < 0)[:1]]
    if unknown:
        row, name = min(unknown, key=lambda u: u[0])  # on a tie, the src
        raise ParseError(edges_path, int(lines[row]), f"unknown node id {str(name)!r}")
    del dst, lines  # before the network's checks allocate
    return InfoNetwork(ids=ids, county=county, alignment=alignment, seed=seed != 0,
                       edge_src=edge_src, edge_dst=edge_dst, edge_weight=weight)
