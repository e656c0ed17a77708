"""County-structured physical contact networks.

The pipeline here turns a scenario plus a misinformation labeling into an
undirected simple graph of sampled individuals:

1. ``sample_population`` draws individuals county by county, with
   replacement, from the information network, matching each county's
   republican/democrat vote split; each draw copies the persona's
   ordinary/misinformed label onto a fresh contact node.
2. ``expected_edges`` converts the mobility matrix into real-valued expected
   edge counts per unordered county pair, normalized so they sum to the edge
   budget k_bar * N / 2.
3. ``build_contact_network`` integerizes those expectations with a single
   multinomial draw and places each block's edges between uniformly random
   node pairs, rejecting self-loops and duplicates, like a stochastic block
   model with homogeneous mixing inside each county.

Every stage is fully determined by its seed. Block placement uses an
independent RNG stream per county pair, derived from (seed, block index), and
the final edge list is canonicalized (each edge as (lo, hi), rows sorted), so
results do not depend on evaluation order. Arrays use 32-bit indices; a
20M-node network costs ~8 bytes per edge plus ~5 bytes per node, and its
``adjacency`` index, built on first use, ~4 more bytes per edge plus 16 per
node.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    MissingPartyPoolError,
    RetryBudgetError,
    SaturationError,
    ValidationError,
    ZeroMobilityError,
)
from .infonet import DEMOCRAT, REPUBLICAN, PARTY_NAMES, InfoNetwork, MisinfoLabeling
from .scenario import MobilityMatrix, Scenario
from .tables import lookup, write_csv

# Draw budget multiplier before giving up on a block (duplicates/self-loops).
RETRY_FACTOR = 100

MAGIC = b"SMIRCNET1\n"
# Node count, edge count, k_bar, seed, county count.
_HEADER = struct.Struct("<QQdQI")


def _round_half_up(x) -> np.ndarray:
    return np.floor(np.asarray(x) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class SampledNodes:
    """Individuals drawn for the contact network, ordered by county block.

    ``county_index`` indexes the governing scenario's county order; ``source``
    is the information-network node each draw copied its label from.
    """

    county_ids: np.ndarray
    county_index: np.ndarray
    misinformed: np.ndarray
    source: np.ndarray

    @property
    def n(self) -> int:
        return len(self.county_index)

    def county_sizes(self, n_counties: int) -> np.ndarray:
        return np.bincount(self.county_index, minlength=n_counties)


def sample_population(
    scenario: Scenario,
    net: InfoNetwork,
    labeling: MisinfoLabeling,
    sample_fraction: float,
    rng_seed: int,
) -> SampledNodes:
    """Draw round(voters * fraction) individuals per county, with replacement.

    Within a county, round(count * republican_share) draws come uniformly
    from that county's republican information-network personas and the rest
    from democrat ones, so the sampled ideological split matches the vote
    record. Unscored personas (no party) are never drawn. A county whose draw
    count rounds to zero contributes no nodes.

    Raises:
        MissingPartyPoolError: a county needs a draw from a party with no
            persona in that county.
    """
    if not (0 < sample_fraction <= 1):
        raise ValidationError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    if len(labeling.misinformed) != net.n_nodes:
        raise ValidationError("labeling does not match the information network")
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    party = net.party

    county_of_net = lookup(scenario.county_ids, net.county)
    if np.any(county_of_net < 0):
        raise ValidationError("information network references counties outside the scenario")

    # Group persona indices by (county, party) once; pools slice the order.
    combined = county_of_net.astype(np.int64) * 3 + (party.astype(np.int64) + 1)
    order = np.argsort(combined, kind="stable")
    combined_sorted = combined[order]

    def pool_for(ci: int, party_code: int) -> np.ndarray:
        key = ci * 3 + party_code + 1
        lo = np.searchsorted(combined_sorted, key, side="left")
        hi = np.searchsorted(combined_sorted, key, side="right")
        return order[lo:hi]

    counts = _round_half_up(scenario.voters * sample_fraction)
    rep_counts = _round_half_up(counts * scenario.republican_share)
    dem_counts = counts - rep_counts

    county_index_out, mis_out, src_out = [], [], []
    for ci in range(scenario.n_counties):
        if int(counts[ci]) == 0:
            continue
        for party_code, n_party in (
            (REPUBLICAN, int(rep_counts[ci])),
            (DEMOCRAT, int(dem_counts[ci])),
        ):
            if n_party == 0:
                continue
            pool = pool_for(ci, party_code)
            if len(pool) == 0:
                raise MissingPartyPoolError(
                    int(scenario.county_ids[ci]), PARTY_NAMES[party_code]
                )
            picks = pool[rng.integers(0, len(pool), size=n_party)]
            src_out.append(picks)
            mis_out.append(labeling.misinformed[picks])
            county_index_out.append(np.full(n_party, ci, dtype=np.int32))

    if not county_index_out:
        raise ValidationError("no county sampled any nodes; increase sample_fraction")
    return SampledNodes(
        county_ids=scenario.county_ids,
        county_index=np.concatenate(county_index_out),
        misinformed=np.concatenate(mis_out),
        source=np.concatenate(src_out).astype(np.int64),
    )


def _check_k_bar(k_bar: float) -> None:
    if not (np.isfinite(k_bar) and k_bar > 0):
        raise ValidationError(f"k_bar must be finite and > 0, got {k_bar}")


def expected_edges(mobility: MobilityMatrix | np.ndarray, k_bar: float, n_nodes: int) -> np.ndarray:
    """Expected edge counts per unordered county pair, incl. the diagonal.

    Returns an upper-triangular matrix E with E[x, y] (x <= y) proportional
    to the mobility between x and y and summing to the total edge budget
    k_bar * n_nodes / 2. Scaling the mobility matrix by any positive constant
    leaves E unchanged.
    """
    values = mobility.values if isinstance(mobility, MobilityMatrix) else np.asarray(mobility)
    _check_k_bar(k_bar)
    if n_nodes < 2:
        raise ValidationError(f"need at least 2 nodes, got {n_nodes}")
    upper = np.triu(values)
    total_mobility = upper.sum()
    if total_mobility <= 0:
        raise ZeroMobilityError("mobility matrix sums to zero")
    return upper * (k_bar * n_nodes / 2.0 / total_mobility)


@dataclass(frozen=True)
class ContactNetwork:
    """Undirected simple graph of sampled individuals.

    ``edges`` is uint32 with shape (m, 2), each row (lo, hi), lo < hi, rows
    sorted lexicographically. ``county_index`` maps nodes to positions in
    ``county_ids``.
    """

    county_ids: np.ndarray
    county_index: np.ndarray
    misinformed: np.ndarray
    edges: np.ndarray
    k_bar: float
    seed: int

    def __post_init__(self):
        n = self.n_nodes
        if len(self.misinformed) != n:
            raise ValidationError("misinformed length does not match node count")
        e = self.edges
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValidationError("edges must have shape (m, 2)")
        if len(e):
            if e.max() >= n:
                raise ValidationError("edge endpoint out of range")
            if np.any(e[:, 0] >= e[:, 1]):
                raise ValidationError("edges must be canonical (lo < hi), no self-loops")
            key = e[:, 0].astype(np.uint64) * np.uint64(n) + e[:, 1].astype(np.uint64)
            if np.any(key[1:] <= key[:-1]):
                raise ValidationError("edges must be sorted and duplicate-free")

    @property
    def n_nodes(self) -> int:
        return len(self.county_index)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.n_edges / self.n_nodes

    @property
    def misinformed_count(self) -> int:
        return int(self.misinformed.sum())

    @cached_property
    def adjacency(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Neighbor lists as two CSR halves, ``((ptr, nbr), (ptr, nbr))``.

        In each half the neighbors of node v are ``nbr[ptr[v]:ptr[v + 1]]``;
        the first half holds each edge's hi end under its lo end, the second
        its lo end under its hi end, so v's neighbors are the union of its
        two rows. The first half's neighbors are a view of ``edges``, which
        is already sorted by lo; only the second needs an index of its own.
        Built once per network and freed with it.
        """
        n = self.n_nodes
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        # Edges sorted by (hi, lo): the low 32 bits of the sorted keys are
        # the lo ends in hi order (edges are unique, so no stable sort is
        # needed, and sorting keys is ~10x faster than argsort).
        keys = hi.astype(np.uint64)
        keys <<= np.uint64(32)
        keys |= lo
        keys.sort()
        halves = []
        for row, nbr in ((lo, hi), (hi, keys.astype(np.uint32))):
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
            halves.append((ptr, nbr))
        return tuple(halves)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1 + block]))


def _draw_block_edges(
    rng: np.random.Generator,
    lo_start: int,
    lo_size: int,
    hi_start: int,
    hi_size: int,
    count: int,
    n_nodes: int,
    diagonal: bool,
) -> np.ndarray:
    """Draw ``count`` distinct simple edges between two county node ranges.

    Rejection sampling in exact-deficit batches keeps the distribution
    identical to one-at-a-time redraws. Returns canonical uint64 keys.
    """
    budget = RETRY_FACTOR * count
    drawn = 0
    have = np.empty(0, dtype=np.uint64)
    have_sorted = have
    while len(have) < count:
        need = count - len(have)
        if drawn >= budget:
            raise RetryBudgetError(
                f"block exhausted {budget} draws for {count} edges "
                f"({len(have)} placed); blocks this dense need a larger node pool"
            )
        take = min(need, budget - drawn)
        u = rng.integers(0, lo_size, size=take, dtype=np.int64) + lo_start
        v = rng.integers(0, hi_size, size=take, dtype=np.int64) + hi_start
        drawn += take
        if diagonal:
            ok = u != v
            u, v = u[ok], v[ok]
        lo = np.minimum(u, v).astype(np.uint64)
        hi = np.maximum(u, v).astype(np.uint64)
        keys = lo * np.uint64(n_nodes) + hi
        # Dedupe within the batch (keep first occurrences, draw order).
        uniq, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        # Drop keys already placed.
        if len(have_sorted):
            keys = keys[
                ~np.isin(keys, have_sorted, assume_unique=False, kind="sort")
            ]
        if len(keys):
            have = np.concatenate([have, keys])
            have_sorted = np.sort(have)
    return have


def build_contact_network(
    nodes: SampledNodes,
    e_matrix: np.ndarray,
    k_bar: float,
    rng_seed: int,
) -> ContactNetwork:
    """Place k_bar * N / 2 edges according to expected per-pair counts.

    Integer per-pair counts come from one multinomial draw over the full edge
    budget with probabilities proportional to ``e_matrix``; pairs involving a
    county that sampled zero nodes are dropped from the support first. Each
    block's edges connect uniformly random node pairs (within the county for
    diagonal blocks); self-loops and duplicates are rejected and redrawn.

    Raises:
        SaturationError: a block was allocated more edges than distinct
            node pairs exist.
        RetryBudgetError: rejection sampling exceeded 100x a block's count.
    """
    _check_k_bar(k_bar)
    n = nodes.n
    n_counties = len(nodes.county_ids)
    if e_matrix.shape != (n_counties, n_counties):
        raise ValidationError("expected-edge matrix does not match county count")
    sizes = nodes.county_sizes(n_counties)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    if not np.array_equal(np.sort(nodes.county_index), nodes.county_index):
        raise ValidationError("sampled nodes must be ordered by county block")

    xs, ys = np.triu_indices(n_counties)
    weights = e_matrix[xs, ys].astype(float).copy()
    # Counties that sampled no nodes cannot carry edges.
    empty = sizes == 0
    weights[empty[xs] | empty[ys]] = 0.0
    if weights.sum() <= 0:
        raise ZeroMobilityError("no county pair with positive expected edges has nodes")

    total_edges = int(round(k_bar * n / 2.0))
    alloc_rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0]))
    counts = alloc_rng.multinomial(total_edges, weights / weights.sum())

    capacity = np.where(
        xs == ys,
        sizes[xs].astype(np.int64) * (sizes[xs] - 1) // 2,
        sizes[xs].astype(np.int64) * sizes[ys],
    )
    over = counts > capacity
    if np.any(over):
        b = int(np.flatnonzero(over)[0])
        raise SaturationError(
            f"county pair ({int(nodes.county_ids[xs[b]])}, {int(nodes.county_ids[ys[b]])}) "
            f"allocated {counts[b]} edges but holds at most {capacity[b]}"
        )

    all_keys = []
    for b in np.flatnonzero(counts):
        x, y = int(xs[b]), int(ys[b])
        all_keys.append(
            _draw_block_edges(
                _block_rng(rng_seed, int(b)),
                int(starts[x]),
                int(sizes[x]),
                int(starts[y]),
                int(sizes[y]),
                int(counts[b]),
                n,
                diagonal=x == y,
            )
        )
    if all_keys:
        keys = np.sort(np.concatenate(all_keys))
    else:
        keys = np.empty(0, dtype=np.uint64)
    edges = np.empty((len(keys), 2), dtype=np.uint32)
    edges[:, 0] = (keys // np.uint64(n)).astype(np.uint32)
    edges[:, 1] = (keys % np.uint64(n)).astype(np.uint32)
    return ContactNetwork(
        county_ids=nodes.county_ids,
        county_index=nodes.county_index,
        misinformed=nodes.misinformed,
        edges=edges,
        k_bar=float(k_bar),
        seed=int(rng_seed),
    )


# Reference within-county travel distance on the unit square; sets how much
# the gravity model's diagonal dominates at positive exponents.
LOCAL_DISTANCE = 0.05


def generate_synthetic_mobility(
    scenario: Scenario,
    gravity_exponent: float = 2.0,
    rng_seed: int = 0,
    coordinates: np.ndarray | None = None,
) -> MobilityMatrix:
    """Gravity-model mobility on synthetic county coordinates.

    L[x, y] = pop_x * pop_y / dist(x, y)^exponent for distinct counties and
    pop_x^2 / LOCAL_DISTANCE^exponent on the diagonal. Coordinates are drawn
    uniformly on the unit square from ``rng_seed`` unless supplied.
    """
    if np.any(scenario.voters <= 0):
        raise ValidationError("gravity model needs positive county populations")
    n = scenario.n_counties
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
    pop = scenario.voters.astype(float)
    values = np.outer(pop, pop) / dist**gravity_exponent
    values = (values + values.T) / 2.0
    return MobilityMatrix(county_ids=scenario.county_ids, values=values)


def save_contact_network(net: ContactNetwork, path) -> None:
    """Persist to the compact binary format.

    Layout: magic, header (node count, edge count, k_bar, seed, county
    count), county id table (int64), per-node county index (uint32), packed
    label bits, then the sorted edge list (uint32 pairs).
    """
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(
            _HEADER.pack(
                net.n_nodes,
                net.n_edges,
                net.k_bar,
                net.seed,
                len(net.county_ids),
            )
        )
        f.write(net.county_ids.astype("<i8").tobytes())
        f.write(net.county_index.astype("<u4").tobytes())
        f.write(np.packbits(net.misinformed.astype(np.uint8)).tobytes())
        f.write(net.edges.astype("<u4").tobytes())


def load_contact_network(path) -> ContactNetwork:
    """Read a `save_contact_network` artifact; a wrong magic or a file size
    other than its header declares (truncated, trailing bytes) is invalid."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValidationError(f"{path} is not a contact-network artifact")
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValidationError(f"{path}: truncated header")
        n, m, k_bar, seed, n_counties = _HEADER.unpack(header)
        declared = len(MAGIC) + _HEADER.size + 8 * n_counties + 4 * n + (n + 7) // 8 + 8 * m
        size = os.fstat(f.fileno()).st_size
        if size != declared:
            raise ValidationError(f"{path}: {size} bytes, but its header declares {declared}")
        county_ids = np.frombuffer(f.read(8 * n_counties), dtype="<i8")
        county_index = np.frombuffer(f.read(4 * n), dtype="<u4").astype(np.int32)
        n_label_bytes = (n + 7) // 8
        bits = np.frombuffer(f.read(n_label_bytes), dtype=np.uint8)
        misinformed = np.unpackbits(bits, count=n).astype(bool)
        edges = np.frombuffer(f.read(8 * m), dtype="<u4").reshape(m, 2)
    return ContactNetwork(
        county_ids=county_ids.astype(np.int64),
        county_index=county_index,
        misinformed=misinformed,
        edges=edges.astype(np.uint32),
        k_bar=float(k_bar),
        seed=int(seed),
    )


def save_contact_network_csv(net: ContactNetwork, nodes_path, edges_path) -> None:
    """Equivalent human-readable dump of the binary artifact."""
    fips = net.county_ids[net.county_index]
    write_csv(
        nodes_path,
        ["node", "county_fips", "misinformed"],
        zip(range(net.n_nodes), fips.tolist(), net.misinformed.astype(np.int64).tolist()),
    )
    write_csv(edges_path, ["u", "v"], net.edges.tolist())
