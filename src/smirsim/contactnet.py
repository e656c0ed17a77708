"""County-structured physical contact networks.

The pipeline here turns a scenario into an undirected simple graph of
sampled individuals:

1. ``sample_population`` draws individuals county by county, with
   replacement, from the information network, matching each county's
   republican/democrat vote split; each draw records the persona it copies.
2. ``expected_edges`` converts the scenario's mobility matrix into
   real-valued expected edge counts per unordered county pair, normalized
   so they sum to the edge budget k_bar * N / 2.
3. ``build_contact_network`` integerizes those expectations with a single
   multinomial draw and places each block's edges between uniformly random
   node pairs, rejecting self-loops and duplicates, like a stochastic block
   model with homogeneous mixing inside each county. Its nodes are ordinary:
   no step reads a label. ``ContactNetwork.relabel`` puts a labeling's flags,
   ``misinformed[nodes.source]``, on a copy sharing the edges and ``adjacency``.

Every stage is fully determined by its seed. Block placement uses one
generator for the whole graph and makes one vectorized pass per lo county x,
in ascending order, over all blocks (x, y >= x) at once. Every key of such a
pass has its lo end in x's node range, so the passes emit the canonical edge
list (each edge as (lo, hi), rows sorted) in order, without a global sort.
Arrays use 32-bit indices: the edge list costs 8 bytes per edge plus ~5
bytes per node, and building it raises the process's peak RSS by ~11 bytes
per edge (2M nodes and 25M edges: 151 -> 411 MB). The ``adjacency`` index,
built on first use, keeps ~4 more bytes per edge plus 16 per node; building
it peaks at ~13 bytes per edge, its uint64 sort keys included (411 -> 683 MB).
"""

from __future__ import annotations

import copy
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, ValidationError
from .infonet import DEMOCRAT, REPUBLICAN, PARTY_NAMES, InfoNetwork
from .scenario import Scenario
from .tables import lookup

# Draw budget multiplier before giving up on a block (duplicates/self-loops).
RETRY_FACTOR = 100

MAGIC = b"SMIRCNET2\n"
# Node count, edge count, k_bar, seed, county count.
_HEADER = struct.Struct("<QQdQI")
# Edge rows per block of the network's sortedness check.
_CHECK_ROWS = 1 << 16


def _round_half_up(x) -> np.ndarray:
    return np.floor(np.asarray(x) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class SampledNodes:
    """Individuals drawn for the contact network, ordered by county block.

    ``county_index`` indexes the governing scenario's county order; ``source``
    is the information-network node each draw copied.
    """

    county_ids: np.ndarray
    county_index: np.ndarray
    source: np.ndarray


def sample_population(
    scenario: Scenario,
    net: InfoNetwork,
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
        ValidationError: a county needs a draw from a party with no
            persona in that county.
    """
    if not (0 < sample_fraction <= 1):
        raise ValidationError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed))
    party = net.party

    county_of_net = lookup(scenario.county_ids, net.county)
    if np.any(county_of_net < 0):
        raise ValidationError("information network references counties outside the scenario")

    # Persona indices grouped by (county, party) once: the pool of key
    # 3 * county + party + 1 is order[bounds[key]:bounds[key + 1]].
    combined = county_of_net.astype(np.int64) * 3 + (party.astype(np.int64) + 1)
    order = np.argsort(combined, kind="stable")
    bounds = np.searchsorted(combined[order], np.arange(3 * scenario.n_counties + 1))

    counts = _round_half_up(scenario.voters * sample_fraction)
    rep_counts = _round_half_up(counts * scenario.republican_share)
    dem_counts = counts - rep_counts

    src_out = []
    for ci in range(scenario.n_counties):
        for party_code, n_party in (
            (REPUBLICAN, int(rep_counts[ci])),
            (DEMOCRAT, int(dem_counts[ci])),
        ):
            if n_party == 0:
                continue
            key = ci * 3 + party_code + 1
            pool = order[bounds[key]:bounds[key + 1]]
            if len(pool) == 0:
                raise ValidationError(
                    f"county {int(scenario.county_ids[ci])} has no "
                    f"{PARTY_NAMES[party_code]} node to sample from"
                )
            src_out.append(pool[rng.integers(0, len(pool), size=n_party)])

    if not src_out:
        raise ValidationError("no county sampled any nodes; increase sample_fraction")
    source = np.concatenate(src_out).astype(np.int64)
    return SampledNodes(
        county_ids=scenario.county_ids,
        county_index=county_of_net[source].astype(np.int32),  # each draw's pool's county
        source=source,
    )


def _check_k_bar(k_bar: float) -> None:
    if not (np.isfinite(k_bar) and k_bar > 0):
        raise ValidationError(f"k_bar must be finite and > 0, got {k_bar}")


def expected_edges(mobility: np.ndarray, k_bar: float, n_nodes: int) -> np.ndarray:
    """Expected edge counts per unordered county pair, incl. the diagonal.

    `mobility` is a symmetric county-by-county matrix, such as
    ``Scenario.mobility``. Returns an upper-triangular matrix E with E[x, y]
    (x <= y) proportional to the mobility between x and y and summing to the
    total edge budget k_bar * n_nodes / 2. Scaling the mobility matrix by any
    positive constant leaves E unchanged.
    """
    _check_k_bar(k_bar)
    if n_nodes < 2:
        raise ValidationError(f"need at least 2 nodes, got {n_nodes}")
    upper = np.triu(mobility)
    total_mobility = upper.sum()
    if total_mobility <= 0:
        raise ValidationError("mobility matrix sums to zero")
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
        if n == 0:
            raise ValidationError("a contact network needs at least one node")
        if len(self.misinformed) != n:
            raise ValidationError("misinformed length does not match node count")
        ci = self.county_index
        if ci.min() < 0 or ci.max() >= len(self.county_ids):
            raise ValidationError(f"county index out of range for {len(self.county_ids)} counties")
        e = self.edges
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValidationError("edges must have shape (m, 2)")
        if len(e) and e.max() >= n:
            raise ValidationError("edge endpoint out of range")
        # Canonical, sorted and duplicate-free, checked in place one block of
        # rows at a time, so the bool temporaries stay small (no key array):
        # lo < hi, lo never decreases, and where lo repeats, hi strictly
        # increases. Consecutive blocks share a row.
        for start in range(0, len(e), _CHECK_ROWS):
            block = e[start:start + _CHECK_ROWS + 1]
            lo, hi = block[:, 0], block[:, 1]
            if np.any(lo >= hi):
                raise ValidationError("edges must be canonical (lo < hi), no self-loops")
            same_lo = lo[1:] == lo[:-1]
            same_lo &= hi[1:] <= hi[:-1]
            if np.any(lo[1:] < lo[:-1]) or np.any(same_lo):
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

    def relabel(self, misinformed: np.ndarray) -> ContactNetwork:
        """This graph with the node labels `misinformed` (a bool per node),
        sharing its edges, county index and ``adjacency``, built here first.
        Only the length is checked: the edges were checked with this graph."""
        if len(misinformed) != self.n_nodes:
            raise ValidationError("misinformed length does not match node count")
        self.adjacency  # cached on this graph, then copied with its fields
        out = copy.copy(self)
        object.__setattr__(out, "misinformed", misinformed)
        return out

    @cached_property
    def adjacency(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Neighbor lists as two CSR halves, ``((ptr, nbr), (ptr, nbr))``.

        In each half the neighbors of node v are ``nbr[ptr[v]:ptr[v + 1]]``;
        the first half holds each edge's hi end under its lo end, the second
        its lo end under its hi end, so v's neighbors are the union of its
        two rows. The first half's neighbors are a view of ``edges``, which
        is already sorted by lo; only the second needs an index of its own.
        Built once per graph, shared by its relabeled copies, and freed with
        the last of them.
        """
        n = self.n_nodes
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        # Row pointers come from binary searches over rows that are already
        # sorted, with queries of the searched dtype: a bincount would cast
        # a whole uint32 column to an int64 temporary (8 bytes per edge).
        lo_ptr = np.searchsorted(lo, np.arange(n + 1, dtype=np.uint32))
        # Edges sorted by (hi, lo): the low 32 bits of the sorted keys are
        # the lo ends in hi order (edges are unique, so no stable sort is
        # needed, and sorting keys is ~10x faster than argsort).
        keys = hi.astype(np.uint64)
        keys <<= np.uint64(32)
        keys |= lo
        keys.sort()
        hi_ptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.uint64) << np.uint64(32))
        return (lo_ptr, hi), (hi_ptr, keys.astype(np.uint32))


def _place_county_edges(
    rng: np.random.Generator, nodes: SampledNodes, starts, sizes, x: int, hi_county, count
) -> np.ndarray:
    """Draw the edges of every block (x, y >= x) of lo county ``x`` at once.

    ``hi_county`` and ``count`` list the blocks' y and edge counts. Each
    round draws every block's exact deficit in one batch, drops self-loops,
    in-batch duplicates and keys placed before, so each block stays a uniform
    simple edge set given its count. Returns the sorted keys lo << 32 | hi.
    """
    budget = RETRY_FACTOR * count
    drawn = np.zeros_like(count)
    have = np.zeros_like(count)
    placed = np.empty(0, dtype=np.uint64)
    while np.any(have < count):
        stuck = np.flatnonzero((have < count) & (drawn >= budget))
        if len(stuck):
            b = stuck[0]
            raise NumericError(
                f"county pair ({int(nodes.county_ids[x])}, {int(nodes.county_ids[hi_county[b]])})"
                f" exhausted {budget[b]} draws for {count[b]} edges ({have[b]} placed); "
                "blocks this dense need a larger node pool"
            )
        take = np.minimum(count - have, budget - drawn)
        drawn += take
        y = np.repeat(hi_county, take)
        u = rng.integers(0, sizes[x], size=len(y)) + starts[x]
        v = rng.integers(0, sizes[y]) + starts[y]
        keep = u != v  # self-loops only arise in the diagonal block
        keys = np.minimum(u, v).astype(np.uint64)[keep]
        keys <<= np.uint64(32)
        keys |= np.maximum(u, v).astype(np.uint64)[keep]
        keys.sort()
        # Keys of this round that are first in their run and not placed yet;
        # written so that a round of nothing but self-loops leaves it empty.
        fresh = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        if len(placed):
            at = np.searchsorted(placed, keys).clip(max=len(placed) - 1)
            fresh &= placed[at] != keys
        keys = keys[fresh]
        hi = (keys & np.uint64(0xFFFFFFFF)).astype(np.intp)
        have += np.bincount(nodes.county_index[hi], minlength=len(sizes))[hi_county]
        placed = np.concatenate([placed, keys])
        placed.sort(kind="stable")  # two sorted runs: a merge
    return placed


def build_contact_network(
    nodes: SampledNodes,
    e_matrix: np.ndarray,
    k_bar: float,
    rng_seed: int,
) -> ContactNetwork:
    """Place k_bar * N / 2 edges according to expected per-pair counts; all nodes ordinary.

    Integer per-pair counts come from one multinomial draw over the full edge
    budget (stream ``[rng_seed, 0]``) with probabilities proportional to
    ``e_matrix``; pairs involving a county that sampled zero nodes are dropped
    from the support first. Edges are then placed by one generator (stream
    ``[rng_seed, 1]``) in one pass per lo county, in ascending county order:
    each pass draws all of that county's blocks together and rejects
    self-loops and duplicates in exact-deficit rounds, so each block's edges
    are a uniform simple edge set given its count. A pass's keys all have
    their lo end in its county's node range, so the passes write the sorted
    edge list in order, with no global sort.

    Raises:
        NumericError: the edge budget, or a block's allocation, exceeds
            the distinct node pairs there are, or rejection sampling
            exceeded 100x a block's count.
    """
    _check_k_bar(k_bar)
    n = len(nodes.county_index)
    n_counties = len(nodes.county_ids)
    if e_matrix.shape != (n_counties, n_counties):
        raise ValidationError("expected-edge matrix does not match county count")
    sizes = np.bincount(nodes.county_index, minlength=n_counties)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    if not np.array_equal(np.sort(nodes.county_index), nodes.county_index):
        raise ValidationError("sampled nodes must be ordered by county block")

    xs, ys = np.triu_indices(n_counties)
    weights = e_matrix[xs, ys].astype(float).copy()
    # Counties that sampled no nodes cannot carry edges.
    empty = sizes == 0
    weights[empty[xs] | empty[ys]] = 0.0
    if weights.sum() <= 0:
        raise ValidationError("no county pair with positive expected edges has nodes")

    total_edges = int(round(k_bar * n / 2.0))
    if total_edges > n * (n - 1) // 2:  # before the draw: multinomial overflows on a huge budget
        raise NumericError(f"k_bar {k_bar} asks for more edges than {n} nodes have pairs")
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
        raise NumericError(
            f"county pair ({int(nodes.county_ids[xs[b]])}, {int(nodes.county_ids[ys[b]])}) "
            f"allocated {counts[b]} edges but holds at most {capacity[b]}"
        )

    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 1]))
    edges = np.empty((int(counts.sum()), 2), dtype=np.uint32)
    filled = 0
    first = np.searchsorted(xs, np.arange(n_counties + 1))  # blocks of each lo county
    for x in range(n_counties):
        blocks = first[x] + np.flatnonzero(counts[first[x]:first[x + 1]])
        keys = _place_county_edges(rng, nodes, starts, sizes, x, ys[blocks], counts[blocks])
        edges[filled:filled + len(keys), 0] = keys >> np.uint64(32)
        edges[filled:filled + len(keys), 1] = keys & np.uint64(0xFFFFFFFF)
        filled += len(keys)
    return ContactNetwork(
        county_ids=nodes.county_ids,
        county_index=nodes.county_index,
        misinformed=np.zeros(n, dtype=bool),
        edges=edges,
        k_bar=float(k_bar),
        seed=int(rng_seed),
    )


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
        # Written from the array itself: a uint32 edge list is not copied.
        f.write(np.ascontiguousarray(net.edges, dtype="<u4"))


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
        # Read straight into the arrays the network keeps. The county index
        # is stored as uint32; a value past the int32 range reads negative
        # and fails the network's range check.
        county_ids = _read_array(f, "<i8", n_counties)
        county_index = _read_array(f, "<i4", n)
        bits = _read_array(f, np.uint8, (n + 7) // 8)
        edges = _read_array(f, "<u4", (m, 2))
    try:
        return ContactNetwork(
            county_ids=county_ids,
            county_index=county_index,
            misinformed=np.unpackbits(bits, count=n).view(bool),
            edges=edges,
            k_bar=float(k_bar),
            seed=int(seed),
        )
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e


def _read_array(f, dtype, shape) -> np.ndarray:
    out = np.empty(shape, dtype=dtype)
    if f.readinto(out) != out.nbytes:
        raise ValidationError(f"{f.name}: truncated")
    return out
