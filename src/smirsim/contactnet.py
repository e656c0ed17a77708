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
   ``misinformed[nodes.source]``, on a copy sharing the rows and ``adjacency``.

Every stage is fully determined by its seed. Block placement uses one
generator for the whole graph and makes one vectorized pass per lo county x,
in ascending order, over all blocks (x, y >= x) at once. Every key of such a
pass has its lo end in x's node range, so the passes emit the graph's rows
(each edge's hi end under its lo end, ascending) in order, without a global
sort. Ends are 32-bit: in memory the rows cost 4 bytes per edge plus ~13
bytes per node; on disk, as gaps in 2-byte words (a gap of 2^15 or more
takes 4 bytes), ~2.1 per edge at 200k nodes and ~2.8 at 2M, plus ~2.1 per
node. Building the rows raises the process's peak RSS by ~8 bytes per edge
(2M nodes and 25M edges: 90 -> 296 MB). The ``adjacency`` index, built on
first use, keeps ~4 more bytes per edge plus 8 per node in its sort keys'
buffer; building it allocates at most ~10 per edge (296 -> 436 MB).
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

MAGIC = b"SMIRCNET4\n"
# Node count, edge count, k_bar, seed, county count, county run count, high word count.
_HEADER = struct.Struct("<QQdQIQQ")
# Rows, or ends, per block of the blocked passes: the row checks, the adjacency's hi half.
_BLOCK_ROWS = 1 << 16
# Rows per block of contactnet.bin's words, a constant of its layout (~50k ends at k_bar 25).
_FILE_ROWS = 1 << 12


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


def check_sample_fraction(sample_fraction: float) -> None:
    if not (0 < sample_fraction <= 1):
        raise ValidationError(f"sample_fraction must be in (0, 1], got {sample_fraction}")


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
    check_sample_fraction(sample_fraction)
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
    source = np.concatenate(src_out).astype(np.int64, copy=False)
    del src_out  # the per-pool draws, freed before the county gather
    return SampledNodes(
        county_ids=scenario.county_ids,
        county_index=county_of_net.astype(np.int32)[source],  # each draw's pool's county
        source=source,
    )


def check_k_bar(k_bar: float) -> None:
    if not (np.isfinite(k_bar) and k_bar > 0):
        raise ValidationError(f"k_bar must be finite and > 0, got {k_bar}")


def edge_budget(k_bar: float, n_nodes: int) -> int:
    """The edge count of every network `build_contact_network` makes: round(k_bar * N / 2)."""
    budget = k_bar * n_nodes / 2.0
    if not np.isfinite(budget):
        raise NumericError(f"k_bar {k_bar} asks for more edges than {n_nodes} nodes have pairs")
    return int(round(budget))


def placed_edges(k_bar: float, n_nodes: int) -> int:
    """`edge_budget`, checked against the pairs of `n_nodes` nodes: the edges a build places."""
    budget = edge_budget(k_bar, n_nodes)
    if budget > n_nodes * (n_nodes - 1) // 2:  # before a draw: multinomial overflows on it
        raise NumericError(f"k_bar {k_bar} asks for more edges than {n_nodes} nodes have pairs")
    return budget


def expected_edges(mobility: np.ndarray, k_bar: float, n_nodes: int) -> np.ndarray:
    """Expected edge counts per unordered county pair, incl. the diagonal.

    `mobility` is a symmetric county-by-county matrix, such as
    ``Scenario.mobility``. Returns an upper-triangular matrix E with E[x, y]
    (x <= y) proportional to the mobility between x and y and summing to the
    total edge budget k_bar * n_nodes / 2. Scaling the mobility matrix by any
    positive constant leaves E unchanged.
    """
    check_k_bar(k_bar)
    if n_nodes < 2:
        raise ValidationError(f"need at least 2 nodes, got {n_nodes}")
    edge_budget(k_bar, n_nodes)  # a finite budget, before it scales
    upper = np.triu(mobility)
    total_mobility = upper.sum()
    if total_mobility <= 0:
        raise ValidationError("mobility matrix sums to zero")
    return upper * (k_bar * n_nodes / 2.0 / total_mobility)


@dataclass(frozen=True)
class ContactNetwork:
    """Undirected simple graph of sampled individuals, as compressed sparse rows.

    Node v's edges (v, w), v < w, have their hi ends w, ascending, in ``hi[ptr[v]:ptr[v + 1]]``
    (m uint32; ``ptr`` is n + 1 int64). ``county_index`` maps nodes to ``county_ids``.
    """

    county_ids: np.ndarray
    county_index: np.ndarray
    misinformed: np.ndarray
    ptr: np.ndarray
    hi: np.ndarray
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
        ptr, hi = self.ptr, self.hi
        if ptr.shape != (n + 1,) or hi.ndim != 1:
            raise ValidationError("row pointers must have shape (n + 1,) and hi ends (m,)")
        if ptr[0] != 0 or ptr[-1] != len(hi) or np.any(ptr[1:] < ptr[:-1]):
            raise ValidationError(f"row pointers must rise from 0 to {len(hi)} and never fall; "
                                  f"they run from {ptr[0]} to {ptr[-1]}")
        if len(hi) and hi.max() >= n:
            raise ValidationError("edge endpoint out of range")
        # Canonical, sorted and duplicate-free, one block of ends at a time (consecutive blocks
        # share an end): hi rises along each row, so a row's first end above it puts all above.
        for start in range(0, len(hi), _BLOCK_ROWS):
            block = hi[start:start + _BLOCK_ROWS + 1]
            a, b = np.searchsorted(ptr, [start, start + len(block)])
            opens = ptr[a:b]  # the block's ends that open rows a..b-1 (or a later row's)
            if np.any(block[opens - start] <= np.arange(a, b)):
                raise ValidationError("edges must be canonical (lo < hi), no self-loops")
            down = block[1:] <= block[:-1]
            down[opens[opens > start] - start - 1] = False  # pairs of ends in two rows
            if np.any(down):
                raise ValidationError("edges must be sorted and duplicate-free")

    @property
    def n_nodes(self) -> int:
        return len(self.county_index)

    @property
    def n_edges(self) -> int:
        return len(self.hi)

    @property
    def edges(self) -> np.ndarray:
        """The sorted (m, 2) uint32 list of edges (lo, hi), made on each call: not for pipelines."""
        return np.column_stack([np.repeat(np.arange(self.n_nodes, dtype=np.uint32),
                                          np.diff(self.ptr)), self.hi])

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.n_edges / self.n_nodes

    @property
    def misinformed_count(self) -> int:
        return int(self.misinformed.sum())

    def relabel(self, misinformed: np.ndarray) -> ContactNetwork:
        """This graph with the node labels `misinformed` (a bool per node),
        sharing its rows, county index and ``adjacency``, built here first.
        Only the length is checked: the rows were checked with this graph."""
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
        two rows. The first half is the graph's own ``(ptr, hi)``; the
        second's neighbors, 4 bytes per edge, fill the front of the buffer
        that sorted them. Built once per graph, shared by its relabeled
        copies, and freed with the last of them.
        """
        n, ptr = self.n_nodes, self.ptr
        # Edges sorted by (hi, lo): the low 32 bits of the sorted keys are the lo ends in hi
        # order (edges are unique, so no stable sort is needed, and sorting keys is ~10x faster
        # than argsort). They are moved to the front of the keys, which then shrink to them.
        keys = self.hi.astype(np.uint64)
        keys <<= np.uint64(32)
        for r in range(0, n, _BLOCK_ROWS):  # each block of rows' lo ends, in 4 bytes per end
            p = ptr[r:r + _BLOCK_ROWS + 1]
            keys[p[0]:p[-1]] |= np.repeat(np.arange(r, r + len(p) - 1, dtype=np.uint32), np.diff(p))
        keys.sort()
        hi_ptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.uint64) << np.uint64(32))
        m = len(keys)
        low = keys.view(np.uint32)[int(not np.little_endian)::2]
        for start in range(0, m, _BLOCK_ROWS):  # only block 0 overlaps its source: NumPy buffers it
            keys.view(np.uint32)[start:min(start + _BLOCK_ROWS, m)] = low[start:start + _BLOCK_ROWS]
        del low  # no view may outlive the resize
        keys.resize((m + 1) // 2, refcheck=False)
        return (ptr, self.hi), (hi_ptr, keys.view(np.uint32)[:m])


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
    their lo end in its county's node range, so the passes write the rows'
    hi ends and row pointers in order, with no global sort.

    Raises:
        NumericError: the edge budget, or a block's allocation, exceeds
            the distinct node pairs there are, or rejection sampling
            exceeded 100x a block's count.
    """
    check_k_bar(k_bar)
    n = len(nodes.county_index)
    total_edges = placed_edges(k_bar, n)  # first: a budget of 0 is met with no weights
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
    if weights.sum() <= 0 < total_edges:
        raise ValidationError("no county pair with positive expected edges has nodes")

    alloc_rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0]))
    counts = alloc_rng.multinomial(total_edges, weights / (weights.sum() or 1.0))

    capacity = np.where(xs == ys, sizes[xs] * (sizes[xs] - 1) // 2, sizes[xs] * sizes[ys])
    over = counts > capacity
    if np.any(over):
        b = int(np.flatnonzero(over)[0])
        raise NumericError(
            f"county pair ({int(nodes.county_ids[xs[b]])}, {int(nodes.county_ids[ys[b]])}) "
            f"allocated {counts[b]} edges but holds at most {capacity[b]}"
        )

    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 1]))
    hi = np.empty(int(counts.sum()), dtype=np.uint32)
    ptr = np.zeros(n + 1, dtype=np.int64)
    first = np.searchsorted(xs, np.arange(n_counties + 1))  # blocks of each lo county
    for x in range(n_counties):
        blocks = first[x] + np.flatnonzero(counts[first[x]:first[x + 1]])
        keys = _place_county_edges(rng, nodes, starts, sizes, x, ys[blocks], counts[blocks])
        at = ptr[starts[x]]  # the edges of earlier passes
        hi[at:at + len(keys)] = keys  # the cast keeps each key's low word: its hi end
        rows = np.arange(starts[x], starts[x + 1] + 1, dtype=np.uint64) << np.uint64(32)
        ptr[starts[x]:starts[x + 1] + 1] = at + np.searchsorted(keys, rows)  # where x's rows open
    return ContactNetwork(
        county_ids=nodes.county_ids,
        county_index=nodes.county_index,
        misinformed=np.zeros(n, dtype=bool),
        ptr=ptr,
        hi=hi,
        k_bar=float(k_bar),
        seed=int(rng_seed),
    )


def save_contact_network(net: ContactNetwork, path) -> None:
    """Persist to the compact binary format (its layout is in the README), `_FILE_ROWS` rows
    at a time: the county index as runs, and each row's hi ends as gaps between them."""
    n, ptr, hi, ci = net.n_nodes, net.ptr, net.hi, net.county_index
    if n >= 1 << 31:  # so that every degree and gap is below 2^31
        raise ValidationError(f"a contact network file holds fewer than 2^31 nodes, not {n}")
    runs = np.append(0, np.flatnonzero(ci[1:] != ci[:-1]) + 1)  # where each county run opens
    with open(path, "wb") as f:
        f.write(MAGIC + bytes(_HEADER.size))  # the header is written once its counts are known
        f.write(net.county_ids.astype("<i8").tobytes())
        f.write(np.concatenate([ci[runs], np.diff(runs, append=n)]).astype("<u4"))
        f.write(np.packbits(net.misinformed.astype(np.uint8)).tobytes())
        high = 0  # the high words written
        for r in range(0, n, _FILE_ROWS):
            p = ptr[r:r + _FILE_ROWS + 1]
            deg, gaps = np.diff(p), np.diff(hi[p[0]:p[-1]], prepend=np.uint32(0))  # uint32
            first = p[:-1][deg > 0]  # each non-empty row's first end, whose gap wrapped
            gaps[first - p[0]] = hi[first] - np.arange(r, r + len(deg))[deg > 0]
            for values in (deg, gaps):  # a word holds a value's low 15 bits, and a flag
                big = values >= 1 << 15  # that the next high word holds value >> 15
                f.write((values.astype("<u2") | big.astype("<u2") << 15).astype("<u2", copy=False))
                f.write((values >> 15).astype("<u2")[np.flatnonzero(big)])  # faster than a mask
                high += int(np.count_nonzero(big))
        f.seek(len(MAGIC))
        f.write(_HEADER.pack(n, len(hi), net.k_bar, net.seed, len(net.county_ids), len(runs), high))


def load_contact_network(path) -> ContactNetwork:
    """Read a `save_contact_network` artifact; a wrong magic, a file size other than its
    header declares (truncated, trailing bytes) or a count its body contradicts is invalid."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:  # an older network's format line, such as SMIRCNET3, is named
            raise ValidationError(f"{path}: format line {magic.strip()!r}, but this version "
                                  f"reads contact networks of format {MAGIC.strip()!r}")
        n, m, k_bar, seed, n_counties, n_runs, n_high = _HEADER.unpack(
            _read_array(f, np.uint8, _HEADER.size))
        declared = (len(MAGIC) + _HEADER.size + 8 * n_counties + 8 * n_runs + (n + 7) // 8
                    + 2 * (n + m + n_high))
        size = os.fstat(f.fileno()).st_size
        if size != declared:
            raise ValidationError(f"{path}: {size} bytes, but its header declares {declared}")
        # Read straight into the arrays the network keeps. A county index past the int32
        # range reads negative and fails the network's range check.
        county_ids = _read_array(f, "<i8", n_counties)
        runs = _read_array(f, "<i4", n_runs), _read_array(f, "<u4", n_runs)
        if runs[1].sum(dtype=np.uint64) != n:
            raise ValidationError(f"{path}: county runs do not sum to its {n} nodes")
        county_index = np.repeat(*runs)
        bits = _read_array(f, np.uint8, (n + 7) // 8)
        ptr, hi, left = np.zeros(n + 1, dtype=np.int64), np.empty(m, dtype=np.uint32), n_high
        for r in range(0, n, _FILE_ROWS):
            deg, left = _read_words(f, min(_FILE_ROWS, n - r), left)
            p, at = ptr[r:r + len(deg) + 1], ptr[r]  # this block's row pointers, a view
            p[1:] = np.cumsum(deg) + at
            if p[-1] > m:  # before the degrees slice the gap words
                raise ValidationError(f"{path}: degrees sum past its {m} edges")
            gaps, left = _read_words(f, int(p[-1] - at), left)
            sums = np.append(0, np.cumsum(gaps))  # a row's ends: its node plus its gaps' sums
            ends = sums[1:] + np.repeat(np.arange(r, r + len(deg)) - sums[p[:-1] - at], deg)
            if len(ends) and ends.max() >= n:  # on the int64 sums, before the uint32 cast
                raise ValidationError(f"{path}: edge endpoint out of range")
            hi[at:at + len(ends)] = ends
        if ptr[-1] != m or left:
            raise ValidationError(f"{path}: degree sum {ptr[-1]} of {m}, {left} high words spare")
    try:
        return ContactNetwork(
            county_ids=county_ids,
            county_index=county_index,
            misinformed=np.unpackbits(bits, count=n).view(bool),
            ptr=ptr,
            hi=hi,
            k_bar=float(k_bar),
            seed=int(seed),
        )
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e


def _read_words(f, count: int, left: int) -> tuple[np.ndarray, int]:
    """`count` words and their high words from `f`, of `left`, as int64; and the ones left."""
    words = _read_array(f, "<u2", count)
    big = np.flatnonzero(words >= 1 << 15)
    if len(big) > left:
        raise ValidationError(f"{f.name}: more words are flagged than there are high words")
    values = (words & 0x7FFF).astype(np.int64)
    values[big] |= _read_array(f, "<u2", len(big)).astype(np.int64) << 15
    return values, left - len(big)


def _read_array(f, dtype, shape) -> np.ndarray:
    out = np.empty(shape, dtype=dtype)
    if f.readinto(out) != out.nbytes:
        raise ValidationError(f"{f.name}: truncated")
    return out
