import itertools
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from smirsim import contactnet as cn
from smirsim import infonet as inet
from smirsim.errors import NumericError, ValidationError
from smirsim.scenario import ScenarioConfig, generate_synthetic_mobility

from conftest import build_infonet, build_scenario
from oracles import contact_rows, contactnet_bytes


class TestExpectedEdges:
    def test_single_county_gets_whole_budget(self):
        e = cn.expected_edges(np.array([[3.7]]), k_bar=4.0, n_nodes=10)
        assert e[0, 0] == pytest.approx(20.0)

    def test_two_county_uniform_split(self):
        # L_AA = L_AB = L_BB = 1, k=4, N=10: three unordered pairs, 20/3 each
        e = cn.expected_edges(np.ones((2, 2)), 4.0, 10)
        assert e[0, 0] == pytest.approx(20 / 3)
        assert e[0, 1] == pytest.approx(20 / 3)
        assert e[1, 1] == pytest.approx(20 / 3)
        assert e[1, 0] == 0.0  # upper-triangular representation
        assert e.sum() == pytest.approx(20.0, rel=1e-12)

    def test_scaling_invariance(self, rng):
        n = 5
        raw = rng.uniform(0, 10, (n, n))
        values = (raw + raw.T) / 2
        a = cn.expected_edges(values, 25.0, 1000)
        b = cn.expected_edges(values * 37.5, 25.0, 1000)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_mobility_rejected(self):
        with pytest.raises(ValidationError):
            build_scenario([100], mobility=np.zeros((1, 1)))
        with pytest.raises(ValidationError, match="mobility matrix sums to zero"):
            cn.expected_edges(np.zeros((2, 2)), 25.0, 10)


    @pytest.mark.parametrize("k_bar", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_k_bar_not_finite_positive(self, k_bar):
        with pytest.raises(ValidationError, match="k_bar"):
            cn.expected_edges(np.ones((2, 2)), k_bar, 10)

    def test_rejects_fewer_than_two_nodes(self):
        with pytest.raises(ValidationError, match="need at least 2 nodes, got 1"):
            cn.expected_edges(np.ones((2, 2)), 25.0, 1)

    def test_rejects_a_budget_past_the_float_range(self):
        # k_bar is finite, but k_bar * N / 2 is not
        with pytest.raises(NumericError, match="k_bar 1e[+]308 asks for more edges than 10 nodes"):
            cn.expected_edges(np.ones((2, 2)), 1e308, 10)
        with pytest.raises(NumericError, match="k_bar 1e[+]308 asks for more edges than 10 nodes"):
            cn.edge_budget(1e308, 10)
        assert cn.edge_budget(1e307, 10) == int(5e307)  # finite, so counted


class TestSamplePopulation:
    def make_inputs(self, voters, shares, users_per_party=5):
        n = len(voters)
        scenario = build_scenario(voters, shares, users=[2 * users_per_party] * n)
        county, alignment = [], []
        for ci in range(n):
            county += [1000 + ci] * (2 * users_per_party)
            alignment += [1.0] * users_per_party + [-1.0] * users_per_party
        net = build_infonet(2 * users_per_party * n, [], county=county, alignment=alignment)
        return scenario, net

    def test_party_matched_counts(self):
        scenario, net = self.make_inputs([1000], [0.6])
        nodes = cn.sample_population(scenario, net, 0.1, rng_seed=4)
        assert len(nodes.source) == 100
        # Independent tally over the emitted node list via source personas.
        rep_sourced = int((net.party[nodes.source] == inet.REPUBLICAN).sum())
        assert rep_sourced == 60
        assert int((net.party[nodes.source] == inet.DEMOCRAT).sum()) == 40

    def test_tiny_fraction_drops_county(self):
        scenario, net = self.make_inputs([400, 10000], [0.5, 0.5])
        nodes = cn.sample_population(scenario, net, 0.001, rng_seed=4)
        assert np.bincount(nodes.county_index, minlength=2).tolist() == [0, 10]

    def test_degenerate_share_uses_one_pool(self):
        scenario, net = self.make_inputs([500], [1.0])
        nodes = cn.sample_population(scenario, net, 0.1, rng_seed=4)
        assert np.all(net.party[nodes.source] == inet.REPUBLICAN)

    def test_missing_party_pool_raises(self):
        scenario = build_scenario([1000], [0.6], users=[3])
        net = build_infonet(3, [], county=[1000] * 3, alignment=[1.0, 1.0, 1.0])
        with pytest.raises(ValidationError, match="county 1000 has no democrat node"):
            cn.sample_population(scenario, net, 0.1, rng_seed=4)

    def test_unneeded_party_pool_not_required(self):
        scenario = build_scenario([1000], [1.0], users=[3])
        net = build_infonet(3, [], county=[1000] * 3, alignment=[1.0, 1.0, 1.0])
        nodes = cn.sample_population(scenario, net, 0.1, rng_seed=4)
        assert len(nodes.source) == 100

    def test_rejects_bad_fraction(self):
        scenario, net = self.make_inputs([1000], [0.5])
        with pytest.raises(ValidationError):
            cn.sample_population(scenario, net, 0.0, rng_seed=4)

    def test_no_county_sampled_raises(self):
        # round(10 * 0.01) = 0 draws in both counties
        scenario, net = self.make_inputs([10, 10], [0.5, 0.5])
        with pytest.raises(ValidationError, match="no county sampled any nodes"):
            cn.sample_population(scenario, net, 0.01, rng_seed=4)

    def test_county_marginals_exact(self, rng):
        voters = [1234, 8888, 402, 61000]
        scenario, net = self.make_inputs(voters, [0.3, 0.5, 0.8, 0.45])
        nodes = cn.sample_population(scenario, net, 0.037, rng_seed=9)
        want = np.floor(np.asarray(voters) * 0.037 + 0.5).astype(int)
        assert np.bincount(nodes.county_index, minlength=4).tolist() == want.tolist()

    def test_misinformed_fraction_non_increasing_in_phi(self):
        scenario = build_scenario([3000, 2000], [0.6, 0.4], users=[200, 150])
        net = inet.generate_synthetic_infonet(scenario, ScenarioConfig(), rng_seed=21)
        fractions = []
        nodes = cn.sample_population(scenario, net, 0.2, rng_seed=33)
        for phi in (1, 2, 3, 5, 10):
            misinformed = inet.spread_misinformation(net, phi)
            fractions.append(misinformed[nodes.source].mean())
        assert all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_same_seed_same_draws(self):
        scenario, net = self.make_inputs([5000, 2000], [0.5, 0.7])
        a = cn.sample_population(scenario, net, 0.1, rng_seed=5)
        b = cn.sample_population(scenario, net, 0.1, rng_seed=5)
        assert np.array_equal(a.source, b.source)

    def test_draws_freed_before_the_county_gather(self):
        # 1M draws from 1,000 accounts, so the pools are small. Joining the
        # per-pool draws holds 16 bytes per node; holding them on through the
        # 4-byte county gather would peak at 20.
        scenario, net = self.make_inputs([20_000] * 100, [0.5] * 100)
        peak = traced_peak(lambda: cn.sample_population(scenario, net, 0.5, rng_seed=5))
        assert peak / 1_000_000 < 18


def sampled(counties, sizes):
    county_index = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    n = county_index.size
    return cn.SampledNodes(
        county_ids=np.asarray(counties, dtype=np.int64),
        county_index=county_index,
        source=np.zeros(n, dtype=np.int64),
    )


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_net():
    """200k nodes and 2.5M edges in one county: big enough that per-edge
    costs dwarf the per-node ones."""
    nodes = sampled([1], [200_000])
    return cn.build_contact_network(nodes, np.array([[1.0]]), k_bar=25.0, rng_seed=3)


class TestBuildNetwork:
    @pytest.mark.parametrize("k_bar", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_k_bar_not_finite_positive(self, k_bar):
        with pytest.raises(ValidationError, match="k_bar"):
            cn.build_contact_network(sampled([1000], [10]), np.array([[1.0]]), k_bar, rng_seed=0)

    def test_rejects_expected_edges_of_another_county_count(self):
        with pytest.raises(ValidationError, match="does not match county count"):
            cn.build_contact_network(sampled([1000, 1001], [5, 5]), np.ones((3, 3)), 2.0, 0)

    def test_rejects_nodes_out_of_county_order(self):
        nodes = replace(sampled([1000, 1001], [2, 2]),
                        county_index=np.array([1, 1, 0, 0], dtype=np.int32))
        with pytest.raises(ValidationError, match="ordered by county block"):
            cn.build_contact_network(nodes, np.ones((2, 2)), 2.0, 0)

    def test_rejects_edges_only_between_empty_counties(self):
        # Only county 0 expects edges, and it sampled no nodes.
        e = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="no county pair with positive expected edges"):
            cn.build_contact_network(sampled([1000, 1001], [0, 10]), e, 2.0, 0)

    @pytest.mark.parametrize("e", [np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2))])
    def test_budget_of_no_edges_needs_no_weight(self, e):
        # round(k_bar * N / 2) is 0: the empty network, even where no pair expects an edge
        net = cn.build_contact_network(sampled([1000, 1001], [0, 10]), e, 0.01, 0)
        assert net.n_edges == 0 and np.array_equal(net.ptr, np.zeros(11))

    def test_placed_edges_are_a_budget_the_pairs_hold(self):
        assert cn.placed_edges(2.0, 3) == 3
        for k_bar in (4.0, 1e307, 1e308):
            with pytest.raises(NumericError, match=re.escape(f"k_bar {k_bar} asks for more edges than 3 ")):
                cn.placed_edges(k_bar, 3)

    def test_two_nodes_force_the_single_edge(self):
        nodes = sampled([1000], [2])
        e = np.array([[1.0]])
        # About half of these seeds draw a first round of nothing but a
        # self-loop, which must leave an empty round, not an error.
        for seed in range(32):
            net = cn.build_contact_network(nodes, e, k_bar=1.0, rng_seed=seed)
            assert net.edges.tolist() == [[0, 1]]
            assert net.mean_degree == pytest.approx(1.0)

    def test_retry_budget_names_the_county_pair(self, monkeypatch):
        # One draw for the one edge of two nodes: a self-loop exhausts it.
        monkeypatch.setattr(cn, "RETRY_FACTOR", 1)
        nodes = sampled([1000], [2])
        messages = []
        for seed in range(32):
            try:
                cn.build_contact_network(nodes, np.array([[1.0]]), 1.0, rng_seed=seed)
            except NumericError as e:
                messages.append(str(e))
        assert messages
        assert all("county pair (1000, 1000)" in m and "exhausted" in m for m in messages)

    # Upper-tail chi-square critical values at alpha = 1e-4 for 14 and 119
    # degrees of freedom, from the regularized incomplete gamma function.
    CHI2_CRITICAL = {14: 42.579, 119: 185.086}

    @pytest.mark.parametrize(
        "sizes, e_matrix, k_bar, pairs, n_edges",
        [
            # diagonal block: 3 of the 10 pairs of 5 nodes, C(10, 3) = 120 sets
            ([5], [[1.0]], 1.2, list(itertools.combinations(range(5), 2)), 3),
            # cross block: 2 of the 2 x 3 pairs, C(6, 2) = 15 sets
            ([2, 3], [[0.0, 1.0], [0.0, 0.0]], 0.8,
             list(itertools.product(range(2), range(2, 5))), 2),
        ],
        ids=["diagonal-5-nodes-3-edges", "cross-2x3-2-edges"],
    )
    def test_block_edge_set_is_uniform(self, sizes, e_matrix, k_bar, pairs, n_edges):
        sets = list(itertools.combinations(pairs, n_edges))
        draws = 40 * len(sets)
        nodes = sampled(range(len(sizes)), sizes)
        seen = Counter()
        for seed in range(draws):
            net = cn.build_contact_network(nodes, np.array(e_matrix), k_bar, rng_seed=seed)
            seen[tuple(map(tuple, net.edges.tolist()))] += 1
        assert set(seen) <= set(sets)
        expected = draws / len(sets)
        chi2 = sum((seen[s] - expected) ** 2 / expected for s in sets)
        assert chi2 < self.CHI2_CRITICAL[len(sets) - 1]

    def test_zero_pair_allocation_gets_no_cross_edges(self):
        nodes = sampled([1, 2], [50, 50])
        e = np.array([[10.0, 0.0], [0.0, 10.0]])
        net = cn.build_contact_network(nodes, e, k_bar=0.4, rng_seed=1)
        county = net.county_index[net.edges]
        assert np.all(county[:, 0] == county[:, 1])

    def test_simple_graph_and_exact_total(self):
        nodes = sampled([1, 2, 3], [120, 80, 100])
        values = np.ones((3, 3))
        e = cn.expected_edges(values, k_bar=10.0, n_nodes=len(nodes.source))
        net = cn.build_contact_network(nodes, e, k_bar=10.0, rng_seed=3)
        assert net.n_edges == 1500  # k N / 2 exactly
        assert np.all(net.edges[:, 0] < net.edges[:, 1])
        keys = net.edges[:, 0].astype(np.uint64) * np.uint64(net.n_nodes) + net.edges[:, 1]
        assert len(np.unique(keys)) == net.n_edges

    def test_block_counts_match_multinomial_within_4_sigma(self):
        # 3 counties, uniform mobility, 300 nodes, k=10, 20 seeds
        nodes = sampled([1, 2, 3], [100, 100, 100])
        e = cn.expected_edges(np.ones((3, 3)), 10.0, 300)
        total = 1500
        xs, ys = np.triu_indices(3)
        p = e[xs, ys] / total
        sigma = np.sqrt(total * p * (1 - p))
        for seed in range(20):
            net = cn.build_contact_network(nodes, e, 10.0, rng_seed=seed)
            cx = net.county_index[net.edges[:, 0]]
            cy = net.county_index[net.edges[:, 1]]
            lo, hi = np.minimum(cx, cy), np.maximum(cx, cy)
            realized = np.zeros(len(xs))
            for b in range(len(xs)):
                realized[b] = int(((lo == xs[b]) & (hi == ys[b])).sum())
            assert np.all(np.abs(realized - e[xs, ys]) <= 4 * sigma)
            assert realized.sum() == total

    def test_deterministic_under_seed(self):
        nodes = sampled([1, 2], [60, 40])
        e = cn.expected_edges(np.ones((2, 2)), 8.0, 100)
        a = cn.build_contact_network(nodes, e, 8.0, rng_seed=77)
        b = cn.build_contact_network(nodes, e, 8.0, rng_seed=77)
        assert np.array_equal(a.edges, b.edges)

    def test_saturation_raises(self):
        nodes = sampled([1000], [3])
        e = np.array([[1.0]])
        with pytest.raises(NumericError, match="asks for more edges than 3 nodes have pairs"):
            cn.build_contact_network(nodes, e, k_bar=4.0, rng_seed=0)

    def test_block_over_capacity_raises(self):
        # The budget of 4 * 203 / 2 = 406 edges fits the 203 nodes' pairs, but nearly all
        # of it falls to the 3-node county, whose block holds 3 pairs.
        nodes = sampled([1000, 1001], [3, 200])
        e = np.array([[1.0, 0.0], [0.0, 1e-6]])
        with pytest.raises(NumericError, match=r"county pair \(1000, 1000\) allocated \d+ edges "
                                               r"but holds at most 3$"):
            cn.build_contact_network(nodes, e, k_bar=4.0, rng_seed=0)

    def test_empty_county_dropped_from_support(self):
        nodes = sampled([1, 2], [100, 0])
        e = cn.expected_edges(np.ones((2, 2)), 4.0, 100)
        net = cn.build_contact_network(nodes, e, 4.0, rng_seed=5)
        assert net.n_edges == 200
        assert np.all(net.county_index[net.edges] == 0)


class TestAdjacency:
    def neighbor_sets(self, net):
        out = [set() for _ in range(net.n_nodes)]
        for ptr, nbr in net.adjacency:
            for v in range(net.n_nodes):
                row = nbr[ptr[v]:ptr[v + 1]].tolist()
                assert not out[v] & set(row), "an edge listed twice"
                out[v] |= set(row)
        return out

    def test_rows_are_the_undirected_neighbors(self):
        nodes = sampled([1, 2, 3], [40, 25, 35])
        e = cn.expected_edges(np.ones((3, 3)), k_bar=6.0, n_nodes=len(nodes.source))
        net = cn.build_contact_network(nodes, e, k_bar=6.0, rng_seed=4)
        want = [set() for _ in range(net.n_nodes)]
        for u, v in net.edges.tolist():
            want[u].add(v)
            want[v].add(u)
        assert self.neighbor_sets(net) == want
        assert sum(len(nbr) for _, nbr in net.adjacency) == 2 * net.n_edges

    def test_no_edges_gives_empty_rows(self):
        net = cn.build_contact_network(
            sampled([1], [5]), np.array([[1.0]]), k_bar=0.1, rng_seed=0
        )
        assert net.n_edges == 0
        for ptr, nbr in net.adjacency:
            assert len(nbr) == 0 and ptr.tolist() == [0] * 6

    @pytest.mark.parametrize("m", [0, 1, 7, 2 * cn._BLOCK_ROWS + 1])
    def test_edge_counts_against_neighbor_sets(self, m):
        # An odd count leaves half a key past the hi half; the last spans blocks.
        n = 600
        lo, hi = np.triu_indices(n, 1)  # every pair, sorted
        pick = np.sort(np.random.default_rng(m).choice(len(lo), size=m, replace=False))
        net = cn.ContactNetwork(
            county_ids=np.array([1000]),
            county_index=np.zeros(n, dtype=np.int32),
            misinformed=np.zeros(n, dtype=bool),
            **contact_rows(zip(lo[pick], hi[pick]), n),
            k_bar=1.0,
            seed=0,
        )
        want = [set() for _ in range(n)]
        for u, v in net.edges.tolist():
            want[u].add(v)
            want[v].add(u)
        assert self.neighbor_sets(net) == want
        assert net.edges.dtype == np.uint32
        assert np.array_equal(net.edges, np.column_stack([lo[pick], hi[pick]]))
        assert net.adjacency[0][0] is net.ptr and net.adjacency[0][1] is net.hi
        nbr = net.adjacency[1][1]
        assert nbr.dtype == np.uint32 and nbr.flags.c_contiguous
        assert nbr.base.nbytes == 8 * ((m + 1) // 2)  # the shrunk sort keys

    def test_memory_peak_per_edge(self, large_net):
        # The uint64 sort keys, whose front becomes the hi half's uint32
        # neighbors (the lo half is the network's own rows), with no int64
        # copy of the ends and no second uint32 buffer on the side.
        net = replace(large_net)  # a fresh index, whatever ran before
        peak = traced_peak(lambda: net.adjacency)
        assert peak <= 11 * net.n_edges

    def test_built_once_per_network(self):
        nodes = sampled([1], [30])
        net = cn.build_contact_network(nodes, np.array([[1.0]]), k_bar=4.0, rng_seed=2)
        assert net.adjacency is net.adjacency


class TestRelabel:
    def build(self):
        nodes = sampled([1, 2], [30, 20])
        e = cn.expected_edges(np.ones((2, 2)), 6.0, 50)
        return cn.build_contact_network(nodes, e, 6.0, rng_seed=13)

    def test_built_network_is_all_ordinary(self):
        net = self.build()
        assert net.misinformed.dtype == bool and not net.misinformed.any()

    def test_shares_topology_and_index(self):
        net = self.build()
        labels = np.arange(50) % 3 == 0
        a, b = net.relabel(labels), net.relabel(~labels)
        for other in (a, b):
            assert other.ptr is net.ptr and other.hi is net.hi
            assert other.county_index is net.county_index
            assert all(x is y for half, other_half in zip(net.adjacency, other.adjacency)
                       for x, y in zip(half, other_half))
        assert a.misinformed is labels and np.array_equal(b.misinformed, ~labels)
        assert not net.misinformed.any()  # the source graph keeps its labels

    @pytest.mark.parametrize("n", [0, 49, 51])
    def test_rejects_labels_of_another_length(self, n):
        with pytest.raises(ValidationError, match="misinformed length"):
            self.build().relabel(np.zeros(n, dtype=bool))


class TestSyntheticMobility:
    def test_equal_populations_equidistant_symmetric(self):
        scenario = build_scenario([500, 500, 800])
        coords = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
        m = generate_synthetic_mobility(scenario.voters, 2.0, 0, coordinates=coords)
        assert m[0, 2] == pytest.approx(m[1, 2])
        assert m[0, 0] == pytest.approx(m[1, 1])

    def test_exponent_zero_ignores_distance(self):
        scenario = build_scenario([100, 200, 400])
        m = generate_synthetic_mobility(scenario.voters, 0.0, 3)
        pop = scenario.voters.astype(float)
        assert m == pytest.approx(np.outer(pop, pop))

    def test_deterministic_under_seed(self):
        scenario = build_scenario([100, 200, 400])
        a = generate_synthetic_mobility(scenario.voters, 2.0, 9)
        b = generate_synthetic_mobility(scenario.voters, 2.0, 9)
        assert np.array_equal(a, b)

    def test_feeds_expected_edges(self):
        scenario = build_scenario([1000, 2000])
        m = generate_synthetic_mobility(scenario.voters, 1.5, 2)
        e = cn.expected_edges(m, 25.0, 10000)
        assert e.sum() == pytest.approx(125000.0, rel=1e-12)

    def test_rejects_a_county_without_voters(self):
        with pytest.raises(ValidationError, match="positive county populations"):
            generate_synthetic_mobility(np.array([100, 0]), 2.0, 0)

    def test_rejects_coordinates_of_another_shape(self):
        with pytest.raises(ValidationError, match=r"coordinates must have shape \(2, 2\)"):
            generate_synthetic_mobility(np.array([100, 200]), 2.0, 0, coordinates=np.zeros((3, 2)))


class TestValidation:
    """ContactNetwork rejects rows and county indices that break its invariants."""

    def network(self, edges, county_index=(0, 0, 1, 1)):
        return cn.ContactNetwork(
            county_ids=np.array([1000, 1001]),
            county_index=np.array(county_index, dtype=np.int32),
            misinformed=np.zeros(len(county_index), dtype=bool),
            **contact_rows(edges, len(county_index)),
            k_bar=2.0,
            seed=0,
        )

    @staticmethod
    def rows(ptr, hi):
        """A one-county network with the given rows, on len(ptr) - 1 nodes."""
        n = len(ptr) - 1
        return cn.ContactNetwork(
            county_ids=np.array([1000]),
            county_index=np.zeros(n, dtype=np.int32),
            misinformed=np.zeros(n, dtype=bool),
            ptr=np.asarray(ptr, dtype=np.int64),
            hi=np.asarray(hi, dtype=np.uint32),
            k_bar=2.0,
            seed=0,
        )

    def test_accepts_a_canonical_edge_list(self):
        net = self.network([[0, 1], [0, 3], [1, 2], [2, 3]])
        assert net.n_edges == 4
        assert self.network([]).n_edges == 0

    @pytest.mark.parametrize("edges", [
        [[0, 3], [0, 1]],  # hi decreases along one row
        [[1, 3], [1, 2]],  # ... a row after an empty one
        [[0, 1], [1, 3], [1, 2]],
    ])
    def test_unsorted_edges_raise(self, edges):
        with pytest.raises(ValidationError, match="sorted"):
            self.network(edges)

    @pytest.mark.parametrize("edges", [[[0, 1], [0, 1]], [[0, 1], [1, 2], [1, 2], [2, 3]]])
    def test_duplicate_row_raises(self, edges):
        with pytest.raises(ValidationError, match="duplicate-free"):
            self.network(edges)

    @pytest.mark.parametrize("edges", [[[1, 1]], [[0, 1], [2, 1]]])
    def test_row_with_lo_not_below_hi_raises(self, edges):
        with pytest.raises(ValidationError, match="lo < hi"):
            self.network(edges)

    @pytest.mark.parametrize("county_index", [(0, 0, 2, 1), (0, -1, 1, 1)])
    def test_county_index_out_of_range_raises(self, county_index):
        with pytest.raises(ValidationError, match="county index"):
            self.network([[0, 1]], county_index)

    def test_misinformed_of_another_length_raises(self):
        with pytest.raises(ValidationError, match="misinformed length does not match"):
            replace(self.network([]), misinformed=np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("field, value", [
        ("ptr", np.zeros(4, dtype=np.int64)),
        ("ptr", np.zeros((5, 1), dtype=np.int64)),
        ("hi", np.zeros((0, 2), dtype=np.uint32)),
    ], ids=["ptr of n", "ptr 2-d", "hi 2-d"])
    def test_rows_of_another_shape_raise(self, field, value):
        with pytest.raises(ValidationError, match=r"shape \(n \+ 1,\) and hi ends \(m,\)"):
            replace(self.network([]), **{field: value})

    @pytest.mark.parametrize("ptr, hi, ends", [
        ([1, 1, 1], [1], "from 1 to 1"),  # ptr[0] is not 0
        ([0, 1, 1], [1, 1], "from 0 to 1"),  # ptr[-1] is not m: as if a degree were lost
        ([0, 2, 1, 2], [1, 2], "from 0 to 2"),  # ptr falls
    ], ids=["ptr[0]", "ptr[-1]", "falling"])
    def test_row_pointers_not_rising_from_0_to_m_raise(self, ptr, hi, ends):
        with pytest.raises(ValidationError, match=f"rise from 0 to {len(hi)} and never fall; "
                                                  f"they run {ends}"):
            self.rows(ptr, hi)

    def test_hi_end_out_of_range_raises(self):
        with pytest.raises(ValidationError, match="edge endpoint out of range"):
            self.rows([0, 1, 1, 1], [3])

    @pytest.mark.parametrize("opens", [cn._BLOCK_ROWS - 1, cn._BLOCK_ROWS, cn._BLOCK_ROWS + 1])
    @pytest.mark.parametrize("first", [1, 2])
    def test_row_opening_near_a_block_seam(self, opens, first):
        # Row 0 holds ends 1..opens; row 1 opens at end `opens`, two blocks' shared end when
        # it is _BLOCK_ROWS, with a smaller first end than row 0's last: canonical if above 1.
        n = cn._BLOCK_ROWS + 4
        hi = np.concatenate([np.arange(1, opens + 1), np.arange(first, n)])
        ptr = [0, opens] + [len(hi)] * (n - 1)
        if first > 1:
            assert self.rows(ptr, hi).n_edges == len(hi)
        else:
            with pytest.raises(ValidationError, match="lo < hi"):
                self.rows(ptr, hi)

    @pytest.mark.parametrize("at", [cn._BLOCK_ROWS - 1, cn._BLOCK_ROWS, cn._BLOCK_ROWS + 1])
    @pytest.mark.parametrize("kind", ["repeated", "swapped"])
    def test_row_spanning_two_blocks_must_rise(self, at, kind):
        # One row of 2 * _BLOCK_ROWS ends; ends at - 1 and at straddle the blocks' seam
        # when at is _BLOCK_ROWS.
        n = 2 * cn._BLOCK_ROWS + 1
        hi = np.arange(1, n)
        if kind == "repeated":
            hi[at] = hi[at - 1]
        else:
            hi[at - 1], hi[at] = hi[at], hi[at - 1]
        with pytest.raises(ValidationError, match="sorted and duplicate-free"):
            self.rows([0] + [n - 1] * n, hi)


class TestPersistence:
    def build(self):
        nodes = sampled([1, 2], [30, 20])
        e = cn.expected_edges(np.ones((2, 2)), 6.0, 50)
        return cn.build_contact_network(nodes, e, 6.0, rng_seed=13).relabel(np.arange(50) % 3 == 0)

    def test_binary_round_trip(self, tmp_path):
        net = self.build()
        path = tmp_path / "net.bin"
        cn.save_contact_network(net, path)
        back = cn.load_contact_network(path)
        assert np.array_equal(back.county_ids, net.county_ids)
        assert np.array_equal(back.county_index, net.county_index)
        assert np.array_equal(back.misinformed, net.misinformed)
        assert back.ptr.dtype == np.int64 and np.array_equal(back.ptr, net.ptr)
        assert back.hi.dtype == np.uint32 and np.array_equal(back.hi, net.hi)
        assert np.array_equal(back.edges, net.edges)
        assert back.k_bar == net.k_bar
        assert back.seed == net.seed

    def test_short_read_raises(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(bytes(10))
        with open(path, "rb") as f, pytest.raises(ValidationError, match="short.bin: truncated"):
            cn._read_array(f, "<u4", 4)

    def test_binary_is_byte_stable(self, tmp_path):
        net = self.build()
        cn.save_contact_network(net, tmp_path / "a.bin")
        cn.save_contact_network(net, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_save_does_not_copy_the_edges(self, tmp_path, large_net):
        # The hi ends are written from the array itself, the degrees from one uint32 per node:
        # no (m, 2) edge list and no int64 copy of the row pointers.
        peak = traced_peak(lambda: cn.save_contact_network(large_net, tmp_path / "net.bin"))
        assert peak < large_net.n_edges

    def test_load_reads_into_the_kept_arrays(self, tmp_path, large_net):
        # The network keeps ~4.7 bytes per edge; loading may add the check's
        # small temporaries, but no second copy of the ends.
        cn.save_contact_network(large_net, tmp_path / "net.bin")
        peak = traced_peak(lambda: cn.load_contact_network(tmp_path / "net.bin"))
        assert peak <= 10 * large_net.n_edges

    def test_degree_sum_other_than_the_header_raises(self, tmp_path):
        net = self.build()
        path = tmp_path / "net.bin"
        cn.save_contact_network(net, path)
        data = path.read_bytes()
        # node 0's degree word, after 2 county ids, 2 county runs and the label bits
        at = len(cn.MAGIC) + cn._HEADER.size + 16 + 16 + 7
        assert data[at:at + 2] == int(net.ptr[1]).to_bytes(2, "little")
        last = int(np.flatnonzero(np.diff(net.ptr))[-1])  # the last row with ends loses one
        for v, change, match in ((0, 1, f"degrees sum past its {net.n_edges} edges"),
                                 (last, -1, f"degree sum {net.n_edges - 1} of {net.n_edges}")):
            word = (int(net.ptr[v + 1] - net.ptr[v]) + change).to_bytes(2, "little")
            path.write_bytes(data[:at + 2 * v] + word + data[at + 2 * v + 2:])
            with pytest.raises(ValidationError, match=f"net.bin: {match}"):
                cn.load_contact_network(path)

    def test_older_format_names_both_formats(self, tmp_path):
        path = tmp_path / "old.bin"
        cn.save_contact_network(self.build(), path)
        for old in (b"SMIRCNET2", b"SMIRCNET3"):
            path.write_bytes(old + b"\n" + path.read_bytes()[len(cn.MAGIC):])
            with pytest.raises(ValidationError, match=f"old.bin: format line {old!r}, but this "
                                                      "version reads .* b'SMIRCNET4'"):
                cn.load_contact_network(path)

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"something else entirely")
        with pytest.raises(ValidationError):
            cn.load_contact_network(p)


def wide_network() -> cn.ContactNetwork:
    """70,000 nodes in the county runs 0, 1, 0, 2 (more runs than counties), mostly
    empty rows, node 0's row of 2^15 + 1 ends, and gaps of 2^15 and more."""
    n = 70_000
    edges = {(0, w) for w in range(1, 2**15 + 2)} | {(1, n - 1), (100, 101), (100, 100 + 40_000)}
    rng = np.random.default_rng(4)
    edges |= {(min(a, b), max(a, b)) for a, b in rng.integers(0, n, (5000, 2)) if a != b}
    return cn.ContactNetwork(
        county_ids=np.array([5, 7, 9]),
        county_index=np.repeat(np.array([0, 1, 0, 2], dtype=np.int32), [30_000, 20_000, 10_000,
                                                                        10_000]),
        misinformed=np.arange(n) % 3 == 0,
        **contact_rows(sorted(edges), n),
        k_bar=2.5,
        seed=9,
    )


def small_network(n, edges, county_index=None) -> cn.ContactNetwork:
    return cn.ContactNetwork(
        county_ids=np.array([1000, 1001]),
        county_index=np.zeros(n, dtype=np.int32) if county_index is None else county_index,
        misinformed=np.arange(n) % 2 == 1,
        **contact_rows(edges, n),
        k_bar=1.0,
        seed=2,
    )


ROUND_TRIP_NETWORKS = {
    "empty rows": lambda: small_network(6, [(1, 4), (1, 5), (4, 5)]),
    "zero edges": lambda: small_network(5, []),
    "single node": lambda: small_network(1, []),
    "gaps of 2^15 and more": wide_network,
    "county index that falls": lambda: small_network(
        4, [(0, 3)], np.array([1, 0, 0, 1], dtype=np.int32)),
}


class TestFileLayout:
    @pytest.mark.parametrize("name", ROUND_TRIP_NETWORKS)
    def test_round_trip_keeps_every_field_and_dtype(self, tmp_path, name):
        net = ROUND_TRIP_NETWORKS[name]()
        path = tmp_path / "net.bin"
        cn.save_contact_network(net, path)
        back = cn.load_contact_network(path)
        for field in ("county_ids", "county_index", "misinformed", "ptr", "hi"):
            got, want = getattr(back, field), getattr(net, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        assert (back.k_bar, back.seed) == (net.k_bar, net.seed)

    @pytest.mark.parametrize("name", ROUND_TRIP_NETWORKS)
    def test_bytes_are_the_per_value_encoding(self, tmp_path, name):
        net = ROUND_TRIP_NETWORKS[name]()
        cn.save_contact_network(net, tmp_path / "net.bin")
        assert (tmp_path / "net.bin").read_bytes() == contactnet_bytes(net)

    def test_wide_network_needs_high_words(self, tmp_path):
        net = wide_network()
        cn.save_contact_network(net, tmp_path / "net.bin")
        size = (tmp_path / "net.bin").stat().st_size
        deg = np.diff(net.ptr)
        lo = np.repeat(np.arange(net.n_nodes), deg)
        opens = np.r_[True, lo[1:] != lo[:-1]]
        gaps = net.hi.astype(np.int64) - np.where(opens, lo, np.r_[0, net.hi[:-1]])
        high = int(np.sum(deg >= 2**15) + np.sum(gaps >= 2**15))
        assert deg[0] >= 2**15 and np.sum(gaps >= 2**15) >= 2
        # 8 bytes per county and county run, a bit and 2 bytes per node, 2 per edge and high word
        fixed = len(cn.MAGIC) + cn._HEADER.size + 8 * 3 + 8 * 4 + (net.n_nodes + 7) // 8
        assert size == fixed + 2 * (net.n_nodes + net.n_edges + high)

    def test_words_up_to_2_31(self, tmp_path):
        # No network that fits in memory has a gap of 2^30: these rows are written unchecked,
        # so that their words can be read back, and the file's ends are past its nodes.
        ends = np.array([2**30, 2**31 - 1], dtype=np.uint32)
        fake = SimpleNamespace(n_nodes=3, ptr=np.array([0, 2, 2, 2]), hi=ends,
                               county_index=np.zeros(3, dtype=np.int32),
                               misinformed=np.zeros(3, dtype=bool), county_ids=np.array([1]),
                               k_bar=1.0, seed=0)
        path = tmp_path / "wide.bin"
        cn.save_contact_network(fake, path)
        assert path.read_bytes() == contactnet_bytes(fake)
        with open(path, "rb") as f:
            f.seek(len(cn.MAGIC) + cn._HEADER.size + 8 + 8 + 1)
            deg, left = cn._read_words(f, 3, 2)
            gaps, left = cn._read_words(f, 2, left)
        assert deg.tolist() == [2, 0, 0] and gaps.tolist() == [2**30, 2**30 - 1] and left == 0
        with pytest.raises(ValidationError, match="wide.bin: edge endpoint out of range"):
            cn.load_contact_network(path)

    def test_save_refuses_2_31_nodes(self, tmp_path):
        with pytest.raises(ValidationError, match="fewer than 2\\^31 nodes, not 2147483648"):
            cn.save_contact_network(SimpleNamespace(n_nodes=2**31, ptr=None, hi=None, county_index=None),
                                    tmp_path / "big.bin")
        assert not (tmp_path / "big.bin").exists()
