import itertools
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from smirsim import contactnet as cn
from smirsim import infonet as inet
from smirsim.errors import NumericError, ValidationError
from smirsim.scenario import generate_synthetic_mobility

from conftest import build_infonet, build_scenario


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

    def test_county_marginals_exact(self, rng):
        voters = [1234, 8888, 402, 61000]
        scenario, net = self.make_inputs(voters, [0.3, 0.5, 0.8, 0.45])
        nodes = cn.sample_population(scenario, net, 0.037, rng_seed=9)
        want = np.floor(np.asarray(voters) * 0.037 + 0.5).astype(int)
        assert np.bincount(nodes.county_index, minlength=4).tolist() == want.tolist()

    def test_misinformed_fraction_non_increasing_in_phi(self):
        scenario = build_scenario([3000, 2000], [0.6, 0.4], users=[200, 150])
        net = inet.generate_synthetic_infonet(scenario, inet.InfoGenConfig(), rng_seed=21)
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

    def test_memory_peak_per_edge(self, large_net):
        # Two uint32 neighbor halves (one a view of edges) plus the uint64
        # sort keys, with no int64 copy of a whole column on the side.
        net = replace(large_net)  # a fresh index, whatever ran before
        peak = traced_peak(lambda: net.adjacency)
        assert peak <= 16 * net.n_edges

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
            assert other.edges is net.edges
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


class TestValidation:
    """ContactNetwork rejects edge lists and county indices that break its invariants."""

    def network(self, edges, county_index=(0, 0, 1, 1)):
        return cn.ContactNetwork(
            county_ids=np.array([1000, 1001]),
            county_index=np.array(county_index, dtype=np.int32),
            misinformed=np.zeros(len(county_index), dtype=bool),
            edges=np.array(edges, dtype=np.uint32).reshape(-1, 2),
            k_bar=2.0,
            seed=0,
        )

    def test_accepts_a_canonical_edge_list(self):
        net = self.network([[0, 1], [0, 3], [1, 2], [2, 3]])
        assert net.n_edges == 4
        assert self.network([]).n_edges == 0

    @pytest.mark.parametrize("edges", [
        [[0, 3], [0, 1]],  # hi decreases under one lo
        [[1, 2], [0, 3]],  # lo decreases
        [[0, 1], [2, 3], [1, 2]],
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
        assert np.array_equal(back.edges, net.edges)
        assert back.k_bar == net.k_bar
        assert back.seed == net.seed

    def test_binary_is_byte_stable(self, tmp_path):
        net = self.build()
        cn.save_contact_network(net, tmp_path / "a.bin")
        cn.save_contact_network(net, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_save_does_not_copy_the_edges(self, tmp_path, large_net):
        peak = traced_peak(lambda: cn.save_contact_network(large_net, tmp_path / "net.bin"))
        assert peak <= 2 * large_net.n_edges

    def test_load_reads_into_the_kept_arrays(self, tmp_path, large_net):
        # The network keeps ~8.4 bytes per edge; loading may add the check's
        # small temporaries, but no second copy of the edges.
        cn.save_contact_network(large_net, tmp_path / "net.bin")
        peak = traced_peak(lambda: cn.load_contact_network(tmp_path / "net.bin"))
        assert peak <= 10 * large_net.n_edges

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"something else entirely")
        with pytest.raises(ValidationError):
            cn.load_contact_network(p)
