from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from smirsim import infonet as inet
from smirsim import scenario as scen
from smirsim.errors import ParseError, ValidationError

from conftest import build_infonet, build_scenario
from oracles import brute_force_misinformed, reference_account_layout, reference_infonet

NETWORK_FIELDS = ("ids", "county", "alignment", "seed", "edge_src", "edge_dst", "edge_weight")

# Shares that put share * count exactly on k + 0.5 for some small counts
# (0.5 * 3, 0.25 * 6, 0.375 * 4, ...), where rounding half up matters.
HALF_SHARES = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0)


class TestNetworkValidation:
    def test_rejects_self_edge(self):
        with pytest.raises(ValidationError, match="self-edges"):
            build_infonet(2, [(0, 0, 1)])

    def test_rejects_zero_weight(self):
        with pytest.raises(ValidationError, match="weights"):
            build_infonet(2, [(0, 1, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_infonet(2, [(0, 1, 1), (0, 1, 2)])

    def test_rejects_no_nodes(self):
        with pytest.raises(ValidationError, match="at least one node"):
            build_infonet(0, [])

    @pytest.mark.parametrize("name", ["county", "alignment", "seed"])
    def test_rejects_node_array_of_another_length(self, name):
        net = build_infonet(3, [])
        with pytest.raises(ValidationError, match=f"{name} length does not match node count"):
            replace(net, **{name: getattr(net, name)[:2]})

    @pytest.mark.parametrize("name", ["edge_src", "edge_dst", "edge_weight"])
    def test_rejects_edge_arrays_of_mismatched_lengths(self, name):
        net = build_infonet(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ValidationError, match="mismatched lengths"):
            replace(net, **{name: getattr(net, name)[:1]})

    @pytest.mark.parametrize("edge, end", [
        ((3, 0, 1), "edge_src"), ((-1, 0, 1), "edge_src"),
        ((0, 3, 1), "edge_dst"), ((0, -1, 1), "edge_dst"),
    ])
    def test_rejects_edge_index_out_of_range(self, edge, end):
        with pytest.raises(ValidationError, match=f"{end} index out of range"):
            build_infonet(3, [edge])

    def test_party_from_alignment_sign(self):
        net = build_infonet(4, [], alignment=[0.3, -0.7, 0.0, np.nan])
        assert list(net.party) == [inet.REPUBLICAN, inet.DEMOCRAT, inet.NO_PARTY, inet.NO_PARTY]


class TestSpread:
    def test_phi_one_converts_every_exposed_node(self):
        # seeds 0,1; nodes 2,3 each hear from one seed; 4 hears nothing
        net = build_infonet(5, [(0, 2, 1), (1, 3, 4), (2, 4, 1)], seeds=[0, 1])
        misinformed = inet.spread_misinformation(net, 1)
        assert list(misinformed) == [True, True, True, True, False]

    def test_unreachable_threshold_leaves_only_seeds(self):
        net = build_infonet(5, [(0, 2, 1), (1, 2, 9), (1, 3, 2)], seeds=[0, 1])
        misinformed = inet.spread_misinformation(net, 50)
        assert np.array_equal(misinformed, net.seed)

    def test_distinct_versus_weighted_modes(self):
        # seeds {a=0, b=1}; a->c w3, b->c w1, a->d w5
        net = build_infonet(4, [(0, 2, 3), (1, 2, 1), (0, 3, 5)], seeds=[0, 1])
        distinct = inet.spread_misinformation(net, 2, inet.DISTINCT_FRIENDS)
        assert list(distinct) == [True, True, True, False]
        weighted = inet.spread_misinformation(net, 2, inet.RETWEET_WEIGHTED)
        assert list(weighted) == [True, True, True, True]

    def test_single_pass_does_not_cascade(self):
        # chain seed -> a -> b: a converts, b must not (no iteration)
        net = build_infonet(3, [(0, 1, 1), (1, 2, 1)], seeds=[0])
        misinformed = inet.spread_misinformation(net, 1)
        assert list(misinformed) == [True, True, False]

    def test_exposure_follows_retweet_direction(self):
        # seed 1 retweets 0: edge (0 -> 1); node 0 gets no exposure from it
        net = build_infonet(2, [(0, 1, 1)], seeds=[1])
        misinformed = inet.spread_misinformation(net, 1)
        assert list(misinformed) == [False, True]

    def test_rejects_bad_phi_and_mode(self):
        net = build_infonet(2, [(0, 1, 1)])
        with pytest.raises(ValidationError):
            inet.spread_misinformation(net, 0)
        with pytest.raises(ValidationError):
            inet.spread_misinformation(net, 1, mode="osmosis")

    def test_monotone_in_phi_and_contains_seeds(self, rng):
        for trial in range(20):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(0, 4 * n))
            pairs = set()
            while len(pairs) < m:
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    pairs.add((int(a), int(b)))
            edges = [(a, b, int(rng.integers(1, 6))) for a, b in pairs]
            seeds = [i for i in range(n) if rng.random() < 0.2]
            net = build_infonet(n, edges, seeds=seeds)
            for mode in (inet.DISTINCT_FRIENDS, inet.RETWEET_WEIGHTED):
                prev = None
                for phi in range(1, 6):
                    misinformed = inet.spread_misinformation(net, phi, mode)
                    assert np.all(misinformed[net.seed])
                    if prev is not None:
                        assert np.all(prev | ~misinformed)  # shrinking sets
                    prev = misinformed

    def test_matches_brute_force_recount(self, rng):
        for trial in range(30):
            n = int(rng.integers(2, 13))
            pairs = set()
            for _ in range(int(rng.integers(0, n * 2))):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    pairs.add((int(a), int(b)))
            edges = [(a, b, int(rng.integers(1, 5))) for a, b in pairs]
            seeds = {i for i in range(n) if rng.random() < 0.3}
            net = build_infonet(n, edges, seeds=seeds)
            for phi in range(1, 6):
                for mode, weighted in (
                    (inet.DISTINCT_FRIENDS, False),
                    (inet.RETWEET_WEIGHTED, True),
                ):
                    got = set(np.flatnonzero(inet.spread_misinformation(net, phi, mode)))
                    want = brute_force_misinformed(n, edges, seeds, phi, weighted)
                    assert got == want


class TestGenerator:
    def scenario(self):
        return build_scenario(
            voters=[4000, 2500, 1500],
            shares=[0.7, 0.4, 0.5],
            users=[300, 180, 120],
        )

    def test_county_counts_and_party_split(self):
        cfg = scen.ScenarioConfig()
        net = inet.generate_synthetic_infonet(self.scenario(), cfg, rng_seed=1)
        assert net.n_nodes == 600
        counts = {c: int((net.county == c).sum()) for c in (1000, 1001, 1002)}
        assert counts == {1000: 300, 1001: 180, 1002: 120}
        rep = (net.party[net.county == 1000] == inet.REPUBLICAN).mean()
        assert rep == pytest.approx(0.7, abs=0.01)

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.sampled_from(HALF_SHARES) | st.floats(0, 1)),
            min_size=1,
            max_size=6,
        ).filter(lambda counties: any(users for users, _ in counties))
    )
    @example([(0, 0.5), (3, 0.5), (0, 0.25), (6, 0.25)])
    def test_account_layout_matches_reference(self, counties):
        users, shares = zip(*counties)
        scenario = build_scenario([100] * len(users), shares=shares, users=users)
        cfg = scen.ScenarioConfig(edges_per_node=1)
        net = inet.generate_synthetic_infonet(scenario, cfg, rng_seed=0)
        county, party = reference_account_layout(scenario)
        assert np.array_equal(net.county, county) and net.county.dtype == np.int64
        assert np.array_equal(net.party, party)

    def test_heavy_tailed_in_degree(self):
        net = inet.generate_synthetic_infonet(self.scenario(), scen.ScenarioConfig(), 3)
        in_deg = np.bincount(net.edge_dst, minlength=net.n_nodes)
        assert in_deg.max() > 10 * max(in_deg.mean(), 1)

    def test_no_seed_rate_means_no_misinformed(self):
        cfg = scen.ScenarioConfig(seed_rate_republican=0.0, seed_rate_democrat=0.0)
        net = inet.generate_synthetic_infonet(self.scenario(), cfg, 5)
        assert net.seed.sum() == 0
        for phi in (1, 3):
            assert not inet.spread_misinformation(net, phi).any()

    def test_full_homophily_keeps_edges_within_party(self):
        cfg = scen.ScenarioConfig(homophily=1.0)
        net = inet.generate_synthetic_infonet(self.scenario(), cfg, 7)
        party = net.party
        assert np.all(party[net.edge_src] == party[net.edge_dst])

    def test_same_seed_is_byte_identical(self):
        cfg = scen.ScenarioConfig()
        a = inet.generate_synthetic_infonet(self.scenario(), cfg, 11)
        b = inet.generate_synthetic_infonet(self.scenario(), cfg, 11)
        assert_same_network(a, b)

    def test_different_seed_differs(self):
        cfg = scen.ScenarioConfig()
        a = inet.generate_synthetic_infonet(self.scenario(), cfg, 11)
        b = inet.generate_synthetic_infonet(self.scenario(), cfg, 12)
        assert not np.array_equal(a.edge_dst, b.edge_dst)

    def test_rejects_bad_config(self):
        with pytest.raises(ValidationError):
            scen.ScenarioConfig(homophily=1.5)
        with pytest.raises(ValidationError):
            scen.ScenarioConfig(edges_per_node=0)


def assert_same_network(a, b):
    for name in NETWORK_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), name


class TestGeneratorMatchesLoop:
    """The bulk copy-model resolution against the arrival loop it replaces."""

    @pytest.mark.parametrize("shares", [[0.0] * 4, [1.0] * 4, [0.9, 0.3, 0.5, 0.0]])
    @pytest.mark.parametrize("homophily", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("edges_per_node", [1, 5, 20])
    def test_grid(self, shares, homophily, edges_per_node):
        sc = build_scenario([100] * 4, shares=shares, users=[40, 25, 0, 35])
        cfg = scen.ScenarioConfig(edges_per_node=edges_per_node, homophily=homophily)
        for seed in (0, 1, 2):
            assert_same_network(
                inet.generate_synthetic_infonet(sc, cfg, seed), reference_infonet(sc, cfg, seed)
            )

    @given(
        st.lists(st.tuples(st.integers(0, 15), st.floats(0, 1)), min_size=1, max_size=5)
        .filter(lambda counties: any(users for users, _ in counties)),
        st.integers(1, 8),
        st.floats(0, 1),
        st.integers(0, 2**32),
    )
    def test_random_scenarios(self, counties, edges_per_node, homophily, seed):
        users, shares = zip(*counties)
        sc = build_scenario([100] * len(users), shares=shares, users=users)
        cfg = scen.ScenarioConfig(edges_per_node=edges_per_node, homophily=homophily)
        assert_same_network(
            inet.generate_synthetic_infonet(sc, cfg, seed), reference_infonet(sc, cfg, seed)
        )

    def test_single_account(self):
        sc = build_scenario([100], shares=[1.0], users=[1])
        cfg = scen.ScenarioConfig()
        net = inet.generate_synthetic_infonet(sc, cfg, 4)
        assert net.n_edges == 0
        assert_same_network(net, reference_infonet(sc, cfg, 4))

    def test_default_scenario(self):
        cfg = scen.ScenarioConfig(seed=1)
        sc, net = scen.generate_scenario(cfg)
        assert net.n_nodes == 181_202 and net.n_edges == 870_958
        expected = reference_infonet(sc, cfg, scen.derive_seed(1, scen._STREAM_INFONET))
        assert_same_network(net, expected)


class TestSeedEdges:
    """A network pruned to its seed-sourced edges spreads as the full one does."""

    def networks(self):
        sc = build_scenario([100] * 4, shares=[0.9, 0.3, 0.5, 0.0], users=[40, 25, 0, 35])
        cfg = scen.ScenarioConfig(seed_rate_republican=0.3, seed_rate_democrat=0.1)
        return [inet.generate_synthetic_infonet(sc, cfg, seed) for seed in range(5)]

    def test_every_spread_is_unchanged(self):
        for net in self.networks():
            pruned = inet.seed_edges(net)
            assert 0 < pruned.n_edges < net.n_edges
            for phi in (1, 2, 3, 7):
                for mode in (inet.DISTINCT_FRIENDS, inet.RETWEET_WEIGHTED):
                    assert np.array_equal(inet.spread_misinformation(pruned, phi, mode),
                                          inet.spread_misinformation(net, phi, mode))

    def test_keeps_exactly_the_seed_sourced_edges_in_order(self):
        for net in self.networks():
            pruned = inet.seed_edges(net)
            edges = zip(net.edge_src.tolist(), net.edge_dst.tolist(), net.edge_weight.tolist())
            kept = zip(pruned.edge_src.tolist(), pruned.edge_dst.tolist(),
                       pruned.edge_weight.tolist())
            assert list(kept) == [e for e in edges if net.seed[e[0]]]
            for name in NETWORK_FIELDS:
                assert getattr(pruned, name).dtype == getattr(net, name).dtype, name
            for name in ("ids", "county", "alignment", "seed"):
                assert getattr(pruned, name) is getattr(net, name), name

    def test_pruning_twice_is_pruning_once(self):
        for net in self.networks():
            once = inet.seed_edges(net)
            assert_same_network(inet.seed_edges(once), once)

    def test_no_seeds_keeps_no_edges(self):
        net = build_infonet(4, [(0, 1, 2), (2, 3, 1), (3, 0, 5)])
        pruned = inet.seed_edges(net)
        assert pruned.n_edges == 0
        assert not inet.spread_misinformation(pruned, 1).any()


class TestRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        net = build_infonet(
            4,
            [(0, 1, 3), (2, 3, 1), (1, 3, 2)],
            county=[1000, 1000, 1001, 1001],
            alignment=[0.5, np.nan, -0.25, 0.0],
            seeds=[0],
        )
        inet.save_infonet(net, tmp_path / "n.csv", tmp_path / "e.csv")
        back = inet.load_infonet(tmp_path / "n.csv", tmp_path / "e.csv")
        assert back.ids.dtype == np.int64 and np.array_equal(back.ids, net.ids)
        assert np.array_equal(back.county, net.county)
        assert np.array_equal(back.alignment, net.alignment, equal_nan=True)
        assert np.array_equal(back.seed, net.seed)
        assert np.array_equal(back.edge_weight, net.edge_weight)

    def test_generated_network_round_trips_array_for_array(self, tmp_path):
        _, net = scen.generate_scenario(scen.ScenarioConfig(county_count=4, seed=3))
        inet.save_infonet(net, tmp_path / "n.csv", tmp_path / "e.csv")
        back = inet.load_infonet(tmp_path / "n.csv", tmp_path / "e.csv")
        for name in ("ids", "county", "alignment", "seed", "edge_src", "edge_dst", "edge_weight"):
            want, got = getattr(net, name), getattr(back, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want, equal_nan=name == "alignment"), name

    def test_parse_error_reports_line(self, tmp_path):
        (tmp_path / "n.csv").write_text("id,county_fips,alignment,misinformed_seed\nu1,1000,0.5,0\nu2,oops,,1\n")
        (tmp_path / "e.csv").write_text("src,dst,weight\n")
        with pytest.raises(ParseError, match="n.csv:3"):
            inet.load_infonet(tmp_path / "n.csv", tmp_path / "e.csv")

    def test_unknown_edge_endpoint_rejected(self, tmp_path):
        (tmp_path / "n.csv").write_text("id,county_fips,alignment,misinformed_seed\nu1,1000,0.5,0\n")
        (tmp_path / "e.csv").write_text("src,dst,weight\nu1,zz,1\n")
        with pytest.raises(ParseError, match="e.csv:2"):
            inet.load_infonet(tmp_path / "n.csv", tmp_path / "e.csv")
